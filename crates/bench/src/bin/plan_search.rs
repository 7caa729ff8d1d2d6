//! Planner search benchmark: how fast the adaptive investigation
//! planner expands the lawful-process space as the evidence-goal count
//! climbs, and how hard the shared verdict cache works for it.
//!
//! Run with: `cargo run -p bench --bin plan_search --release`. Takes
//! `--items N` (the largest item count, default 12, capped at the
//! planner's 32-item limit) and `--threads T` for the assessor pool.
//!
//! The state space is a subset lattice — every extra same-rung item
//! roughly doubles the reachable frontier — so the interesting pair of
//! curves is nodes-expanded (exponential by design) against
//! nodes-expanded/s (which should stay flat: a solve assesses its
//! candidates in one batched call up front, and an expansion only reads
//! that verdict table). Each sweep point solves a synthetic problem
//! drawn from the Table 1 scenario space on a fresh planner (cold
//! cache); a final phase re-solves the largest problem at 1, 2, and 8
//! assessor threads and asserts byte-identical plans, then once more on
//! a warmed planner to pin full cache amortization.

use planner::{parse_problem, PlanOutcome, Planner};
use service::cli::Args;
use std::fmt::Write as _;

/// The collect-spec pool, cycled to build synthetic problems: the
/// provider-records SCA ladder, device and public collections, and a
/// pen/trap stream — each at a different natural process rung.
const SPEC_POOL: &[(&str, &str)] = &[
    (
        "subscriber records",
        r#"{"actor": "leo", "data": "subscriber", "when": "stored", "where": "provider"}"#,
    ),
    (
        "transaction logs",
        r#"{"actor": "leo", "data": "records", "when": "stored", "where": "provider"}"#,
    ),
    (
        "unopened mailbox",
        r#"{"actor": "leo", "data": "content", "when": "stored-unopened", "where": "provider"}"#,
    ),
    (
        "device image",
        r#"{"actor": "leo", "data": "content", "when": "stored", "where": "device"}"#,
    ),
    (
        "public posts",
        r#"{"actor": "leo", "data": "content", "when": "stored", "where": "public"}"#,
    ),
    (
        "pen register stream",
        r#"{"actor": "leo", "data": "headers", "when": "realtime", "where": "isp"}"#,
    ),
    (
        "admin flow logs",
        r#"{"actor": "admin", "data": "headers", "when": "stored", "where": "own-network"}"#,
    ),
    (
        "opened provider mail",
        r#"{"actor": "leo", "data": "content", "when": "stored", "where": "provider"}"#,
    ),
];

/// Showings the collected evidence may raise, cycled across items; the
/// empty slot means the item yields nothing.
const YIELDS_CYCLE: &[&str] = &[
    "reasonable-suspicion",
    "",
    "articulable-facts",
    "",
    "probable-cause",
    "",
];

/// Builds a deterministic synthetic problem with `items` evidence
/// items (every fourth one a lead), a consent route priced between
/// the subpoena and warrant rungs, and a mere-suspicion start.
fn problem_text(items: usize) -> String {
    let mut out = String::new();
    out.push_str("{\"start\": {\"standard\": \"mere-suspicion\"}}\n");
    out.push_str("{\"routes\": [\"consent\"]}\n");
    out.push_str("{\"costs\": {\"route\": 40}}\n");
    for i in 0..items {
        let (name, spec) = SPEC_POOL[i % SPEC_POOL.len()];
        let kind = if i % 4 == 3 { "lead" } else { "goal" };
        let yields = YIELDS_CYCLE[i % YIELDS_CYCLE.len()];
        let _ = write!(out, r#"{{"{kind}": "{name} #{i}", "collect": {spec}"#);
        if !yields.is_empty() {
            let _ = write!(out, r#", "yields": "{yields}""#);
        }
        out.push_str("}\n");
    }
    out
}

/// The item-count axis: doubling steps ending on `max`.
fn item_axis(max: usize) -> Vec<usize> {
    let mut sizes = vec![4usize, 6, 8, 10];
    sizes.retain(|&s| s < max);
    sizes.push(max);
    sizes
}

fn main() {
    let args = Args::parse(&["items", "threads"]);
    let max_items = args.usize_flag("items", 12).clamp(4, 32);
    let threads = args.usize_flag(
        "threads",
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    );

    println!("plan search — best-first over the lawful-process space\n");
    println!(
        "{:<8} {:>6} {:>10} {:>12} {:>8} {:>12} {:>10} {:>10} {:>10}",
        "items",
        "goals",
        "nodes",
        "candidates",
        "batches",
        "nodes/s",
        "hit rate",
        "wall ms",
        "cost"
    );
    bench::rule(94);

    for items in item_axis(max_items) {
        let text = problem_text(items);
        let problem = parse_problem(text.as_bytes()).expect("synthetic problem parses");
        let goals = text.matches("\"goal\"").count();
        // Fresh planner per point: every solve starts cache-cold, and
        // looks each candidate up once, so the hit rate below is the
        // share of candidates repeating an earlier fact pattern.
        let planner = Planner::with_threads(threads);
        let outcome = planner.solve(&problem).expect("synthetic problem solves");
        let stats = outcome.stats().clone();
        let (solved, total_cost) = match &outcome {
            PlanOutcome::Plan(plan) => (true, plan.total_cost),
            PlanOutcome::NoLawfulPath(_) => (false, 0),
        };
        assert!(solved, "synthetic problem at {items} items has no plan");
        let wall_ms = stats.wall.as_secs_f64() * 1e3;
        println!(
            "{:<8} {:>6} {:>10} {:>12} {:>8} {:>12.0} {:>9.1}% {:>10.1} {:>10}",
            items,
            goals,
            stats.nodes_expanded,
            stats.candidates_evaluated,
            stats.batch_calls,
            stats.nodes_per_second(),
            stats.cache_hit_rate() * 100.0,
            wall_ms,
            total_cost,
        );
    }

    // Determinism: the emitted plan bytes must not depend on the
    // assessor thread count.
    let text = problem_text(max_items);
    let problem = parse_problem(text.as_bytes()).expect("synthetic problem parses");
    let renders: Vec<String> = [1usize, 2, 8]
        .iter()
        .map(|&t| {
            Planner::with_threads(t)
                .solve(&problem)
                .expect("solves")
                .render()
        })
        .collect();
    let identical = renders.iter().all(|r| r == &renders[0]);
    assert!(identical, "plan bytes changed with the thread count");
    println!("\ndeterminism: {max_items}-item plan byte-identical at 1/2/8 assessor threads");

    // Warm cache: a second solve on the same planner must answer every
    // verdict lookup from the shared cache.
    let planner = Planner::with_threads(threads);
    planner.solve(&problem).expect("cold solve");
    let warm = planner.solve(&problem).expect("warm solve");
    let warm_stats = warm.stats().clone();
    assert_eq!(warm_stats.cache_misses, 0, "warm solve missed the cache");
    println!(
        "warm cache: second solve {} hits, {} misses ({:.1}% hit rate)",
        warm_stats.cache_hits,
        warm_stats.cache_misses,
        warm_stats.cache_hit_rate() * 100.0
    );
}
