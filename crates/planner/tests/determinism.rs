//! The determinism contract: the emitted plan bytes are identical at
//! any assessor thread count, on both plan and no-lawful-path
//! outcomes, and a solve's engine work is fixed by the problem alone.
//! This is the suite the nightly ThreadSanitizer workflow runs against
//! the planner.

use forensic_law::factkey::FactKey;
use planner::{parse_problem, Planner};
use std::collections::HashSet;

/// An 8-item problem mixing goals, leads, routes, and both engine
/// verdict families, so the search reads verdicts at every expansion.
const PROBLEM: &[u8] = br#"
{"start": {"standard": "mere-suspicion"}}
{"routes": ["consent", "exigent"]}
{"goal": "subscriber records", "collect": {"actor": "leo", "data": "subscriber", "when": "stored", "where": "provider"}, "yields": "reasonable-suspicion"}
{"goal": "transaction logs", "collect": {"actor": "leo", "data": "records", "when": "stored", "where": "provider"}, "yields": "articulable-facts"}
{"goal": "mailbox content", "collect": {"actor": "leo", "data": "content", "when": "stored-unopened", "where": "provider"}, "yields": "probable-cause"}
{"goal": "laptop image", "collect": {"actor": "leo", "data": "content", "when": "stored", "where": "device"}}
{"lead": "public posts", "collect": {"actor": "leo", "data": "content", "when": "stored", "where": "public"}, "yields": "reasonable-suspicion"}
{"lead": "open wifi capture", "collect": {"actor": "leo", "data": "headers", "when": "realtime", "where": "isp"}}
{"lead": "admin logs", "collect": {"actor": "admin", "data": "headers", "when": "stored", "where": "own-network"}}
{"goal": "live audio", "collect": {"actor": "leo", "data": "content", "when": "realtime", "where": "isp"}, "yields": "probable-cause-plus"}
"#;

/// The same problem minus the unreachable wiretap goal, so it solves.
const SOLVABLE: &[u8] = br#"
{"start": {"standard": "mere-suspicion"}}
{"routes": ["consent", "exigent"]}
{"goal": "subscriber records", "collect": {"actor": "leo", "data": "subscriber", "when": "stored", "where": "provider"}, "yields": "reasonable-suspicion"}
{"goal": "transaction logs", "collect": {"actor": "leo", "data": "records", "when": "stored", "where": "provider"}, "yields": "articulable-facts"}
{"goal": "mailbox content", "collect": {"actor": "leo", "data": "content", "when": "stored-unopened", "where": "provider"}, "yields": "probable-cause"}
{"goal": "laptop image", "collect": {"actor": "leo", "data": "content", "when": "stored", "where": "device"}}
{"lead": "public posts", "collect": {"actor": "leo", "data": "content", "when": "stored", "where": "public"}, "yields": "reasonable-suspicion"}
{"lead": "open wifi capture", "collect": {"actor": "leo", "data": "headers", "when": "realtime", "where": "isp"}}
{"lead": "admin logs", "collect": {"actor": "admin", "data": "headers", "when": "stored", "where": "own-network"}}
"#;

fn render_at(problem_text: &[u8], threads: usize) -> String {
    let problem = parse_problem(problem_text).expect("problem parses");
    Planner::with_threads(threads)
        .solve(&problem)
        .expect("solves")
        .render()
}

#[test]
fn plan_bytes_are_identical_at_1_2_and_8_threads() {
    let one = render_at(SOLVABLE, 1);
    let two = render_at(SOLVABLE, 2);
    let eight = render_at(SOLVABLE, 8);
    assert!(one.starts_with("plan:"), "{one}");
    assert_eq!(one, two, "1-thread and 2-thread plans diverge");
    assert_eq!(one, eight, "1-thread and 8-thread plans diverge");
}

#[test]
fn no_lawful_path_bytes_are_identical_at_1_2_and_8_threads() {
    let one = render_at(PROBLEM, 1);
    let two = render_at(PROBLEM, 2);
    let eight = render_at(PROBLEM, 8);
    assert!(one.starts_with("no lawful path:"), "{one}");
    assert_eq!(one, two);
    assert_eq!(one, eight);
}

#[test]
fn repeated_solves_on_one_planner_are_stable_and_cache_amortized() {
    let problem = parse_problem(SOLVABLE).expect("problem parses");
    let planner = Planner::with_threads(4);
    let first = planner.solve(&problem).expect("solves");
    let second = planner.solve(&problem).expect("solves");
    assert_eq!(first.render(), second.render());
    // The second solve re-uses the warmed shared cache: every verdict
    // lookup hits.
    assert_eq!(second.stats().cache_misses, 0);
    assert!(second.stats().cache_hit_rate() > 0.99);
}

/// A solve assesses each candidate once, in one batched call, however
/// many states it expands: the work is a function of the problem, on
/// both outcomes and at any thread count.
#[test]
fn a_solve_assesses_each_candidate_once_in_one_batch() {
    for text in [SOLVABLE, PROBLEM] {
        let problem = parse_problem(text).expect("problem parses");
        let keys: Vec<FactKey> = problem
            .items
            .iter()
            .flat_map(|item| item.variants(&problem.routes).expect("variants build"))
            .map(|variant| FactKey::of(&variant.action))
            .collect();
        let distinct = keys.iter().collect::<HashSet<_>>().len() as u64;
        for threads in [1, 2, 8] {
            let outcome = Planner::with_threads(threads)
                .solve(&problem)
                .expect("solves");
            let stats = outcome.stats();
            assert!(stats.nodes_expanded > 1, "{stats:?}");
            assert_eq!(stats.batch_calls, 1, "{stats:?}");
            assert_eq!(stats.candidates_evaluated, keys.len() as u64, "{stats:?}");
            assert_eq!(stats.cache_misses, distinct, "{stats:?}");
            assert_eq!(stats.cache_hits, keys.len() as u64 - distinct, "{stats:?}");
        }
    }
}
