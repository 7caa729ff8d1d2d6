//! Batch-assessment throughput driver: sequential engine calls vs the
//! sharded verdict cache vs the multi-threaded batch assessor, over a
//! large synthetic workload.
//!
//! ```console
//! $ cargo run --release --bin throughput -- [N_ACTIONS] [--threads N] [--seed S]
//! ```
//!
//! The workload cycles the paper's twenty Table 1 fact patterns plus a
//! spread of perturbed variants — many repeats of a few hundred distinct
//! fact keys, the shape of a real capture-archive sweep. The driver
//! prints per-strategy wall-clock, throughput, the speedup over the
//! sequential baseline, and the cache's hit/miss statistics, and records
//! the measurements in `BENCH_results.json`. `--seed` shuffles the
//! workload order (0 keeps the cyclic order); `--threads` pins the batch
//! assessor's worker count.

use bench::results::{self, Json};
use forensic_law::batch::{BatchAssessor, VerdictCache};
use forensic_law::engine::ComplianceEngine;
use forensic_law::prelude::*;
use forensic_law::scenarios::table1;
use service::cli::Args;
use simcore::rng::SimRng;
use std::hint::black_box;
use std::time::Instant;

const DEFAULT_ACTIONS: usize = 100_000;

/// Deterministic synthetic workload: the Table 1 actions interleaved
/// with single-flag perturbations of each, cycled up to `n` entries and
/// optionally shuffled by `seed` (0 = keep the cyclic order).
fn workload(n: usize, seed: u64) -> Vec<InvestigativeAction> {
    let mut patterns: Vec<InvestigativeAction> =
        table1().iter().map(|s| s.action().clone()).collect();

    // Perturb each row along a few doctrinally interesting axes to widen
    // the key space beyond the bare table.
    let base = patterns.clone();
    for action in &base {
        let mut consented = InvestigativeAction::builder(action.actor(), action.data());
        consented.with_consent(Consent::by(ConsentAuthority::TargetSelf));
        patterns.push(consented.build());

        let mut probation = InvestigativeAction::builder(action.actor(), action.data());
        probation.target_on_probation();
        patterns.push(probation.build());

        let mut rate_only = InvestigativeAction::builder(action.actor(), action.data());
        rate_only.rate_observation_only();
        patterns.push(rate_only.build());
    }

    let mut actions: Vec<InvestigativeAction> = (0..n)
        .map(|i| patterns[i % patterns.len()].clone())
        .collect();
    if seed != 0 {
        SimRng::seed_from(seed).shuffle(&mut actions);
    }
    actions
}

fn count_need(assessments: impl IntoIterator<Item = Verdict>) -> usize {
    assessments
        .into_iter()
        .filter(|v| v.needs_process())
        .count()
}

fn main() {
    let args = Args::parse();
    let n: usize = args
        .positional(0)
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| args.usize_flag("actions", DEFAULT_ACTIONS));
    let threads = args.usize_flag(
        "threads",
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    );
    let seed = args.u64_flag("seed", 0);

    println!("batch-assessment throughput over {n} synthetic actions ({threads} threads)");
    bench::rule(72);

    let actions = workload(n, seed);
    let engine = ComplianceEngine::new();

    // Strategy 1: sequential, no cache — one full engine run per action.
    let start = Instant::now();
    let need_seq = count_need(actions.iter().map(|a| engine.assess(a).verdict()));
    let seq = start.elapsed();
    println!(
        "sequential      {:>10.1?}  {:>12.0} actions/s",
        seq,
        n as f64 / seq.as_secs_f64()
    );

    // Strategy 2: sequential through the sharded verdict cache.
    let cache = VerdictCache::new();
    let start = Instant::now();
    let need_cached = count_need(actions.iter().map(|a| cache.assess(&engine, a).verdict()));
    let cached = start.elapsed();
    println!(
        "cached          {:>10.1?}  {:>12.0} actions/s   {:>6.1}x vs sequential",
        cached,
        n as f64 / cached.as_secs_f64(),
        seq.as_secs_f64() / cached.as_secs_f64()
    );
    println!("  cache: {}", cache.stats());

    // Strategy 3: the batch assessor (threads + shared cache).
    let assessor = BatchAssessor::new().with_threads(threads);
    let start = Instant::now();
    let (assessments, report) = assessor.assess_all_with_report(&actions);
    let batched = start.elapsed();
    let need_batched = count_need(assessments.iter().map(|a| a.verdict()));
    black_box(&assessments);
    println!(
        "batched         {:>10.1?}  {:>12.0} actions/s   {:>6.1}x vs sequential",
        batched,
        n as f64 / batched.as_secs_f64(),
        seq.as_secs_f64() / batched.as_secs_f64()
    );
    println!("  threads: {}", report.threads);
    println!("  cache: {}", assessor.cache().stats());

    bench::rule(72);
    assert_eq!(need_seq, need_cached, "cached strategy changed answers");
    assert_eq!(need_seq, need_batched, "batched strategy changed answers");
    println!(
        "agreement: all three strategies say {} of {} actions need process",
        need_seq, n
    );

    let speedup = seq.as_secs_f64() / batched.as_secs_f64();
    println!("batched speedup over sequential: {speedup:.1}x");

    let entry = |name: &str, wall: std::time::Duration| {
        Json::obj()
            .set("name", name)
            .set("trials", n)
            .set("wall_ms", wall.as_secs_f64() * 1e3)
            .set("speedup", seq.as_secs_f64() / wall.as_secs_f64())
    };
    let section = Json::obj()
        .set("name", "throughput")
        .set(
            "config",
            Json::obj()
                .set("actions", n)
                .set("threads", threads)
                .set("seed", seed),
        )
        .set(
            "entries",
            Json::Arr(vec![
                entry("sequential", seq),
                entry("cached", cached),
                entry("batched", batched),
            ]),
        );
    results::record("throughput", section).expect("write BENCH_results.json");
    println!("wrote {}", results::RESULTS_FILE);
}
