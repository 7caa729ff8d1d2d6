//! Tracing-overhead driver: what does an **enabled** span ring cost the
//! cached service ceiling when nobody is reading it?
//!
//! ```console
//! $ cargo run --release --bin trace_overhead -- [--requests N] [--trials K] [--rounds R] [--workers W] [--limit-pct P]
//! ```
//!
//! The workload is the service's best case — a small fact-key set fully
//! resident in the verdict cache, `engine_floor` zero — so the fixed
//! per-request cost of tracing (one span pair plus a trace-id mint) is
//! as large a *fraction* of the request as it ever gets. Three choices
//! keep the measurement honest on a noisy single-core box:
//!
//! 1. The queue capacity covers a whole lap, so the submitter never
//!    blocks on admission — without this, back-pressure turns every lap
//!    into submitter/worker condvar ping-pong whose scheduling jitter
//!    swamps a sub-100ns signal.
//! 2. Off and on laps run in adjacent **pairs** (order swapping each
//!    trial): scheduler placement on one core is bimodal on a scale of
//!    whole milliseconds, and only a paired comparison puts both sides
//!    of one trial in the same mode.
//! 3. The verdict compares each side's **fastest lap**. The ceiling is
//!    by definition the least-disturbed run; with dozens of laps per
//!    side, both minima converge to the quiet-box floor, and co-tenant
//!    cache pressure (which inflates a *median* on a shared host)
//!    cannot masquerade as tracing cost. A run where even the minima
//!    were disturbed gets up to `--rounds` fresh attempts — the stat
//!    being estimated is the undisturbed ceiling, so taking the best
//!    round is the honest estimator, same as best-of-N microbenching.
//!
//! The driver **fails** when the overhead exceeds the limit (default
//! 5%) in every round: tracing that taxes the hot path more than that
//! does not ship.

use forensic_law::prelude::*;
use forensic_law::scenarios::table1;
use service::cli::Args;
use service::prelude::*;
use std::process::ExitCode;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const DEFAULT_REQUESTS: usize = 20_000;
const DEFAULT_TRIALS: usize = 41;
const DEFAULT_ROUNDS: usize = 5;

/// The cached-ceiling workload: Table 1 fact patterns cycled `n` times,
/// so after the first lap every request is a cache hit.
fn workload(n: usize) -> Vec<InvestigativeAction> {
    let patterns: Vec<InvestigativeAction> = table1().iter().map(|s| s.action().clone()).collect();
    (0..n)
        .map(|i| patterns[i % patterns.len()].clone())
        .collect()
}

/// Pushes every action through the service closed-loop (observer
/// callbacks count completions) and returns the lap's wall time.
fn run_lap(service: &ComplianceService, actions: &[InvestigativeAction]) -> Duration {
    let done = Arc::new((Mutex::new(0usize), Condvar::new()));
    let expected = actions.len();
    let start = Instant::now();
    for action in actions {
        let done = Arc::clone(&done);
        let observer: ResponseObserver = Box::new(move |_| {
            let (count, ready) = &*done;
            let mut count = count.lock().expect("count lock");
            *count += 1;
            // Notify only on the final response: per-response notifies
            // spuriously wake the submitter mid-drain, and that
            // timing-dependent futex traffic is lap-to-lap noise an
            // order of magnitude above the signal being measured.
            if *count == expected {
                ready.notify_one();
            }
        });
        // Admission policy is `block`: a full queue pushes back on this
        // loop instead of rejecting, so every action is admitted — and
        // capacity covers a whole lap, so in practice it never blocks.
        service
            .submit_observed(action.clone(), None, observer)
            .expect("block policy admits every request");
    }
    let (count, ready) = &*done;
    let mut count = count.lock().expect("count lock");
    while *count < actions.len() {
        count = ready.wait(count).expect("count lock");
    }
    start.elapsed()
}

/// One measurement round: `trials` adjacent off/on lap pairs (order
/// swapping each trial so slow drift hits both sides equally), reduced
/// to each side's fastest lap in seconds.
fn measure_round(
    service: &ComplianceService,
    actions: &[InvestigativeAction],
    trials: usize,
) -> (f64, f64) {
    let log = obs::global();
    let mut off_min = f64::MAX;
    let mut on_min = f64::MAX;
    for trial in 0..trials {
        let sides = if trial % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for enabled in sides {
            log.set_enabled(enabled);
            let took = run_lap(service, actions).as_secs_f64();
            if enabled {
                on_min = on_min.min(took);
            } else {
                off_min = off_min.min(took);
            }
        }
    }
    log.set_enabled(false);
    (off_min, on_min)
}

fn main() -> ExitCode {
    let args = Args::parse(&["trials", "rounds", "requests", "workers", "limit-pct"]);
    let requests = args.usize_flag("requests", DEFAULT_REQUESTS);
    let trials = args.usize_flag("trials", DEFAULT_TRIALS).max(1);
    let rounds = args.usize_flag("rounds", DEFAULT_ROUNDS).max(1);
    let limit_pct = args.f64_flag("limit-pct", 5.0);
    let workers = args.usize_flag(
        "workers",
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    );

    println!(
        "tracing overhead at the cached ceiling: {requests} requests per \
         lap, {trials} paired off/on trials, {workers} workers"
    );
    bench::rule(72);

    let actions = workload(requests);
    let service = ComplianceService::start(ServiceConfig {
        workers,
        // Room for the whole pass: the submitter must never block on
        // admission, or scheduler ping-pong drowns the signal.
        capacity: requests.max(1024),
        policy: AdmissionPolicy::Block,
        ..ServiceConfig::default()
    });
    let log = obs::global();
    log.set_enabled(false);

    // Two unmeasured laps fill the verdict cache and warm the pools.
    run_lap(&service, &actions);
    run_lap(&service, &actions);

    let per_lap = requests as f64;
    let mut best: Option<(f64, f64, f64)> = None;
    for round in 0..rounds {
        let (off_min, on_min) = measure_round(&service, &actions, trials);
        let overhead = on_min / off_min - 1.0;
        println!(
            "round {round}: off floor {:>9.0} req/s   on floor {:>9.0} req/s   \
             overhead {:.2}%",
            per_lap / off_min,
            per_lap / on_min,
            overhead * 100.0,
        );
        if best.is_none_or(|(b, _, _)| overhead < b) {
            best = Some((overhead, off_min, on_min));
        }
        if overhead * 100.0 < limit_pct {
            break;
        }
    }
    service.shutdown();

    let (overhead, off_min, on_min) = best.expect("at least one round ran");
    let off_rps = per_lap / off_min;
    let on_rps = per_lap / on_min;
    bench::rule(72);
    println!("ceiling, tracing off: {off_rps:>9.0} req/s (fastest of {trials} laps)");
    println!("ceiling, tracing on:  {on_rps:>9.0} req/s (fastest of {trials} laps)");
    println!(
        "enabled-but-idle overhead: {:.2}% (limit {limit_pct}%)",
        overhead * 100.0
    );

    if overhead * 100.0 >= limit_pct {
        eprintln!(
            "FAIL: enabled tracing costs {:.2}% of the cached ceiling (limit {limit_pct}%)",
            overhead * 100.0
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
