//! Load driver for the `service` crate: deterministic open- and
//! closed-loop traffic against the bounded-queue compliance service,
//! printing throughput/latency/shed-rate curves.
//!
//! ```console
//! $ cargo run --release --bin service_load -- [OPTIONS]
//!     --requests N      requests per scaling point   (default 3000)
//!     --workers N       largest worker count swept   (default 8)
//!     --capacity N      queue capacity               (default 512)
//!     --floor-us F      simulated engine floor, µs   (default 300)
//!     --overload X      offered load vs capacity     (default 2.0)
//!     --overload-requests N  open-loop request count (default 20000)
//!     --seed S          workload seed                (default 42)
//! ```
//!
//! Three experiments, all on the same cache-friendly workload (Table 1
//! patterns plus perturbations, request *i* drawn by
//! `trials::derive_seed(seed, i)` — deterministic and replayable):
//!
//! 1. **Worker scaling** (closed loop, `block`): the same request count
//!    at 1, 2, 4, … workers. The engine floor models the blocking share
//!    of a heavier assessment pipeline, so throughput scales with the
//!    worker pool, not the core count.
//! 2. **Cached ceiling** (closed loop, no floor): the raw plumbing rate
//!    — queue, cache hit, response — with everything hot.
//! 3. **Overload** (open loop, `reject`): requests paced at `--overload`
//!    times the nominal capacity. The bounded queue must turn the excess
//!    into *shed* requests while p99 end-to-end latency stays pinned
//!    near `capacity × service_time / workers` — not growing without
//!    bound the way an unbounded queue's would.
//!
//! The driver asserts the service's books balance after every phase:
//! every accepted request got exactly one response, and nothing was
//! answered twice (double-fulfilment panics in the service itself).

use forensic_law::prelude::*;
use forensic_law::scenarios::table1;
use service::cli::Args;
use service::prelude::*;
use std::time::{Duration, Instant};
use trials::derive_seed;

/// Table 1 patterns plus single-flag perturbations: a cache-friendly
/// key space of a few dozen distinct fact patterns.
fn patterns() -> Vec<InvestigativeAction> {
    let mut patterns: Vec<InvestigativeAction> =
        table1().iter().map(|s| s.action().clone()).collect();
    let base = patterns.clone();
    for action in &base {
        let mut consented = InvestigativeAction::builder(action.actor(), action.data());
        consented.with_consent(Consent::by(ConsentAuthority::TargetSelf));
        patterns.push(consented.build());

        let mut probation = InvestigativeAction::builder(action.actor(), action.data());
        probation.target_on_probation();
        patterns.push(probation.build());
    }
    patterns
}

/// The deterministic request stream: request `i` is a pure function of
/// `(seed, i)` via the trials seed derivation.
fn request(patterns: &[InvestigativeAction], seed: u64, i: u64) -> InvestigativeAction {
    patterns[(derive_seed(seed, i) % patterns.len() as u64) as usize].clone()
}

/// Closed-loop run: `producers` threads push `requests` total through
/// the service and wait for every answer. Returns (wall, completed).
fn closed_loop(
    service: &ComplianceService,
    patterns: &[InvestigativeAction],
    seed: u64,
    requests: u64,
    producers: usize,
) -> (Duration, u64) {
    let start = Instant::now();
    let per_producer = requests.div_ceil(producers as u64);
    let completed = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..producers as u64)
            .map(|p| {
                scope.spawn(move || {
                    let lo = p * per_producer;
                    let hi = (lo + per_producer).min(requests);
                    let mut done = 0u64;
                    let mut tickets = Vec::with_capacity((hi - lo) as usize);
                    for i in lo..hi {
                        let action = request(patterns, seed, i);
                        tickets.push(service.submit(action).expect("block policy admits"));
                    }
                    for ticket in tickets {
                        if matches!(ticket.wait().outcome, Outcome::Completed(_)) {
                            done += 1;
                        }
                    }
                    done
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
    });
    (start.elapsed(), completed)
}

fn main() {
    let args = Args::parse();
    let requests = args.u64_flag("requests", 3000);
    let max_workers = args.usize_flag("workers", 8).max(1);
    let capacity = args.usize_flag("capacity", 512);
    let floor_us = args.u64_flag("floor-us", 300);
    let overload = args.f64_flag("overload", 2.0);
    let overload_requests = args.u64_flag("overload-requests", 20_000);
    let seed = args.u64_flag("seed", 42);

    let patterns = patterns();
    println!(
        "service_load: {} distinct-pattern pool, seed {seed}, floor {floor_us}us, capacity {capacity}",
        patterns.len()
    );
    bench::rule(76);

    // ── Phase 1: worker scaling, closed loop ────────────────────────────
    let mut worker_counts = Vec::new();
    let mut w = 1;
    while w < max_workers {
        worker_counts.push(w);
        w *= 2;
    }
    worker_counts.push(max_workers);

    let mut base_rps = 0.0;
    for &workers in &worker_counts {
        let service = ComplianceService::start(ServiceConfig {
            workers,
            capacity,
            policy: AdmissionPolicy::Block,
            default_deadline: None,
            engine_floor: Duration::from_micros(floor_us),
        });
        let (wall, completed) = closed_loop(
            &service,
            &patterns,
            seed,
            requests,
            workers.min(4), // enough producers to keep the pool fed
        );
        let hit_rate = service.cache().stats().hit_rate();
        let finals = service.shutdown();
        assert_eq!(
            finals.accepted, requests,
            "scaling: admission lost requests"
        );
        assert_eq!(
            finals.responses(),
            finals.accepted,
            "scaling: lost a response"
        );
        assert_eq!(completed, requests, "scaling: not every request completed");

        let rps = requests as f64 / wall.as_secs_f64();
        if workers == 1 {
            base_rps = rps;
        }
        println!(
            "scaling  {workers:>2} workers  {:>9.1?}  {:>9.0} req/s  {:>5.2}x vs 1 worker  ({:.1}% hits)",
            wall,
            rps,
            rps / base_rps,
            hit_rate * 100.0
        );
    }

    // ── Phase 2: cached ceiling, no floor ───────────────────────────────
    let service = ComplianceService::start(ServiceConfig {
        workers: max_workers,
        capacity,
        policy: AdmissionPolicy::Block,
        default_deadline: None,
        engine_floor: Duration::ZERO,
    });
    let (wall, completed) = closed_loop(&service, &patterns, seed, requests, 2);
    let finals = service.shutdown();
    assert_eq!(
        finals.responses(),
        finals.accepted,
        "ceiling: lost a response"
    );
    assert_eq!(completed, requests, "ceiling: not every request completed");
    let ceiling_rps = requests as f64 / wall.as_secs_f64();
    println!("ceiling  {max_workers:>2} workers  {wall:>9.1?}  {ceiling_rps:>9.0} req/s  (floor 0: raw queue+cache plumbing)");

    // ── Phase 3: overload at `overload`× nominal capacity, reject ───────
    // Nominal capacity: `workers` slots each busy ~floor per request.
    let nominal_rps = max_workers as f64 / (floor_us as f64 * 1e-6);
    let offered_rps = nominal_rps * overload;
    let interval = Duration::from_secs_f64(1.0 / offered_rps);
    let service = ComplianceService::start(ServiceConfig {
        workers: max_workers,
        capacity,
        policy: AdmissionPolicy::Reject,
        default_deadline: None,
        engine_floor: Duration::from_micros(floor_us),
    });

    let start = Instant::now();
    let mut tickets = Vec::with_capacity(overload_requests as usize);
    let mut max_depth = 0usize;
    for i in 0..overload_requests {
        // Open-loop pacing: request `i`'s arrival time is a pure function
        // of `i`, independent of how the service is coping.
        let due = start + interval.mul_f64(i as f64);
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            let remaining = due - now;
            if remaining > Duration::from_micros(200) {
                std::thread::sleep(remaining - Duration::from_micros(100));
            } else {
                std::hint::spin_loop();
            }
        }
        match service.submit(request(&patterns, seed.wrapping_add(1), i)) {
            Ok(ticket) => tickets.push(ticket),
            Err(SubmitError::Overloaded) => {}
            Err(SubmitError::ShuttingDown) => unreachable!("admission stays open"),
        }
        if i % 64 == 0 {
            max_depth = max_depth.max(service.queue_depth());
        }
    }
    let offered_wall = start.elapsed();
    for ticket in tickets {
        assert!(
            matches!(ticket.wait().outcome, Outcome::Completed(_)),
            "overload: accepted requests must complete under reject policy"
        );
    }
    let wall = start.elapsed();
    let finals = service.shutdown();
    assert_eq!(
        finals.submitted, overload_requests,
        "overload: submissions miscounted"
    );
    assert_eq!(
        finals.responses(),
        finals.accepted,
        "overload: lost a response"
    );

    // The bounded queue pins end-to-end latency near the drain time of a
    // full queue. The ×10 headroom absorbs scheduler noise on loaded CI
    // machines; an unbounded queue under 2× load would blow through it
    // by orders of magnitude.
    let queue_bound_us = (capacity as u64 / max_workers as u64 + 2) * (floor_us + 200);
    let p99 = finals.end_to_end.p99_us;
    assert!(
        p99 <= queue_bound_us * 10,
        "overload: p99 end-to-end {p99}us exceeds 10x the full-queue bound {queue_bound_us}us"
    );

    let achieved_rps = finals.completed as f64 / wall.as_secs_f64();
    bench::rule(76);
    println!(
        "overload  offered {:>8.0} req/s ({}x nominal {:.0})  achieved {:>8.0} req/s",
        overload_requests as f64 / offered_wall.as_secs_f64(),
        overload,
        nominal_rps,
        achieved_rps
    );
    println!(
        "          shed rate {}  max observed depth {max_depth}/{capacity}",
        bench::pct(finals.shed_rate()),
    );
    println!(
        "          e2e p50 {}us  p95 {}us  p99 {}us (full-queue bound ~{}us)",
        finals.end_to_end.p50_us, finals.end_to_end.p95_us, p99, queue_bound_us
    );
    let metrics = finals.to_json();
    println!("metrics: {metrics}");
    forensic_law::spec::json::parse(&metrics).expect("metrics snapshot is valid JSON");
    println!("zero lost responses across all phases");
}
