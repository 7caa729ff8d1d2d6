//! Regenerates experiment **E-IV-A**: the feasibility of the OneSwarm
//! timing attack (paper §IV-A), measured as source/proxy classification
//! quality across overlay sizes and delay regimes.
//!
//! Run with: `cargo run -p bench --bin oneswarm_attack` (use `--release`
//! for the larger sweeps). Takes `--trials N`, `--threads N`, and
//! `--seed S`; each configuration is averaged over the trials, which fan
//! out across the worker threads with results independent of the worker
//! count. `--nodes N` additionally runs the attack on population-scale
//! overlays up to N peers (100k+ works in release builds).

use p2psim::experiment::{run_experiment, run_experiments_on, ExperimentBatch, ExperimentConfig};
use p2psim::peer::DelayModel;
use service::cli::Args;
use trials::TrialRunner;

fn main() {
    let args = Args::parse(&["trials", "nodes", "threads", "seed"]);
    let trials = args.usize_flag("trials", 1);
    let runner =
        TrialRunner::with_threads(args.usize_flag("threads", TrialRunner::new().threads()));
    let base_seed = args.u64_flag("seed", 0xa11ce);
    let run_batch =
        |cfg: &ExperimentConfig| -> ExperimentBatch { run_experiments_on(&runner, cfg, trials).0 };

    println!("E-IV-A — OneSwarm timing-attack feasibility (paper §IV-A)\n");

    // Sweep 1: overlay size.
    println!(
        "sweep 1: overlay size (trust degree 3, delays 150–300 ms, 5 probes/target, {trials} trial(s))"
    );
    println!(
        "{:<8} {:>8} {:>10} {:>10} {:>10}",
        "peers", "targets", "precision", "recall", "accuracy"
    );
    bench::rule(52);
    for peers in [32usize, 64, 128, 256] {
        let cfg = ExperimentConfig {
            peers,
            targets: (peers / 4).min(24),
            sources: peers / 8,
            seed: base_seed ^ peers as u64,
            ..ExperimentConfig::default()
        };
        let batch = run_batch(&cfg);
        println!(
            "{:<8} {:>8} {:>10} {:>10} {:>10}",
            peers,
            cfg.targets,
            bench::pct(batch.metrics.precision()),
            bench::pct(batch.metrics.recall()),
            bench::pct(batch.metrics.accuracy()),
        );
    }

    // Sweep 2: the delay gap that makes the attack work. As the source
    // delay band approaches the forward+source band, separation decays.
    println!("\nsweep 2: per-hop delay band (64 peers, 16 targets)");
    println!(
        "{:<22} {:>12} {:>10} {:>10}",
        "delay band (ms)", "threshold", "accuracy", "mean FP"
    );
    bench::rule(58);
    for (lo, hi) in [
        (50u64, 100u64),
        (150, 300),
        (300, 600),
        (500, 1000),
        // Wide bands: the delay *floor* no longer dominates the band
        // width, proxy and source response distributions overlap, and
        // false positives appear — the attack's breaking point.
        (10, 200),
        (5, 400),
    ] {
        let cfg = ExperimentConfig {
            delays: DelayModel {
                source_delay_ms: (lo, hi),
                forward_delay_ms: (lo, hi),
            },
            seed: base_seed ^ 0xfeed ^ hi,
            ..ExperimentConfig::default()
        };
        let batch = run_batch(&cfg);
        let fp: usize = batch
            .results
            .iter()
            .map(|r| {
                r.outcomes
                    .iter()
                    .filter(|o| !o.is_source && o.classified_source)
                    .count()
            })
            .sum();
        let threshold: f64 = batch.results.iter().map(|r| r.threshold_ms).sum::<f64>()
            / batch.results.len().max(1) as f64;
        println!(
            "{:<22} {:>12} {:>10} {:>10.1}",
            format!("[{lo}, {hi})"),
            format!("{threshold:.0} ms"),
            bench::pct(batch.metrics.accuracy()),
            fp as f64 / batch.results.len().max(1) as f64,
        );
    }

    // Sweep 3: probes per target (more probes tighten the min-delay
    // estimate).
    println!("\nsweep 3: probes per target (64 peers)");
    println!("{:<8} {:>10}", "probes", "accuracy");
    bench::rule(20);
    for probes in [1usize, 2, 5, 10] {
        let cfg = ExperimentConfig {
            probes,
            seed: base_seed ^ 0xbead ^ probes as u64,
            ..ExperimentConfig::default()
        };
        let batch = run_batch(&cfg);
        println!("{:<8} {:>10}", probes, bench::pct(batch.metrics.accuracy()));
    }

    // Sweep 4 (opt-in): population-scale overlays. `--nodes N` runs the
    // attack on overlays up to N peers (one trial per point — each point
    // is a whole-population run, so the averaging axis above does not
    // apply). Skipped by default to keep the standard output — the
    // golden fixture — and runtime unchanged.
    if args.get("nodes").is_some() {
        let nodes = args.usize_flag("nodes", 100_000).max(64);
        println!("\nsweep 4: population-scale overlay (--nodes, 1 trial/point, 3 probes)");
        println!(
            "{:<10} {:>8} {:>10} {:>12} {:>12} {:>10}",
            "peers", "targets", "accuracy", "events", "wall ms", "Mev/s"
        );
        bench::rule(68);
        let mut sizes = vec![nodes / 10, nodes];
        sizes.retain(|&s| s >= 64);
        sizes.dedup();
        for peers in sizes {
            let cfg = ExperimentConfig {
                peers,
                targets: (peers / 4).clamp(1, 24),
                sources: (peers / 8).max(1),
                probes: 3,
                seed: base_seed ^ peers as u64,
                ..ExperimentConfig::default()
            };
            let start = std::time::Instant::now();
            let result = run_experiment(&cfg);
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            println!(
                "{:<10} {:>8} {:>10} {:>12} {:>12.0} {:>10.2}",
                peers,
                cfg.targets,
                bench::pct(result.metrics.accuracy()),
                result.sim_events,
                wall_ms,
                result.sim_events as f64 / wall_ms.max(1e-9) / 1e3,
            );
        }
    }

    println!(
        "\nShape check (paper §IV-A): response-delay timing separates sources from\n\
         proxies with high accuracy using only protocol-visible traffic — workable\n\
         without warrant/court order/subpoena."
    );
}
