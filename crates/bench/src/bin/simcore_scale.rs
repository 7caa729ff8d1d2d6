//! Population-scale engine benchmark: how fast, how big, and how
//! deterministic the simcore-backed overlay simulators run as node
//! counts climb from thousands to hundreds of thousands.
//!
//! Run with: `cargo run -p bench --bin simcore_scale --release`. Takes
//! `--nodes N` (the largest overlay size, default 100 000) and
//! `--seed S`. Two sweeps ride the same size axis:
//!
//! * **oneswarm** — the E-IV-A timing attack on an overlay of N peers
//!   (one trial per point; the per-trial averaging axis lives in
//!   `oneswarm_attack`);
//! * **watermark** — one population-scale DSSS despread
//!   ([`watermark::population`]) with ~N/3 candidate suspects.
//!
//! Each point reports wall time, simulator events, events/second, and
//! the point's peak RSS (`VmHWM`, reset between points where the kernel
//! allows). A final phase re-runs a mid-size configuration at 1, 2, and
//! 8 workers and asserts bit-identical results — the determinism
//! contract the engine is built around.

use p2psim::experiment::{run_experiment, run_experiments_on, ExperimentConfig};
use service::cli::Args;
use std::time::Instant;
use trials::TrialRunner;
use watermark::population::{run_population, PopulationConfig};

/// Peak resident set (`VmHWM`) in KiB for this process.
fn peak_rss_kb() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Resets the RSS high-water mark so each sweep point reports its own
/// peak. Best-effort: if the kernel refuses, `VmHWM` stays monotonic
/// across points (still an upper bound; noted in the output).
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The size axis: round decades up to `max`, always ending on `max`.
fn size_axis(max: usize) -> Vec<usize> {
    let mut sizes = vec![1_000usize, 10_000, 100_000];
    sizes.retain(|&s| s < max);
    sizes.push(max);
    sizes
}

fn oneswarm_config(peers: usize, seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        peers,
        targets: (peers / 4).clamp(1, 24),
        sources: (peers / 8).max(1),
        probes: 3,
        seed,
        ..ExperimentConfig::default()
    }
}

fn events_per_sec(events: u64, wall_ms: f64) -> f64 {
    if wall_ms <= 0.0 {
        0.0
    } else {
        events as f64 / (wall_ms / 1000.0)
    }
}

fn main() {
    let args = Args::parse();
    let max_nodes = args.usize_flag("nodes", 100_000).max(64);
    let base_seed = args.u64_flag("seed", 0x5ca1e);
    let rss_resets = reset_peak_rss();

    println!("simcore scale — population-size overlays on the deterministic engine\n");
    if !rss_resets {
        println!("note: VmHWM reset unavailable; peak RSS is monotonic across points\n");
    }

    // Sweep 1: the OneSwarm timing attack, one trial per overlay size.
    println!("oneswarm timing attack vs overlay size (1 trial/point):");
    println!(
        "{:<10} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "peers", "accuracy", "events", "wall ms", "Mev/s", "peak RSS MB"
    );
    bench::rule(74);
    for peers in size_axis(max_nodes) {
        reset_peak_rss();
        let cfg = oneswarm_config(peers, base_seed ^ peers as u64);
        let start = Instant::now();
        let result = run_experiment(&cfg);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let evs = events_per_sec(result.sim_events, wall_ms);
        println!(
            "{:<10} {:>10} {:>12} {:>12.0} {:>12.2} {:>12.1}",
            peers,
            bench::pct(result.metrics.accuracy()),
            result.sim_events,
            wall_ms,
            evs / 1e6,
            peak_rss_kb().unwrap_or(0) as f64 / 1024.0,
        );
    }

    // Sweep 2: population-scale watermark despreading. Each size builds
    // the largest `2 + 3·k ≤ nodes` overlay and despreads every one of
    // the k candidate suspects.
    println!("\nwatermark population despread vs overlay size:");
    println!(
        "{:<10} {:>9} {:>8} {:>6} {:>12} {:>12} {:>12} {:>12}",
        "nodes", "suspects", "correct", "sep", "events", "wall ms", "Mev/s", "peak RSS MB"
    );
    bench::rule(88);
    for nodes in size_axis(max_nodes) {
        reset_peak_rss();
        let cfg = PopulationConfig {
            nodes,
            seed: base_seed ^ 0xbeef ^ nodes as u64,
            ..PopulationConfig::default()
        };
        let start = Instant::now();
        let result = run_population(&cfg);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let evs = events_per_sec(result.sim_events, wall_ms);
        assert!(
            result.correct(),
            "population despread failed at {nodes} nodes: identified {:?}, truth {}",
            result.identified,
            result.true_suspect
        );
        println!(
            "{:<10} {:>9} {:>8} {:>6.2} {:>12} {:>12.0} {:>12.2} {:>12.1}",
            result.nodes,
            result.suspects,
            "yes",
            result.separation(),
            result.sim_events,
            wall_ms,
            evs / 1e6,
            peak_rss_kb().unwrap_or(0) as f64 / 1024.0,
        );
    }

    // Phase 3: the determinism contract. The same batch fanned across
    // 1, 2, and 8 workers must produce bit-identical results, and a
    // population run must be a pure function of its config.
    let det_peers = max_nodes.min(2_000);
    let det_cfg = oneswarm_config(det_peers, base_seed ^ 0xd_e7);
    let fingerprints: Vec<String> = [1usize, 2, 8]
        .iter()
        .map(|&workers| {
            let runner = TrialRunner::with_threads(workers);
            let (batch, _) = run_experiments_on(&runner, &det_cfg, 4);
            format!("{:?}", batch.results)
        })
        .collect();
    let workers_identical = fingerprints.iter().all(|f| f == &fingerprints[0]);
    assert!(
        workers_identical,
        "worker count changed results at {det_peers} peers"
    );
    let pop_cfg = PopulationConfig {
        nodes: max_nodes.min(1_000),
        seed: base_seed ^ 0xbeef,
        ..PopulationConfig::default()
    };
    let replayed_identical = run_population(&pop_cfg) == run_population(&pop_cfg);
    assert!(replayed_identical, "population run is not replayable");
    println!(
        "\ndeterminism: {det_peers}-peer batch bit-identical at 1/2/8 workers; \
         population run replays exactly"
    );
}
