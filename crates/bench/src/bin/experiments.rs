//! Parallel trial-runner scaling driver: the ROC/experiment evaluation
//! suite run on a sequential baseline vs a multi-worker
//! [`trials::TrialRunner`], plus the DSSS detector fast path vs its
//! retained naive reference.
//!
//! ```console
//! $ cargo run --release --bin experiments -- --trials 16 --threads 8 --seed 48879
//! ```
//!
//! Every workload asserts that the parallel outcomes are identical to the
//! sequential ones before printing a speedup: the runner's determinism
//! contract means worker count may only ever change the wall clock.

use p2psim::experiment::{run_experiments_on, ExperimentConfig};
use service::cli::Args;
use std::time::Instant;
use trials::TrialRunner;
use watermark::detect::{ideal_series, Detector};
use watermark::experiment::{run_trials_on, WatermarkExperimentConfig};
use watermark::pn::PnCode;
use watermark::roc::{null_statistics_on, signal_statistics_on};

/// One measured workload: sequential wall, parallel wall, agreement.
struct Scaling {
    name: &'static str,
    seq_ms: f64,
    par_ms: f64,
    identical: bool,
}

impl Scaling {
    fn speedup(&self) -> f64 {
        if self.par_ms == 0.0 {
            f64::INFINITY
        } else {
            self.seq_ms / self.par_ms
        }
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

fn scale<T: PartialEq>(
    name: &'static str,
    sequential: &TrialRunner,
    parallel: &TrialRunner,
    run: impl Fn(&TrialRunner) -> T,
) -> Scaling {
    let (seq_out, seq_ms) = timed(|| run(sequential));
    let (par_out, par_ms) = timed(|| run(parallel));
    Scaling {
        name,
        seq_ms,
        par_ms,
        identical: seq_out == par_out,
    }
}

fn main() {
    let args = Args::parse();
    let trials = args.usize_flag("trials", 16);
    let threads = args.usize_flag("threads", TrialRunner::new().threads());
    let seed = args.u64_flag("seed", 0xbeef);

    let sequential = TrialRunner::sequential();
    let parallel = TrialRunner::with_threads(threads);
    println!("experiment-suite scaling: {trials} trials, 1 vs {threads} workers, seed {seed:#x}");
    bench::rule(74);

    let mut rows: Vec<Scaling> = Vec::new();

    // E-IV-B: the watermark-through-proxy experiment (both conditions per
    // trial), the heaviest netsim workload in the suite.
    let wm_cfg = WatermarkExperimentConfig {
        suspects: 4,
        code_degree: 7,
        chip_ms: 300,
        seed,
        ..WatermarkExperimentConfig::default()
    };
    rows.push(scale("watermark_experiment", &sequential, &parallel, |r| {
        run_trials_on(r, &wm_cfg, trials).0
    }));

    // E-IV-A: the OneSwarm timing-attack experiment batch.
    let p2p_cfg = ExperimentConfig {
        peers: 48,
        sources: 8,
        targets: 12,
        probes: 3,
        seed,
        ..ExperimentConfig::default()
    };
    rows.push(scale("oneswarm_experiment", &sequential, &parallel, |r| {
        let (batch, _) = run_experiments_on(r, &p2p_cfg, trials);
        batch
            .results
            .iter()
            .map(|res| res.outcomes.clone())
            .collect::<Vec<_>>()
    }));

    // Detector calibration: null + signal statistic draws.
    let code = PnCode::m_sequence(9, 1);
    let roc_trials = trials * 25;
    rows.push(scale("roc_statistics", &sequential, &parallel, |r| {
        let null = null_statistics_on(r, &code, 2, 100.0, 30.0, roc_trials, seed);
        let signal = signal_statistics_on(r, &code, 2, 120.0, 40.0, 30.0, roc_trials, seed ^ 1);
        (null, signal)
    }));

    println!(
        "{:<24} {:>12} {:>12} {:>9}  identical",
        "workload", "1 worker", "n workers", "speedup"
    );
    for row in &rows {
        assert!(
            row.identical,
            "{}: parallel outcomes diverged from sequential",
            row.name
        );
        println!(
            "{:<24} {:>9.1} ms {:>9.1} ms {:>8.2}x  yes",
            row.name,
            row.seq_ms,
            row.par_ms,
            row.speedup()
        );
    }

    // Detector synchronization search: prefix-sum fast path vs the
    // retained naive reference (single-threaded, algorithmic speedup).
    let det_code = PnCode::m_sequence(10, 1);
    let oversample = 4;
    let max_offset = 6 * oversample;
    let mut series = vec![60.0; max_offset];
    series.extend(ideal_series(&det_code, oversample, 120.0, 40.0));
    let det = Detector::new(
        det_code.clone(),
        oversample,
        max_offset,
        Detector::sigma_threshold(det_code.len(), 4.0),
    );
    let reps = (trials as u32).max(8);
    let (fast, fast_ms) = timed(|| {
        let mut last = det.detect(&series);
        for _ in 1..reps {
            last = det.detect(&series);
        }
        last
    });
    let (reference, ref_ms) = timed(|| {
        let mut last = det.detect_reference(&series);
        for _ in 1..reps {
            last = det.detect_reference(&series);
        }
        last
    });
    assert_eq!(fast.best_offset, reference.best_offset);
    assert_eq!(fast.detected, reference.detected);
    let det_speedup = ref_ms / fast_ms.max(1e-9);
    println!(
        "{:<24} {:>9.1} ms {:>9.1} ms {:>8.2}x  yes   (reference vs prefix-sum, {} reps)",
        "detect_sync_search", ref_ms, fast_ms, det_speedup, reps
    );
    bench::rule(74);
}
