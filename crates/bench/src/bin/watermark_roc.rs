//! Detector calibration tables: null/signal statistic spreads and ROC
//! operating points for the DSSS despreader — the quantitative basis for
//! choosing the sigma threshold used in E-IV-B.
//!
//! Run with: `cargo run -p bench --bin watermark_roc --release`. Takes
//! `--trials N` (statistic draws per table row), `--threads N`, and
//! `--seed S`; draws fan out across the worker threads with results
//! independent of the worker count. `--nodes N` additionally runs one
//! population-scale despread: an N-node overlay where every candidate
//! suspect (~N/3) is despread in the same simulation and the target
//! must beat the whole empirical null population.

use service::cli::Args;
use trials::TrialRunner;
use watermark::pn::PnCode;
use watermark::population::{run_population, PopulationConfig};
use watermark::roc::{auc, null_statistics_on, roc_curve, signal_statistics_on};

fn main() {
    let args = Args::parse(&["trials", "nodes", "threads", "seed"]);
    let draws = args.usize_flag("trials", 400);
    let runner =
        TrialRunner::with_threads(args.usize_flag("threads", TrialRunner::new().threads()));
    let base_seed = args.u64_flag("seed", 0);

    println!("watermark detector calibration (ours; supports E-IV-B threshold choice)\n");

    // Null spread vs code length: σ ≈ 1/√N.
    println!("null-statistic spread vs code length (noise σ=30 on mean rate 100):");
    println!(
        "{:<12} {:>12} {:>14}",
        "code length", "measured σ", "1/√N predicted"
    );
    bench::rule(40);
    for degree in [6u32, 8, 10] {
        let code = PnCode::m_sequence(degree, 1);
        let stats = null_statistics_on(
            &runner,
            &code,
            2,
            100.0,
            30.0,
            draws,
            base_seed ^ degree as u64,
        );
        let mean = stats.iter().sum::<f64>() / stats.len() as f64;
        let sigma =
            (stats.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / stats.len() as f64).sqrt();
        println!(
            "{:<12} {:>12.4} {:>14.4}",
            code.len(),
            sigma,
            1.0 / (code.len() as f64).sqrt()
        );
    }

    // ROC vs noise.
    println!("\nROC (code length 255, rates 120/40) vs observation noise:");
    println!("{:<10} {:>8} {:>22}", "noise σ", "AUC", "TPR at FPR≈1%");
    bench::rule(42);
    let code = PnCode::m_sequence(8, 1);
    for (i, noise) in [20.0f64, 60.0, 150.0, 400.0].iter().enumerate() {
        let null = null_statistics_on(
            &runner,
            &code,
            2,
            100.0,
            *noise,
            draws,
            base_seed ^ (10 + i as u64),
        );
        let signal = signal_statistics_on(
            &runner,
            &code,
            2,
            120.0,
            40.0,
            *noise,
            draws,
            base_seed ^ (20 + i as u64),
        );
        let thresholds: Vec<f64> = (0..100).map(|k| k as f64 / 100.0).collect();
        let roc = roc_curve(&null, &signal, &thresholds);
        let a = auc(&roc);
        let tpr_at_1pct = roc
            .iter()
            .filter(|p| p.fpr <= 0.01)
            .map(|p| p.tpr)
            .fold(0.0f64, f64::max);
        println!("{:<10} {:>8.4} {:>22.2}", noise, a, tpr_at_1pct);
    }

    // Population-scale despread (opt-in): `--nodes N` builds one N-node
    // overlay, watermarks a single account, and despreads every
    // candidate suspect against the same code — the target must beat
    // the max over the whole empirical null population, the scale
    // analogue of the per-threshold ROC above. Skipped by default to
    // keep the standard output — the golden fixture — and runtime
    // unchanged.
    if args.get("nodes").is_some() {
        let nodes = args.usize_flag("nodes", 100_000).max(8);
        let cfg = PopulationConfig {
            nodes,
            seed: 0xbeef ^ base_seed,
            ..PopulationConfig::default()
        };
        println!(
            "\npopulation-scale despread (--nodes {nodes}): one watermarked account,\n\
             every candidate suspect despread in the same run"
        );
        let start = std::time::Instant::now();
        let r = run_population(&cfg);
        let wall = start.elapsed().as_secs_f64();
        println!("{:<26} {:>12}", "overlay nodes", r.nodes);
        println!("{:<26} {:>12}", "candidate suspects", r.suspects);
        println!(
            "{:<26} {:>12}",
            "identified correctly",
            if r.correct() { "yes" } else { "NO" }
        );
        println!("{:<26} {:>12.4}", "target |statistic|", r.target_statistic);
        println!("{:<26} {:>12.4}", "null mean |statistic|", r.null_mean_abs);
        println!("{:<26} {:>12.4}", "null max |statistic|", r.null_max_abs);
        println!("{:<26} {:>12.2}", "separation (target/max)", r.separation());
        println!("{:<26} {:>12}", "false positives (4σ)", r.false_positives);
        println!(
            "{:<26} {:>12} ({:.1}s wall, {:.2} Mev/s)",
            "simulator events",
            r.sim_events,
            wall,
            r.sim_events as f64 / wall.max(1e-9) / 1e6,
        );
        assert!(
            r.correct(),
            "population despread failed: identified {:?}, truth {}",
            r.identified,
            r.true_suspect
        );
    }

    println!(
        "\nReading: at the experiment's operating point (noise well below the 80-pps\n\
         modulation swing) the detector is near-perfect; the 4σ threshold used in\n\
         E-IV-B buys a ≈6e-5 theoretical false-positive rate per (suspect, offset)."
    );
}
