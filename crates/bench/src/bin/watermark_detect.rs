//! Regenerates experiment **E-IV-B**: the feasibility of the long-PN-code
//! DSSS flow watermark through an anonymizing proxy (paper §IV-B),
//! measured as suspect-identification accuracy vs code length and jitter,
//! against the naive rate-correlation baseline.
//!
//! Run with: `cargo run -p bench --bin watermark_detect --release`
//! (debug builds work but take minutes on the longer codes). Takes
//! `--trials N`, `--threads N`, and `--seed S`; trials fan out across the
//! worker threads with results independent of the worker count.

use service::cli::Args;
use trials::TrialRunner;
use watermark::circuit_experiment::run_circuit_trial;
use watermark::experiment::{run_trials_on, WatermarkExperimentConfig};

fn main() {
    let args = Args::parse(&["trials", "threads", "seed"]);
    let trials = args.usize_flag("trials", 8);
    let runner =
        TrialRunner::with_threads(args.usize_flag("threads", TrialRunner::new().threads()));
    let base_seed = args.u64_flag("seed", 0xbeef);
    let run_trials =
        |cfg: &WatermarkExperimentConfig, trials: usize| run_trials_on(&runner, cfg, trials).0;
    println!("E-IV-B — DSSS watermark traceback feasibility (paper §IV-B)\n");

    // Sweep 1: PN code length (longer codes → more despreading gain).
    println!("sweep 1: PN code length (8 suspects, jitter 5–60 ms, {trials} trials each)");
    println!(
        "{:<12} {:>14} {:>12} {:>12} {:>10}",
        "code length", "observation(s)", "watermark", "baseline", "mean FP"
    );
    bench::rule(66);
    for degree in [6u32, 7, 8, 9] {
        let cfg = WatermarkExperimentConfig {
            code_degree: degree,
            chip_ms: 300,
            seed: base_seed ^ degree as u64,
            ..WatermarkExperimentConfig::default()
        };
        let len = (1u32 << degree) - 1;
        let obs_s = len as f64 * 0.3;
        let s = run_trials(&cfg, trials);
        println!(
            "{:<12} {:>14} {:>12} {:>12} {:>10.2}",
            len,
            format!("{obs_s:.0}"),
            bench::pct(s.watermark_accuracy),
            bench::pct(s.baseline_accuracy),
            s.mean_false_positives,
        );
    }

    // Sweep 2: proxy jitter (the anonymizer fighting back).
    println!("\nsweep 2: proxy jitter (code length 255, chip 300 ms)");
    println!(
        "{:<18} {:>12} {:>12}",
        "jitter band (ms)", "watermark", "baseline"
    );
    bench::rule(44);
    for (lo, hi) in [(0u64, 1u64), (5, 60), (50, 200), (100, 400)] {
        let cfg = WatermarkExperimentConfig {
            code_degree: 8,
            chip_ms: 300,
            proxy_jitter_ms: (lo, hi),
            seed: base_seed ^ 0xcafe ^ hi,
            ..WatermarkExperimentConfig::default()
        };
        let s = run_trials(&cfg, trials);
        println!(
            "{:<18} {:>12} {:>12}",
            format!("[{lo}, {hi})"),
            bench::pct(s.watermark_accuracy),
            bench::pct(s.baseline_accuracy),
        );
    }

    // Sweep 3: number of candidate suspects (identification gets harder).
    println!("\nsweep 3: candidate suspects (code length 255)");
    println!("{:<10} {:>12} {:>12}", "suspects", "watermark", "baseline");
    bench::rule(36);
    for suspects in [2usize, 4, 8, 16] {
        let cfg = WatermarkExperimentConfig {
            suspects,
            code_degree: 8,
            chip_ms: 300,
            seed: base_seed ^ 0xd00d ^ suspects as u64,
            ..WatermarkExperimentConfig::default()
        };
        let s = run_trials(&cfg, trials);
        println!(
            "{:<10} {:>12} {:>12}",
            suspects,
            bench::pct(s.watermark_accuracy),
            bench::pct(s.baseline_accuracy),
        );
    }

    // Sweep 4: three-hop onion circuit (the Tor-flavoured variant),
    // with and without mix batching at the middle relay.
    println!("\nsweep 4: three-hop onion circuit (code length 255, per-hop jitter 5-60 ms)");
    println!("{:<26} {:>12}", "middle-relay behaviour", "watermark");
    bench::rule(40);
    for (label, batching) in [
        ("jitter only", None),
        ("mix batching 100 ms", Some(100u64)),
        ("mix batching 250 ms", Some(250)),
    ] {
        let cfg = WatermarkExperimentConfig {
            code_degree: 8,
            chip_ms: 300,
            seed: base_seed ^ 0x0c1c,
            ..WatermarkExperimentConfig::default()
        };
        let (correct, _) = runner.run(trials, |t| {
            run_circuit_trial(&cfg, batching, t).watermark_correct()
        });
        let hits = correct.iter().filter(|&&c| c).count();
        println!(
            "{:<26} {:>12}",
            label,
            bench::pct(hits as f64 / trials as f64)
        );
    }

    println!(
        "\nShape check (paper §IV-B): the watermark identifies the suspect through the\n\
         jittering anonymizer — and through a full three-hop onion circuit — where\n\
         naive rate correlation degrades, using only rate observation: a court\n\
         order, not a wiretap warrant."
    );
}
