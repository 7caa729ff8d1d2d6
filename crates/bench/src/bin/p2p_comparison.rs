//! Regenerates the Table 1 row-9 vs row-10 ablation: identification
//! effort and reach on "normal P2P software" vs an anonymous overlay.
//! Both are lawful without process; the contrast is operational.
//!
//! Run with: `cargo run -p bench --bin p2p_comparison --release`.
//! Takes `--trials N`, `--threads N`, and `--seed S`; each overlay size
//! is averaged over the trials, which fan out across the worker threads
//! with results independent of the worker count.

use p2psim::gnutella_experiment::{run_comparisons_on, ComparisonConfig};
use service::cli::Args;
use trials::TrialRunner;

fn main() {
    let args = Args::parse();
    let trials = args.usize_flag("trials", 1);
    let runner =
        TrialRunner::with_threads(args.usize_flag("threads", TrialRunner::new().threads()));
    let base_seed = args.u64_flag("seed", 0x90a7);

    println!("P2P ablation — normal (row 9) vs anonymous (row 10) overlays ({trials} trial(s))\n");
    println!(
        "{:<8} {:>8} | {:>14} {:>9} | {:>16} {:>9}",
        "peers", "sources", "gnutella found", "queries", "oneswarm found", "probes"
    );
    bench::rule(76);
    for peers in [32usize, 64, 128] {
        let cfg = ComparisonConfig {
            peers,
            sources: peers / 8,
            seed: base_seed ^ peers as u64,
            ..ComparisonConfig::default()
        };
        let (results, _) = run_comparisons_on(&runner, &cfg, trials);
        let n = results.len().max(1) as f64;
        let mean = |f: &dyn Fn(&p2psim::gnutella_experiment::ComparisonResult) -> f64| {
            results.iter().map(f).sum::<f64>() / n
        };
        println!(
            "{:<8} {:>8.1} | {:>14} {:>9.1} | {:>16} {:>9.1}",
            peers,
            mean(&|r| r.true_sources as f64),
            format!(
                "{:.1}/{:.1}",
                mean(&|r| r.gnutella_identified as f64),
                mean(&|r| r.true_sources as f64)
            ),
            mean(&|r| r.gnutella_queries as f64),
            format!(
                "{:.1} (neighbors only)",
                mean(&|r| r.oneswarm_identified as f64)
            ),
            mean(&|r| r.oneswarm_probes as f64),
        );
    }
    println!(
        "\nShape check: on normal P2P one flooded query openly enumerates the sources\n\
         (query hits name their senders); on the anonymous overlay the investigator\n\
         must run the timing attack and can only ever classify its direct neighbors.\n\
         Both collections are lawful without process (Table 1 rows 9-10)."
    );
}
