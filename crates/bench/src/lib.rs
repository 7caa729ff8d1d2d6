//! Shared helpers for the experiment-regeneration binaries and std-only
//! benchmarks.
//!
//! The binaries regenerate the paper's evaluation artifacts:
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1` | Paper Table 1 — the 20 warrant/no-warrant scenes |
//! | `oneswarm_attack` | §IV-A feasibility — timing-attack accuracy sweeps incl. the wide-band breaking point |
//! | `watermark_detect` | §IV-B feasibility — detection vs code length/jitter/suspects, circuit variant, baseline comparison |
//! | `suppression` | §I warning — admissible vs suppressed outcomes |
//! | `p2p_comparison` | Table 1 rows 9/10 ablation — normal vs anonymous P2P |
//! | `watermark_roc` | detector calibration — null spread, ROC/AUC, repetition gain |
//! | `throughput` | batch-assessment scaling — sequential vs cached vs threaded |
//! | `experiments` | parallel trial-runner scaling + detector fast-path vs reference |
//! | `service_load` | bounded-queue service — worker scaling, cached ceiling, 2× overload shed/latency |
//! | `simcore_scale` | population-scale overlays — events/s, wall time, peak RSS per size, 1/2/8-worker determinism |
//!
//! Perf drivers additionally write machine-readable measurements into
//! [`results::RESULTS_FILE`] so the trajectory is tracked across PRs, and
//! take `--trials`/`--threads`/`--seed` flags parsed by
//! [`service::cli::Args`].

pub mod harness;
pub mod results;

/// Prints a horizontal rule sized to a table width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Formats a ratio as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Formats an optional millisecond value.
pub fn fmt_ms(x: Option<f64>) -> String {
    x.map(|v| format!("{v:.0}")).unwrap_or_else(|| "—".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(pct(1.0), "100.0%");
    }

    #[test]
    fn fmt_ms_handles_none() {
        assert_eq!(fmt_ms(None), "—");
        assert_eq!(fmt_ms(Some(12.4)), "12");
    }
}
