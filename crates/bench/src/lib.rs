//! Shared helpers for the experiment-regeneration binaries and std-only
//! benchmarks.
//!
//! The binaries regenerate the paper's evaluation artifacts and drive
//! the workspace's subsystems at scale:
//!
//! | binary | regenerates or measures |
//! |---|---|
//! | `table1` | Paper Table 1 — the 20 warrant/no-warrant scenes |
//! | `oneswarm_attack` | §IV-A feasibility — timing-attack accuracy sweeps incl. the wide-band breaking point |
//! | `watermark_detect` | §IV-B feasibility — detection vs code length/jitter/suspects, circuit variant, baseline comparison |
//! | `suppression` | §I warning — admissible vs suppressed outcomes |
//! | `p2p_comparison` | Table 1 rows 9/10 ablation — normal vs anonymous P2P |
//! | `watermark_roc` | detector calibration — null spread, ROC/AUC, repetition gain |
//! | `experiments` | parallel trial-runner scaling + detector fast-path vs reference |
//! | `simcore_scale` | population-scale overlays — events/s, wall time, peak RSS per size, 1/2/8-worker determinism |
//! | `service_load` | bounded-queue service — worker scaling, cached ceiling, 2× overload shed/latency |
//! | `wire_load` | epoll TCP server — pipelined connection sweep up to C10K, RTT quantiles, peak RSS |
//! | `trace_overhead` | enabled-but-idle tracing cost against the cached ceiling (fails above 5%) |
//! | `replay_serve` | journal → live refire → compaction → refire, zero divergences and a ≥2× compaction |
//! | `plan_search` | planner item-count sweep — nodes expanded, nodes/s, thread-count determinism |
//!
//! Each driver asserts its own invariants and exits nonzero when one
//! fails; measurements go to stdout. Flags (`--trials`, `--threads`,
//! `--seed`, ...) are parsed by [`service::cli::Args`]. The repository
//! benchmark with per-layer attribution is the separate `perfbench`
//! package.

pub mod harness;

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
