//! Detector calibration: null/alternative statistic distributions and
//! ROC curves for the despreading detector.
//!
//! The paper claims the watermark is "more effective than other methods";
//! effectiveness for a detector means the trade-off between detection
//! rate and false positives. This module quantifies it on synthetic rate
//! series so thresholds (in sigmas of the null) can be chosen with known
//! false-positive budgets.

use crate::detect::{ideal_series, Detector};
use crate::pn::PnCode;
use simcore::rng::SimRng;
use trials::TrialRunner;

/// Draws `trials` despreading statistics from the null hypothesis
/// (unwatermarked noise around `mean_rate` with `noise_sigma`), fanned
/// across one worker per available core.
///
/// Each trial draws from its own [`SimRng::derive`]d stream, so the
/// returned vector is identical at any worker count.
pub fn null_statistics(
    code: &PnCode,
    oversample: usize,
    mean_rate: f64,
    noise_sigma: f64,
    trials: usize,
    seed: u64,
) -> Vec<f64> {
    null_statistics_on(
        &TrialRunner::new(),
        code,
        oversample,
        mean_rate,
        noise_sigma,
        trials,
        seed,
    )
}

/// [`null_statistics`] on an explicit [`TrialRunner`].
pub fn null_statistics_on(
    runner: &TrialRunner,
    code: &PnCode,
    oversample: usize,
    mean_rate: f64,
    noise_sigma: f64,
    trials: usize,
    seed: u64,
) -> Vec<f64> {
    let det = Detector::new(code.clone(), oversample, 0, 0.0);
    runner
        .run(trials, |t| {
            let mut rng = SimRng::derive(seed, t);
            let series: Vec<f64> = (0..code.len() * oversample)
                .map(|_| (mean_rate + rng.normal(0.0, noise_sigma)).max(0.0))
                .collect();
            det.despread_at(&series, 0).unwrap_or(0.0)
        })
        .0
}

/// Draws `trials` despreading statistics from the alternative hypothesis
/// (watermark with the given high/low rates plus noise), fanned across
/// one worker per available core. Worker-count independent, like
/// [`null_statistics`].
pub fn signal_statistics(
    code: &PnCode,
    oversample: usize,
    rate_high: f64,
    rate_low: f64,
    noise_sigma: f64,
    trials: usize,
    seed: u64,
) -> Vec<f64> {
    signal_statistics_on(
        &TrialRunner::new(),
        code,
        oversample,
        rate_high,
        rate_low,
        noise_sigma,
        trials,
        seed,
    )
}

/// [`signal_statistics`] on an explicit [`TrialRunner`].
#[allow(clippy::too_many_arguments)]
pub fn signal_statistics_on(
    runner: &TrialRunner,
    code: &PnCode,
    oversample: usize,
    rate_high: f64,
    rate_low: f64,
    noise_sigma: f64,
    trials: usize,
    seed: u64,
) -> Vec<f64> {
    let det = Detector::new(code.clone(), oversample, 0, 0.0);
    let clean = ideal_series(code, oversample, rate_high, rate_low);
    runner
        .run(trials, |t| {
            let mut rng = SimRng::derive(seed, t);
            let series: Vec<f64> = clean
                .iter()
                .map(|r| (r + rng.normal(0.0, noise_sigma)).max(0.0))
                .collect();
            det.despread_at(&series, 0).unwrap_or(0.0)
        })
        .0
}

/// One point on an ROC curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RocPoint {
    /// The decision threshold on |statistic|.
    pub threshold: f64,
    /// True-positive rate at that threshold.
    pub tpr: f64,
    /// False-positive rate at that threshold.
    pub fpr: f64,
}

/// Builds an ROC curve from null and signal statistic samples over a
/// threshold grid.
pub fn roc_curve(null: &[f64], signal: &[f64], thresholds: &[f64]) -> Vec<RocPoint> {
    thresholds
        .iter()
        .map(|&t| {
            let fpr =
                null.iter().filter(|s| s.abs() >= t).count() as f64 / null.len().max(1) as f64;
            let tpr =
                signal.iter().filter(|s| s.abs() >= t).count() as f64 / signal.len().max(1) as f64;
            RocPoint {
                threshold: t,
                tpr,
                fpr,
            }
        })
        .collect()
}

/// Area under the ROC curve by trapezoid over the (sorted-by-fpr) points,
/// anchored at (0,0) and (1,1).
pub fn auc(points: &[RocPoint]) -> f64 {
    let mut pts: Vec<(f64, f64)> = points.iter().map(|p| (p.fpr, p.tpr)).collect();
    pts.push((0.0, 0.0));
    pts.push((1.0, 1.0));
    pts.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mut area = 0.0;
    for w in pts.windows(2) {
        let (x0, y0) = w[0];
        let (x1, y1) = w[1];
        area += (x1 - x0) * (y0 + y1) / 2.0;
    }
    area
}

/// The empirical detection gain from repeating the code `reps` times:
/// the signal statistic is computed over the concatenated (repeated)
/// code, so its null spread shrinks like 1/√(reps·N).
pub fn repetition_null_sigma(code: &PnCode, reps: usize, trials: usize, seed: u64) -> f64 {
    let repeated = PnCode::from_chips(
        code.chips()
            .iter()
            .copied()
            .cycle()
            .take(code.len() * reps)
            .collect(),
    );
    let stats = null_statistics(&repeated, 2, 100.0, 30.0, trials, seed);
    let mean = stats.iter().sum::<f64>() / stats.len() as f64;
    (stats.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / stats.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code() -> PnCode {
        PnCode::m_sequence(8, 1)
    }

    #[test]
    fn null_statistics_center_on_zero() {
        let stats = null_statistics(&code(), 2, 100.0, 25.0, 200, 1);
        let mean = stats.iter().sum::<f64>() / stats.len() as f64;
        assert!(mean.abs() < 0.05, "null mean {mean}");
        // Spread ≈ 1/sqrt(N) = 1/sqrt(255) ≈ 0.063.
        let sigma =
            (stats.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / stats.len() as f64).sqrt();
        assert!(sigma < 0.15, "null sigma {sigma}");
    }

    #[test]
    fn signal_statistics_are_large() {
        let stats = signal_statistics(&code(), 2, 120.0, 40.0, 25.0, 100, 2);
        let mean = stats.iter().sum::<f64>() / stats.len() as f64;
        assert!(mean > 0.7, "signal mean {mean}");
    }

    #[test]
    fn roc_separates_cleanly_at_moderate_noise() {
        let c = code();
        let null = null_statistics(&c, 2, 100.0, 30.0, 300, 3);
        let signal = signal_statistics(&c, 2, 120.0, 40.0, 30.0, 300, 4);
        let thresholds: Vec<f64> = (0..50).map(|i| i as f64 / 50.0).collect();
        let roc = roc_curve(&null, &signal, &thresholds);
        let a = auc(&roc);
        assert!(a > 0.99, "AUC {a}");
    }

    #[test]
    fn roc_degrades_with_extreme_noise() {
        let c = code();
        // Noise dwarfing the modulation amplitude.
        let null = null_statistics(&c, 2, 100.0, 2000.0, 200, 5);
        let signal = signal_statistics(&c, 2, 120.0, 40.0, 2000.0, 200, 6);
        let thresholds: Vec<f64> = (0..50).map(|i| i as f64 / 50.0).collect();
        let a = auc(&roc_curve(&null, &signal, &thresholds));
        assert!(a < 0.95, "AUC should degrade, got {a}");
    }

    #[test]
    fn threshold_zero_catches_everything() {
        let roc = roc_curve(&[0.01, 0.02], &[0.9, 0.8], &[0.0]);
        assert_eq!(roc[0].tpr, 1.0);
        assert_eq!(roc[0].fpr, 1.0);
    }

    #[test]
    fn repetitions_shrink_the_null() {
        let c = PnCode::m_sequence(6, 1);
        let s1 = repetition_null_sigma(&c, 1, 150, 7);
        let s4 = repetition_null_sigma(&c, 4, 150, 8);
        assert!(
            s4 < s1 * 0.75,
            "4× repetition should shrink null sigma ≈2×: {s1} → {s4}"
        );
    }

    #[test]
    fn auc_of_perfect_separation_is_one() {
        let roc = roc_curve(&[0.0, 0.01], &[0.99, 1.0], &[0.5]);
        assert!((auc(&roc) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn statistics_independent_of_worker_count() {
        let c = code();
        for threads in [1usize, 2, 8] {
            let runner = TrialRunner::with_threads(threads);
            let null = null_statistics_on(&runner, &c, 2, 100.0, 30.0, 64, 9);
            let signal = signal_statistics_on(&runner, &c, 2, 120.0, 40.0, 30.0, 64, 9);
            assert_eq!(null, null_statistics(&c, 2, 100.0, 30.0, 64, 9));
            assert_eq!(signal, signal_statistics(&c, 2, 120.0, 40.0, 30.0, 64, 9));
        }
    }
}
