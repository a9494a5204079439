//! Batch summary statistics.
//!
//! Experiments repeat every measurement (the paper repeats each test 10
//! times on shared machines); [`Summary`] summarizes a repetition set
//! with its moments and percentiles, and [`percentile`] is the one
//! percentile kernel of the suite.

use serde::{Deserialize, Serialize};

/// Batch summary of a sample: mean, std, min/max, median and p95.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Sample mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (linear interpolation).
    pub median: f64,
    /// 95th percentile (linear interpolation).
    pub p95: f64,
}

impl Summary {
    /// Summarizes a sample. Returns `None` for an empty slice.
    pub fn of(sample: &[f64]) -> Option<Summary> {
        if sample.is_empty() {
            return None;
        }
        // One Welford pass: running mean and sum of squared deviations,
        // plus min/max.
        let (mut mean, mut m2) = (0.0, 0.0);
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for (i, &x) in sample.iter().enumerate() {
            let delta = x - mean;
            mean += delta / (i + 1) as f64;
            m2 += delta * (x - mean);
            min = min.min(x);
            max = max.max(x);
        }
        let count = sample.len();
        let variance = if count < 2 { 0.0 } else { m2 / count as f64 };
        let mut sorted = sample.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        Some(Summary {
            count,
            mean,
            std_dev: variance.sqrt(),
            min,
            max,
            median: percentile_sorted(&sorted, 50.0),
            p95: percentile_sorted(&sorted, 95.0),
        })
    }
}

/// Linear-interpolation percentile of an unsorted sample.
///
/// The one shared percentile kernel of the suite: sorts a copy with
/// IEEE-754 total order (`total_cmp`, NaNs sort last instead of
/// panicking) and interpolates with [`percentile_sorted`]. Both
/// [`Summary::of`] and `hcs_core::metrics::Stats::percentile` reduce to
/// this function, so the two layers are bit-identical by construction.
///
/// # Panics
/// Panics if `sample` is empty or `p` is outside `[0, 100]`.
pub fn percentile(sample: &[f64], p: f64) -> f64 {
    let mut sorted = sample.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    percentile_sorted(&sorted, p)
}

/// Linear-interpolation percentile of an ascending-sorted slice.
///
/// # Panics
/// Panics if `sorted` is empty or `p` is outside `[0, 100]`.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(s.count, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        let one = Summary::of(&[3.0]).unwrap();
        assert_eq!((one.mean, one.std_dev), (3.0, 0.0));
    }

    #[test]
    fn summary_percentiles() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::of(&xs).unwrap();
        assert!((s.median - 50.5).abs() < 1e-9);
        assert!((s.p95 - 95.05).abs() < 1e-9);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile_sorted(&[5.0], 50.0), 5.0);
        assert_eq!(percentile_sorted(&[1.0, 2.0], 0.0), 1.0);
        assert_eq!(percentile_sorted(&[1.0, 2.0], 100.0), 2.0);
        assert_eq!(percentile_sorted(&[1.0, 3.0], 50.0), 2.0);
    }

    #[test]
    fn percentile_sorts_then_interpolates() {
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[9.0, 5.0], 0.0), 5.0);
    }

    #[test]
    fn summary_tolerates_nan_samples() {
        // total_cmp sorts NaN after every finite value, so a NaN-tainted
        // sample summarizes without panicking instead of taking the
        // whole report down.
        let s = Summary::of(&[1.0, f64::NAN, 3.0]).unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.median, 3.0, "NaN sorts last; median is the max finite");
        assert_eq!(s.min, 1.0);
    }
}
