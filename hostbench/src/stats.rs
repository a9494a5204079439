//! Order statistics over repeated samples.

/// The sample sorted ascending (NaN-free input assumed).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of the samples (mean of the two middle ones for an even
/// count); `NaN` for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (the default "exclusive"
/// method), so spreads printed here match an external check.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let len = v.len();
    match len {
        0 => (f64::NAN, f64::NAN),
        1 => (v[0], v[0]),
        _ => {
            let q = |i: usize| {
                let m = len + 1;
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// The highest of the usual reporting percentiles that still has at
/// least ten samples beyond it, with its nearest-rank value; `None`
/// when the sample is too small for even the median to qualify.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    // Per mille, so ranks are exact integer arithmetic.
    [999, 990, 950, 900, 750, 500]
        .into_iter()
        .map(|p| (p, (p * n).div_ceil(1000).max(1)))
        .find(|&(_, rank)| n - rank >= 10)
        .map(|(p, rank)| (p as f64 / 10.0, v[rank - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        assert_eq!(tail(&v[..19]), None);
        assert_eq!(tail(&v[..20]).map(|t| t.0), Some(50.0));
    }
}
