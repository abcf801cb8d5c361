//! Order statistics over timing samples.

/// The `q`-quantile (0..=1) of `samples` by linear interpolation between closest ranks
/// (`0.0` when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The `q`-quantile of `samples`, or `None` when fewer than ten samples lie beyond it —
/// a percentile with less support than that is not reported.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    let lo = (q * n.saturating_sub(1) as f64).floor() as usize;
    (n > 0 && n - 1 - lo >= 10).then(|| quantile(samples, q))
}

/// The median of `samples` regardless of sample count (`0.0` when empty).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The mean of the fastest tenth of `rates` (at least one; `0.0` when empty).
pub fn fastest_tenth(rates: &[f64]) -> f64 {
    let mut sorted = rates.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let top = &sorted[..rates.len().div_ceil(10)];
    ratio(top.iter().sum(), top.len() as f64)
}

/// `num / den`, or `0.0` when the base is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Some(50.5));
        assert!(percentile(&samples, 0.9).is_some());
        assert_eq!(percentile(&samples, 0.99), None);
        assert_eq!(percentile(&samples[..19], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let rates: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(fastest_tenth(&rates), 19.5);
        assert_eq!(fastest_tenth(&[2.0, 4.0]), 4.0);
        assert_eq!(fastest_tenth(&[]), 0.0);
    }
}
