//! The statistics every reported number goes through.

/// Smallest value (`NaN`-free inputs; `f64::INFINITY` when empty).
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for even counts; 0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method)
/// gives them — the driver's own spread statistic. Needs two values;
/// fewer yield the single value (or 0) twice.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks, clamped to the data.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median (0 for a zero median).
pub fn iqr_share(xs: &[f64]) -> f64 {
    let m = median(xs);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / m
}

/// Nearest-rank percentile `p` in `0..=1` (0 when empty).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_and_median() {
        let xs = [3.0, 1.0, 4.0, 1.5];
        assert_eq!(min(&xs), 1.0);
        assert_eq!(median(&xs), 2.25);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!((iqr_share(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 10.0);
        assert_eq!(percentile(&xs, 0.95), 19.0);
        assert_eq!(percentile(&xs, 1.0), 20.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
