//! Order statistics over small sample sets.

/// The samples sorted ascending (NaNs are a harness bug and panic).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("a sample is NaN"));
    v
}

/// Median: the middle sample, or the mean of the two middle ones.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::MIN, f64::max)
}

/// First and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (its default "exclusive"
/// method), so a spread printed here is the spread the acceptance check
/// computes. A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        // Position i*(n+1)/4 in 1-based ranks, clamped to the sample range.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The tail statistic of a timing: the highest percentile that still has
/// at least ten samples beyond it (p66 at n = 30). Below twenty samples
/// that rule would land under the median and say nothing about a tail, so
/// the maximum is reported instead. Returns `(percentile, value)`.
pub fn tail(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "tail of no samples");
    let v = sorted(values);
    let n = v.len();
    if n < 20 {
        return (100.0, v[n - 1]);
    }
    let rank = n - 10; // 1-based: ten samples lie strictly beyond it
    (100.0 * rank as f64 / n as f64, v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_picks_the_middle_or_averages_the_two_middles() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=30).map(f64::from).collect();
        let (p, x) = tail(&v);
        assert_eq!(x, 20.0);
        assert!((p - 66.666).abs() < 0.01);
        assert_eq!(v.iter().filter(|&&s| s > x).count(), 10);
        // Too few samples for a percentile with ten beyond it: the maximum.
        assert_eq!(tail(&[1.0, 9.0, 4.0]), (100.0, 9.0));
    }
}
