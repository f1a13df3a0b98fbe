//! Order statistics over latency samples.

/// Sorts a copy of `values` ascending (samples are finite by construction).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).clamp(1, n)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50)
}

/// The percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [u32; 10] = [99, 98, 95, 90, 85, 80, 75, 70, 60, 50];

/// Samples that must lie beyond a percentile for it to be reported.
pub const TAIL_SUPPORT: usize = 10;

/// The highest ladder percentile not above `wanted` that still has
/// [`TAIL_SUPPORT`] of the `n` samples beyond it; `None` when even the
/// median lacks that support.
pub fn tail_percentile(n: usize, wanted: u32) -> Option<u32> {
    TAIL_LADDER
        .into_iter()
        .filter(|&p| p <= wanted)
        .find(|&p| n - rank(n.max(1), p).min(n) >= TAIL_SUPPORT)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so that spreads computed here match
/// the ones the acceptance check computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 99), 99.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&[3.0], 99), 3.0);
        // An even count takes the lower middle sample, never an average of
        // two samples that were not measured.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000, 99), Some(99));
        assert_eq!(tail_percentile(1500, 99), Some(99));
        // 999 samples: rank(99) = 990, nine beyond -> falls to p98.
        assert_eq!(tail_percentile(999, 99), Some(98));
        assert_eq!(tail_percentile(200, 99), Some(95));
        assert_eq!(tail_percentile(199, 99), Some(90));
        assert_eq!(tail_percentile(67, 99), Some(85));
        assert_eq!(tail_percentile(50, 99), Some(80));
        assert_eq!(tail_percentile(40, 99), Some(75));
        assert_eq!(tail_percentile(20, 99), Some(50));
        assert_eq!(tail_percentile(19, 99), None);
        assert_eq!(tail_percentile(0, 99), None);
    }

    #[test]
    fn tail_never_exceeds_the_wanted_percentile() {
        assert_eq!(tail_percentile(100_000, 95), Some(95));
        assert_eq!(tail_percentile(60, 95), Some(80));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        let (q1, q3) = quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]);
        assert!((q1 - 15.0).abs() < 1e-12 && (q3 - 45.0).abs() < 1e-12);
        assert!((spread(&[50.0, 10.0, 40.0, 20.0, 30.0]) - 1.0).abs() < 1e-12);
    }
}
