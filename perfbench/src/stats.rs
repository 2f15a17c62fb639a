//! Order statistics over measured samples.

/// Median of `values` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest rank (1-based) of the percentile `basis_points` / 100 among `n`
/// samples, in integer arithmetic so ranks at exact boundaries stay exact.
fn rank(n: usize, basis_points: usize) -> usize {
    (n * basis_points).div_ceil(10_000).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0–100) of sorted `values`.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), (p * 100.0).round() as usize) - 1]
}

/// Percentiles a tail is reported at, highest first, in basis points.
const TAIL_LADDER: [usize; 5] = [9_999, 9_990, 9_900, 9_000, 5_000];

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples beyond
/// it, and its value.  With fewer than 20 samples no percentile qualifies and
/// the maximum is reported as percentile 100.
pub fn tail(sorted: &[u64]) -> (f64, u64) {
    let n = sorted.len();
    for bp in TAIL_LADDER {
        if n > 0 && n - rank(n, bp) >= 10 {
            return (bp as f64 / 100.0, sorted[rank(n, bp) - 1]);
        }
    }
    (100.0, sorted.last().copied().unwrap_or(0))
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    vliw_core::session::peak_rss_kb().map(|kb| kb as f64 / 1024.0).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail(&v), (99.0, 990));
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(tail(&v), (90.0, 90));
        let v: Vec<u64> = (1..=5).collect();
        assert_eq!(tail(&v), (100.0, 5));
    }
}
