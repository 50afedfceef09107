//! Order statistics the report is built from.

/// Nearest-rank percentile of an ascending slice; `p` is a fraction in
/// `[0, 1]`. `NaN` on an empty slice, so a phase that produced no sample
/// cannot pass for a fast one.
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "percentile takes a fraction");
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Median of a set of measurements (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median completion rate over fixed windows: `counts[i]` completions in
/// the i-th window of `window_s` seconds. The median, not the mean, so a
/// window a noisy neighbour stole does not move the result.
pub fn window_median_rate(counts: &[u64], window_s: f64) -> f64 {
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / window_s).collect();
    median(&rates)
}

/// Arithmetic mean (`NaN` when empty).
pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<u64>() as f64 / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7], 0.99), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn window_median_ignores_a_stolen_window() {
        // Nine steady windows and one in which the box was busy elsewhere.
        let mut counts = vec![1000u64; 9];
        counts.push(100);
        assert_eq!(window_median_rate(&counts, 1.0), 1000.0);
        assert_eq!(window_median_rate(&[10, 20, 30], 0.5), 40.0);
    }

    #[test]
    fn mean_is_exact() {
        assert_eq!(mean(&[1, 2, 3, 6]), 3.0);
        assert!(mean(&[]).is_nan());
    }
}
