//! Serving telemetry: latency summaries and whole-server snapshots.

use crate::cache::CacheStats;
use fsi_obs::HistSnapshot;

/// Order statistics over a set of per-query latencies, computed from a
/// streaming log₂-bucketed [`fsi_obs::Histogram`] rather than a
/// collect-then-sort pass — O(1) memory per sample, mergeable across
/// recorders.
///
/// Percentiles follow the **nearest-rank** definition: the p-th percentile
/// of `N` samples is the `⌈p·N⌉`-th smallest (1-indexed). The histogram
/// reports the inclusive upper edge of the bucket holding that sample,
/// clamped into `[min, max]`, so each percentile is exact when the ranked
/// sample is the minimum or maximum (a single sample, p95/p99 of a
/// handful) and otherwise overshoots the true sample by at most
/// [`fsi_obs::Histogram::MAX_RELATIVE_ERROR`] (1/32 ≈ 3.1%). `count`,
/// `mean_us`, and `max_us` are exact — the histogram carries exact
/// count/sum/max alongside the buckets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of measured queries.
    pub count: usize,
    /// Mean latency in microseconds (exact).
    pub mean_us: f64,
    /// Median latency in microseconds (nearest-rank, bucket-bounded).
    pub p50_us: f64,
    /// 95th-percentile latency in microseconds (nearest-rank,
    /// bucket-bounded).
    pub p95_us: f64,
    /// 99th-percentile latency in microseconds (nearest-rank,
    /// bucket-bounded).
    pub p99_us: f64,
    /// Worst observed latency in microseconds (exact).
    pub max_us: f64,
}

impl LatencySummary {
    /// Summarizes a nanosecond-valued latency histogram snapshot.
    ///
    /// An empty histogram has **no** order statistics: `count` is 0 and
    /// every microsecond field is `NaN`, so a missing measurement can
    /// never be mistaken for a measured 0 µs (consumers check `count` or
    /// `is_nan()`).
    pub fn from_histogram(hist: &HistSnapshot) -> Self {
        if hist.count == 0 {
            return Self {
                count: 0,
                mean_us: f64::NAN,
                p50_us: f64::NAN,
                p95_us: f64::NAN,
                p99_us: f64::NAN,
                max_us: f64::NAN,
            };
        }
        let us = |ns: f64| ns / 1e3;
        Self {
            count: hist.count as usize,
            mean_us: us(hist.mean()),
            p50_us: us(hist.percentile(0.50)),
            p95_us: us(hist.percentile(0.95)),
            p99_us: us(hist.percentile(0.99)),
            max_us: us(hist.max as f64),
        }
    }
}

/// A point-in-time snapshot of one serving engine, derived from the
/// server's metrics registry ([`crate::Server::metrics`] exposes the raw
/// registry snapshot this is a typed view over).
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// Queries answered with documents since the server was built (cache
    /// hits included; `EXPLAIN [ANALYZE]` excluded).
    pub queries_served: u64,
    /// Requests shed instead of served — their deadline had already
    /// expired when the server picked them up. Disjoint from
    /// `queries_served`.
    pub queries_shed: u64,
    /// Latency distribution over every individually timed query this
    /// server answered (`count` is 0 until something is timed).
    pub latency: LatencySummary,
    /// Result-cache counters.
    pub cache: CacheStats,
    /// Total heap footprint of the prepared index.
    pub index_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_obs::Histogram;
    use std::time::Duration;

    /// One pass over `durations` through a fresh histogram.
    fn from_durations(durations: &[Duration]) -> LatencySummary {
        let hist = Histogram::new();
        for d in durations {
            hist.record_duration(*d);
        }
        LatencySummary::from_histogram(&hist.snapshot())
    }

    /// Bucket-bounded equality: within `MAX_RELATIVE_ERROR` above the
    /// exact nearest-rank answer, never below it by more than clamping
    /// allows.
    fn assert_close(got: f64, exact: f64) {
        let bound = exact * Histogram::MAX_RELATIVE_ERROR;
        assert!(
            got >= exact - 1e-9 && got <= exact + bound + 1e-9,
            "got {got}, exact nearest-rank {exact} (bound +{bound})"
        );
    }

    #[test]
    fn empty_summary_is_nan_not_zero() {
        // A missing measurement must be distinguishable from a measured
        // 0 µs — NaN (with count = 0), never a silent 0.
        let s = from_durations(&[]);
        assert_eq!(s.count, 0);
        assert!(s.mean_us.is_nan());
        assert!(s.p50_us.is_nan());
        assert!(s.p95_us.is_nan());
        assert!(s.p99_us.is_nan());
        assert!(s.max_us.is_nan());
    }

    #[test]
    fn percentiles_are_ordered_and_nearest_rank() {
        let durations: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        let s = from_durations(&durations);
        assert_eq!(s.count, 100);
        assert!(s.p50_us <= s.p95_us);
        assert!(s.p95_us <= s.p99_us);
        assert!(s.p99_us <= s.max_us);
        // Nearest rank over 1..=100 µs: ⌈0.5·100⌉ = 50th smallest, etc.
        // Percentiles are bucket upper edges: within 1/32 above exact.
        assert_close(s.p50_us, 50.0);
        assert_close(s.p95_us, 95.0);
        assert_close(s.p99_us, 99.0);
        // Mean and max come from exact aggregates, not buckets.
        assert!((s.max_us - 100.0).abs() < 1e-9);
        assert!((s.mean_us - 50.5).abs() < 1e-9);
    }

    #[test]
    fn single_sample_summary_is_that_sample() {
        // One sample: min == max, so the [min, max] clamp makes every
        // percentile exact despite the bucketing.
        let s = from_durations(&[Duration::from_micros(7)]);
        assert_eq!(s.count, 1);
        for v in [s.mean_us, s.p50_us, s.p95_us, s.p99_us, s.max_us] {
            assert!((v - 7.0).abs() < 1e-9);
        }
    }

    #[test]
    fn two_samples_nearest_rank_exactly() {
        // ⌈0.5·2⌉ = 1 → p50 is the smaller sample; ⌈0.95·2⌉ = ⌈0.99·2⌉ = 2
        // → p95/p99 are the larger — and max-rank percentiles clamp to the
        // exact max, so only p50 carries bucket error.
        let s = from_durations(&[Duration::from_micros(30), Duration::from_micros(10)]);
        assert_eq!(s.count, 2);
        assert_close(s.p50_us, 10.0);
        assert!((s.p95_us - 30.0).abs() < 1e-9);
        assert!((s.p99_us - 30.0).abs() < 1e-9);
        assert!((s.max_us - 30.0).abs() < 1e-9);
        assert!((s.mean_us - 20.0).abs() < 1e-9);
    }

    #[test]
    fn three_samples_nearest_rank_exactly() {
        // ⌈0.5·3⌉ = 2 → the middle sample (bucket-bounded); ⌈0.95·3⌉ =
        // ⌈0.99·3⌉ = 3 → the largest (exact via the max clamp).
        let s = from_durations(&[
            Duration::from_micros(9),
            Duration::from_micros(1),
            Duration::from_micros(5),
        ]);
        assert_eq!(s.count, 3);
        assert_close(s.p50_us, 5.0);
        assert!((s.p95_us - 9.0).abs() < 1e-9);
        assert!((s.p99_us - 9.0).abs() < 1e-9);
    }

    #[test]
    fn summary_from_merged_histograms_matches_from_durations() {
        // The merge path: two halves recorded into separate
        // histograms, merged, must summarize identically to one pass over
        // the concatenation.
        let all: Vec<Duration> = (1..=60u64).map(|i| Duration::from_micros(i * 13)).collect();
        let (left, right) = all.split_at(25);
        let (ha, hb) = (Histogram::new(), Histogram::new());
        left.iter().for_each(|d| ha.record_duration(*d));
        right.iter().for_each(|d| hb.record_duration(*d));
        ha.merge_from(&hb);
        let merged = LatencySummary::from_histogram(&ha.snapshot());
        let direct = from_durations(&all);
        assert_eq!(merged, direct);
    }
}
