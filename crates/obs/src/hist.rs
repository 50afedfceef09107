//! A streaming log₂-bucketed histogram over `u64` samples (nanoseconds by
//! convention), built for concurrent recording and cross-worker merging.
//!
//! ## Bucket layout
//!
//! Values below [`SUB_BUCKETS`] (32) land in one exact bucket each. Above
//! that, each power-of-two octave `[2ᵉ, 2ᵉ⁺¹)` is split into
//! [`SUB_BUCKETS`] linear sub-buckets of width `2^(e-5)` — the classic
//! HDR-style layout. A bucket's *representative* value is its inclusive
//! upper edge, so reported percentiles are one-sided overestimates with
//! relative error at most `1/32` ([`Histogram::MAX_RELATIVE_ERROR`]):
//! a bucket starting at `v ≥ 32·2^(e-5)` has width `2^(e-5)`, and
//! `2^(e-5) / v ≤ 1/32`.
//!
//! `count`, `sum`, `max`, and `min` are tracked exactly alongside the
//! buckets, so `mean` and `max` carry no bucketing error at all, and
//! percentile estimates are clamped into `[min, max]` (a single-sample
//! histogram reports that sample exactly, preserving the nearest-rank
//! contract for the degenerate cases the serving tests pin).
//!
//! ## Concurrency and merging
//!
//! Every cell is a relaxed `AtomicU64`: recording is wait-free and
//! `merge_from` is plain bucket-wise addition, which makes merging
//! associative and commutative — per-thread histograms merge into one
//! total in any grouping with an identical result (asserted by the
//! registry merge proptests).

use crate::registry::{thread_stripe, STRIPES};
use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-buckets per octave (and the exact-value range `0..32`).
pub const SUB_BUCKETS: usize = 32;
/// `log₂(SUB_BUCKETS)`.
const SUB_BITS: u32 = 5;
/// Total bucket count: 32 exact low values plus 59 octaves (exponents
/// `SUB_BITS..=63`) × 32 sub-buckets covering the rest of the `u64` range.
pub const NUM_BUCKETS: usize = SUB_BUCKETS + (64 - SUB_BITS as usize) * SUB_BUCKETS;

/// Bucket index of a value. Exact below [`SUB_BUCKETS`]; log₂-linear above.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros(); // e >= SUB_BITS
    let shift = e - SUB_BITS;
    let sub = (v >> shift) as usize - SUB_BUCKETS;
    ((e - SUB_BITS + 1) as usize * SUB_BUCKETS) + sub
}

/// Inclusive upper edge (the representative value) of bucket `i` — the
/// largest value that [`bucket_index`] maps to `i`.
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64;
    }
    let group = (i / SUB_BUCKETS) as u32; // >= 1
    let sub = (i % SUB_BUCKETS) as u64;
    let shift = group - 1;
    // The very last bucket's exclusive end is 2^64: the wrapping shift
    // yields 0 and the wrapping decrement lands on u64::MAX — its correct
    // inclusive edge.
    (SUB_BUCKETS as u64 + sub + 1)
        .wrapping_shl(shift)
        .wrapping_sub(1)
}

/// A concurrent log₂-bucket histogram (see the module docs for the layout
/// and error bound).
pub struct Histogram {
    buckets: Box<[AtomicU64; NUM_BUCKETS]>,
    /// `count` and `sum`, which every sample writes, striped by recording
    /// thread like a [`crate::Counter`]: threads recording into one
    /// histogram (every connection reader and worker does) would
    /// otherwise trade one cache line per sample.
    totals: [Totals; STRIPES],
    extrema: Extrema,
}

/// One thread stripe's share of the sample count and sum, on its own
/// cache line.
#[repr(align(64))]
#[derive(Default)]
struct Totals {
    count: AtomicU64,
    sum: AtomicU64,
}

/// The cells a sample reads but almost never writes, on a cache line of
/// their own so that it stays shared between recording cores.
#[repr(align(64))]
struct Extrema {
    max: AtomicU64,
    /// Stored as the raw minimum; `u64::MAX` means "no samples yet".
    min: AtomicU64,
    /// Largest value recorded with an exemplar id (0 = no exemplar yet;
    /// see [`Histogram::record_with_exemplar`]).
    exemplar_val: AtomicU64,
    /// The id recorded alongside `exemplar_val`; best-effort under races.
    exemplar_id: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// One-sided relative error bound of percentile estimates: a reported
    /// percentile `p̂` satisfies `p ≤ p̂ ≤ p · (1 + 1/32)` for the exact
    /// nearest-rank percentile `p` (before the `[min, max]` clamp, which
    /// can only tighten it).
    pub const MAX_RELATIVE_ERROR: f64 = 1.0 / SUB_BUCKETS as f64;

    /// An empty histogram.
    pub fn new() -> Self {
        // `AtomicU64` is not Copy; build the boxed array through a Vec.
        let buckets: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; NUM_BUCKETS]> = buckets
            .into_boxed_slice()
            .try_into()
            // audit:allow(hot_path_panic): the vec is built with exactly NUM_BUCKETS elements two lines up
            .unwrap_or_else(|_| unreachable!("length is NUM_BUCKETS"));
        Self {
            buckets,
            totals: Default::default(),
            extrema: Extrema {
                max: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                exemplar_val: AtomicU64::new(0),
                exemplar_id: AtomicU64::new(0),
            },
        }
    }

    /// Adds `count` samples summing to `sum` to the calling thread's
    /// stripe.
    fn add_totals(&self, count: u64, sum: u64) {
        // audit:allow(hot_path_index): thread_stripe() reduces modulo STRIPES, the array length
        let mine = &self.totals[thread_stripe()];
        mine.count.fetch_add(count, Ordering::Relaxed);
        mine.sum.fetch_add(sum, Ordering::Relaxed);
    }

    /// Records one sample. Wait-free: three relaxed read-modify-writes —
    /// the bucket, and the recording thread's own stripe of count and sum
    /// — and two loads. The extrema are compared before they are written:
    /// a sample that moves neither (almost every one) leaves their cache
    /// line shared between recording cores, where an unconditional
    /// `fetch_max`/`fetch_min` (a CAS loop on x86) would pull it exclusive
    /// per sample. When one does move, the CAS loop only retries while
    /// another thread is moving the same extremum the same way.
    pub fn record(&self, v: u64) {
        // audit:allow(hot_path_index): bucket_index returns < NUM_BUCKETS for every u64
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.add_totals(1, v);
        if v > self.extrema.max.load(Ordering::Relaxed) {
            self.extrema.max.fetch_max(v, Ordering::Relaxed);
        }
        if v < self.extrema.min.load(Ordering::Relaxed) {
            self.extrema.min.fetch_min(v, Ordering::Relaxed);
        }
    }

    /// Records a [`std::time::Duration`] in nanoseconds (saturating on the
    /// absurd >584-year case).
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records one sample and attaches `id` (by convention a request id)
    /// as the histogram's exemplar when `v` is the largest value seen so
    /// far — Prometheus-exemplar style, answering "*which* request hit
    /// the tail?". The `(value, id)` pairing is best-effort under
    /// concurrent recording: two threads racing new maxima can pair one's
    /// value with the other's id, which is acceptable for a debugging
    /// breadcrumb and keeps the hot path at one extra relaxed load (two more
    /// ops only for a sample that becomes the exemplar).
    /// A value of 0 never becomes the exemplar (0 encodes "none").
    pub fn record_with_exemplar(&self, v: u64, id: u64) {
        self.record(v);
        self.note_exemplar(v, id);
    }

    fn note_exemplar(&self, v: u64, id: u64) {
        // A sample below the current exemplar changes nothing: skip the
        // write (as `record` does for the extrema).
        if v == 0 || v < self.extrema.exemplar_val.load(Ordering::Relaxed) {
            return;
        }
        let prev = self.extrema.exemplar_val.fetch_max(v, Ordering::Relaxed);
        if v >= prev {
            self.extrema.exemplar_id.store(id, Ordering::Relaxed);
        }
    }

    /// The `(value, id)` exemplar of the largest sample recorded via
    /// [`Histogram::record_with_exemplar`], if any.
    pub fn exemplar(&self) -> Option<(u64, u64)> {
        match self.extrema.exemplar_val.load(Ordering::Relaxed) {
            0 => None,
            v => Some((v, self.extrema.exemplar_id.load(Ordering::Relaxed))),
        }
    }

    /// Adds every sample of `other` into `self` (bucket-wise addition —
    /// associative and commutative, so per-thread histograms merge in any
    /// grouping).
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.add_totals(other.count(), other.sum());
        self.extrema.max.fetch_max(other.max(), Ordering::Relaxed);
        let theirs = other.extrema.min.load(Ordering::Relaxed);
        self.extrema.min.fetch_min(theirs, Ordering::Relaxed);
        if let Some((v, id)) = other.exemplar() {
            self.note_exemplar(v, id);
        }
    }

    /// Adds every sample of a point-in-time snapshot into `self` — the
    /// cross-thread half of merging: workers hand back snapshots, the
    /// owner folds them into its live histogram. Each snapshot bucket's
    /// inclusive upper edge maps back to the bucket it came from, so this
    /// loses no precision beyond the bucketing already applied.
    pub fn merge_snapshot(&self, other: &HistSnapshot) {
        for &(upper, n) in &other.buckets {
            // audit:allow(hot_path_index): bucket_index returns < NUM_BUCKETS for every u64
            self.buckets[bucket_index(upper)].fetch_add(n, Ordering::Relaxed);
        }
        self.add_totals(other.count, other.sum);
        self.extrema.max.fetch_max(other.max, Ordering::Relaxed);
        if let Some(mn) = other.min {
            self.extrema.min.fetch_min(mn, Ordering::Relaxed);
        }
        if let Some((v, id)) = other.exemplar {
            self.note_exemplar(v, id);
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        let stripes = self.totals.iter();
        stripes.map(|t| t.count.load(Ordering::Relaxed)).sum()
    }

    /// Exact sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        let stripes = self.totals.iter();
        stripes.fold(0, |sum, t| sum.wrapping_add(t.sum.load(Ordering::Relaxed)))
    }

    /// Exact largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.extrema.max.load(Ordering::Relaxed)
    }

    /// Exact smallest recorded sample (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        match self.extrema.min.load(Ordering::Relaxed) {
            u64::MAX => None,
            v => Some(v),
        }
    }

    /// Exact mean (`NaN` when empty — a missing measurement must never
    /// read as a measured 0).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            f64::NAN
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// Nearest-rank percentile estimate: the upper edge of the bucket
    /// holding the `⌈p·N⌉`-th smallest sample, clamped into `[min, max]`.
    /// `p` is a fraction in `[0, 1]` (`0.99` for p99, not `99.0`). `NaN`
    /// when empty. See [`Histogram::MAX_RELATIVE_ERROR`].
    pub fn percentile(&self, p: f64) -> f64 {
        self.snapshot().percentile(p)
    }

    /// A point-in-time copy of the buckets and exact aggregates.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((bucket_upper(i), n))
                })
                .collect(),
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            min: self.min(),
            exemplar: self.exemplar(),
        }
    }
}

impl Clone for Histogram {
    fn clone(&self) -> Self {
        let fresh = Histogram::new();
        fresh.merge_from(self);
        fresh
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .field("max", &self.max())
            .field("min", &self.min())
            .finish()
    }
}

/// A point-in-time copy of a [`Histogram`]: only non-empty buckets, as
/// `(inclusive upper edge, count)` pairs ascending by edge, plus the exact
/// aggregates.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistSnapshot {
    /// Non-empty buckets, ascending: `(inclusive upper edge, count)`.
    pub buckets: Vec<(u64, u64)>,
    /// Total sample count.
    pub count: u64,
    /// Exact sum of samples.
    pub sum: u64,
    /// Exact maximum sample (0 when empty).
    pub max: u64,
    /// Exact minimum sample (`None` when empty).
    pub min: Option<u64>,
    /// `(value, id)` of the largest exemplar-carrying sample, if any
    /// (see [`Histogram::record_with_exemplar`]).
    pub exemplar: Option<(u64, u64)>,
}

impl HistSnapshot {
    /// Exact mean (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank percentile estimate over the bucketed samples (see
    /// [`Histogram::percentile`]). `p` is a fraction in `[0, 1]` — passing
    /// `50.0` for the median is a unit error that would silently clamp to
    /// the maximum, so out-of-range fractions are rejected loudly.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&p),
            "percentile takes a fraction in [0, 1], got {p}"
        );
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(upper, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                let est = upper.min(self.max).max(self.min.unwrap_or(0));
                return est as f64;
            }
        }
        self.max as f64
    }

    /// Merges another snapshot's buckets and aggregates into this one
    /// (same semantics as [`Histogram::merge_from`]).
    pub fn merge_from(&mut self, other: &HistSnapshot) {
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(self.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ua, na)), Some(&&(ub, nb))) => {
                    if ua == ub {
                        merged.push((ua, na + nb));
                        a.next();
                        b.next();
                    } else if ua < ub {
                        merged.push((ua, na));
                        a.next();
                    } else {
                        merged.push((ub, nb));
                        b.next();
                    }
                }
                (Some(&&x), None) => {
                    merged.push(x);
                    a.next();
                }
                (None, Some(&&x)) => {
                    merged.push(x);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
        // Wrapping, to match the live histogram's relaxed `fetch_add`
        // semantics exactly: a sum of adversarially large samples wraps
        // there too (nanosecond latencies never get close).
        self.count = self.count.wrapping_add(other.count);
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        // The merged exemplar is whichever side's carries the larger
        // value — consistent with "the exemplar tracks the max".
        self.exemplar = match (self.exemplar, other.exemplar) {
            (Some(a), Some(b)) => Some(if b.0 > a.0 { b } else { a }),
            (a, b) => a.or(b),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_upper_are_consistent() {
        // Every probe value must land in a bucket whose upper edge is >= it
        // and within the documented relative error.
        for v in (0u64..256).chain([
            1000,
            4095,
            4096,
            4097,
            65_535,
            1 << 20,
            (1 << 40) + 12345,
            u64::MAX,
        ]) {
            let i = bucket_index(v);
            let upper = bucket_upper(i);
            assert!(upper >= v, "v={v} i={i} upper={upper}");
            assert!(
                upper as f64 <= v as f64 * (1.0 + Histogram::MAX_RELATIVE_ERROR) + 1.0,
                "v={v} upper={upper}"
            );
            // The upper edge itself maps back to the same bucket.
            assert_eq!(bucket_index(upper), i, "v={v}");
        }
    }

    #[test]
    fn extreme_values_record_in_bounds() {
        // Regression: the top octave (e = 63) needs its own 32 sub-buckets
        // beyond the 32 exact low values — an off-by-one in NUM_BUCKETS
        // made any sample >= 2^63 index past the bucket array.
        let h = Histogram::new();
        for v in [
            1u64 << 62,
            (1 << 63) - 1,
            1 << 63,
            (1 << 63) + 12345,
            u64::MAX,
        ] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), u64::MAX);
        let snap = h.snapshot();
        let merged = Histogram::new();
        merged.merge_snapshot(&snap); // upper edges must map back in bounds
        assert_eq!(merged.snapshot(), snap);
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, SUB_BUCKETS as u64);
        for (upper, n) in snap.buckets {
            assert_eq!(n, 1);
            assert!(upper < SUB_BUCKETS as u64);
        }
    }

    #[test]
    fn empty_histogram_is_nan_not_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.mean().is_nan());
        assert!(h.percentile(0.5).is_nan());
        assert_eq!(h.min(), None);
    }

    #[test]
    fn single_sample_percentiles_are_exact() {
        // The [min, max] clamp makes every percentile of a single sample
        // exactly that sample, whatever its bucket's upper edge is.
        let h = Histogram::new();
        h.record(7_000);
        for p in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.percentile(p), 7_000.0, "p={p}");
        }
        assert_eq!(h.mean(), 7_000.0);
        assert_eq!(h.max(), 7_000);
    }

    #[test]
    fn percentiles_within_documented_bound_of_exact_nearest_rank() {
        let samples: Vec<u64> = (1..=1000).map(|i| i * 997).collect();
        let h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for p in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1] as f64;
            let est = h.percentile(p);
            assert!(est >= exact, "p={p} est={est} exact={exact}");
            assert!(
                est <= exact * (1.0 + Histogram::MAX_RELATIVE_ERROR),
                "p={p} est={est} exact={exact}"
            );
        }
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let (a, b, all) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in [3u64, 50, 7_000, 1 << 30, 12, 999_999] {
            all.record(v);
            if v % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge_from(&b);
        assert_eq!(a.snapshot(), all.snapshot());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        // Miri executes this with real (interpreted) threads; keep the
        // per-thread volume small enough to finish while still racing.
        const PER_THREAD: u64 = if cfg!(miri) { 200 } else { 10_000 };
        let h = Histogram::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        h.record(t * 1_000_000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4 * PER_THREAD);
        let bucket_total: u64 = h.snapshot().buckets.iter().map(|&(_, n)| n).sum();
        assert_eq!(bucket_total, 4 * PER_THREAD);
    }

    #[test]
    fn exemplar_tracks_the_max_and_survives_merges() {
        let h = Histogram::new();
        assert_eq!(h.exemplar(), None);
        h.record(500); // plain records never set an exemplar
        assert_eq!(h.exemplar(), None);
        h.record_with_exemplar(100, 41);
        h.record_with_exemplar(300, 42);
        h.record_with_exemplar(200, 43); // smaller: exemplar unchanged
        assert_eq!(h.exemplar(), Some((300, 42)));
        assert_eq!(h.snapshot().exemplar, Some((300, 42)));
        // Histogram merge adopts the larger exemplar.
        let other = Histogram::new();
        other.record_with_exemplar(900, 77);
        h.merge_from(&other);
        assert_eq!(h.exemplar(), Some((900, 77)));
        // Snapshot merge agrees, in either direction.
        let mut sa = h.snapshot();
        let fresh = Histogram::new();
        fresh.record_with_exemplar(50, 1);
        sa.merge_from(&fresh.snapshot());
        assert_eq!(sa.exemplar, Some((900, 77)));
        let mut sb = fresh.snapshot();
        sb.merge_from(&h.snapshot());
        assert_eq!(sb.exemplar, Some((900, 77)));
        // merge_snapshot folds the exemplar back into a live histogram.
        let folded = Histogram::new();
        folded.merge_snapshot(&h.snapshot());
        assert_eq!(folded.exemplar(), Some((900, 77)));
    }

    #[test]
    fn snapshot_merge_matches_histogram_merge() {
        let (a, b) = (Histogram::new(), Histogram::new());
        for v in [1u64, 100, 100, 65_536, 1 << 50] {
            a.record(v);
        }
        for v in [2u64, 100, 1 << 50] {
            b.record(v);
        }
        let mut sa = a.snapshot();
        sa.merge_from(&b.snapshot());
        a.merge_from(&b);
        assert_eq!(sa, a.snapshot());
    }
}
