//! Loom-style exhaustive interleaving harness for the fsi-obs
//! concurrency surface (striped counters, histogram recording, and
//! snapshot merging).
//!
//! Instead of stress-looping real threads and hoping the scheduler is
//! unkind, this harness **enumerates every interleaving** of small
//! per-thread operation sequences with a DFS over schedule prefixes
//! (the multinomial `(Σnᵢ)! / Πnᵢ!` of them) and replays each schedule
//! deterministically, asserting invariants after every run. Two
//! granularities are covered:
//!
//! * **API granularity** — each schedule step is one public call
//!   (`Counter::add`, `Histogram::record`, snapshot + merge) against
//!   the real types. Valid because every public operation is a single
//!   logical transition whose internals are lock-free atomics; this
//!   proves merge arithmetic and no-lost-update semantics for every
//!   possible ordering of calls.
//! * **Atomic-step granularity** — a model that mirrors the *exact*
//!   per-atomic order of `Histogram::record` (bucket → count → sum →
//!   max → min) interleaved with `Histogram::snapshot`'s read order
//!   (buckets → count → sum → max → min), proving the documented
//!   bounded-skew contract: a snapshot racing in-flight records may
//!   tear *between* fields, but each field is never ahead of the truth
//!   and the bucket/count skew is bounded by the number of in-flight
//!   recorders. A quiescent snapshot is exact.
//!
//! Scope note: this explores **interleavings of sequentially consistent
//! steps**, not weak-memory reorderings. All fsi-obs atomics are
//! `Relaxed` on independent cells (or single-cell RMWs, which are
//! atomic under any memory order), so interleaving coverage is the
//! meaningful axis; cross-cell reordering is additionally exercised by
//! the Miri and ThreadSanitizer CI legs.

use fsi_obs::{HistSnapshot, Histogram, Registry, Snapshot};

/// Calls `f` with every interleaving of `counts[t]` ops from each
/// thread `t`, as a sequence of thread ids. Visitor-driven so large
/// enumerations never materialize.
fn for_each_schedule(counts: &[usize], f: &mut dyn FnMut(&[usize])) {
    fn go(rem: &mut [usize], sched: &mut Vec<usize>, f: &mut dyn FnMut(&[usize])) {
        let mut done = true;
        for t in 0..rem.len() {
            if rem[t] > 0 {
                done = false;
                rem[t] -= 1;
                sched.push(t);
                go(rem, sched, f);
                sched.pop();
                rem[t] += 1;
            }
        }
        if done {
            f(sched);
        }
    }
    go(&mut counts.to_vec(), &mut Vec::new(), f);
}

fn num_schedules(counts: &[usize]) -> u64 {
    let mut n = 0;
    for_each_schedule(counts, &mut |_| n += 1);
    n
}

#[test]
fn enumerator_visits_the_full_multinomial() {
    assert_eq!(num_schedules(&[1]), 1);
    assert_eq!(num_schedules(&[2, 2]), 6);
    assert_eq!(num_schedules(&[2, 2, 2]), 90);
    assert_eq!(num_schedules(&[5, 5]), 252);
}

// ---------------------------------------------------------------------------
// API granularity: real types, every ordering of public calls.
// ---------------------------------------------------------------------------

/// The fan-in pattern: workers record into private histograms, a
/// coordinator snapshots each worker once and merges. Under **every**
/// interleaving the merged aggregate must equal exactly the records
/// that preceded each worker's snapshot — nothing lost, nothing
/// double-counted, min/max consistent with the merged prefix.
#[test]
fn histogram_snapshot_merge_sees_exactly_the_preceding_records() {
    let w0_vals = [3u64, 5];
    let w1_vals = [70_000u64, 9];
    let prefix_sum = |vals: &[u64], n: usize| vals[..n].iter().sum::<u64>();

    let mut schedules = 0u64;
    // Thread 0: two records into H0. Thread 1: two into H1.
    // Thread 2: snapshot-merge H0, then snapshot-merge H1.
    for_each_schedule(&[2, 2, 2], &mut |sched| {
        schedules += 1;
        let (h0, h1, owner) = (Histogram::new(), Histogram::new(), Histogram::new());
        let mut pc = [0usize; 3];
        // Records that had landed when the coordinator snapshotted.
        let (mut at_snap0, mut at_snap1) = (usize::MAX, usize::MAX);
        for &t in sched {
            let i = pc[t];
            pc[t] += 1;
            match t {
                0 => h0.record(w0_vals[i]),
                1 => h1.record(w1_vals[i]),
                _ if i == 0 => {
                    at_snap0 = pc[0];
                    owner.merge_snapshot(&h0.snapshot());
                }
                _ => {
                    at_snap1 = pc[1];
                    owner.merge_snapshot(&h1.snapshot());
                }
            }
        }
        let want_count = (at_snap0 + at_snap1) as u64;
        let want_sum = prefix_sum(&w0_vals, at_snap0) + prefix_sum(&w1_vals, at_snap1);
        assert_eq!(owner.count(), want_count, "schedule {sched:?}");
        assert_eq!(owner.sum(), want_sum, "schedule {sched:?}");
        let merged: Vec<u64> = w0_vals[..at_snap0]
            .iter()
            .chain(&w1_vals[..at_snap1])
            .copied()
            .collect();
        assert_eq!(owner.max(), merged.iter().copied().max().unwrap_or(0));
        assert_eq!(owner.min(), merged.iter().copied().min());
        let snap = owner.snapshot();
        assert_eq!(
            snap.buckets.iter().map(|&(_, n)| n).sum::<u64>(),
            want_count,
            "bucket totals must match the aggregate count"
        );
    });
    assert_eq!(schedules, 90);
}

/// Registry-level twin of the test above: per-worker registries with a
/// counter and a histogram, a coordinator merging each worker's
/// `Snapshot` into an accumulator. Every ordering of increments vs.
/// snapshot-merges must yield exactly the pre-snapshot totals.
#[test]
fn registry_snapshot_merge_vs_concurrent_increments() {
    for_each_schedule(&[2, 2, 2], &mut |sched| {
        let (w0, w1) = (Registry::new(), Registry::new());
        let (c0, c1) = (w0.counter("ops", &[]), w1.counter("ops", &[]));
        let (h0, h1) = (w0.histogram("lat_ns", &[]), w1.histogram("lat_ns", &[]));
        let mut acc = Snapshot::default();
        let mut pc = [0usize; 3];
        let (mut at_snap0, mut at_snap1) = (usize::MAX, usize::MAX);
        for &t in sched {
            let i = pc[t];
            pc[t] += 1;
            match t {
                0 => {
                    c0.add(10);
                    h0.record(7);
                }
                1 => {
                    c1.add(1);
                    h1.record(900);
                }
                _ if i == 0 => {
                    at_snap0 = pc[0];
                    acc.merge_from(&w0.snapshot());
                }
                _ => {
                    at_snap1 = pc[1];
                    acc.merge_from(&w1.snapshot());
                }
            }
        }
        let want = 10 * at_snap0 as u64 + at_snap1 as u64;
        assert_eq!(acc.counter("ops", &[]), Some(want), "schedule {sched:?}");
        let hist = acc.histogram("lat_ns", &[]).expect("merged histogram");
        assert_eq!(hist.count, (at_snap0 + at_snap1) as u64);
        assert_eq!(hist.sum, 7 * at_snap0 as u64 + 900 * at_snap1 as u64);
    });
}

/// Merging per-worker snapshots must be insensitive to merge order and
/// grouping (a fan-in can combine partials in any tree shape),
/// and must equal the snapshot of one histogram that saw everything.
#[test]
fn snapshot_merge_is_order_and_grouping_invariant() {
    let groups: [&[u64]; 3] = [&[1, 2], &[1_000], &[123_456, 2, 40]];
    let snaps: Vec<HistSnapshot> = groups
        .iter()
        .map(|vals| {
            let h = Histogram::new();
            for &v in *vals {
                h.record(v);
            }
            h.snapshot()
        })
        .collect();

    let merge_in = |order: &[usize]| {
        let mut acc = HistSnapshot::default();
        for &i in order {
            acc.merge_from(&snaps[i]);
        }
        acc
    };
    let reference = merge_in(&[0, 1, 2]);
    for order in [[0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
        assert_eq!(merge_in(&order), reference, "order {order:?}");
    }
    // Tree grouping: (0+1) + (2) built as two partials, then combined.
    let mut left = HistSnapshot::default();
    left.merge_from(&snaps[0]);
    left.merge_from(&snaps[1]);
    let mut tree = snaps[2].clone();
    tree.merge_from(&left);
    assert_eq!(tree, reference);

    // And the flat recording of the union agrees on every aggregate.
    let all = Histogram::new();
    for vals in &groups {
        for &v in *vals {
            all.record(v);
        }
    }
    assert_eq!(all.snapshot(), reference);
}

// ---------------------------------------------------------------------------
// Atomic-step granularity: the exact field order of record() vs snapshot().
// ---------------------------------------------------------------------------

/// One atomic in `Histogram::record`, in source order.
#[derive(Clone, Copy)]
enum RecStep {
    Bucket(usize),
    Count,
    Sum(u64),
    Max(u64),
    Min(u64),
}

/// Plain-field mirror of a histogram; each step application is one
/// "atomic" transition in the interleaving model.
#[derive(Default)]
struct ModelHist {
    buckets: [u64; 2],
    count: u64,
    sum: u64,
    max: u64,
    min: Option<u64>,
}

impl ModelHist {
    fn apply(&mut self, s: RecStep) {
        match s {
            RecStep::Bucket(b) => self.buckets[b] += 1,
            RecStep::Count => self.count += 1,
            RecStep::Sum(v) => self.sum += v,
            RecStep::Max(v) => self.max = self.max.max(v),
            RecStep::Min(v) => self.min = Some(self.min.map_or(v, |m| m.min(v))),
        }
    }
}

/// Snapshot read steps, in `Histogram::snapshot` source order.
#[derive(Default)]
struct ModelSnap {
    bucket_total: u64,
    count: u64,
    sum: u64,
    max: u64,
    min: Option<u64>,
}

/// Exhaustively interleaves recorder threads (5 atomic steps each, the
/// exact order of `Histogram::record`) with one snapshotter (5 read
/// steps, the exact order of `Histogram::snapshot`) and checks, for
/// every reachable snapshot:
///
/// * no field ever runs ahead of the true totals;
/// * `sum` is always the sum of a genuine subset of recorded values;
/// * the bucket-total/count skew is bounded by the number of records
///   in flight across the snapshot window;
/// * a snapshot that overlaps no record is field-for-field exact;
/// * the **final** state is exact in every schedule — interleaving
///   can tear a racing snapshot but can never lose an update.
#[test]
fn model_record_vs_snapshot_interleavings_respect_skew_bounds() {
    // Miri runs this same enumeration; keep it to one recorder there
    // (252 schedules) and two natively (756,756 schedules).
    let vals: &[u64] = if cfg!(miri) { &[1] } else { &[1, 8] };
    let programs: Vec<Vec<RecStep>> = vals
        .iter()
        .enumerate()
        .map(|(b, &v)| {
            vec![
                RecStep::Bucket(b),
                RecStep::Count,
                RecStep::Sum(v),
                RecStep::Max(v),
                RecStep::Min(v),
            ]
        })
        .collect();
    let subset_sums: Vec<u64> = (0..1u64 << vals.len())
        .map(|mask| {
            vals.iter()
                .enumerate()
                .filter(|&(i, _)| mask >> i & 1 == 1)
                .map(|(_, &v)| v)
                .sum()
        })
        .collect();
    let true_sum: u64 = vals.iter().sum();
    let snap_tid = programs.len();

    let mut counts: Vec<usize> = programs.iter().map(Vec::len).collect();
    counts.push(5); // the snapshotter
    for_each_schedule(&counts, &mut |sched| {
        let mut h = ModelHist::default();
        let mut snap = ModelSnap::default();
        let mut pc = vec![0usize; counts.len()];
        // Schedule positions of each thread's first/last step, to
        // decide which records overlap the snapshot window.
        let mut first = vec![usize::MAX; counts.len()];
        let mut last = vec![0usize; counts.len()];
        for (pos, &t) in sched.iter().enumerate() {
            first[t] = first[t].min(pos);
            last[t] = last[t].max(pos);
            let i = pc[t];
            pc[t] += 1;
            if t == snap_tid {
                match i {
                    0 => snap.bucket_total = h.buckets.iter().sum(),
                    1 => snap.count = h.count,
                    2 => snap.sum = h.sum,
                    3 => snap.max = h.max,
                    _ => snap.min = h.min,
                }
            } else {
                h.apply(programs[t][i]);
            }
        }

        // Field-wise "never ahead of the truth".
        assert!(snap.count <= vals.len() as u64, "schedule {sched:?}");
        assert!(snap.bucket_total <= vals.len() as u64);
        assert!(snap.sum <= true_sum);
        assert!(snap.max <= vals.iter().copied().max().unwrap());
        assert!(subset_sums.contains(&snap.sum), "sum tore within a record");
        if let Some(m) = snap.min {
            assert!(vals.contains(&m), "min must be a recorded value");
        }

        // Bucket/count skew is bounded by in-flight records: a record
        // entirely before (or after) the snapshot window contributes
        // equally (or not at all) to both fields.
        let in_flight = (0..programs.len())
            .filter(|&t| first[t] < last[snap_tid] && last[t] > first[snap_tid])
            .count() as u64;
        assert!(
            snap.bucket_total.abs_diff(snap.count) <= in_flight,
            "skew {} vs {} exceeds {in_flight} in-flight records: {sched:?}",
            snap.bucket_total,
            snap.count,
        );

        // A quiescent snapshot is exact: every record fully before the
        // window is reflected in every field, and nothing else is.
        if in_flight == 0 {
            let before: Vec<u64> = (0..programs.len())
                .filter(|&t| last[t] < first[snap_tid])
                .map(|t| vals[t])
                .collect();
            assert_eq!(snap.count, before.len() as u64);
            assert_eq!(snap.bucket_total, before.len() as u64);
            assert_eq!(snap.sum, before.iter().sum::<u64>());
            assert_eq!(snap.max, before.iter().copied().max().unwrap_or(0));
            assert_eq!(snap.min, before.iter().copied().min());
        }

        // No schedule loses an update: the final state is always exact.
        assert_eq!(h.count, vals.len() as u64);
        assert_eq!(h.buckets.iter().sum::<u64>(), vals.len() as u64);
        assert_eq!(h.sum, true_sum);
        assert_eq!(h.max, vals.iter().copied().max().unwrap());
        assert_eq!(h.min, vals.iter().copied().min());
    });
}
