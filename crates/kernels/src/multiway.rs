//! True k-way intersection kernels: the smallest set drives probes into
//! all the others, with **no materialized intermediate results**.
//!
//! The paper's headline algorithms (IntGroup, RanGroup, the small×large
//! adaptive probes of §3.4) are defined over intersecting *k* sets at once,
//! yet a pairwise fold — `((L₁ ∩ L₂) ∩ L₃) ∩ …` — materializes every
//! intermediate, re-scanning survivors once per remaining list. The kernels
//! here evaluate the whole operand list in one pass each:
//!
//! * [`gallop_probe_into`] — sort the lists by length, then drive each
//!   candidate of the smallest list through all the others with per-list
//!   galloping cursors (`O(n_min · Σᵢ log(nᵢ/n_min))`, Hwang–Lin across all
//!   `k` at once). A candidate that misses any list is dropped immediately
//!   — no later list ever sees it — and an exhausted cursor ends the whole
//!   query early.
//! * [`heap_merge_into`] — a binary min-heap over the `k` list heads: pop
//!   the minimum, count how many lists carry it, emit it only when all `k`
//!   do. `O(Σ nᵢ · log k)`, no random access.
//! * [`compressed_probe_into`] — the gallop probe lifted onto
//!   [`SkipCursor`]s, so it runs over compressed block postings without
//!   decoding the blocks a seek skips.
//!
//! The k-way chunked-bitmap `AND` is `BitmapSet`'s
//! [`KIntersect`](fsi_core::KIntersect) implementation. None of these
//! picks itself: the `fsi-index` planner prices every kernel over prepared
//! lists and runs the cheapest, and [`pairwise_fold_into`] is the baseline
//! they are all benchmarked against.

use fsi_core::elem::Elem;
use fsi_core::search::gallop;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Drives every candidate of the smallest list through all the other lists
/// with per-list galloping cursors, appending survivors (ascending) to
/// `out`. No intermediate result is ever materialized.
pub fn gallop_probe_into(sets: &[&[Elem]], out: &mut Vec<Elem>) {
    match sets {
        [] => {}
        [a] => out.extend_from_slice(a),
        _ => {
            let mut order: Vec<&[Elem]> = sets.to_vec();
            // Probing the next-smallest list first maximizes the chance a
            // doomed candidate dies on its first (cheapest) probe.
            order.sort_by_key(|s| s.len());
            // audit:allow(hot_path_panic): k >= 2 was checked at dispatch, so split_first always succeeds
            let (driver, rest) = order.split_first().expect("k >= 2");
            gallop_probe_ordered_into(driver, rest, out);
        }
    }
}

/// The order-honouring core of [`gallop_probe_into`]: probes `driver`'s
/// candidates through `rest` **in the given order** (callers — the
/// `fsi-index` planner — choose the evaluation order; this function never
/// re-sorts). Appends survivors to `out`, ascending.
pub fn gallop_probe_ordered_into(driver: &[Elem], rest: &[&[Elem]], out: &mut Vec<Elem>) {
    if rest.is_empty() {
        out.extend_from_slice(driver);
        return;
    }
    let mut cursors = vec![0usize; rest.len()];
    'candidates: for &x in driver {
        for (ci, list) in rest.iter().enumerate() {
            let c = gallop(list, cursors[ci], x);
            if c >= list.len() {
                // Every later candidate is larger still: done.
                return;
            }
            if list[c] != x {
                cursors[ci] = c;
                continue 'candidates;
            }
            cursors[ci] = c + 1;
        }
        out.push(x);
    }
}

/// Heap-based k-way merge: pops the minimum head across all lists and emits
/// it only when every list carries it. Appends ascending output to `out`.
pub fn heap_merge_into(sets: &[&[Elem]], out: &mut Vec<Elem>) {
    match sets {
        [] => {}
        [a] => out.extend_from_slice(a),
        _ => {
            let k = sets.len();
            if sets.iter().any(|s| s.is_empty()) {
                return;
            }
            let mut cursors = vec![0usize; k];
            // Min-heap of (head value, list index).
            let mut heap: BinaryHeap<Reverse<(Elem, usize)>> = sets
                .iter()
                .enumerate()
                .map(|(i, s)| Reverse((s[0], i)))
                .collect();
            let mut popped: Vec<usize> = Vec::with_capacity(k);
            loop {
                // audit:allow(hot_path_panic): the heap is re-pushed back to k entries every round before pop
                let Reverse((v, first)) = heap.pop().expect("heap holds k entries");
                popped.clear();
                popped.push(first);
                while let Some(&Reverse((head, i))) = heap.peek() {
                    if head != v {
                        break;
                    }
                    heap.pop();
                    popped.push(i);
                }
                if popped.len() == k {
                    out.push(v);
                }
                for &i in &popped {
                    cursors[i] += 1;
                    if cursors[i] >= sets[i].len() {
                        // One list exhausted: nothing further can be in all k.
                        return;
                    }
                    heap.push(Reverse((sets[i][cursors[i]], i)));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Compressed-domain k-way probe
// ---------------------------------------------------------------------------

/// A seekable streaming cursor over one sorted, duplicate-free operand —
/// the abstraction that lets the k-way probe run directly over compressed
/// representations. `fsi-compress`'s `BlockPostings` implements this with
/// skip-table block jumps (decoding only the blocks a seek lands in);
/// [`SliceCursor`] adapts a flat slice with galloping, which is both the
/// differential-test oracle and the mixed-operand escape hatch.
pub trait SkipCursor {
    /// Total number of elements in the underlying operand (not the number
    /// remaining) — the probe sorts cursors by this to pick its driver.
    fn len(&self) -> usize;

    /// Whether the underlying operand is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The element the cursor points at, or `None` once exhausted. A fresh
    /// cursor points at the first element.
    fn current(&self) -> Option<Elem>;

    /// Advances one element.
    fn advance(&mut self);

    /// Advances to the first element `>= target` (a no-op when the current
    /// element already qualifies) and returns it, or `None` when the
    /// operand has no such element. Targets never decrease across calls.
    fn seek(&mut self, target: Elem) -> Option<Elem>;
}

/// A [`SkipCursor`] over a flat sorted slice: `seek` gallops from the
/// current position, mirroring [`gallop_probe_ordered_into`]'s cursor
/// discipline.
#[derive(Debug, Clone)]
pub struct SliceCursor<'a> {
    slice: &'a [Elem],
    pos: usize,
}

impl<'a> SliceCursor<'a> {
    /// A cursor positioned at the first element of `slice`.
    pub fn new(slice: &'a [Elem]) -> Self {
        SliceCursor { slice, pos: 0 }
    }
}

impl SkipCursor for SliceCursor<'_> {
    fn len(&self) -> usize {
        self.slice.len()
    }

    fn current(&self) -> Option<Elem> {
        self.slice.get(self.pos).copied()
    }

    fn advance(&mut self) {
        self.pos += 1;
    }

    fn seek(&mut self, target: Elem) -> Option<Elem> {
        match self.slice.get(self.pos) {
            Some(&v) if v >= target => Some(v),
            Some(_) => {
                self.pos = gallop(self.slice, self.pos, target);
                self.slice.get(self.pos).copied()
            }
            None => None,
        }
    }
}

/// The k-way candidate probe over [`SkipCursor`]s: the shortest operand
/// drives, every other cursor seeks to each candidate, and a miss promotes
/// the blocking cursor's element to the new candidate (seeking the driver
/// forward past the gap). Appends the ascending intersection to `out`.
///
/// This is [`gallop_probe_into`] lifted off flat slices: when the cursors
/// are compressed block cursors, a seek that overshoots a block consults
/// only the skip table — the block's payload is never decoded.
pub fn compressed_probe_into<C: SkipCursor>(cursors: &mut [C], out: &mut Vec<Elem>) {
    match cursors {
        [] => {}
        [a] => {
            while let Some(v) = a.current() {
                out.push(v);
                a.advance();
            }
        }
        _ => {
            // Shortest operand drives: its candidates die on their first
            // (cheapest) miss, and the long operands are only ever probed.
            cursors.sort_by_key(|c| c.len());
            // audit:allow(hot_path_panic): k >= 2 was matched above, so split_first always succeeds
            let (driver, rest) = cursors.split_first_mut().expect("k >= 2");
            let Some(mut cand) = driver.current() else {
                return;
            };
            'candidates: loop {
                for c in rest.iter_mut() {
                    match c.seek(cand) {
                        // One operand exhausted: nothing further can be in
                        // all k.
                        None => return,
                        Some(v) if v == cand => {}
                        Some(v) => {
                            // Miss: v is the smallest value this operand
                            // still carries, so jump the driver to it.
                            match driver.seek(v) {
                                None => return,
                                Some(nc) => {
                                    cand = nc;
                                    continue 'candidates;
                                }
                            }
                        }
                    }
                }
                out.push(cand);
                driver.advance();
                match driver.current() {
                    Some(v) => cand = v,
                    None => return,
                }
            }
        }
    }
}

/// The pairwise-fold baseline the multiway kernels are benchmarked against:
/// sort by length, intersect the two smallest, then fold each remaining
/// list in — materializing every intermediate, exactly what true k-way
/// evaluation avoids. `pair` is the pair kernel folded over.
pub fn pairwise_fold_into(pair: &dyn crate::kernel::Kernel, sets: &[&[Elem]], out: &mut Vec<Elem>) {
    match sets {
        [] => {}
        [a] => out.extend_from_slice(a),
        _ => {
            let mut order: Vec<&[Elem]> = sets.to_vec();
            order.sort_by_key(|s| s.len());
            let mut acc = Vec::new();
            pair.intersect_pair(order[0], order[1], &mut acc);
            for s in &order[2..] {
                if acc.is_empty() {
                    break;
                }
                let mut next = Vec::new();
                pair.intersect_pair(&acc, s, &mut next);
                acc = next;
            }
            out.extend(acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmap::BitmapSet;
    use fsi_core::elem::{reference_intersection, SortedSet};
    use fsi_core::traits::KIntersect;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    type KWay = fn(&[&[Elem]], &mut Vec<Elem>);

    /// Every slice-level k-way kernel, by name; the bitmap `AND` builds its
    /// bitmaps from the slices first.
    fn kernels() -> [(&'static str, KWay); 3] {
        [
            ("GallopProbe", gallop_probe_into),
            ("HeapMerge", heap_merge_into),
            ("BitmapAnd", |sets, out| {
                let built: Vec<BitmapSet> = sets
                    .iter()
                    .map(|s| BitmapSet::from_sorted_slice(s))
                    .collect();
                BitmapSet::intersect_k_into(&built.iter().collect::<Vec<_>>(), out);
            }),
        ]
    }

    fn random_sets(rng: &mut StdRng, k: usize, max_n: usize, universe: u32) -> Vec<SortedSet> {
        (0..k)
            .map(|_| {
                let n = rng.gen_range(0..max_n);
                (0..n).map(|_| rng.gen_range(0..universe)).collect()
            })
            .collect()
    }

    #[test]
    fn every_kernel_matches_reference() {
        let mut rng = StdRng::seed_from_u64(77);
        for trial in 0..12 {
            for k in 2..=6usize {
                let universe = rng.gen_range(1..50_000u32);
                let sets = random_sets(&mut rng, k, 1200, universe);
                let slices: Vec<&[Elem]> = sets.iter().map(|s| s.as_slice()).collect();
                let expect = reference_intersection(&slices);
                for (name, kernel) in kernels() {
                    let mut out = Vec::new();
                    kernel(&slices, &mut out);
                    assert_eq!(out, expect, "{name} trial {trial} k={k}");
                }
            }
        }
    }

    #[test]
    fn degenerate_inputs() {
        let a: SortedSet = (0..50u32).collect();
        let empty = SortedSet::new();
        for (name, kernel) in kernels() {
            let mut out = Vec::new();
            kernel(&[], &mut out);
            assert!(out.is_empty(), "{name} on zero operands");
            kernel(&[a.as_slice()], &mut out);
            assert_eq!(out, a.as_slice(), "{name} on one operand");
            out.clear();
            kernel(&[a.as_slice(), empty.as_slice(), a.as_slice()], &mut out);
            assert!(out.is_empty(), "{name} with an empty operand");
        }
    }

    #[test]
    fn duplicate_operands_and_identical_lists() {
        let a: SortedSet = (0..500u32).step_by(3).collect();
        for (name, kernel) in kernels() {
            let mut out = Vec::new();
            kernel(&[a.as_slice(), a.as_slice(), a.as_slice()], &mut out);
            assert_eq!(out, a.as_slice(), "{name}");
        }
    }

    #[test]
    fn gallop_probe_early_exits_on_exhausted_list() {
        // The driver continues past the largest element of another list:
        // the kernel must stop, not scan the remaining candidates.
        let driver: SortedSet = (0..1000u32).collect();
        let low: SortedSet = (0..10u32).collect();
        let mut out = Vec::new();
        gallop_probe_into(&[driver.as_slice(), low.as_slice()], &mut out);
        assert_eq!(out, low.as_slice());
    }

    #[test]
    fn boundary_values_survive_all_kernels() {
        let a = SortedSet::from_unsorted(vec![0, 65_535, 65_536, u32::MAX - 1, u32::MAX]);
        let b = SortedSet::from_unsorted(vec![0, 65_536, u32::MAX]);
        let c = SortedSet::from_unsorted(vec![0, 1, 65_536, u32::MAX]);
        for (name, kernel) in kernels() {
            let mut out = Vec::new();
            kernel(&[a.as_slice(), b.as_slice(), c.as_slice()], &mut out);
            assert_eq!(out, vec![0, 65_536, u32::MAX], "{name}");
        }
    }

    #[test]
    fn pairwise_fold_matches_reference() {
        let mut rng = StdRng::seed_from_u64(78);
        let sets = random_sets(&mut rng, 4, 900, 5_000);
        let slices: Vec<&[Elem]> = sets.iter().map(|s| s.as_slice()).collect();
        let mut out = Vec::new();
        pairwise_fold_into(&crate::kernel::ScalarMerge, &slices, &mut out);
        assert_eq!(out, reference_intersection(&slices));
    }

    #[test]
    fn compressed_probe_over_slice_cursors_matches_reference() {
        let mut rng = StdRng::seed_from_u64(79);
        for trial in 0..12 {
            for k in 1..=6usize {
                let universe = rng.gen_range(1..50_000u32);
                let sets = random_sets(&mut rng, k, 1200, universe);
                let slices: Vec<&[Elem]> = sets.iter().map(|s| s.as_slice()).collect();
                let expect = reference_intersection(&slices);
                let mut cursors: Vec<SliceCursor> =
                    slices.iter().map(|s| SliceCursor::new(s)).collect();
                let mut out = Vec::new();
                compressed_probe_into(&mut cursors, &mut out);
                assert_eq!(out, expect, "trial {trial} k={k}");
            }
        }
    }

    #[test]
    fn slice_cursor_seek_is_monotone_and_inclusive() {
        let s: SortedSet = (0..100u32).step_by(7).collect();
        let mut c = SliceCursor::new(s.as_slice());
        assert_eq!(c.current(), Some(0));
        assert_eq!(c.seek(0), Some(0), "seek to the current element is a no-op");
        assert_eq!(c.seek(1), Some(7));
        assert_eq!(c.seek(7), Some(7), "repeated seek stays put");
        assert_eq!(c.seek(50), Some(56));
        c.advance();
        assert_eq!(c.current(), Some(63));
        assert_eq!(c.seek(1_000), None, "past the end exhausts the cursor");
        assert_eq!(c.current(), None);
        assert_eq!(c.len(), s.len(), "len reports the whole operand");
    }

    #[test]
    fn compressed_probe_degenerate_inputs() {
        let a: SortedSet = (0..50u32).collect();
        let mut out = Vec::new();
        compressed_probe_into::<SliceCursor>(&mut [], &mut out);
        assert!(out.is_empty());
        compressed_probe_into(&mut [SliceCursor::new(a.as_slice())], &mut out);
        assert_eq!(out, a.as_slice());
        out.clear();
        let mut cursors = [
            SliceCursor::new(a.as_slice()),
            SliceCursor::new(&[]),
            SliceCursor::new(a.as_slice()),
        ];
        compressed_probe_into(&mut cursors, &mut out);
        assert!(out.is_empty(), "an empty operand empties the intersection");
    }

    #[test]
    fn kernel_names_are_distinct() {
        let names: Vec<&str> = kernels().iter().map(|(name, _)| *name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "{names:?}");
    }
}
