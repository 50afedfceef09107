//! Boolean-composition kernels: k-way **union** and multi-subtrahend
//! **difference** over sorted slices.
//!
//! The intersection kernels answer flat conjunctions; a boolean expression
//! engine (`fsi-query`) additionally needs `OR` (set union) and `AND NOT`
//! (set difference against a bounded base). Bille–Pagh–Pagh ("Fast
//! evaluation of union-intersection expressions") make the case that
//! expression-level evaluation is its own algorithmic problem; these are
//! the slice-level primitives that evaluation bottoms out in:
//!
//! * [`merge_union_into`] — two-way linear merge union, the `k = 2` fast
//!   path (no heap traffic).
//! * [`heap_union_into`] — k-way union via a binary min-heap over the list
//!   heads, the union sibling of
//!   [`heap_merge_into`](crate::multiway::heap_merge_into):
//!   `O(Σ nᵢ · log k)`, emits each value once however many lists carry it.
//! * [`gallop_diff_into`] — `base ∖ (S₁ ∪ … ∪ Sₘ)` with one galloping
//!   cursor per subtrahend, the difference sibling of
//!   [`gallop_probe_ordered_into`](crate::multiway::gallop_probe_ordered_into):
//!   a candidate found in *any* subtrahend is dropped immediately, and a
//!   subtrahend whose cursor exhausts is never probed again. Unlike the
//!   intersection probe, an exhausted subtrahend does **not** end the
//!   query — the remaining base elements simply cannot be excluded by it.
//!
//! * [`filter_in_place`] — one pass of membership filtering over
//!   candidates already in the output buffer, compacted without a branch
//!   on the test's outcome: the inner loop of `fsi-index`'s membership
//!   probe (keep members) and of the bit-test difference (keep
//!   non-members).
//!
//! The dense-regime union counterpart is the chunk union
//! ([`chunk_union_into`](crate::chunk_union_into)), which rides the same
//! SIMD word primitives as the `AND` sweep and accepts sorted lists among
//! its operands too.
//!
//! All inputs are sorted and duplicate-free; all outputs are appended to
//! `out` in ascending order and duplicate-free.

use fsi_core::elem::Elem;
use fsi_core::search::gallop;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Appends `a ∪ b` (both sorted, duplicate-free) to `out`, ascending.
pub fn merge_union_into(a: &[Elem], b: &[Elem], out: &mut Vec<Elem>) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        match x.cmp(&y) {
            std::cmp::Ordering::Less => {
                out.push(x);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(y);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(x);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Appends `⋃ sets` to `out`, ascending and duplicate-free: a binary
/// min-heap over the k list heads pops the global minimum, emits it once,
/// and refills from every list that carried it.
pub fn heap_union_into(sets: &[&[Elem]], out: &mut Vec<Elem>) {
    match sets {
        [] => {}
        [a] => out.extend_from_slice(a),
        [a, b] => merge_union_into(a, b, out),
        _ => {
            // Dedup only against values emitted by *this* call: `out` may
            // legitimately hold earlier (smaller) results the caller is
            // concatenating onto.
            let start = out.len();
            let mut cursors = vec![0usize; sets.len()];
            // Min-heap of (head value, list index).
            let mut heap: BinaryHeap<Reverse<(Elem, usize)>> = sets
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.is_empty())
                .map(|(i, s)| Reverse((s[0], i)))
                .collect();
            while let Some(Reverse((v, i))) = heap.pop() {
                if out.len() == start || out[out.len() - 1] != v {
                    out.push(v);
                }
                cursors[i] += 1;
                if cursors[i] < sets[i].len() {
                    heap.push(Reverse((sets[i][cursors[i]], i)));
                }
            }
        }
    }
}

/// Appends `base ∖ (subtract₁ ∪ … ∪ subtractₘ)` to `out`, ascending: every
/// candidate of `base` gallops through the subtrahends **in the given
/// order** (callers — the expression planner — put the most-excluding list
/// first so doomed candidates die on their cheapest probe). A subtrahend
/// whose cursor exhausts is dropped from further probing; when all are
/// exhausted the rest of `base` is copied through.
pub fn gallop_diff_into(base: &[Elem], subtract: &[&[Elem]], out: &mut Vec<Elem>) {
    let mut lists: Vec<&[Elem]> = subtract.iter().copied().filter(|s| !s.is_empty()).collect();
    if lists.is_empty() {
        out.extend_from_slice(base);
        return;
    }
    let mut cursors = vec![0usize; lists.len()];
    'candidates: for (bi, &x) in base.iter().enumerate() {
        let mut li = 0usize;
        while li < lists.len() {
            let list = lists[li];
            let c = gallop(list, cursors[li], x);
            if c >= list.len() {
                // This subtrahend can never exclude a later (larger)
                // candidate: retire it. `swap_remove` puts a fresh list at
                // `li`, so don't advance.
                lists.swap_remove(li);
                cursors.swap_remove(li);
                if lists.is_empty() {
                    out.extend_from_slice(&base[bi..]);
                    return;
                }
                continue;
            }
            cursors[li] = c;
            if list[c] == x {
                cursors[li] = c + 1;
                continue 'candidates; // excluded — no later subtrahend matters
            }
            li += 1;
        }
        out.push(x);
    }
}

/// Keeps, in order, the elements of `out[start..]` that pass `keep`, and
/// truncates `out` behind them. Every candidate is written back and only a
/// pass advances the write position, so the loop carries no branch on the
/// test's outcome — on a membership test that outcome is close to a coin
/// flip, which a branching filter pays for in mispredictions.
pub fn filter_in_place(out: &mut Vec<Elem>, start: usize, mut keep: impl FnMut(Elem) -> bool) {
    let Some(buf) = out.get_mut(start..) else {
        return;
    };
    let mut kept = 0usize;
    for i in 0..buf.len() {
        let x = buf[i];
        buf[kept] = x;
        kept += usize::from(keep(x));
    }
    out.truncate(start + kept);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_core::elem::SortedSet;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    fn random_set(rng: &mut StdRng, max_n: usize, universe: u32) -> SortedSet {
        let n = rng.gen_range(0..max_n);
        (0..n).map(|_| rng.gen_range(0..universe)).collect()
    }

    #[test]
    fn union_matches_reference() {
        let mut rng = StdRng::seed_from_u64(21);
        for trial in 0..20 {
            for k in 0..=6usize {
                let universe = rng.gen_range(1..40_000u32);
                let sets: Vec<SortedSet> = (0..k)
                    .map(|_| random_set(&mut rng, 1200, universe))
                    .collect();
                let slices: Vec<&[Elem]> = sets.iter().map(|s| s.as_slice()).collect();
                let expect: Vec<Elem> = slices
                    .iter()
                    .flat_map(|s| s.iter().copied())
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect();
                let mut out = Vec::new();
                heap_union_into(&slices, &mut out);
                assert_eq!(out, expect, "trial {trial} k={k}");
            }
        }
    }

    #[test]
    fn pairwise_union_matches_heap() {
        let mut rng = StdRng::seed_from_u64(22);
        let a = random_set(&mut rng, 800, 10_000);
        let b = random_set(&mut rng, 800, 10_000);
        let mut two_way = Vec::new();
        merge_union_into(a.as_slice(), b.as_slice(), &mut two_way);
        // Force the heap path with a duplicated operand: same answer.
        let mut heap = Vec::new();
        heap_union_into(&[a.as_slice(), b.as_slice(), a.as_slice()], &mut heap);
        assert_eq!(two_way, heap);
    }

    #[test]
    fn difference_matches_reference() {
        let mut rng = StdRng::seed_from_u64(23);
        for trial in 0..20 {
            for m in 0..=4usize {
                let universe = rng.gen_range(1..20_000u32);
                let base = random_set(&mut rng, 1500, universe);
                let subs: Vec<SortedSet> = (0..m)
                    .map(|_| random_set(&mut rng, 1000, universe))
                    .collect();
                let sub_refs: Vec<&[Elem]> = subs.iter().map(|s| s.as_slice()).collect();
                let excluded: BTreeSet<Elem> =
                    sub_refs.iter().flat_map(|s| s.iter().copied()).collect();
                let expect: Vec<Elem> = base.iter().filter(|x| !excluded.contains(x)).collect();
                let mut out = Vec::new();
                gallop_diff_into(base.as_slice(), &sub_refs, &mut out);
                assert_eq!(out, expect, "trial {trial} m={m}");
            }
        }
    }

    #[test]
    fn difference_copies_tail_after_subtrahends_exhaust() {
        let base: SortedSet = (0..1000u32).collect();
        let low: SortedSet = (0..10u32).map(|x| x * 2).collect();
        let mut out = Vec::new();
        gallop_diff_into(base.as_slice(), &[low.as_slice()], &mut out);
        let expect: Vec<Elem> = (0..1000u32).filter(|x| *x >= 19 || x % 2 == 1).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn degenerate_inputs() {
        let a: SortedSet = (0..50u32).collect();
        let mut out = Vec::new();
        heap_union_into(&[], &mut out);
        assert!(out.is_empty());
        heap_union_into(&[a.as_slice()], &mut out);
        assert_eq!(out, a.as_slice());
        out.clear();
        heap_union_into(&[a.as_slice(), &[], a.as_slice()], &mut out);
        assert_eq!(out, a.as_slice());
        out.clear();
        gallop_diff_into(a.as_slice(), &[], &mut out);
        assert_eq!(out, a.as_slice());
        out.clear();
        gallop_diff_into(a.as_slice(), &[&[], &[]], &mut out);
        assert_eq!(out, a.as_slice());
        out.clear();
        gallop_diff_into(&[], &[a.as_slice()], &mut out);
        assert!(out.is_empty());
        out.clear();
        gallop_diff_into(a.as_slice(), &[a.as_slice()], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn boundary_values_survive() {
        let a = SortedSet::from_unsorted(vec![0, 65_536, u32::MAX - 1, u32::MAX]);
        let b = SortedSet::from_unsorted(vec![0, 1, u32::MAX]);
        let mut union = Vec::new();
        heap_union_into(&[a.as_slice(), b.as_slice(), a.as_slice()], &mut union);
        assert_eq!(union, vec![0, 1, 65_536, u32::MAX - 1, u32::MAX]);
        let mut diff = Vec::new();
        gallop_diff_into(a.as_slice(), &[b.as_slice()], &mut diff);
        assert_eq!(diff, vec![65_536, u32::MAX - 1]);
    }
}
