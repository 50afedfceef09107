//! Boolean-composition kernels: the one membership pass behind every
//! intersection probe and every **difference**.
//!
//! The intersection kernels answer flat conjunctions; a boolean expression
//! engine (`fsi-query`) additionally needs `OR` (set union) and `AND NOT`
//! (set difference against a bounded base). Bille–Pagh–Pagh ("Fast
//! evaluation of union-intersection expressions") make the case that
//! expression-level evaluation is its own algorithmic problem; these are
//! the primitives that evaluation bottoms out in:
//!
//! * [`retain_members`] — one membership pass over candidates already in
//!   the output buffer, against a [`Member`]: a bitmap (one bit test per
//!   candidate), chunked 16-bit arrays (a chunk cursor and a gallop inside
//!   the chunk) or a sorted slice (one galloping cursor). Kept are the
//!   members (an intersection probe) or the non-members (a difference),
//!   compacted without a branch on the test's outcome. `fsi-index`'s
//!   probing plans and every `AND NOT` are runs of this one pass —
//!   intersection and difference as one membership problem, as
//!   Bille–Pagh–Pagh treat them.
//! * The one union is the chunk union
//!   ([`chunk_union_into`](crate::chunk_union_into)): per chunk it merges
//!   the 16-bit runs of sparse operands, or gathers dense ones in a bitmap
//!   accumulator over the same SIMD word primitives as the `AND` sweep.
//!
//! All inputs are sorted and duplicate-free; all outputs are appended to
//! `out` in ascending order and duplicate-free.

use crate::array::ArraySet;
use crate::bitmap::BitmapSet;
use fsi_core::elem::Elem;
use fsi_core::search::gallop;

/// The set a [`retain_members`] pass tests its candidates against.
#[derive(Debug, Clone, Copy)]
pub enum Member<'a> {
    /// A chunked bitmap: one bit test per candidate, through a
    /// [`BitmapProbe`](crate::BitmapProbe) that looks each chunk up once.
    Bitmap(&'a BitmapSet),
    /// Chunked 16-bit arrays: a chunk cursor, then one galloping cursor
    /// through each chunk's run, through an
    /// [`ArrayProbe`](crate::ArrayProbe).
    Array(&'a ArraySet),
    /// A sorted, duplicate-free slice — a materialized result: one
    /// galloping cursor moving forward through it as the ascending
    /// candidates advance.
    Sorted(&'a [Elem]),
}

/// Keeps, in order, the ascending candidates in `out[start..]` whose
/// membership in `member` equals `keep`, and truncates `out` behind them:
/// `keep = true` intersects the candidates with `member`, `keep = false`
/// subtracts it. Every intersection probe and every `AND NOT` in the engine
/// is a run of these passes, one per probed operand or subtrahend, so the
/// candidates shrink as they go and no intermediate leaves `out`.
pub fn retain_members(out: &mut Vec<Elem>, start: usize, member: Member<'_>, keep: bool) {
    match member {
        Member::Bitmap(bitmap) => {
            let mut probe = bitmap.probe();
            filter_in_place(out, start, |x| probe.contains(x) == keep);
        }
        Member::Array(array) => {
            let mut probe = array.probe();
            filter_in_place(out, start, |x| probe.contains(x) == keep);
        }
        Member::Sorted(list) => {
            // Past the list's last element the cursor stays at its end and
            // `gallop` returns at once, so an exhausted list costs one
            // compare per remaining candidate.
            let mut cursor = 0;
            filter_in_place(out, start, |x| {
                cursor = gallop(list, cursor, x);
                (list.get(cursor) == Some(&x)) == keep
            });
        }
    }
}

/// Keeps, in order, the elements of `out[start..]` that pass `keep`, and
/// truncates `out` behind them. Every candidate is written back and only a
/// pass advances the write position, so the loop carries no branch on the
/// test's outcome — on a membership test that outcome is close to a coin
/// flip, which a branching filter pays for in mispredictions.
fn filter_in_place(out: &mut Vec<Elem>, start: usize, mut keep: impl FnMut(Elem) -> bool) {
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
    use crate::{chunk_union_into, UnionPart};
    use fsi_core::elem::SortedSet;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    fn random_set(rng: &mut StdRng, max_n: usize, universe: u32) -> SortedSet {
        let n = rng.gen_range(0..max_n);
        (0..n).map(|_| rng.gen_range(0..universe)).collect()
    }

    /// `base ∖ ⋃ subs`: one `retain_members(.., false)` pass per
    /// subtrahend, in order, behind a prefix the passes must not touch —
    /// run once with each subtrahend as a sorted slice and once as a
    /// bitmap, which must agree.
    fn difference(base: &[Elem], subs: &[&[Elem]]) -> Vec<Elem> {
        let prefix = [u32::MAX, 0];
        let mut sorted = [&prefix[..], base].concat();
        let mut tested = sorted.clone();
        for s in subs {
            retain_members(&mut sorted, prefix.len(), Member::Sorted(s), false);
            let bitmap = BitmapSet::from_sorted_slice(s);
            retain_members(&mut tested, prefix.len(), Member::Bitmap(&bitmap), false);
        }
        assert_eq!(sorted, tested, "slice and bitmap subtrahends disagree");
        assert_eq!(sorted[..prefix.len()], prefix);
        sorted.split_off(prefix.len())
    }

    /// `⋃ sets` through the chunk union, each set a sorted-list part.
    fn union(sets: &[&[Elem]]) -> Vec<Elem> {
        let parts: Vec<UnionPart> = sets.iter().map(|s| UnionPart::List(s)).collect();
        let mut out = Vec::new();
        chunk_union_into(&parts, &mut out);
        out
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
                assert_eq!(union(&slices), expect, "trial {trial} k={k}");
            }
        }
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
                assert_eq!(
                    difference(base.as_slice(), &sub_refs),
                    expect,
                    "trial {trial} m={m}"
                );
            }
        }
    }

    #[test]
    fn difference_copies_tail_after_subtrahends_exhaust() {
        let base: SortedSet = (0..1000u32).collect();
        let low: SortedSet = (0..10u32).map(|x| x * 2).collect();
        let expect: Vec<Elem> = (0..1000u32).filter(|x| *x >= 19 || x % 2 == 1).collect();
        assert_eq!(difference(base.as_slice(), &[low.as_slice()]), expect);
    }

    #[test]
    fn degenerate_inputs() {
        let a: SortedSet = (0..50u32).collect();
        assert!(union(&[]).is_empty());
        assert_eq!(union(&[a.as_slice()]), a.as_slice());
        assert_eq!(union(&[a.as_slice(), &[], a.as_slice()]), a.as_slice());
        assert_eq!(difference(a.as_slice(), &[]), a.as_slice());
        assert_eq!(difference(a.as_slice(), &[&[], &[]]), a.as_slice());
        assert!(difference(&[], &[a.as_slice()]).is_empty());
        assert!(difference(a.as_slice(), &[a.as_slice()]).is_empty());
        // The same pass with `keep` set intersects.
        let evens: SortedSet = (0..50u32).step_by(2).collect();
        let mut kept = a.as_slice().to_vec();
        retain_members(&mut kept, 0, Member::Sorted(evens.as_slice()), true);
        assert_eq!(kept, evens.as_slice());
    }

    #[test]
    fn boundary_values_survive() {
        let a = SortedSet::from_unsorted(vec![0, 65_536, u32::MAX - 1, u32::MAX]);
        let b = SortedSet::from_unsorted(vec![0, 1, u32::MAX]);
        assert_eq!(
            union(&[a.as_slice(), b.as_slice(), a.as_slice()]),
            vec![0, 1, 65_536, u32::MAX - 1, u32::MAX]
        );
        assert_eq!(
            difference(a.as_slice(), &[b.as_slice()]),
            vec![65_536, u32::MAX - 1]
        );
    }
}
