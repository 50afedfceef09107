//! Sorted-slice kernels: a branchless two-pointer merge and a galloping
//! (exponential-search) probe.
//!
//! Neither needs any auxiliary structure — the prepared form is the posting
//! list itself — so these are the baselines every word-parallel kernel must
//! beat, and the right choice in two regimes:
//!
//! * **balanced sizes** — the branchless merge advances both cursors with
//!   arithmetic on comparison results instead of unpredictable branches,
//!   so the CPU pipeline never stalls on the 50/50 "which side advances"
//!   branch a textbook merge takes;
//! * **skewed sizes** — galloping probes each element of the smaller list
//!   into the larger with a doubling step from a moving cursor,
//!   `O(n₁ log(n₂/n₁))` total (Hwang–Lin), the SvS regime.
//!
//! [`GallopingSet`] picks between the two per call from the size ratio.

use crate::boolean::{retain_members, Member};
use fsi_core::elem::{Elem, SortedSet};
use fsi_core::search::gallop;
use fsi_core::traits::{KIntersect, PairIntersect, SetIndex};

/// Size ratio `n_max/n_min` at or above which galloping beats the
/// branchless merge (measured; the crossover is flat between 8 and 32).
pub const GALLOP_RATIO: usize = 16;

/// Branchless two-pointer merge of two sorted, duplicate-free slices,
/// appending the (ascending) intersection to `out`.
pub fn branchless_merge_into(a: &[Elem], b: &[Elem], out: &mut Vec<Elem>) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        if x == y {
            out.push(x);
        }
        // Both advances are data-dependent arithmetic, not branches.
        i += (x <= y) as usize;
        j += (y <= x) as usize;
    }
}

/// Galloping probe of every element of `small` into `large` from a moving
/// cursor, appending the (ascending) intersection to `out`.
pub fn galloping_into(small: &[Elem], large: &[Elem], out: &mut Vec<Elem>) {
    let mut cursor = 0usize;
    for &x in small {
        cursor = gallop(large, cursor, x);
        if cursor >= large.len() {
            break;
        }
        if large[cursor] == x {
            out.push(x);
            cursor += 1;
        }
    }
}

/// Pair kernel choosing between the vectorized merge and galloping by the
/// size ratio; output ascending. The balanced branch runs the SIMD merge
/// at the dispatched [`SimdLevel`](crate::simd::SimdLevel) (the scalar
/// branchless merge under `force-scalar` or on non-x86 targets); the
/// skewed branch stays scalar — galloping is random access, which lanes
/// don't help.
pub fn adaptive_pair_into(a: &[Elem], b: &[Elem], out: &mut Vec<Elem>) {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() {
        return;
    }
    if large.len() / small.len() >= GALLOP_RATIO {
        galloping_into(small, large, out);
    } else {
        crate::simd::merge_into(a, b, out);
    }
}

/// A plain sorted list, intersected by the branchless/galloping kernels.
#[derive(Debug, Clone)]
pub struct GallopingSet {
    elems: Vec<Elem>,
}

impl GallopingSet {
    /// Wraps the sorted list (no preprocessing beyond the copy).
    pub fn build(set: &SortedSet) -> Self {
        Self {
            elems: set.as_slice().to_vec(),
        }
    }

    /// The sorted elements.
    pub fn as_slice(&self) -> &[Elem] {
        &self.elems
    }
}

impl SetIndex for GallopingSet {
    fn n(&self) -> usize {
        self.elems.len()
    }

    fn size_in_bytes(&self) -> usize {
        self.elems.len() * 4
    }
}

impl PairIntersect for GallopingSet {
    fn intersect_pair_into(&self, other: &Self, out: &mut Vec<Elem>) {
        adaptive_pair_into(&self.elems, &other.elems, out);
    }
}

impl KIntersect for GallopingSet {
    /// SvS schedule: intersect the two smallest lists, then filter the
    /// (sorted, shrinking) accumulator through each remaining list in size
    /// order with one galloping cursor each ([`retain_members`]). Output
    /// ascending.
    fn intersect_k_into(indexes: &[&Self], out: &mut Vec<Elem>) {
        match indexes {
            [] => {}
            [a] => out.extend_from_slice(&a.elems),
            _ => {
                let mut order: Vec<&Self> = indexes.to_vec();
                order.sort_by_key(|ix| ix.n());
                let start = out.len();
                adaptive_pair_into(&order[0].elems, &order[1].elems, out);
                for ix in &order[2..] {
                    retain_members(out, start, Member::Sorted(&ix.elems), true);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_core::elem::reference_intersection;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_set(rng: &mut StdRng, n: usize, universe: u32) -> SortedSet {
        (0..n).map(|_| rng.gen_range(0..universe)).collect()
    }

    #[test]
    fn branchless_and_galloping_agree_with_reference() {
        let mut rng = StdRng::seed_from_u64(21);
        for trial in 0..30 {
            let (n1, n2) = (rng.gen_range(0..800), rng.gen_range(0..800));
            let a = random_set(&mut rng, n1, 3000);
            let b = random_set(&mut rng, n2, 3000);
            let expect = reference_intersection(&[a.as_slice(), b.as_slice()]);
            let mut m = Vec::new();
            branchless_merge_into(a.as_slice(), b.as_slice(), &mut m);
            assert_eq!(m, expect, "merge trial {trial}");
            let (small, large) = if a.len() <= b.len() {
                (&a, &b)
            } else {
                (&b, &a)
            };
            let mut g = Vec::new();
            galloping_into(small.as_slice(), large.as_slice(), &mut g);
            assert_eq!(g, expect, "gallop trial {trial}");
        }
    }

    #[test]
    fn skewed_pairs_pick_galloping_and_stay_correct() {
        let mut rng = StdRng::seed_from_u64(22);
        // Interpreted execution (Miri) needs a smaller large side.
        let large_len = if cfg!(miri) { 2_000 } else { 100_000 };
        let small = random_set(&mut rng, 40, 1_000_000);
        let large = random_set(&mut rng, large_len, 1_000_000);
        let ia = GallopingSet::build(&small);
        let ib = GallopingSet::build(&large);
        let expect = reference_intersection(&[small.as_slice(), large.as_slice()]);
        assert_eq!(ia.intersect_pair_sorted(&ib), expect);
        assert_eq!(ib.intersect_pair_sorted(&ia), expect);
    }

    #[test]
    fn k_way_matches_reference() {
        let mut rng = StdRng::seed_from_u64(23);
        for k in 1..=5usize {
            let sets: Vec<SortedSet> = (0..k)
                .map(|i| random_set(&mut rng, 100 * (i + 1) * (i + 1), 4000))
                .collect();
            let built: Vec<GallopingSet> = sets.iter().map(GallopingSet::build).collect();
            let refs: Vec<&GallopingSet> = built.iter().collect();
            let slices: Vec<&[Elem]> = sets.iter().map(|s| s.as_slice()).collect();
            assert_eq!(
                GallopingSet::intersect_k_sorted(&refs),
                reference_intersection(&slices),
                "k={k}"
            );
        }
    }

    #[test]
    fn empty_inputs() {
        let e = GallopingSet::build(&SortedSet::new());
        let s = GallopingSet::build(&SortedSet::from_unsorted(vec![1, 2, 3]));
        assert!(e.intersect_pair_sorted(&s).is_empty());
        assert!(s.intersect_pair_sorted(&e).is_empty());
        assert_eq!(s.intersect_pair_sorted(&s), vec![1, 2, 3]);
        let mut out = Vec::new();
        GallopingSet::intersect_k_into(&[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn k_way_filter_keeps_prior_output_prefix() {
        // The in-place filter must not clobber results already in `out`.
        let a = GallopingSet::build(&(0..100u32).collect());
        let b = GallopingSet::build(&(50..150u32).collect());
        let c = GallopingSet::build(&(0..200u32).step_by(2).collect());
        let mut out = vec![7u32, 8, 9];
        GallopingSet::intersect_k_into(&[&a, &b, &c], &mut out);
        assert_eq!(&out[..3], &[7, 8, 9]);
        let expect: Vec<Elem> = (50..100).filter(|x| x % 2 == 0).collect();
        assert_eq!(&out[3..], expect.as_slice());
    }
}
