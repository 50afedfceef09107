//! **Hash** — intersection via hash-table lookups: iterate the smallest set,
//! probe every element in hash-table representations of the others
//! (expected `O(min_i n_i)` for two sets, Section 2 "Algorithms based on
//! Hashing").
//!
//! The table is built from scratch (no external hashing crates): open
//! addressing with linear probing, power-of-two capacity at load factor
//! ≤ 1/2, and a multiply-shift bucket hash. The paper's observation that the
//! "(relatively) expensive lookup" makes Hash slow for balanced sizes is
//! exactly the cache-missing probe sequence this reproduces.

use fsi_core::elem::{Elem, SortedSet};
use fsi_core::traits::{KIntersect, PairIntersect, SetIndex};

/// Slot sentinel for "empty" (the value `u32::MAX` itself is tracked by a
/// side flag so the full universe remains representable).
const EMPTY: u32 = u32::MAX;

/// Fibonacci-style multiplier for the bucket hash.
const FACTOR: u64 = 0x9e37_79b9_7f4a_7c15;

/// The open-addressing table on its own: linear probing over a
/// power-of-two slot array at load factor ≤ 1/2, holding no copy of the
/// elements. [`HashSetIndex`] wraps one next to its sorted list. (The
/// `fsi-index` planner holds none: a sparse list is probed through its own
/// flat list, which costs no bytes beyond the list.)
#[derive(Debug, Clone)]
pub struct ProbeTable {
    slots: Vec<u32>,
    shift: u32,
    mask: usize,
    has_max: bool,
}

impl ProbeTable {
    /// Slots allocated for `n` elements: the next power of two at or above
    /// `2n` (load factor ≤ 1/2), at least 4.
    fn capacity_for(n: usize) -> usize {
        (n * 2).next_power_of_two().max(4)
    }

    /// Builds the table of `elems` (duplicate-free; order immaterial).
    pub fn build(elems: &[Elem]) -> Self {
        let cap = Self::capacity_for(elems.len());
        let shift = 64 - cap.trailing_zeros();
        let mask = cap - 1;
        let mut slots = vec![EMPTY; cap];
        let mut has_max = false;
        for &x in elems {
            if x == u32::MAX {
                has_max = true;
                continue;
            }
            let mut slot = ((x as u64).wrapping_mul(FACTOR) >> shift) as usize & mask;
            while slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            slots[slot] = x;
        }
        Self {
            slots,
            shift,
            mask,
            has_max,
        }
    }

    /// Membership probe.
    #[inline]
    pub fn contains(&self, x: Elem) -> bool {
        if x == u32::MAX {
            return self.has_max;
        }
        let mut slot = ((x as u64).wrapping_mul(FACTOR) >> self.shift) as usize & self.mask;
        loop {
            let v = self.slots[slot];
            if v == x {
                return true;
            }
            if v == EMPTY {
                return false;
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Heap bytes of the slot array (plus the `u32::MAX` flag).
    pub fn size_in_bytes(&self) -> usize {
        self.slots.len() * 4 + 1
    }
}

/// A set stored both as a sorted list (for iteration) and a
/// [`ProbeTable`] (for probing).
#[derive(Debug, Clone)]
pub struct HashSetIndex {
    elems: Vec<Elem>,
    table: ProbeTable,
}

impl HashSetIndex {
    /// Builds the table at load factor ≤ 1/2.
    pub fn build(set: &SortedSet) -> Self {
        Self {
            elems: set.as_slice().to_vec(),
            table: ProbeTable::build(set.as_slice()),
        }
    }

    /// Sorted elements (used to drive iteration from the smallest set).
    pub fn as_slice(&self) -> &[Elem] {
        &self.elems
    }

    /// Membership probe.
    #[inline]
    pub fn contains(&self, x: Elem) -> bool {
        self.table.contains(x)
    }
}

impl SetIndex for HashSetIndex {
    fn n(&self) -> usize {
        self.elems.len()
    }

    fn size_in_bytes(&self) -> usize {
        self.elems.len() * 4 + self.table.size_in_bytes()
    }
}

impl PairIntersect for HashSetIndex {
    fn intersect_pair_into(&self, other: &Self, out: &mut Vec<Elem>) {
        let (small, large) = if self.n() <= other.n() {
            (self, other)
        } else {
            (other, self)
        };
        for &x in &small.elems {
            if large.contains(x) {
                out.push(x);
            }
        }
    }
}

impl KIntersect for HashSetIndex {
    fn intersect_k_into(indexes: &[&Self], out: &mut Vec<Elem>) {
        match indexes {
            [] => {}
            [a] => out.extend_from_slice(&a.elems),
            _ => {
                let mut order: Vec<&Self> = indexes.to_vec();
                order.sort_by_key(|ix| ix.n());
                let (small, rest) = order.split_first().expect("k >= 2");
                'elems: for &x in &small.elems {
                    for ix in rest {
                        if !ix.contains(x) {
                            continue 'elems;
                        }
                    }
                    out.push(x);
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

    #[test]
    fn probes_match_membership() {
        let set: SortedSet = (0..4096u32)
            .map(|x| x.wrapping_mul(2_654_435_761))
            .collect();
        let idx = HashSetIndex::build(&set);
        for &x in set.as_slice() {
            assert!(idx.contains(x));
        }
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..4000 {
            let x: u32 = rng.gen();
            assert_eq!(idx.contains(x), set.contains(x));
        }
    }

    #[test]
    fn handles_u32_max_and_zero() {
        let idx = HashSetIndex::build(&SortedSet::from_unsorted(vec![0, u32::MAX]));
        assert!(idx.contains(0));
        assert!(idx.contains(u32::MAX));
        assert!(!idx.contains(1));
        let no_max = HashSetIndex::build(&SortedSet::from_unsorted(vec![0, 1]));
        assert!(!no_max.contains(u32::MAX));
    }

    #[test]
    fn pair_matches_reference() {
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..25 {
            let n1 = rng.gen_range(0..400);
            let n2 = rng.gen_range(0..2000);
            let u = rng.gen_range(1..5000u32);
            let a: SortedSet = (0..n1).map(|_| rng.gen_range(0..u)).collect();
            let b: SortedSet = (0..n2).map(|_| rng.gen_range(0..u)).collect();
            let ia = HashSetIndex::build(&a);
            let ib = HashSetIndex::build(&b);
            assert_eq!(
                ia.intersect_pair_sorted(&ib),
                reference_intersection(&[a.as_slice(), b.as_slice()])
            );
        }
    }

    #[test]
    fn k_way_matches_reference() {
        let mut rng = StdRng::seed_from_u64(11);
        for k in 2..=5usize {
            for _ in 0..8 {
                let sets: Vec<SortedSet> = (0..k)
                    .map(|_| {
                        let n = rng.gen_range(0..600);
                        (0..n).map(|_| rng.gen_range(0..1500u32)).collect()
                    })
                    .collect();
                let idx: Vec<HashSetIndex> = sets.iter().map(HashSetIndex::build).collect();
                let refs: Vec<&HashSetIndex> = idx.iter().collect();
                let slices: Vec<&[u32]> = sets.iter().map(|s| s.as_slice()).collect();
                assert_eq!(
                    HashSetIndex::intersect_k_sorted(&refs),
                    reference_intersection(&slices)
                );
            }
        }
    }

    #[test]
    fn empty_cases() {
        let e = HashSetIndex::build(&SortedSet::new());
        let a = HashSetIndex::build(&SortedSet::from_unsorted(vec![1, 2]));
        assert_eq!(e.intersect_pair_sorted(&a), Vec::<u32>::new());
        assert!(!e.contains(0));
    }
}
