//! Property tests for the k-way paths: on random k ∈ 2..=8 operand lists —
//! including duplicated terms, an empty list, and one list equal to the
//! whole universe — every multiway route (slice kernels, the cost-model
//! planner under arbitrary unit constants, and every fixed `Strategy`'s
//! k-way dispatch) must equal the scalar pairwise fold.

use fast_set_intersection::index::{
    intersect_sorted, PlannedList, Planner, PreparedList, Strategy as QueryStrategy,
};
use fast_set_intersection::{HashContext, SortedSet};
use fsi_kernels::{
    pairwise_fold_into, BitmapAnd, GallopProbe, HeapMerge, MultiwayAuto, MultiwayKernel,
    ScalarMerge,
};
use proptest::collection::vec;
use proptest::prelude::*;

const UNIVERSE: u32 = 3_000;

/// `k ∈ 2..=8` random sets over a small universe (so intersections are
/// non-trivial).
fn operand_lists() -> impl Strategy<Value = Vec<SortedSet>> {
    vec(
        vec(0u32..UNIVERSE, 0..800).prop_map(SortedSet::from_unsorted),
        2..9,
    )
}

/// Injects the adversarial specials, driven by the bits of `special`:
/// duplicate one list into another slot (the "duplicate term" case — ⋂ is
/// idempotent, so the expected result is unchanged by construction),
/// replace one list by the empty set, and/or replace one list by the whole
/// universe (the ⋂-identity).
fn with_specials(mut sets: Vec<SortedSet>, special: u64) -> Vec<SortedSet> {
    let k = sets.len();
    if special & 1 != 0 {
        let from = ((special >> 8) as u8) as usize % k;
        let to = ((special >> 16) as u8) as usize % k;
        sets[to] = sets[from].clone();
    }
    if special & 2 != 0 {
        let at = ((special >> 24) as u8) as usize % k;
        sets[at] = SortedSet::new();
    }
    if special & 4 != 0 {
        let at = ((special >> 32) as u8) as usize % k;
        sets[at] = (0..UNIVERSE).collect();
    }
    sets
}

/// The baseline: sort by length, fold pairwise with the scalar merge.
fn fold_reference(sets: &[SortedSet]) -> Vec<u32> {
    let slices: Vec<&[u32]> = sets.iter().map(|s| s.as_slice()).collect();
    let mut out = Vec::new();
    pairwise_fold_into(&ScalarMerge, &slices, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn multiway_kernels_equal_pairwise_fold(
        raw in operand_lists(),
        special in any::<u64>(),
    ) {
        let sets = with_specials(raw.clone(), special);
        let expect = fold_reference(&sets);
        let slices: Vec<&[u32]> = sets.iter().map(|s| s.as_slice()).collect();
        let kernels: Vec<Box<dyn MultiwayKernel>> = vec![
            Box::new(GallopProbe),
            Box::new(HeapMerge),
            Box::new(BitmapAnd),
            Box::new(MultiwayAuto::default()),
        ];
        for kernel in kernels {
            let mut out = Vec::new();
            kernel.intersect(&slices, &mut out);
            prop_assert_eq!(&out, &expect);
        }
    }

    #[test]
    fn planner_equals_pairwise_fold_under_arbitrary_units(
        raw in operand_lists(),
        special in any::<u64>(),
        seed in any::<u64>(),
        gallop_unit in 0.01f64..100.0,
        hash_unit in 0.01f64..100.0,
        bitmap_word_unit in 0.01f64..100.0,
        rgs_unit in 0.01f64..100.0,
        heap_unit in 0.01f64..100.0,
    ) {
        let sets = with_specials(raw.clone(), special);
        let ctx = HashContext::new(seed);
        let planner = Planner {
            gallop_unit,
            hash_unit,
            bitmap_word_unit,
            rgs_unit,
            heap_unit,
        };
        let expect = fold_reference(&sets);
        let lists: Vec<PlannedList> =
            sets.iter().map(|s| PlannedList::build(&ctx, s)).collect();
        let refs: Vec<&PlannedList> = lists.iter().collect();
        let mut out = Vec::new();
        let _plan = planner.intersect(&refs, &mut out);
        out.sort_unstable();
        prop_assert_eq!(&out, &expect);
    }

    #[test]
    fn every_strategy_k_way_equals_pairwise_fold(
        raw in operand_lists(),
        special in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let sets = with_specials(raw.clone(), special);
        let ctx = HashContext::new(seed);
        let expect = fold_reference(&sets);
        for strat in QueryStrategy::full_lineup() {
            let prepared: Vec<PreparedList> =
                sets.iter().map(|s| strat.prepare(&ctx, s)).collect();
            let refs: Vec<&PreparedList> = prepared.iter().collect();
            prop_assert_eq!(&intersect_sorted(&refs), &expect);
        }
    }
}
