//! Property tests for the k-way paths: on random k ∈ 2..=8 operand lists —
//! including duplicated terms, an empty list, and one list equal to the
//! whole universe — every multiway route (slice kernels, every plan kind
//! the prepared lists admit, and every fixed `Strategy`'s k-way dispatch)
//! must equal the scalar pairwise fold. The forced plan kinds also run at
//! driver skews 1…512 and over lists holding the ends of the id space and
//! both sides of a chunk boundary.

use fast_set_intersection::index::{
    intersect_sorted, MultiwayPlan, PlanKind, PlannedList, Planner, PreparedList,
    Strategy as QueryStrategy,
};
use fast_set_intersection::{HashContext, KIntersect, SortedSet};
use fsi_kernels::{
    gallop_probe_into, heap_merge_into, pairwise_fold_into, BitmapSet, ScalarMerge, SimdLevel,
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

/// Values at the edges a galloping probe through a flat list must still
/// find: the ends of the id space and both sides of a 2¹⁶ chunk boundary.
const EDGES: [u32; 5] = [0, (1 << 16) - 1, 1 << 16, u32::MAX - 1, u32::MAX];

/// Thins the first list to every `step`-th member (a driver `step` times
/// smaller than the rest) and, with `edges`, adds [`EDGES`] to every
/// non-empty list — which then spans three chunks, too sparse for a
/// bitmap.
fn skewed(mut sets: Vec<SortedSet>, step: usize, edges: bool) -> Vec<SortedSet> {
    sets[0] = sets[0].iter().step_by(step).collect();
    if edges {
        for set in sets.iter_mut().filter(|s| !s.is_empty()) {
            *set = set.iter().chain(EDGES).collect();
        }
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

type KWay = fn(&[&[u32]], &mut Vec<u32>);

/// The k-way chunked-bitmap `AND` over slices: build each operand's
/// bitmap, then intersect all `k`.
fn bitmap_and_into(sets: &[&[u32]], out: &mut Vec<u32>) {
    let built: Vec<BitmapSet> = sets
        .iter()
        .map(|s| BitmapSet::from_sorted_slice(s))
        .collect();
    BitmapSet::intersect_k_into(&built.iter().collect::<Vec<_>>(), out);
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
        let kernels: [(&str, KWay); 3] = [
            ("GallopProbe", gallop_probe_into),
            ("HeapMerge", heap_merge_into),
            ("BitmapAnd", bitmap_and_into),
        ];
        for (name, kernel) in kernels {
            let mut out = Vec::new();
            kernel(&slices, &mut out);
            prop_assert!(out == expect, "{name}: {out:?} != {expect:?}");
        }
    }

    #[test]
    fn every_admissible_forced_kind_equals_pairwise_fold(
        raw in operand_lists(),
        special in any::<u64>(),
    ) {
        let shapes = [1, 8, 64, 512].into_iter().flat_map(|s| [(s, false), (s, true)]);
        for (step, edges) in shapes {
            let sets = skewed(with_specials(raw.clone(), special), step, edges);
            let expect = fold_reference(&sets);
            prop_assert_eq!(
                expect.last() == Some(&u32::MAX),
                edges && sets.iter().all(|s| !s.is_empty())
            );
            let lists: Vec<PlannedList> = sets.iter().map(PlannedList::build).collect();
            let refs: Vec<&PlannedList> = lists.iter().collect();
            let universe = if edges { u64::from(u32::MAX) + 1 } else { u64::from(UNIVERSE) };
            // Under every tier's prices: whichever kind each plans, and every
            // kind forced onto its operand order.
            for planner in SimdLevel::ALL.map(Planner::for_simd) {
                let planned = planner.plan_for_lists(&refs, universe);
                for kind in [
                    planned.kind,
                    PlanKind::SimdMerge,
                    PlanKind::RanGroupScan,
                    PlanKind::HashProbe,
                    PlanKind::BitmapAnd,
                    PlanKind::GallopProbe,
                    PlanKind::HeapMerge,
                    PlanKind::CompressedGallop,
                ] {
                    // The sweep binds every operand's bitmap; nothing else
                    // needs a particular structure.
                    if kind == PlanKind::BitmapAnd && refs.iter().any(|l| l.bitmap().is_none()) {
                        continue;
                    }
                    let plan = MultiwayPlan { kind, ..planned.clone() };
                    let mut out = Vec::new();
                    planner.execute(&plan, &refs, &mut out);
                    prop_assert!(
                        out == expect,
                        "forced {:?} 1:{} edges {}: {:?} vs {:?}", kind, step, edges, out, expect
                    );
                }
            }
        }
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
