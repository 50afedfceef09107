//! Differential correctness of the SIMD layer: every vectorized path must
//! be byte-identical to its scalar twin — across remainder-hostile lengths
//! (0, 1, block−1, block, block+1 for each block width a kernel finishes
//! on, 127..=130), unaligned slice offsets,
//! dense/sparse/Zipf value streams, and the full `Strategy` lineup plus
//! the planned executor.
//!
//! Every comparison pins both sides explicitly: the scalar result under
//! `with_level(Scalar)` (or a `*_at(Scalar, ..)` call), the SIMD result
//! under each level `available_levels()` reports. On hardware without
//! AVX2, or under the `force-scalar` feature, the available list
//! degenerates to `[Scalar]` and the suite still passes — scalar versus
//! itself — so the same test runs on every CI matrix leg.

use fast_set_intersection::index::{Corpus, CorpusConfig, SearchEngine, Strategy};
use fast_set_intersection::{reference_intersection, HashContext, KIntersect, SortedSet};
use fsi_index::{MultiwayPlan, PlanKind, PlannedList, Planner};
use fsi_kernels::simd::{self, SimdLevel};
use fsi_kernels::{gallop_probe_into, heap_merge_into, BitmapSet};
use fsi_workloads::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The tiers to pin against scalar (just `[Scalar]` where AVX2 is not
/// available — the suite then checks scalar against itself and passes).
fn simd_levels() -> Vec<SimdLevel> {
    simd::available_levels()
}

/// Remainder-hostile lengths around the block boundaries `bases`: the
/// empty and singleton sets, base−1/base/base+1 for each base, plus the
/// 127..=130 band straddling both 4- and 8-lane multiples.
fn hostile_lengths(bases: &[usize]) -> Vec<usize> {
    let mut v = vec![0, 1];
    for &base in bases {
        v.extend([base - 1, base, base + 1]);
    }
    v.extend(127..=130);
    v.sort_unstable();
    v.dedup();
    v
}

/// Draws a sorted, duplicate-free set of (at most) `n` values in one of
/// three density profiles.
fn draw(rng: &mut StdRng, n: usize, profile: usize) -> SortedSet {
    match profile {
        // Dense: values packed into ~2n slots — long runs of matches.
        0 => {
            let u = (2 * n).max(4) as u32;
            (0..n).map(|_| rng.gen_range(0..u)).collect()
        }
        // Sparse: ~2% density — most blocks have no match at all.
        1 => {
            let u = (50 * n + 10) as u32;
            (0..n).map(|_| rng.gen_range(0..u)).collect()
        }
        // Zipf-clustered: dense head, sparse tail.
        _ => {
            let z = Zipf::new((8 * n + 8).max(16), 1.0);
            (0..n).map(|_| z.sample(rng) as u32).collect()
        }
    }
}

#[test]
fn merge_matches_scalar_on_remainder_hostile_lengths() {
    let mut rng = StdRng::seed_from_u64(0x51D1);
    for level in simd_levels() {
        // The AVX2 merge runs 8-lane blocks, then finishes on 4-lane
        // blocks: straddle both widths, and the tail after one 8-lane
        // block (11/12/13).
        let lanes = level.lanes32().max(4);
        let lengths = hostile_lengths(&[4, lanes, lanes + 4, 2 * lanes]);
        for profile in 0..3 {
            for &na in &lengths {
                for &nb in &lengths {
                    let a = draw(&mut rng, na, profile);
                    let b = draw(&mut rng, nb, profile);
                    let mut scalar = Vec::new();
                    simd::merge_into_at(SimdLevel::Scalar, a.as_slice(), b.as_slice(), &mut scalar);
                    let mut vec = Vec::new();
                    simd::merge_into_at(level, a.as_slice(), b.as_slice(), &mut vec);
                    assert_eq!(
                        vec,
                        scalar,
                        "{} merge na={na} nb={nb} profile={profile}",
                        level.name()
                    );
                    assert_eq!(
                        scalar,
                        reference_intersection(&[a.as_slice(), b.as_slice()]),
                        "scalar twin diverged from reference na={na} nb={nb}"
                    );
                }
            }
        }
    }
}

#[test]
fn merge_matches_scalar_on_unaligned_offsets() {
    // Identical logical inputs presented at every combination of slice
    // offsets 0..4: loads must not depend on pointer alignment.
    let mut rng = StdRng::seed_from_u64(0x51D2);
    let a: SortedSet = (0..500).map(|_| rng.gen_range(0..4000u32)).collect();
    let b: SortedSet = (0..500).map(|_| rng.gen_range(0..4000u32)).collect();
    for level in simd_levels() {
        for off_a in 0..4usize.min(a.len()) {
            for off_b in 0..4usize.min(b.len()) {
                let (sa, sb) = (&a.as_slice()[off_a..], &b.as_slice()[off_b..]);
                let mut scalar = Vec::new();
                simd::merge_into_at(SimdLevel::Scalar, sa, sb, &mut scalar);
                let mut vec = Vec::new();
                simd::merge_into_at(level, sa, sb, &mut vec);
                assert_eq!(vec, scalar, "{} off_a={off_a} off_b={off_b}", level.name());
            }
        }
    }
}

#[test]
fn merge_preserves_existing_output_prefix() {
    // The vectorized store writes into spare capacity beyond len: content
    // already in the buffer must survive, at every level.
    let a: SortedSet = (0..200u32).collect();
    let b: SortedSet = (100..300u32).collect();
    for level in simd_levels() {
        let mut out = vec![7u32, 8, 9];
        simd::merge_into_at(level, a.as_slice(), b.as_slice(), &mut out);
        assert_eq!(&out[..3], &[7, 8, 9], "{}", level.name());
        let expect: Vec<u32> = (100..200).collect();
        assert_eq!(&out[3..], expect.as_slice(), "{}", level.name());
    }
}

#[test]
fn word_and_primitives_match_scalar_on_hostile_word_counts() {
    let mut rng = StdRng::seed_from_u64(0x51D3);
    for level in simd_levels() {
        let lanes = level.lanes64().max(2);
        let lengths = hostile_lengths(&[lanes, 2 * lanes]);
        for &n in &lengths {
            let a: Vec<u64> = (0..n)
                .map(|_| rng.gen::<u64>() & rng.gen::<u64>())
                .collect();
            let b: Vec<u64> = (0..n)
                .map(|_| rng.gen::<u64>() & rng.gen::<u64>())
                .collect();
            // and_in_place
            let mut acc_s = a.clone();
            let zero_s = simd::and_in_place_at(SimdLevel::Scalar, &mut acc_s, &b);
            let mut acc_v = a.clone();
            let zero_v = simd::and_in_place_at(level, &mut acc_v, &b);
            assert_eq!(acc_v, acc_s, "{} and_in_place n={n}", level.name());
            assert_eq!(zero_v, zero_s, "{} all-zero flag n={n}", level.name());
            // or_in_place (the union sweep's word primitive)
            let mut or_s = a.clone();
            simd::or_in_place_at(SimdLevel::Scalar, &mut or_s, &b);
            let mut or_v = a.clone();
            simd::or_in_place_at(level, &mut or_v, &b);
            assert_eq!(or_v, or_s, "{} or_in_place n={n}", level.name());
        }
    }
}

/// Sorted pair intersection of two prepared sets under a pinned dispatch
/// level.
fn pair_at<T: fast_set_intersection::PairIntersect>(level: SimdLevel, a: &T, b: &T) -> Vec<u32> {
    simd::with_level(level, || {
        let mut out = Vec::new();
        a.intersect_pair_into(b, &mut out);
        out.sort_unstable();
        out
    })
}

#[test]
fn prepared_kernels_match_scalar_twins_across_profiles() {
    let mut rng = StdRng::seed_from_u64(0x51D5);
    for profile in 0..3 {
        for (na, nb) in [(0, 900), (1, 900), (700, 900), (3000, 3100), (129, 4000)] {
            let a = draw(&mut rng, na, profile);
            let b = draw(&mut rng, nb, profile);
            let (bm_a, bm_b) = (BitmapSet::build(&a), BitmapSet::build(&b));
            let bm_scalar = pair_at(SimdLevel::Scalar, &bm_a, &bm_b);
            assert_eq!(
                bm_scalar,
                reference_intersection(&[a.as_slice(), b.as_slice()]),
                "scalar bitmap vs reference na={na} nb={nb}"
            );
            for level in simd_levels() {
                assert_eq!(
                    pair_at(level, &bm_a, &bm_b),
                    bm_scalar,
                    "{} BitmapSet na={na} nb={nb} profile={profile}",
                    level.name()
                );
            }
        }
    }
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

#[test]
fn multiway_kernels_match_scalar_twins() {
    let mut rng = StdRng::seed_from_u64(0x51D6);
    let kernels: [(&str, KWay); 3] = [
        ("GallopProbe", gallop_probe_into),
        ("HeapMerge", heap_merge_into),
        ("BitmapAnd", bitmap_and_into),
    ];
    for profile in 0..3 {
        for k in [2usize, 3, 5] {
            let sets: Vec<SortedSet> = (0..k)
                .map(|i| draw(&mut rng, 400 * (i + 1) + 129, profile))
                .collect();
            let slices: Vec<&[u32]> = sets.iter().map(|s| s.as_slice()).collect();
            for (name, kernel) in kernels {
                let scalar = simd::with_level(SimdLevel::Scalar, || {
                    let mut out = Vec::new();
                    kernel(&slices, &mut out);
                    out
                });
                assert_eq!(scalar, reference_intersection(&slices));
                for level in simd_levels() {
                    let vec = simd::with_level(level, || {
                        let mut out = Vec::new();
                        kernel(&slices, &mut out);
                        out
                    });
                    assert_eq!(
                        vec,
                        scalar,
                        "{} {name} k={k} profile={profile}",
                        level.name()
                    );
                }
            }
        }
    }
}

#[test]
fn simd_merge_plan_matches_scalar_at_every_level() {
    // The planned merge-then-probe runs `merge_into` at the dispatched
    // level: its two smallest operands straddle the lane multiples, and the
    // rest mix bitmaps (dense profile) and tables.
    let mut rng = StdRng::seed_from_u64(0x51D8);
    for profile in 0..3 {
        for k in 2..=8usize {
            let sets: Vec<SortedSet> = (0..k)
                .map(|i| draw(&mut rng, [127, 130, 2_000][i.min(2)] + 64 * i, profile))
                .collect();
            let slices: Vec<&[u32]> = sets.iter().map(|s| s.as_slice()).collect();
            let lists: Vec<PlannedList> = sets.iter().map(PlannedList::build).collect();
            let refs: Vec<&PlannedList> = lists.iter().collect();
            let planner = Planner::for_simd(SimdLevel::Avx2);
            let plan = MultiwayPlan {
                kind: PlanKind::SimdMerge,
                ..planner.plan_for_lists(&refs, 0)
            };
            let run = || {
                let mut out = Vec::new();
                planner.execute(&plan, &refs, &mut out);
                out
            };
            let scalar = simd::with_level(SimdLevel::Scalar, run);
            assert_eq!(scalar, reference_intersection(&slices), "k={k}");
            for level in simd_levels() {
                assert_eq!(
                    simd::with_level(level, run),
                    scalar,
                    "{} k={k} profile={profile}",
                    level.name()
                );
            }
        }
    }
}

#[test]
fn every_strategy_matches_its_scalar_dispatch() {
    // The whole index stack: every Strategy's prepared structures are
    // level-independent at build time, so the same executor queried under
    // a scalar clamp and under each SIMD tier must answer identically.
    let corpus = Corpus::generate(CorpusConfig {
        num_docs: 9_000,
        num_terms: 32,
        ..CorpusConfig::default()
    });
    let engine = SearchEngine::from_corpus(HashContext::new(0x51D7), corpus);
    let queries: Vec<Vec<usize>> = vec![
        vec![0, 1],
        vec![1, 2, 3],
        vec![0, 10, 20, 31],
        vec![29, 30, 31],
        vec![7],
        vec![],
        vec![4, 4, 12], // duplicate term
    ];
    for strategy in Strategy::full_lineup() {
        let exec = engine.executor(strategy);
        for q in &queries {
            let scalar = simd::with_level(SimdLevel::Scalar, || exec.query(q));
            for level in simd_levels() {
                let vec = simd::with_level(level, || exec.query(q));
                assert_eq!(
                    vec,
                    scalar,
                    "{} strategy {} q {q:?}",
                    level.name(),
                    strategy.name()
                );
            }
        }
    }
    // The planned executor too — including the SIMD-tuned cost constants:
    // whatever plan each tier's planner picks, answers must agree.
    for planner in [Planner::default(), Planner::auto()] {
        let planned = engine.planned_executor(planner);
        let planner = fsi_query::ExprPlanner::new(planner);
        // The empty conjunction has no expression form.
        for q in queries.iter().filter(|q| !q.is_empty()) {
            let text: Vec<String> = q.iter().map(usize::to_string).collect();
            let expr = fsi_query::compile(&text.join(" AND ")).expect("compiles");
            let run = || fsi_query::eval_planned(&planned, &planner, &expr);
            let scalar = simd::with_level(SimdLevel::Scalar, run);
            for level in simd_levels() {
                let vec = simd::with_level(level, run);
                assert_eq!(vec, scalar, "{} planned q {q:?}", level.name());
            }
        }
    }
}
