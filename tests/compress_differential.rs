//! Differential correctness of compressed-domain execution: skip-augmented
//! block postings must round-trip exactly (including hostile block
//! boundaries and maximum-gap deltas), and every compressed-domain
//! intersection route — the pair/k-way kernels and the `Strategy`
//! dispatch, through `SearchEngine::executor` — must be byte-identical to
//! the flat reference.

use fast_set_intersection::index::{SearchEngine, Strategy};
use fast_set_intersection::{reference_intersection, HashContext, SortedSet};
use fsi_compress::{BlockCodec, BlockPostings, BLOCK_LEN};
use fsi_core::{KIntersect, PairIntersect, SetIndex};
use fsi_workloads::Zipf;
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sizes straddling every block-boundary edge: empty, one element, one
/// short block, exactly one block, one block plus one straggler, and the
/// same around two blocks.
const HOSTILE_SIZES: [usize; 8] = [
    0,
    1,
    BLOCK_LEN - 1,
    BLOCK_LEN,
    BLOCK_LEN + 1,
    2 * BLOCK_LEN - 1,
    2 * BLOCK_LEN,
    2 * BLOCK_LEN + 1,
];

/// Exactly `n` distinct sorted values — the sizes above are block-boundary
/// cases, so an accidental duplicate must not silently shift them.
fn exact_set(rng: &mut StdRng, n: usize, universe: u32) -> SortedSet {
    let mut vals: Vec<u32> = Vec::new();
    while vals.len() < n {
        vals.extend((0..n + 16).map(|_| rng.gen_range(0..universe)));
        vals.sort_unstable();
        vals.dedup();
    }
    vals.truncate(n);
    SortedSet::from_sorted_unchecked(vals)
}

#[test]
fn round_trip_on_hostile_block_boundaries() {
    let mut rng = StdRng::seed_from_u64(0xB10C);
    for n in HOSTILE_SIZES {
        for trial in 0..4 {
            let set = exact_set(&mut rng, n, 40_000_000);
            for codec in BlockCodec::ALL {
                let post = BlockPostings::from_slice(codec, set.as_slice());
                assert_eq!(
                    post.decode_all(),
                    set.as_slice(),
                    "codec {} n={n} trial {trial}",
                    codec.label()
                );
            }
        }
    }
}

#[test]
fn round_trip_on_extreme_deltas() {
    // The widest possible gap (0 → u32::MAX needs a 32-bit field), dense
    // runs (gap 1 packs to width 0), and a block-crossing arithmetic
    // sequence wide enough to overflow the AVX2 gather-width cutoff.
    let extremes: Vec<Vec<u32>> = vec![
        vec![0, u32::MAX],
        vec![u32::MAX],
        vec![u32::MAX - 1, u32::MAX],
        (0..=(2 * BLOCK_LEN) as u32).collect(),
        (0..(BLOCK_LEN as u32 + 1))
            .map(|i| i * 33_000_000)
            .collect(),
    ];
    for vals in extremes {
        let set = SortedSet::from_sorted_unchecked(vals);
        for codec in BlockCodec::ALL {
            let post = BlockPostings::from_slice(codec, set.as_slice());
            assert_eq!(post.decode_all(), set.as_slice(), "codec {}", codec.label());
            assert_eq!(
                post.size_in_bytes(),
                BlockPostings::measure(codec, set.as_slice()),
                "measure disagrees with build for {}",
                codec.label()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 24 }))]

    #[test]
    fn round_trip_is_exact_for_every_codec(
        raw in pvec(0u32..2_000_000, 0..400),
        tail_gap in 0u32..u32::MAX,
    ) {
        // A random body plus a controlled final gap, so shrinking explores
        // both block structure and field width.
        let mut set = SortedSet::from_unsorted(raw.clone());
        if let Some(&max) = set.as_slice().last() {
            if u32::MAX - max > tail_gap && tail_gap > 0 {
                let mut v = set.as_slice().to_vec();
                v.push(max + tail_gap);
                set = SortedSet::from_sorted_unchecked(v);
            }
        }
        for codec in BlockCodec::ALL {
            let post = BlockPostings::from_slice(codec, set.as_slice());
            prop_assert_eq!(post.decode_all(), set.as_slice());
            prop_assert_eq!(post.n(), set.len());
        }
    }

    #[test]
    fn compressed_pair_and_kway_match_flat_reference(
        sets_raw in pvec(pvec(0u32..50_000, 0..600), 2..6),
    ) {
        let sets: Vec<SortedSet> = sets_raw.iter().cloned().map(SortedSet::from_unsorted).collect();
        let slices: Vec<&[u32]> = sets.iter().map(|s| s.as_slice()).collect();
        let expect = reference_intersection(&slices);
        for codec in BlockCodec::ALL {
            let posts: Vec<BlockPostings> = sets
                .iter()
                .map(|s| BlockPostings::from_slice(codec, s.as_slice()))
                .collect();
            let refs: Vec<&BlockPostings> = posts.iter().collect();
            prop_assert_eq!(&BlockPostings::intersect_k_sorted(&refs), &expect);
            if let [a, b] = refs.as_slice() {
                prop_assert_eq!(&a.intersect_pair_sorted(b), &expect);
            }
        }
    }
}

/// Zipf-clustered draw (dense head, sparse tail) — the compressible shape.
fn zipf_set(rng: &mut StdRng, n: usize, universe: usize) -> SortedSet {
    let z = Zipf::new(universe, 1.0);
    let mut vals: Vec<u32> = (0..4 * n).map(|_| z.sample(rng) as u32).collect();
    vals.sort_unstable();
    vals.dedup();
    vals.truncate(n);
    SortedSet::from_sorted_unchecked(vals)
}

#[test]
fn compressed_strategies_match_merge_on_zipf_streams() {
    let ctx = HashContext::new(0xC0DE);
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let trials = if cfg!(miri) { 2 } else { 8 };
    let n = if cfg!(miri) { 300 } else { 2_000 };
    for trial in 0..trials {
        let k = 2 + trial % 3;
        let sets: Vec<SortedSet> = (0..k).map(|_| zipf_set(&mut rng, n, 40_000)).collect();
        let slices: Vec<&[u32]> = sets.iter().map(|s| s.as_slice()).collect();
        let expect = reference_intersection(&slices);
        for codec in BlockCodec::ALL {
            let strat = Strategy::CompressedGallop(codec);
            let prepared: Vec<_> = sets.iter().map(|s| strat.prepare(&ctx, s)).collect();
            let refs: Vec<_> = prepared.iter().collect();
            assert_eq!(
                fast_set_intersection::index::intersect_sorted(&refs),
                expect,
                "{} trial {trial} k={k}",
                strat.name()
            );
        }
    }
}

#[test]
fn compressed_serving_matches_merge_executor() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let num_terms = if cfg!(miri) { 6 } else { 16 };
    let n = if cfg!(miri) { 150 } else { 1_200 };
    let postings: Vec<SortedSet> = (0..num_terms)
        .map(|_| zipf_set(&mut rng, n, 20_000))
        .collect();
    let engine = SearchEngine::from_postings(HashContext::new(7), postings);
    let reference = engine.executor(Strategy::Merge);
    let queries: Vec<Vec<usize>> = (0..if cfg!(miri) { 4 } else { 12 })
        .map(|_| {
            let k = rng.gen_range(1..4usize);
            (0..k).map(|_| rng.gen_range(0..num_terms)).collect()
        })
        .collect();
    // Per-codec compressed-domain executors.
    for codec in [BlockCodec::Packed, BlockCodec::Delta] {
        let strategy = Strategy::CompressedGallop(codec);
        let exec = engine.executor(strategy);
        for q in &queries {
            assert_eq!(
                exec.query(q),
                reference.query(q),
                "{} q={q:?}",
                strategy.name()
            );
        }
    }
}
