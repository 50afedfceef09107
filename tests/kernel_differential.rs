//! Differential correctness of the `fsi-kernels` layer: every kernel —
//! slice-level and as a `Strategy` — must be byte-identical to the scalar
//! `Executor` on synthetic and Zipf workloads.

use fast_set_intersection::index::{Corpus, CorpusConfig, SearchEngine, Strategy};
use fast_set_intersection::PairIntersect;
use fast_set_intersection::{reference_intersection, HashContext, SortedSet};
use fsi_kernels::{
    auto_pair_into, branchless_merge_into, chunk_union_into, galloping_into, pairwise_fold_into,
    retain_members, scalar_merge_into, simd, ArraySet, BitmapSet, Member, UnionPart,
};
use fsi_workloads::{generate_stream, QueryStreamConfig, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const KERNEL_STRATEGIES: [Strategy; 2] = [Strategy::Bitmap, Strategy::Galloping];

type Pair = fn(&[u32], &[u32], &mut Vec<u32>);

/// Every slice-level pair kernel, by name; the bitmap kernel builds both
/// chunked bitmaps on the fly.
fn slice_kernels() -> [(&'static str, Pair); 6] {
    [
        ("scalar_merge_into", scalar_merge_into),
        ("branchless_merge_into", branchless_merge_into),
        ("galloping_into", galloping_into),
        ("bitmap (built on the fly)", |a, b, out| {
            BitmapSet::from_sorted_slice(a)
                .intersect_pair_into(&BitmapSet::from_sorted_slice(b), out)
        }),
        ("simd::merge_into", simd::merge_into),
        ("auto_pair_into", auto_pair_into),
    ]
}

/// A Zipf-clustered set: dense head, sparse tail — the document-frequency
/// shape real posting lists have.
fn zipf_set(rng: &mut StdRng, z: &Zipf, n: usize) -> SortedSet {
    (0..n).map(|_| z.sample(rng) as u32).collect()
}

#[test]
fn slice_kernels_match_reference_on_uniform_and_zipf_sets() {
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let zipf = Zipf::new(50_000, 1.0);
    for trial in 0..12 {
        for k in 2..=4usize {
            let sets: Vec<SortedSet> = (0..k)
                .map(|i| {
                    let n = rng.gen_range(0..1500 * (i + 1));
                    if trial % 2 == 0 {
                        let u = rng.gen_range(1..60_000u32);
                        (0..n).map(|_| rng.gen_range(0..u)).collect()
                    } else {
                        zipf_set(&mut rng, &zipf, n)
                    }
                })
                .collect();
            let slices: Vec<&[u32]> = sets.iter().map(|s| s.as_slice()).collect();
            let expect = reference_intersection(&slices);
            for (name, kernel) in slice_kernels() {
                let mut out = Vec::new();
                pairwise_fold_into(kernel, &slices, &mut out);
                assert_eq!(out, expect, "kernel {name} trial {trial} k={k}");
            }
        }
    }
}

#[test]
fn kernel_strategies_match_scalar_executor() {
    let corpus = Corpus::generate(CorpusConfig {
        num_docs: 12_000,
        num_terms: 40,
        ..CorpusConfig::default()
    });
    let engine = SearchEngine::from_corpus(HashContext::new(2026), corpus);
    let queries: Vec<Vec<usize>> = vec![
        vec![0, 1],
        vec![1, 2, 3],
        vec![0, 10, 20, 39],
        vec![35, 38],
        vec![7],
        vec![],
        vec![4, 4, 12], // duplicate term
    ];
    for strategy in KERNEL_STRATEGIES {
        let reference = engine.executor(Strategy::Merge);
        let fixed = engine.executor(strategy);
        for q in &queries {
            assert_eq!(
                fixed.query(q),
                reference.query(q),
                "{} q {q:?}",
                strategy.name()
            );
        }
    }
}

#[test]
fn kernel_strategies_match_executor_on_zipf_query_stream() {
    // A Zipf-skewed *query stream* over a Zipf corpus: the serving-shaped
    // workload, replayed against each kernel strategy.
    let corpus = Corpus::generate(CorpusConfig {
        num_docs: 9_000,
        num_terms: 64,
        ..CorpusConfig::default()
    });
    let engine = SearchEngine::from_corpus(HashContext::new(404), corpus);
    let stream = generate_stream(&QueryStreamConfig {
        num_queries: 120,
        num_terms: 64,
        ..QueryStreamConfig::default()
    });
    let reference = engine.executor(Strategy::Merge);
    for strategy in KERNEL_STRATEGIES {
        let fixed = engine.executor(strategy);
        for q in &stream {
            assert_eq!(
                fixed.query(q),
                reference.query(q),
                "strategy {} q {q:?}",
                strategy.name()
            );
        }
    }
}

/// One 2¹⁶-value chunk.
const CHUNK: u32 = 1 << 16;

/// Reshapes a random set over five chunks by the bits of `shape` into the
/// edge cases of chunked 16-bit arrays: moved to the top of the id space
/// (chunk `0xFFFF`, values near `u32::MAX`); thinned to one member per
/// chunk; holed with empty chunks (every member of chunks 1 and 3
/// dropped); and given a run of 1, 7, 8, 15, 16 or 17 consecutive values
/// — the merge's block widths and their neighbours — straddling a chunk
/// boundary.
fn chunked_shape(raw: Vec<u32>, shape: u64) -> Vec<u32> {
    let mut set: Vec<u32> = raw;
    if shape & 1 != 0 {
        set.retain(|x| (x / CHUNK).is_multiple_of(2));
    }
    if shape & 2 != 0 {
        let run = [1u32, 7, 8, 15, 16, 17][(shape >> 8) as usize % 6];
        let at = CHUNK * (1 + (shape >> 16) as u32 % 4);
        set.extend(at - run / 2..at - run / 2 + run);
    }
    set.sort_unstable();
    set.dedup();
    if shape & 4 != 0 {
        set.dedup_by_key(|x| *x / CHUNK);
    }
    if shape & 8 != 0 {
        let top = u32::MAX - (5 * CHUNK - 1);
        set = set.into_iter().map(|x| x + top).collect();
    }
    set
}

fn naive_and(a: &[u32], b: &[u32]) -> Vec<u32> {
    a.iter()
        .copied()
        .filter(|x| b.binary_search(x).is_ok())
        .collect()
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

    /// Chunked 16-bit arrays in every role they play, at every tier this
    /// machine runs, against naive evaluation: the merge in both argument
    /// orders, the membership probe keeping members and non-members, the
    /// chunk union's part and `AND NOT` subtrahend, widening, and the
    /// round trip from a `SortedSet`.
    #[test]
    fn chunked_arrays_match_naive_evaluation_in_every_role(
        raw_a in proptest::collection::vec(0u32..5 * CHUNK, 0..700),
        raw_b in proptest::collection::vec(0u32..5 * CHUNK, 0..700),
        shape_a in proptest::prelude::any::<u64>(),
        shape_b in proptest::prelude::any::<u64>(),
    ) {
        let a = chunked_shape(raw_a.clone(), shape_a);
        // The same top-of-space move on both sides, so they can meet.
        let b = chunked_shape(raw_b.clone(), shape_b & !8 | shape_a & 8);
        let (xa, xb) = (ArraySet::from_sorted_slice(&a), ArraySet::from_sorted_slice(&b));
        proptest::prop_assert_eq!(
            &ArraySet::from_sorted_slice(SortedSet::from_unsorted(a.clone()).as_slice()),
            &xa
        );
        let mut widened = vec![7u32];
        xa.extend_into(&mut widened);
        proptest::prop_assert_eq!(&widened[1..], &a[..]);
        let and = naive_and(&a, &b);
        let mut union: Vec<u32> = a.iter().chain(&b).copied().collect();
        union.sort_unstable();
        union.dedup();
        let minus: Vec<u32> = b.iter().copied().filter(|x| a.binary_search(x).is_err()).collect();
        let bitmap_b = BitmapSet::from_sorted_slice(&b);
        for level in simd::available_levels() {
            simd::with_level(level, || -> Result<(), proptest::prelude::TestCaseError> {
                for (x, y) in [(&xa, &xb), (&xb, &xa)] {
                    let mut out = vec![u32::MAX];
                    x.intersect_into_at(level, y, &mut out);
                    proptest::prop_assert!(out[1..] == and[..], "merge at {level:?}: {out:?}");
                }
                for (keep, expect) in [(true, &and), (false, &minus)] {
                    let mut out = [&[9, 3][..], &b].concat();
                    retain_members(&mut out, 2, Member::Array(&xa), keep);
                    proptest::prop_assert!(out[2..] == expect[..], "keep {keep}: {out:?}");
                }
                let mut out = Vec::new();
                chunk_union_into(&[UnionPart::Array(&xa), UnionPart::Array(&xb)], &mut out);
                proptest::prop_assert_eq!(&out, &union);
                let mut out = Vec::new();
                chunk_union_into(&[UnionPart::Bitmap(&bitmap_b), UnionPart::Array(&xa)], &mut out);
                proptest::prop_assert_eq!(&out, &union);
                let mut out = Vec::new();
                chunk_union_into(
                    &[UnionPart::And {
                        pos: vec![&bitmap_b],
                        neg: Vec::new(),
                        neg_arrays: vec![&xa],
                    }],
                    &mut out,
                );
                proptest::prop_assert_eq!(&out, &minus);
                Ok(())
            })?;
        }
    }
}
