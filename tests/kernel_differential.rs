//! Differential correctness of the `fsi-kernels` layer: every kernel —
//! slice-level and as a `Strategy` — must be byte-identical to the scalar
//! `Executor` on synthetic and Zipf workloads.

use fast_set_intersection::index::{Corpus, CorpusConfig, SearchEngine, Strategy};
use fast_set_intersection::{reference_intersection, HashContext, SortedSet};
use fsi_kernels::{
    AutoKernel, BitmapKernel, BranchlessMerge, Galloping, Kernel, ScalarMerge, SimdMerge,
};
use fsi_workloads::{generate_stream, QueryStreamConfig, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const KERNEL_STRATEGIES: [Strategy; 2] = [Strategy::Bitmap, Strategy::Galloping];

fn slice_kernels() -> Vec<Box<dyn Kernel>> {
    vec![
        Box::new(ScalarMerge),
        Box::new(BranchlessMerge),
        Box::new(Galloping),
        Box::new(BitmapKernel),
        Box::new(SimdMerge),
        Box::new(AutoKernel),
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
            for kernel in slice_kernels() {
                let mut out = Vec::new();
                kernel.intersect_k(&slices, &mut out);
                assert_eq!(out, expect, "kernel {} trial {trial} k={k}", kernel.name());
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
