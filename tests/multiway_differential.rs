//! Differential correctness of the true k-way layer: every multiway path —
//! slice kernels, the cost-model planner, and the planner-mode serving
//! stack — must be byte-identical to the scalar pairwise fold.

use fast_set_intersection::index::{
    Corpus, CorpusConfig, MultiwayPlan, PlanKind, PlannedList, Planner, SearchEngine, Strategy,
};
use fast_set_intersection::serve::{Request, ServeConfig, Server};
use fast_set_intersection::{reference_intersection, HashContext, SortedSet};
use fsi_kernels::{
    pairwise_fold_into, BitmapAnd, GallopProbe, HeapMerge, MultiwayAuto, MultiwayKernel,
    ScalarMerge,
};
use fsi_workloads::{generate_stream, QueryStreamConfig, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A cache-off server planning under the scalar-calibrated default.
fn planned_server(engine: &SearchEngine) -> Server {
    Server::new(
        engine,
        ServeConfig {
            cache_capacity: 0,
            planner: Planner::default(),
            ..ServeConfig::default()
        },
    )
}

fn served(server: &Server, q: &[usize]) -> Vec<u32> {
    let resp = server.execute(&Request::terms(q)).expect("valid");
    resp.docs.to_vec()
}

fn multiway_kernels() -> Vec<Box<dyn MultiwayKernel>> {
    vec![
        Box::new(GallopProbe),
        Box::new(HeapMerge),
        Box::new(BitmapAnd),
        Box::new(MultiwayAuto::default()),
    ]
}

/// The baseline every multiway path must match: sort by length, fold
/// pairwise with the scalar merge, materializing every intermediate.
fn fold_reference(slices: &[&[u32]]) -> Vec<u32> {
    let mut out = Vec::new();
    pairwise_fold_into(&ScalarMerge, slices, &mut out);
    out
}

#[test]
fn multiway_kernels_match_pairwise_fold_on_uniform_and_zipf_sets() {
    let mut rng = StdRng::seed_from_u64(0x14A7);
    let zipf = Zipf::new(50_000, 1.0);
    for trial in 0..10 {
        for k in 2..=8usize {
            let sets: Vec<SortedSet> = (0..k)
                .map(|i| {
                    let n = rng.gen_range(0..1000 * (i + 1));
                    if trial % 2 == 0 {
                        let u = rng.gen_range(1..60_000u32);
                        (0..n).map(|_| rng.gen_range(0..u)).collect()
                    } else {
                        (0..n).map(|_| zipf.sample(&mut rng) as u32).collect()
                    }
                })
                .collect();
            let slices: Vec<&[u32]> = sets.iter().map(|s| s.as_slice()).collect();
            let expect = fold_reference(&slices);
            assert_eq!(expect, reference_intersection(&slices), "fold vs reference");
            for kernel in multiway_kernels() {
                let mut out = Vec::new();
                kernel.intersect(&slices, &mut out);
                assert_eq!(out, expect, "kernel {} trial {trial} k={k}", kernel.name());
            }
        }
    }
}

#[test]
fn planner_matches_pairwise_fold_for_every_forced_kind() {
    let ctx = HashContext::new(0x714);
    let mut rng = StdRng::seed_from_u64(0x715);
    let planner = Planner::default();
    for k in 2..=8usize {
        let sets: Vec<SortedSet> = (0..k)
            .map(|_| {
                let n = rng.gen_range(1..2500);
                (0..n).map(|_| rng.gen_range(0..30_000u32)).collect()
            })
            .collect();
        let slices: Vec<&[u32]> = sets.iter().map(|s| s.as_slice()).collect();
        let expect = fold_reference(&slices);
        let lists: Vec<PlannedList> = sets.iter().map(|s| PlannedList::build(&ctx, s)).collect();
        let refs: Vec<&PlannedList> = lists.iter().collect();
        let chosen = planner.plan_for_lists(&refs);
        for kind in [
            PlanKind::RanGroupScan,
            PlanKind::HashProbe,
            PlanKind::GallopProbe,
            PlanKind::HeapMerge,
        ] {
            let plan = MultiwayPlan {
                kind,
                ..chosen.clone()
            };
            let mut out = Vec::new();
            planner.execute(&plan, &refs, &mut out);
            out.sort_unstable();
            assert_eq!(out, expect, "forced {kind:?} k={k}");
        }
    }
}

#[test]
fn planned_mode_matches_scalar_executor() {
    let corpus = Corpus::generate(CorpusConfig {
        num_docs: 12_000,
        num_terms: 40,
        ..CorpusConfig::default()
    });
    let engine = SearchEngine::from_corpus(HashContext::new(2027), corpus);
    let reference = engine.executor(Strategy::Merge);
    let queries: Vec<Vec<usize>> = vec![
        vec![0, 1],
        vec![1, 2, 3],
        vec![0, 10, 20, 39],
        vec![0, 5, 10, 15, 20, 25, 30, 35], // k = 8
        vec![35, 38],
        vec![7],
        vec![],
        vec![4, 4, 12], // duplicate term
    ];
    let server = planned_server(&engine);
    for q in &queries {
        assert_eq!(served(&server, q), reference.query(q), "planned q {q:?}");
    }
}

#[test]
fn planned_mode_matches_executor_on_zipf_query_stream() {
    // A Zipf-skewed *query stream* over a Zipf corpus: the serving-shaped
    // workload, replayed against the planner.
    let corpus = Corpus::generate(CorpusConfig {
        num_docs: 9_000,
        num_terms: 64,
        ..CorpusConfig::default()
    });
    let engine = SearchEngine::from_corpus(HashContext::new(405), corpus);
    let stream = generate_stream(&QueryStreamConfig {
        num_queries: 120,
        num_terms: 64,
        ..QueryStreamConfig::default()
    });
    let reference = engine.executor(Strategy::Merge);
    let server = planned_server(&engine);
    for q in &stream {
        assert_eq!(served(&server, q), reference.query(q), "planned q {q:?}");
    }
}
