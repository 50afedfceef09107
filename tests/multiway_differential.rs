//! Differential correctness of the true k-way layer: every multiway path —
//! slice kernels, the cost-model planner, and the planner-mode serving
//! stack — must be byte-identical to the scalar pairwise fold.

use fast_set_intersection::index::{
    Corpus, CorpusConfig, MultiwayPlan, PlanKind, PlannedList, Planner, SearchEngine, Strategy,
};
use fast_set_intersection::query::naive::naive_eval;
use fast_set_intersection::serve::{Request, ServeConfig, Server};
use fast_set_intersection::{reference_intersection, HashContext, KIntersect, SortedSet};
use fsi_kernels::{
    gallop_probe_into, heap_merge_into, pairwise_fold_into, scalar_merge_into, BitmapSet,
};
use fsi_workloads::{generate_stream, QueryStreamConfig, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A cache-off server.
fn planned_server(engine: &SearchEngine) -> Server {
    Server::new(engine, ServeConfig { cache_capacity: 0 })
}

fn served(server: &Server, q: &[usize]) -> Vec<u32> {
    let resp = server.execute(&Request::terms(q)).expect("valid");
    resp.docs.to_vec()
}

type KWay = fn(&[&[u32]], &mut Vec<u32>);

/// Every slice-level k-way kernel, by name.
fn multiway_kernels() -> [(&'static str, KWay); 3] {
    [
        ("GallopProbe", gallop_probe_into),
        ("HeapMerge", heap_merge_into),
        ("BitmapAnd", bitmap_and_into),
    ]
}

/// The k-way chunked-bitmap `AND` over slices: build each operand's
/// bitmap, then intersect all `k`.
fn bitmap_and_into(sets: &[&[u32]], out: &mut Vec<u32>) {
    let built: Vec<BitmapSet> = sets
        .iter()
        .map(|s| BitmapSet::from_sorted_slice(s))
        .collect();
    BitmapSet::intersect_k_into(&built.iter().collect::<Vec<_>>(), out);
}

/// The baseline every multiway path must match: sort by length, fold
/// pairwise with the scalar merge, materializing every intermediate.
fn fold_reference(slices: &[&[u32]]) -> Vec<u32> {
    let mut out = Vec::new();
    pairwise_fold_into(scalar_merge_into, slices, &mut out);
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
            for (name, kernel) in multiway_kernels() {
                let mut out = Vec::new();
                kernel(&slices, &mut out);
                assert_eq!(out, expect, "kernel {name} trial {trial} k={k}");
            }
        }
    }
}

/// Every kind a hand-built plan of two or more operands can name
/// (`BitmapAnd` only where every operand carries a bitmap).
const FORCED: [PlanKind; 7] = [
    PlanKind::SimdMerge,
    PlanKind::RanGroupScan,
    PlanKind::HashProbe,
    PlanKind::GallopProbe,
    PlanKind::HeapMerge,
    PlanKind::CompressedGallop,
    PlanKind::BitmapAnd,
];

#[test]
fn planner_matches_pairwise_fold_for_every_forced_kind() {
    let mut rng = StdRng::seed_from_u64(0x715);
    let planner = Planner::default();
    for k in 2..=8usize {
        // Sizes either side of the bitmap rule (1 024 members in the one
        // chunk), so operands mix bitmap-carrying and bitmap-less lists;
        // then the same sets with a duplicated operand, and with an empty
        // one.
        let sets: Vec<SortedSet> = (0..k)
            .map(|_| {
                let n = rng.gen_range(1..2500);
                (0..n).map(|_| rng.gen_range(0..30_000u32)).collect()
            })
            .collect();
        let mut duplicated = sets.clone();
        duplicated[k - 1] = sets[0].clone();
        let mut emptied = sets.clone();
        emptied[k / 2] = SortedSet::new();
        for sets in [sets, duplicated, emptied] {
            let slices: Vec<&[u32]> = sets.iter().map(|s| s.as_slice()).collect();
            let expect = fold_reference(&slices);
            let lists: Vec<PlannedList> = sets.iter().map(PlannedList::build).collect();
            let refs: Vec<&PlannedList> = lists.iter().collect();
            let all_bitmaps = refs.iter().all(|l| l.bitmap().is_some());
            let chosen = planner.plan_for_lists(&refs, 30_000);
            for kind in FORCED {
                if kind == PlanKind::BitmapAnd && !all_bitmaps {
                    continue;
                }
                let plan = MultiwayPlan {
                    kind,
                    ..chosen.clone()
                };
                let mut out = Vec::new();
                planner.execute(&plan, &refs, &mut out);
                assert_eq!(out, expect, "forced {kind:?} k={k}");
            }
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

/// `n` distinct values drawn from `lo..=hi`, seeded.
fn sample(rng: &mut StdRng, n: usize, lo: u32, hi: u32) -> Vec<u32> {
    let mut set = std::collections::BTreeSet::new();
    while set.len() < n {
        set.insert(rng.gen_range(lo..=hi));
    }
    set.into_iter().collect()
}

#[test]
fn mixed_density_operands_match_naive_and_the_merge_executor() {
    // Two populated regions — chunks 0–1 and the two chunks ending at
    // u32::MAX — so lists can be dense where they live yet a sliver of
    // `max + 1`. Terms, by the structure the build rule gives them:
    //   0  exactly 2 chunks × 1 024 members          → bitmap (at the rule)
    //   1  one member fewer                          → arrays only
    //   2  3 000 members of the top two chunks, u32::MAX among them → bitmap
    //   3  sparse in both regions, u32::MAX among them             → arrays only
    //   4, 5, 6  20 k / 40 k / 60 k members of chunks 0–1          → bitmaps
    //   7  the sparse driver: 300 low + 40 high members            → arrays only
    const LOW: u32 = (1 << 17) - 1;
    const HIGH: u32 = u32::MAX - LOW;
    let mut rng = StdRng::seed_from_u64(0x0D15);
    let both = |rng: &mut StdRng, low: usize, high: usize, max: bool| -> SortedSet {
        let mut v = sample(rng, low, 0, LOW);
        v.extend(sample(rng, high, HIGH, u32::MAX - 1));
        if max {
            v.push(u32::MAX);
        }
        v.into_iter().collect()
    };
    let postings: Vec<SortedSet> = vec![
        both(&mut rng, 2048, 0, false),
        both(&mut rng, 2047, 0, false),
        both(&mut rng, 0, 2999, true),
        both(&mut rng, 150, 149, true),
        both(&mut rng, 20_000, 0, false),
        both(&mut rng, 40_000, 0, false),
        both(&mut rng, 60_000, 0, false),
        both(&mut rng, 300, 40, false),
    ];
    let lists: Vec<PlannedList> = postings.iter().map(PlannedList::build).collect();
    let carries_bitmap: Vec<bool> = lists.iter().map(|l| l.bitmap().is_some()).collect();
    assert_eq!(
        carries_bitmap,
        [true, false, true, false, true, true, true, false]
    );
    // Term 2 is under 1/16 of its own `max + 1` by five orders of
    // magnitude: a `max + 1` density floor would have denied it a bitmap.
    assert!((postings[2].len() as f64) < (u32::MAX as f64 + 1.0) / 16.0);

    let engine = SearchEngine::from_postings(HashContext::new(0x0D16), postings);
    let slices: Vec<&[u32]> = (0..engine.num_terms())
        .map(|t| engine.posting(t).as_slice())
        .collect();
    let merge = engine.executor(Strategy::Merge);
    let server = planned_server(&engine);
    let planner = Planner::default();

    // Conjunctions: the sparse driver against 1, 2 and 3 dense operands,
    // pairs straddling the rule, and u32::MAX on either structure.
    let conjunctions: [&[usize]; 12] = [
        &[7, 4],
        &[7, 4, 5],
        &[7, 4, 5, 6],
        &[0, 1],
        &[1, 6],
        &[0, 6],
        &[2, 3],
        &[3, 2, 7],
        &[2, 7],
        &[4, 5, 6],
        &[0, 1, 4, 5],
        &[3, 7],
    ];
    let mut saw_probe_over_bitmap = false;
    for q in conjunctions {
        let expect = merge.query(q);
        assert_eq!(served(&server, q), expect, "served {q:?}");
        let src = q.iter().map(|t| t.to_string()).collect::<Vec<_>>();
        let norm = fast_set_intersection::query::compile(&src.join(" AND ")).expect("compiles");
        let naive: Vec<u32> = naive_eval(&slices, &norm).into_iter().collect();
        assert_eq!(expect, naive, "merge vs naive {q:?}");
        // Every kind the operands admit, forced: the probe must be right
        // on all-bitmap, bitmap-less and mixed operand sets alike.
        let refs: Vec<&PlannedList> = q.iter().map(|&t| &lists[t]).collect();
        let chosen = planner.plan_for_lists(&refs, u64::from(u32::MAX) + 1);
        saw_probe_over_bitmap |= chosen.kind == PlanKind::HashProbe
            && chosen.order[1..]
                .iter()
                .any(|&i| refs[i].bitmap().is_some());
        let all_bitmaps = refs.iter().all(|l| l.bitmap().is_some());
        for kind in FORCED {
            if kind == PlanKind::BitmapAnd && !all_bitmaps {
                continue;
            }
            let plan = MultiwayPlan {
                kind,
                ..chosen.clone()
            };
            let mut out = Vec::new();
            planner.execute(&plan, &refs, &mut out);
            assert_eq!(out, expect, "forced {kind:?} on {q:?}");
        }
    }
    assert!(saw_probe_over_bitmap, "no query planned a bit-test probe");

    // Differences and unions over the same lists: a dense subtrahend (bit
    // test), a bitmap-less subtrahend (gallop), both at once, u32::MAX
    // subtracted from either structure, and the bitmap OR.
    for src in [
        "7 AND NOT 4",
        "7 AND NOT 4 AND NOT 5 AND NOT 6",
        "1 AND NOT 6 AND NOT 0",
        "4 AND 5 AND NOT 6",
        "6 AND NOT 7",
        "2 AND NOT 3",
        "3 AND NOT 2",
        "3 AND NOT 2 AND NOT 7",
        "(0 OR 1) AND NOT 5",
        "(7 AND 4) OR (3 AND NOT 2)",
        "4 OR 5 OR 2",
        "0 OR 1",
    ] {
        let norm = fast_set_intersection::query::compile(src).expect("compiles");
        let naive: Vec<u32> = naive_eval(&slices, &norm).into_iter().collect();
        let resp = server.execute(&Request::expr(src)).expect("valid");
        assert_eq!(resp.docs.to_vec(), naive, "{src}");
    }
}
