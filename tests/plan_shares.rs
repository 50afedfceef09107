//! Exact operator counts of the plans of seeded `bool_cold`- and
//! `and_cold`-shaped streams over one small seeded corpus, at the scalar,
//! SSE4.1 and AVX2 cost tables (`Planner::for_simd`: a table only prices,
//! so it reads the same on every machine). Plans are deterministic, like
//! allocation counts, so the count of each operator label is pinned
//! exactly: a cost-model change that moves a plan fails here by label,
//! where a timing gate would read it as noise. Re-pin on purpose, and say
//! in the change's notes which labels moved and why.

use fsi_core::HashContext;
use fsi_index::{Corpus, CorpusConfig, Planner, SearchEngine};
use fsi_kernels::SimdLevel;
use fsi_query::{compile, ExprPlan, ExprPlanner, PlanNode};
use fsi_workloads::stream::{generate_boolean_stream, BooleanStreamConfig};
use std::collections::BTreeMap;

/// Adds one to `counts` under the operator label of every `AND` and `OR`
/// node of `plan`.
fn count_operators(plan: &ExprPlan, counts: &mut BTreeMap<&'static str, usize>) {
    let children = match &plan.node {
        PlanNode::Term(_) => return,
        PlanNode::And { pos, neg, .. } => pos.iter().chain(neg).collect::<Vec<_>>(),
        PlanNode::Or { children } => children.iter().collect(),
    };
    *counts.entry(plan.operator()).or_default() += 1;
    for child in children {
        count_operators(child, counts);
    }
}

/// The operator counts of a 2,048-query stream with the given `OR` and
/// `NOT` probabilities (the benchmark's traffic model, shortened), planned
/// at the scalar, SSE4.1 and AVX2 tables in turn.
fn operator_counts(
    or_probability: f64,
    not_probability: f64,
) -> [BTreeMap<&'static str, usize>; 3] {
    const NUM_TERMS: usize = 256;
    let corpus = Corpus::generate(CorpusConfig {
        num_docs: 100_000,
        num_terms: NUM_TERMS,
        seed: 1,
        ..CorpusConfig::default()
    });
    let engine = SearchEngine::from_postings(HashContext::new(1), corpus.into_postings());
    let exec = engine.planned_executor(Planner::default());
    let stream = generate_boolean_stream(&BooleanStreamConfig {
        num_queries: 2048,
        num_terms: NUM_TERMS,
        or_probability,
        or_arity: 3,
        not_probability,
        seed: 1,
        ..BooleanStreamConfig::default()
    });
    [SimdLevel::Scalar, SimdLevel::Sse41, SimdLevel::Avx2].map(|simd| {
        let planner = ExprPlanner::new(Planner::for_simd(simd));
        let mut counts = BTreeMap::new();
        for query in &stream {
            let norm = compile(query).expect("generated queries compile");
            let plan = planner.plan(&norm, &|t| exec.list(t).stats(), exec.universe());
            count_operators(&plan, &mut counts);
        }
        counts
    })
}

#[test]
fn a_bool_cold_shaped_stream_plans_to_pinned_operator_counts() {
    let [scalar, sse41, avx2] = operator_counts(0.6, 0.4);
    let pinned = BTreeMap::from([
        ("BitmapAnd", 853),
        ("ChunkUnion", 1252),
        ("HashProbe", 1993),
        ("SimdMerge", 1089),
    ]);
    assert_eq!(scalar, pinned);
    // The vectorized tiers' cheaper merge takes 180 probes.
    let pinned = BTreeMap::from([
        ("BitmapAnd", 853),
        ("ChunkUnion", 1252),
        ("HashProbe", 1813),
        ("SimdMerge", 1269),
    ]);
    assert_eq!((sse41, avx2), (pinned.clone(), pinned));
}

#[test]
fn an_and_cold_shaped_stream_plans_to_pinned_operator_counts() {
    let [scalar, sse41, avx2] = operator_counts(0.0, 0.0);
    let pinned = BTreeMap::from([("BitmapAnd", 409), ("HashProbe", 1059), ("SimdMerge", 580)]);
    assert_eq!(scalar, pinned);
    let pinned = BTreeMap::from([("BitmapAnd", 409), ("HashProbe", 962), ("SimdMerge", 677)]);
    assert_eq!((sse41, avx2), (pinned.clone(), pinned));
}
