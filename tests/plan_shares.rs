//! Exact operator counts of the plans of one seeded `bool_cold`-shaped
//! stream over one small seeded corpus, at the scalar cost table
//! (`Planner::default()`, the same on every machine). Plans are
//! deterministic, like allocation counts, so the count of each operator
//! label is pinned exactly: a cost-model change that moves a plan fails
//! here by label, where a timing gate would read it as noise. Re-pin on
//! purpose, and say in the change's notes which labels moved and why.

use fsi_core::HashContext;
use fsi_index::{Corpus, CorpusConfig, Planner, SearchEngine};
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

#[test]
fn a_bool_cold_shaped_stream_plans_to_pinned_operator_counts() {
    const NUM_TERMS: usize = 256;
    let corpus = Corpus::generate(CorpusConfig {
        num_docs: 100_000,
        num_terms: NUM_TERMS,
        seed: 1,
        ..CorpusConfig::default()
    });
    let engine = SearchEngine::from_postings(HashContext::new(1), corpus.into_postings());
    let exec = engine.planned_executor(Planner::default());
    // `bool_cold`'s traffic model, shortened.
    let stream = generate_boolean_stream(&BooleanStreamConfig {
        num_queries: 2048,
        num_terms: NUM_TERMS,
        or_probability: 0.6,
        or_arity: 3,
        not_probability: 0.4,
        seed: 1,
        ..BooleanStreamConfig::default()
    });
    let planner = ExprPlanner::default();
    let mut counts = BTreeMap::new();
    for query in &stream {
        let norm = compile(query).expect("generated queries compile");
        let plan = planner.plan(&norm, &|t| exec.list(t).stats(), exec.universe());
        count_operators(&plan, &mut counts);
    }
    let pinned = BTreeMap::from([
        ("BitmapAnd", 853),
        ("ChunkUnion", 1252),
        ("HashProbe", 1993),
        ("SimdMerge", 1089),
    ]);
    assert_eq!(counts, pinned);
}
