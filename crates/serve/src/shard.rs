//! Document-partitioned sharding over [`fsi_index::SearchEngine`].
//!
//! Posting lists are split into `N` contiguous document-ID ranges; each
//! shard preprocesses its slice of every posting list for the cost-model
//! planner. A query runs independently per shard, and because the ranges
//! are disjoint and ascending, the global result is the plain
//! concatenation of per-shard results — sorted output is preserved with
//! zero merge cost.
//!
//! Every prepared structure is immutable and `Send + Sync` (the paper
//! treats multi-core parallelism as orthogonal to the algorithms; sharding
//! is where this repository cashes that in), so shards can be queried from
//! any number of threads concurrently.

use fsi_core::Elem;
use fsi_index::{PlannedExecutor, Planner, SearchEngine};
use fsi_obs::TraceBuilder;
use fsi_query::{ExplainMode, ExprPlan, ExprPlanner, NormExpr, PlanNode};
use std::borrow::Cow;
use std::ops::Range;

/// The top-level operator label of a plan (what the trace span reports as
/// the chosen `PlanKind`).
fn plan_kind_label(plan: &ExprPlan) -> &'static str {
    match &plan.node {
        PlanNode::Term(_) => "Term",
        PlanNode::And { kind, .. } => match kind {
            fsi_query::AndKind::Multiway(m) => m.kind.name(),
            fsi_query::AndKind::SliceProbe => "SliceProbe",
        },
        PlanNode::Or { kind, .. } => match kind {
            fsi_query::UnionKind::HeapMerge => "HeapMerge",
            fsi_query::UnionKind::BitmapOr => "BitmapOr",
        },
    }
}

/// One document shard: every term prepared for every representation the
/// planner can bind, plus the ID range it covers.
///
/// Ranges are `u64` so the exclusive end can express "past `u32::MAX`"
/// (document ID `u32::MAX` is a legal [`Elem`]).
#[derive(Debug)]
struct Shard {
    exec: PlannedExecutor,
    docs: Range<u64>,
    /// Trace span name (`shard{idx}.exec`) and document-range attribute,
    /// rendered once at build time: traced queries clone them instead of
    /// re-formatting per query.
    span_name: String,
    docs_label: String,
}

impl Shard {
    /// Plans `expr` over shard-local statistics, runs the plan, appends
    /// the ascending result to `out` (shards share one output buffer) and
    /// returns the plan's root operator label. With a trace builder, adds
    /// one span carrying the chosen plan, its estimates, and the observed
    /// result size — the planner-misprediction signal at per-shard
    /// granularity.
    fn eval_into(
        &self,
        planner: &ExprPlanner,
        expr: &NormExpr,
        out: &mut Vec<Elem>,
        tb: Option<&mut TraceBuilder>,
    ) -> &'static str {
        let before = out.len();
        let start = tb.as_ref().map(|tb| tb.start_span());
        let plan = fsi_query::eval_planned_into(&self.exec, planner, expr, out);
        let kind = plan_kind_label(&plan);
        if let (Some(tb), Some(start)) = (tb, start) {
            // The chosen root operator rides along as a cheap static
            // label, and the estimates round to integers; the full plan
            // tree is deliberately NOT rendered here (that is EXPLAIN's
            // job) — a `describe()` per shard per query costs more than
            // the tracing budget allows.
            tb.end_span(start, &self.span_name)
                .attr("docs", &self.docs_label)
                .attr("kind", kind)
                .attr("est_rows", plan.est_rows.round() as u64)
                .attr("est_cost", plan.est_cost.round() as u64)
                .attr("rows", out.len() - before);
        }
        kind
    }
}

/// A search engine partitioned into document shards.
#[derive(Debug)]
pub struct ShardedEngine {
    shards: Vec<Shard>,
    num_terms: usize,
    /// The expression planner every shard plans under, built once here
    /// rather than per shard per query.
    planner: ExprPlanner,
}

impl ShardedEngine {
    /// Partitions `engine` into `num_shards` equal document-ID ranges and
    /// prepares each for queries planned under `planner`.
    pub fn build(engine: &SearchEngine, num_shards: usize, planner: Planner) -> Self {
        let shards = engine
            .doc_ranges(num_shards)
            .into_iter()
            .enumerate()
            .map(|(i, docs)| Shard {
                exec: engine
                    .restricted(docs.clone())
                    .planned_executor(planner.clone()),
                span_name: format!("shard{i}.exec"),
                docs_label: format!("{}..{}", docs.start, docs.end),
                docs,
            })
            .collect();
        Self {
            shards,
            num_terms: engine.num_terms(),
            planner: ExprPlanner::new(planner),
        }
    }

    /// Number of document shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of terms in the underlying index.
    pub fn num_terms(&self) -> usize {
        self.num_terms
    }

    /// The document-ID range shard `i` covers (`u64` because the exclusive
    /// end of the last shard can be `u32::MAX as u64 + 1`).
    pub fn shard_range(&self, i: usize) -> Range<u64> {
        // audit:allow(hot_path_index): public accessor with a documented shard-index contract
        self.shards[i].docs.clone()
    }

    /// Total heap footprint of all prepared shard indexes.
    pub fn size_in_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.exec.size_in_bytes()).sum()
    }

    /// Evaluates a boolean expression in ascending document order, running
    /// shards sequentially on the calling thread.
    ///
    /// Union, intersection, and difference all distribute over restriction
    /// to a document range (`(A ∪ B)|ᵣ = A|ᵣ ∪ B|ᵣ`, likewise `∩`/`∖`), and
    /// shard ranges are disjoint and ascending — so the global result is
    /// the plain concatenation of per-shard results (asserted
    /// shard-count-invariant by `tests/query_differential.rs`).
    pub fn query_expr(&self, expr: &NormExpr) -> Vec<Elem> {
        self.eval(expr, None, None).0
    }

    /// The engine's own expression planner, or one built from a per-request
    /// override.
    fn planner_for(&self, planner: Option<&Planner>) -> Cow<'_, ExprPlanner> {
        planner.map_or(Cow::Borrowed(&self.planner), |p| {
            Cow::Owned(ExprPlanner::new(p.clone()))
        })
    }

    /// The one evaluation routine behind [`ShardedEngine::query_expr`] and
    /// [`crate::Server::execute`]: every shard in turn, optionally planning
    /// under a per-request `planner` override instead of the engine's own
    /// and optionally recording one trace span per shard. Also returns
    /// shard 0's root operator label — shards plan independently; the
    /// first shard's label is the response-metadata representative,
    /// per-shard detail being the trace's job.
    pub(crate) fn eval(
        &self,
        expr: &NormExpr,
        planner: Option<&Planner>,
        mut tb: Option<&mut TraceBuilder>,
    ) -> (Vec<Elem>, Option<&'static str>) {
        let planner = self.planner_for(planner);
        let mut out = Vec::new();
        let mut kind = None;
        for shard in &self.shards {
            // Disjoint ascending ranges: appending preserves order.
            let k = shard.eval_into(&planner, expr, &mut out, tb.as_deref_mut());
            kind.get_or_insert(k);
        }
        (out, kind)
    }

    /// Renders `EXPLAIN`/`EXPLAIN ANALYZE` for every shard, concatenated
    /// with per-shard headers, optionally under a per-request planner.
    pub(crate) fn explain(
        &self,
        expr: &NormExpr,
        mode: ExplainMode,
        planner: Option<&Planner>,
    ) -> String {
        let planner = self.planner_for(planner);
        let mut out = String::new();
        for (idx, shard) in self.shards.iter().enumerate() {
            let section = fsi_query::explain(&shard.exec, &planner, expr, mode);
            out.push_str(&format!(
                "-- shard {idx} [docs {}..{}] --\n{section}",
                shard.docs.start, shard.docs.end
            ));
            if idx + 1 < self.shards.len() {
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::flat_to_norm;
    use fsi_core::HashContext;
    use fsi_index::{Corpus, CorpusConfig, Strategy};

    fn engine() -> SearchEngine {
        let corpus = Corpus::generate(CorpusConfig {
            num_docs: 30_000,
            num_terms: 48,
            ..CorpusConfig::default()
        });
        SearchEngine::from_corpus(HashContext::new(3), corpus)
    }

    /// A non-empty flat conjunction through the one evaluation path.
    fn flat(sharded: &ShardedEngine, terms: &[usize]) -> Vec<Elem> {
        sharded.query_expr(&flat_to_norm(terms).expect("non-empty conjunction"))
    }

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn sharded_engine_is_send_sync() {
        assert_send_sync::<ShardedEngine>();
    }

    #[test]
    fn shard_ranges_tile_the_document_space() {
        let engine = engine();
        let sharded = ShardedEngine::build(&engine, 5, Planner::auto());
        let end = engine.max_doc().unwrap() as u64 + 1;
        let mut expect_start = 0u64;
        for i in 0..sharded.num_shards() {
            let r = sharded.shard_range(i);
            assert_eq!(r.start, expect_start);
            expect_start = r.end;
        }
        assert_eq!(expect_start, end);
    }

    #[test]
    fn max_document_id_is_served() {
        // Regression: boundary arithmetic used to run in u32, so a corpus
        // containing document u32::MAX overflowed (end = max_doc + 1) and
        // every shard came out empty.
        let ctx = HashContext::new(8);
        let postings = vec![
            fsi_core::SortedSet::from_unsorted(vec![0, 7, u32::MAX - 1, u32::MAX]),
            fsi_core::SortedSet::from_unsorted(vec![7, u32::MAX]),
        ];
        let engine = SearchEngine::from_postings(ctx, postings);
        let reference = engine.executor(Strategy::Merge);
        for shards in [1usize, 2, 5] {
            let sharded = ShardedEngine::build(&engine, shards, Planner::auto());
            assert_eq!(flat(&sharded, &[0, 1]), reference.query(&[0, 1]));
            assert_eq!(flat(&sharded, &[0, 1]), vec![7, u32::MAX]);
        }
    }

    #[test]
    fn sharded_matches_unsharded_executor() {
        let engine = engine();
        let reference = engine.executor(Strategy::Merge);
        let queries = [vec![0usize, 1], vec![2, 9, 30], vec![7], vec![4, 4, 12]];
        for shards in [1usize, 2, 3, 7] {
            let sharded = ShardedEngine::build(&engine, shards, Planner::auto());
            for q in &queries {
                assert_eq!(
                    flat(&sharded, q),
                    reference.query(q),
                    "shards={shards} q={q:?}"
                );
            }
        }
    }

    #[test]
    fn planned_mode_matches_fixed_results() {
        let engine = engine();
        let fixed = engine.executor(Strategy::Merge);
        let planned = ShardedEngine::build(&engine, 3, Planner::default());
        for q in [vec![0usize, 1], vec![2, 9, 30], vec![40, 41], vec![6]] {
            assert_eq!(flat(&planned, &q), fixed.query(&q), "{q:?}");
        }
    }

    #[test]
    fn memory_pressured_mode_matches_fixed_results() {
        // A hot bytes_unit pushes plans into the compressed domain
        // (CompressedGallop over block postings); answers must stay
        // byte-identical to the flat reference across shard counts.
        let engine = engine();
        let fixed = engine.executor(Strategy::Merge);
        let pressured = Planner {
            bytes_unit: 100.0,
            ..Planner::auto()
        };
        for shards in [1usize, 2, 3, 7] {
            let sharded = ShardedEngine::build(&engine, shards, pressured.clone());
            for q in [vec![0usize, 1], vec![2, 9, 30], vec![40, 41], vec![6]] {
                assert_eq!(flat(&sharded, &q), fixed.query(&q), "shards={shards} {q:?}");
            }
        }
    }

    #[test]
    fn expression_results_are_shard_count_invariant() {
        let engine = engine();
        let exprs: Vec<NormExpr> = [
            "0 AND 1",
            "0 OR 9 OR 17",
            "2 AND NOT 9",
            "(0 OR 1) AND (2 OR 3) AND NOT 40",
            "30 AND (5 OR NOT 6)",
        ]
        .iter()
        .map(|s| fsi_query::compile(s).expect("compiles"))
        .collect();
        for planner in [Planner::default(), Planner::auto()] {
            let single = ShardedEngine::build(&engine, 1, planner.clone());
            for shards in [2usize, 3, 7] {
                let sharded = ShardedEngine::build(&engine, shards, planner.clone());
                for e in &exprs {
                    assert_eq!(
                        sharded.query_expr(e),
                        single.query_expr(e),
                        "shards={shards} expr={e}"
                    );
                }
            }
        }
    }

    #[test]
    fn expression_conjunctions_match_the_flat_path() {
        // `a AND b` compiled from text must be byte-identical to the flat
        // `[a, b]` term list on the same shards.
        let engine = engine();
        let sharded = ShardedEngine::build(&engine, 3, Planner::default());
        for (src, terms) in [
            ("0 AND 1", vec![0usize, 1]),
            ("9 AND 2 AND 30", vec![2, 9, 30]),
            ("7", vec![7]),
        ] {
            let expr = fsi_query::compile(src).expect("compiles");
            assert_eq!(sharded.query_expr(&expr), flat(&sharded, &terms), "{src}");
        }
    }

    #[test]
    fn more_shards_than_documents_is_fine() {
        let ctx = HashContext::new(9);
        let postings = vec![
            fsi_core::SortedSet::from_unsorted(vec![0, 1, 2]),
            fsi_core::SortedSet::from_unsorted(vec![1, 2]),
        ];
        let engine = SearchEngine::from_postings(ctx, postings);
        let sharded = ShardedEngine::build(&engine, 64, Planner::auto());
        assert_eq!(flat(&sharded, &[0, 1]), vec![1, 2]);
    }

    #[test]
    fn size_accounting_sums_shards() {
        let engine = engine();
        let sharded = ShardedEngine::build(&engine, 4, Planner::auto());
        assert!(sharded.size_in_bytes() > 0);
        assert_eq!(sharded.num_terms(), engine.num_terms());
    }
}
