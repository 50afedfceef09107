//! The server's one prepared index: every posting list of a
//! [`fsi_index::SearchEngine`] preprocessed once for every representation
//! the cost-model planner can bind, plus the expression planner queries
//! plan under.
//!
//! Every prepared structure is immutable and `Send + Sync` (the paper
//! treats multi-core parallelism as orthogonal to the algorithms), so one
//! index answers queries from any number of threads concurrently.

use fsi_core::Elem;
use fsi_index::{PlannedExecutor, Planner, ReprBytes, SearchEngine};
use fsi_query::{ExplainMode, ExprPlan, ExprPlanner, NormExpr};

/// A whole index prepared for planned evaluation — what
/// [`crate::Server::engine`] hands out.
#[derive(Debug)]
pub struct PreparedIndex {
    exec: PlannedExecutor,
    planner: ExprPlanner,
    /// Heap footprint of `exec` by representation, summed once at build:
    /// the index is immutable, and every metrics scrape reads this.
    bytes: ReprBytes,
}

impl PreparedIndex {
    /// Prepares every posting list of `engine` for queries planned under
    /// `planner`.
    pub(crate) fn build(engine: &SearchEngine, planner: Planner) -> Self {
        let exec = engine.planned_executor(planner.clone());
        Self {
            bytes: exec.bytes_by_repr(),
            exec,
            planner: ExprPlanner::new(planner),
        }
    }

    /// Number of terms in the index.
    pub fn num_terms(&self) -> usize {
        self.exec.num_terms()
    }

    /// Total heap footprint of the prepared representations.
    pub fn size_in_bytes(&self) -> usize {
        self.bytes.total()
    }

    /// The footprint split by physical representation; the parts sum to
    /// [`PreparedIndex::size_in_bytes`].
    pub fn bytes_by_repr(&self) -> ReprBytes {
        self.bytes
    }

    /// How many lists carry a bitmap as their membership structure (the
    /// other `num_terms() − n` carry a hash table).
    pub fn num_bitmap_lists(&self) -> usize {
        self.exec.num_bitmap_lists()
    }

    /// Evaluates a boolean expression in ascending document order on the
    /// calling thread.
    pub fn query_expr(&self, expr: &NormExpr) -> Vec<Elem> {
        self.eval(expr).0
    }

    /// The one evaluation routine behind [`PreparedIndex::query_expr`] and
    /// [`crate::Server::execute`]: plans `expr` over whole-index
    /// statistics, runs the plan, and returns the ascending result with the
    /// plan that produced it.
    pub(crate) fn eval(&self, expr: &NormExpr) -> (Vec<Elem>, ExprPlan) {
        let mut out = Vec::new();
        let plan = fsi_query::eval_planned_into(&self.exec, &self.planner, expr, &mut out);
        (out, plan)
    }

    /// Renders `EXPLAIN`/`EXPLAIN ANALYZE` for `expr`.
    pub(crate) fn explain(&self, expr: &NormExpr, mode: ExplainMode) -> String {
        fsi_query::explain(&self.exec, &self.planner, expr, mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::flat_to_norm;
    use fsi_core::{HashContext, SortedSet};
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
    fn flat(index: &PreparedIndex, terms: &[usize]) -> Vec<Elem> {
        index.query_expr(&flat_to_norm(terms).expect("non-empty conjunction"))
    }

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn prepared_index_is_send_sync() {
        assert_send_sync::<PreparedIndex>();
    }

    #[test]
    fn max_document_id_is_served() {
        // Regression: document-space arithmetic used to run in u32, so a
        // corpus containing document u32::MAX overflowed `max_doc + 1`.
        let postings = vec![
            SortedSet::from_unsorted(vec![0, 7, u32::MAX - 1, u32::MAX]),
            SortedSet::from_unsorted(vec![7, u32::MAX]),
        ];
        let engine = SearchEngine::from_postings(HashContext::new(8), postings);
        let index = PreparedIndex::build(&engine, Planner::auto());
        assert_eq!(flat(&index, &[0, 1]), vec![7, u32::MAX]);
    }

    /// Block postings left every prepared list and nothing else moved: on
    /// this seeded engine the index weighs what it weighed with them
    /// (758 093 B over five representations) minus each list's packed
    /// block postings, which the fixed strategy still builds.
    #[test]
    fn index_bytes_are_the_parents_minus_the_block_postings() {
        let engine = engine();
        let index = PreparedIndex::build(&engine, Planner::auto());
        let packed = Strategy::full_lineup()
            .into_iter()
            .find(|s| s.name() == "CompressedGallop_Packed")
            .expect("block postings stay in the strategy lineup");
        let blocks: usize = engine
            .postings()
            .iter()
            .map(|p| packed.prepare(engine.ctx(), p).size_in_bytes())
            .sum();
        assert_eq!(blocks, 40_397);
        assert_eq!(index.size_in_bytes(), 758_093 - blocks);
    }

    #[test]
    fn size_is_summed_once_at_build() {
        let engine = engine();
        let index = PreparedIndex::build(&engine, Planner::auto());
        assert_eq!(index.size_in_bytes(), index.exec.size_in_bytes());
        assert!(index.size_in_bytes() > 0);
        assert_eq!(index.num_terms(), engine.num_terms());
    }
}
