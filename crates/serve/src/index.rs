//! The server's one prepared index: every posting list of a
//! [`fsi_index::SearchEngine`] preprocessed once into the one
//! representation the cost-model planner binds it by, plus the expression
//! planner queries plan under — the one cost table at this process's SIMD
//! tier.
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
    /// Prepares every posting list of `engine` for planned queries.
    pub(crate) fn build(engine: &SearchEngine) -> Self {
        let exec = engine.planned_executor(Planner::auto());
        Self {
            bytes: exec.bytes_by_repr(),
            exec,
            planner: ExprPlanner::auto(),
        }
    }

    /// Number of terms in the index.
    pub fn num_terms(&self) -> usize {
        self.exec.num_terms()
    }

    /// Total heap footprint of the prepared lists.
    pub fn size_in_bytes(&self) -> usize {
        self.bytes.total()
    }

    /// The footprint split by physical representation; the parts sum to
    /// [`PreparedIndex::size_in_bytes`].
    pub fn bytes_by_repr(&self) -> ReprBytes {
        self.bytes
    }

    /// How many lists are bitmaps (the other `num_terms() − n` are chunked
    /// 16-bit arrays).
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
    use fsi_baselines::ProbeTable;
    use fsi_core::{HashContext, SortedSet};
    use fsi_index::{Corpus, CorpusConfig};

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
        let index = PreparedIndex::build(&engine);
        assert_eq!(flat(&index, &[0, 1]), vec![7, u32::MAX]);
    }

    /// The hash tables left every prepared list, then the flat copy each
    /// bitmap list kept beside its bitmap, then the flat lists became
    /// chunked 16-bit arrays, and nothing else moved: on this seeded engine
    /// the index weighs what it weighed with them (400 196 B over three
    /// representations, itself 717 696 B minus the RanGroupScan structures
    /// an earlier change removed) minus the load-≤½ table of each list
    /// without a bitmap, which the fixed `Strategy::Hash` still builds,
    /// minus 4 B per posting of each list with one, and minus what each
    /// array list saves over its 4 B per posting: 2 B per posting, less 6 B
    /// per chunk it touches and 4 B per list.
    #[test]
    fn index_bytes_are_the_parents_minus_the_tables() {
        let engine = engine();
        let index = PreparedIndex::build(&engine);
        let (mut tables, mut copies, mut squeezed) = (0, 0, 0);
        for (t, p) in engine.postings().iter().enumerate() {
            match index.exec.list(t).bitmap() {
                None => {
                    tables += ProbeTable::build(p.as_slice()).size_in_bytes();
                    let chunks = fsi_kernels::BitmapSet::count_chunks(p.as_slice());
                    squeezed += 2 * p.len() - 6 * chunks - 4;
                }
                Some(_) => copies += 4 * p.len(),
            }
        }
        assert_eq!((tables, copies, squeezed), (174_120, 97_844, 30_932));
        assert_eq!(index.size_in_bytes(), 400_196 - tables - copies - squeezed);
    }

    #[test]
    fn size_is_summed_once_at_build() {
        let engine = engine();
        let index = PreparedIndex::build(&engine);
        assert_eq!(index.size_in_bytes(), index.exec.size_in_bytes());
        assert!(index.size_in_bytes() > 0);
        assert_eq!(index.num_terms(), engine.num_terms());
    }
}
