//! A small in-memory conjunctive query engine — the substrate the paper's
//! motivating applications (enterprise/web search, conjunctive predicates)
//! run on. A [`SearchEngine`] owns the posting lists; an [`Executor`]
//! preprocesses every list under one [`Strategy`] and answers multi-term
//! queries with the corresponding intersection algorithm.

use crate::corpus::Corpus;
use crate::planner::{PlannedExecutor, Planner};
use crate::strategy::{intersect_into, PreparedList, Strategy};
use fsi_core::elem::{Elem, SortedSet};
use fsi_core::hash::HashContext;

/// An in-memory inverted index with pluggable intersection strategies.
#[derive(Debug, Clone)]
pub struct SearchEngine {
    ctx: HashContext,
    postings: Vec<SortedSet>,
}

impl SearchEngine {
    /// Builds the engine over explicit posting lists.
    pub fn from_postings(ctx: HashContext, postings: Vec<SortedSet>) -> Self {
        Self { ctx, postings }
    }

    /// Builds the engine over a synthetic corpus.
    pub fn from_corpus(ctx: HashContext, corpus: Corpus) -> Self {
        Self::from_postings(ctx, corpus.into_postings())
    }

    /// Number of terms.
    pub fn num_terms(&self) -> usize {
        self.postings.len()
    }

    /// The raw posting list of a term.
    pub fn posting(&self, term: usize) -> &SortedSet {
        // audit:allow(hot_path_index): public accessor with a documented term-id contract; a bounds panic is the misuse signal
        &self.postings[term]
    }

    /// The shared hash context.
    pub fn ctx(&self) -> &HashContext {
        &self.ctx
    }

    /// All posting lists, term-indexed.
    pub fn postings(&self) -> &[SortedSet] {
        &self.postings
    }

    /// The largest document ID present in any posting list, if any.
    pub fn max_doc(&self) -> Option<Elem> {
        self.postings.iter().filter_map(|p| p.max()).max()
    }

    /// Preprocesses **all** terms under `strategy` and returns an executor.
    pub fn executor(&self, strategy: Strategy) -> Executor<'_> {
        let prepared = self
            .postings
            .iter()
            .map(|p| strategy.prepare(&self.ctx, p))
            .collect();
        Executor {
            engine: self,
            strategy,
            prepared,
        }
    }

    /// Preprocesses **all** terms for cost-model planner dispatch — the
    /// k-way sibling of [`SearchEngine::executor`]: instead of pinning one
    /// strategy, every query is planned whole ([`crate::MultiwayPlan`])
    /// over all its terms at once.
    pub fn planned_executor(&self, planner: Planner) -> PlannedExecutor {
        PlannedExecutor::build(self, planner)
    }
}

/// A fully preprocessed index under one strategy.
#[derive(Debug)]
pub struct Executor<'a> {
    engine: &'a SearchEngine,
    strategy: Strategy,
    prepared: Vec<PreparedList>,
}

impl Executor<'_> {
    /// The strategy this executor runs.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The engine this executor was built from.
    pub fn engine(&self) -> &SearchEngine {
        self.engine
    }

    /// The prepared list of a term (for harnesses that time raw calls).
    pub fn prepared(&self, term: usize) -> &PreparedList {
        // audit:allow(hot_path_index): public accessor with a documented term-id contract; a bounds panic is the misuse signal
        &self.prepared[term]
    }

    /// Total heap footprint of the preprocessed index.
    pub fn size_in_bytes(&self) -> usize {
        self.prepared.iter().map(|p| p.size_in_bytes()).sum()
    }

    /// Answers the conjunctive query `terms`, ascending document order.
    ///
    /// One term returns its full posting list; zero terms return nothing.
    pub fn query(&self, terms: &[usize]) -> Vec<Elem> {
        let mut out = self.query_unsorted(terms);
        out.sort_unstable();
        out
    }

    /// Answers the query in the algorithm's natural output order (what the
    /// benchmarks time; see `fsi_core::traits` on output order).
    pub fn query_unsorted(&self, terms: &[usize]) -> Vec<Elem> {
        let lists: Vec<&PreparedList> = terms.iter().map(|&t| &self.prepared[t]).collect();
        let mut out = Vec::new();
        intersect_into(&lists, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{Corpus, CorpusConfig};
    use fsi_core::elem::reference_intersection;

    fn engine() -> SearchEngine {
        let corpus = Corpus::generate(CorpusConfig {
            num_docs: 20_000,
            num_terms: 64,
            ..CorpusConfig::default()
        });
        SearchEngine::from_corpus(HashContext::new(11), corpus)
    }

    #[test]
    fn all_executors_agree() {
        let engine = engine();
        let queries: Vec<Vec<usize>> =
            vec![vec![0, 1], vec![3, 10, 40], vec![5], vec![0, 63, 31, 7]];
        let reference = engine.executor(Strategy::Merge);
        for strat in [
            Strategy::Hash,
            Strategy::Lookup,
            Strategy::RanGroup,
            Strategy::RanGroupScan { m: 2 },
            Strategy::HashBin,
            Strategy::Auto,
            Strategy::IntGroup,
        ] {
            let exec = engine.executor(strat);
            for q in &queries {
                assert_eq!(
                    exec.query(q),
                    reference.query(q),
                    "{} on {q:?}",
                    strat.name()
                );
            }
        }
    }

    #[test]
    fn query_matches_reference_intersection() {
        let engine = engine();
        let exec = engine.executor(Strategy::RanGroupScan { m: 4 });
        let terms = [2usize, 8, 20];
        let slices: Vec<&[u32]> = terms
            .iter()
            .map(|&t| engine.posting(t).as_slice())
            .collect();
        assert_eq!(exec.query(&terms), reference_intersection(&slices));
    }

    #[test]
    fn single_and_empty_queries() {
        let engine = engine();
        let exec = engine.executor(Strategy::Merge);
        assert_eq!(exec.query(&[7]), engine.posting(7).as_slice());
        assert!(exec.query(&[]).is_empty());
    }

    #[test]
    fn executor_size_accounting() {
        let engine = engine();
        let merge = engine.executor(Strategy::Merge);
        let rgs = engine.executor(Strategy::RanGroupScan { m: 4 });
        // RanGroupScan trades space for speed: strictly larger than Merge.
        assert!(rgs.size_in_bytes() > merge.size_in_bytes());
    }
}
