//! # fsi-index — in-memory inverted-index substrate
//!
//! The search-engine layer the paper's motivating applications run on:
//!
//! * [`corpus`] — synthetic Zipf corpus (the Wikipedia stand-in);
//! * [`engine`] — [`SearchEngine`] / [`Executor`]: conjunctive queries with a
//!   pluggable intersection strategy;
//! * [`strategy`] — the [`Strategy`] enum unifying all 22 algorithm variants
//!   (paper algorithms, baselines, compressed structures);
//! * [`bag`] — the Section 3 bag-semantics extension;
//! * [`daat`] — group-granular DAAT top-k retrieval (the Section 2
//!   "score-based pruning" combination);
//! * [`planner`] — whole-query k-way planning: a cost model over the entire
//!   term list emits a [`MultiwayPlan`] (kernel + evaluation order), the
//!   robustness pitch of the paper's conclusion generalized beyond §3.4's
//!   two algorithms and beyond pairwise evaluation.

#![forbid(unsafe_code)]

pub mod bag;
pub mod corpus;
pub mod daat;
pub mod engine;
pub mod planner;
pub mod strategy;

pub use bag::BagIndex;
pub use corpus::{Corpus, CorpusConfig};
pub use daat::{top_k, DaatStats, Hit, ScoredIndex};
pub use engine::{Executor, SearchEngine};
pub use planner::{
    Membership, MultiwayPlan, OperandStats, PlanKind, PlannedExecutor, PlannedList, Planner,
    ReprBytes,
};
pub use strategy::{intersect_into, intersect_sorted, PreparedList, Strategy};
