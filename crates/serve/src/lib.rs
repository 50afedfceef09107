//! # fsi-serve — planned, cache-fronted query serving
//!
//! Ding & König frame fast set intersection as the hot inner loop of
//! query serving at scale, and treat multi-core parallelism as orthogonal
//! to the algorithms (Section 2). Every index structure in this repository
//! is immutable and `Send + Sync` after preprocessing, so one [`Server`]
//! answers any number of calling threads at once — this crate spawns none
//! of its own; the worker threads are `fsi-net`'s. The serving layer over
//! [`fsi_index`]:
//!
//! * [`request`] — [`Request`] / [`Response`]: the request-lifetime API.
//!   A request carries its query ([`QueryInput`]: flat term ids, a boolean
//!   expression string, or a pre-compiled [`fsi_query::NormExpr`]) plus
//!   [`QueryOptions`] (deadline, tenant, trace, explain); a response
//!   carries the documents plus per-request metadata (served vs shed,
//!   cache outcome, chosen plan kind, measured latency).
//! * [`server`] — [`Server`]: the assembled stack behind the single
//!   [`Server::execute`] entry point. Every input — term list, query
//!   string, pre-compiled expression — becomes one canonical expression,
//!   then takes one path: validate → cache → one cost-based plan over
//!   the whole index, with malformed or unbounded queries rejected as
//!   [`QueryError`]s and already-expired deadlines shed
//!   ([`Disposition::Shed`]) instead of executed. `execute` is
//!   [`Server::begin`] (everything up to and including the cache probe —
//!   work bounded by the request, not the index) then, on a [`Miss`],
//!   [`Server::finish`] (the kernels); a caller with a thread that must
//!   stay responsive runs the halves on different threads.
//! * [`index`] — [`PreparedIndex`]: every posting list preprocessed once
//!   for every representation the planner can bind, plus the expression
//!   planner queries plan under;
//! * [`cache`] — [`QueryCache`]: a segmented LRU over results keyed by
//!   the canonical expression encoding, with hit/miss/eviction counters —
//!   Zipf-skewed query streams (the realistic case) hit it hard, and flat
//!   conjunctions share the key space with every equivalent boolean
//!   spelling. Keys are derived internally; callers never build a cache
//!   key;
//! * [`config`] / [`stats`] — [`ServeConfig`] (the cache capacity) and
//!   [`ServeStats`] snapshots.
//!
//! The network front door over this API — TCP framing, admission control,
//! deadline-aware load shedding — lives in `fsi-net`, one crate up.
//!
//! ## Correctness contract
//!
//! `Server::execute` returns exactly the bytes the naive set-semantics
//! evaluator (`fsi_query::naive`) returns on the same postings, whether a
//! conjunction arrives as a term list or as an expression — asserted by
//! the differential test suites at the workspace root
//! (`tests/serve_differential.rs`, `tests/query_differential.rs`, and
//! `tests/wire_differential.rs` through a live `fsi-net` front door).
//!
//! ## Quick start
//!
//! ```
//! use fsi_core::HashContext;
//! use fsi_index::{Corpus, CorpusConfig};
//! use fsi_serve::{Request, ServeConfig, Server};
//!
//! let corpus = Corpus::generate(CorpusConfig {
//!     num_docs: 10_000,
//!     num_terms: 32,
//!     ..CorpusConfig::default()
//! });
//! let server = Server::from_corpus(HashContext::new(42), corpus, ServeConfig::default());
//!
//! // One entry point for every query shape and option.
//! let hits = server.execute(&Request::expr("(0 OR 1) AND 9")).expect("valid");
//! println!("{} docs, cache {:?}, {}us", hits.docs.len(), hits.cache,
//!     hits.latency.as_micros());
//!
//! // A flat term list is its AND: same path, same cache entry.
//! let flat = server.execute(&Request::terms(vec![0, 9])).expect("valid");
//! assert_eq!(flat.docs, server.execute(&Request::expr("9 AND 0")).expect("valid").docs);
//! println!("p99 {:.0}us", server.stats().latency.p99_us);
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod config;
pub mod index;
pub mod request;
pub mod server;
pub mod stats;

pub use cache::{CacheStats, InsertOutcome, QueryCache, SegmentCacheStats};
pub use config::ServeConfig;
pub use index::PreparedIndex;
pub use request::{
    CacheOutcome, Disposition, QueryInput, QueryOptions, Request, Response, ShedReason,
};
pub use server::{Begun, Miss, QueryError, Server};
pub use stats::{LatencySummary, ServeStats};
