//! # fsi-serve — sharded, batched, cache-fronted query serving
//!
//! Ding & König frame fast set intersection as the hot inner loop of
//! query serving at scale, and treat multi-core parallelism as orthogonal
//! to the algorithms (Section 2). Every index structure in this repository
//! is immutable and `Send + Sync` after preprocessing — this crate cashes
//! that orthogonality in as a concurrent serving layer over
//! [`fsi_index`]:
//!
//! * [`request`] — [`Request`] / [`Response`]: the request-lifetime API.
//!   A request carries its query ([`QueryInput`]: flat term ids, a boolean
//!   expression string, or a pre-compiled [`fsi_query::NormExpr`]) plus
//!   [`QueryOptions`] (deadline, tenant, trace, explain, planner
//!   override); a response carries the documents plus per-request
//!   metadata (served vs shed, cache outcome, chosen plan kind, measured
//!   latency).
//! * [`server`] — [`Server`]: the assembled stack behind the single
//!   [`Server::execute`] entry point. Every input — term list, query
//!   string, pre-compiled expression — becomes one canonical expression,
//!   then takes one path: validate → cache → per-shard cost-based plan,
//!   with malformed or unbounded queries rejected as [`QueryError`]s and
//!   already-expired deadlines shed ([`Disposition::Shed`]) instead of
//!   executed. [`Server::execute_batch`] drains a whole batch through the
//!   same path on the worker pool.
//! * [`shard`] — [`ShardedEngine`]: posting lists partitioned into
//!   contiguous document-ID ranges, one planner-dispatched prepared index
//!   per shard; results merge by concatenation, so sorted output is free;
//! * [`pool`] — [`QueryPool`]: scoped-thread batch scheduling with
//!   round-robin dealing and work stealing, reporting per-query latency
//!   order statistics and batch throughput;
//! * [`cache`] — [`QueryCache`]: a segmented LRU over results keyed by
//!   the canonical expression encoding, with hit/miss/eviction counters —
//!   Zipf-skewed query streams (the realistic case) hit it hard, and flat
//!   conjunctions share the key space with every equivalent boolean
//!   spelling. Keys are derived internally; callers never build a cache
//!   key;
//! * [`config`] / [`stats`] — [`ServeConfig`] admission knobs (shards,
//!   workers, cache capacity, the [`fsi_index::Planner`] shards plan
//!   under) and [`ServeStats`] snapshots.
//!
//! The network front door over this API — TCP framing, admission control,
//! deadline-aware load shedding — lives in `fsi-net`, one crate up.
//!
//! ## Correctness contract
//!
//! For every shard count, `Server::execute` returns exactly the bytes the
//! naive set-semantics evaluator (`fsi_query::naive`) returns on the
//! unsharded postings, whether a conjunction arrives as a term list or as
//! an expression — asserted by the differential test suites at the
//! workspace root (`tests/serve_differential.rs`,
//! `tests/query_differential.rs`).
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
//! // Batches ride the worker pool through the same path.
//! let batch: Vec<Request> = (0..64).map(|i| Request::terms(vec![i % 4, 8 + i % 8])).collect();
//! let outcome = server.execute_batch(&batch);
//! assert_eq!(outcome.responses.len(), 64);
//! println!("{:.0} q/s, p99 {:.0}us", outcome.throughput_qps, outcome.latency.p99_us);
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod config;
pub mod pool;
pub mod request;
pub mod server;
pub mod shard;
pub mod stats;

pub use cache::{CacheStats, InsertOutcome, QueryCache, SegmentCacheStats};
pub use config::ServeConfig;
pub use pool::QueryPool;
pub use request::{
    CacheOutcome, Disposition, QueryInput, QueryOptions, Request, Response, ShedReason,
};
pub use server::{BatchResponse, QueryError, Server};
pub use shard::ShardedEngine;
pub use stats::{LatencySummary, ServeStats};
