//! # fast-set-intersection
//!
//! A from-scratch Rust reproduction of **“Fast Set Intersection in Memory”**
//! (Bolin Ding, Arnd Christian König, PVLDB 4(4), 2011): worst-case-efficient
//! in-memory set intersection via small hashed groups represented as machine
//! words.
//!
//! This facade re-exports the whole workspace:
//!
//! * [`core`] — the paper's algorithms: IntGroup (§3.1), RanGroup
//!   (§3.2), RanGroupScan (§3.3), HashBin (§3.4), the multi-resolution
//!   structure (§3.2.1) and the online algorithm selector (§3.4).
//! * [`baselines`] — the nine competitors of §4 (Merge, SkipList, Hash, BPP,
//!   Lookup, SvS, Adaptive, BaezaYates, SmallAdaptive).
//! * [`compress`] — γ/δ posting-list compression and the Lowbits codec
//!   (§4.1, Appendix B).
//! * [`kernels`] — portable word-parallel intersection primitives: chunked
//!   bitmaps ([`kernels::BitmapSet`]), branchless/galloping/SIMD merges
//!   ([`kernels::GallopingSet`], [`kernels::simd::merge_into`]), pair
//!   kernels as plain functions with runtime selection
//!   ([`kernels::auto_pair_into`]), the one membership pass
//!   ([`kernels::retain_members`]), and true k-way kernels
//!   ([`kernels::multiway`]).
//! * [`index`] — an inverted-index/search substrate with pluggable
//!   intersection strategies, plus the bag-semantics extension.
//! * [`query`] — the boolean expression engine: an `AND`/`OR`/`NOT` query
//!   language ([`query::parse()`]), algebraic rewrites to a canonical form
//!   ([`query::normalize`]), and cost-based expression planning/execution
//!   ([`query::ExprPlanner`]) over the index layer's prepared lists.
//! * [`workloads`] — the evaluation's synthetic and query-log workload
//!   generators, plus Zipf-skewed query streams for the serving layer.
//! * [`serve`] — the query-serving subsystem: one planner-dispatched
//!   prepared index ([`serve::PreparedIndex`]), a segmented LRU result
//!   cache ([`serve::QueryCache`]), and the assembled [`serve::Server`]
//!   behind the single request-lifetime entry point
//!   [`serve::Server::execute`], callable from any number of threads —
//!   the paper's "intersection is the serving bottleneck" framing taken
//!   to a serving stack.
//! * [`net`] — the TCP front door over [`serve`]: a length-prefixed
//!   binary protocol ([`net::protocol`]), a bounded request queue with
//!   adaptive micro-batching, per-tenant token-bucket admission control,
//!   and deadline-aware load shedding ([`net::NetServer`] /
//!   [`net::Client`]).
//!
//! ## Quick start
//!
//! ```
//! use fast_set_intersection::{HashContext, PairIntersect, RanGroupScanIndex, SortedSet};
//!
//! let ctx = HashContext::new(42);
//! let a = RanGroupScanIndex::build(&ctx, &SortedSet::from_unsorted(vec![1, 5, 7, 9]));
//! let b = RanGroupScanIndex::build(&ctx, &SortedSet::from_unsorted(vec![2, 5, 9, 11]));
//! assert_eq!(a.intersect_pair_sorted(&b), vec![5, 9]);
//! ```
//!
//! See `README.md` for the architecture overview and `docs/benchmarks.md`
//! for the measured numbers. The benchmark harness lives in the `fsi-bench`
//! crate (`cargo run --release -p fsi-bench --bin paper -- all`).

#![forbid(unsafe_code)]

pub use fsi_baselines as baselines;
pub use fsi_compress as compress;
pub use fsi_core as core;
pub use fsi_index as index;
pub use fsi_kernels as kernels;
pub use fsi_net as net;
pub use fsi_obs as obs;
pub use fsi_query as query;
pub use fsi_serve as serve;
pub use fsi_workloads as workloads;

pub use fsi_core::{
    choose, filtering_stats, intersect_auto, partition_level, reference_intersection, AutoChoice,
    Elem, FilterStats, HashBinIndex, HashContext, IntGroupIndex, KIntersect, MultiResIndex,
    PairIntersect, Permutation, RanGroupIndex, RanGroupScanIndex, SetIndex, SortedSet,
    UniversalHash, SQRT_WORD_BITS, WORD_BITS,
};
