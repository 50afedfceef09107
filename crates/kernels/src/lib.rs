//! # fsi-kernels — portable word-parallel intersection primitives
//!
//! Ding & König's speedup comes from packing group signatures into machine
//! words and intersecting them with single `AND` instructions. This crate
//! generalizes that trick into a layer of standalone *kernels* the layers
//! above (`fsi-index`'s `Strategy` dispatch and `Planner`, `fsi-query`'s
//! expression executor) can pick per query:
//!
//! * [`bitmap`] — [`BitmapSet`]: a chunked bitmap (Roaring-style dense
//!   containers: 2¹⁶-value chunks of 1024 64-bit words). Intersection is a
//!   word-by-word `AND` over chunks present in both sets. Wins when sets
//!   are *dense* in their universe: cost is `O(universe/64)` word ops
//!   independent of how many elements the chunks hold. The chunk union
//!   ([`chunk_union_into`]) generalizes the sweep to any mix of
//!   [`UnionPart`]s — bitmaps, word-wise `AND`-`NOT`s of bitmaps, chunked
//!   arrays, sorted lists — and chooses the container per chunk: a chunk
//!   only sparse runs reach is merged as 16-bit lows, any other is
//!   gathered in one bitmap accumulator. It is the engine's only union.
//! * [`array`](mod@array) — [`ArraySet`]: the same 2¹⁶-value chunks holding sorted
//!   `u16` runs of the members' low halves (2 B/posting plus 6 B per
//!   touched chunk) — the representation of every list too sparse for a
//!   bitmap. Intersection merges the runs of each shared chunk
//!   ([`simd::merge16_into_at`]: blocks of 8 or 16 lanes where the `u32`
//!   merge has 4 or 8); membership is a chunk cursor and a gallop inside
//!   the run.
//!
//! Every bitmap result leaves as documents through one walk,
//! [`simd::extract_into_at`]: reserve the popcount, visit only the nonzero
//! words, write each one's members with a fixed-length run of
//! trailing-zeros/clear-lowest-bit stores, and advance by its popcount —
//! the paper's footnote-1 enumeration with no branch on where a word's
//! members end, compiled with `popcnt`/`bmi1` at the SIMD tiers.
//! * [`gallop`] — [`GallopingSet`]: sorted-slice kernels with no auxiliary
//!   structure. A *branchless* two-pointer merge (cursor advances computed
//!   arithmetically, no unpredictable branches) for balanced sizes, and a
//!   galloping (exponential-search) probe of the smaller list into the
//!   larger for skewed `n₁/n₂` — the Hwang–Lin/SvS regime.
//! * [`boolean`] — the one membership pass ([`retain_members`]) that every
//!   intersection probe and every **difference** runs — a bit test per
//!   candidate against a bitmap, a chunk cursor and a gallop through
//!   chunked arrays, one galloping cursor through a sorted list; the union
//!   is the chunk union above.
//! * [`multiway`] — true k-way kernels ([`gallop_probe_into`],
//!   [`heap_merge_into`], the cursor-based [`compressed_probe_into`]; the
//!   k-way bitmap `AND` is [`BitmapSet`]'s): the smallest set drives probes
//!   into all the others at once, with **no materialized intermediate
//!   results** — the paper's k-set framing, which a pairwise fold
//!   ([`pairwise_fold_into`], their benchmark baseline) forfeits.
//!
//! The two prepared forms implement the `fsi-core` index traits
//! ([`SetIndex`](fsi_core::SetIndex) /
//! [`PairIntersect`](fsi_core::PairIntersect) /
//! [`KIntersect`](fsi_core::KIntersect)), so they slot into `fsi-index`'s
//! strategy lineup (`Strategy::{Bitmap, Galloping}`) and are
//! differential-tested byte-identical to the scalar executor.
//!
//! ## When each kernel runs
//!
//! Serving runs `fsi_index::Planner`'s choice over *prepared* lists — the
//! one k-way selector: it prices the bitmap sweep, the membership probe
//! (bit tests through [`BitmapSet::probe`], a galloping cursor through the
//! chunked arrays elsewhere — both [`retain_members`]) and, for balanced
//! sizes, the 16-bit merge of the two smallest lists with its survivors
//! probed through the rest, and picks the minimum — see the `fsi_index::planner`
//! module doc for the authoritative cost table.
//!
//! The slice-level pair kernels ([`kernel`]) are plain functions the
//! harnesses bench and fold ([`pairwise_fold_into`]); no serving path calls
//! them. [`auto_pair_into`] picks among them per call by
//! [`KernelChoice::select`], from the operand sizes and the universe span:
//!
//! 1. an empty operand short-circuits to [`scalar_merge_into`] (nothing to
//!    do);
//! 2. skew (`max nᵢ / min nᵢ` ≥ [`GALLOP_RATIO`]) → [`galloping_into`]:
//!    `O(n_min · log(n_max/n_min))`;
//! 3. dense operands (`n_min / universe` ≥ [`BITMAP_MIN_DENSITY`]) → the
//!    chunked bitmaps built on the fly and `AND`ed: the
//!    `AND`-per-64-elements regime;
//! 4. otherwise → the SIMD merge ([`simd::merge_into`]; balanced, sparse:
//!    the block compare-and-compact merge on the flat lists alone, no
//!    auxiliary structure — the `Merge` row of `BENCH_simd.json`).
//!
//! [`BITMAP_MIN_DENSITY`] belongs to that slice-level rule only: it builds
//! its bitmaps on the fly and needs a floor to decide whether that pays.
//! Which *prepared* lists carry a bitmap is the planner's build rule — at
//! least one member per bitmap word of the chunks the list touches — and
//! involves no density constant.
//!
//! `Strategy::{Bitmap, Galloping}` pin one kernel for every
//! query the way every other fixed strategy does; the planner makes the
//! choice online, as Section 3.4 of Ding & König envisions.
//!
//! ## SIMD acceleration
//!
//! Underneath all of the above sits [`simd`]: explicit SSE4.1/AVX2
//! `std::arch` paths with `is_x86_feature_detected!` runtime dispatch and
//! a portable scalar fallback. The balanced merge, the bitmap chunk
//! sweeps, the bitmap extraction and the block decode all route through
//! it, so every kernel
//! and strategy above is transparently vectorized where the hardware
//! allows. The `force-scalar` cargo feature compiles the `std::arch` paths
//! out; the `FSI_SIMD` environment variable and
//! [`simd::with_level`] clamp the dispatched [`SimdLevel`] at runtime so
//! the scalar twins stay testable on the same machine — see `docs/simd.md`
//! for the dispatch rules and the `BENCH_simd.json` schema.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod array;
pub mod bitmap;
pub mod boolean;
pub mod gallop;
pub mod kernel;
pub mod multiway;
pub mod simd;

pub use array::{ArrayProbe, ArraySet, ChunkWalk};
pub use bitmap::WORDS_PER_CHUNK;
pub use bitmap::{chunk_union_into, BitmapProbe, BitmapSet, UnionPart};
pub use boolean::{retain_members, Member};
pub use gallop::{branchless_merge_into, galloping_into, GallopingSet, GALLOP_RATIO};
pub use kernel::{auto_pair_into, scalar_merge_into, KernelChoice, BITMAP_MIN_DENSITY};
pub use multiway::{
    compressed_probe_into, gallop_probe_into, heap_merge_into, pairwise_fold_into, SkipCursor,
    SliceCursor,
};
pub use simd::SimdLevel;
