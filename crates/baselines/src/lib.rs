//! # fsi-baselines — the competitor algorithms of Section 4
//!
//! Every technique the paper compares against, implemented from scratch over
//! the shared types of [`fsi_core`]:
//!
//! | Paper name | Type | Reference |
//! |---|---|---|
//! | Merge | [`MergeIndex`] | parallel scan of inverted lists |
//! | SkipList | [`SkipListIndex`] | Pugh \[18\] |
//! | Hash | [`HashSetIndex`] | hash-table probing |
//! | BPP | [`BppIndex`] | Bille, Pagh & Pagh \[6\] |
//! | Lookup | [`LookupIndex`] | Sanders & Transier \[19, 21\], `B = 32` |
//! | SvS | [`SvsIndex`] | small-vs-small w/ galloping |
//! | Adaptive | [`AdaptiveIndex`] | Demaine, López-Ortiz & Munro \[12, 13\] |
//! | BaezaYates | [`BaezaYatesIndex`] | Baeza-Yates \[1, 2\] |
//! | SmallAdaptive | [`SmallAdaptiveIndex`] | Barbay et al. \[5\] |
//! | Treap | [`TreapIndex`] | Blelloch & Reid-Miller \[7\] (§2 related work) |
//!
//! All implement [`fsi_core::SetIndex`], [`fsi_core::PairIntersect`] and
//! [`fsi_core::KIntersect`], so harnesses drive them interchangeably with
//! the paper's algorithms.

#![forbid(unsafe_code)]

pub mod adaptive;
pub mod baezayates;
pub mod bpp;
pub mod hashset;
pub mod lookup;
pub mod merge;
pub mod skiplist;
pub mod smalladaptive;
pub mod svs;
pub mod treap;

pub use adaptive::AdaptiveIndex;
pub use baezayates::BaezaYatesIndex;
pub use bpp::BppIndex;
pub use hashset::{HashSetIndex, ProbeTable};
pub use lookup::LookupIndex;
pub use merge::MergeIndex;
pub use skiplist::SkipListIndex;
pub use smalladaptive::SmallAdaptiveIndex;
pub use svs::SvsIndex;
pub use treap::TreapIndex;
