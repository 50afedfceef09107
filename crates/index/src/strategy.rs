//! A uniform, dynamic interface over every intersection algorithm in the
//! repository — the glue that lets the query engine and the benchmark
//! harness swap algorithms per query, as Section 3.4 envisions ("we can make
//! the choice between algorithms online").

use fsi_baselines::{
    AdaptiveIndex, BaezaYatesIndex, BppIndex, HashSetIndex, LookupIndex, MergeIndex, SkipListIndex,
    SmallAdaptiveIndex, SvsIndex, TreapIndex,
};
use fsi_compress::{
    BlockCodec, BlockPostings, CompressedLookup, CompressedPostings, CompressedRgsIndex, EliasCode,
    GroupCoding,
};
use fsi_core::elem::{Elem, SortedSet};
use fsi_core::hash::HashContext;
use fsi_core::traits::{KIntersect, PairIntersect, SetIndex};
use fsi_core::{
    hashbin, HashBinIndex, IntGroupIndex, IntGroupOptIndex, MultiResIndex, RanGroupIndex,
    RanGroupScanIndex,
};
use fsi_kernels::{BitmapSet, GallopingSet};

/// Every algorithm the harness can run, identified the way the paper's
/// figures label them.
///
/// `Hash` lets strategies key caches and maps (the serving layer's result
/// cache is keyed by `(terms, strategy)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Linear merge of inverted lists.
    Merge,
    /// Skip-list seeking.
    SkipList,
    /// Hash-table probing.
    Hash,
    /// Bille–Pagh–Pagh.
    Bpp,
    /// Sanders–Transier two-level lookup.
    Lookup,
    /// Small-vs-small with galloping.
    Svs,
    /// Demaine–López-Ortiz–Munro adaptive.
    Adaptive,
    /// Baeza-Yates divide and conquer.
    BaezaYates,
    /// Barbay et al. SmallAdaptive.
    SmallAdaptive,
    /// Blelloch & Reid-Miller treaps (related work, §2).
    Treap,
    /// Paper §3.1: fixed-width partitions.
    IntGroup,
    /// Paper §3.1 + Appendix A.1.1: all widths at once, optimal pick per
    /// query (Theorem 3.4).
    IntGroupOpt,
    /// Paper §3.2: randomized partitions (Algorithm 4).
    RanGroup,
    /// Paper §3.3: Algorithm 5 with `m` hash images.
    RanGroupScan {
        /// Number of hash images.
        m: usize,
    },
    /// Paper §3.4: HashBin.
    HashBin,
    /// Paper §3.4: online choice between RanGroup and HashBin.
    Auto,
    /// `fsi-kernels`: chunked bitmap (Roaring-style dense containers),
    /// word-parallel `AND`.
    Bitmap,
    /// `fsi-kernels`: branchless two-pointer merge / galloping probe,
    /// chosen per query by size ratio.
    Galloping,
    /// γ/δ-compressed Merge.
    MergeCompressed(EliasCode),
    /// γ/δ-compressed Lookup.
    LookupCompressed(EliasCode),
    /// Compressed RanGroupScan (γ/δ/Lowbits), `m = 1`.
    RgsCompressed(GroupCoding),
    /// Skip-augmented block postings intersected in the compressed domain:
    /// cursors gallop across the skip table and decode at most the blocks
    /// they land in.
    CompressedGallop(BlockCodec),
}

impl Strategy {
    /// The label used in the paper's figures.
    pub fn name(&self) -> String {
        match self {
            Strategy::Merge => "Merge".into(),
            Strategy::SkipList => "SkipList".into(),
            Strategy::Hash => "Hash".into(),
            Strategy::Bpp => "BPP".into(),
            Strategy::Lookup => "Lookup".into(),
            Strategy::Svs => "SvS".into(),
            Strategy::Adaptive => "Adaptive".into(),
            Strategy::BaezaYates => "BaezaYates".into(),
            Strategy::SmallAdaptive => "SmallAdaptive".into(),
            Strategy::Treap => "Treap".into(),
            Strategy::IntGroup => "IntGroup".into(),
            Strategy::IntGroupOpt => "IntGroupOpt".into(),
            Strategy::RanGroup => "RanGroup".into(),
            Strategy::RanGroupScan { m } => format!("RanGroupScan(m={m})"),
            Strategy::HashBin => "HashBin".into(),
            Strategy::Auto => "Auto".into(),
            Strategy::Bitmap => "Bitmap".into(),
            Strategy::Galloping => "Galloping".into(),
            Strategy::MergeCompressed(c) => format!("Merge_{}", c.label()),
            Strategy::LookupCompressed(c) => format!("Lookup_{}", c.label()),
            Strategy::RgsCompressed(c) => format!("RanGroupScan_{}", c.label()),
            Strategy::CompressedGallop(c) => format!("CompressedGallop_{}", c.label()),
        }
    }

    /// The uncompressed lineup of Section 4's first experiments.
    pub fn uncompressed_lineup() -> Vec<Strategy> {
        vec![
            Strategy::Merge,
            Strategy::SkipList,
            Strategy::Hash,
            Strategy::Bpp,
            Strategy::Lookup,
            Strategy::Svs,
            Strategy::Adaptive,
            Strategy::BaezaYates,
            Strategy::SmallAdaptive,
            Strategy::IntGroup,
            Strategy::RanGroup,
            Strategy::RanGroupScan { m: 4 },
            Strategy::HashBin,
        ]
    }

    /// The compressed lineup of Figure 8.
    pub fn compressed_lineup() -> Vec<Strategy> {
        vec![
            Strategy::MergeCompressed(EliasCode::Delta),
            Strategy::LookupCompressed(EliasCode::Delta),
            Strategy::RgsCompressed(GroupCoding::Elias(EliasCode::Delta)),
            Strategy::RgsCompressed(GroupCoding::Lowbits),
        ]
    }

    /// Every strategy variant the repository implements — the union of the
    /// paper lineups plus the extras outside any figure. This is the single
    /// list "every strategy" test suites iterate, so a new variant added
    /// here is picked up by all of them at once.
    pub fn full_lineup() -> Vec<Strategy> {
        let mut v = Self::uncompressed_lineup();
        v.push(Strategy::RanGroupScan { m: 1 });
        v.push(Strategy::Auto);
        v.push(Strategy::IntGroupOpt);
        v.push(Strategy::Treap);
        v.push(Strategy::Bitmap);
        v.push(Strategy::Galloping);
        v.extend(Self::compressed_lineup());
        v.push(Strategy::MergeCompressed(EliasCode::Gamma));
        v.push(Strategy::LookupCompressed(EliasCode::Gamma));
        v.push(Strategy::RgsCompressed(GroupCoding::Elias(
            EliasCode::Gamma,
        )));
        v.extend(BlockCodec::ALL.map(Strategy::CompressedGallop));
        v
    }

    /// Preprocesses one set for this strategy.
    pub fn prepare(&self, ctx: &HashContext, set: &SortedSet) -> PreparedList {
        match *self {
            Strategy::Merge => PreparedList::Merge(MergeIndex::build(set)),
            Strategy::SkipList => PreparedList::SkipList(SkipListIndex::build(set)),
            Strategy::Hash => PreparedList::Hash(HashSetIndex::build(set)),
            Strategy::Bpp => PreparedList::Bpp(BppIndex::build(ctx, set)),
            Strategy::Lookup => PreparedList::Lookup(LookupIndex::build(set)),
            Strategy::Svs => PreparedList::Svs(SvsIndex::build(set)),
            Strategy::Adaptive => PreparedList::Adaptive(AdaptiveIndex::build(set)),
            Strategy::BaezaYates => PreparedList::BaezaYates(BaezaYatesIndex::build(set)),
            Strategy::SmallAdaptive => PreparedList::SmallAdaptive(SmallAdaptiveIndex::build(set)),
            Strategy::Treap => PreparedList::Treap(TreapIndex::build(set)),
            Strategy::IntGroup => PreparedList::IntGroup(IntGroupIndex::build(ctx, set)),
            Strategy::IntGroupOpt => PreparedList::IntGroupOpt(IntGroupOptIndex::build(ctx, set)),
            Strategy::RanGroup => PreparedList::RanGroup(RanGroupIndex::build(ctx, set)),
            Strategy::RanGroupScan { m } => {
                PreparedList::RanGroupScan(RanGroupScanIndex::with_m(ctx, set, m))
            }
            Strategy::HashBin => PreparedList::HashBin(HashBinIndex::build(ctx, set)),
            Strategy::Auto => PreparedList::Auto(MultiResIndex::build(ctx, set)),
            Strategy::Bitmap => PreparedList::Bitmap(BitmapSet::build(set)),
            Strategy::Galloping => PreparedList::Galloping(GallopingSet::build(set)),
            Strategy::MergeCompressed(c) => {
                PreparedList::MergeCompressed(CompressedPostings::build(c, set))
            }
            Strategy::LookupCompressed(c) => {
                PreparedList::LookupCompressed(CompressedLookup::build(c, set))
            }
            Strategy::RgsCompressed(c) => {
                PreparedList::RgsCompressed(CompressedRgsIndex::build(ctx, set, c))
            }
            Strategy::CompressedGallop(c) => {
                PreparedList::CompressedGallop(BlockPostings::from_slice(c, set.as_slice()))
            }
        }
    }
}

/// A preprocessed posting list under some [`Strategy`].
#[derive(Debug, Clone)]
#[allow(missing_docs)]
pub enum PreparedList {
    Merge(MergeIndex),
    SkipList(SkipListIndex),
    Hash(HashSetIndex),
    Bpp(BppIndex),
    Lookup(LookupIndex),
    Svs(SvsIndex),
    Adaptive(AdaptiveIndex),
    BaezaYates(BaezaYatesIndex),
    SmallAdaptive(SmallAdaptiveIndex),
    Treap(TreapIndex),
    IntGroup(IntGroupIndex),
    IntGroupOpt(IntGroupOptIndex),
    RanGroup(RanGroupIndex),
    RanGroupScan(RanGroupScanIndex),
    HashBin(HashBinIndex),
    Auto(MultiResIndex),
    Bitmap(BitmapSet),
    Galloping(GallopingSet),
    MergeCompressed(CompressedPostings),
    LookupCompressed(CompressedLookup),
    RgsCompressed(CompressedRgsIndex),
    CompressedGallop(BlockPostings),
}

macro_rules! on_prepared {
    ($self:expr, $ix:ident => $body:expr) => {
        match $self {
            PreparedList::Merge($ix) => $body,
            PreparedList::SkipList($ix) => $body,
            PreparedList::Hash($ix) => $body,
            PreparedList::Bpp($ix) => $body,
            PreparedList::Lookup($ix) => $body,
            PreparedList::Svs($ix) => $body,
            PreparedList::Adaptive($ix) => $body,
            PreparedList::BaezaYates($ix) => $body,
            PreparedList::SmallAdaptive($ix) => $body,
            PreparedList::Treap($ix) => $body,
            PreparedList::IntGroup($ix) => $body,
            PreparedList::IntGroupOpt($ix) => $body,
            PreparedList::RanGroup($ix) => $body,
            PreparedList::RanGroupScan($ix) => $body,
            PreparedList::HashBin($ix) => $body,
            PreparedList::Auto($ix) => $body,
            PreparedList::Bitmap($ix) => $body,
            PreparedList::Galloping($ix) => $body,
            PreparedList::MergeCompressed($ix) => $body,
            PreparedList::LookupCompressed($ix) => $body,
            PreparedList::RgsCompressed($ix) => $body,
            PreparedList::CompressedGallop($ix) => $body,
        }
    };
}

impl PreparedList {
    /// Number of elements of the underlying set.
    pub fn n(&self) -> usize {
        on_prepared!(self, ix => ix.n())
    }

    /// Heap footprint of the structure.
    pub fn size_in_bytes(&self) -> usize {
        on_prepared!(self, ix => ix.size_in_bytes())
    }
}

macro_rules! dispatch_k {
    ($variant:ident, $lists:expr, $out:expr) => {{
        let typed: Vec<_> = $lists
            .iter()
            .map(|l| match l {
                PreparedList::$variant(ix) => ix,
                // audit:allow(hot_path_panic): prepared lists for one query share one strategy; mixing them is a caller bug worth failing fast
                other => panic!(
                    "mixed strategies in one query: expected {}, got {:?}",
                    stringify!($variant),
                    std::mem::discriminant(*other)
                ),
            })
            .collect();
        KIntersect::intersect_k_into(&typed, $out);
    }};
}

/// Intersects `k ≥ 1` prepared lists (all under the same strategy),
/// appending the result to `out` in the algorithm's natural order.
pub fn intersect_into(lists: &[&PreparedList], out: &mut Vec<Elem>) {
    let Some(first) = lists.first() else {
        return;
    };
    match first {
        PreparedList::Merge(_) => dispatch_k!(Merge, lists, out),
        PreparedList::SkipList(_) => dispatch_k!(SkipList, lists, out),
        PreparedList::Hash(_) => dispatch_k!(Hash, lists, out),
        PreparedList::Bpp(_) => dispatch_k!(Bpp, lists, out),
        PreparedList::Lookup(_) => dispatch_k!(Lookup, lists, out),
        PreparedList::Svs(_) => dispatch_k!(Svs, lists, out),
        PreparedList::Adaptive(_) => dispatch_k!(Adaptive, lists, out),
        PreparedList::BaezaYates(_) => dispatch_k!(BaezaYates, lists, out),
        PreparedList::SmallAdaptive(_) => dispatch_k!(SmallAdaptive, lists, out),
        PreparedList::Treap(_) => dispatch_k!(Treap, lists, out),
        PreparedList::IntGroup(_) => dispatch_k!(IntGroup, lists, out),
        PreparedList::IntGroupOpt(_) => intersect_intgroup_opt(lists, out),
        PreparedList::RanGroup(_) => dispatch_k!(RanGroup, lists, out),
        PreparedList::RanGroupScan(_) => dispatch_k!(RanGroupScan, lists, out),
        PreparedList::HashBin(_) => dispatch_k!(HashBin, lists, out),
        PreparedList::Auto(_) => intersect_auto_k(lists, out),
        PreparedList::Bitmap(_) => dispatch_k!(Bitmap, lists, out),
        PreparedList::Galloping(_) => dispatch_k!(Galloping, lists, out),
        PreparedList::MergeCompressed(_) => dispatch_k!(MergeCompressed, lists, out),
        PreparedList::LookupCompressed(_) => dispatch_k!(LookupCompressed, lists, out),
        PreparedList::RgsCompressed(_) => dispatch_k!(RgsCompressed, lists, out),
        PreparedList::CompressedGallop(_) => dispatch_k!(CompressedGallop, lists, out),
    }
}

/// Convenience wrapper returning an ascending result.
pub fn intersect_sorted(lists: &[&PreparedList]) -> Vec<Elem> {
    let mut out = Vec::new();
    intersect_into(lists, &mut out);
    out.sort_unstable();
    out
}

/// `IntGroupOpt` dispatch: 2-set per Theorem 3.4; k ≥ 3 by pairwise folding
/// plus membership filtering (IntGroup is a two-set design, §3.1).
fn intersect_intgroup_opt(lists: &[&PreparedList], out: &mut Vec<Elem>) {
    let typed: Vec<&IntGroupOptIndex> = lists
        .iter()
        .map(|l| match l {
            PreparedList::IntGroupOpt(ix) => ix,
            // audit:allow(hot_path_panic): prepared lists for one query share one strategy; mixing them is a caller bug worth failing fast
            _ => panic!("mixed strategies in one query"),
        })
        .collect();
    match typed.as_slice() {
        [] => {}
        [a] => out.extend_from_slice(a.as_slice()),
        [a, b] => a.intersect_pair_into(b, out),
        many => {
            let mut order: Vec<&IntGroupOptIndex> = many.to_vec();
            order.sort_by_key(|ix| ix.n());
            let mut acc = Vec::new();
            order[0].intersect_pair_into(order[1], &mut acc);
            for ix in &order[2..] {
                if acc.is_empty() {
                    break;
                }
                acc.sort_unstable();
                let s = SortedSet::from_sorted_unchecked(std::mem::take(&mut acc));
                let mut next = Vec::new();
                // Reuse the pair path against a temporary index of the
                // accumulator (cheap: the accumulator shrinks every round).
                let tmp = IntGroupOptIndex::build_like(ix, &s);
                tmp.intersect_pair_into(ix, &mut next);
                acc = next;
            }
            out.extend(acc);
        }
    }
}

/// `Auto` dispatch: the 2-set case picks between RanGroup (Theorem 3.5) and
/// HashBin by size ratio; `k ≥ 3` uses HashBin's k-set walk (the structures
/// share the `g`-ordered array, so this is free).
fn intersect_auto_k(lists: &[&PreparedList], out: &mut Vec<Elem>) {
    let typed: Vec<&MultiResIndex> = lists
        .iter()
        .map(|l| match l {
            PreparedList::Auto(ix) => ix,
            // audit:allow(hot_path_panic): prepared lists for one query share one strategy; mixing them is a caller bug worth failing fast
            _ => panic!("mixed strategies in one query"),
        })
        .collect();
    match typed.as_slice() {
        [] => {}
        [a] => {
            let g = a.permutation();
            out.extend(a.gvalues().iter().map(|&gv| g.invert(gv)));
        }
        [a, b] => {
            fsi_core::auto::intersect_auto(a, b, out);
        }
        many => {
            let g = *many[0].permutation();
            let slices: Vec<&[u32]> = many.iter().map(|ix| ix.gvalues()).collect();
            hashbin::intersect_gvalues(&g, &slices, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_core::elem::reference_intersection;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn all_strategies() -> Vec<Strategy> {
        Strategy::full_lineup()
    }

    #[test]
    fn every_strategy_agrees_with_reference() {
        let ctx = HashContext::new(404);
        let mut rng = StdRng::seed_from_u64(17);
        for k in 2..=4usize {
            let sets: Vec<SortedSet> = (0..k)
                .map(|i| {
                    let n = rng.gen_range(0..(400 * (i + 1)));
                    (0..n).map(|_| rng.gen_range(0..3000u32)).collect()
                })
                .collect();
            let slices: Vec<&[u32]> = sets.iter().map(|s| s.as_slice()).collect();
            let expect = reference_intersection(&slices);
            for strat in all_strategies() {
                let prepared: Vec<PreparedList> =
                    sets.iter().map(|s| strat.prepare(&ctx, s)).collect();
                let refs: Vec<&PreparedList> = prepared.iter().collect();
                assert_eq!(
                    intersect_sorted(&refs),
                    expect,
                    "strategy {} on k={k}",
                    strat.name()
                );
            }
        }
    }

    #[test]
    fn names_match_paper_labels() {
        assert_eq!(Strategy::Merge.name(), "Merge");
        assert_eq!(Strategy::RanGroupScan { m: 4 }.name(), "RanGroupScan(m=4)");
        assert_eq!(
            Strategy::RgsCompressed(GroupCoding::Lowbits).name(),
            "RanGroupScan_Lowbits"
        );
        assert_eq!(
            Strategy::MergeCompressed(EliasCode::Delta).name(),
            "Merge_Delta"
        );
        assert_eq!(
            Strategy::CompressedGallop(BlockCodec::Packed).name(),
            "CompressedGallop_Packed"
        );
    }

    #[test]
    fn mixed_strategies_panic() {
        let ctx = HashContext::new(1);
        let s: SortedSet = (0..10).collect();
        let a = Strategy::Merge.prepare(&ctx, &s);
        let b = Strategy::Hash.prepare(&ctx, &s);
        assert!(std::panic::catch_unwind(|| intersect_sorted(&[&a, &b])).is_err());
    }

    #[test]
    fn size_accounting_is_exposed() {
        let ctx = HashContext::new(2);
        let s: SortedSet = (0..10_000u32).collect();
        for strat in all_strategies() {
            let p = strat.prepare(&ctx, &s);
            assert_eq!(p.n(), 10_000);
            assert!(p.size_in_bytes() > 0, "{}", strat.name());
        }
    }
}
