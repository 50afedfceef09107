//! **RanGroupScan** — the simple, practice-oriented algorithm of Section 3.3
//! (Algorithm 5) over the block layout of Section 3.3.1 / Figure 3.
//!
//! Each set is partitioned once by `g_t` with `t = ⌈log2(n/√w)⌉`. A group
//! stores only (a) the word representations of its image under `m`
//! independent hash functions `h_1..h_m` and (b) its elements — no inverted
//! mappings. Online, aligned group tuples are skipped whenever *some* `h_j`'s
//! word-AND is zero ("successful filtering", Lemma A.1/A.3); surviving
//! tuples are intersected by a plain linear merge.
//!
//! Figure 3 lays a group out as `[z | len | h_1(L^z) … h_m(L^z) | elements]`;
//! we store the same fields in parallel arrays (`offsets` doubles as `len`,
//! `z` is implicit in the sequential scan, exactly as the paper notes), which
//! keeps the sequential-scan behaviour while remaining index-addressable.
//!
//! Theorem 3.9: expected `O(max(n, k·n_k)/α(w)^m + m·n/√w + k·r·√w)` time.
//! Theorem 3.10: `O(n·(1 + m/√w))` words of space.

use crate::elem::{Elem, SortedSet};
use crate::hash::{
    partition_level_for_group_size, HashContext, Permutation, UniversalHash, SQRT_WORD_BITS,
};
use crate::traits::{KIntersect, PairIntersect, SetIndex};

/// Default number of hash images (`m`); the paper uses 4 for the main
/// experiments and 2 for the multi-keyword experiment.
pub const DEFAULT_M: usize = 2;

/// Preprocessed set for `RanGroupScan` (Algorithm 5).
#[derive(Debug, Clone)]
pub struct RanGroupScanIndex {
    t: u32,
    m: usize,
    n: usize,
    g: Permutation,
    hs: Vec<UniversalHash>,
    /// Group start offsets; group `z` is `elems[offsets[z]..offsets[z+1]]`.
    offsets: Vec<u32>,
    /// `m` word representations per group, group-major: `words[z*m + j]`.
    words: Vec<u64>,
    /// Original elements, group-major (groups ordered by `g_t`-prefix, as in
    /// Figure 3), **value-sorted within each group** so aligned groups merge
    /// by plain comparison and matches are emitted without inverting `g`.
    elems: Vec<Elem>,
}

impl RanGroupScanIndex {
    /// Preprocesses `set` with `m =` [`DEFAULT_M`] hash images.
    pub fn build(ctx: &HashContext, set: &SortedSet) -> Self {
        Self::with_m(ctx, set, DEFAULT_M)
    }

    /// Preprocesses `set` with an explicit number of hash images `m ≥ 1`.
    pub fn with_m(ctx: &HashContext, set: &SortedSet, m: usize) -> Self {
        let t = partition_level_for_group_size(set.len(), SQRT_WORD_BITS);
        Self::with_m_and_level(ctx, set, m, t)
    }

    /// Fully explicit construction (ablation hook: sweep `t` and `m`).
    pub fn with_m_and_level(ctx: &HashContext, set: &SortedSet, m: usize, t: u32) -> Self {
        assert!(t <= 32, "partition level must be at most 32 bits");
        let m = m.max(1);
        assert!(
            m <= ctx.family().len(),
            "HashContext provides {} hash functions, need m={m}",
            ctx.family().len()
        );
        let g = *ctx.g();
        let hs: Vec<UniversalHash> = ctx.prefix(m).to_vec();
        let n = set.len();
        let num_groups = 1usize << t;
        let mut offsets = vec![0u32; num_groups + 1];
        for x in set.iter() {
            offsets[g.top_bits(x, t) as usize + 1] += 1;
        }
        for z in 0..num_groups {
            offsets[z + 1] += offsets[z];
        }
        // Scatter elements into their groups; the input is value-sorted, so
        // each group ends up value-sorted without a second sort.
        let mut elems = vec![0 as Elem; n];
        let mut cursor: Vec<u32> = offsets[..num_groups].to_vec();
        let mut words = vec![0u64; num_groups * m];
        for x in set.iter() {
            let z = g.top_bits(x, t) as usize;
            elems[cursor[z] as usize] = x;
            cursor[z] += 1;
            for (j, h) in hs.iter().enumerate() {
                words[z * m + j] |= h.bit(x);
            }
        }
        Self {
            t,
            m,
            n,
            g,
            hs,
            offsets,
            words,
            elems,
        }
    }

    /// The partition level `t`.
    pub fn level(&self) -> u32 {
        self.t
    }

    /// Number of groups, `2^t`.
    pub fn num_groups(&self) -> usize {
        1usize << self.t
    }

    /// The shared permutation (needed by the compressed variants).
    pub fn permutation(&self) -> &Permutation {
        &self.g
    }

    /// The `m` hash functions in use.
    pub fn hash_functions(&self) -> &[UniversalHash] {
        &self.hs
    }

    /// Elements of group `z`, ascending by value.
    pub fn group_elems(&self, z: usize) -> &[Elem] {
        &self.elems[self.offsets[z] as usize..self.offsets[z + 1] as usize]
    }

    /// The `m` word representations of group `z`.
    pub fn group_words(&self, z: usize) -> &[u64] {
        &self.words[z * self.m..(z + 1) * self.m]
    }

    /// All elements, group-major (not globally sorted).
    pub fn elems(&self) -> &[Elem] {
        &self.elems
    }

    /// Membership test.
    pub fn contains(&self, x: Elem) -> bool {
        let z = self.g.top_bits(x, self.t) as usize;
        self.group_elems(z).binary_search(&x).is_ok()
    }

    fn assert_compatible(indexes: &[&Self]) {
        if let Some((first, rest)) = indexes.split_first() {
            for ix in rest {
                assert_eq!(
                    first.g, ix.g,
                    "indexes built under different permutations g"
                );
                assert!(
                    first.hs[..first.m.min(ix.m)] == ix.hs[..first.m.min(ix.m)],
                    "indexes built under different hash families"
                );
            }
        }
    }
}

impl SetIndex for RanGroupScanIndex {
    fn n(&self) -> usize {
        self.n
    }

    fn size_in_bytes(&self) -> usize {
        self.offsets.len() * 4 + self.words.len() * 8 + self.elems.len() * 4
    }
}

impl PairIntersect for RanGroupScanIndex {
    fn intersect_pair_into(&self, other: &Self, out: &mut Vec<Elem>) {
        Self::assert_compatible(&[self, other]);
        if self.n == 0 || other.n == 0 {
            return;
        }
        // Iterate the finer partition; the coarser group id is a prefix.
        let (fine, coarse) = if self.t >= other.t {
            (self, other)
        } else {
            (other, self)
        };
        let m = fine.m.min(coarse.m);
        let shift = fine.t - coarse.t;
        'groups: for zf in 0..fine.num_groups() {
            let wf = fine.group_words(zf);
            let wc = coarse.group_words(zf >> shift);
            for j in 0..m {
                if wf[j] & wc[j] == 0 {
                    continue 'groups;
                }
            }
            merge2(fine.group_elems(zf), coarse.group_elems(zf >> shift), |x| {
                out.push(x)
            });
        }
    }
}

impl KIntersect for RanGroupScanIndex {
    fn intersect_k_into(indexes: &[&Self], out: &mut Vec<Elem>) {
        match indexes {
            [] => {}
            [a] => out.extend_from_slice(&a.elems),
            [a, b] => a.intersect_pair_into(b, out),
            _ => {
                Self::assert_compatible(indexes);
                intersect_k_aligned(indexes, out);
            }
        }
    }
}

/// Two-pointer merge of two ascending slices, emitting matches. Branch-light
/// (both cursors advance on equality), as the paper's Merge implementation
/// notes prescribe — this inner loop dominates when intersections are large.
#[inline]
fn merge2(a: &[u32], b: &[u32], mut emit: impl FnMut(u32)) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        i += (x <= y) as usize;
        j += (y <= x) as usize;
        if x == y {
            emit(x);
        }
    }
}

/// Linear k-way merge of ascending slices (`cursors` is scratch).
fn merge_k(slices: &[&[u32]], cursors: &mut [usize], mut emit: impl FnMut(u32)) {
    let k = slices.len();
    cursors[..k].fill(0);
    'candidates: loop {
        if cursors[0] >= slices[0].len() {
            return;
        }
        let cand = slices[0][cursors[0]];
        for i in 1..k {
            let s = slices[i];
            let c = &mut cursors[i];
            while *c < s.len() && s[*c] < cand {
                *c += 1;
            }
            if *c >= s.len() {
                return;
            }
            if s[*c] != cand {
                // Fast-forward the candidate cursor to the blocker.
                let target = s[*c];
                let c0 = &mut cursors[0];
                while *c0 < slices[0].len() && slices[0][*c0] < target {
                    *c0 += 1;
                }
                continue 'candidates;
            }
        }
        emit(cand);
        cursors[0] += 1;
    }
}

/// Algorithm 5 for k ≥ 3 sets: aligned walk with memoized partial per-`h_j`
/// ANDs and subtree skipping.
fn intersect_k_aligned(indexes: &[&RanGroupScanIndex], out: &mut Vec<Elem>) {
    let k = indexes.len();
    let mut order: Vec<&RanGroupScanIndex> = indexes.to_vec();
    order.sort_by_key(|ix| ix.t);
    let levels: Vec<u32> = order.iter().map(|ix| ix.t).collect();
    let tk = *levels.last().expect("k >= 2");
    let m = order.iter().map(|ix| ix.m).min().expect("k >= 2");

    // partial[i*m + j] = AND over sets 0..=i of h_j word representations.
    let mut partial = vec![0u64; k * m];
    let mut slices: Vec<&[u32]> = vec![&[]; k];
    let mut cursors = vec![0usize; k];

    let mut zk: u64 = 0;
    let mut prev_zk: u64 = 0;
    let mut first = true;
    let end: u64 = 1u64 << tk;
    'outer: while zk < end {
        let mut d = 0usize;
        if !first {
            let diff = zk ^ prev_zk;
            let b = 63 - diff.leading_zeros();
            let changed_from = tk.saturating_sub(b + 1);
            d = levels.partition_point(|&ti| ti <= changed_from);
        }
        first = false;
        prev_zk = zk;

        for i in d..k {
            let zi = (zk >> (tk - levels[i])) as usize;
            let w = order[i].group_words(zi);
            let mut alive = false;
            for j in 0..m {
                let pw = w[j]
                    & if i == 0 {
                        u64::MAX
                    } else {
                        partial[(i - 1) * m + j]
                    };
                partial[i * m + j] = pw;
                alive |= pw != 0;
                if pw == 0 {
                    // h_j filtered this whole prefix subtree.
                    let shift = tk - levels[i];
                    zk = ((zi as u64) + 1) << shift;
                    continue 'outer;
                }
            }
            debug_assert!(alive);
            slices[i] = order[i].group_elems(zi);
        }
        merge_k(&slices, &mut cursors, |x| out.push(x));
        zk += 1;
    }
}

/// Counters for the filtering-probability experiment (Figure 9 /
/// Appendix A.5.2).
#[derive(Debug, Clone, Default)]
pub struct FilterStats {
    /// Aligned group tuples where all groups are non-empty and the true
    /// intersection is empty (the conditioning event of Lemma A.1/A.3).
    pub empty_tuples: u64,
    /// Of those, how many are filtered when using only the first `j+1` hash
    /// images (`filtered[j]` = caught by some `h_1..h_{j+1}`).
    pub filtered_by_m: Vec<u64>,
    /// Aligned tuples with a non-empty true intersection.
    pub nonempty_tuples: u64,
    /// Aligned tuples where at least one group was empty (trivially
    /// filtered; excluded from the probability).
    pub trivial_tuples: u64,
}

impl FilterStats {
    /// Measured `Pr[successful filtering]` with `m = j` hash images.
    pub fn probability(&self, m: usize) -> f64 {
        if self.empty_tuples == 0 {
            return 1.0;
        }
        self.filtered_by_m[m - 1] as f64 / self.empty_tuples as f64
    }
}

/// Exhaustive filtering measurement: walks *every* aligned group tuple
/// (no subtree skipping), recording, for tuples whose true intersection is
/// empty, whether each prefix `h_1..h_j` of hash images would have filtered
/// it. All indexes must be built with at least `m_max` images.
pub fn filtering_stats(indexes: &[&RanGroupScanIndex], m_max: usize) -> FilterStats {
    assert!(indexes.len() >= 2, "need at least two sets");
    RanGroupScanIndex::assert_compatible(indexes);
    for ix in indexes {
        assert!(ix.m >= m_max, "index built with m={} < m_max={m_max}", ix.m);
    }
    let mut order: Vec<&RanGroupScanIndex> = indexes.to_vec();
    order.sort_by_key(|ix| ix.t);
    let levels: Vec<u32> = order.iter().map(|ix| ix.t).collect();
    let tk = *levels.last().expect("k >= 2");
    let k = order.len();

    let mut stats = FilterStats {
        filtered_by_m: vec![0; m_max],
        ..FilterStats::default()
    };
    let mut cursors = vec![0usize; k];
    let mut scratch = Vec::new();
    for zk in 0u64..(1u64 << tk) {
        let slices: Vec<&[u32]> = order
            .iter()
            .zip(&levels)
            .map(|(ix, &ti)| ix.group_elems((zk >> (tk - ti)) as usize))
            .collect();
        if slices.iter().any(|s| s.is_empty()) {
            stats.trivial_tuples += 1;
            continue;
        }
        scratch.clear();
        merge_k(&slices, &mut cursors, |gv| scratch.push(gv));
        if !scratch.is_empty() {
            stats.nonempty_tuples += 1;
            continue;
        }
        stats.empty_tuples += 1;
        let mut caught = false;
        for j in 0..m_max {
            if !caught {
                let mut and = u64::MAX;
                for (ix, &ti) in order.iter().zip(&levels) {
                    and &= ix.group_words((zk >> (tk - ti)) as usize)[j];
                }
                caught = and == 0;
            }
            if caught {
                stats.filtered_by_m[j] += 1;
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elem::reference_intersection;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ctx() -> HashContext {
        HashContext::new(555)
    }

    fn sorted2(a: &RanGroupScanIndex, b: &RanGroupScanIndex) -> Vec<u32> {
        let mut out = Vec::new();
        a.intersect_pair_into(b, &mut out);
        out.sort_unstable();
        out
    }

    #[test]
    fn groups_partition_and_are_value_sorted() {
        let ctx = ctx();
        let set: SortedSet = (0..3000u32).map(|x| x * 13).collect();
        let idx = RanGroupScanIndex::build(&ctx, &set);
        for z in 0..idx.num_groups() {
            let grp = idx.group_elems(z);
            assert!(grp.windows(2).all(|w| w[0] < w[1]), "in-group value order");
            for &x in grp {
                assert_eq!(ctx.g().top_bits(x, idx.level()) as usize, z);
            }
        }
        assert_eq!(
            (0..idx.num_groups())
                .map(|z| idx.group_elems(z).len())
                .sum::<usize>(),
            set.len()
        );
        let mut all: Vec<u32> = idx.elems().to_vec();
        all.sort_unstable();
        assert_eq!(all, set.as_slice());
    }

    #[test]
    fn random_pairs_match_reference() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(31);
        for trial in 0..30 {
            let n1 = rng.gen_range(0..700);
            let n2 = rng.gen_range(0..700);
            let universe = rng.gen_range(1..3000u32);
            let l1: SortedSet = (0..n1).map(|_| rng.gen_range(0..universe)).collect();
            let l2: SortedSet = (0..n2).map(|_| rng.gen_range(0..universe)).collect();
            let expect = reference_intersection(&[l1.as_slice(), l2.as_slice()]);
            let a = RanGroupScanIndex::build(&ctx, &l1);
            let b = RanGroupScanIndex::build(&ctx, &l2);
            assert_eq!(sorted2(&a, &b), expect, "trial {trial}");
        }
    }

    #[test]
    fn k_way_matches_reference() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(77);
        for k in 2..=6usize {
            for trial in 0..8 {
                let universe = 2000u32;
                let sets: Vec<SortedSet> = (0..k)
                    .map(|_| {
                        let n = rng.gen_range(0..900);
                        (0..n).map(|_| rng.gen_range(0..universe)).collect()
                    })
                    .collect();
                let idx: Vec<RanGroupScanIndex> = sets
                    .iter()
                    .map(|s| RanGroupScanIndex::build(&ctx, s))
                    .collect();
                let refs: Vec<&RanGroupScanIndex> = idx.iter().collect();
                let got = RanGroupScanIndex::intersect_k_sorted(&refs);
                let slices: Vec<&[u32]> = sets.iter().map(|s| s.as_slice()).collect();
                assert_eq!(got, reference_intersection(&slices), "k={k} trial={trial}");
            }
        }
    }

    #[test]
    fn varying_m_stays_correct() {
        let ctx = HashContext::with_family_size(9, 8);
        let l1: SortedSet = (0..1000u32).filter(|x| x % 2 == 0).collect();
        let l2: SortedSet = (0..1000u32).filter(|x| x % 3 == 0).collect();
        let expect = reference_intersection(&[l1.as_slice(), l2.as_slice()]);
        for m in 1..=8 {
            let a = RanGroupScanIndex::with_m(&ctx, &l1, m);
            let b = RanGroupScanIndex::with_m(&ctx, &l2, m);
            assert_eq!(sorted2(&a, &b), expect, "m={m}");
        }
        // Mixed m is allowed; the common prefix of images is used.
        let a = RanGroupScanIndex::with_m(&ctx, &l1, 1);
        let b = RanGroupScanIndex::with_m(&ctx, &l2, 8);
        assert_eq!(sorted2(&a, &b), expect);
    }

    #[test]
    fn explicit_levels_stay_correct() {
        let ctx = ctx();
        let l1: SortedSet = (0..500u32).filter(|x| x % 2 == 0).collect();
        let l2: SortedSet = (0..500u32).filter(|x| x % 7 == 0).collect();
        let expect = reference_intersection(&[l1.as_slice(), l2.as_slice()]);
        for t1 in [0u32, 1, 4, 8] {
            for t2 in [0u32, 3, 8] {
                let a = RanGroupScanIndex::with_m_and_level(&ctx, &l1, 2, t1);
                let b = RanGroupScanIndex::with_m_and_level(&ctx, &l2, 2, t2);
                assert_eq!(sorted2(&a, &b), expect, "t1={t1} t2={t2}");
            }
        }
    }

    #[test]
    fn empty_edge_cases() {
        let ctx = ctx();
        let e = RanGroupScanIndex::build(&ctx, &SortedSet::new());
        let a = RanGroupScanIndex::build(&ctx, &(0..100).collect());
        assert_eq!(sorted2(&e, &a), Vec::<u32>::new());
        assert_eq!(sorted2(&a, &e), Vec::<u32>::new());
        assert_eq!(sorted2(&e, &e), Vec::<u32>::new());
        assert_eq!(
            RanGroupScanIndex::intersect_k_sorted(&[]),
            Vec::<u32>::new()
        );
        assert_eq!(
            RanGroupScanIndex::intersect_k_sorted(&[&a]),
            (0..100).collect::<Vec<_>>()
        );
    }

    #[test]
    fn contains_probes() {
        let ctx = ctx();
        let set: SortedSet = (0..512u32).map(|x| x * 5).collect();
        let idx = RanGroupScanIndex::build(&ctx, &set);
        for x in 0..2560u32 {
            assert_eq!(idx.contains(x), x % 5 == 0, "x={x}");
        }
    }

    #[test]
    fn filtering_stats_probability_reasonable() {
        // Disjoint sets: every tuple is empty; with w = 64 Lemma A.1 puts a
        // single image's success probability near (1-1/8)^8 ≈ 0.34, and
        // m = 4 should catch most tuples.
        let ctx = HashContext::with_family_size(2024, 4);
        let l1: SortedSet = (0..20_000u32).map(|x| 2 * x).collect();
        let l2: SortedSet = (0..20_000u32).map(|x| 2 * x + 1).collect();
        let a = RanGroupScanIndex::with_m(&ctx, &l1, 4);
        let b = RanGroupScanIndex::with_m(&ctx, &l2, 4);
        let stats = filtering_stats(&[&a, &b], 4);
        assert!(stats.empty_tuples > 0);
        assert_eq!(stats.nonempty_tuples, 0);
        let p1 = stats.probability(1);
        let p4 = stats.probability(4);
        assert!(p1 > 0.15 && p1 < 0.75, "p1 = {p1}");
        assert!(p4 > p1, "more images must filter at least as much");
        assert!(p4 > 0.5, "p4 = {p4}");
        // Monotone in m.
        for m in 1..4 {
            assert!(stats.probability(m + 1) >= stats.probability(m));
        }
    }

    #[test]
    fn filter_skips_do_not_lose_results() {
        // Sets engineered so many groups are empty on one side.
        let ctx = ctx();
        let sparse: SortedSet = (0..64u32).map(|x| x * 100_000).collect();
        let dense: SortedSet = (0..300_000u32).collect();
        let expect = reference_intersection(&[sparse.as_slice(), dense.as_slice()]);
        let a = RanGroupScanIndex::build(&ctx, &sparse);
        let b = RanGroupScanIndex::build(&ctx, &dense);
        assert_eq!(sorted2(&a, &b), expect);
        let c = RanGroupScanIndex::build(&ctx, &(0..300_000u32).filter(|x| x % 2 == 0).collect());
        let got = RanGroupScanIndex::intersect_k_sorted(&[&a, &b, &c]);
        let expect3: Vec<u32> = expect.iter().copied().filter(|x| x % 2 == 0).collect();
        assert_eq!(got, expect3);
    }

    #[test]
    fn space_matches_theorem_3_10() {
        // Theorem 3.10: n(1 + m/√w) words plus the group directory. In bytes
        // with u32 elements: 4n + m·8·(n/8) + 4·(n/8) ≈ n(4 + m + 0.5).
        let ctx = ctx();
        let set: SortedSet = (0..100_000u32).map(|x| x.wrapping_mul(77)).collect();
        for m in [1usize, 2, 4] {
            let idx = RanGroupScanIndex::with_m(&ctx, &set, m);
            let expected = set.len() as f64 * (4.0 + m as f64 + 0.5);
            let actual = idx.size_in_bytes() as f64;
            assert!(
                (actual / expected - 1.0).abs() < 0.35,
                "m={m}: actual {actual} vs expected {expected}"
            );
        }
    }
}
