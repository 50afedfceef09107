//! Chunked 16-bit arrays: a sorted set stored as the top two levels of a
//! trie over its members' bits.
//!
//! The universe `Σ = u32` is split into the same 2¹⁶-value chunks
//! [`BitmapSet`](crate::BitmapSet) uses. A set keeps the sorted ids of the
//! chunks it touches, where each chunk's run starts, and one array of every
//! member's low 16 bits, chunk-major — 2 bytes per member, 6 per touched
//! chunk and 4 per set, where a flat `u32` list costs 4 per member. This is
//! the top of Arroyuelo et al.'s trie-compressed intersectable sets: the
//! high half of a member is stored once per chunk instead of once per
//! member.
//!
//! A set is built from one pass that narrows its members to their low
//! halves and one chunk walk ([`ChunkWalk`]) — a gallop per chunk for where
//! its run ends — for the ids and run starts. The walk is the top level
//! both chunked representations share: [`BitmapSet`](crate::BitmapSet) is
//! filled from it too, so neither builder tests a member for a chunk
//! change, and a builder choosing between them decides on the walk.
//!
//! Every reader of a sorted list has a chunked form:
//!
//! * intersection ([`ArraySet::intersect_into_at`]) walks both chunk-id
//!   lists in lockstep and merges the two `u16` runs of each shared chunk
//!   ([`simd::merge16_into_at`]: blocks of
//!   8 or 16 lanes where the `u32` merge has 4 or 8);
//! * membership ([`ArraySet::probe`]) moves a chunk cursor, then gallops
//!   inside the chunk's run;
//! * enumeration ([`ArraySet::extend_into`]) widens each run back to
//!   documents;
//! * the chunk union takes a set's runs chunk by chunk, as a union part and
//!   as a subtrahend ([`UnionPart`](crate::UnionPart)).

use fsi_core::elem::Elem;
use fsi_core::traits::SetIndex;

use crate::simd::{self, SimdLevel};

/// Log2 of the chunk span: each chunk covers 2¹⁶ consecutive values.
const CHUNK_BITS: u32 = 16;

/// A sorted set as per-chunk runs of 16-bit low halves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArraySet {
    /// Sorted ids (`value >> 16`) of the chunks the set touches.
    ids: Box<[u16]>,
    /// `starts[i]..starts[i + 1]` is chunk `i`'s run in `lows`; one entry
    /// more than `ids`, the last being the set's size.
    starts: Box<[u32]>,
    /// Every member's low 16 bits, chunk-major, ascending within a run.
    lows: Box<[u16]>,
}

/// The top level of the chunked layout, walked over a sorted list: the
/// sorted ids of the chunks it touches and where each chunk's run starts,
/// found by one gallop per chunk for where its run ends. The gallop reads
/// near the run it measures (a binary search over the rest of the list
/// read cold lines all over it, and cost a fresh index build ≈ 2 ms) and a
/// few members per chunk. Both chunked representations are filled from
/// it: an [`ArraySet`] keeps it beside its members' low halves
/// ([`ArraySet::from_walk`]), and a [`BitmapSet`](crate::BitmapSet) sets
/// each run's bits into its own chunk
/// ([`BitmapSet::from_walk`](crate::BitmapSet::from_walk)). A builder that
/// must choose between them decides on [`ChunkWalk::num_chunks`], before
/// either is filled.
#[derive(Debug)]
pub struct ChunkWalk<'a> {
    /// The list walked.
    pub(crate) elems: &'a [Elem],
    /// Sorted ids (`value >> 16`) of the chunks the list touches.
    ids: Vec<u16>,
    /// `starts[i]..starts[i + 1]` is chunk `i`'s run of the list; one entry
    /// more than `ids`, the last being the list's length.
    starts: Vec<u32>,
}

impl<'a> ChunkWalk<'a> {
    /// Walks the chunks of a sorted, duplicate-free slice.
    pub fn new(elems: &'a [Elem]) -> Self {
        // Sized for every chunk between the first member's and the last's,
        // which a list spread over a small universe touches: one
        // allocation each.
        let span = match (elems.first(), elems.last()) {
            (Some(&lo), Some(&hi)) => ((hi >> CHUNK_BITS) - (lo >> CHUNK_BITS)) as usize + 1,
            _ => 0,
        };
        let mut ids = Vec::with_capacity(span.min(elems.len()));
        let mut starts = Vec::with_capacity(span.min(elems.len()) + 1);
        for (id, at) in chunk_starts(elems) {
            ids.push(id as u16);
            starts.push(at as u32);
        }
        starts.push(elems.len() as u32);
        Self { elems, ids, starts }
    }

    /// Number of chunks the list touches.
    pub fn num_chunks(&self) -> usize {
        self.ids.len()
    }

    /// Every chunk the list touches, ascending: its id and its run of
    /// members.
    pub(crate) fn runs(&self) -> impl Iterator<Item = (u16, &'a [Elem])> + '_ {
        let elems = self.elems;
        self.ids
            .iter()
            .zip(self.starts.windows(2))
            .map(move |(&id, w)| {
                let run = match w {
                    [start, end] => elems.get(*start as usize..*end as usize),
                    _ => None,
                };
                (id, run.unwrap_or(&[]))
            })
    }
}

/// The id and start of every chunk a sorted, duplicate-free slice touches,
/// ascending: one [`run_len`] gallop per chunk.
pub(crate) fn chunk_starts(elems: &[Elem]) -> impl Iterator<Item = (u32, usize)> + '_ {
    let mut at = 0usize;
    std::iter::from_fn(move || {
        let &first = elems.get(at)?;
        let id = first >> CHUNK_BITS;
        let start = at;
        at += run_len(elems.get(at..).unwrap_or(&[]), id);
        Some((id, start))
    })
}

/// Every member's low 16 bits, in order.
fn narrow(elems: &[Elem]) -> Box<[u16]> {
    elems.iter().map(|&x| x as u16).collect()
}

impl ArraySet {
    /// Builds from a sorted, duplicate-free slice: one pass over its
    /// members keeps their low halves, then the chunk walk — a gallop per
    /// chunk — finds the chunks' ids and run starts in the lines that pass
    /// brought into cache. A list of a few hundred members is built fastest
    /// this way; [`ArraySet::from_walk`] serves a builder that walks first
    /// to choose a representation.
    pub fn from_sorted_slice(elems: &[Elem]) -> Self {
        let lows = narrow(elems);
        Self::assemble(ChunkWalk::new(elems), lows)
    }

    /// Builds from a list's chunk walk, which it keeps as its ids and run
    /// starts; one pass over the members keeps their low halves.
    pub fn from_walk(walk: ChunkWalk<'_>) -> Self {
        let lows = narrow(walk.elems);
        Self::assemble(walk, lows)
    }

    /// The set of a walk and its list's low halves.
    fn assemble(walk: ChunkWalk<'_>, lows: Box<[u16]>) -> Self {
        Self {
            ids: walk.ids.into(),
            starts: walk.starts.into(),
            lows,
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.lows.len()
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.lows.is_empty()
    }

    /// Number of chunks the set touches.
    pub fn num_chunks(&self) -> usize {
        self.ids.len()
    }

    /// Chunk `ci`'s first value (its id in the top 16 bits) and its run of
    /// low halves; an empty run past the last chunk.
    #[inline]
    fn chunk(&self, ci: usize) -> (Elem, &[u16]) {
        let high = self
            .ids
            .get(ci)
            .map_or(0, |&id| Elem::from(id) << CHUNK_BITS);
        (high, self.lows.get(self.run(ci)).unwrap_or(&[]))
    }

    /// Where chunk `ci`'s run lies in `lows`.
    #[inline]
    fn run(&self, ci: usize) -> std::ops::Range<usize> {
        let at = |i: usize| self.starts.get(i).map_or(0, |&s| s as usize);
        at(ci)..at(ci + 1).max(at(ci))
    }

    /// Chunk `ci`'s run with every later run behind it, and the run's
    /// length — what the SIMD merges read, a run's last block in place.
    #[inline]
    fn run_onwards(&self, ci: usize) -> (&[u16], usize) {
        match (self.starts.get(ci), self.starts.get(ci + 1)) {
            (Some(&start), Some(&end)) => (
                self.lows.get(start as usize..).unwrap_or(&[]),
                end.saturating_sub(start) as usize,
            ),
            _ => (&[], 0),
        }
    }

    /// Calls `merge(high, a, b)` for every chunk both sets touch, in
    /// ascending order: the chunk's first value and each set's run as
    /// [`ArraySet::run_onwards`] gives it. The two chunk-id lists are walked
    /// in lockstep. Always inlined, so each merge tier runs the walk inside
    /// its own `target_feature` frame.
    #[inline(always)]
    pub(crate) fn for_each_shared_chunk(
        &self,
        other: &Self,
        mut merge: impl FnMut(Elem, (&[u16], usize), (&[u16], usize)),
    ) {
        let (mut ci, mut cj) = (0usize, 0usize);
        while let (Some(&idx), Some(&idy)) = (self.ids.get(ci), other.ids.get(cj)) {
            if idx != idy {
                ci += usize::from(idx < idy);
                cj += usize::from(idy < idx);
                continue;
            }
            merge(
                Elem::from(idx) << CHUNK_BITS,
                self.run_onwards(ci),
                other.run_onwards(cj),
            );
            (ci, cj) = (ci + 1, cj + 1);
        }
    }

    /// Every chunk the set touches, ascending: its first value and its run
    /// of low halves.
    fn chunks(&self) -> impl Iterator<Item = (Elem, &[u16])> + '_ {
        (0..self.ids.len()).map(|ci| self.chunk(ci))
    }

    /// Appends every member to `out`, ascending: each run widened with its
    /// chunk's high half.
    pub fn extend_into(&self, out: &mut Vec<Elem>) {
        out.reserve(self.len());
        for (high, run) in self.chunks() {
            out.extend(run.iter().map(|&low| high | Elem::from(low)));
        }
    }

    /// A membership cursor for ascending values: a chunk cursor that only
    /// moves forward, then a gallop from the last position inside the
    /// chunk's run — the shape of a sorted candidate list probing this set.
    pub fn probe(&self) -> ArrayProbe<'_> {
        ArrayProbe {
            set: self,
            next: 0,
            id: NO_CHUNK,
            rest: &[],
        }
    }

    /// Appends `self ∩ other` to `out`, ascending, at `level` (saturated to
    /// the hardware): the two chunk-id lists walked in lockstep, and the
    /// runs of every chunk both touch merged by
    /// [`simd::merge16_into_at`].
    pub fn intersect_into_at(&self, level: SimdLevel, other: &Self, out: &mut Vec<Elem>) {
        simd::merge16_into_at(level, self, other, out);
    }

    /// [`ArraySet::intersect_into_at`] at the dispatched
    /// [`SimdLevel::active`] level.
    pub fn intersect_into(&self, other: &Self, out: &mut Vec<Elem>) {
        self.intersect_into_at(SimdLevel::active(), other, out)
    }

    /// The first chunk index at or past `from` whose id is at least `id`.
    pub(crate) fn seek_chunk(&self, from: usize, id: u32) -> usize {
        from + self
            .ids
            .get(from..)
            .map_or(0, |rest| rest.partition_point(|&x| u32::from(x) < id))
    }

    /// The id of chunk `ci`, if the set has that many chunks.
    #[inline]
    pub(crate) fn chunk_id(&self, ci: usize) -> Option<u32> {
        self.ids.get(ci).map(|&id| u32::from(id))
    }

    /// Chunk `ci`'s run of low halves.
    #[inline]
    pub(crate) fn chunk_run(&self, ci: usize) -> &[u16] {
        self.chunk(ci).1
    }
}

impl SetIndex for ArraySet {
    fn n(&self) -> usize {
        self.len()
    }

    /// 2 bytes per member, 6 per chunk (a `u16` id and a `u32` run start)
    /// and 4 per set (the closing run end).
    fn size_in_bytes(&self) -> usize {
        std::mem::size_of_val::<[u16]>(&self.ids)
            + std::mem::size_of_val::<[u32]>(&self.starts)
            + std::mem::size_of_val::<[u16]>(&self.lows)
    }
}

/// How many members at the front of `rest` lie in chunk `id` (at least one,
/// when `rest` is non-empty and starts in it): doubling steps from the
/// front, then a binary search inside the last step.
pub(crate) fn run_len(rest: &[Elem], id: u32) -> usize {
    let in_chunk = |x: &Elem| x >> CHUNK_BITS == id;
    // `rest[lo]` is in the chunk; the run ends in `lo + 1..=lo + step`.
    let (mut lo, mut step) = (0usize, 1usize);
    while rest.get(lo + step).is_some_and(in_chunk) {
        lo += step;
        step <<= 1;
    }
    let hi = (lo + step).min(rest.len());
    (lo + 1
        + rest
            .get(lo + 1..hi)
            .map_or(0, |r| r.partition_point(in_chunk)))
    .min(rest.len())
}

/// Chunk ids are 16 bits wide, so this never names a real chunk.
const NO_CHUNK: u32 = u32::MAX;

/// An [`ArraySet`] membership cursor; see [`ArraySet::probe`].
#[derive(Debug, Clone)]
pub struct ArrayProbe<'a> {
    set: &'a ArraySet,
    /// Index of the first chunk not yet entered.
    next: usize,
    /// Chunk id of the last value tested.
    id: u32,
    /// The part of that chunk's run not below the last value tested; empty
    /// when the set does not touch the chunk.
    rest: &'a [u16],
}

impl ArrayProbe<'_> {
    /// Whether `x` is a member. Values must be tested in ascending order.
    #[inline]
    pub fn contains(&mut self, x: Elem) -> bool {
        let id = x >> CHUNK_BITS;
        if id != self.id {
            let ci = self.set.seek_chunk(self.next, id);
            (self.rest, self.next) = match self.set.chunk_id(ci) {
                Some(c) if c == id => (self.set.chunk_run(ci), ci + 1),
                _ => (&[][..], ci),
            };
            self.id = id;
        }
        let low = x as u16;
        let at = gallop16(self.rest, low);
        self.rest = self.rest.get(at..).unwrap_or(&[]);
        self.rest.first() == Some(&low)
    }
}

/// The first index of the ascending `run` whose value is at least
/// `target`: doubling steps from the front, then a binary search inside the
/// last step — `O(log d)` for a target `d` places in. The `u16` twin of
/// `fsi_core::search::gallop`, finishing on `partition_point`: over
/// and_cold's merge pairs this probe gallops 3 % slower than the `u32`
/// gallop through the flat lists, where one on the core's binary search
/// was 10 % slower.
#[inline]
fn gallop16(run: &[u16], target: u16) -> usize {
    if run.first().is_none_or(|&x| x >= target) {
        return 0;
    }
    // `run[lo] < target`; the answer lies in `lo + 1..=lo + step`.
    let (mut lo, mut step) = (0usize, 1usize);
    while let Some(&v) = run.get(lo + step) {
        if v >= target {
            break;
        }
        lo += step;
        step <<= 1;
    }
    let hi = (lo + step + 1).min(run.len());
    lo + 1
        + run
            .get(lo + 1..hi)
            .map_or(0, |r| r.partition_point(|&x| x < target))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boolean::{retain_members, Member};
    use crate::{chunk_union_into, BitmapSet, UnionPart};
    use fsi_core::elem::SortedSet;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    const C: u32 = 1 << CHUNK_BITS;

    /// Sets with the edge shapes a chunked layout can get wrong: runs
    /// straddling a chunk boundary, single-member chunks, gaps of empty
    /// chunks, the last chunk (values near `u32::MAX`), and runs of 1, 7,
    /// 8, 15, 16 and 17 members around the merge's block widths.
    fn edge_sets() -> Vec<Vec<Elem>> {
        let run = |base: u32, n: u32, step: u32| (0..n).map(move |i| base + i * step);
        let mut sets: Vec<Vec<Elem>> = vec![
            vec![],
            vec![0],
            vec![u32::MAX],
            vec![0, C - 1, C, u32::MAX - 1, u32::MAX],
            run(C - 9, 18, 1).collect(),
            run(5 * C, 1, 1).chain(run(9 * C + 3, 1, 1)).collect(),
            run(u32::MAX - 40, 41, 1).collect(),
        ];
        for n in [1, 7, 8, 15, 16, 17, 33] {
            sets.push(run(2 * C + 100, n, 3).collect());
            sets.push(run(2 * C + 100, n, 6).chain(run(7 * C, n, 2)).collect());
            sets.push(run(u32::MAX - 3 * n, n, 3).collect());
        }
        sets
    }

    fn random_set(rng: &mut StdRng, max_n: usize, lo: u32, hi: u32) -> Vec<Elem> {
        let n = rng.gen_range(0..max_n);
        let set: BTreeSet<Elem> = (0..n).map(|_| rng.gen_range(lo..=hi)).collect();
        set.into_iter().collect()
    }

    /// Pairs of edge shapes and random sets over a few chunks and over the
    /// top of the id space.
    fn cases() -> Vec<Vec<Elem>> {
        let mut rng = StdRng::seed_from_u64(41);
        // Interpreted execution (Miri) needs fewer, smaller sets.
        let (trials, large) = if cfg!(miri) { (2, 60) } else { (24, 400) };
        let mut sets = edge_sets();
        for t in 0..trials {
            let (lo, hi) = if t % 2 == 0 {
                (0, 5 * C)
            } else {
                (u32::MAX - 3 * C, u32::MAX)
            };
            sets.push(random_set(&mut rng, large, lo, hi));
            sets.push(random_set(&mut rng, 40, lo, hi));
        }
        sets
    }

    fn naive_and(a: &[Elem], b: &[Elem]) -> Vec<Elem> {
        a.iter().copied().filter(|x| b.contains(x)).collect()
    }

    #[test]
    fn round_trips_and_sizes() {
        for set in cases() {
            let array = ArraySet::from_sorted_slice(&set);
            assert_eq!(array.len(), set.len());
            let chunks = BitmapSet::count_chunks(&set);
            assert_eq!(array.num_chunks(), chunks);
            assert_eq!(array.size_in_bytes(), 2 * set.len() + 6 * chunks + 4);
            let sorted = SortedSet::from_unsorted(set.clone());
            assert_eq!(ArraySet::from_sorted_slice(sorted.as_slice()), array);
            // Walked first or narrowed first, the same set.
            let walk = ChunkWalk::new(&set);
            assert_eq!(walk.num_chunks(), chunks);
            assert_eq!(ArraySet::from_walk(walk), array);
            // Appending leaves a prefix alone.
            let mut out = vec![7];
            array.extend_into(&mut out);
            assert_eq!(out[1..], set[..]);
        }
    }

    #[test]
    fn merge_matches_naive_at_every_level_in_both_orders() {
        let sets = cases();
        for level in crate::simd::available_levels() {
            for a in &sets {
                for b in sets.iter().step_by(3) {
                    let expect = naive_and(a, b);
                    let (x, y) = (
                        ArraySet::from_sorted_slice(a),
                        ArraySet::from_sorted_slice(b),
                    );
                    for (p, q) in [(&x, &y), (&y, &x)] {
                        let mut out = vec![u32::MAX];
                        p.intersect_into_at(level, q, &mut out);
                        assert_eq!(out[1..], expect[..], "{level:?}");
                    }
                }
            }
        }
    }

    /// The AVX2 merge sends a chunk to its skewed kernel (16 lanes against
    /// 8) when the longer run has at least 4 times the shorter's members,
    /// else to its balanced one (16 against 16): runs of `4·nn − 1` and
    /// `4·nn` members against `nn`, in one chunk, with matches in both
    /// runs' last, padded blocks.
    #[test]
    fn merge_matches_naive_on_both_sides_of_the_skew_boundary() {
        for base in [3 * C, u32::MAX - (C - 1)] {
            for nn in [1u32, 7, 8, 9, 16, 17] {
                for nw in [4 * nn - 1, 4 * nn] {
                    let wide: Vec<Elem> = (0..nw).map(|i| base + 2 * i).collect();
                    // Misses spread over the longer run, then its last `k`
                    // members; or its last `nn` members, every one a match.
                    let k = nn.min(3);
                    let misses = (0..nn - k).map(|j| base + 2 * (j * (nw - k) / (nn - k)) + 1);
                    let last = |m: u32| wide[(nw - m) as usize..].to_vec();
                    for (narrow, hits) in [(misses.chain(last(k)).collect(), k), (last(nn), nn)] {
                        let expect = naive_and(&wide, &narrow);
                        assert_eq!(expect.len(), hits as usize);
                        let (x, y) = (
                            ArraySet::from_sorted_slice(&wide),
                            ArraySet::from_sorted_slice(&narrow),
                        );
                        assert_eq!((x.num_chunks(), y.num_chunks()), (1, 1));
                        for level in crate::simd::available_levels() {
                            for (p, q) in [(&x, &y), (&y, &x)] {
                                let mut out = vec![u32::MAX];
                                p.intersect_into_at(level, q, &mut out);
                                assert_eq!(out[1..], expect[..], "{level:?} nn={nn} nw={nw}");
                            }
                        }
                    }
                }
            }
        }
    }

    /// Dense matches: a set against itself and against every other member
    /// of itself, so blocks that re-read lanes (a run's overlapping last
    /// block) meet lanes that already matched.
    #[test]
    fn merge_outputs_each_common_member_once() {
        let mut sets = cases();
        for n in [16u32, 17, 24, 31, 32, 40, 47, 48, 100] {
            sets.push((0..n).map(|i| 3 * C + 7 * i).collect());
            sets.push((0..n).map(|i| C - 3 * n + 3 * i).collect());
        }
        for level in crate::simd::available_levels() {
            for a in &sets {
                let half: Vec<Elem> = a.iter().copied().step_by(2).collect();
                let x = ArraySet::from_sorted_slice(a);
                for (b, expect) in [(a, a), (&half, &half)] {
                    let y = ArraySet::from_sorted_slice(b);
                    for (p, q) in [(&x, &y), (&y, &x)] {
                        let mut out = Vec::new();
                        p.intersect_into_at(level, q, &mut out);
                        assert_eq!(&out, expect, "{level:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn probe_keeps_members_and_non_members() {
        let sets = cases();
        for a in &sets {
            let array = ArraySet::from_sorted_slice(a);
            for b in sets.iter().step_by(2) {
                for keep in [true, false] {
                    let expect: Vec<Elem> = b
                        .iter()
                        .copied()
                        .filter(|x| a.contains(x) == keep)
                        .collect();
                    let mut out = [&[1, 0][..], b].concat();
                    retain_members(&mut out, 2, Member::Array(&array), keep);
                    assert_eq!(out[..2], [1, 0]);
                    assert_eq!(out[2..], expect[..], "keep {keep}");
                }
            }
            for &x in a.iter().chain(&[0, 1, C, u32::MAX]) {
                assert_eq!(array.probe().contains(x), a.contains(&x), "{x}");
            }
        }
    }

    #[test]
    fn chunk_union_takes_arrays_as_parts_and_subtrahends() {
        let sets = cases();
        for (i, a) in sets.iter().enumerate() {
            let b = &sets[(i * 7 + 3) % sets.len()];
            let base = &sets[(i * 5 + 1) % sets.len()];
            let (xa, xb) = (
                ArraySet::from_sorted_slice(a),
                ArraySet::from_sorted_slice(b),
            );
            let bitmap = BitmapSet::from_sorted_slice(base);
            // Union of two arrays and a bitmap.
            let mut expect: BTreeSet<Elem> = a.iter().chain(b).chain(base).copied().collect();
            let mut out = Vec::new();
            chunk_union_into(
                &[
                    UnionPart::Array(&xa),
                    UnionPart::Bitmap(&bitmap),
                    UnionPart::Array(&xb),
                ],
                &mut out,
            );
            assert_eq!(out, expect.iter().copied().collect::<Vec<_>>());
            // `base ∖ (a ∪ b)` as one `And` part.
            expect = base
                .iter()
                .copied()
                .filter(|x| !a.contains(x) && !b.contains(x))
                .collect();
            let mut out = Vec::new();
            chunk_union_into(
                &[UnionPart::And {
                    pos: vec![&bitmap],
                    neg: Vec::new(),
                    neg_arrays: vec![&xa, &xb],
                }],
                &mut out,
            );
            assert_eq!(out, expect.iter().copied().collect::<Vec<_>>());
        }
    }

    #[test]
    fn gallop_finds_the_lower_bound() {
        let run: Vec<u16> = (0..100u16).map(|x| x * 3).collect();
        for target in [0u16, 1, 3, 4, 150, 296, 297, 298, u16::MAX] {
            assert_eq!(gallop16(&run, target), run.partition_point(|&x| x < target));
        }
        assert_eq!(gallop16(&[], 5), 0);
    }
}
