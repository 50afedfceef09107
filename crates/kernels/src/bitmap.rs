//! Chunked-bitmap sets: Roaring-style dense containers intersected by
//! 64-bit-word `AND`.
//!
//! The universe `Σ = u32` is split into 2¹⁶-value chunks; a set stores, for
//! each chunk it touches, a 1024-word bitmap of the chunk's members.
//! Intersecting two sets walks the (short, sorted) chunk-id lists, `AND`s
//! the 1024 words of every chunk present in both, and extracts survivors
//! with the trailing-zeros trick of the paper's footnote 1
//! ([`crate::simd::extract_into_at`]) — one `AND` per
//! 64 universe slots, the word-parallel regime the paper packs groups for,
//! here applied to the raw document space. The win is proportional to
//! density: dense chunks amortize the fixed `O(1024)` word sweep over many
//! members.
//!
//! A bitmap is filled from a chunk walk of its list ([`ChunkWalk`]: a
//! gallop per chunk, the walk [`ArraySet`] keeps): every chunk's words are
//! allocated at once, and each run sets its bits in its own chunk.
//!
//! The chunk union ([`chunk_union_into`]) is the engine's one union over
//! any mix of bitmaps, bitmap `AND`s, chunked arrays and sorted lists; it
//! chooses per chunk between merging 16-bit runs and a bitmap accumulator.
//!
//! The same structure answers point membership ([`BitmapSet::contains`],
//! [`BitmapSet::probe`]): a chunk lookup and one bit test, which is what
//! a sparse list probing a dense one needs instead of a sweep.

use crate::array::{ArraySet, ChunkWalk};
use fsi_core::elem::{Elem, SortedSet};
use fsi_core::traits::{KIntersect, PairIntersect, SetIndex};

/// Log2 of the chunk span: each chunk covers 2¹⁶ consecutive values.
const CHUNK_BITS: u32 = 16;
/// 64-bit words per chunk bitmap — public so cost models (the `fsi-index`
/// planner) can price a chunk sweep in the same unit the kernel executes.
pub const WORDS_PER_CHUNK: usize = 1 << (CHUNK_BITS - 6);

/// A set as a sorted list of dense chunk bitmaps.
#[derive(Debug, Clone)]
pub struct BitmapSet {
    n: usize,
    /// Sorted ids (`value >> 16`) of the chunks this set touches.
    ids: Vec<u32>,
    /// Chunk bitmaps, chunk-major: chunk `i` owns
    /// `words[i * WORDS_PER_CHUNK ..][..WORDS_PER_CHUNK]`.
    words: Vec<u64>,
}

impl BitmapSet {
    /// Builds the chunked bitmap of `set` ([`BitmapSet::from_sorted_slice`]).
    pub fn build(set: &SortedSet) -> Self {
        Self::from_sorted_slice(set.as_slice())
    }

    /// Builds from a sorted, duplicate-free slice: the chunk walk finds the
    /// chunks it touches by a gallop per chunk, then each chunk's run sets
    /// its members' bits ([`BitmapSet::from_walk`]).
    pub fn from_sorted_slice(elems: &[Elem]) -> Self {
        Self::from_walk(&ChunkWalk::new(elems))
    }

    /// Builds from a list's chunk walk: every chunk's 1024 words are
    /// allocated at once, zeroed, and each run sets its bits in its own
    /// chunk — no member is tested for a chunk change, and no bitmap grows.
    pub fn from_walk(walk: &ChunkWalk<'_>) -> Self {
        let mut ids = Vec::with_capacity(walk.num_chunks());
        let mut words = vec![0u64; walk.num_chunks() * WORDS_PER_CHUNK];
        let (bitmaps, _) = words.as_chunks_mut::<WORDS_PER_CHUNK>();
        for ((id, run), bitmap) in walk.runs().zip(bitmaps) {
            ids.push(u32::from(id));
            // The word being filled is carried in a register and stored
            // whole after every member, never read back: a dense run's
            // members would otherwise each wait on the last one's store.
            // Members ascend, so a word is finished when the next member
            // leaves it.
            let (mut at, mut word) = (usize::MAX, 0u64);
            for low in run.iter().map(|&x| usize::from(x as u16)) {
                let stay = u64::from(low >> 6 == at).wrapping_neg();
                at = low >> 6;
                word = (word & stay) | 1u64 << (low & 63);
                bitmap[at] = word;
            }
        }
        Self {
            n: walk.elems.len(),
            ids,
            words,
        }
    }

    /// Number of chunks the set touches.
    pub fn num_chunks(&self) -> usize {
        self.ids.len()
    }

    /// Number of distinct chunks a sorted slice touches — exactly what
    /// [`BitmapSet::num_chunks`] would report after
    /// [`BitmapSet::from_sorted_slice`], without building any bitmap: one
    /// gallop per chunk, as the builders' chunk walk takes.
    pub fn count_chunks(elems: &[Elem]) -> usize {
        crate::array::chunk_starts(elems).count()
    }

    /// Membership test: chunk offset plus one bit test. A value whose
    /// chunk the set never touches is absent without reading any bitmap
    /// word. Callers testing many values in ascending order should hold one
    /// [`BitmapSet::probe`] instead, which locates each chunk once.
    #[inline]
    pub fn contains(&self, x: Elem) -> bool {
        self.probe().contains(x)
    }

    /// A membership cursor that remembers the chunk of the last value
    /// tested, so a run of values inside one chunk costs one chunk lookup
    /// and then one bit test each — the shape of a sorted driver list
    /// probing this set.
    pub fn probe(&self) -> BitmapProbe<'_> {
        BitmapProbe {
            set: self,
            id: NO_CHUNK,
            chunk: &[],
        }
    }

    /// The words of chunk `ci` (the `ci`-th id of `ids`); empty past the
    /// last chunk.
    fn chunk(&self, ci: usize) -> &[u64] {
        self.words
            .get(ci * WORDS_PER_CHUNK..(ci + 1) * WORDS_PER_CHUNK)
            .unwrap_or(&[])
    }
}

/// Chunk ids are 16 bits wide, so this never names a real chunk.
const NO_CHUNK: u32 = u32::MAX;

/// A [`BitmapSet`] membership cursor; see [`BitmapSet::probe`].
#[derive(Debug, Clone)]
pub struct BitmapProbe<'a> {
    set: &'a BitmapSet,
    /// Chunk id of the last value tested.
    id: u32,
    /// That chunk's words; empty when the set does not touch it.
    chunk: &'a [u64],
}

impl BitmapProbe<'_> {
    /// Whether `x` is a member.
    #[inline]
    pub fn contains(&mut self, x: Elem) -> bool {
        let id = x >> CHUNK_BITS;
        if id != self.id {
            self.id = id;
            self.chunk = match self.set.ids.binary_search(&id) {
                Ok(ci) => self.set.chunk(ci),
                Err(_) => &[],
            };
        }
        let low = (x & ((1 << CHUNK_BITS) - 1)) as usize;
        self.chunk
            .get(low >> 6)
            .is_some_and(|word| word >> (low & 63) & 1 == 1)
    }
}

impl SetIndex for BitmapSet {
    fn n(&self) -> usize {
        self.n
    }

    fn size_in_bytes(&self) -> usize {
        self.ids.len() * 4 + self.words.len() * 8
    }
}

impl PairIntersect for BitmapSet {
    /// Word-parallel `AND` over chunks present in both sets; output is
    /// ascending.
    fn intersect_pair_into(&self, other: &Self, out: &mut Vec<Elem>) {
        // One dispatch read for the whole sweep, not one per chunk.
        let level = crate::simd::SimdLevel::active();
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.ids.len() && j < other.ids.len() {
            match self.ids[i].cmp(&other.ids[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let a = &self.words[i * WORDS_PER_CHUNK..][..WORDS_PER_CHUNK];
                    let b = &other.words[j * WORDS_PER_CHUNK..][..WORDS_PER_CHUNK];
                    let hi = self.ids[i] << CHUNK_BITS;
                    // Wide AND at the dispatched SIMD level (2/4 words per
                    // instruction), then the branch-free extraction walk.
                    crate::simd::and_extract_at(level, hi, a, b, out);
                    i += 1;
                    j += 1;
                }
            }
        }
    }
}

impl KIntersect for BitmapSet {
    /// k-way `AND`: the chunk walk of [`chunk_union_into`] over one
    /// [`UnionPart::And`] — each chunk id present in every set `AND`s all
    /// `k` words (abandoned as soon as the result is empty) before one
    /// extraction. Output is ascending.
    fn intersect_k_into(indexes: &[&Self], out: &mut Vec<Elem>) {
        let part = match indexes {
            [] => return,
            [a] => UnionPart::Bitmap(a),
            _ => UnionPart::And {
                pos: indexes.to_vec(),
                neg: Vec::new(),
                neg_arrays: Vec::new(),
            },
        };
        chunk_union_into(&[part], out);
    }
}

/// One operand of [`chunk_union_into`], by what it contributes to a chunk.
#[derive(Debug, Clone)]
pub enum UnionPart<'a> {
    /// A chunked bitmap: its words are `OR`ed in.
    Bitmap(&'a BitmapSet),
    /// `(⋂ pos) ∖ (⋃ neg ∪ ⋃ neg_arrays)`, formed per chunk without
    /// extracting: the `AND` of `pos`'s words, minus `neg`'s words, minus
    /// the bits of the members in `neg_arrays`' runs of that chunk. It contributes only to chunks
    /// every set in `pos` touches. `pos` must not be empty.
    And {
        /// Intersected bitmaps.
        pos: Vec<&'a BitmapSet>,
        /// Subtracted bitmaps, removed word by word.
        neg: Vec<&'a BitmapSet>,
        /// Subtracted chunked arrays, removed by clearing their members'
        /// bits.
        neg_arrays: Vec<&'a ArraySet>,
    },
    /// Chunked 16-bit arrays: each chunk's run is merged where the chunk
    /// is sparse, and its bits set in the accumulator where it is not.
    Array(&'a ArraySet),
    /// A sorted, duplicate-free list — a materialized result: read chunk by
    /// chunk as [`UnionPart::Array`]'s runs are.
    List(&'a [Elem]),
}

/// Appends the union of `parts` to `out`, ascending and duplicate-free, one
/// chunk at a time, the container chosen per chunk as Roaring chooses it.
/// A chunk that only [`UnionPart::Array`] and [`UnionPart::List`] parts
/// reach, holding fewer members than the chunk has bitmap words (the rule
/// by which a prepared list carries no bitmap), is merged: the runs' 16-bit
/// lows are gathered into one reused buffer and widened into `out` — as
/// they are where one run reaches the chunk, merged where two do, sorted
/// (the stable sort merges the ascending runs it finds) and deduplicated
/// where more do. Into every other chunk one 8 KiB
/// accumulator gathers every contribution, and the chunk's members leave
/// through one [`extract_into_at`] walk; a chunk only one bitmap
/// contributes to is extracted straight from that bitmap's words. No part
/// is ever extracted on its own, so a union over intersections pays one
/// extraction for its result and none for its operands.
///
/// [`extract_into_at`]: crate::simd::extract_into_at
pub fn chunk_union_into(parts: &[UnionPart<'_>], out: &mut Vec<Elem>) {
    // One dispatch read for the whole sweep, not one per word primitive.
    let level = crate::simd::SimdLevel::active();
    let mut cursors: Vec<Cursor> = parts.iter().map(Cursor::new).collect();
    // The accumulator and the `And` scratch, zeroed on the first chunk
    // that needs them: a union whose every chunk merges never touches them.
    let mut buffers = None;
    let mut lows = Vec::new();
    while let Some(id) = cursors.iter().filter_map(|c| c.next).min() {
        if merge_sparse_chunk(parts, &mut cursors, id, &mut lows, out) {
            continue;
        }
        let [acc, scratch] = buffers.get_or_insert([[0u64; WORDS_PER_CHUNK]; 2]);
        // Where the chunk's union is so far: nothing, one bitmap's words
        // (not yet copied), or `acc`.
        let mut borrowed: Option<&[u64]> = None;
        let mut in_acc = false;
        for (part, cursor) in parts.iter().zip(&mut cursors) {
            if cursor.next != Some(id) {
                continue;
            }
            match part {
                UnionPart::Bitmap(b) => {
                    let words = b.chunk(cursor.at);
                    if in_acc {
                        crate::simd::or_in_place_at(level, acc, words);
                    } else if let Some(first) = borrowed {
                        acc.copy_from_slice(first);
                        crate::simd::or_in_place_at(level, acc, words);
                        in_acc = true;
                    } else {
                        borrowed = Some(words);
                    }
                    cursor.at += 1;
                }
                UnionPart::List(xs) => {
                    start_acc(&mut *acc, &mut in_acc, borrowed);
                    for &x in xs.get(cursor.at..cursor.end).unwrap_or(&[]) {
                        acc[(x as usize >> 6) % WORDS_PER_CHUNK] |= 1 << (x & 63);
                    }
                    cursor.at = cursor.end;
                }
                UnionPart::Array(array) => {
                    start_acc(&mut *acc, &mut in_acc, borrowed);
                    for &low in array.chunk_run(cursor.at) {
                        acc[(low as usize >> 6) % WORDS_PER_CHUNK] |= 1 << (low & 63);
                    }
                    cursor.at += 1;
                }
                UnionPart::And {
                    pos,
                    neg,
                    neg_arrays,
                } => {
                    // Formed in `acc` while the chunk holds nothing of its
                    // own yet, else in `scratch` and then ORed in.
                    let target = if in_acc { &mut *scratch } else { &mut *acc };
                    let nonempty = and_not_chunk(level, pos, neg, neg_arrays, id, cursor, target);
                    if nonempty {
                        if in_acc {
                            crate::simd::or_in_place_at(level, acc, &scratch[..]);
                        } else {
                            if let Some(first) = borrowed {
                                crate::simd::or_in_place_at(level, acc, first);
                            }
                            in_acc = true;
                        }
                    }
                    for at in &mut cursor.pos {
                        *at += 1;
                    }
                }
            }
            cursor.next = cursor.align(part);
        }
        let words = if in_acc {
            &acc[..]
        } else {
            borrowed.unwrap_or(&[])
        };
        crate::simd::extract_into_at(level, id << CHUNK_BITS, words, out);
    }
}

/// Merges chunk `id` straight into `out` when only `Array` and `List` parts
/// reach it and their runs there hold fewer than [`WORDS_PER_CHUNK`]
/// members: their lows are gathered into `lows` and widened — one run as it
/// is, two merged, more sorted and deduplicated. Moves the cursors of the
/// parts it merged; returns `false`, having moved none, when the chunk
/// needs the accumulator.
fn merge_sparse_chunk(
    parts: &[UnionPart<'_>],
    cursors: &mut [Cursor],
    id: u32,
    lows: &mut Vec<u16>,
    out: &mut Vec<Elem>,
) -> bool {
    let (mut members, mut runs) = (0usize, 0usize);
    for (part, cursor) in parts.iter().zip(cursors.iter()) {
        if cursor.next == Some(id) {
            members += match part {
                UnionPart::Array(array) => array.chunk_run(cursor.at).len(),
                UnionPart::List(_) => cursor.end - cursor.at,
                UnionPart::Bitmap(_) | UnionPart::And { .. } => return false,
            };
            runs += 1;
        }
    }
    if members >= WORDS_PER_CHUNK {
        return false;
    }
    lows.clear();
    lows.reserve(WORDS_PER_CHUNK);
    // Where the first run ends in `lows` (every run holds a member).
    let mut first = 0;
    for (part, cursor) in parts.iter().zip(cursors.iter_mut()) {
        if cursor.next != Some(id) {
            continue;
        }
        match part {
            UnionPart::Array(array) => {
                lows.extend_from_slice(array.chunk_run(cursor.at));
                cursor.at += 1;
            }
            UnionPart::List(xs) => {
                let run = xs.get(cursor.at..cursor.end).unwrap_or(&[]);
                lows.extend(run.iter().map(|&x| x as u16));
                cursor.at = cursor.end;
            }
            UnionPart::Bitmap(_) | UnionPart::And { .. } => {}
        }
        if first == 0 {
            first = lows.len();
        }
        cursor.next = cursor.align(part);
    }
    let high = id << CHUNK_BITS;
    match runs {
        1 => {}
        2 => {
            let (a, b) = lows.split_at(first);
            merge_widened(a, b, high, out);
            return true;
        }
        _ => {
            lows.sort();
            lows.dedup();
        }
    }
    out.extend(lows.iter().map(|&low| high | Elem::from(low)));
    true
}

/// Appends `a ∪ b` to `out`, each low widened with `high`: the two
/// ascending runs merged, a low both hold emitted once.
fn merge_widened(a: &[u16], b: &[u16], high: Elem, out: &mut Vec<Elem>) {
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while let (Some(&x), Some(&y)) = (a.get(i), b.get(j)) {
        match x.cmp(&y) {
            std::cmp::Ordering::Less => {
                out.push(high | Elem::from(x));
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(high | Elem::from(y));
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(high | Elem::from(x));
                i += 1;
                j += 1;
            }
        }
    }
    let rest = a
        .get(i..)
        .unwrap_or(&[])
        .iter()
        .chain(b.get(j..).unwrap_or(&[]));
    out.extend(rest.map(|&low| high | Elem::from(low)));
}

/// Makes `acc` the chunk's accumulator before bits are set in it: a copy
/// of the one bitmap chunk `borrowed` so far, or all zeros.
fn start_acc(acc: &mut [u64; WORDS_PER_CHUNK], in_acc: &mut bool, borrowed: Option<&[u64]>) {
    if !*in_acc {
        match borrowed {
            Some(first) => acc.copy_from_slice(first),
            None => acc.fill(0),
        }
        *in_acc = true;
    }
}

/// Where one [`UnionPart`] is in its walk.
struct Cursor {
    /// The chunk id the part contributes to next; `None` once it is done.
    next: Option<u32>,
    /// `Bitmap` and `Array`: index of its next chunk; `List`: index of its
    /// next member.
    at: usize,
    /// `List`: where its run in chunk `next` ends.
    end: usize,
    /// `And`: per `pos` set, index of its next chunk.
    pos: Vec<usize>,
    /// `And`: per `neg` set, index of its first chunk not yet passed.
    neg: Vec<usize>,
    /// `And`: per `neg_arrays` set, index of its first chunk not yet
    /// passed.
    neg_arrays: Vec<usize>,
}

impl Cursor {
    fn new(part: &UnionPart<'_>) -> Self {
        let (pos, neg, neg_arrays) = match part {
            UnionPart::And {
                pos,
                neg,
                neg_arrays,
            } => (
                vec![0; pos.len()],
                vec![0; neg.len()],
                vec![0; neg_arrays.len()],
            ),
            _ => Default::default(),
        };
        let mut c = Cursor {
            next: None,
            at: 0,
            end: 0,
            pos,
            neg,
            neg_arrays,
        };
        c.next = c.align(part);
        c
    }

    /// The first chunk id at or past the cursor that `part` contributes to;
    /// for a `List`, finds where its run there ends, and for an `And`,
    /// moves every `pos` cursor onto it.
    fn align(&mut self, part: &UnionPart<'_>) -> Option<u32> {
        match part {
            UnionPart::Bitmap(b) => b.ids.get(self.at).copied(),
            UnionPart::List(xs) => {
                let rest = xs.get(self.at..)?;
                let id = rest.first()? >> CHUNK_BITS;
                self.end = self.at + crate::array::run_len(rest, id);
                Some(id)
            }
            UnionPart::Array(array) => array.chunk_id(self.at),
            UnionPart::And { pos, .. } => {
                // Leapfrog over the sorted id lists: chase the largest id
                // seen until every set sits on it.
                // An empty `pos` (outside the contract) contributes nothing.
                let k = pos.len();
                if k == 0 {
                    return None;
                }
                let (mut id, mut agreed, mut i) = (0u32, 0usize, 0usize);
                while agreed < k {
                    let (set, at) = (pos.get(i % k)?, self.pos.get_mut(i % k)?);
                    *at = seek(&set.ids, *at, id);
                    let here = *set.ids.get(*at)?;
                    if here == id && agreed > 0 {
                        agreed += 1;
                    } else {
                        (id, agreed) = (here, 1);
                    }
                    i += 1;
                }
                Some(id)
            }
        }
    }
}

/// The first index at or past `from` whose id is `>= id`.
fn seek(ids: &[u32], from: usize, id: u32) -> usize {
    from + ids
        .get(from..)
        .map_or(0, |rest| rest.partition_point(|&x| x < id))
}

/// Forms one [`UnionPart::And`]'s contribution to chunk `id` in `target`
/// (every `pos` cursor sits on `id`); returns whether it holds any member.
/// Moves the subtrahend cursors past `id`.
fn and_not_chunk(
    level: crate::simd::SimdLevel,
    pos: &[&BitmapSet],
    neg: &[&BitmapSet],
    neg_arrays: &[&ArraySet],
    id: u32,
    cursor: &mut Cursor,
    target: &mut [u64; WORDS_PER_CHUNK],
) -> bool {
    let mut sets = pos.iter().zip(&cursor.pos).map(|(s, &at)| s.chunk(at));
    target.copy_from_slice(sets.next().unwrap_or(&[0; WORDS_PER_CHUNK]));
    for words in sets {
        if crate::simd::and_in_place_at(level, target, words) {
            return false;
        }
    }
    for (set, at) in neg.iter().zip(&mut cursor.neg) {
        *at = seek(&set.ids, *at, id);
        if set.ids.get(*at) == Some(&id) {
            for (t, &w) in target.iter_mut().zip(set.chunk(*at)) {
                *t &= !w;
            }
        }
    }
    for (array, at) in neg_arrays.iter().zip(&mut cursor.neg_arrays) {
        *at = array.seek_chunk(*at, id);
        if array.chunk_id(*at) == Some(id) {
            for &low in array.chunk_run(*at) {
                target[(low as usize >> 6) % WORDS_PER_CHUNK] &= !(1 << (low & 63));
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_core::elem::reference_intersection;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    fn sorted_pair(a: &BitmapSet, b: &BitmapSet) -> Vec<Elem> {
        let mut out = Vec::new();
        a.intersect_pair_into(b, &mut out);
        out
    }

    #[test]
    fn pair_matches_reference_across_chunk_boundaries() {
        let mut rng = StdRng::seed_from_u64(9);
        for trial in 0..20 {
            let universe = rng.gen_range(1..400_000u32);
            let n1 = rng.gen_range(0..3000);
            let n2 = rng.gen_range(0..3000);
            let a: SortedSet = (0..n1).map(|_| rng.gen_range(0..universe)).collect();
            let b: SortedSet = (0..n2).map(|_| rng.gen_range(0..universe)).collect();
            let ia = BitmapSet::build(&a);
            let ib = BitmapSet::build(&b);
            assert_eq!(
                sorted_pair(&ia, &ib),
                reference_intersection(&[a.as_slice(), b.as_slice()]),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn output_is_already_ascending() {
        // Interpreted execution (Miri) needs a smaller universe.
        const UNIVERSE: u32 = if cfg!(miri) { 10_000 } else { 100_000 };
        let a: SortedSet = (0..UNIVERSE).step_by(3).collect();
        let b: SortedSet = (0..UNIVERSE).step_by(5).collect();
        let out = sorted_pair(&BitmapSet::build(&a), &BitmapSet::build(&b));
        assert!(out.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(out, reference_intersection(&[a.as_slice(), b.as_slice()]));
    }

    #[test]
    fn k_way_matches_folded_pairs() {
        let mut rng = StdRng::seed_from_u64(11);
        for k in 2..=4usize {
            let sets: Vec<SortedSet> = (0..k)
                .map(|_| (0..1500).map(|_| rng.gen_range(0..120_000u32)).collect())
                .collect();
            let built: Vec<BitmapSet> = sets.iter().map(BitmapSet::build).collect();
            let refs: Vec<&BitmapSet> = built.iter().collect();
            let slices: Vec<&[Elem]> = sets.iter().map(|s| s.as_slice()).collect();
            assert_eq!(
                BitmapSet::intersect_k_sorted(&refs),
                reference_intersection(&slices),
                "k={k}"
            );
        }
    }

    #[test]
    fn boundary_values_round_trip() {
        let a = SortedSet::from_unsorted(vec![0, 65_535, 65_536, u32::MAX - 1, u32::MAX]);
        let b = SortedSet::from_unsorted(vec![0, 65_536, u32::MAX]);
        let ia = BitmapSet::build(&a);
        let ib = BitmapSet::build(&b);
        assert_eq!(sorted_pair(&ia, &ib), vec![0, 65_536, u32::MAX]);
        assert_eq!(ia.num_chunks(), 3);
    }

    #[test]
    fn empty_and_singleton() {
        let e = BitmapSet::build(&SortedSet::new());
        let s = BitmapSet::build(&SortedSet::from_unsorted(vec![42]));
        assert_eq!(sorted_pair(&e, &s), Vec::<Elem>::new());
        assert_eq!(sorted_pair(&s, &s), vec![42]);
        assert_eq!(e.n(), 0);
        assert_eq!(e.size_in_bytes(), 0);
        assert!(s.size_in_bytes() > 0);
    }

    #[test]
    fn count_chunks_matches_built_bitmap() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..10 {
            let n = rng.gen_range(0..2000);
            let u = rng.gen_range(1..3_000_000u32);
            let s: SortedSet = (0..n).map(|_| rng.gen_range(0..u)).collect();
            assert_eq!(
                BitmapSet::count_chunks(s.as_slice()),
                BitmapSet::build(&s).num_chunks()
            );
        }
        assert_eq!(BitmapSet::count_chunks(&[]), 0);
    }

    #[test]
    fn contains_matches_the_sorted_list() {
        // Chunks 1 and 3 populated, 0 and 2 untouched; interpreted
        // execution (Miri) probes a thinner sample of the same span.
        const STEP: usize = if cfg!(miri) { 997 } else { 7 };
        let set: SortedSet = (70_000..75_000u32)
            .step_by(3)
            .chain((200_000..203_000).step_by(5))
            .collect();
        let bm = BitmapSet::build(&set);
        assert_eq!(bm.num_chunks(), 2);
        // In-set and out-of-set inside populated chunks, below the first
        // chunk, in the gap chunk, and beyond the last.
        for x in (0..5 * 65_536u32).step_by(STEP) {
            assert_eq!(bm.contains(x), set.contains(x), "{x}");
        }
        for &x in set.as_slice().iter().step_by(STEP) {
            assert!(bm.contains(x), "{x}");
        }
        for x in [0, 65_535, 69_999, 70_001, 140_000, 203_000, u32::MAX] {
            assert!(!bm.contains(x), "{x}");
        }
        let edges = SortedSet::from_unsorted(vec![0, 65_535, 65_536, u32::MAX]);
        let bm = BitmapSet::build(&edges);
        for &x in edges.as_slice() {
            assert!(bm.contains(x), "{x}");
        }
        assert!(!bm.contains(1) && !bm.contains(u32::MAX - 1));
        assert!(!BitmapSet::build(&SortedSet::new()).contains(0));
    }

    #[test]
    fn k_way_union_matches_reference() {
        let mut rng = StdRng::seed_from_u64(17);
        for k in 1..=5usize {
            let sets: Vec<SortedSet> = (0..k)
                .map(|_| (0..1200).map(|_| rng.gen_range(0..150_000u32)).collect())
                .collect();
            let built: Vec<BitmapSet> = sets.iter().map(BitmapSet::build).collect();
            let expect: Vec<Elem> = sets
                .iter()
                .flat_map(|s| s.iter())
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            // The same union from bitmaps, from lists, and from a mix.
            let as_bitmaps: Vec<UnionPart> = built.iter().map(UnionPart::Bitmap).collect();
            let as_lists: Vec<UnionPart> =
                sets.iter().map(|s| UnionPart::List(s.as_slice())).collect();
            let mixed: Vec<UnionPart> = (0..k)
                .map(|i| as_bitmaps[i].clone())
                .step_by(2)
                .chain(as_lists.iter().skip(1).step_by(2).cloned())
                .collect();
            for parts in [&as_bitmaps, &as_lists, &mixed] {
                let mut out = Vec::new();
                chunk_union_into(parts, &mut out);
                assert_eq!(out, expect, "k={k}");
            }
        }
        let mut out = Vec::new();
        chunk_union_into(&[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn union_covers_disjoint_and_shared_chunks() {
        // a touches chunks {0, 1}, b touches {1, 0xFFFF}: exercises the
        // single-carrier fast path and the OR-accumulator path in one call.
        let a = SortedSet::from_unsorted(vec![3, 65_535, 65_536, 70_000]);
        let b = SortedSet::from_unsorted(vec![65_536, 70_001, u32::MAX]);
        let ia = BitmapSet::build(&a);
        let ib = BitmapSet::build(&b);
        let expect = vec![3, 65_535, 65_536, 70_000, 70_001, u32::MAX];
        for parts in [
            vec![UnionPart::Bitmap(&ia), UnionPart::Bitmap(&ib)],
            vec![UnionPart::List(a.as_slice()), UnionPart::Bitmap(&ib)],
            vec![UnionPart::Bitmap(&ia), UnionPart::List(b.as_slice())],
        ] {
            let mut out = Vec::new();
            chunk_union_into(&parts, &mut out);
            assert_eq!(out, expect);
        }
    }

    /// `(⋂ pos) ∖ (⋃ neg ∪ ⋃ neg_arrays)` as one part, and `OR`ed with
    /// bitmaps and lists, against sorted-set arithmetic.
    #[test]
    fn and_parts_match_set_arithmetic() {
        use std::collections::BTreeSet;
        let mut rng = StdRng::seed_from_u64(19);
        // Interpreted execution (Miri) needs fewer, smaller sets.
        let (trials, n) = if cfg!(miri) { (2, 300) } else { (12, 4000) };
        for trial in 0..trials {
            let universe = rng.gen_range(1..300_000u32);
            let mut draw = |n| -> SortedSet {
                (0..rng.gen_range(0..n))
                    .map(|_| rng.gen_range(0..universe))
                    .collect()
            };
            let pos: Vec<SortedSet> = (0..1 + trial % 3).map(|_| draw(4 * n)).collect();
            let neg: Vec<SortedSet> = (0..trial % 2 + 1).map(|_| draw(n)).collect();
            let lists: Vec<SortedSet> = (0..trial % 3).map(|_| draw(n)).collect();
            let other = draw(n);
            let pos_bm: Vec<BitmapSet> = pos.iter().map(BitmapSet::build).collect();
            let neg_bm: Vec<BitmapSet> = neg.iter().map(BitmapSet::build).collect();
            let other_bm = BitmapSet::build(&other);
            let arrays: Vec<ArraySet> = lists
                .iter()
                .map(|l| ArraySet::from_sorted_slice(l.as_slice()))
                .collect();
            let and = UnionPart::And {
                pos: pos_bm.iter().collect(),
                neg: neg_bm.iter().collect(),
                neg_arrays: arrays.iter().collect(),
            };
            let mut expect: BTreeSet<Elem> = pos[0].iter().collect();
            for p in &pos[1..] {
                expect.retain(|x| p.contains(*x));
            }
            for m in neg.iter().chain(&lists) {
                expect.retain(|x| !m.contains(*x));
            }
            let mut out = Vec::new();
            chunk_union_into(std::slice::from_ref(&and), &mut out);
            assert_eq!(
                out,
                expect.iter().copied().collect::<Vec<_>>(),
                "trial {trial}"
            );
            expect.extend(other.iter());
            for parts in [
                vec![and.clone(), UnionPart::Bitmap(&other_bm)],
                vec![UnionPart::List(other.as_slice()), and.clone()],
                vec![UnionPart::Bitmap(&other_bm), and.clone(), and.clone()],
            ] {
                let mut out = Vec::new();
                chunk_union_into(&parts, &mut out);
                assert_eq!(
                    out,
                    expect.iter().copied().collect::<Vec<_>>(),
                    "trial {trial}"
                );
            }
        }
    }

    #[test]
    fn single_set_k_extracts_everything() {
        let a: SortedSet = (0..10_000u32).step_by(7).collect();
        let ia = BitmapSet::build(&a);
        assert_eq!(BitmapSet::intersect_k_sorted(&[&ia]), a.as_slice());
    }

    /// The chunks the union property draws from: the first ones, one past
    /// a gap, and the top two, whose members run up to `u32::MAX`.
    const CHUNKS: [u32; 5] = [0, 1, 3, 0xFFFE, 0xFFFF];

    /// `n` distinct members of chunk `id`, drawn from 2 048 of its values —
    /// its lowest, or its highest in the top chunk (with `u32::MAX` among
    /// them) — so parts drawn from one chunk overlap.
    fn draw_chunk(rng: &mut StdRng, id: u32, n: usize) -> BTreeSet<Elem> {
        let base = if id == 0xFFFF { 0xFFFF_F800 } else { id << 16 };
        let mut set: BTreeSet<Elem> = BTreeSet::new();
        if id == 0xFFFF && n > 0 {
            set.insert(u32::MAX);
        }
        while set.len() < n {
            set.insert(base + rng.gen_range(0..2048));
        }
        set
    }

    /// Up to `n` members in each of a random subset of `chunks`.
    fn draw_parts(rng: &mut StdRng, chunks: &[u32], n: usize) -> BTreeSet<Elem> {
        let mut set = BTreeSet::new();
        for &id in chunks {
            if rng.gen_bool(0.6) {
                let k = rng.gen_range(0..=n);
                set.extend(draw_chunk(rng, id, k));
            }
        }
        set
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(
            if cfg!(miri) { 2 } else { 48 }
        ))]

        /// The chunk union over a shuffled mix of `Array`, `List`, `Bitmap`
        /// and `And` parts equals the `BTreeSet` union: one chunk's array
        /// and list runs total 1 023, 1 024 or 1 025 members (merged below
        /// [`WORDS_PER_CHUNK`], accumulated from it on), bitmap parts reach
        /// some chunks and not others, parts share members, some are empty,
        /// and the top chunk runs to `u32::MAX`. The union appends behind a
        /// prefix that ends with the first value it emits.
        #[test]
        fn chunk_union_matches_a_btreeset_over_mixed_parts(seed in proptest::prelude::any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            // Members per chunk of sparse and of bitmap parts; Miri
            // interprets, so it gets fewer.
            let (sparse, dense) = if cfg!(miri) { (30, 200) } else { (300, 2048) };
            let edge = CHUNKS[rng.gen_range(0..CHUNKS.len())];
            let others: Vec<u32> = CHUNKS.iter().copied().filter(|&c| c != edge).collect();
            let total = WORDS_PER_CHUNK - 1 + rng.gen_range(0..3);
            let split = rng.gen_range(0..=total);
            let mut lists: Vec<Vec<Elem>> = Vec::new();
            for n in [split, total - split] {
                let mut set = draw_chunk(&mut rng, edge, n);
                set.extend(draw_parts(&mut rng, &others, sparse));
                lists.push(set.into_iter().collect());
            }
            for _ in 0..rng.gen_range(0..4) {
                let n = if rng.gen_bool(0.2) { 0 } else { sparse };
                lists.push(draw_parts(&mut rng, &others, n).into_iter().collect());
            }
            let bitmap_part = |rng: &mut StdRng| -> Vec<Elem> {
                draw_parts(rng, &others, dense).into_iter().collect()
            };
            let bitmap_sets: Vec<Vec<Elem>> = (0..rng.gen_range(0..3)).map(|_| bitmap_part(&mut rng)).collect();
            let and_pos: Vec<Vec<Elem>> = (0..rng.gen_range(1..3)).map(|_| bitmap_part(&mut rng)).collect();
            let and_neg = bitmap_part(&mut rng);
            let and_neg_array: Vec<Elem> = draw_parts(&mut rng, &others, sparse).into_iter().collect();
            let with_and = rng.gen_bool(0.5);

            let mut expect: BTreeSet<Elem> = lists.iter().chain(&bitmap_sets).flatten().copied().collect();
            if with_and {
                let mut and: BTreeSet<Elem> = and_pos[0].iter().copied().collect();
                for p in &and_pos[1..] {
                    and.retain(|x| p.binary_search(x).is_ok());
                }
                and.retain(|x| and_neg.binary_search(x).is_err() && and_neg_array.binary_search(x).is_err());
                expect.extend(and);
            }
            let expect: Vec<Elem> = expect.into_iter().collect();

            let arrays: Vec<ArraySet> = lists.iter().map(|l| ArraySet::from_sorted_slice(l)).collect();
            let bitmaps: Vec<BitmapSet> = bitmap_sets.iter().map(|b| BitmapSet::from_sorted_slice(b)).collect();
            let pos: Vec<BitmapSet> = and_pos.iter().map(|b| BitmapSet::from_sorted_slice(b)).collect();
            let neg = BitmapSet::from_sorted_slice(&and_neg);
            let neg_array = ArraySet::from_sorted_slice(&and_neg_array);
            // The two edge parts are one array and one list; every other
            // sparse part is either.
            let mut parts: Vec<UnionPart> = lists
                .iter()
                .zip(&arrays)
                .enumerate()
                .map(|(i, (list, array))| match i {
                    0 => UnionPart::Array(array),
                    1 => UnionPart::List(list),
                    _ if rng.gen_bool(0.5) => UnionPart::Array(array),
                    _ => UnionPart::List(list),
                })
                .chain(bitmaps.iter().map(UnionPart::Bitmap))
                .collect();
            if with_and {
                parts.push(UnionPart::And {
                    pos: pos.iter().collect(),
                    neg: vec![&neg],
                    neg_arrays: vec![&neg_array],
                });
            }
            for i in (1..parts.len()).rev() {
                parts.swap(i, rng.gen_range(0..=i));
            }
            let prefix: Vec<Elem> = [7].into_iter().chain(expect.first().copied()).collect();
            let mut out = prefix.clone();
            chunk_union_into(&parts, &mut out);
            proptest::prop_assert_eq!(&out[..prefix.len()], &prefix[..]);
            proptest::prop_assert_eq!(&out[prefix.len()..], &expect[..]);
        }
    }
}
