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
//! The same structure answers point membership ([`BitmapSet::contains`],
//! [`BitmapSet::probe`]): a chunk lookup and one bit test, which is what
//! a sparse list probing a dense one needs instead of a sweep.

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
    /// Builds the chunked bitmap of `set` in one ascending pass.
    pub fn build(set: &SortedSet) -> Self {
        Self::from_sorted_slice(set.as_slice())
    }

    /// Builds from a sorted, duplicate-free slice.
    pub fn from_sorted_slice(elems: &[Elem]) -> Self {
        let mut ids: Vec<u32> = Vec::new();
        let mut words: Vec<u64> = Vec::new();
        for &x in elems {
            let id = x >> CHUNK_BITS;
            if ids.last() != Some(&id) {
                ids.push(id);
                words.resize(words.len() + WORDS_PER_CHUNK, 0);
            }
            let low = (x & ((1 << CHUNK_BITS) - 1)) as usize;
            let base = words.len() - WORDS_PER_CHUNK;
            words[base + (low >> 6)] |= 1u64 << (low & 63);
        }
        Self {
            n: elems.len(),
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
    /// [`BitmapSet::from_sorted_slice`], without building any bitmap.
    /// Cost models (the `fsi-index` planner) price the chunk sweep with
    /// this.
    pub fn count_chunks(elems: &[Elem]) -> usize {
        let mut count = 0usize;
        let mut last = None;
        for &x in elems {
            let id = x >> CHUNK_BITS;
            if last != Some(id) {
                count += 1;
                last = Some(id);
            }
        }
        count
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
                neg_lists: Vec::new(),
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
    /// `(⋂ pos) ∖ (⋃ neg ∪ ⋃ neg_lists)`, formed per chunk without
    /// extracting: the `AND` of `pos`'s words, minus `neg`'s words, minus
    /// the bits of `neg_lists`' members. It contributes only to chunks
    /// every set in `pos` touches. `pos` must not be empty.
    And {
        /// Intersected bitmaps.
        pos: Vec<&'a BitmapSet>,
        /// Subtracted bitmaps, removed word by word.
        neg: Vec<&'a BitmapSet>,
        /// Subtracted sorted lists, removed by clearing their members' bits.
        neg_lists: Vec<&'a [Elem]>,
    },
    /// A sorted, duplicate-free list: its members' bits are set.
    List(&'a [Elem]),
}

/// Appends the union of `parts` to `out`, ascending and duplicate-free, one
/// chunk at a time: for each chunk id any part contributes to, in
/// ascending order, one 8 KiB accumulator gathers every contribution and
/// the chunk's members leave through one [`extract_into_at`] walk. A chunk
/// only one bitmap contributes to is extracted straight from that
/// bitmap's words. No part is ever extracted on its own, so a union over
/// intersections pays one extraction for its result and none for its
/// operands.
///
/// [`extract_into_at`]: crate::simd::extract_into_at
pub fn chunk_union_into(parts: &[UnionPart<'_>], out: &mut Vec<Elem>) {
    // One dispatch read for the whole sweep, not one per word primitive.
    let level = crate::simd::SimdLevel::active();
    let mut cursors: Vec<Cursor> = parts.iter().map(Cursor::new).collect();
    let mut acc = [0u64; WORDS_PER_CHUNK];
    let mut scratch = [0u64; WORDS_PER_CHUNK];
    while let Some(id) = cursors.iter().filter_map(|c| c.next).min() {
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
                        crate::simd::or_in_place_at(level, &mut acc, words);
                    } else if let Some(first) = borrowed {
                        acc.copy_from_slice(first);
                        crate::simd::or_in_place_at(level, &mut acc, words);
                        in_acc = true;
                    } else {
                        borrowed = Some(words);
                    }
                    cursor.at += 1;
                }
                UnionPart::List(xs) => {
                    let run = chunk_run(xs, cursor.at, id);
                    cursor.at = run.end;
                    if !in_acc {
                        match borrowed {
                            Some(first) => acc.copy_from_slice(first),
                            None => acc.fill(0),
                        }
                        in_acc = true;
                    }
                    for &x in xs.get(run).unwrap_or(&[]) {
                        acc[(x as usize >> 6) % WORDS_PER_CHUNK] |= 1 << (x & 63);
                    }
                }
                UnionPart::And {
                    pos,
                    neg,
                    neg_lists,
                } => {
                    // Formed in `acc` while the chunk holds nothing of its
                    // own yet, else in `scratch` and then ORed in.
                    let target = if in_acc { &mut scratch } else { &mut acc };
                    let nonempty = and_not_chunk(level, pos, neg, neg_lists, id, cursor, target);
                    if nonempty {
                        if in_acc {
                            crate::simd::or_in_place_at(level, &mut acc, &scratch);
                        } else {
                            if let Some(first) = borrowed {
                                crate::simd::or_in_place_at(level, &mut acc, first);
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

/// Where one [`UnionPart`] is in its walk.
struct Cursor {
    /// The chunk id the part contributes to next; `None` once it is done.
    next: Option<u32>,
    /// `Bitmap`: index of its next chunk; `List`: index of its next member.
    at: usize,
    /// `And`: per `pos` set, index of its next chunk.
    pos: Vec<usize>,
    /// `And`: per `neg` set, index of its first chunk not yet passed.
    neg: Vec<usize>,
    /// `And`: per `neg_lists` list, index of its first member not yet
    /// passed.
    neg_lists: Vec<usize>,
}

impl Cursor {
    fn new(part: &UnionPart<'_>) -> Self {
        let (pos, neg, neg_lists) = match part {
            UnionPart::And {
                pos,
                neg,
                neg_lists,
            } => (
                vec![0; pos.len()],
                vec![0; neg.len()],
                vec![0; neg_lists.len()],
            ),
            _ => Default::default(),
        };
        let mut c = Cursor {
            next: None,
            at: 0,
            pos,
            neg,
            neg_lists,
        };
        c.next = c.align(part);
        c
    }

    /// The first chunk id at or past the cursor that `part` contributes to;
    /// for an `And`, moves every `pos` cursor onto it.
    fn align(&mut self, part: &UnionPart<'_>) -> Option<u32> {
        match part {
            UnionPart::Bitmap(b) => b.ids.get(self.at).copied(),
            UnionPart::List(xs) => xs.get(self.at).map(|&x| x >> CHUNK_BITS),
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

/// Where the members of `xs` in chunk `id` lie, searching from index
/// `from` (every earlier member lies in an earlier chunk).
fn chunk_run(xs: &[Elem], from: usize, id: u32) -> std::ops::Range<usize> {
    let lo = from
        + xs.get(from..)
            .map_or(0, |rest| rest.partition_point(|&x| x >> CHUNK_BITS < id));
    let hi = lo
        + xs.get(lo..)
            .map_or(0, |rest| rest.partition_point(|&x| x >> CHUNK_BITS == id));
    lo..hi
}

/// Forms one [`UnionPart::And`]'s contribution to chunk `id` in `target`
/// (every `pos` cursor sits on `id`); returns whether it holds any member.
/// Moves the subtrahend cursors past `id`.
fn and_not_chunk(
    level: crate::simd::SimdLevel,
    pos: &[&BitmapSet],
    neg: &[&BitmapSet],
    neg_lists: &[&[Elem]],
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
    for (xs, at) in neg_lists.iter().zip(&mut cursor.neg_lists) {
        let run = chunk_run(xs, *at, id);
        *at = run.end;
        for &x in xs.get(run).unwrap_or(&[]) {
            target[(x as usize >> 6) % WORDS_PER_CHUNK] &= !(1 << (x & 63));
        }
    }
    true
}

/// The slice-level bitmap kernel: builds the chunked bitmaps on the fly
/// (cost `O(n)`, the same order as reading the input) and intersects them
/// word-parallel. The prepared form ([`BitmapSet`]) is what `fsi-index`
/// strategies store; this form is what runtime kernel selection uses on raw
/// slices.
#[derive(Debug, Clone, Copy, Default)]
pub struct BitmapKernel;

impl crate::kernel::Kernel for BitmapKernel {
    fn name(&self) -> &'static str {
        "Bitmap"
    }

    fn intersect_pair(&self, a: &[Elem], b: &[Elem], out: &mut Vec<Elem>) {
        BitmapSet::from_sorted_slice(a).intersect_pair_into(&BitmapSet::from_sorted_slice(b), out);
    }

    fn intersect_k(&self, sets: &[&[Elem]], out: &mut Vec<Elem>) {
        let built: Vec<BitmapSet> = sets
            .iter()
            .map(|s| BitmapSet::from_sorted_slice(s))
            .collect();
        let refs: Vec<&BitmapSet> = built.iter().collect();
        BitmapSet::intersect_k_into(&refs, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_core::elem::reference_intersection;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// `(⋂ pos) ∖ (⋃ neg ∪ ⋃ neg_lists)` as one part, and `OR`ed with
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
            let and = UnionPart::And {
                pos: pos_bm.iter().collect(),
                neg: neg_bm.iter().collect(),
                neg_lists: lists.iter().map(|l| l.as_slice()).collect(),
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
}
