//! Chunked-bitmap sets: Roaring-style dense containers intersected by
//! 64-bit-word `AND`.
//!
//! The universe `Σ = u32` is split into 2¹⁶-value chunks; a set stores, for
//! each chunk it touches, a 1024-word bitmap of the chunk's members.
//! Intersecting two sets walks the (short, sorted) chunk-id lists, `AND`s
//! the 1024 words of every chunk present in both, and extracts survivors
//! with the trailing-zeros trick of the paper's footnote 1 — one `AND` per
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
use fsi_core::word::BitIter;

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

    /// Appends chunk `ci`'s members (ascending) to `out`.
    fn extract_chunk(&self, ci: usize, out: &mut Vec<Elem>) {
        // audit:allow(hot_path_index): callers iterate ci over 0..ids.len(); ids and words are parallel per-chunk arrays
        let id = self.ids[ci];
        let chunk = &self.words[ci * WORDS_PER_CHUNK..][..WORDS_PER_CHUNK];
        extract_words(id, chunk, out);
    }

    /// k-way `OR`: walks all chunk-id lists in lockstep ascending order;
    /// each chunk id present anywhere is `OR`ed across every set carrying
    /// it (via the SIMD word primitive [`crate::simd::or_in_place_at`]) and
    /// extracted once. A chunk only one set touches skips the accumulator
    /// and extracts straight from that set's words. Output is ascending and
    /// duplicate-free — the dense-regime union counterpart of
    /// [`BitmapSet::intersect_k_into`].
    pub fn union_k_into(sets: &[&Self], out: &mut Vec<Elem>) {
        match sets {
            [] => {}
            [a] => {
                for ci in 0..a.ids.len() {
                    a.extract_chunk(ci, out);
                }
            }
            _ => {
                // One dispatch read for the whole sweep, not one per OR.
                let level = crate::simd::SimdLevel::active();
                let mut acc = [0u64; WORDS_PER_CHUNK];
                let mut cursors = vec![0usize; sets.len()];
                let next_id = |cursors: &[usize]| {
                    sets.iter()
                        .zip(cursors)
                        .filter_map(|(s, &c)| s.ids.get(c).copied())
                        .min()
                };
                while let Some(id) = next_id(&cursors) {
                    let carriers: Vec<usize> = sets
                        .iter()
                        .zip(&cursors)
                        .enumerate()
                        .filter(|(_, (s, &c))| s.ids.get(c) == Some(&id))
                        .map(|(si, _)| si)
                        .collect();
                    if let [only] = carriers.as_slice() {
                        sets[*only].extract_chunk(cursors[*only], out);
                    } else {
                        acc.fill(0);
                        for &si in &carriers {
                            let c = cursors[si];
                            crate::simd::or_in_place_at(
                                level,
                                &mut acc,
                                &sets[si].words[c * WORDS_PER_CHUNK..][..WORDS_PER_CHUNK],
                            );
                        }
                        extract_words(id, &acc, out);
                    }
                    for si in carriers {
                        cursors[si] += 1;
                    }
                }
            }
        }
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
                Ok(ci) => self
                    .set
                    .words
                    .get(ci * WORDS_PER_CHUNK..(ci + 1) * WORDS_PER_CHUNK)
                    .unwrap_or(&[]),
                Err(_) => &[],
            };
        }
        let low = (x & ((1 << CHUNK_BITS) - 1)) as usize;
        self.chunk
            .get(low >> 6)
            .is_some_and(|word| word >> (low & 63) & 1 == 1)
    }
}

/// Appends the members encoded by `chunk` (belonging to chunk `id`) to
/// `out`, ascending.
fn extract_words(id: u32, chunk: &[u64], out: &mut Vec<Elem>) {
    let hi = id << CHUNK_BITS;
    for (w, &word) in chunk.iter().enumerate() {
        if word == 0 {
            continue;
        }
        let base = hi | ((w as u32) << 6);
        for bit in BitIter::new(word) {
            out.push(base | bit);
        }
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
                    // Wide AND at the dispatched SIMD level: 2/4 words per
                    // instruction, PTEST-skipped all-zero groups, scalar
                    // trailing-zeros extraction of survivors.
                    crate::simd::and_extract_at(level, hi, a, b, out);
                    i += 1;
                    j += 1;
                }
            }
        }
    }
}

impl KIntersect for BitmapSet {
    /// k-way `AND`: drives on the set with the fewest chunks, locating each
    /// of its chunks in every other set by binary search, then `AND`s all
    /// `k` words before extraction. Output is ascending.
    fn intersect_k_into(indexes: &[&Self], out: &mut Vec<Elem>) {
        match indexes {
            [] => {}
            [a] => {
                for ci in 0..a.ids.len() {
                    a.extract_chunk(ci, out);
                }
            }
            _ => {
                let driver = indexes
                    .iter()
                    .min_by_key(|ix| ix.ids.len())
                    // audit:allow(hot_path_panic): the k >= 2 dispatch precondition guarantees a minimum exists
                    .expect("k >= 2");
                // One dispatch read for the whole sweep, not one per AND.
                let level = crate::simd::SimdLevel::active();
                let mut anded = [0u64; WORDS_PER_CHUNK];
                'chunks: for (ci, &id) in driver.ids.iter().enumerate() {
                    anded.copy_from_slice(&driver.words[ci * WORDS_PER_CHUNK..][..WORDS_PER_CHUNK]);
                    for other in indexes {
                        if std::ptr::eq(*other, *driver) {
                            continue;
                        }
                        let Ok(cj) = other.ids.binary_search(&id) else {
                            continue 'chunks;
                        };
                        let b = &other.words[cj * WORDS_PER_CHUNK..][..WORDS_PER_CHUNK];
                        if crate::simd::and_in_place_at(level, &mut anded, b) {
                            continue 'chunks;
                        }
                    }
                    extract_words(id, &anded, out);
                }
            }
        }
    }
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
            let refs: Vec<&BitmapSet> = built.iter().collect();
            let expect: Vec<Elem> = sets
                .iter()
                .flat_map(|s| s.iter())
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            let mut out = Vec::new();
            BitmapSet::union_k_into(&refs, &mut out);
            assert_eq!(out, expect, "k={k}");
        }
        let mut out = Vec::new();
        BitmapSet::union_k_into(&[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn union_covers_disjoint_and_shared_chunks() {
        // a touches chunks {0, 1}, b touches {1, 65537-chunk}: exercises the
        // single-carrier fast path and the OR-accumulator path in one call.
        let a = SortedSet::from_unsorted(vec![3, 65_535, 65_536, 70_000]);
        let b = SortedSet::from_unsorted(vec![65_536, 70_001, u32::MAX]);
        let ia = BitmapSet::build(&a);
        let ib = BitmapSet::build(&b);
        let mut out = Vec::new();
        BitmapSet::union_k_into(&[&ia, &ib], &mut out);
        assert_eq!(out, vec![3, 65_535, 65_536, 70_000, 70_001, u32::MAX]);
    }

    #[test]
    fn single_set_k_extracts_everything() {
        let a: SortedSet = (0..10_000u32).step_by(7).collect();
        let ia = BitmapSet::build(&a);
        assert_eq!(BitmapSet::intersect_k_sorted(&[&ia]), a.as_slice());
    }
}
