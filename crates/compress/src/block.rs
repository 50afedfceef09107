//! Skip-augmented block postings — the compressed representation the
//! kernels intersect **without full decode**.
//!
//! [`CompressedPostings`](crate::CompressedPostings) proves the space story
//! of Section 4.1 but is a one-shot stream: intersecting it means decoding
//! every element. [`BlockPostings`] restructures the same gap coding for
//! compressed-domain execution, the design space "Trie-Compressed
//! Intersectable Sets" maps (see `PAPERS.md`):
//!
//! * elements are split into fixed-cardinality blocks of [`BLOCK_LEN`]
//!   docs;
//! * each block is fronted by a [`SkipEntry`] — `first_doc`, `last_doc`,
//!   payload bit offset, element count, packed width — kept in a flat
//!   structure-of-arrays skip table;
//! * the payload stores only the `count − 1` **gaps** of each block
//!   (the first element lives in the skip entry), under one of three
//!   [`BlockCodec`]s.
//!
//! A seek by doc id binary-searches the skip table (`last_doc` is
//! monotone), so a galloping or k-way probe touches — and decodes — only
//! the blocks the other operand actually reaches. The [`BlockCodec::Packed`]
//! payload decodes through `fsi_kernels::simd::unpack_deltas`, the
//! SIMD bulk unpack (AVX2 gather + in-register prefix sum, scalar twin
//! under `force-scalar`), into a 128-element scratch buffer that feeds the
//! existing `merge_into`/k-way kernels.
//!
//! See `docs/compress.md` for the on-heap layout and the planner's
//! decode-cost model over this structure.

use crate::bitio::{BitBuf, BitWriter};
use crate::elias::EliasCode;
use fsi_core::elem::Elem;
use fsi_core::traits::{KIntersect, PairIntersect, SetIndex};
use fsi_kernels::multiway::{compressed_probe_into, SkipCursor};
use fsi_kernels::GALLOP_RATIO;

/// Elements per block: 128 docs keeps a whole decoded block in two cache
/// lines' worth of `u32`s and makes the skip table 1/128th of the list.
pub const BLOCK_LEN: usize = 128;

/// How one block's gaps are stored in the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockCodec {
    /// Elias γ over gaps (bit-serial decode).
    Gamma,
    /// Elias δ over gaps (bit-serial decode).
    Delta,
    /// Per-block fixed-width binary packing of `gap − 1` (frame-of-
    /// reference): the width is the block's widest gap, so dense runs cost
    /// 0 bits per element. Decodes through the SIMD bulk unpack.
    Packed,
}

impl BlockCodec {
    /// Every codec, in the order benchmarks report them.
    pub const ALL: [BlockCodec; 3] = [BlockCodec::Gamma, BlockCodec::Delta, BlockCodec::Packed];

    /// Display suffix matching the benchmark row labels
    /// (`CompressedGallop_Packed`, …).
    pub fn label(self) -> &'static str {
        match self {
            BlockCodec::Gamma => "Gamma",
            BlockCodec::Delta => "Delta",
            BlockCodec::Packed => "Packed",
        }
    }

    /// The Elias code behind this codec, if it is bit-serial.
    fn elias(self) -> Option<EliasCode> {
        match self {
            BlockCodec::Gamma => Some(EliasCode::Gamma),
            BlockCodec::Delta => Some(EliasCode::Delta),
            BlockCodec::Packed => None,
        }
    }
}

/// The per-block directory entry galloping seeks consult. `last_doc` is
/// monotone across the skip table, so "first block that can contain
/// `target`" is one `partition_point`; a block whose range excludes the
/// target is skipped without touching its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkipEntry {
    /// Smallest doc id in the block (not stored in the payload).
    pub first_doc: Elem,
    /// Largest doc id in the block.
    pub last_doc: Elem,
    /// Payload bit offset of the block's first gap field.
    pub offset: u32,
    /// Elements in the block (`1..=BLOCK_LEN`).
    pub count: u16,
    /// Packed field width in bits ([`BlockCodec::Packed`] only; 0 for a
    /// fully dense run).
    pub width: u8,
}

/// LSB-first bit packer for the [`BlockCodec::Packed`] payload (the SIMD
/// unpack gathers little-endian words, so the packed stream is LSB-first
/// unlike [`BitWriter`]'s MSB-first Elias substrate).
#[derive(Debug, Default)]
struct PackedWriter {
    bytes: Vec<u8>,
    bitlen: usize,
}

impl PackedWriter {
    /// Appends the low `width` bits of `value`.
    fn push(&mut self, value: u32, width: u32) {
        if width == 0 {
            return;
        }
        let pos = self.bitlen;
        self.bitlen += width as usize;
        self.bytes.resize(self.bitlen.div_ceil(8), 0);
        let shifted = u64::from(value) << (pos % 8);
        let byte = pos / 8;
        let span = ((pos % 8) + width as usize).div_ceil(8);
        for j in 0..span {
            self.bytes[byte + j] |= (shifted >> (8 * j)) as u8;
        }
    }

    /// Finishes the stream, appending the 8 zero tail-padding bytes the
    /// whole-word decode loads require.
    fn finish(mut self) -> Vec<u8> {
        self.bytes.extend_from_slice(&[0u8; 8]);
        self.bytes
    }
}

/// Gap-compressed postings in fixed-cardinality blocks behind a skip
/// table — sorted, duplicate-free doc ids intersectable in the compressed
/// domain. See the module docs for the layout.
#[derive(Debug, Clone)]
pub struct BlockPostings {
    codec: BlockCodec,
    n: usize,
    skips: Vec<SkipEntry>,
    /// Elias payload (empty for [`BlockCodec::Packed`]).
    bits: BitBuf,
    /// Packed payload, LSB-first with 8 tail padding bytes (empty for the
    /// Elias codecs).
    bytes: Vec<u8>,
}

impl BlockPostings {
    /// Builds from a sorted, strictly increasing slice.
    pub fn from_slice(codec: BlockCodec, set: &[Elem]) -> Self {
        debug_assert!(
            set.windows(2).all(|w| w[0] < w[1]),
            "input must be sorted and duplicate-free"
        );
        let mut skips = Vec::with_capacity(set.len().div_ceil(BLOCK_LEN));
        let mut bitw = BitWriter::new();
        let mut packed = PackedWriter::default();
        for block in set.chunks(BLOCK_LEN) {
            let offset = match codec.elias() {
                Some(_) => bitw.len(),
                None => packed.bitlen,
            };
            // audit:allow(hot_path_panic): offsets past 4 Gbit (512 MB of payload per list) are out of scope, as in postings.rs
            let offset = u32::try_from(offset).expect("bit stream exceeds 4 Gbit");
            let first_doc = block[0];
            let last_doc = block[block.len() - 1];
            let width = match codec.elias() {
                Some(code) => {
                    for gap in block.windows(2).map(|w| u64::from(w[1] - w[0])) {
                        code.encode(&mut bitw, gap);
                    }
                    0u8
                }
                None => {
                    let width = block
                        .windows(2)
                        .map(|w| 32 - (w[1] - w[0] - 1).leading_zeros())
                        .max()
                        .unwrap_or(0);
                    for delta in block.windows(2).map(|w| w[1] - w[0] - 1) {
                        packed.push(delta, width);
                    }
                    width as u8
                }
            };
            skips.push(SkipEntry {
                first_doc,
                last_doc,
                offset,
                count: block.len() as u16,
                width,
            });
        }
        BlockPostings {
            codec,
            n: set.len(),
            skips,
            bits: bitw.finish(),
            bytes: match codec.elias() {
                Some(_) => Vec::new(),
                None => packed.finish(),
            },
        }
    }

    /// The codec this list was built under.
    pub fn codec(&self) -> BlockCodec {
        self.codec
    }

    /// Number of blocks (= skip-table entries).
    pub fn block_count(&self) -> usize {
        self.skips.len()
    }

    /// The skip table, one entry per block.
    pub fn skips(&self) -> &[SkipEntry] {
        &self.skips
    }

    /// What [`BlockPostings::from_slice`] would occupy for `set` under
    /// `codec`, in bytes, **without building anything**. Exact: equals
    /// [`SetIndex::size_in_bytes`] of the built structure.
    pub fn measure(codec: BlockCodec, set: &[Elem]) -> usize {
        let header = set.len().div_ceil(BLOCK_LEN) * std::mem::size_of::<SkipEntry>();
        let payload_bits: usize = set
            .chunks(BLOCK_LEN)
            .map(|block| match codec.elias() {
                Some(code) => block
                    .windows(2)
                    .map(|w| elias_len(code, u64::from(w[1] - w[0])))
                    .sum(),
                None => {
                    let width = block
                        .windows(2)
                        .map(|w| 32 - (w[1] - w[0] - 1).leading_zeros())
                        .max()
                        .unwrap_or(0);
                    (block.len() - 1) * width as usize
                }
            })
            .sum();
        header
            + match codec.elias() {
                // BitBuf stores whole u64 words.
                Some(_) => payload_bits.div_ceil(64) * 8,
                // Byte-granular plus the 8 tail padding bytes.
                None => payload_bits.div_ceil(8) + 8,
            }
    }

    /// Appends block `i`'s elements to `out`, ascending. The
    /// [`BlockCodec::Packed`] path is the SIMD bulk unpack; the Elias
    /// paths are the bit-serial gap walk.
    pub fn decode_block_into(&self, i: usize, out: &mut Vec<Elem>) {
        assert!(i < self.skips.len(), "block index out of range");
        let e = self.skips[i];
        match self.codec.elias() {
            Some(code) => {
                let mut r = self.bits.reader();
                r.seek(e.offset as usize);
                out.reserve(e.count as usize);
                let mut val = e.first_doc;
                out.push(val);
                for _ in 1..e.count {
                    val += code.decode(&mut r) as u32;
                    out.push(val);
                }
            }
            None => fsi_kernels::simd::unpack_deltas(
                &self.bytes,
                e.offset as usize,
                u32::from(e.width),
                e.first_doc,
                e.count as usize,
                out,
            ),
        }
    }

    /// Appends every element to `out`, ascending — the decode-then-
    /// intersect baseline's first step.
    pub fn decode_into(&self, out: &mut Vec<Elem>) {
        out.reserve(self.n);
        for i in 0..self.skips.len() {
            self.decode_block_into(i, out);
        }
    }

    /// All elements as a fresh vector (round-trip tests, baselines).
    pub fn decode_all(&self) -> Vec<Elem> {
        let mut out = Vec::new();
        self.decode_into(&mut out);
        out
    }

    /// A [`SkipCursor`] positioned at the first element: the handle the
    /// k-way [`compressed_probe_into`] drives. Seeks consult only the skip
    /// table until they land inside a block; a block is bulk-decoded at
    /// most once per visit into the cursor's reusable scratch buffer.
    pub fn cursor(&self) -> BlockCursor<'_> {
        BlockCursor {
            post: self,
            block: 0,
            idx: 0,
            buf: Vec::new(),
            decoded: false,
        }
    }
}

/// Code length of `x ≥ 1` under an Elias code, in bits.
fn elias_len(code: EliasCode, x: u64) -> usize {
    let nbits = (64 - x.leading_zeros()) as usize; // ⌊log₂ x⌋ + 1
    match code {
        EliasCode::Gamma => 2 * nbits - 1,
        EliasCode::Delta => {
            let lbits = 64 - (nbits as u64).leading_zeros() as usize;
            (2 * lbits - 1) + nbits - 1
        }
    }
}

impl SetIndex for BlockPostings {
    fn n(&self) -> usize {
        self.n
    }

    fn size_in_bytes(&self) -> usize {
        self.skips.len() * std::mem::size_of::<SkipEntry>()
            + self.bits.size_in_bytes()
            + self.bytes.len()
    }
}

impl PairIntersect for BlockPostings {
    /// Compressed-domain pair intersection, ascending. Mirrors
    /// `GallopingSet`'s adaptivity: skewed sizes run the skip-table probe
    /// (the small side drives, the large side decodes only the blocks
    /// probes land in); balanced sizes run a block-range merge that feeds
    /// each overlapping block pair — decoded into two reusable scratch
    /// buffers — to the vectorized `merge_into`.
    fn intersect_pair_into(&self, other: &Self, out: &mut Vec<Elem>) {
        let (small, large) = if self.n <= other.n {
            (self, other)
        } else {
            (other, self)
        };
        if small.n == 0 {
            return;
        }
        if large.n / small.n >= GALLOP_RATIO {
            let mut cursors = [small.cursor(), large.cursor()];
            compressed_probe_into(&mut cursors, out);
            return;
        }
        // Balanced: sweep the two skip tables, decode each overlapping
        // block pair, and merge. An element lives in exactly one block per
        // side, so each common element is emitted by exactly one pair, in
        // ascending order.
        let (sa, sb) = (&self.skips, &other.skips);
        let (mut ia, mut ib) = (0usize, 0usize);
        let (mut buf_a, mut buf_b) = (Vec::new(), Vec::new());
        let (mut dec_a, mut dec_b) = (usize::MAX, usize::MAX);
        while ia < sa.len() && ib < sb.len() {
            let (ea, eb) = (sa[ia], sb[ib]);
            if ea.last_doc < eb.first_doc {
                ia += 1;
            } else if eb.last_doc < ea.first_doc {
                ib += 1;
            } else {
                if dec_a != ia {
                    buf_a.clear();
                    self.decode_block_into(ia, &mut buf_a);
                    dec_a = ia;
                }
                if dec_b != ib {
                    buf_b.clear();
                    other.decode_block_into(ib, &mut buf_b);
                    dec_b = ib;
                }
                fsi_kernels::simd::merge_into(&buf_a, &buf_b, out);
                // Advance the block that ends first; on a tie both ranges
                // are exhausted and the next comparison skips the other.
                if ea.last_doc <= eb.last_doc {
                    ia += 1;
                } else {
                    ib += 1;
                }
            }
        }
    }
}

impl KIntersect for BlockPostings {
    /// k-way compressed-domain intersection, ascending: the adaptive pair
    /// path for `k = 2`, the skip-cursor [`compressed_probe_into`] above
    /// that (the shortest list drives; the others decode only the blocks
    /// probes reach). Operands may use different codecs.
    fn intersect_k_into(indexes: &[&Self], out: &mut Vec<Elem>) {
        match indexes {
            [] => {}
            [a] => a.decode_into(out),
            [a, b] => a.intersect_pair_into(b, out),
            _ => {
                let mut cursors: Vec<BlockCursor> = indexes.iter().map(|p| p.cursor()).collect();
                compressed_probe_into(&mut cursors, out);
            }
        }
    }
}

/// A streaming, seekable cursor over [`BlockPostings`] (see
/// [`BlockPostings::cursor`]). Invariant: whenever `idx > 0`, `buf` holds
/// the current block's decoded elements.
#[derive(Debug, Clone)]
pub struct BlockCursor<'a> {
    post: &'a BlockPostings,
    /// Current block index (`== skips.len()` once exhausted).
    block: usize,
    /// Position within the current block.
    idx: usize,
    /// Reusable scratch: the decoded current block (when `decoded`).
    buf: Vec<Elem>,
    decoded: bool,
}

impl BlockCursor<'_> {
    fn ensure_decoded(&mut self) {
        if !self.decoded {
            self.buf.clear();
            self.post.decode_block_into(self.block, &mut self.buf);
            self.decoded = true;
        }
    }
}

impl SkipCursor for BlockCursor<'_> {
    fn len(&self) -> usize {
        self.post.n
    }

    fn current(&self) -> Option<Elem> {
        let e = self.post.skips.get(self.block)?;
        if self.idx == 0 {
            // The block's first element lives in the skip entry: readable
            // without decoding the payload.
            Some(e.first_doc)
        } else {
            self.buf.get(self.idx).copied()
        }
    }

    fn advance(&mut self) {
        let Some(&e) = self.post.skips.get(self.block) else {
            return;
        };
        if self.idx + 1 < e.count as usize {
            // Stepping inside the block: materialize it for current().
            self.ensure_decoded();
            debug_assert_eq!(self.buf.len(), e.count as usize);
            self.idx += 1;
        } else {
            self.block += 1;
            self.idx = 0;
            self.decoded = false;
        }
    }

    fn seek(&mut self, target: Elem) -> Option<Elem> {
        match self.current() {
            None => return None,
            Some(v) if v >= target => return Some(v),
            Some(_) => {}
        }
        if self.post.skips[self.block].last_doc < target {
            // Whole-block skip: binary-search the (monotone) last_doc
            // column for the first block that can contain the target. The
            // skipped blocks' payloads are never decoded.
            let rel = self.post.skips[self.block + 1..].partition_point(|e| e.last_doc < target);
            self.block += 1 + rel;
            self.idx = 0;
            self.decoded = false;
            let e = self.post.skips.get(self.block)?;
            if target <= e.first_doc {
                return Some(e.first_doc);
            }
        }
        // The target falls inside the current block's range: decode it
        // (once) and binary-search the remainder.
        self.ensure_decoded();
        let fwd = self.buf[self.idx..].partition_point(|&x| x < target);
        self.idx += fwd;
        self.buf.get(self.idx).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_set(rng: &mut StdRng, n: usize, universe: u32) -> Vec<Elem> {
        let mut v: Vec<Elem> = (0..n * 2)
            .map(|_| rng.gen_range(0..universe.max(1)))
            .collect();
        v.sort_unstable();
        v.dedup();
        v.truncate(n);
        v
    }

    #[test]
    fn round_trips_hostile_block_boundaries() {
        let mut rng = StdRng::seed_from_u64(11);
        for codec in BlockCodec::ALL {
            for n in [0usize, 1, 2, 127, 128, 129, 255, 256, 257, 1000] {
                let set = random_set(&mut rng, n, 1 << 20);
                let bp = BlockPostings::from_slice(codec, &set);
                assert_eq!(bp.n(), set.len());
                assert_eq!(bp.decode_all(), set, "{codec:?} n={n}");
                assert_eq!(bp.block_count(), set.len().div_ceil(BLOCK_LEN));
            }
        }
    }

    #[test]
    fn round_trips_extreme_gaps() {
        // Max-doc-id deltas: the widest possible gaps, in every codec.
        let hostile: Vec<Vec<Elem>> = vec![
            vec![u32::MAX],
            vec![0, u32::MAX],
            vec![0, 1, u32::MAX - 1, u32::MAX],
            vec![u32::MAX - 1, u32::MAX],
            (0..129u32).map(|i| i.saturating_mul(33_000_000)).collect(),
        ];
        for codec in BlockCodec::ALL {
            for set in &hostile {
                let bp = BlockPostings::from_slice(codec, set);
                assert_eq!(&bp.decode_all(), set, "{codec:?} {set:?}");
            }
        }
    }

    #[test]
    fn dense_runs_pack_to_zero_width() {
        let set: Vec<Elem> = (1000..1000 + 4 * BLOCK_LEN as u32).collect();
        let bp = BlockPostings::from_slice(BlockCodec::Packed, &set);
        assert!(bp.skips().iter().all(|e| e.width == 0));
        // Payload is only the 8 padding bytes: the whole list lives in the
        // skip table.
        assert_eq!(
            bp.size_in_bytes(),
            bp.block_count() * std::mem::size_of::<SkipEntry>() + 8
        );
        assert_eq!(bp.decode_all(), set);
    }

    #[test]
    fn measure_is_exact() {
        let mut rng = StdRng::seed_from_u64(12);
        for codec in BlockCodec::ALL {
            for n in [0usize, 1, 127, 128, 129, 1000, 5000] {
                for universe in [1u32 << 12, 1 << 20, u32::MAX] {
                    let set = random_set(&mut rng, n, universe);
                    let bp = BlockPostings::from_slice(codec, &set);
                    assert_eq!(
                        BlockPostings::measure(codec, &set),
                        bp.size_in_bytes(),
                        "{codec:?} n={n} u={universe}"
                    );
                }
            }
        }
    }

    #[test]
    fn skip_entries_describe_their_blocks() {
        let mut rng = StdRng::seed_from_u64(13);
        let set = random_set(&mut rng, 1000, 1 << 24);
        let bp = BlockPostings::from_slice(BlockCodec::Packed, &set);
        let mut total = 0usize;
        for (i, e) in bp.skips().iter().enumerate() {
            let block = &set[i * BLOCK_LEN..(i * BLOCK_LEN + e.count as usize).min(set.len())];
            assert_eq!(e.first_doc, block[0]);
            assert_eq!(e.last_doc, *block.last().unwrap());
            assert_eq!(e.count as usize, block.len());
            total += e.count as usize;
        }
        assert_eq!(total, set.len());
        // last_doc is monotone: the seek's partition_point relies on it.
        assert!(bp
            .skips()
            .windows(2)
            .all(|w| w[0].last_doc < w[1].first_doc));
    }

    #[test]
    fn cursor_walks_and_seeks() {
        let set: Vec<Elem> = (0..500u32).map(|i| i * 7).collect();
        let bp = BlockPostings::from_slice(BlockCodec::Packed, &set);
        let mut c = bp.cursor();
        assert_eq!(c.len(), 500);
        assert_eq!(c.current(), Some(0));
        c.advance();
        assert_eq!(c.current(), Some(7));
        assert_eq!(c.seek(7), Some(7), "seek to current is a no-op");
        assert_eq!(c.seek(8), Some(14));
        // Cross-block seek: element 7*450 lives in block 3.
        assert_eq!(c.seek(7 * 450 - 3), Some(7 * 450));
        assert_eq!(c.seek(7 * 499 + 1), None, "past the end exhausts");
        assert_eq!(c.current(), None);
    }

    #[test]
    fn cursor_drain_matches_decode_all_every_codec() {
        let mut rng = StdRng::seed_from_u64(14);
        for codec in BlockCodec::ALL {
            let set = random_set(&mut rng, 700, 1 << 22);
            let bp = BlockPostings::from_slice(codec, &set);
            let mut walked = Vec::new();
            let mut c = bp.cursor();
            while let Some(v) = c.current() {
                walked.push(v);
                c.advance();
            }
            assert_eq!(walked, set, "{codec:?}");
        }
    }

    #[test]
    fn pair_intersection_matches_reference_both_regimes() {
        let mut rng = StdRng::seed_from_u64(15);
        for codec in BlockCodec::ALL {
            // Balanced (block-merge path) and skewed (probe path).
            for (na, nb) in [(2000usize, 2500usize), (60, 4000)] {
                let a = random_set(&mut rng, na, 1 << 16);
                let b = random_set(&mut rng, nb, 1 << 16);
                let expect = fsi_core::elem::reference_intersection(&[&a, &b]);
                let pa = BlockPostings::from_slice(codec, &a);
                let pb = BlockPostings::from_slice(codec, &b);
                let mut out = Vec::new();
                pa.intersect_pair_into(&pb, &mut out);
                assert_eq!(out, expect, "{codec:?} {na}x{nb}");
                out.clear();
                pb.intersect_pair_into(&pa, &mut out);
                assert_eq!(out, expect, "{codec:?} {nb}x{na} (commuted)");
            }
        }
    }

    #[test]
    fn k_way_intersection_matches_reference_and_mixes_codecs() {
        let mut rng = StdRng::seed_from_u64(16);
        for k in 1..=5usize {
            let sets: Vec<Vec<Elem>> = (0..k).map(|_| random_set(&mut rng, 900, 1 << 14)).collect();
            let slices: Vec<&[Elem]> = sets.iter().map(|s| s.as_slice()).collect();
            let expect = fsi_core::elem::reference_intersection(&slices);
            // Rotate codecs across operands: cursors are codec-agnostic.
            let built: Vec<BlockPostings> = sets
                .iter()
                .enumerate()
                .map(|(i, s)| BlockPostings::from_slice(BlockCodec::ALL[i % 3], s))
                .collect();
            let refs: Vec<&BlockPostings> = built.iter().collect();
            let mut out = Vec::new();
            BlockPostings::intersect_k_into(&refs, &mut out);
            assert_eq!(out, expect, "k={k}");
        }
    }

    #[test]
    fn packed_beats_flat_on_dense_data() {
        // ~50%-dense data: gaps of 1–2 bits vs 32-bit flat words.
        let mut rng = StdRng::seed_from_u64(17);
        let set = random_set(&mut rng, 40_000, 100_000);
        let flat_bytes = set.len() * 4;
        for codec in BlockCodec::ALL {
            let bp = BlockPostings::from_slice(codec, &set);
            assert!(
                bp.size_in_bytes() * 4 < flat_bytes,
                "{codec:?}: {} vs flat {}",
                bp.size_in_bytes(),
                flat_bytes
            );
        }
    }
}
