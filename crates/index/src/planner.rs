//! Whole-query physical planning — the paper's closing pitch
//! operationalized over **k sets at once**: Section 3.4 proposes choosing
//! the algorithm "online, based on n₁/n₂", and the paper's own algorithms
//! (IntGroup, RanGroup, the adaptive probes) are defined over intersecting
//! *k* lists, with the smallest driving probes into all the others.
//!
//! The [`Planner`] cost-models the **entire term list** in one shot and
//! emits a [`MultiwayPlan`]: a kernel choice ([`PlanKind`]) plus an
//! evaluation order (operands ascending by size — the smallest list always
//! drives). Nothing is ever folded pairwise and no intermediate result is
//! materialized. The candidate kernels and their cost estimates, in the
//! [`CostUnit`]s of the one cost table ([`Planner::unit`]):
//!
//! | kind | estimated cost | regime it owns |
//! |------|----------------|----------------|
//! | [`PlanKind::BitmapAnd`] | `bitmap_word · w · (k−1) + scan · w + extract · min(E[survivors], w)`, `w = c_min · 1024` | every operand carries a chunk bitmap |
//! | [`PlanKind::HashProbe`] | `r₁ + u₂(n₁) + Σᵢ≥₃ uᵢ(ŝ)`, `uᵢ(c) = bit_test · c` for a probed bitmap, `gallop · c · log₂(nᵢ/c + 2)` for probed arrays | a small driver against bitmaps (`O(n₁)` bit tests), a tiny driver against arrays, and skewed pairs at the scalar tier (Hwang–Lin) |
//! | [`PlanKind::SimdMerge`] | `merge · (n₁ + n₂ + b · ĉ) + Σᵢ≥₃ uᵢ(ŝ)` between arrays, `merge · (n₁ + n₂) + r₁ + r₂ + …` when one is a bitmap | bitmap-less pairs at SSE4.1/AVX2, and balanced ones at the scalar tier: the 16-bit merge of the two smallest lists' chunk runs, its survivors probed through the rest |
//!
//! In the merge, `b` is the tier's block width (1 / 8 / 16 at scalar /
//! SSE4.1 / AVX2) and `ĉ` the chunks both arrays are expected to touch
//! under uniformity over the universe: a chunk's setup and its runs' last,
//! partial blocks cost about a block's elements. A merge that reads a
//! bitmap runs the flat `u32` merge instead, which walks no chunks.
//! `rᵢ` is what reading operand `i` as a sorted run costs
//! ([`Planner::sorted_read_cost`]): nothing for arrays, and for a bitmap
//! the extraction walk over its chunks, `extract_cost(nᵢ, cᵢ · 1024)` — a
//! list carries one representation, so the probe's driver and the merge's
//! inputs are extracted from a bitmap when that is what they carry.
//! The minimum-cost candidate wins, a tie going to the probe; `c_min` is the
//! smallest per-operand chunk count, so the bitmap estimate prices the word sweep
//! [`BitmapSet::intersect_k_into`] executes plus its one extraction walk
//! ([`Planner::extract_cost`]): a pass over every result word, and a fixed
//! run of stores per word holding a survivor (survivors estimated under
//! independence from each operand's density inside its own chunks, and no
//! more words hold one than were swept). The membership probe is priced **per
//! probed operand**: a bit test, or a galloping cursor moving through the
//! operand's arrays.
//! Operands are numbered ascending by size; `ŝ = n₁ · n₂ / U` is the two
//! smallest lists' intersection under independence over the document
//! universe `U` — the candidates both probing plans still hold when they
//! reach the third operand, so the two share that tail and differ only in
//! how they intersect the first two.
//!
//! Nothing else is priced. A gallop of `n₁` candidates through every list
//! never prices below the probe, which charges the same for the second
//! list (or a cheaper bit test) and gallops only `ŝ ≤ n₁` survivors through
//! the rest (`c · log₂(n/c + 2)` grows with `c`); and the heap merge pays a
//! pop and a push per element. A plan naming [`PlanKind::HeapMerge`] runs
//! it; one naming [`PlanKind::GallopProbe`] runs the probe.
//!
//! A [`PlannedList`] is exactly one representation, chosen from the list
//! and nothing else (`carries_bitmap`): a chunked bitmap when the list has
//! at least one member per bitmap word of the chunks it touches, chunked
//! 16-bit arrays ([`ArraySet`]) otherwise. Both split the documents into
//! the same 2¹⁶-value chunks. The bitmap then costs up to 8 B/posting
//! against the arrays' 2 (plus 6 B per touched chunk); it is kept for the
//! bit tests and word sweeps it answers, not for its size. On a Zipf corpus
//! every stop-word-sized list carries only its bitmap, which stays
//! cache-resident (8 KiB per touched chunk). On the benchmark corpus the
//! index went from 4.93 to 3.22 B/posting when those lists dropped the
//! flat copy they kept beside it, and to 2.16 when the sparse lists' flat
//! `u32` lists became arrays, which store a member's high half once per
//! chunk.
//!
//! The rule is decided on the list's chunk walk — its chunk ids and run
//! starts, found by one gallop per chunk, the top level both
//! representations share — and the chosen representation is filled from
//! that walk, so [`PlannedList::build`] reads each posting once. A list of
//! fewer than 1024 members cannot be a bitmap (unless it is empty): it is
//! narrowed to arrays first, the walk then reading lines the narrowing
//! brought into cache. Building every list takes about as long as cloning
//! the posting lists (`--bin serve`'s `build` row).
//!
//! Three structures are not among them. A hash table per sparse list: it
//! cost more than half the index (6.57 of 11.50 B/posting on the benchmark
//! corpus) and more than half its build time, for probes the merge or a
//! gallop through the arrays now answer (`fsi_baselines::ProbeTable`
//! runs under the fixed `Strategy::Hash` only). Block postings
//! (`fsi_compress::BlockPostings`): a decode-then-probe walk costs a gallop
//! plus the decode, so it never priced below a gallop through the
//! uncompressed list and was never planned; they run under the fixed
//! `Strategy::CompressedGallop`
//! — see `docs/compress.md`. And the paper's RanGroupScan structure: on the
//! benchmark corpus at AVX2 the merge-then-probe plan beat it on every
//! conjunction it was planned for, so it runs under the fixed
//! `Strategy::RanGroupScan` only.
//!
//! The table reflects *this repository's measured* crossovers
//! (see `docs/benchmarks.md`, `BENCH_kernels.json`, `BENCH_multiway.json`
//! and the benchmark's `kernels.forced_ns.*`): between bitmap-less lists
//! the AVX2 merge holds every pair but a tiny driver's (galloping takes
//! ratios beyond ≈ 85, ≈ 57 at SSE4.1), and at the scalar tier the merge
//! holds balanced pairs until galloping overtakes it near ratio 5; a bit
//! test costs a fifth of a galloping step, so a bitmap-less driver probes
//! bitmap operands at almost any skew; and between bitmap-carrying lists
//! the sweep wins unless the driver is so sparse in its chunks that one
//! bit test per driver element costs less than the sweep's pass over every
//! word and its extraction.
//!
//! The same table prices `fsi-query`'s union and difference nodes, so a
//! unit is charged in one place, and every `AND` of an expression runs
//! [`Planner::execute`] — a sub-expression operand as a list narrowed to
//! chunked arrays, which a plan reads like a term. None of it is
//! configurable: a [`Planner`] is only the SIMD tier it prices for, and the
//! bitmap word and the merged element are the only units a tier changes.

use crate::engine::SearchEngine;
use fsi_compress::BlockPostings;
use fsi_core::elem::{Elem, SortedSet};
use fsi_core::traits::{KIntersect, SetIndex};
use fsi_kernels::{
    chunk_union_into, heap_merge_into, retain_members, simd, ArraySet, BitmapSet, ChunkWalk,
    Member, SimdLevel, UnionPart, WORDS_PER_CHUNK,
};

/// The build rule of [`PlannedList::build`], decided on the list's chunk
/// walk: a list of `n` members touching `chunks` chunks is kept as
/// a chunked bitmap iff it has at least one member per bitmap word of those
/// chunks (`n ≥ 1024 · chunks`; an empty list is the empty bitmap), and as
/// chunked 16-bit arrays otherwise. The bitmap then costs at most about 8
/// bytes per posting, four times the arrays' 2; it is chosen for the bit
/// tests and word sweeps it answers, and the rule decides from the list
/// alone, with no density constant to tune.
fn carries_bitmap(n: usize, chunks: usize) -> bool {
    n >= chunks * WORDS_PER_CHUNK
}

/// Values one bitmap chunk covers.
const CHUNK_SPAN: f64 = (WORDS_PER_CHUNK * 64) as f64;

/// Resident heap bytes split by physical representation — what the
/// `fsi_index_bytes{repr=…}` gauges export. The parts sum to
/// [`PlannedList::size_in_bytes`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReprBytes {
    /// Chunked 16-bit arrays (the lists that carry no bitmap).
    pub array: usize,
    /// Chunked bitmaps (the lists dense enough to carry one).
    pub bitmap: usize,
}

impl ReprBytes {
    /// The parts under their gauge labels, in a fixed order.
    pub fn parts(&self) -> [(&'static str, usize); 2] {
        [("array", self.array), ("bitmap", self.bitmap)]
    }

    /// Sum over every representation.
    pub fn total(&self) -> usize {
        self.parts().iter().map(|(_, b)| b).sum()
    }
}

impl std::ops::AddAssign for ReprBytes {
    fn add_assign(&mut self, o: Self) {
        self.array += o.array;
        self.bitmap += o.bitmap;
    }
}

/// A posting list prepared in the one representation a plan binds it by:
/// chunked 16-bit arrays, or — when it is dense enough for one — a chunked
/// bitmap. Both split the documents into the same 2¹⁶-value chunks. A plan
/// that must read a list as a sorted run of documents widens or extracts
/// it ([`PlannedList::extend_into`]).
#[derive(Debug, Clone)]
pub enum PlannedList {
    /// The chunked arrays: what the 16-bit merge reads and a galloping
    /// cursor moves through, chunk by chunk.
    Array(ArraySet),
    /// The chunked bitmap: what the bitmap `AND`/`OR` sweeps bind and a
    /// bit test probes.
    Bitmap(BitmapSet),
}

impl PlannedList {
    /// Prepares `set` in the representation the build rule picks for it,
    /// reading each member once. A list of at least 1024 members is walked
    /// once ([`ChunkWalk`]: a gallop per chunk), the rule is decided on the
    /// walk, and the chosen representation is filled from it. A shorter
    /// one holds fewer members than one chunk has words, so it is chunked
    /// arrays unless it is empty; it is narrowed first, so the walk reads
    /// lines the narrowing brought into cache.
    pub fn build(set: &SortedSet) -> Self {
        let elems = set.as_slice();
        if elems.len() < WORDS_PER_CHUNK && !elems.is_empty() {
            return Self::Array(ArraySet::from_sorted_slice(elems));
        }
        let walk = ChunkWalk::new(elems);
        if carries_bitmap(elems.len(), walk.num_chunks()) {
            Self::Bitmap(BitmapSet::from_walk(&walk))
        } else {
            Self::Array(ArraySet::from_walk(walk))
        }
    }

    /// Number of elements.
    pub fn n(&self) -> usize {
        match self {
            Self::Array(array) => array.len(),
            Self::Bitmap(bitmap) => bitmap.n(),
        }
    }

    /// The chunked bitmap, when the list is one — what the bitmap
    /// `AND`/`OR` sweeps bind.
    pub fn bitmap(&self) -> Option<&BitmapSet> {
        match self {
            Self::Array(_) => None,
            Self::Bitmap(bitmap) => Some(bitmap),
        }
    }

    /// What a membership test against this list binds: the bitmap (a bit
    /// test per candidate) or the arrays (a chunk cursor and a gallop
    /// inside the chunk) — the probe's and `AND NOT`'s operand.
    pub fn member(&self) -> Member<'_> {
        match self {
            Self::Array(array) => Member::Array(array),
            Self::Bitmap(bitmap) => Member::Bitmap(bitmap),
        }
    }

    /// Appends the list's elements to `out`, ascending: each array run
    /// widened to documents, or the bitmap extracted in one walk over its
    /// chunks.
    pub fn extend_into(&self, out: &mut Vec<Elem>) {
        match self {
            Self::Array(array) => array.extend_into(out),
            Self::Bitmap(bitmap) => chunk_union_into(&[UnionPart::Bitmap(bitmap)], out),
        }
    }

    /// The list as a sorted run of documents ([`PlannedList::extend_into`]
    /// into a fresh `Vec`) — what the heap merge reads.
    pub fn sorted(&self) -> Vec<Elem> {
        let mut run = Vec::with_capacity(self.n());
        self.extend_into(&mut run);
        run
    }

    /// Always `None`: no list carries block postings. Kept only because
    /// the frozen `benchmark/src/replay.rs` compiles against it.
    pub fn compressed(&self) -> Option<&BlockPostings> {
        None
    }

    /// The cost-model inputs of this list: its size, and its chunk count
    /// when it is a bitmap.
    pub fn stats(&self) -> OperandStats {
        OperandStats {
            n: self.n(),
            chunks: self.bitmap().map(BitmapSet::num_chunks),
        }
    }

    /// Footprint of the list's one representation, under its label.
    pub fn bytes_by_repr(&self) -> ReprBytes {
        match self {
            Self::Array(array) => ReprBytes {
                array: array.size_in_bytes(),
                bitmap: 0,
            },
            Self::Bitmap(bitmap) => ReprBytes {
                array: 0,
                bitmap: bitmap.size_in_bytes(),
            },
        }
    }

    /// Total footprint of the list.
    pub fn size_in_bytes(&self) -> usize {
        self.bytes_by_repr().total()
    }
}

/// What the cost model needs to know about one operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperandStats {
    /// Number of elements.
    pub n: usize,
    /// Number of 2¹⁶-value chunks the list touches, if it is a chunk
    /// bitmap; `None` means it is chunked arrays (fewer than one member per
    /// bitmap word), probed by a galloping cursor.
    pub chunks: Option<usize>,
}

/// Which k-way kernel a [`MultiwayPlan`] runs (exposed for tests and
/// telemetry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// An empty operand (or no operands): the result is empty, run nothing.
    Empty,
    /// One operand: copy its list through (extracted, if it is a bitmap).
    Single,
    /// Never emitted by [`Planner::plan`]; [`Planner::execute`] answers it
    /// as [`PlanKind::SimdMerge`], which beat it wherever it was planned.
    /// Kept only because the frozen `benchmark/src/replay.rs` compiles
    /// against it.
    RanGroupScan,
    /// The membership probe: drive the smallest list's elements (extracted,
    /// if it is a bitmap) through every other operand in turn — a bit test
    /// where it is a bitmap, one galloping cursor through its arrays where
    /// it is not. The label is what telemetry and the frozen
    /// `benchmark/src/replay.rs` know this plan by; nothing hashes.
    HashProbe,
    /// Every operand carries a bitmap: k-way chunked-bitmap `AND`, no
    /// intermediates.
    BitmapAnd,
    /// Never emitted by [`Planner::plan`]: a gallop of the smallest list
    /// through every other never prices below [`PlanKind::HashProbe`] (see
    /// the module docs), so [`Planner::execute`] answers it as the probe.
    /// Kept because the frozen `benchmark/src/replay.rs` forces it.
    GallopProbe,
    /// Heap-based k-way merge (structure-free fallback) over every operand
    /// as a sorted run, bitmaps extracted. Never emitted by
    /// [`Planner::plan`]; a plan that names it runs it.
    HeapMerge,
    /// Never emitted by [`Planner::plan`]; [`Planner::execute`] answers it
    /// as [`PlanKind::HashProbe`]. Kept only because the frozen
    /// `benchmark/src/replay.rs` compiles against it.
    CompressedGallop,
    /// Balanced sizes: the vectorized merge of the two smallest lists — the
    /// 16-bit merge of their shared chunks' runs
    /// ([`ArraySet::intersect_into`]), or `simd::merge_into` over sorted
    /// runs where one is a bitmap (extracted first) — its survivors then
    /// filtered through every
    /// other operand as [`PlanKind::HashProbe`] filters its driver. With
    /// two operands it is a plain merge.
    SimdMerge,
}

impl PlanKind {
    /// Every kind, in declaration order (`PlanKind::ALL[k as usize] == k`).
    pub const ALL: [PlanKind; 9] = [
        PlanKind::Empty,
        PlanKind::Single,
        PlanKind::RanGroupScan,
        PlanKind::HashProbe,
        PlanKind::BitmapAnd,
        PlanKind::GallopProbe,
        PlanKind::HeapMerge,
        PlanKind::CompressedGallop,
        PlanKind::SimdMerge,
    ];

    /// The label telemetry and EXPLAIN output report.
    pub fn name(self) -> &'static str {
        match self {
            PlanKind::Empty => "Empty",
            PlanKind::Single => "Single",
            PlanKind::RanGroupScan => "RanGroupScan",
            PlanKind::HashProbe => "HashProbe",
            PlanKind::BitmapAnd => "BitmapAnd",
            PlanKind::GallopProbe => "GallopProbe",
            PlanKind::HeapMerge => "HeapMerge",
            PlanKind::CompressedGallop => "CompressedGallop",
            PlanKind::SimdMerge => "SimdMerge",
        }
    }
}

/// A whole-query physical plan: which kernel to run, in which operand
/// order, and what the cost model predicted for it.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiwayPlan {
    /// The chosen kernel.
    pub kind: PlanKind,
    /// Operand positions in evaluation order (ascending by size — the
    /// smallest list drives, and probes hit the most selective lists
    /// first).
    pub order: Vec<usize>,
    /// The winning candidate's estimated cost, in the planner's abstract
    /// units (comparable only within one plan call).
    pub est_cost: f64,
}

/// One unit of the cost table: every price either planner charges is a
/// count of work times one of these, read through [`Planner::unit`]. The
/// values reflect this repository's measured crossovers (see the module
/// docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostUnit {
    /// Per candidate per list a galloping cursor moves through, scaled by
    /// the galloping log factor `log₂(nᵢ/candidates + 2)`: the probe of a
    /// bitmap-less operand in [`PlanKind::HashProbe`] and
    /// [`PlanKind::SimdMerge`], and the difference per base element per
    /// bitmap-less subtrahend — the same exponential probe everywhere
    /// ([`Planner::probe_cost`]). Fitted on the benchmark corpus (AVX2;
    /// and_cold's 16 384 conjunctions, seeds 1 and 2, every forced kind in
    /// its own cold pass, min of 3): a bitmap-less pair probes at
    /// 9.3–16.5 ns per candidate and log₂ of the
    /// ratio (rising with the ratio) against 0.8–1.5 ns per merged element;
    /// replaying the planner, the stream's planned time fell from 2.5 up to
    /// 10 and stayed flat beyond, where the merge takes every bitmap-less
    /// pair the probe lost on. Galloping through chunked arrays (a chunk
    /// cursor, then the gallop inside the chunk's run) costs what it did
    /// through the flat list: 16.1–16.7 against 15.5–16.4 ns per candidate
    /// over and_cold's merge pairs (seeds 1 and 2, min of 5), so the unit
    /// stands.
    Gallop,
    /// Per 64-bit word per operand pass of a chunked bitmap sweep — the
    /// `AND`'s and the chunk union's. One of the two units a SIMD tier
    /// changes (with [`Merge`](CostUnit::Merge)): the sweep takes 2/4
    /// words per instruction and PTEST-skips zero groups, so a word costs
    /// ~½/~⅓ of scalar at SSE4.1/AVX2 (milder than the lane count, as
    /// `BENCH_simd.json` measures on the dense shapes).
    BitmapWord,
    /// Per element of the two lists the vectorized merge reads
    /// ([`PlanKind::SimdMerge`]), and per chunk both touch the elements of
    /// one block (1 / 8 / 16 at scalar / SSE4.1 / AVX2). A tier changes
    /// it: per shared chunk the 16-bit merge compares a block of 8
    /// (SSE4.1) elements against a block of 8, or 16 (AVX2) against 16 (8
    /// in a skewed chunk), per step, where the scalar tier's branchless
    /// merge advances one element per step. Fitted first on the flat `u32`
    /// merge (and_cold's 16 384 conjunctions, seeds 1 and 2: an element in
    /// 3.7–4.2 / 0.85–1.0 / 0.55–0.67 ns at scalar / SSE4.1 / AVX2 against
    /// 1.6–1.8 ns per candidate of a two-term bit-test probe, units 4.5 /
    /// 1.0 / 0.75). The chunked merge takes 0.99 / 0.93–0.96 / 0.60 of the
    /// flat merge's time on and_cold's merge pairs (seeds 1–3, min of 5),
    /// but the unit is only ever weighed against the probe, and there it
    /// stands: at the probe/merge crossover (size ratios ≈ 85–110 at AVX2)
    /// the chunked merge reads 0.75–0.85 of the chunked probe's time yet
    /// no faster than the probe through the flat lists it replaced, so
    /// scaling the unit down (0.49 or 0.43 at AVX2) turned 18–23 of
    /// and_cold's distinct queries per seed from probes into slower merges,
    /// and the flat fit moves none.
    Merge,
    /// Per candidate per probed *bitmap* in the membership probe: one bit
    /// test through a cursor that looks each chunk up once, in a structure
    /// that stays cache-resident (8 KiB per touched chunk). Which of this
    /// and [`Gallop`](CostUnit::Gallop) a probed list pays is decided at
    /// build, by the list.
    BitTest,
    /// Per word of a result bitmap for the extraction walk's first pass,
    /// which reads every word once (popcount and the positions of the
    /// nonzero words), plus the accumulator copy the sweep starts from.
    Scan,
    /// Per word of a result bitmap that holds a survivor: the extraction
    /// walk's fixed run of trailing-zeros/clear-lowest-bit stores behind
    /// each nonzero word — paid per word whatever it holds, so extraction
    /// saturates once every word holds one. Fitted on the benchmark corpus
    /// (AVX2): ≈ 1 ns per swept word and 2.3 ns per nonzero result word
    /// against 1.3 ns per bit test.
    Extract,
    /// Per member of a child's sorted result set into the chunk union's
    /// accumulator: one sequential read and one read-modify-write of an
    /// L1-resident word.
    SetBit,
}

impl CostUnit {
    /// Every unit, in table order.
    pub const ALL: [CostUnit; 7] = [
        CostUnit::Gallop,
        CostUnit::BitmapWord,
        CostUnit::Merge,
        CostUnit::BitTest,
        CostUnit::Scan,
        CostUnit::Extract,
        CostUnit::SetBit,
    ];

    /// The unit's label in provenance (every `BENCH_*.json`'s
    /// `planner_units`).
    pub fn name(self) -> &'static str {
        match self {
            CostUnit::Gallop => "gallop",
            CostUnit::BitmapWord => "bitmap_word",
            CostUnit::Merge => "merge",
            CostUnit::BitTest => "bit_test",
            CostUnit::Scan => "scan",
            CostUnit::Extract => "extract",
            CostUnit::SetBit => "set_bit",
        }
    }
}

/// The whole-query cost-model dispatcher: the SIMD tier it prices for, and
/// nothing else — every price comes from the one cost table. The tier only
/// prices: execution dispatches at [`SimdLevel::active`] whatever tier
/// planned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planner {
    simd: SimdLevel,
}

impl Default for Planner {
    /// The scalar tier — deterministic across machines (what the plan tests
    /// pin).
    fn default() -> Self {
        Self::for_simd(SimdLevel::Scalar)
    }
}

impl Planner {
    /// The cost table at one SIMD tier.
    pub fn for_simd(simd: SimdLevel) -> Self {
        Self { simd }
    }

    /// The cost table at the tier this process dispatches to
    /// ([`SimdLevel::active`]) — what serving uses, so planned execution
    /// picks the vectorized bitmap sweep where it wins.
    pub fn auto() -> Self {
        Self::for_simd(SimdLevel::active())
    }

    /// The one cost table: the price of one `unit` at this planner's tier.
    pub fn unit(&self, unit: CostUnit) -> f64 {
        match unit {
            CostUnit::Gallop => 10.0,
            CostUnit::BitmapWord => match self.simd {
                SimdLevel::Scalar => 1.0,
                SimdLevel::Sse41 => 0.55,
                SimdLevel::Avx2 => 0.35,
            },
            CostUnit::Merge => match self.simd {
                SimdLevel::Scalar => 4.5,
                SimdLevel::Sse41 => 1.0,
                SimdLevel::Avx2 => 0.75,
            },
            CostUnit::BitTest => 2.0,
            CostUnit::Scan => 1.25,
            CostUnit::Extract => 3.5,
            CostUnit::SetBit => 1.0,
        }
    }

    /// The price of galloping `n_min` ascending candidates through lists of
    /// sizes `probed`. Fewer than one expected candidate pays its share of
    /// one whole search.
    fn gallop_cost(&self, n_min: f64, probed: impl Iterator<Item = f64>) -> f64 {
        let log_sum: f64 = probed.map(|n| (n / n_min.max(1.0) + 2.0).log2()).sum();
        self.unit(CostUnit::Gallop) * n_min * log_sum
    }

    /// The price of testing `candidates` ascending candidates against one
    /// operand: a bit test each where it carries a bitmap, one galloping
    /// cursor through its arrays where it does not. It prices every probed
    /// operand of a plan, and `fsi-query`'s difference per subtrahend.
    pub fn probe_cost(&self, candidates: f64, operand: &OperandStats) -> f64 {
        match operand.chunks {
            Some(_) => self.unit(CostUnit::BitTest) * candidates,
            None => self.gallop_cost(candidates, std::iter::once(operand.n as f64)),
        }
    }

    /// The price of reading `operand` as a sorted run — the probe's driver,
    /// each of the merge's two inputs: nothing for arrays, and for a bitmap
    /// the extraction walk over every word of its chunks
    /// ([`Planner::extract_cost`] of all `n` members), since no list keeps
    /// a sorted copy beside its bitmap. Arrays are free because the merge
    /// reads their runs as they are, and widening a probe's driver costs
    /// about what copying the flat list it replaced did, which was never
    /// priced either (and_cold's probe drivers, seed 1: 10.3 ms widened
    /// against 5.6 ms copied over the whole stream, under 1 % of its
    /// execution). `fsi-query` charges it wherever it needs a bitmap term
    /// as a slice.
    pub fn sorted_read_cost(&self, operand: &OperandStats) -> f64 {
        operand.chunks.map_or(0.0, |chunks| {
            self.extract_cost(operand.n as f64, (chunks * WORDS_PER_CHUNK) as f64)
        })
    }

    /// The chunks of a `universe`-document space, at least one.
    pub fn universe_chunks(universe: u64) -> f64 {
        (universe as f64 / CHUNK_SPAN).ceil().max(1.0)
    }

    /// The chunks `n` members spread uniformly over `all` chunks touch,
    /// `C · (1 − e^(−n/C))`: the merge's estimate for an array, and
    /// `fsi-query`'s for a chunk union's listed child.
    pub fn chunks_touched(n: f64, all: f64) -> f64 {
        all * (1.0 - (-n / all).exp())
    }

    /// The price of merging two lists ([`PlanKind::SimdMerge`]'s first
    /// step), before its survivors meet any other operand. Between arrays it
    /// is the chunked 16-bit merge: [`Merge`](CostUnit::Merge) per element
    /// of both lists, plus per chunk both touch the elements of one block
    /// (8 at SSE4.1, 16 at AVX2, one at the scalar tier) — what a chunk's
    /// setup and its runs' last, partial blocks cost. An array's chunks are
    /// estimated under uniformity over the `universe`, `C · (1 − e^(−n/C))`
    /// of its `C` chunks, and the two lists are assumed to meet
    /// independently in them. A merge that reads a bitmap extracts it
    /// ([`Planner::sorted_read_cost`]) and runs the flat `u32` merge over
    /// both lists as sorted runs, which walks no chunks: the unit per
    /// element only (it was fitted on that merge).
    fn merge_price(&self, first: &OperandStats, second: &OperandStats, universe: u64) -> f64 {
        let merge = self.unit(CostUnit::Merge);
        let elements = (first.n + second.n) as f64;
        let reads = self.sorted_read_cost(first) + self.sorted_read_cost(second);
        if first.chunks.is_some() || second.chunks.is_some() {
            return merge * elements + reads;
        }
        let all = Self::universe_chunks(universe);
        let touched = |n: usize| Self::chunks_touched(n as f64, all);
        let shared = touched(first.n) * touched(second.n) / all;
        let block = match self.simd {
            SimdLevel::Scalar => 1.0,
            SimdLevel::Sse41 => 8.0,
            SimdLevel::Avx2 => 16.0,
        };
        merge * (elements + block * shared) + reads
    }

    /// What the survivors of the two smallest lists pay to meet every
    /// other operand, the tail both probing plans share: `ŝ = n₁ · n₂ / U`
    /// candidates (independence over the `universe`) tested against each
    /// operand from the third on. `by_size` is ascending by size.
    fn survivor_tail(&self, by_size: &[OperandStats], universe: u64) -> f64 {
        let [first, second, rest @ ..] = by_size else {
            return 0.0;
        };
        let survivors = first.n as f64 * (second.n as f64 / (universe as f64).max(1.0)).min(1.0);
        rest.iter().map(|s| self.probe_cost(survivors, s)).sum()
    }

    /// The price of the membership probe ([`PlanKind::HashProbe`]) over
    /// operands ascending by size (`by_size`, k ≥ 2): the smallest read as a
    /// sorted run, every element of it tested against the second, and the
    /// survivors against the rest — a bit test each against a bitmap, a
    /// gallop through arrays.
    fn probe_price(&self, by_size: &[OperandStats], universe: u64) -> f64 {
        let [first, second, ..] = by_size else {
            return 0.0;
        };
        self.sorted_read_cost(first)
            + self.probe_cost(first.n as f64, second)
            + self.survivor_tail(by_size, universe)
    }

    /// Cost-models the whole operand list and returns the minimum-cost
    /// plan. `stats` is positional: `order[i]` in the returned plan indexes
    /// into it. `universe` is the document-space size (`max_doc + 1`) the
    /// merge's survivor estimate divides by. Planning records nothing;
    /// `fsi-query` records the plan that runs.
    pub fn plan(&self, stats: &[OperandStats], universe: u64) -> MultiwayPlan {
        let k = stats.len();
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by_key(|&i| stats[i].n);
        if k == 0 || stats[order[0]].n == 0 {
            return MultiwayPlan {
                kind: PlanKind::Empty,
                order,
                est_cost: 0.0,
            };
        }
        if k == 1 {
            let est_cost = stats[0].n as f64 + self.sorted_read_cost(&stats[0]);
            return MultiwayPlan {
                kind: PlanKind::Single,
                order,
                est_cost,
            };
        }
        let by_size: Vec<OperandStats> = order.iter().map(|&i| stats[i]).collect();
        let probes = (k - 1) as f64;

        // The two probing plans differ only in how they find the two
        // smallest lists' intersection: the probe tests every driver
        // element against the second list, the merge reads both lists
        // whole. Either way only the survivors — estimated under
        // independence over the universe — meet the remaining operands, in
        // the same filter. Each test is priced by what it probes: a bit
        // test into a bitmap that stays cache-resident, or a galloping step
        // through arrays. A list the plan reads as a sorted run — the
        // driver, the merge's inputs — pays its extraction if it is a
        // bitmap.
        let mut best = (PlanKind::HashProbe, self.probe_price(&by_size, universe));
        let mut consider = |kind: PlanKind, cost: f64| {
            if cost < best.1 {
                best = (kind, cost);
            }
        };
        consider(
            PlanKind::SimdMerge,
            self.merge_price(&by_size[0], &by_size[1], universe)
                + self.survivor_tail(&by_size, universe),
        );
        if let Some(c_min) = stats.iter().map(|s| s.chunks).min().flatten() {
            // `min` on Options puts None first, so a single bitmap-less
            // operand (None) vetoes the candidate via `.flatten()`.
            //
            // The sweep ANDs every word of the driver's chunks whatever
            // they hold, then scans the result, paying per word that holds
            // a survivor. Survivors are estimated under independence from
            // each operand's density inside the chunks it touches — the
            // only universe the stats carry — and there are no more words
            // holding one than words swept.
            let words = (c_min * WORDS_PER_CHUNK) as f64;
            let survivors = stats.iter().fold(c_min as f64 * CHUNK_SPAN, |rows, s| {
                rows * (s.n as f64 / (s.chunks.unwrap_or(1) as f64 * CHUNK_SPAN)).min(1.0)
            });
            consider(
                PlanKind::BitmapAnd,
                self.unit(CostUnit::BitmapWord) * words * probes
                    + self.extract_cost(survivors, words),
            );
        }
        MultiwayPlan {
            kind: best.0,
            order,
            est_cost: best.1,
        }
    }

    /// The price of extracting `survivors` members from a `words`-word
    /// result bitmap — what the [`PlanKind::BitmapAnd`] candidate pays
    /// after its sweep, and what `fsi-query`'s chunk union pays once for
    /// its whole result.
    pub fn extract_cost(&self, survivors: f64, words: f64) -> f64 {
        self.unit(CostUnit::Scan) * words + self.unit(CostUnit::Extract) * survivors.min(words)
    }

    /// The plan for these prepared lists over a `universe`-document space.
    pub fn plan_for_lists(&self, lists: &[&PlannedList], universe: u64) -> MultiwayPlan {
        let stats: Vec<OperandStats> = lists.iter().map(|l| l.stats()).collect();
        self.plan(&stats, universe)
    }

    /// Runs `plan` over `lists`, appending the intersection to `out`,
    /// ascending.
    pub fn execute(&self, plan: &MultiwayPlan, lists: &[&PlannedList], out: &mut Vec<Elem>) {
        // Every arm trusts `order` to be a permutation of the operand
        // positions (what `plan` emits): one that is short would drop an
        // operand and return a superset.
        debug_assert!(
            plan.order.len() == lists.len() && plan.order.iter().all(|&i| i < lists.len()),
            "plan.order {:?} does not cover {} operands",
            plan.order,
            lists.len()
        );
        match plan.kind {
            PlanKind::Empty => {}
            PlanKind::Single => lists[plan.order[0]].extend_into(out),
            // `GallopProbe` never prices below the probe and is never
            // planned, and `CompressedGallop` galloped what its block
            // cursors decoded to: a hand-built plan of either kind runs the
            // probe, which tests every operand a gallop would.
            PlanKind::HashProbe | PlanKind::GallopProbe | PlanKind::CompressedGallop => {
                // The smallest list's elements are the candidates.
                let Some((driver, rest)) = plan.order.split_first() else {
                    return;
                };
                let Some(driver) = lists.get(*driver) else {
                    return;
                };
                let start = out.len();
                driver.extend_into(out);
                probe_members(lists, rest, out, start);
            }
            // `RanGroupScan` is never planned; a hand-built plan of that
            // kind runs the merge, which beat it wherever it was planned.
            PlanKind::SimdMerge | PlanKind::RanGroupScan => {
                // The merge of the two smallest lists gives the candidates.
                let start = out.len();
                match plan.order.as_slice() {
                    [] => {}
                    [only] => lists[*only].extend_into(out),
                    [a, b, rest @ ..] => {
                        match (lists[*a], lists[*b]) {
                            (PlannedList::Array(x), PlannedList::Array(y)) => {
                                x.intersect_into(y, out)
                            }
                            (x, y) => simd::merge_into(&x.sorted(), &y.sorted(), out),
                        }
                        probe_members(lists, rest, out, start);
                    }
                }
            }
            PlanKind::BitmapAnd => {
                let typed: Vec<&BitmapSet> = lists
                    .iter()
                    .map(|l| {
                        l.bitmap()
                            // audit:allow(hot_path_panic): the planner only picks BitmapAnd when every operand carried a bitmap
                            .expect("BitmapAnd only wins when every operand carries a bitmap")
                    })
                    .collect();
                BitmapSet::intersect_k_into(&typed, out);
            }
            PlanKind::HeapMerge => {
                let runs: Vec<Vec<Elem>> = lists.iter().map(|l| l.sorted()).collect();
                let slices: Vec<&[Elem]> = runs.iter().map(Vec::as_slice).collect();
                heap_merge_into(&slices, out);
            }
        }
    }
}

/// The membership filter both probing plans end in: keeps the ascending
/// candidates in `out[start..]` that every operand at the positions
/// `probed` holds, one [`retain_members`] pass per operand in turn, the
/// most selective first. `get`, not indexing, keeps the loop panic-free; a
/// position outside `lists` (ruled out by [`Planner::execute`] in debug
/// builds) empties the result.
fn probe_members(lists: &[&PlannedList], probed: &[usize], out: &mut Vec<Elem>, start: usize) {
    for i in probed {
        let Some(list) = lists.get(*i) else {
            out.truncate(start);
            return;
        };
        retain_members(out, start, list.member(), true);
    }
}

/// A fully planned, self-contained index: every term prepared in the one
/// representation the cost-model planner binds it by. The serving layer
/// holds one per server; `fsi_query` plans and runs expressions on it.
#[derive(Debug, Clone)]
pub struct PlannedExecutor {
    planner: Planner,
    lists: Vec<PlannedList>,
    universe: u64,
}

impl PlannedExecutor {
    /// Prepares every posting list of `engine` for planner dispatch.
    pub fn build(engine: &SearchEngine, planner: Planner) -> Self {
        let lists = engine.postings().iter().map(PlannedList::build).collect();
        Self {
            planner,
            lists,
            universe: engine.max_doc().map_or(0, |m| m as u64 + 1),
        }
    }

    /// The planner answering queries.
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// Size of the document space this executor covers (`max_doc + 1`; 0
    /// for an empty index) — the denominator of the expression planner's
    /// selectivity estimates.
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// Number of terms.
    pub fn num_terms(&self) -> usize {
        self.lists.len()
    }

    /// The prepared list of a term.
    pub fn list(&self, term: usize) -> &PlannedList {
        // audit:allow(hot_path_index): public accessor with a documented term-id contract; a bounds panic is the misuse signal
        &self.lists[term]
    }

    /// Total heap footprint of every prepared list.
    pub fn size_in_bytes(&self) -> usize {
        self.bytes_by_repr().total()
    }

    /// The footprint split by physical representation.
    pub fn bytes_by_repr(&self) -> ReprBytes {
        let mut sum = ReprBytes::default();
        for l in &self.lists {
            sum += l.bytes_by_repr();
        }
        sum
    }

    /// How many lists are bitmaps (every other list is chunked arrays).
    pub fn num_bitmap_lists(&self) -> usize {
        self.lists.iter().filter(|l| l.bitmap().is_some()).count()
    }

    /// The plan the planner picks for this term list.
    pub fn plan(&self, terms: &[usize]) -> MultiwayPlan {
        let refs: Vec<&PlannedList> = terms.iter().map(|&t| &self.lists[t]).collect();
        self.planner.plan_for_lists(&refs, self.universe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_core::elem::reference_intersection;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The benchmark corpus's document universe, which the shape tests
    /// plan over.
    const U: u64 = 2_000_000;

    /// Stats of a sparse list (chunked arrays, no bitmap).
    fn sparse(n: usize) -> OperandStats {
        OperandStats { n, chunks: None }
    }

    /// Stats of a dense list touching `chunks` chunks.
    fn dense(n: usize, chunks: usize) -> OperandStats {
        OperandStats {
            n,
            chunks: Some(chunks),
        }
    }

    fn kind(p: &Planner, stats: &[OperandStats]) -> PlanKind {
        p.plan(stats, U).kind
    }

    /// Plans and runs `lists` over the universe their largest member
    /// spans; returns the plan that ran.
    fn run(p: &Planner, lists: &[&PlannedList], out: &mut Vec<Elem>) -> MultiwayPlan {
        let universe = lists
            .iter()
            .filter_map(|l| l.sorted().last().copied())
            .max()
            .map_or(0, |m| u64::from(m) + 1);
        let plan = p.plan_for_lists(lists, universe);
        p.execute(&plan, lists, out);
        plan
    }

    #[test]
    fn cost_model_regions_match_measured_crossovers() {
        let p = Planner::default();
        // At the scalar tier the merge reads an element for 4.5 units, so
        // between two bitmap-less lists it holds balanced pairs (ratio up
        // to ≈ 5) …
        for partner in [1000, 2000, 4000] {
            assert_eq!(
                kind(&p, &[sparse(1000), sparse(partner)]),
                PlanKind::SimdMerge,
                "{partner}"
            );
        }
        // … and the probe, galloping through the arrays, holds the
        // skewed ones: its price grows with the log of the ratio, the
        // merge's with the ratio itself.
        for partner in [6000, 8000, 64_000] {
            assert_eq!(
                kind(&p, &[sparse(1000), sparse(partner)]),
                PlanKind::HashProbe,
                "{partner}"
            );
        }
        // Only the first pair's survivors reach a third list.
        assert_eq!(
            kind(&p, &[sparse(100), sparse(5000), sparse(80_000)]),
            PlanKind::HashProbe
        );
        // At SSE4.1 and AVX2 the vectorized merge owns bitmap-less pairs
        // far into the skew (on the benchmark corpus a galloping step costs
        // ≈ 10 ns per candidate and log₂ of the ratio, a merged element
        // under 1 ns); only a tiny driver is still probed — under 1/85 of
        // its partner at AVX2, 1/57 at SSE4.1.
        for simd in [SimdLevel::Sse41, SimdLevel::Avx2] {
            let p = Planner::for_simd(simd);
            for shape in [
                &[sparse(1000), sparse(1000)][..],
                &[sparse(1000), sparse(4000)],
                &[sparse(1000), sparse(32_000)],
                &[sparse(20_000), sparse(20_000), sparse(20_000)],
                &[sparse(3000), sparse(4000), dense(4000, 1)],
                &[sparse(100), sparse(5000), sparse(80_000)],
            ] {
                assert_eq!(kind(&p, shape), PlanKind::SimdMerge, "{simd:?} {shape:?}");
            }
            assert_eq!(kind(&p, &[sparse(20), sparse(2000)]), PlanKind::HashProbe);
        }
        // Every operand carries a bitmap → the chunked-bitmap AND wins.
        assert_eq!(
            kind(&p, &[dense(50_000, 2), dense(60_000, 2)]),
            PlanKind::BitmapAnd
        );
        assert_eq!(
            kind(&p, &[dense(10_000, 2), dense(20_000, 2)]),
            PlanKind::BitmapAnd
        );
        // A bitmap-less driver vetoes the sweep, and its probes into a
        // bitmap are bit tests: the membership probe wins at every skew.
        assert_eq!(
            kind(&p, &[sparse(1_000), dense(80_000, 2)]),
            PlanKind::HashProbe
        );
        assert_eq!(
            kind(&p, &[sparse(1000), dense(6000, 1)]),
            PlanKind::HashProbe
        );
        assert_eq!(
            kind(&p, &[sparse(20_000), dense(40_000, 31)]),
            PlanKind::HashProbe
        );
        // Each probed operand is priced by what it probes: a balanced
        // triple probes its first bitmap with a bit test per candidate and
        // beats the merge; make that first probed operand bitmap-less and
        // galloping through it costs more than merging it.
        assert_eq!(
            kind(&p, &[sparse(3000), dense(3000, 1), dense(3000, 1)]),
            PlanKind::HashProbe
        );
        assert_eq!(
            kind(&p, &[sparse(3000), sparse(3000), dense(3000, 1)]),
            PlanKind::SimdMerge
        );
        // The sweep also pays for what it extracts: a pass over every
        // result word, and a fixed run per word holding a survivor. A
        // 2 048-member bitmap driver against one bitmap, both in one chunk:
        // the probe must first extract all 2 048 members — a pass over the
        // driver's words and a run per word it fills — so whether the
        // partner keeps an eighth of it (most result words empty) or nearly
        // all of it (nearly every word full), the sweep costs less.
        let sweep = |partner_n| kind(&p, &[dense(2048, 1), dense(partner_n, 1)]);
        assert_eq!(sweep(8_000), PlanKind::BitmapAnd);
        assert_eq!(sweep(64_000), PlanKind::BitmapAnd);
        // The benchmark corpus's shapes (2 M documents, 31 chunks): the
        // `t0 ∧ t3` pair sweeps (≈ 105 µs against a 191 µs probe, and
        // the probe planned before the walk was branch-free), and so does
        // the skinny `[4, 9]` pair whose result fills one word in nine.
        for planner in [Planner::default(), Planner::for_simd(SimdLevel::Avx2)] {
            assert_eq!(
                kind(&planner, &[dense(600_000, 31), dense(150_000, 31)]),
                PlanKind::BitmapAnd
            );
            assert_eq!(
                kind(&planner, &[dense(120_000, 31), dense(60_000, 31)]),
                PlanKind::BitmapAnd
            );
        }
        // Degenerate inputs.
        assert_eq!(kind(&p, &[sparse(0), sparse(10)]), PlanKind::Empty);
        assert_eq!(kind(&p, &[]), PlanKind::Empty);
        assert_eq!(kind(&p, &[sparse(10)]), PlanKind::Single);
    }

    /// Probing a bitmap-less list is priced as the galloping cursor it
    /// runs: a larger list costs more per candidate, and fewer than one
    /// expected candidate pays its share of one search, not more.
    #[test]
    fn a_bitmap_less_probe_is_priced_as_a_gallop() {
        let p = Planner::default();
        let gallop = p.unit(CostUnit::Gallop);
        let small = p.probe_cost(1000.0, &sparse(2000));
        let large = p.probe_cost(1000.0, &sparse(64_000));
        assert_eq!(small, gallop * 1000.0 * 4f64.log2());
        assert!(large > small);
        assert_eq!(p.probe_cost(1000.0, &dense(64_000, 1)), 2000.0);
        let share = p.probe_cost(0.25, &sparse(1 << 20));
        assert!((share - 0.25 * gallop * ((1 << 20) as f64 + 2.0).log2()).abs() < 1e-9);
    }

    #[test]
    fn simd_tuning_only_cheapens_vectorized_units() {
        let base = Planner::default();
        for level in SimdLevel::ALL {
            let tuned = Planner::for_simd(level);
            // The bitmap sweep and the merge are the vectorized units;
            // everything else is untouched so scalar-calibrated crossovers
            // stay put.
            for unit in CostUnit::ALL {
                if matches!(unit, CostUnit::BitmapWord | CostUnit::Merge) {
                    assert!(tuned.unit(unit) <= base.unit(unit), "{level:?}");
                } else {
                    assert_eq!(tuned.unit(unit), base.unit(unit), "{level:?} {unit:?}");
                }
            }
        }
        // Scalar tuning IS the default; auto() follows the active tier.
        assert_eq!(Planner::for_simd(SimdLevel::Scalar), base);
        assert_eq!(Planner::auto(), Planner::for_simd(SimdLevel::active()));
        // A cheaper sweep can only widen the BitmapAnd region: a query it
        // already won under scalar constants it must still win tuned.
        let dense_pair = [dense(50_000, 2), dense(60_000, 2)];
        for level in SimdLevel::ALL {
            assert_eq!(
                kind(&Planner::for_simd(level), &dense_pair),
                PlanKind::BitmapAnd
            );
        }
    }

    #[test]
    fn plan_order_is_ascending_by_size() {
        let p = Planner::default();
        let plan = p.plan(&[sparse(500), sparse(20), sparse(9000), sparse(100)], U);
        assert_eq!(plan.order, vec![1, 3, 0, 2]);
        assert!(plan.est_cost > 0.0);
    }

    #[test]
    fn all_plans_are_correct() {
        let mut rng = StdRng::seed_from_u64(5);
        let scalar = Planner::default();
        let avx2 = Planner::for_simd(SimdLevel::Avx2);
        // Balanced sparse: merged at every tier (the merge runs at whatever
        // tier this machine dispatches).
        let a: SortedSet = (0..2000).map(|_| rng.gen_range(0..2_000_000u32)).collect();
        let b: SortedSet = (0..2000).map(|_| rng.gen_range(0..2_000_000u32)).collect();
        let pa = PlannedList::build(&a);
        let pb = PlannedList::build(&b);
        for (planner, expect) in [(&scalar, PlanKind::SimdMerge), (&avx2, PlanKind::SimdMerge)] {
            let mut out = Vec::new();
            let plan = run(planner, &[&pa, &pb], &mut out);
            assert_eq!(plan.kind, expect);
            assert_eq!(out, reference_intersection(&[a.as_slice(), b.as_slice()]));
        }
        // Moderate skew (ratio ≈ 6, inside the gallop's band at scalar).
        let small: SortedSet = (0..330u32).map(|x| x * 6_000).collect();
        let ps = PlannedList::build(&small);
        let mut out = Vec::new();
        let plan = run(&scalar, &[&ps, &pb], &mut out);
        assert_eq!(plan.kind, PlanKind::HashProbe);
        assert_eq!(plan.order, vec![0, 1]);
        assert_eq!(
            out,
            reference_intersection(&[small.as_slice(), b.as_slice()])
        );
        // Extreme skew: galloped through arrays, bit-tested against a
        // bitmap.
        let tiny: SortedSet = (0..20u32).map(|x| x * 4_000).collect();
        let pt = PlannedList::build(&tiny);
        let d1: SortedSet = (0..40_000u32).map(|x| x * 2).collect();
        let d2: SortedSet = (0..40_000u32).map(|x| x * 2 + (x % 2)).collect();
        let pd1 = PlannedList::build(&d1);
        let pd2 = PlannedList::build(&d2);
        for (partner, set) in [(&pb, &b), (&pd1, &d1)] {
            let mut out = Vec::new();
            let plan = run(&scalar, &[&pt, partner], &mut out);
            assert_eq!(plan.kind, PlanKind::HashProbe);
            assert_eq!(
                out,
                reference_intersection(&[tiny.as_slice(), set.as_slice()])
            );
        }
        // Dense.
        let mut out = Vec::new();
        let plan = run(&scalar, &[&pd1, &pd2], &mut out);
        assert_eq!(plan.kind, PlanKind::BitmapAnd);
        assert_eq!(out, reference_intersection(&[d1.as_slice(), d2.as_slice()]));
        // Single and empty.
        let mut out = Vec::new();
        let plan = run(&scalar, &[&pa], &mut out);
        assert_eq!(plan.kind, PlanKind::Single);
        assert_eq!(out, a.as_slice());
        let empty = PlannedList::build(&SortedSet::new());
        let mut out = Vec::new();
        let plan = run(&scalar, &[&pa, &empty], &mut out);
        assert_eq!(plan.kind, PlanKind::Empty);
        assert!(out.is_empty());
    }

    #[test]
    fn sparse_lists_skip_the_bitmap_and_veto_bitmap_plans() {
        // ~1/131072 dense: the planner can never pick BitmapAnd for a query
        // containing this list, so no 8KiB-per-chunk bitmap is built.
        let sparse_a: SortedSet = (0..100u32).map(|x| x * 131_072).collect();
        let sparse_b: SortedSet = (0..120u32).map(|x| x * 109_997 + 13).collect();
        let dense_c: SortedSet = (0..10_000u32).map(|x| x * 4).collect();
        let pa = PlannedList::build(&sparse_a);
        let pb = PlannedList::build(&sparse_b);
        let pd = PlannedList::build(&dense_c);
        assert!(pa.bitmap().is_none());
        assert!(pb.bitmap().is_none());
        assert!(pd.bitmap().is_some());
        // One bitmap-less operand makes BitmapAnd inadmissible at every
        // tier (`compressed_gallop_is_never_planned` sweeps the shapes).
        for planner in SimdLevel::ALL.map(Planner::for_simd) {
            for (lists, sets) in [
                ([&pa, &pb], [&sparse_a, &sparse_b]),
                ([&pa, &pd], [&sparse_a, &dense_c]),
            ] {
                let mut out = Vec::new();
                let plan = run(&planner, &lists, &mut out);
                assert_ne!(plan.kind, PlanKind::BitmapAnd);
                assert_eq!(out, reference_intersection(&sets.map(|s| s.as_slice())));
            }
        }
    }

    #[test]
    fn a_list_carries_a_bitmap_only_at_one_member_per_word() {
        // One member per bitmap word is the boundary: exactly 1024 members
        // in one chunk gets the bitmap, one fewer arrays.
        let at_rule: SortedSet = (0..WORDS_PER_CHUNK as u32).map(|x| x * 64).collect();
        let below_rule: SortedSet = (1..WORDS_PER_CHUNK as u32).map(|x| x * 64).collect();
        // Dense in two chunks far up the id space: under 1/16 of `max + 1`,
        // but the bitmap only pays for the chunks it touches.
        let high: SortedSet = (0..4096u32).map(|x| 3_000_000_000 + x * 20).collect();
        let empty = SortedSet::new();
        for (set, bitmap) in [
            (&at_rule, true),
            (&below_rule, false),
            (&high, true),
            (&empty, true),
        ] {
            let list = PlannedList::build(set);
            assert_eq!(list.bitmap().is_some(), bitmap, "n={}", set.len());
            if let Some(b) = list.bitmap() {
                assert!(list.n() >= b.num_chunks() * WORDS_PER_CHUNK);
                assert!(set.iter().all(|x| b.contains(x)) && !b.contains(7));
            }
            // One representation: a bitmap list keeps no array copy.
            let bytes = list.bytes_by_repr();
            let arrays = if bitmap {
                0
            } else {
                2 * list.n() + 6 * BitmapSet::count_chunks(set.as_slice()) + 4
            };
            assert_eq!(bytes.array, arrays);
            assert_eq!(bytes.bitmap == 0, list.bitmap().is_none() || set.is_empty());
            assert_eq!(bytes.total(), list.size_in_bytes());
        }
    }

    /// Every plan `plan` emits over a sweep of operand shapes — sparse and
    /// dense operands, k = 2…5, size ratios 1…512 between neighbours —
    /// at every SIMD tier, with whether a bitmap-less operand vetoes the
    /// bitmap sweep.
    fn swept_plans() -> Vec<(Planner, Vec<OperandStats>, PlanKind, bool)> {
        let mut plans = Vec::new();
        for k in 2..=5usize {
            for ratio in (0..10).map(|e| 1usize << e) {
                for dense_mask in 0..1u32 << k {
                    let stats: Vec<OperandStats> = (0..k)
                        .map(|i| {
                            let n = 64 * ratio.pow(i as u32).min(1 << 22);
                            if dense_mask >> i & 1 == 1 {
                                dense(n, n.div_ceil(8 * WORDS_PER_CHUNK).max(1))
                            } else {
                                sparse(n)
                            }
                        })
                        .collect();
                    let vetoed = dense_mask != (1 << k) - 1;
                    for p in SimdLevel::ALL.map(Planner::for_simd) {
                        let kind = p.plan(&stats, U).kind;
                        plans.push((p, stats.clone(), kind, vetoed));
                    }
                }
            }
        }
        plans
    }

    /// No swept shape makes `plan` emit `CompressedGallop`, and none with
    /// a bitmap-less operand makes it emit `BitmapAnd`. (A hand-built
    /// plan of either kind still answers — `every_forced_kernel_is_correct`
    /// runs both.)
    #[test]
    fn compressed_gallop_is_never_planned() {
        for (p, stats, kind, vetoed) in swept_plans() {
            assert_ne!(kind, PlanKind::CompressedGallop, "{stats:?}");
            assert!(!(vetoed && kind == PlanKind::BitmapAnd), "{p:?} {stats:?}");
        }
    }

    /// `plan` emits only the kinds it prices — no swept shape makes it
    /// emit `RanGroupScan` (no list carries its structure; a hand-built plan
    /// of that kind runs the merge), `GallopProbe` or `HeapMerge` — while
    /// the merge itself is planned at the vectorized tiers. The probe never
    /// prices above a gallop of the smallest list through every other,
    /// which is why `GallopProbe` needs no price of its own.
    #[test]
    fn rangroupscan_is_never_planned() {
        let plans = swept_plans();
        for (p, stats, kind, _) in &plans {
            assert!(
                matches!(
                    kind,
                    PlanKind::Empty
                        | PlanKind::Single
                        | PlanKind::HashProbe
                        | PlanKind::SimdMerge
                        | PlanKind::BitmapAnd
                ),
                "{kind:?} {p:?} {stats:?}"
            );
            assert_ne!(*kind, PlanKind::GallopProbe, "{p:?} {stats:?}");
            let mut by_size = stats.clone();
            by_size.sort_by_key(|s| s.n);
            let n_min = by_size[0].n as f64;
            // A gallop reads its driver as a sorted run as the probe does.
            let gallop = p.sorted_read_cost(&by_size[0])
                + p.gallop_cost(n_min, by_size[1..].iter().map(|s| s.n as f64));
            let probe = p.probe_price(&by_size, U);
            assert!(probe <= gallop, "{probe} > {gallop}: {p:?} {stats:?}");
        }
        for simd in [SimdLevel::Sse41, SimdLevel::Avx2] {
            assert!(plans.iter().any(
                |(p, _, kind, _)| *p == Planner::for_simd(simd) && *kind == PlanKind::SimdMerge
            ));
        }
    }

    /// The cost table alone picks the kernel: for a shape each plannable
    /// kind owns at a tier, pricing every candidate by hand from
    /// [`Planner::unit`] gives that kind as the cheapest, at exactly the
    /// plan's estimate.
    #[test]
    fn each_plannable_kernel_wins_at_its_table_price() {
        use CostUnit::*;
        use PlanKind::{BitmapAnd, HashProbe, SimdMerge};
        let dense_pair = [dense(50_000, 2), dense(60_000, 2)];
        // The owner at scalar, SSE4.1 and AVX2.
        let shapes: [(&[OperandStats], [PlanKind; 3]); 6] = [
            (&[sparse(3000), sparse(4000), sparse(5000)], [SimdMerge; 3]),
            (
                &[sparse(1000), sparse(7000)],
                [HashProbe, SimdMerge, SimdMerge],
            ),
            (&[sparse(20), sparse(2000)], [HashProbe; 3]),
            (
                &[sparse(100), sparse(5000), sparse(80_000)],
                [HashProbe, SimdMerge, SimdMerge],
            ),
            (&[sparse(1000), dense(80_000, 2)], [HashProbe; 3]),
            (&dense_pair, [BitmapAnd; 3]),
        ];
        for (tier, p) in SimdLevel::ALL
            .map(Planner::for_simd)
            .into_iter()
            .enumerate()
        {
            for (stats, owners) in shapes {
                let owner = owners[tier];
                let mut by_size = stats.to_vec();
                by_size.sort_by_key(|s| s.n);
                let ns: Vec<f64> = by_size.iter().map(|s| s.n as f64).collect();
                let (n_min, k) = (ns[0], ns.len() as f64);
                // `c` ascending candidates galloped through an `n`-list.
                let gallop = |c: f64, n: f64| p.unit(Gallop) * c * (n / c.max(1.0) + 2.0).log2();
                let probe = |c: f64, s: &OperandStats| match s.chunks {
                    Some(_) => p.unit(BitTest) * c,
                    None => gallop(c, s.n as f64),
                };
                // A bitmap read as a sorted run is extracted: a pass over
                // its words and a run per word holding a member.
                let read = |s: &OperandStats| {
                    s.chunks.map_or(0.0, |c| {
                        let words = (c * WORDS_PER_CHUNK) as f64;
                        p.unit(Scan) * words + p.unit(Extract) * (s.n as f64).min(words)
                    })
                };
                // Both probing plans pay the same tail: the first two
                // lists' estimated survivors, tested against the rest.
                let survivors = n_min * ns[1] / U as f64;
                let tail: f64 = by_size[2..].iter().map(|s| probe(survivors, s)).sum();
                // Two bitmap-less lists spread over the universe's chunks
                // meet in the chunks both touch, a block's elements each.
                let chunks = (U as f64 / (WORDS_PER_CHUNK * 64) as f64).ceil();
                let touched = |n: f64| chunks * (1.0 - (-n / chunks).exp());
                let block = [1.0, 8.0, 16.0][tier];
                let merge = match (by_size[0].chunks, by_size[1].chunks) {
                    (None, None) => {
                        let shared = touched(ns[0]) * touched(ns[1]) / chunks;
                        p.unit(Merge) * (ns[0] + ns[1] + block * shared)
                    }
                    _ => p.unit(Merge) * (ns[0] + ns[1]) + read(&by_size[0]) + read(&by_size[1]),
                };
                let mut prices = vec![
                    (PlanKind::SimdMerge, merge + tail),
                    (
                        PlanKind::HashProbe,
                        read(&by_size[0]) + probe(n_min, &by_size[1]) + tail,
                    ),
                ];
                if owner == PlanKind::BitmapAnd {
                    // Both operands fill their two chunks, so every result
                    // word holds a survivor.
                    let words = (2 * WORDS_PER_CHUNK) as f64;
                    let sweep = p.unit(BitmapWord) * words * (k - 1.0);
                    prices.push((PlanKind::BitmapAnd, sweep + p.extract_cost(words, words)));
                }
                let cheapest = prices
                    .iter()
                    .copied()
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .unwrap();
                assert_eq!(cheapest.0, owner, "{p:?} {prices:?}");
                let plan = p.plan(stats, U);
                assert_eq!(plan.kind, owner, "{p:?}");
                assert!(
                    (plan.est_cost - cheapest.1).abs() <= 1e-9 * cheapest.1,
                    "{p:?}"
                );
            }
        }
    }

    /// The merge pays a block's elements per chunk both arrays touch: the
    /// same pair spread over more chunks prices higher, and a pair that
    /// reads a bitmap runs the flat merge, which walks no chunks.
    #[test]
    fn the_merge_pays_per_shared_chunk() {
        let p = Planner::for_simd(SimdLevel::Avx2);
        let merge = p.unit(CostUnit::Merge);
        let pair = [sparse(5000), sparse(6000)];
        // One chunk holds both lists.
        let near = p.plan(&pair, 1 << 16);
        assert_eq!(near.kind, PlanKind::SimdMerge);
        assert!((near.est_cost - merge * (11_000.0 + 16.0)).abs() < 1e-6);
        // Over 1024 chunks they meet in ≈ 1013.
        let far = p.plan(&pair, 1 << 26);
        assert_eq!(far.kind, PlanKind::SimdMerge);
        let shared = (far.est_cost / merge - 11_000.0) / 16.0;
        assert!((1000.0..1024.0).contains(&shared), "{shared}");
        // A bitmap input: the elements and the extraction only.
        let (bitmap, array) = (dense(5000, 1), sparse(6000));
        let read = p.sorted_read_cost(&bitmap);
        assert!(read > 0.0);
        assert_eq!(
            p.merge_price(&bitmap, &array, 1 << 26),
            merge * 11_000.0 + read
        );
    }

    /// A list carries one representation, so the merge reads a bitmap
    /// operand only after extracting it: against a bitmap partner a sparse
    /// driver the merge used to take is bit-tested instead.
    #[test]
    fn a_merge_whose_second_operand_is_a_bitmap_becomes_the_probe() {
        let p = Planner::for_simd(SimdLevel::Avx2);
        let pair = [sparse(20_000), dense(32_000, 31)];
        let plan = p.plan(&pair, U);
        assert_eq!(plan.kind, PlanKind::HashProbe);
        assert_eq!(plan.est_cost, p.unit(CostUnit::BitTest) * 20_000.0);
        // Merging the two would be cheaper than the bit tests, were the
        // bitmap not extracted first.
        let merge = p.unit(CostUnit::Merge) * 52_000.0;
        assert!(merge < plan.est_cost);
        assert!(merge + p.sorted_read_cost(&pair[1]) > plan.est_cost);
    }

    /// Between bitmaps the probe pays its driver's extraction before its
    /// first bit test, and the sweep pays to extract only its result: the
    /// benchmark corpus's `t3 ∧ t0` pair (31 chunks), once probed, sweeps.
    #[test]
    fn an_all_bitmap_pair_sweeps_once_the_probe_extracts_its_driver() {
        let pair = [dense(40_000, 31), dense(600_000, 31)];
        let words = (31 * WORDS_PER_CHUNK) as f64;
        let survivors = 40_000.0 * 600_000.0 / (words * 64.0);
        for p in SimdLevel::ALL.map(Planner::for_simd) {
            let plan = p.plan(&pair, U);
            assert_eq!(plan.kind, PlanKind::BitmapAnd, "{p:?}");
            // The sweep's price holds its own extraction.
            let sweep = p.unit(CostUnit::BitmapWord) * words + p.extract_cost(survivors, words);
            assert!((plan.est_cost - sweep).abs() <= 1e-9 * sweep, "{p:?}");
            // The bit tests alone cost less than the sweep; the driver's
            // extraction is what the probe loses by.
            let tests = p.unit(CostUnit::BitTest) * 40_000.0;
            assert!(tests < sweep, "{p:?}");
            assert_eq!(
                p.sorted_read_cost(&pair[0]),
                p.extract_cost(40_000.0, words)
            );
            assert!(p.sorted_read_cost(&pair[0]) + tests > sweep, "{p:?}");
        }
    }

    /// Every kind, forced onto k = 2…8 operands that mix bitmap-carrying
    /// and bitmap-less lists at driver skews 1…512, with an empty operand
    /// and with a duplicated one, answers the reference intersection
    /// ascending (`BitmapAnd` only where every operand carries a bitmap).
    /// Every operand holds `0`, `u32::MAX` and the values on both sides of
    /// a 2¹⁶ chunk boundary, so a galloping probe must find them at the
    /// very ends of an array list.
    #[test]
    fn every_forced_kernel_is_correct() {
        const BOUNDARY: u32 = 1 << 16;
        let edges = [0, BOUNDARY - 1, BOUNDARY, u32::MAX - 1, u32::MAX];
        let mut rng = StdRng::seed_from_u64(6);
        // Two hot ranges, around the boundary and at the top of the id
        // space: three chunks in all, so 6 000 members carry a bitmap and
        // 3 000 do not.
        let mut draw = |n: usize| -> SortedSet {
            (0..n)
                .map(|i| match i % 2 {
                    0 => rng.gen_range(BOUNDARY - 6_000..BOUNDARY + 6_000),
                    _ => rng.gen_range(u32::MAX - 12_000..=u32::MAX),
                })
                .chain(edges)
                .collect()
        };
        for k in 2..=8usize {
            for ratio in [1, 8, 64, 512] {
                for case in 0..3 {
                    let mut sets: Vec<SortedSet> = (0..k)
                        .map(|i| match i {
                            0 => draw(6000 / ratio),
                            _ if i % 3 == 2 => draw(3000),
                            _ => draw(6000),
                        })
                        .collect();
                    match case {
                        1 => sets[k - 1] = sets[0].clone(),
                        2 => sets[k / 2] = SortedSet::new(),
                        _ => {}
                    }
                    let lists: Vec<PlannedList> = sets.iter().map(PlannedList::build).collect();
                    let refs: Vec<&PlannedList> = lists.iter().collect();
                    assert_eq!(refs[0].bitmap().is_some(), ratio == 1);
                    let slices: Vec<&[u32]> = sets.iter().map(|s| s.as_slice()).collect();
                    let expect = reference_intersection(&slices);
                    assert_eq!(expect.last() == Some(&u32::MAX), case != 2);
                    let planner = Planner::default();
                    let base = planner.plan_for_lists(&refs, u64::from(u32::MAX) + 1);
                    for forced in [
                        PlanKind::SimdMerge,
                        PlanKind::RanGroupScan,
                        PlanKind::HashProbe,
                        PlanKind::BitmapAnd,
                        PlanKind::GallopProbe,
                        PlanKind::HeapMerge,
                        PlanKind::CompressedGallop,
                    ] {
                        if forced == PlanKind::BitmapAnd
                            && refs.iter().any(|l| l.bitmap().is_none())
                        {
                            continue;
                        }
                        let plan = MultiwayPlan {
                            kind: forced,
                            ..base.clone()
                        };
                        let mut out = Vec::new();
                        planner.execute(&plan, &refs, &mut out);
                        assert_eq!(out, expect, "forced {forced:?} k={k} 1:{ratio} case {case}");
                    }
                }
            }
        }
    }

    /// An order that omits an operand would make the probe return a
    /// superset; every kind refuses it alike instead.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "does not cover 2 operands")]
    fn execute_rejects_an_order_that_drops_an_operand() {
        let lists = [
            PlannedList::build(&(0..100u32).collect()),
            PlannedList::build(&(50..4000u32).collect()),
        ];
        let refs: Vec<&PlannedList> = lists.iter().collect();
        let plan = MultiwayPlan {
            kind: PlanKind::HashProbe,
            order: vec![0],
            est_cost: 0.0,
        };
        Planner::default().execute(&plan, &refs, &mut Vec::new());
    }

    #[test]
    fn planned_executor_matches_reference() {
        let ctx = fsi_core::hash::HashContext::new(46);
        let mut rng = StdRng::seed_from_u64(8);
        let postings: Vec<SortedSet> = (0..12)
            .map(|i| {
                let n = 200 * (i + 1);
                (0..n).map(|_| rng.gen_range(0..60_000u32)).collect()
            })
            .collect();
        let engine = SearchEngine::from_postings(ctx, postings);
        for planner in SimdLevel::ALL.map(Planner::for_simd) {
            let exec = engine.planned_executor(planner);
            assert_eq!(exec.num_terms(), 12);
            assert!(exec.size_in_bytes() > 0);
            for terms in [
                vec![0usize, 1],
                vec![0, 5, 11],
                vec![3, 3, 7], // duplicate term
                vec![9],
                vec![],
            ] {
                let slices: Vec<&[u32]> = terms
                    .iter()
                    .map(|&t| engine.posting(t).as_slice())
                    .collect();
                let expect = reference_intersection(&slices);
                let lists: Vec<&PlannedList> = terms.iter().map(|&t| exec.list(t)).collect();
                let plan = exec.plan(&terms);
                assert_eq!(plan, exec.planner().plan_for_lists(&lists, exec.universe()));
                let mut out = vec![0u32]; // `execute` appends: the prefix survives
                exec.planner().execute(&plan, &lists, &mut out);
                assert_eq!(&out[..1], &[0]);
                assert_eq!(&out[1..], expect.as_slice(), "{planner:?} {terms:?}");
            }
        }
    }
}
