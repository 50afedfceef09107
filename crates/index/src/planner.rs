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
//! units of [`Planner`]'s tunable constants:
//!
//! | kind | estimated cost | regime it owns |
//! |------|----------------|----------------|
//! | [`PlanKind::BitmapAnd`] | `bitmap_word_unit · c_min · 1024 · (k−1) + 10 · min(E[survivors], c_min · 1024)` | every operand carries a chunk bitmap |
//! | [`PlanKind::HashProbe`] | `n_min · Σᵢ uᵢ`, `uᵢ = 2` for a probed bitmap, `hash_unit` for a probed table | a small driver against anything: `O(n_min)` membership tests |
//! | [`PlanKind::GallopProbe`] | `gallop_unit · n_min · Σᵢ log₂(nᵢ/n_min + 2)` | moderate skew between table-carrying lists (Hwang–Lin across all k) |
//! | [`PlanKind::RanGroupScan`] | `rgs_unit · Σ nᵢ` | balanced sparse — the paper's home turf |
//! | [`PlanKind::HeapMerge`] | `heap_unit · Σ nᵢ · log₂ k` | structure-free fallback (tunables can force it) |
//!
//! The minimum-cost candidate wins; `c_min` is the smallest per-operand
//! chunk count, so the bitmap estimate prices the word sweep
//! [`BitmapSet::intersect_k_into`] executes plus the result words it then
//! extracts survivors from (survivors estimated under independence from
//! each operand's density inside its own chunks, and no more words hold
//! one than were swept). The membership probe is priced **per
//! probed operand**: a bit test and a table probe are different units.
//!
//! A [`PlannedList`] keeps the representations a plan can bind and no
//! other: the flat sorted list (the probe driver, gallop probes, heap
//! merge), the RanGroupScan structure, and **exactly one** [`Membership`]
//! structure (so four structures exist, three per list) — a chunked bitmap
//! when the list has at least one member per bitmap word of the chunks it
//! touches (the bitmap then costs ≤ 8 B/posting, never more than the
//! load-≤½ table), a hash table otherwise. The choice is computed from the
//! list and nothing else, and on a Zipf corpus it gives every
//! stop-word-sized list a structure that stays cache-resident (8 KiB per
//! touched chunk) instead of a multi-megabyte table.
//!
//! Block postings (`fsi_compress::BlockPostings`) are not among them: a
//! decode-then-probe walk costs a gallop plus the decode, so it never
//! priced below [`PlanKind::GallopProbe`] and was never planned. They run
//! under the fixed `Strategy::CompressedGallop` — see `docs/compress.md`.
//!
//! The default constants reflect *this repository's measured* crossovers
//! (see `docs/benchmarks.md`, `BENCH_kernels.json`, `BENCH_multiway.json`
//! and the benchmark's `kernels.forced_ns.*`): between table-carrying
//! lists galloping overtakes RanGroupScan near ratio 5 and the table probe
//! overtakes galloping near ratio 8; a bit test costs a quarter of a table
//! probe, so a table-carrying driver probes bitmap operands at any skew;
//! and between bitmap-carrying lists the sweep wins unless the result is
//! so dense that extracting it outweighs one bit test per driver element.
//! The `Planner` fields are tunables because the right answers are
//! hardware-bound; the bit-test and extraction units are private constants
//! calibrated against them.

use crate::engine::SearchEngine;
use fsi_baselines::ProbeTable;
use fsi_compress::BlockPostings;
use fsi_core::elem::{Elem, SortedSet};
use fsi_core::hash::HashContext;
use fsi_core::traits::{KIntersect, SetIndex};
use fsi_core::RanGroupScanIndex;
use fsi_kernels::{
    filter_in_place, gallop_probe_ordered_into, heap_merge_into, BitmapSet, GallopingSet,
    WORDS_PER_CHUNK,
};

/// The one membership structure a prepared list carries — what
/// [`PlanKind::HashProbe`] and `fsi-query`'s `AND NOT` test candidates
/// against. [`PlannedList::build`] picks whichever is smaller: the bitmap
/// when the list has at least one member per bitmap word of the chunks it
/// touches, the table otherwise. "Both" and "neither" are not
/// representable.
#[derive(Debug, Clone)]
pub enum Membership {
    /// A chunked bitmap: one bit per document of every 2¹⁶-value chunk the
    /// list touches. Also what [`PlanKind::BitmapAnd`] and the expression
    /// planner's bitmap `OR` sweep.
    Bitmap(BitmapSet),
    /// An open-addressing table over the list's elements (the flat slice
    /// holds the elements themselves; the table keeps no second copy).
    Hash(ProbeTable),
}

/// The build rule shared by [`PlannedList::build`] and
/// [`OperandStats::of_set`]: a list of `n` elements touching `chunks`
/// chunks carries a bitmap iff it has at least one member per bitmap word.
/// The bitmap then costs at most 8 bytes per posting — never more than the
/// load-≤½ table it stands in for — so the rule picks the smaller
/// structure from the list alone, with no density constant to tune.
fn bitmap_is_smaller(n: usize, chunks: usize) -> bool {
    n >= chunks * WORDS_PER_CHUNK
}

/// Resident heap bytes split by physical representation — what the
/// `fsi_index_bytes{repr=…}` gauges export. The parts sum to
/// [`PlannedList::size_in_bytes`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReprBytes {
    /// Flat sorted lists.
    pub flat: usize,
    /// Chunked bitmaps (lists whose membership structure is a bitmap).
    pub bitmap: usize,
    /// Hash tables (every other list).
    pub hash: usize,
    /// RanGroupScan group structures.
    pub rgs: usize,
}

impl ReprBytes {
    /// The parts under their gauge labels, in a fixed order.
    pub fn parts(&self) -> [(&'static str, usize); 4] {
        [
            ("flat", self.flat),
            ("bitmap", self.bitmap),
            ("hash", self.hash),
            ("rgs", self.rgs),
        ]
    }

    /// Sum over every representation.
    pub fn total(&self) -> usize {
        self.parts().iter().map(|(_, b)| b).sum()
    }
}

impl std::ops::AddAssign for ReprBytes {
    fn add_assign(&mut self, o: Self) {
        self.flat += o.flat;
        self.bitmap += o.bitmap;
        self.hash += o.hash;
        self.rgs += o.rgs;
    }
}

/// A posting list prepared for every representation a plan can bind: the
/// flat list, the RanGroupScan structure, and one [`Membership`] structure
/// (a bitmap or a hash table).
#[derive(Debug, Clone)]
pub struct PlannedList {
    membership: Membership,
    rgs: RanGroupScanIndex,
    flat: GallopingSet,
}

impl PlannedList {
    /// Preprocesses `set` for every structure the planner can dispatch to.
    pub fn build(ctx: &HashContext, set: &SortedSet) -> Self {
        let elems = set.as_slice();
        let membership = if bitmap_is_smaller(elems.len(), BitmapSet::count_chunks(elems)) {
            Membership::Bitmap(BitmapSet::from_sorted_slice(elems))
        } else {
            Membership::Hash(ProbeTable::build(elems))
        };
        Self {
            membership,
            rgs: RanGroupScanIndex::with_m(ctx, set, 2),
            flat: GallopingSet::build(set),
        }
    }

    /// Number of elements.
    pub fn n(&self) -> usize {
        self.rgs.n()
    }

    /// The flat sorted list — what boolean-expression evaluation
    /// (`fsi-query`) feeds to the union/difference slice kernels.
    pub fn flat(&self) -> &[Elem] {
        self.flat.as_slice()
    }

    /// The list's one membership structure.
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// The chunked bitmap, when that is the membership structure this list
    /// carries — what the bitmap `AND`/`OR` sweeps and `AND NOT`'s bit
    /// test bind.
    pub fn bitmap(&self) -> Option<&BitmapSet> {
        match &self.membership {
            Membership::Bitmap(b) => Some(b),
            Membership::Hash(_) => None,
        }
    }

    /// Always `None`: no list carries block postings. Kept only because
    /// the frozen `benchmark/src/replay.rs` compiles against it.
    pub fn compressed(&self) -> Option<&BlockPostings> {
        None
    }

    /// The cost-model inputs of this list: its size, and its chunk count
    /// when it carries a bitmap.
    pub fn stats(&self) -> OperandStats {
        OperandStats {
            n: self.n(),
            chunks: self.bitmap().map(BitmapSet::num_chunks),
        }
    }

    /// Footprint of each prepared structure.
    pub fn bytes_by_repr(&self) -> ReprBytes {
        let (bitmap, hash) = match &self.membership {
            Membership::Bitmap(b) => (b.size_in_bytes(), 0),
            Membership::Hash(t) => (0, t.size_in_bytes()),
        };
        ReprBytes {
            flat: self.flat.size_in_bytes(),
            bitmap,
            hash,
            rgs: self.rgs.size_in_bytes(),
        }
    }

    /// Total footprint of all prepared structures.
    pub fn size_in_bytes(&self) -> usize {
        self.bytes_by_repr().total()
    }
}

/// What the cost model needs to know about one operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperandStats {
    /// Number of elements.
    pub n: usize,
    /// Number of 2¹⁶-value chunks the list touches, if its membership
    /// structure is a chunk bitmap; `None` means it carries a hash table
    /// instead (fewer than one member per bitmap word).
    pub chunks: Option<usize>,
}

impl OperandStats {
    /// Stats of a raw sorted set, exactly as [`PlannedList::build`] would
    /// produce them: the chunk count is `Some` iff the build rule gives the
    /// list a bitmap.
    pub fn of_set(set: &SortedSet) -> Self {
        let chunks = BitmapSet::count_chunks(set.as_slice());
        Self {
            n: set.len(),
            chunks: bitmap_is_smaller(set.len(), chunks).then_some(chunks),
        }
    }
}

/// Which k-way kernel a [`MultiwayPlan`] runs (exposed for tests and
/// telemetry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// An empty operand (or no operands): the result is empty, run nothing.
    Empty,
    /// One operand: copy its list through.
    Single,
    /// Balanced sparse sizes: Algorithm 5 group filtering (the paper).
    RanGroupScan,
    /// The membership probe: drive the smallest list's elements through
    /// every other operand's one [`Membership`] structure — a bit test
    /// where it is a bitmap, a table probe where it is a hash table.
    HashProbe,
    /// Every operand carries a bitmap: k-way chunked-bitmap `AND`, no
    /// intermediates.
    BitmapAnd,
    /// Moderate skew: gallop the smallest list through all the others at
    /// once.
    GallopProbe,
    /// Heap-based k-way merge (structure-free fallback).
    HeapMerge,
    /// Never emitted by [`Planner::plan`]; [`Planner::execute`] answers it
    /// as [`PlanKind::GallopProbe`]. Kept only because the frozen
    /// `benchmark/src/replay.rs` compiles against it.
    CompressedGallop,
}

impl PlanKind {
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
        }
    }

    /// Bumps this kind's counter in the global metrics registry
    /// (`fsi_plan_kind_total{kind=...}`) — one relaxed increment on a
    /// cached handle per planned query.
    fn record_choice(self) {
        use std::sync::OnceLock;
        static COUNTERS: OnceLock<[std::sync::Arc<fsi_obs::Counter>; 8]> = OnceLock::new();
        let counters = COUNTERS.get_or_init(|| {
            [
                PlanKind::Empty,
                PlanKind::Single,
                PlanKind::RanGroupScan,
                PlanKind::HashProbe,
                PlanKind::BitmapAnd,
                PlanKind::GallopProbe,
                PlanKind::HeapMerge,
                PlanKind::CompressedGallop,
            ]
            .map(|k| {
                fsi_obs::Registry::global().counter("fsi_plan_kind_total", &[("kind", k.name())])
            })
        });
        // audit:allow(hot_path_index): the array is sized to the enum's variant count and indexed by discriminant
        counters[self as usize].inc();
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

/// Cost per candidate per probed *bitmap* in the membership probe: one
/// bit test through a cursor that looks each chunk up once, in a structure
/// that stays cache-resident (8 KiB per touched chunk). Calibrated, with
/// [`Planner::hash_unit`], on the benchmark's forced-kind timings; not a
/// tunable — which of the two a list pays is decided at build, by the list.
const BIT_TEST_UNIT: f64 = 2.0;

/// Cost per word of the bitmap sweep's result that holds a survivor: the
/// extraction scan's is-it-zero branch (a coin flip on half-empty results)
/// and the trailing-zeros pops behind it — work the per-word `AND` price
/// cannot see, and most of what the sweep costs when its operands are the
/// corpus's densest lists.
const EXTRACT_UNIT: f64 = 10.0;

/// The whole-query cost-model dispatcher.
#[derive(Debug, Clone)]
pub struct Planner {
    /// Cost per driver element per probed list, scaled by the galloping
    /// log factor (`log₂(nᵢ/n_min + 2)`).
    pub gallop_unit: f64,
    /// Cost per candidate per probed hash table. Several times a bit test:
    /// a table runs 8–16 bytes per posting, so a probe is a likely cache
    /// miss where a bitmap's word is not. Only lists too sparse for a
    /// bitmap carry a table, so the tables stay small, and against
    /// `gallop_unit` the default puts the skew crossover between two such
    /// lists near `n_max/n_min ≈ 8` (measured on the benchmark's forced
    /// kinds).
    pub hash_unit: f64,
    /// Cost per 64-bit `AND` word per non-driver operand in the chunked
    /// bitmap sweep.
    pub bitmap_word_unit: f64,
    /// Cost per input element for RanGroupScan's group-filtered scan.
    pub rgs_unit: f64,
    /// Cost per input element per `log₂ k` for the heap merge. The default
    /// keeps it strictly dominated by RanGroupScan (prepared lists always
    /// carry the RGS structure); tuning it below `rgs_unit` forces the
    /// structure-free path.
    pub heap_unit: f64,
}

impl Default for Planner {
    fn default() -> Self {
        Self {
            gallop_unit: 2.5,
            hash_unit: 8.0,
            bitmap_word_unit: 1.0,
            rgs_unit: 1.2,
            heap_unit: 2.0,
        }
    }
}

impl Planner {
    /// Constants tuned for one SIMD tier. [`Planner::default`] is the
    /// scalar calibration (deterministic across machines — what the plan
    /// tests pin); the SIMD tiers cheapen exactly the units whose kernels
    /// the `fsi-kernels` SIMD layer vectorizes, by the per-word/per-element
    /// speedups `BENCH_simd.json` measures on the dense shapes:
    ///
    /// * `bitmap_word_unit` — the chunk sweep ANDs 2/4 words per
    ///   instruction and PTEST-skips zero groups, so a word costs ~½/~⅓
    ///   of scalar (extraction of survivors stays scalar, which is why the
    ///   factor is milder than the lane count);
    /// * `rgs_unit` is *not* cheapened: RanGroupScan's group filtering is
    ///   already word-packed scalar code the SIMD layer does not touch —
    ///   under SIMD its *relative* price versus the vectorized kernels
    ///   rises, and the untouched constant expresses exactly that.
    pub fn for_simd(level: fsi_kernels::SimdLevel) -> Self {
        use fsi_kernels::SimdLevel;
        let mut p = Self::default();
        match level {
            SimdLevel::Scalar => {}
            SimdLevel::Sse41 => p.bitmap_word_unit = 0.55,
            SimdLevel::Avx2 => p.bitmap_word_unit = 0.35,
        }
        p
    }

    /// Constants tuned for the SIMD tier this process actually dispatches
    /// to ([`SimdLevel::active`](fsi_kernels::SimdLevel::active)) — what
    /// serving defaults use, so planned execution picks the vectorized
    /// bitmap sweep in the regimes where it now wins.
    pub fn auto() -> Self {
        Self::for_simd(fsi_kernels::SimdLevel::active())
    }
}

impl Planner {
    /// Cost-models the whole operand list and returns the minimum-cost
    /// plan. `stats` is positional: `order[i]` in the returned plan indexes
    /// into it.
    ///
    /// Every call records the chosen [`PlanKind`] and the winning estimated
    /// cost into the global metrics registry (`fsi_plan_kind_total{kind}`,
    /// `fsi_plan_est_cost`) — the always-on half of the planner's
    /// misprediction signal (the observed half is recorded where results
    /// materialize, in `fsi-query`).
    pub fn plan(&self, stats: &[OperandStats]) -> MultiwayPlan {
        let plan = self.plan_inner(stats);
        plan.kind.record_choice();
        {
            use std::sync::OnceLock;
            static EST_COST: OnceLock<std::sync::Arc<fsi_obs::Histogram>> = OnceLock::new();
            EST_COST
                .get_or_init(|| fsi_obs::Registry::global().histogram("fsi_plan_est_cost", &[]))
                .record(plan.est_cost.max(0.0) as u64);
        }
        plan
    }

    fn plan_inner(&self, stats: &[OperandStats]) -> MultiwayPlan {
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
            let est_cost = stats[0].n as f64;
            return MultiwayPlan {
                kind: PlanKind::Single,
                order,
                est_cost,
            };
        }
        let n_min = stats[order[0]].n as f64;
        let total: f64 = stats.iter().map(|s| s.n as f64).sum();
        let probes = (k - 1) as f64;

        let mut best = (PlanKind::RanGroupScan, self.rgs_unit * total);
        let mut consider = |kind: PlanKind, cost: f64| {
            if cost < best.1 {
                best = (kind, cost);
            }
        };
        let log_sum: f64 = order[1..]
            .iter()
            .map(|&i| (stats[i].n as f64 / n_min + 2.0).log2())
            .sum();
        consider(PlanKind::GallopProbe, self.gallop_unit * n_min * log_sum);
        // The membership probe is priced per probed operand: a bit test
        // into a bitmap that stays cache-resident and a probe into a hash
        // table are different units.
        let probe_units: f64 = order[1..]
            .iter()
            .map(|&i| match stats[i].chunks {
                Some(_) => BIT_TEST_UNIT,
                None => self.hash_unit,
            })
            .sum();
        consider(PlanKind::HashProbe, n_min * probe_units);
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
            let chunk_span = (WORDS_PER_CHUNK * 64) as f64;
            let survivors = stats.iter().fold(c_min as f64 * chunk_span, |rows, s| {
                rows * (s.n as f64 / (s.chunks.unwrap_or(1) as f64 * chunk_span)).min(1.0)
            });
            consider(
                PlanKind::BitmapAnd,
                self.bitmap_word_unit * words * probes + EXTRACT_UNIT * survivors.min(words),
            );
        }
        consider(
            PlanKind::HeapMerge,
            self.heap_unit * total * (k as f64).log2(),
        );
        MultiwayPlan {
            kind: best.0,
            order,
            est_cost: best.1,
        }
    }

    /// The plan for these prepared lists.
    pub fn plan_for_lists(&self, lists: &[&PlannedList]) -> MultiwayPlan {
        let stats: Vec<OperandStats> = lists.iter().map(|l| l.stats()).collect();
        self.plan(&stats)
    }

    /// The plan [`Planner::intersect`] would run for these raw operand
    /// sets — for harnesses that classify queries without prepared lists.
    /// Exactly matches [`Planner::plan_for_lists`] on the built lists.
    pub fn plan_for_sets(&self, sets: &[&SortedSet]) -> MultiwayPlan {
        let stats: Vec<OperandStats> = sets.iter().map(|s| OperandStats::of_set(s)).collect();
        self.plan(&stats)
    }

    /// Runs `plan` over `lists`, appending the intersection to `out` in the
    /// kernel's natural order (ascending for everything except
    /// RanGroupScan's g-order).
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
            PlanKind::Single => out.extend_from_slice(lists[plan.order[0]].flat.as_slice()),
            PlanKind::RanGroupScan => {
                let typed: Vec<&RanGroupScanIndex> = lists.iter().map(|l| &l.rgs).collect();
                RanGroupScanIndex::intersect_k_into(&typed, out);
            }
            PlanKind::HashProbe => {
                // The one membership probe: the smallest list's elements
                // are the candidates, filtered by each other operand's own
                // structure in turn (bit test or table probe), the most
                // selective operand first. `get`, not indexing, keeps the
                // loop panic-free; a position outside `lists` (ruled out
                // above in debug builds) empties the result.
                let Some((driver, rest)) = plan.order.split_first() else {
                    return;
                };
                let Some(driver) = lists.get(*driver) else {
                    return;
                };
                let start = out.len();
                out.extend_from_slice(driver.flat());
                for probed in rest {
                    match lists.get(*probed).map(|l| &l.membership) {
                        Some(Membership::Bitmap(b)) => {
                            let mut probe = b.probe();
                            filter_in_place(out, start, |x| probe.contains(x));
                        }
                        Some(Membership::Hash(t)) => filter_in_place(out, start, |x| t.contains(x)),
                        None => out.truncate(start),
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
            // `CompressedGallop` is never planned; a hand-built plan of
            // that kind gallops the flat lists, which is what its block
            // cursors decoded to.
            PlanKind::GallopProbe | PlanKind::CompressedGallop => {
                let driver = lists[plan.order[0]].flat.as_slice();
                let rest: Vec<&[Elem]> = plan.order[1..]
                    .iter()
                    .map(|&i| lists[i].flat.as_slice())
                    .collect();
                gallop_probe_ordered_into(driver, &rest, out);
            }
            PlanKind::HeapMerge => {
                let slices: Vec<&[Elem]> = lists.iter().map(|l| l.flat.as_slice()).collect();
                heap_merge_into(&slices, out);
            }
        }
    }

    /// Plans and executes in one call; returns the plan that ran.
    pub fn intersect(&self, lists: &[&PlannedList], out: &mut Vec<Elem>) -> MultiwayPlan {
        let plan = self.plan_for_lists(lists);
        self.execute(&plan, lists, out);
        plan
    }
}

/// A fully planned, self-contained index: every term prepared for every
/// representation the cost-model planner can bind. The serving layer
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
        let lists = engine
            .postings()
            .iter()
            .map(|p| PlannedList::build(engine.ctx(), p))
            .collect();
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

    /// Total heap footprint of all prepared representations.
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

    /// How many lists carry a bitmap as their membership structure (every
    /// other list carries a hash table).
    pub fn num_bitmap_lists(&self) -> usize {
        self.lists.iter().filter(|l| l.bitmap().is_some()).count()
    }

    /// The plan the planner picks for this term list.
    pub fn plan(&self, terms: &[usize]) -> MultiwayPlan {
        let refs: Vec<&PlannedList> = terms.iter().map(|&t| &self.lists[t]).collect();
        self.planner.plan_for_lists(&refs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_core::elem::reference_intersection;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Stats of a sparse list (it carries a hash table, no bitmap).
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
        p.plan(stats).kind
    }

    #[test]
    fn cost_model_regions_match_measured_crossovers() {
        let p = Planner::default();
        // Balanced sparse → RanGroupScan (the paper's home turf).
        assert_eq!(
            kind(&p, &[sparse(1000), sparse(1000)]),
            PlanKind::RanGroupScan
        );
        assert_eq!(
            kind(&p, &[sparse(1000), sparse(2000)]),
            PlanKind::RanGroupScan
        );
        assert_eq!(
            kind(&p, &[sparse(1000), sparse(4000)]),
            PlanKind::RanGroupScan
        );
        // Between two table-carrying lists galloping owns a narrow band of
        // moderate skew (ratio ≈ 5–7) …
        assert_eq!(
            kind(&p, &[sparse(1000), sparse(6000)]),
            PlanKind::GallopProbe
        );
        assert_eq!(
            kind(&p, &[sparse(1000), sparse(7000)]),
            PlanKind::GallopProbe
        );
        // … and from ratio ≈ 8 up the table probe wins.
        assert_eq!(kind(&p, &[sparse(1000), sparse(8000)]), PlanKind::HashProbe);
        assert_eq!(
            kind(&p, &[sparse(1000), sparse(64_000)]),
            PlanKind::HashProbe
        );
        assert_eq!(
            kind(&p, &[sparse(100), sparse(500), sparse(80_000)]),
            PlanKind::HashProbe
        );
        // Every operand carries a bitmap → the chunked-bitmap AND wins.
        assert_eq!(
            kind(&p, &[dense(50_000, 2), dense(60_000, 2)]),
            PlanKind::BitmapAnd
        );
        assert_eq!(
            kind(&p, &[dense(10_000, 2), dense(20_000, 2)]),
            PlanKind::BitmapAnd
        );
        // A table-carrying driver vetoes the sweep, and its probes into a
        // bitmap are bit tests: the membership probe wins at every skew,
        // down to near-balanced sizes RanGroupScan would otherwise scan.
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
        // Each probed operand is priced by its own structure: a balanced
        // triple probes two bitmaps for 2 + 2 per candidate and beats the
        // scan; make one of them a table (2 + hash_unit) and it does not.
        assert_eq!(
            kind(&p, &[sparse(3000), dense(4000, 1), dense(4000, 1)]),
            PlanKind::HashProbe
        );
        assert_eq!(
            kind(&p, &[sparse(3000), sparse(4000), dense(4000, 1)]),
            PlanKind::RanGroupScan
        );
        // The sweep also pays for what it extracts, per result word
        // holding a survivor. A 4 096-member driver against one bitmap,
        // both in one chunk: a partner that keeps an eighth of it leaves
        // half the 1 024 result words empty and the sweep cheaper than
        // 4 096 bit tests; a partner that keeps nearly all of it fills
        // every word, extraction is the larger cost, and the probe wins.
        let sweep = |partner_n| kind(&p, &[dense(4096, 1), dense(partner_n, 1)]);
        assert_eq!(sweep(8_000), PlanKind::BitmapAnd);
        assert_eq!(sweep(64_000), PlanKind::HashProbe);
        // Degenerate inputs.
        assert_eq!(kind(&p, &[sparse(0), sparse(10)]), PlanKind::Empty);
        assert_eq!(kind(&p, &[]), PlanKind::Empty);
        assert_eq!(kind(&p, &[sparse(10)]), PlanKind::Single);
    }

    #[test]
    fn simd_tuning_only_cheapens_vectorized_units() {
        let base = Planner::default();
        for level in fsi_kernels::SimdLevel::ALL {
            let tuned = Planner::for_simd(level);
            // The bitmap sweep is the vectorized unit; everything else is
            // untouched so scalar-calibrated crossovers stay put.
            assert!(tuned.bitmap_word_unit <= base.bitmap_word_unit, "{level:?}");
            assert_eq!(tuned.gallop_unit, base.gallop_unit);
            assert_eq!(tuned.hash_unit, base.hash_unit);
            assert_eq!(tuned.rgs_unit, base.rgs_unit);
            assert_eq!(tuned.heap_unit, base.heap_unit);
        }
        // Scalar tuning IS the default; auto() follows the active tier.
        assert_eq!(
            Planner::for_simd(fsi_kernels::SimdLevel::Scalar).bitmap_word_unit,
            base.bitmap_word_unit
        );
        let auto = Planner::auto();
        assert_eq!(
            auto.bitmap_word_unit,
            Planner::for_simd(fsi_kernels::SimdLevel::active()).bitmap_word_unit
        );
        // A cheaper sweep can only widen the BitmapAnd region: a query it
        // already won under scalar constants it must still win tuned.
        let dense_pair = [dense(50_000, 2), dense(60_000, 2)];
        for level in fsi_kernels::SimdLevel::ALL {
            assert_eq!(
                kind(&Planner::for_simd(level), &dense_pair),
                PlanKind::BitmapAnd
            );
        }
    }

    #[test]
    fn plan_order_is_ascending_by_size() {
        let p = Planner::default();
        let plan = p.plan(&[sparse(500), sparse(20), sparse(9000), sparse(100)]);
        assert_eq!(plan.order, vec![1, 3, 0, 2]);
        assert!(plan.est_cost > 0.0);
    }

    #[test]
    fn all_plans_are_correct() {
        let ctx = HashContext::new(42);
        let mut rng = StdRng::seed_from_u64(5);
        let planner = Planner::default();
        // Balanced sparse.
        let a: SortedSet = (0..2000).map(|_| rng.gen_range(0..2_000_000u32)).collect();
        let b: SortedSet = (0..2000).map(|_| rng.gen_range(0..2_000_000u32)).collect();
        let pa = PlannedList::build(&ctx, &a);
        let pb = PlannedList::build(&ctx, &b);
        let mut out = Vec::new();
        let plan = planner.intersect(&[&pa, &pb], &mut out);
        assert_eq!(plan.kind, PlanKind::RanGroupScan);
        out.sort_unstable();
        assert_eq!(out, reference_intersection(&[a.as_slice(), b.as_slice()]));
        // Moderate skew (ratio ≈ 6, inside galloping's band).
        let small: SortedSet = (0..330u32).map(|x| x * 6_000).collect();
        let ps = PlannedList::build(&ctx, &small);
        let mut out = Vec::new();
        let plan = planner.intersect(&[&ps, &pb], &mut out);
        assert_eq!(plan.kind, PlanKind::GallopProbe);
        assert_eq!(plan.order, vec![0, 1]);
        out.sort_unstable();
        assert_eq!(
            out,
            reference_intersection(&[small.as_slice(), b.as_slice()])
        );
        // Extreme skew.
        let tiny: SortedSet = (0..20u32).map(|x| x * 100_000).collect();
        let pt = PlannedList::build(&ctx, &tiny);
        let mut out = Vec::new();
        let plan = planner.intersect(&[&pt, &pb], &mut out);
        assert_eq!(plan.kind, PlanKind::HashProbe);
        out.sort_unstable();
        assert_eq!(
            out,
            reference_intersection(&[tiny.as_slice(), b.as_slice()])
        );
        // Dense.
        let d1: SortedSet = (0..40_000u32).map(|x| x * 2).collect();
        let d2: SortedSet = (0..40_000u32).map(|x| x * 2 + (x % 2)).collect();
        let pd1 = PlannedList::build(&ctx, &d1);
        let pd2 = PlannedList::build(&ctx, &d2);
        let mut out = Vec::new();
        let plan = planner.intersect(&[&pd1, &pd2], &mut out);
        assert_eq!(plan.kind, PlanKind::BitmapAnd);
        out.sort_unstable();
        assert_eq!(out, reference_intersection(&[d1.as_slice(), d2.as_slice()]));
        // Single and empty.
        let mut out = Vec::new();
        let plan = planner.intersect(&[&pa], &mut out);
        assert_eq!(plan.kind, PlanKind::Single);
        out.sort_unstable();
        assert_eq!(out, a.as_slice());
        let empty = PlannedList::build(&ctx, &SortedSet::new());
        let mut out = Vec::new();
        let plan = planner.intersect(&[&pa, &empty], &mut out);
        assert_eq!(plan.kind, PlanKind::Empty);
        assert!(out.is_empty());
    }

    #[test]
    fn sparse_lists_skip_the_bitmap_and_veto_bitmap_plans() {
        let ctx = HashContext::new(44);
        // ~1/131072 dense: the planner can never pick BitmapAnd for a query
        // containing this list, so no 8KiB-per-chunk bitmap is built.
        let sparse_a: SortedSet = (0..100u32).map(|x| x * 131_072).collect();
        let sparse_b: SortedSet = (0..120u32).map(|x| x * 109_997 + 13).collect();
        let dense_c: SortedSet = (0..10_000u32).map(|x| x * 4).collect();
        let pa = PlannedList::build(&ctx, &sparse_a);
        let pb = PlannedList::build(&ctx, &sparse_b);
        let pd = PlannedList::build(&ctx, &dense_c);
        assert!(pa.bitmap().is_none());
        assert!(pb.bitmap().is_none());
        assert!(pd.bitmap().is_some());
        // One bitmap-less operand makes BitmapAnd inadmissible however
        // cheap the word sweep would be.
        let p = Planner {
            bitmap_word_unit: 0.0,
            ..Planner::default()
        };
        let mut out = Vec::new();
        let plan = p.intersect(&[&pa, &pb], &mut out);
        assert_ne!(plan.kind, PlanKind::BitmapAnd);
        out.sort_unstable();
        assert_eq!(
            out,
            reference_intersection(&[sparse_a.as_slice(), sparse_b.as_slice()])
        );
        let mut out = Vec::new();
        let plan = p.intersect(&[&pa, &pd], &mut out);
        assert_ne!(plan.kind, PlanKind::BitmapAnd);
        out.sort_unstable();
        assert_eq!(
            out,
            reference_intersection(&[sparse_a.as_slice(), dense_c.as_slice()])
        );
    }

    #[test]
    fn every_list_carries_exactly_one_membership_structure() {
        let ctx = HashContext::new(48);
        // One member per bitmap word is the boundary: exactly 1024 members
        // in one chunk gets the bitmap, one fewer the table.
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
            let list = PlannedList::build(&ctx, set);
            // The enum is the pin: a list is one variant, and `bitmap()` is
            // just a view of which.
            match list.membership() {
                Membership::Bitmap(b) => {
                    assert!(bitmap && list.bitmap().is_some(), "n={}", set.len());
                    assert!(list.n() >= b.num_chunks() * WORDS_PER_CHUNK);
                }
                Membership::Hash(_) => {
                    assert!(!bitmap && list.bitmap().is_none(), "n={}", set.len());
                }
            }
            let bytes = list.bytes_by_repr();
            assert!(bytes.bitmap == 0 || bytes.hash == 0);
            assert_eq!(bytes.total(), list.size_in_bytes());
            let contains = |x| match list.membership() {
                Membership::Bitmap(b) => b.contains(x),
                Membership::Hash(t) => t.contains(x),
            };
            assert!(set.iter().all(contains) && !contains(7));
        }
    }

    #[test]
    fn plan_for_sets_matches_plan_for_built_lists() {
        let ctx = HashContext::new(45);
        let mut rng = StdRng::seed_from_u64(7);
        let planner = Planner::default();
        for (sizes, universe) in [
            (vec![1500usize, 1500], 5_000_000u32),
            (vec![100, 1500], 5_000_000),
            (vec![20, 1500], 5_000_000),
            (vec![1500, 1500], 3_000),
            (vec![0, 10], 100),
            (vec![700], 10_000),
        ] {
            let sets: Vec<SortedSet> = sizes
                .iter()
                .map(|&n| (0..n).map(|_| rng.gen_range(0..universe)).collect())
                .collect();
            let set_refs: Vec<&SortedSet> = sets.iter().collect();
            let lists: Vec<PlannedList> =
                sets.iter().map(|s| PlannedList::build(&ctx, s)).collect();
            let refs: Vec<&PlannedList> = lists.iter().collect();
            // The stats themselves must agree field-for-field, not just
            // the plan they induce.
            for (set, list) in sets.iter().zip(&lists) {
                assert_eq!(OperandStats::of_set(set), list.stats(), "sizes {sizes:?}");
            }
            assert_eq!(
                planner.plan_for_sets(&set_refs),
                planner.plan_for_lists(&refs),
                "sizes {sizes:?}"
            );
        }
    }

    #[test]
    fn cost_units_are_tunable_and_can_force_every_kernel() {
        // Cranking every other unit sky-high forces each candidate in turn.
        let sets = [sparse(3000), sparse(4000), sparse(5000)];
        let force = |rgs: f64, gallop: f64, hash: f64, heap: f64| Planner {
            rgs_unit: rgs,
            gallop_unit: gallop,
            hash_unit: hash,
            heap_unit: heap,
            bitmap_word_unit: f64::INFINITY,
        };
        assert_eq!(
            kind(&force(1e-6, 1e9, 1e9, 1e9), &sets),
            PlanKind::RanGroupScan
        );
        assert_eq!(
            kind(&force(1e9, 1e-6, 1e9, 1e9), &sets),
            PlanKind::GallopProbe
        );
        assert_eq!(
            kind(&force(1e9, 1e9, 1e-6, 1e9), &sets),
            PlanKind::HashProbe
        );
        assert_eq!(
            kind(&force(1e9, 1e9, 1e9, 1e-6), &sets),
            PlanKind::HeapMerge
        );
        let dense_sets = [dense(3000, 1), dense(4000, 1)];
        let bitmap_cheap = Planner {
            rgs_unit: 1e9,
            gallop_unit: 1e9,
            hash_unit: 1e9,
            heap_unit: 1e9,
            bitmap_word_unit: 1e-6,
        };
        assert_eq!(kind(&bitmap_cheap, &dense_sets), PlanKind::BitmapAnd);
    }

    /// No operand shape makes `plan` emit `CompressedGallop`: sparse and
    /// dense operands, k = 2…5, size ratios 1…512 between neighbours, at
    /// the default units and every SIMD tier's. (A hand-built plan of that
    /// kind still answers — `every_forced_kernel_is_correct` runs one.)
    #[test]
    fn compressed_gallop_is_never_planned() {
        let planners: Vec<Planner> = fsi_kernels::SimdLevel::ALL
            .into_iter()
            .map(Planner::for_simd)
            .collect();
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
                    for p in &planners {
                        assert_ne!(p.plan(&stats).kind, PlanKind::CompressedGallop, "{stats:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn every_forced_kernel_is_correct() {
        let ctx = HashContext::new(43);
        let mut rng = StdRng::seed_from_u64(6);
        for k in 2..=5usize {
            let sets: Vec<SortedSet> = (0..k)
                .map(|_| (0..1500).map(|_| rng.gen_range(0..40_000u32)).collect())
                .collect();
            let lists: Vec<PlannedList> =
                sets.iter().map(|s| PlannedList::build(&ctx, s)).collect();
            let refs: Vec<&PlannedList> = lists.iter().collect();
            let slices: Vec<&[u32]> = sets.iter().map(|s| s.as_slice()).collect();
            let expect = reference_intersection(&slices);
            let planner = Planner::default();
            let base = planner.plan_for_lists(&refs);
            for forced in [
                PlanKind::RanGroupScan,
                PlanKind::HashProbe,
                PlanKind::GallopProbe,
                PlanKind::HeapMerge,
                PlanKind::CompressedGallop,
            ] {
                let plan = MultiwayPlan {
                    kind: forced,
                    ..base.clone()
                };
                let mut out = Vec::new();
                planner.execute(&plan, &refs, &mut out);
                out.sort_unstable();
                assert_eq!(out, expect, "forced {forced:?} k={k}");
            }
        }
    }

    /// An order that omits an operand would make the probe return a
    /// superset; every kind refuses it alike instead.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "does not cover 2 operands")]
    fn execute_rejects_an_order_that_drops_an_operand() {
        let ctx = HashContext::new(47);
        let lists = [
            PlannedList::build(&ctx, &(0..100u32).collect()),
            PlannedList::build(&ctx, &(50..4000u32).collect()),
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
        let ctx = HashContext::new(46);
        let mut rng = StdRng::seed_from_u64(8);
        let postings: Vec<SortedSet> = (0..12)
            .map(|i| {
                let n = 200 * (i + 1);
                (0..n).map(|_| rng.gen_range(0..60_000u32)).collect()
            })
            .collect();
        let engine = SearchEngine::from_postings(ctx, postings);
        let exec = engine.planned_executor(Planner::default());
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
            assert_eq!(plan, exec.planner().plan_for_lists(&lists));
            let mut out = vec![0u32]; // `execute` appends: the prefix survives
            exec.planner().execute(&plan, &lists, &mut out);
            // RanGroupScan emits g-order; sorting is the caller's job
            // (`fsi_query::exec` owns that rule).
            out[1..].sort_unstable();
            assert_eq!(&out[..1], &[0]);
            assert_eq!(&out[1..], expect.as_slice(), "{terms:?}");
        }
    }
}
