//! SIMD acceleration layer: explicit SSE4.1/AVX2 paths with runtime
//! dispatch, and a portable scalar fallback that compiles on any target.
//!
//! The paper's word-RAM algorithms buy their speedup from packing set
//! structure into `u64`s and intersecting with single `AND`s; modern x86
//! exposes 128- and 256-bit lanes for exactly the same shapes. This module
//! holds the primitives the kernels above bottom out in:
//!
//! * [`merge_into`] — the shuffle-network vectorized merge intersect for
//!   sorted `u32` slices (the balanced-size regime of
//!   [`GallopingSet`](crate::GallopingSet)): load a block from each side,
//!   compare **all lane pairs** via cyclic rotations, compact the matches
//!   with a permutation lookup, and advance whichever block has the
//!   smaller maximum. 16 (SSE) or 64 (AVX2) element comparisons per
//!   iteration against the scalar merge's one.
//! * [`and_in_place`] / [`or_in_place`] — wide bitmap `AND`/`OR` for
//!   [`BitmapSet`](crate::BitmapSet) chunk sweeps (pairwise and k-way)
//!   and the chunk union: 2 (SSE) or 4 (AVX2) 64-bit words
//!   per instruction, the `AND` folding its all-zero test into one final
//!   `PTEST`; [`and_extract`] is an `AND` into a stack copy followed by the
//!   extraction below.
//! * [`extract_into_at`] — bitmap-to-documents extraction, the one walk every
//!   bitmap result leaves through: reserve the popcount, visit only the
//!   nonzero words, write each one's members with a fixed-length unrolled
//!   run (four or eight, by the result's density), advance by the word's
//!   popcount — no branch on whether a word is empty or on where its
//!   members end.
//! * [`unpack_deltas`] — bulk block decode for the compressed-domain
//!   execution path (`fsi-compress`'s `BlockPostings`): gather 8
//!   fixed-width packed deltas per iteration, variable-shift them into
//!   place, and rebuild absolute doc ids with an in-register prefix sum —
//!   the step that turns a 128-doc compressed block into kernel-ready
//!   `u32`s without a bit-serial loop.
//!
//! ## Dispatch
//!
//! [`SimdLevel::detect`] probes the CPU once (via
//! `is_x86_feature_detected!`) and caches the answer; every public entry
//! point reads [`SimdLevel::active`], which is the hardware level clamped
//! by two knobs:
//!
//! 1. the `force-scalar` cargo feature compiles the `std::arch` paths out
//!    entirely (the build is byte-for-byte portable — this is what the CI
//!    `force-scalar` matrix leg and the `aarch64` cross-check build);
//! 2. the `FSI_SIMD` environment variable (`scalar` | `sse4.1` | `avx2`,
//!    read once) and the [`with_level`] test/bench override clamp at
//!    runtime, so both paths are exercisable on one machine in one build.
//!
//! A clamp can only *lower* the level: nothing can select an instruction
//! set the CPU does not report. Every `*_at` function takes the level
//! explicitly and is total for any [`SimdLevel`] — callers may always pass
//! [`SimdLevel::Scalar`]; passing a hardware level above
//! [`SimdLevel::detect`] is saturated down rather than trusted.
//!
//! On non-x86_64 targets (or under `force-scalar`) everything in this
//! module compiles to the scalar fallbacks; the one `unsafe` left there is
//! the extraction walk's `set_len` over the slots it wrote (Miri runs it).

use crate::WORDS_PER_CHUNK;
use fsi_core::elem::Elem;
use std::sync::atomic::{AtomicU8, Ordering};

#[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
mod x86;

/// An instruction-set tier the dispatcher can select. Ordered: higher
/// levels strictly extend lower ones on real hardware (any CPU with AVX2
/// has SSE4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum SimdLevel {
    /// Portable scalar code — compiles and runs on any target.
    Scalar = 0,
    /// 128-bit `std::arch` paths (SSE4.1, which implies SSSE3's shuffles).
    Sse41 = 1,
    /// 256-bit `std::arch` paths (AVX2).
    Avx2 = 2,
}

/// Cached hardware detection; `u8::MAX` = not probed yet.
static DETECTED: AtomicU8 = AtomicU8::new(u8::MAX);
/// Runtime clamp from `FSI_SIMD`/[`with_level`]; `u8::MAX` = none.
static OVERRIDE: AtomicU8 = AtomicU8::new(u8::MAX);
/// Whether `FSI_SIMD` has been consulted; folds into `OVERRIDE` once.
static ENV_READ: AtomicU8 = AtomicU8::new(0);

impl SimdLevel {
    /// Every tier, ascending.
    pub const ALL: [SimdLevel; 3] = [SimdLevel::Scalar, SimdLevel::Sse41, SimdLevel::Avx2];

    /// The label benchmarks and telemetry report.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "Scalar",
            SimdLevel::Sse41 => "Sse4.1",
            SimdLevel::Avx2 => "Avx2",
        }
    }

    /// Parses the [`SimdLevel::name`] spellings plus the `FSI_SIMD`
    /// environment-variable spellings (case-insensitive).
    pub fn parse(s: &str) -> Option<SimdLevel> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Some(SimdLevel::Scalar),
            "sse4.1" | "sse41" | "sse" => Some(SimdLevel::Sse41),
            "avx2" => Some(SimdLevel::Avx2),
            _ => None,
        }
    }

    /// How many 32-bit lanes one register holds at this level (1 for
    /// scalar) — the block size of the vectorized merge, which the
    /// remainder-hostile differential tests pivot on.
    pub fn lanes32(self) -> usize {
        match self {
            SimdLevel::Scalar => 1,
            SimdLevel::Sse41 => 4,
            SimdLevel::Avx2 => 8,
        }
    }

    /// How many 64-bit words one register holds at this level (1 for
    /// scalar) — the group size of the bitmap `AND` and signature scans.
    pub fn lanes64(self) -> usize {
        match self {
            SimdLevel::Scalar => 1,
            SimdLevel::Sse41 => 2,
            SimdLevel::Avx2 => 4,
        }
    }

    fn from_u8(v: u8) -> SimdLevel {
        match v {
            1 => SimdLevel::Sse41,
            2 => SimdLevel::Avx2,
            _ => SimdLevel::Scalar,
        }
    }

    /// The best tier this build can run on this CPU. Probed once and
    /// cached. Always [`SimdLevel::Scalar`] off x86_64 or under the
    /// `force-scalar` feature.
    pub fn detect() -> SimdLevel {
        let cached = DETECTED.load(Ordering::Relaxed);
        if cached != u8::MAX {
            return SimdLevel::from_u8(cached);
        }
        let level = Self::probe();
        DETECTED.store(level as u8, Ordering::Relaxed);
        level
    }

    /// Each tier also requires what its bitmap extraction is compiled
    /// with: `popcnt` from SSE4.1 up, plus `bmi1` at AVX2 (every AVX2 part
    /// has both).
    #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
    fn probe() -> SimdLevel {
        use std::arch::is_x86_feature_detected as has;
        if has!("avx2") && has!("popcnt") && has!("bmi1") {
            SimdLevel::Avx2
        } else if has!("sse4.1") && has!("popcnt") {
            SimdLevel::Sse41
        } else {
            SimdLevel::Scalar
        }
    }

    #[cfg(not(all(target_arch = "x86_64", not(feature = "force-scalar"))))]
    fn probe() -> SimdLevel {
        SimdLevel::Scalar
    }

    /// The tier the dispatched entry points run right now:
    /// [`SimdLevel::detect`] clamped by `FSI_SIMD` and any [`with_level`]
    /// override. This is what `BENCH_simd.json` stamps as `active_level`.
    pub fn active() -> SimdLevel {
        let hw = Self::detect();
        // Plain load on the hot path; the one-time env fold races benignly
        // (parsing is idempotent) and never RMWs a shared line per call.
        if ENV_READ.load(Ordering::Relaxed) == 0 {
            if let Some(l) = std::env::var("FSI_SIMD")
                .ok()
                .as_deref()
                .and_then(Self::parse)
            {
                OVERRIDE.store(l as u8, Ordering::Relaxed);
            }
            ENV_READ.store(1, Ordering::Relaxed);
        }
        let ov = OVERRIDE.load(Ordering::Relaxed);
        if ov == u8::MAX {
            hw
        } else {
            hw.min(SimdLevel::from_u8(ov))
        }
    }

    /// Saturates `self` to what the hardware supports — the `*_at` entry
    /// points call this, so a level read from config can never select
    /// instructions the CPU lacks.
    pub fn saturate(self) -> SimdLevel {
        self.min(Self::detect())
    }
}

/// Every tier available on this machine and build, ascending (always
/// starts with [`SimdLevel::Scalar`]).
pub fn available_levels() -> Vec<SimdLevel> {
    SimdLevel::ALL
        .into_iter()
        .filter(|&l| l <= SimdLevel::detect())
        .collect()
}

/// Runs `f` with the dispatched level clamped to `level` (saturated to the
/// hardware), restoring the previous clamp afterwards — how benchmarks and
/// the differential suite exercise the scalar twin of every SIMD path in
/// one process.
///
/// Calls are serialized by a global lock (the clamp is process-wide
/// state); intersections running concurrently on *other* threads observe
/// the clamp too, so this is a test/bench facility, not a serving-path
/// API. Kernels that must pick a level on the hot path take it explicitly
/// via the `*_at` functions.
pub fn with_level<R>(level: SimdLevel, f: impl FnOnce() -> R) -> R {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    thread_local! {
        static DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }
    // Reentrant on the same thread: only the outermost call takes the
    // cross-thread lock (a nested lock attempt would self-deadlock).
    let _guard = if DEPTH.with(|d| d.get()) == 0 {
        Some(
            LOCK.lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    } else {
        None
    };
    DEPTH.with(|d| d.set(d.get() + 1));
    // Make sure FSI_SIMD is folded in before saving the previous clamp.
    let _ = SimdLevel::active();
    let prev = OVERRIDE.swap(level as u8, Ordering::Relaxed);
    struct Restore(u8);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.store(self.0, Ordering::Relaxed);
            DEPTH.with(|d| d.set(d.get() - 1));
        }
    }
    let _restore = Restore(prev);
    f()
}

// ---------------------------------------------------------------------------
// Vectorized merge intersect
// ---------------------------------------------------------------------------

/// Appends `a ∩ b` (both sorted, duplicate-free) to `out`, ascending, at
/// the dispatched [`SimdLevel::active`] level.
#[inline]
pub fn merge_into(a: &[Elem], b: &[Elem], out: &mut Vec<Elem>) {
    merge_into_at(SimdLevel::active(), a, b, out)
}

/// [`merge_into`] at an explicit level (saturated to the hardware).
/// [`SimdLevel::Scalar`] is the branchless two-pointer merge; the SIMD
/// tiers run the block compare-and-compact network and finish the ragged
/// tail with the same scalar merge, so output is byte-identical across
/// levels.
pub fn merge_into_at(level: SimdLevel, a: &[Elem], b: &[Elem], out: &mut Vec<Elem>) {
    match level.saturate() {
        SimdLevel::Scalar => crate::gallop::branchless_merge_into(a, b, out),
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        // SAFETY: saturate() capped the level at SimdLevel::detect(), so
        // the corresponding CPU features are present.
        SimdLevel::Sse41 => unsafe { x86::merge_sse(a, b, out) },
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        // SAFETY: saturate() capped the level at SimdLevel::detect(), and Avx2 implies the avx2 feature (plus sse4.1) is present on this CPU.
        SimdLevel::Avx2 => unsafe { x86::merge_avx2(a, b, out) },
        #[cfg(not(all(target_arch = "x86_64", not(feature = "force-scalar"))))]
        _ => crate::gallop::branchless_merge_into(a, b, out),
    }
}

// ---------------------------------------------------------------------------
// Bulk block unpack (compressed-domain decode)
// ---------------------------------------------------------------------------

/// Widest packed field [`unpack_deltas`] accepts: doc-id gaps fit `u32`.
pub const MAX_PACK_WIDTH: u32 = 32;

/// Widest packed field the AVX2 gather path handles: a field starting at
/// any in-byte shift (0..=7) must fit the 4 gathered bytes
/// (`7 + width <= 32`). Wider blocks — astronomically rare gaps — decode
/// on the scalar twin.
#[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
const MAX_GATHER_WIDTH: u32 = 25;

/// Decodes one delta-compressed block into absolute doc ids, appending
/// `count` ascending values to `out` at the dispatched
/// [`SimdLevel::active`] level.
///
/// The block stores `count - 1` consecutive `width`-bit fields starting at
/// `bit_offset` in the LSB-first packed payload `bytes`; field `i` holds
/// `gap - 1` for the gap between elements `i` and `i + 1`, and the block's
/// first element `first` lives in the skip entry, not the payload. A
/// `width` of 0 therefore encodes a fully dense run with no payload bits
/// at all.
#[inline]
pub fn unpack_deltas(
    bytes: &[u8],
    bit_offset: usize,
    width: u32,
    first: Elem,
    count: usize,
    out: &mut Vec<Elem>,
) {
    unpack_deltas_at(
        SimdLevel::active(),
        bytes,
        bit_offset,
        width,
        first,
        count,
        out,
    )
}

/// [`unpack_deltas`] at an explicit level (saturated to the hardware).
/// The AVX2 tier gathers 8 fields per iteration and prefix-sums them in
/// register; SSE4.1 has no gather, so it shares the scalar twin. Output is
/// byte-identical across levels.
///
/// Panics when `width` exceeds [`MAX_PACK_WIDTH`] or when `bytes` does not
/// extend at least 8 bytes past the last field's starting byte — every
/// decode (scalar and SIMD alike) loads whole little-endian words, so the
/// builder pads the payload and a safe API must never read out of bounds.
pub fn unpack_deltas_at(
    level: SimdLevel,
    bytes: &[u8],
    bit_offset: usize,
    width: u32,
    first: Elem,
    count: usize,
    out: &mut Vec<Elem>,
) {
    if count == 0 {
        return;
    }
    assert!(width <= MAX_PACK_WIDTH, "packed field wider than a doc id");
    if width == 0 || count == 1 {
        // Dense run (every gap is 1) or a lone element: no payload bits.
        out.extend((0..count as u32).map(|i| first + i));
        return;
    }
    let fields = count - 1;
    let last_byte = (bit_offset + (fields - 1) * width as usize) / 8;
    assert!(
        last_byte + 8 <= bytes.len(),
        "packed payload missing its 8 tail padding bytes"
    );
    match level.saturate() {
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        // SAFETY: saturate() capped the level at SimdLevel::detect(), so
        // AVX2 is present; the assert above plus the width guard keep
        // every gathered 4-byte lane inside `bytes`.
        SimdLevel::Avx2 if width <= MAX_GATHER_WIDTH => unsafe {
            x86::unpack_deltas_avx2(bytes, bit_offset, width, first, count, out)
        },
        // SSE4.1 lacks a gather; wide fields skip the gather path too.
        _ => unpack_deltas_scalar(bytes, bit_offset, width, first, count, out),
    }
}

pub(crate) fn unpack_deltas_scalar(
    bytes: &[u8],
    bit_offset: usize,
    width: u32,
    first: Elem,
    count: usize,
    out: &mut Vec<Elem>,
) {
    let fields = count - 1;
    // Re-assert the caller's padding contract so every 8-byte window below
    // is in bounds even if this twin is reached directly.
    assert!(
        fields == 0 || (bit_offset + (fields - 1) * width as usize) / 8 + 8 <= bytes.len(),
        "packed payload missing its 8 tail padding bytes"
    );
    out.reserve(count);
    let mut val = first;
    out.push(val);
    let mask = (1u64 << width) - 1;
    let mut pos = bit_offset;
    for _ in 0..fields {
        let byte = pos >> 3;
        // audit:allow(hot_path_panic): the assert above keeps every 8-byte window in bounds
        let word = u64::from_le_bytes(bytes[byte..byte + 8].try_into().expect("8-byte window"));
        val += ((word >> (pos & 7)) & mask) as u32 + 1;
        out.push(val);
        pos += width as usize;
    }
}

// ---------------------------------------------------------------------------
// Wide bitmap AND
// ---------------------------------------------------------------------------

/// Appends the members of `a AND b` to `out`, ascending, where `a` and `b`
/// are equal-length 64-bit bitmap slices covering values
/// `base .. base + 64·len`, at the dispatched level: the words are
/// [`and_in_place`]d into a stack copy and leave through the
/// [`extract_into_at`] walk.
#[inline]
pub fn and_extract(base: Elem, a: &[u64], b: &[u64], out: &mut Vec<Elem>) {
    and_extract_at(SimdLevel::active(), base, a, b, out)
}

/// [`and_extract`] at an explicit level (saturated to the hardware):
/// [`and_in_place_at`] into a stack copy of `a`, a chunk's worth of words
/// at a time, then one [`extract_into_at`] walk per block that is not
/// all-zero.
///
/// Panics when `a` and `b` differ in length — the SIMD tiers read whole
/// blocks from both slices, so the precondition is enforced in release
/// builds too (a safe API must never load out of bounds).
pub fn and_extract_at(level: SimdLevel, base: Elem, a: &[u64], b: &[u64], out: &mut Vec<Elem>) {
    assert_eq!(a.len(), b.len(), "bitmap AND operands differ in length");
    let mut buf = [0u64; WORDS_PER_CHUNK];
    for (i, (wa, wb)) in a
        .chunks(WORDS_PER_CHUNK)
        .zip(b.chunks(WORDS_PER_CHUNK))
        .enumerate()
    {
        let Some(anded) = buf.get_mut(..wa.len()) else {
            break;
        };
        anded.copy_from_slice(wa);
        if !and_in_place_at(level, anded, wb) {
            let block_base = base | ((i * WORDS_PER_CHUNK) as u32) << 6;
            extract_into_at(level, block_base, anded, out);
        }
    }
}

/// ANDs `other` into `acc` word-by-word at the dispatched level; returns
/// `true` iff `acc` is all-zero afterwards (the k-way sweep's early-exit
/// signal). The SIMD tiers fold the zero test into the `AND` pass with an
/// OR-accumulator and one final `PTEST`.
#[inline]
pub fn and_in_place(acc: &mut [u64], other: &[u64]) -> bool {
    and_in_place_at(SimdLevel::active(), acc, other)
}

/// [`and_in_place`] at an explicit level (saturated to the hardware).
///
/// Panics when `acc` and `other` differ in length — the SIMD tiers read
/// whole blocks from both slices, so the precondition is enforced in
/// release builds too.
pub fn and_in_place_at(level: SimdLevel, acc: &mut [u64], other: &[u64]) -> bool {
    assert_eq!(
        acc.len(),
        other.len(),
        "bitmap AND operands differ in length"
    );
    match level.saturate() {
        SimdLevel::Scalar => and_in_place_scalar(acc, other),
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        // SAFETY: level saturated to the detected hardware tier.
        SimdLevel::Sse41 => unsafe { x86::and_in_place_sse(acc, other) },
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        // SAFETY: saturate() capped the level at SimdLevel::detect(), and Avx2 implies the avx2 feature (plus sse4.1) is present on this CPU.
        SimdLevel::Avx2 => unsafe { x86::and_in_place_avx2(acc, other) },
        #[cfg(not(all(target_arch = "x86_64", not(feature = "force-scalar"))))]
        _ => and_in_place_scalar(acc, other),
    }
}

/// ORs `other` into `acc` word-by-word at the dispatched level — the union
/// sibling of [`and_in_place`], used by the chunked-bitmap `OR` sweep.
/// Unlike the `AND`, there is no zero test: a union accumulator only ever
/// gains bits, so there is nothing to early-exit on.
#[inline]
pub fn or_in_place(acc: &mut [u64], other: &[u64]) {
    or_in_place_at(SimdLevel::active(), acc, other)
}

/// [`or_in_place`] at an explicit level (saturated to the hardware).
///
/// Panics when `acc` and `other` differ in length — the SIMD tiers read
/// whole blocks from both slices, so the precondition is enforced in
/// release builds too.
pub fn or_in_place_at(level: SimdLevel, acc: &mut [u64], other: &[u64]) {
    assert_eq!(
        acc.len(),
        other.len(),
        "bitmap OR operands differ in length"
    );
    match level.saturate() {
        SimdLevel::Scalar => or_in_place_scalar(acc, other),
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        // SAFETY: level saturated to the detected hardware tier.
        SimdLevel::Sse41 => unsafe { x86::or_in_place_sse(acc, other) },
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        // SAFETY: saturate() capped the level at SimdLevel::detect(), and Avx2 implies the avx2 feature (plus sse4.1) is present on this CPU.
        SimdLevel::Avx2 => unsafe { x86::or_in_place_avx2(acc, other) },
        #[cfg(not(all(target_arch = "x86_64", not(feature = "force-scalar"))))]
        _ => or_in_place_scalar(acc, other),
    }
}

// ---------------------------------------------------------------------------
// Bitmap-to-documents extraction
// ---------------------------------------------------------------------------

/// Appends the members of the bitmap `words` to `out`, ascending, at
/// `level` (saturated to the hardware): bit `j` of word `i` is the value
/// `base | (i << 6) | j` (`base` is aligned to the span the words cover,
/// as a chunk's first value is). Every bitmap result in this crate leaves
/// as documents through here.
///
/// One walk at every level, the paper's footnote-1 lowest-bit trick made
/// branch-free per word. A first pass over each chunk's worth of words
/// sums their popcounts and records the positions of the nonzero ones
/// (branch-free), and the output is reserved to that popcount once; the
/// second pass visits only the recorded words, each writing a fixed run of
/// members unconditionally (trailing-zeros/clear-lowest-bit steps, garbage
/// past its popcount landing in reserved spare slots) and advancing the
/// write position by its popcount — so no branch depends on whether a
/// word is empty or where its members end. The run is four members, or
/// eight once the nonzero words average more than two and a half, so few
/// words continue past it either way. The SIMD tiers compile the same walk
/// with `popcnt` (and at AVX2 `bmi1`'s `tzcnt`/`blsr`) enabled; detection
/// requires both. Output is byte-identical across levels.
pub fn extract_into_at(level: SimdLevel, base: Elem, words: &[u64], out: &mut Vec<Elem>) {
    match level.saturate() {
        SimdLevel::Scalar => extract_branchless(base, words, out),
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        // SAFETY: saturate() capped the level at SimdLevel::detect(), and
        // detection reports Sse41 only where popcnt is present.
        SimdLevel::Sse41 => unsafe { x86::extract_sse(base, words, out) },
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        // SAFETY: saturate() capped the level at SimdLevel::detect(), and
        // detection reports Avx2 only where popcnt and bmi1 are present.
        SimdLevel::Avx2 => unsafe { x86::extract_avx2(base, words, out) },
        #[cfg(not(all(target_arch = "x86_64", not(feature = "force-scalar"))))]
        _ => extract_branchless(base, words, out),
    }
}

/// The one extraction walk behind every level of [`extract_into_at`] (the
/// x86 tiers inline it into a frame with `popcnt` and `bmi1` enabled).
#[inline(always)]
pub(crate) fn extract_branchless(base: Elem, words: &[u64], out: &mut Vec<Elem>) {
    // Positions of the block's nonzero words: the walk below visits only
    // those, so it has no branch on whether a word is empty either.
    let mut nonzero = [0u16; WORDS_PER_CHUNK];
    for (b, block) in words.chunks(WORDS_PER_CHUNK).enumerate() {
        let mut m = 0usize;
        let mut total = 0usize;
        for (i, &w) in block.iter().enumerate() {
            // `m <= i < WORDS_PER_CHUNK`, so the modulo never changes `m`.
            nonzero[m % WORDS_PER_CHUNK] = i as u16;
            m += usize::from(w != 0);
            total += w.count_ones() as usize;
        }
        if total == 0 {
            continue;
        }
        // Room for every member plus one unconditional run past the last:
        // a word at write position `n` holds `cnt` members with
        // `n + cnt <= total`, so its run ends by `n + max(cnt, LONG_RUN)`.
        out.reserve(total + LONG_RUN);
        let start = out.len();
        let spare = out.spare_capacity_mut();
        let block_base = base | ((b * WORDS_PER_CHUNK) as u32) << 6;
        let words_at = nonzero.get(..m).unwrap_or(&[]);
        // The run that leaves the fewest words continuing past it: the long
        // one once the nonzero words average over 2½ members.
        let n = if 2 * total > 5 * m {
            write_runs::<LONG_RUN>(block, words_at, block_base, spare)
        } else {
            write_runs::<SHORT_RUN>(block, words_at, block_base, spare)
        };
        debug_assert_eq!(n, total);
        // SAFETY: `write_runs` initialized the first `n` spare slots (see
        // its contract), and `n` never passes `total`, which the reserve
        // above made room for.
        unsafe { out.set_len(start + n) };
    }
}

/// Members [`extract_into_at`] writes per nonzero word before it looks at the
/// word's popcount, on sparse results and on dense ones: a word holding
/// more continues one member at a time.
const SHORT_RUN: usize = 4;
const LONG_RUN: usize = 8;

/// The second pass of [`extract_branchless`]: for each of the nonzero
/// words at `positions` in `block`, a fixed run of `RUN`
/// trailing-zeros/clear-lowest-bit stores into `spare` at the write
/// position (garbage past the word's popcount included), then the position
/// advances by the popcount — no branch on where a word's members end
/// unless it holds more than `RUN`. Returns the members written: slots
/// `0 .. n` of `spare` are initialized, provided `spare` has room for
/// every member plus `RUN`.
#[inline(always)]
fn write_runs<const RUN: usize>(
    block: &[u64],
    positions: &[u16],
    block_base: Elem,
    spare: &mut [std::mem::MaybeUninit<Elem>],
) -> usize {
    let mut n = 0usize;
    for &i in positions {
        let word = block.get(usize::from(i)).copied().unwrap_or(0);
        let cnt = word.count_ones() as usize;
        let Some((head, tail)) = spare
            .get_mut(n..n + RUN.max(cnt))
            .and_then(|run| run.split_first_chunk_mut::<RUN>())
        else {
            // Out of room (outside the contract): stop short.
            return n;
        };
        let hi = block_base | u32::from(i) << 6;
        let mut w = word;
        for slot in head {
            slot.write(hi | w.trailing_zeros());
            w &= w.wrapping_sub(1);
        }
        for slot in tail {
            slot.write(hi | w.trailing_zeros());
            w &= w.wrapping_sub(1);
        }
        n += cnt;
    }
    n
}

fn and_in_place_scalar(acc: &mut [u64], other: &[u64]) -> bool {
    let mut any = 0u64;
    for (wa, &wb) in acc.iter_mut().zip(other) {
        *wa &= wb;
        any |= *wa;
    }
    any == 0
}

fn or_in_place_scalar(acc: &mut [u64], other: &[u64]) {
    for (wa, &wb) in acc.iter_mut().zip(other) {
        *wa |= wb;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether the `std::arch` paths are compiled in at all.
    const SIMD_COMPILED: bool = cfg!(all(target_arch = "x86_64", not(feature = "force-scalar")));

    #[test]
    fn detection_is_consistent_and_cached() {
        let first = SimdLevel::detect();
        assert_eq!(first, SimdLevel::detect());
        assert!(SimdLevel::active() <= first);
        let avail = available_levels();
        assert_eq!(avail[0], SimdLevel::Scalar);
        assert_eq!(*avail.last().unwrap(), first);
        if !SIMD_COMPILED {
            assert_eq!(first, SimdLevel::Scalar);
        }
    }

    #[test]
    fn with_level_clamps_and_restores() {
        let before = SimdLevel::active();
        with_level(SimdLevel::Scalar, || {
            assert_eq!(SimdLevel::active(), SimdLevel::Scalar);
            // Nested clamp can only go down from the hardware, never up.
            with_level(SimdLevel::Avx2, || {
                assert_eq!(
                    SimdLevel::active(),
                    SimdLevel::detect().min(SimdLevel::Avx2)
                );
            });
            assert_eq!(SimdLevel::active(), SimdLevel::Scalar);
        });
        assert_eq!(SimdLevel::active(), before);
    }

    #[test]
    fn parse_round_trips_names() {
        for l in SimdLevel::ALL {
            assert_eq!(SimdLevel::parse(l.name()), Some(l));
        }
        assert_eq!(SimdLevel::parse("sse41"), Some(SimdLevel::Sse41));
        assert_eq!(SimdLevel::parse("nope"), None);
    }

    #[test]
    fn lanes_match_register_widths() {
        assert_eq!(SimdLevel::Scalar.lanes32(), 1);
        assert_eq!(SimdLevel::Sse41.lanes32(), 4);
        assert_eq!(SimdLevel::Avx2.lanes32(), 8);
        assert_eq!(SimdLevel::Avx2.lanes64(), 4);
    }

    #[test]
    fn saturate_never_exceeds_hardware() {
        for l in SimdLevel::ALL {
            assert!(l.saturate() <= SimdLevel::detect());
        }
    }

    /// Packs `deltas` (gap-1 values) LSB-first at `width` bits each,
    /// starting at `bit_offset`, with the 8 tail padding bytes the decode
    /// contract requires.
    fn pack(deltas: &[u32], width: u32, bit_offset: usize) -> Vec<u8> {
        let total_bits = bit_offset + deltas.len() * width as usize;
        let mut bytes = vec![0u8; total_bits.div_ceil(8) + 8];
        for (i, &d) in deltas.iter().enumerate() {
            assert!(width == 32 || u64::from(d) < (1 << width));
            for b in 0..width as usize {
                let pos = bit_offset + i * width as usize + b;
                if d & (1 << b) != 0 {
                    bytes[pos / 8] |= 1 << (pos % 8);
                }
            }
        }
        bytes
    }

    #[test]
    fn unpack_deltas_matches_scalar_at_every_level_and_width() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        for width in [0u32, 1, 3, 7, 13, 24, 25, 26, 31, 32] {
            for count in [1usize, 2, 7, 8, 9, 16, 127, 128, 129] {
                for bit_offset in [0usize, 1, 5, 13] {
                    let fields = count - 1;
                    let deltas: Vec<u32> = (0..fields)
                        .map(|_| {
                            if width == 0 {
                                0
                            } else if width == 32 {
                                rng.gen_range(0..=u32::MAX - 1)
                            } else {
                                rng.gen_range(0..(1u32 << width))
                            }
                        })
                        .collect();
                    // Keep the absolute values inside u32.
                    let total: u64 = deltas.iter().map(|&d| u64::from(d) + 1).sum();
                    if total > u64::from(u32::MAX) {
                        continue;
                    }
                    let first = rng.gen_range(0..=(u32::MAX - total as u32));
                    let bytes = pack(&deltas, width, bit_offset);
                    let mut expect = Vec::new();
                    unpack_deltas_scalar(&bytes, bit_offset, width, first, count, &mut expect);
                    assert_eq!(expect.len(), count);
                    assert_eq!(expect[0], first);
                    for l in available_levels() {
                        let mut got = Vec::new();
                        unpack_deltas_at(l, &bytes, bit_offset, width, first, count, &mut got);
                        assert_eq!(
                            got,
                            expect,
                            "level {} width {width} count {count} offset {bit_offset}",
                            l.name()
                        );
                    }
                }
            }
        }
    }

    /// The footnote-1 push walk [`extract_into_at`] replaced: one push per
    /// member, a loop exit per word — the reference it must equal.
    fn push_walk(base: Elem, words: &[u64], out: &mut Vec<Elem>) {
        for (i, &word) in words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                out.push(base | (i as u32) << 6 | w.trailing_zeros());
                w &= w - 1;
            }
        }
    }

    /// A word with exactly `count` members at random positions.
    fn word_with(rng: &mut rand::rngs::StdRng, count: u32) -> u64 {
        use rand::Rng;
        let mut w = 0u64;
        while w.count_ones() < count {
            w |= 1 << rng.gen_range(0..64);
        }
        w
    }

    #[test]
    fn extraction_matches_the_push_walk_at_every_level() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        // Interpreted execution (Miri) walks the listed counts once; native
        // runs cover every count and more than one block of words.
        let counts: Vec<u32> = if cfg!(miri) {
            vec![0, 1, 4, 5, 8, 9, 63, 64]
        } else {
            (0..=64).collect()
        };
        let patterns = [
            0x5555_5555_5555_5555u64, // alternating
            0xAAAA_AAAA_AAAA_AAAA,
            0x00FF_00FF_00FF_00FF, // runs
            u64::MAX >> 3,
            1 << 63,
            0xF000_0000_0000_000F,
        ];
        // Dense words take the long run; the same counts diluted by
        // single-member words (two members per word on average) the short
        // one.
        let mut words: Vec<u64> = counts.iter().map(|&c| word_with(&mut rng, c)).collect();
        words.extend(patterns);
        let mut diluted: Vec<u64> = [0, 1, 4, 5, 8, 9, 63, 64]
            .iter()
            .map(|&c| word_with(&mut rng, c))
            .collect();
        diluted.extend((0..120).map(|i| 1u64 << (i % 64)));
        let mixed: Vec<u64> = (0..if cfg!(miri) { 48 } else { WORDS_PER_CHUNK + 77 })
            .map(|i| match i % 4 {
                0 => 0,
                1 => {
                    let count = rng.gen_range(0..=64);
                    word_with(&mut rng, count)
                }
                2 => patterns[i % patterns.len()],
                _ => {
                    let count = rng.gen_range(0..4);
                    word_with(&mut rng, count)
                }
            })
            .collect();
        // Chunk 0 and chunk 0xFFFF (values up to u32::MAX); the wider run
        // crosses a block boundary, so it starts in chunk 0 only.
        let cases: [(Elem, &[u64]); 7] = [
            (0, &words),
            (0xFFFF << 16, &words),
            (0, &diluted),
            (0xFFFF << 16, &diluted),
            (0xFFFF << 16, &[u64::MAX; 3]),
            (0, &mixed),
            (0, &[]),
        ];
        for (base, words) in cases {
            for prefix in [vec![], vec![9u32, 1, u32::MAX]] {
                let mut expect = prefix.clone();
                push_walk(base, words, &mut expect);
                for level in available_levels() {
                    // An exactly-full buffer: the walk must reserve its own
                    // room, and must not touch what is already there.
                    let mut out = prefix.clone();
                    out.shrink_to_fit();
                    extract_into_at(level, base, words, &mut out);
                    assert_eq!(
                        out,
                        expect,
                        "{} base {base:#x} n={}",
                        level.name(),
                        words.len()
                    );
                }
            }
        }
        assert_eq!(words.iter().map(|w| w.count_ones()).max(), Some(64));
        // `and_extract` is the same walk over `a AND b`.
        let b: Vec<u64> = mixed.iter().rev().copied().collect();
        let anded: Vec<u64> = mixed.iter().zip(&b).map(|(x, y)| x & y).collect();
        let mut expect = vec![5];
        push_walk(1 << 20, &anded, &mut expect);
        for level in available_levels() {
            let mut out = vec![5];
            and_extract_at(level, 1 << 20, &mixed, &b, &mut out);
            assert_eq!(out, expect, "{} and_extract", level.name());
        }
    }

    #[test]
    fn unpack_deltas_dense_run_needs_no_payload() {
        let mut out = Vec::new();
        unpack_deltas_at(SimdLevel::Scalar, &[], 0, 0, 5, 130, &mut out);
        let expect: Vec<Elem> = (5..135).collect();
        assert_eq!(out, expect);
        out.clear();
        unpack_deltas_at(SimdLevel::Scalar, &[], 3, 9, 42, 1, &mut out);
        assert_eq!(out, vec![42], "a lone element reads no payload bits");
        out.clear();
        unpack_deltas_at(SimdLevel::Scalar, &[], 0, 0, 0, 0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "padding")]
    fn unpack_deltas_rejects_unpadded_payloads() {
        let mut out = Vec::new();
        // 4 fields x 8 bits = 4 payload bytes but no tail padding.
        unpack_deltas_at(SimdLevel::Scalar, &[0u8; 4], 0, 8, 0, 5, &mut out);
    }
}
