//! SIMD acceleration layer: explicit SSE4.1/AVX2 paths with runtime
//! dispatch, and a portable scalar fallback that compiles on any target.
//!
//! The paper's word-RAM algorithms buy their speedup from packing set
//! structure into `u64`s and intersecting with single `AND`s; modern x86
//! exposes 128- and 256-bit lanes for exactly the same shapes. This module
//! holds the three vectorized primitives the kernels above bottom out in:
//!
//! * [`merge_into`] — the shuffle-network vectorized merge intersect for
//!   sorted `u32` slices (the balanced-size regime of
//!   [`GallopingSet`](crate::GallopingSet)): load a block from each side,
//!   compare **all lane pairs** via cyclic rotations, compact the matches
//!   with a permutation lookup, and advance whichever block has the
//!   smaller maximum. 16 (SSE) or 64 (AVX2) element comparisons per
//!   iteration against the scalar merge's one.
//! * [`and_extract`] / [`and_in_place`] — wide bitmap `AND` for
//!   [`BitmapSet`](crate::BitmapSet)/[`BitmapAnd`](crate::multiway::BitmapAnd)
//!   chunk sweeps: `AND` 2 (SSE) or 4 (AVX2) 64-bit words per instruction,
//!   reject all-zero groups with a single `PTEST`, and fall into the
//!   trailing-zeros extraction only for groups that survive.
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
//! module compiles to the scalar fallbacks with zero `unsafe`.

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

    #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
    fn probe() -> SimdLevel {
        if std::arch::is_x86_feature_detected!("avx2") {
            SimdLevel::Avx2
        } else if std::arch::is_x86_feature_detected!("sse4.1") {
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
/// `base .. base + 64·len`, at the dispatched level. The SIMD tiers `AND`
/// 2/4 words per instruction and `PTEST`-skip all-zero groups; extraction
/// of surviving words is the scalar trailing-zeros walk at every level.
#[inline]
pub fn and_extract(base: Elem, a: &[u64], b: &[u64], out: &mut Vec<Elem>) {
    and_extract_at(SimdLevel::active(), base, a, b, out)
}

/// [`and_extract`] at an explicit level (saturated to the hardware).
///
/// Panics when `a` and `b` differ in length — the SIMD tiers read whole
/// blocks from both slices, so the precondition is enforced in release
/// builds too (a safe API must never load out of bounds).
pub fn and_extract_at(level: SimdLevel, base: Elem, a: &[u64], b: &[u64], out: &mut Vec<Elem>) {
    assert_eq!(a.len(), b.len(), "bitmap AND operands differ in length");
    match level.saturate() {
        SimdLevel::Scalar => and_extract_scalar(base, a, b, out),
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        // SAFETY: level saturated to the detected hardware tier.
        SimdLevel::Sse41 => unsafe { x86::and_extract_sse(base, a, b, out) },
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        // SAFETY: saturate() capped the level at SimdLevel::detect(), and Avx2 implies the avx2 feature (plus sse4.1) is present on this CPU.
        SimdLevel::Avx2 => unsafe { x86::and_extract_avx2(base, a, b, out) },
        #[cfg(not(all(target_arch = "x86_64", not(feature = "force-scalar"))))]
        _ => and_extract_scalar(base, a, b, out),
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

/// Appends the set bits of `word` (offset by `base`) to `out`, ascending —
/// the paper's footnote-1 trailing-zeros walk, shared by every level.
#[inline]
pub(crate) fn extract_word(base: Elem, word: u64, out: &mut Vec<Elem>) {
    let mut w = word;
    while w != 0 {
        out.push(base | w.trailing_zeros());
        w &= w - 1;
    }
}

fn and_extract_scalar(base: Elem, a: &[u64], b: &[u64], out: &mut Vec<Elem>) {
    for (i, (&wa, &wb)) in a.iter().zip(b).enumerate() {
        let word = wa & wb;
        if word != 0 {
            extract_word(base | ((i as u32) << 6), word, out);
        }
    }
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
