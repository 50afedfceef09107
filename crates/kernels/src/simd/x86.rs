//! The x86_64 `std::arch` implementations behind [`super`]'s dispatched
//! entry points: the AVX2 tier. Compiled only on x86_64 without the
//! `force-scalar` feature; every function is `#[target_feature]`-gated and
//! reached only through
//! [`SimdLevel::saturate`](super::SimdLevel::saturate)-checked dispatch,
//! so the required instructions are always present at runtime. Helpers
//! that need less than AVX2 (the `u32` merge's 4-lane tail, the 8-lane
//! `u16` loads and stores) say so in their own `target_feature`, and run
//! only under AVX2 callers.
//!
//! The merge kernels are the classic block compare-and-compact network
//! (Katsov/Lemire-style, also the "shuffling" method of the
//! simd-set-operations literature): compare every lane pair of two sorted
//! blocks via cyclic rotations, derive a match bitmask, compact the
//! matching lanes with a precomputed permutation table, and advance the
//! block with the smaller maximum. Sorted, duplicate-free inputs guarantee
//! each lane matches at most once, so the compacted store is exactly the
//! ascending intersection of the two blocks' overlap.
//!
//! The extraction tier is the portable walk itself, compiled in a frame
//! with `popcnt` and `bmi1` enabled.

use super::extract_branchless;
use crate::gallop::branchless_merge_into;
use crate::ArraySet;
use core::arch::x86_64::*;
use fsi_core::elem::Elem;

/// Byte-shuffle masks compacting the set lanes of a 4-lane match mask to
/// the front (lane order preserved); unused output lanes read 0x80 (zero).
static SSE_COMPACT: [[u8; 16]; 16] = sse_compact_table();

const fn sse_compact_table() -> [[u8; 16]; 16] {
    let mut table = [[0x80u8; 16]; 16];
    let mut mask = 0usize;
    while mask < 16 {
        let mut out_lane = 0usize;
        let mut lane = 0usize;
        while lane < 4 {
            if mask & (1 << lane) != 0 {
                let mut byte = 0usize;
                while byte < 4 {
                    // audit:allow(hot_path_index): const-eval table builder: mask < 16 and out_lane*4+byte < 16 by the loop bounds; an overrun is a compile error
                    table[mask][out_lane * 4 + byte] = (lane * 4 + byte) as u8;
                    byte += 1;
                }
                out_lane += 1;
            }
            lane += 1;
        }
        mask += 1;
    }
    table
}

/// Dword-permutation indices compacting the set lanes of an 8-lane match
/// mask to the front (lane order preserved), for `vpermd`.
static AVX_COMPACT: [[u32; 8]; 256] = avx_compact_table();

const fn avx_compact_table() -> [[u32; 8]; 256] {
    let mut table = [[0u32; 8]; 256];
    let mut mask = 0usize;
    while mask < 256 {
        let mut out_lane = 0usize;
        let mut lane = 0usize;
        while lane < 8 {
            if mask & (1 << lane) != 0 {
                // audit:allow(hot_path_index): const-eval table builder: mask < 256 and out_lane < 8 by the loop bounds; an overrun is a compile error
                table[mask][out_lane] = lane as u32;
                out_lane += 1;
            }
            lane += 1;
        }
        mask += 1;
    }
    table
}

/// The tail of [`merge_avx2`]: the same merge intersect 4 lanes a block
/// (SSE4.1), then the scalar merge; appends the ascending intersection of
/// sorted, duplicate-free slices to `out`. Fewer than 8 elements are left
/// on one side when it starts, and finishing them 4 lanes a block reads
/// faster than handing them straight to the scalar merge (that took
/// 1.27–1.32× as long at 100 against 100 and 1.08–1.10× at 128 against
/// 128) or padding the last 8-lane block (1.27–1.52× on every shape).
///
/// # Safety
/// The CPU must support SSE4.1 (which implies the SSSE3 byte shuffle).
#[target_feature(enable = "sse4.1")]
unsafe fn merge_tail4(a: &[Elem], b: &[Elem], out: &mut Vec<Elem>) {
    let (mut i, mut j) = (0usize, 0usize);
    let (na, nb) = (a.len(), b.len());
    if na >= 4 && nb >= 4 {
        // The intersection holds at most min(na, nb) elements; one reserve
        // up front keeps >= 4 spare slots for every block store below.
        out.reserve(na.min(nb) + 4);
        loop {
            // SAFETY: the loop invariant holds i + 4 <= na and j + 4 <= nb
            // (established by the entry check, maintained by `done`), so
            // both 4-lane unaligned loads stay in bounds.
            let (va, vb) = unsafe {
                (
                    _mm_loadu_si128(a.as_ptr().add(i) as *const __m128i),
                    _mm_loadu_si128(b.as_ptr().add(j) as *const __m128i),
                )
            };
            // Compare va against every cyclic rotation of vb: all 16 lane
            // pairs in 4 compares.
            let rot1 = _mm_shuffle_epi32::<0b00_11_10_01>(vb);
            let rot2 = _mm_shuffle_epi32::<0b01_00_11_10>(vb);
            let rot3 = _mm_shuffle_epi32::<0b10_01_00_11>(vb);
            let cmp = _mm_or_si128(
                _mm_or_si128(_mm_cmpeq_epi32(va, vb), _mm_cmpeq_epi32(va, rot1)),
                _mm_or_si128(_mm_cmpeq_epi32(va, rot2), _mm_cmpeq_epi32(va, rot3)),
            );
            let mask = _mm_movemask_ps(_mm_castsi128_ps(cmp)) as usize;
            // SAFETY: mask < 16 (a 4-bit movemask) and every table row is
            // exactly 16 bytes.
            let shuffle = unsafe { _mm_loadu_si128(SSE_COMPACT[mask].as_ptr() as *const __m128i) };
            let packed = _mm_shuffle_epi8(va, shuffle);
            let len = out.len();
            debug_assert!(out.capacity() - len >= 4);
            // SAFETY: the reserve above keeps >= 4 spare slots, so the
            // 4-lane store writes into allocated capacity; set_len claims
            // only the count_ones() matched lanes the store initialized.
            unsafe {
                _mm_storeu_si128(out.as_mut_ptr().add(len) as *mut __m128i, packed);
                out.set_len(len + mask.count_ones() as usize);
            }
            // Advance the block with the smaller maximum (both on a tie).
            // SAFETY: i + 4 <= na and j + 4 <= nb by the loop invariant.
            let (a_max, b_max) = unsafe { (*a.get_unchecked(i + 3), *b.get_unchecked(j + 3)) };
            let mut done = false;
            if a_max <= b_max {
                i += 4;
                done |= i + 4 > na;
            }
            if b_max <= a_max {
                j += 4;
                done |= j + 4 > nb;
            }
            if done {
                break;
            }
        }
    }
    branchless_merge_into(&a[i..], &b[j..], out);
}

/// AVX2 merge intersect of sorted, duplicate-free slices; appends the
/// ascending intersection to `out`. The ragged tail falls through
/// [`merge_tail4`].
///
/// # Safety
/// The CPU must support AVX2 (which implies SSE4.1).
#[target_feature(enable = "avx2")]
pub unsafe fn merge_avx2(a: &[Elem], b: &[Elem], out: &mut Vec<Elem>) {
    let (mut i, mut j) = (0usize, 0usize);
    let (na, nb) = (a.len(), b.len());
    if na >= 8 && nb >= 8 {
        out.reserve(na.min(nb) + 8);
        // Lane rotations by 1 and 2 for vpermd; chaining rot2 keeps the
        // dependency depth at ~4 permutes instead of 7.
        let rot1_idx = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
        let rot2_idx = _mm256_setr_epi32(2, 3, 4, 5, 6, 7, 0, 1);
        loop {
            // SAFETY: the loop invariant holds i + 8 <= na and j + 8 <= nb
            // (established by the entry check, maintained by `done`), so
            // both 8-lane unaligned loads stay in bounds.
            let (va, vb) = unsafe {
                (
                    _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i),
                    _mm256_loadu_si256(b.as_ptr().add(j) as *const __m256i),
                )
            };
            // Compare va against every cyclic rotation of vb: all 64 lane
            // pairs in 8 compares.
            let r1 = _mm256_permutevar8x32_epi32(vb, rot1_idx);
            let r2 = _mm256_permutevar8x32_epi32(vb, rot2_idx);
            let r3 = _mm256_permutevar8x32_epi32(r1, rot2_idx);
            let r4 = _mm256_permutevar8x32_epi32(r2, rot2_idx);
            let r5 = _mm256_permutevar8x32_epi32(r3, rot2_idx);
            let r6 = _mm256_permutevar8x32_epi32(r4, rot2_idx);
            let r7 = _mm256_permutevar8x32_epi32(r5, rot2_idx);
            let cmp = _mm256_or_si256(
                _mm256_or_si256(
                    _mm256_or_si256(_mm256_cmpeq_epi32(va, vb), _mm256_cmpeq_epi32(va, r1)),
                    _mm256_or_si256(_mm256_cmpeq_epi32(va, r2), _mm256_cmpeq_epi32(va, r3)),
                ),
                _mm256_or_si256(
                    _mm256_or_si256(_mm256_cmpeq_epi32(va, r4), _mm256_cmpeq_epi32(va, r5)),
                    _mm256_or_si256(_mm256_cmpeq_epi32(va, r6), _mm256_cmpeq_epi32(va, r7)),
                ),
            );
            let mask = _mm256_movemask_ps(_mm256_castsi256_ps(cmp)) as usize;
            // SAFETY: mask < 256 (an 8-bit movemask) and every table row
            // is exactly 32 bytes.
            let perm = unsafe { _mm256_loadu_si256(AVX_COMPACT[mask].as_ptr() as *const __m256i) };
            let packed = _mm256_permutevar8x32_epi32(va, perm);
            let len = out.len();
            debug_assert!(out.capacity() - len >= 8);
            // SAFETY: the reserve above keeps >= 8 spare slots, so the
            // 8-lane store writes into allocated capacity; set_len claims
            // only the count_ones() matched lanes the store initialized.
            unsafe {
                _mm256_storeu_si256(out.as_mut_ptr().add(len) as *mut __m256i, packed);
                out.set_len(len + mask.count_ones() as usize);
            }
            // SAFETY: i + 8 <= na and j + 8 <= nb by the loop invariant.
            let (a_max, b_max) = unsafe { (*a.get_unchecked(i + 7), *b.get_unchecked(j + 7)) };
            let mut done = false;
            if a_max <= b_max {
                i += 8;
                done |= i + 8 > na;
            }
            if b_max <= a_max {
                j += 8;
                done |= j + 8 > nb;
            }
            if done {
                break;
            }
        }
    }
    // SAFETY: AVX2 implies SSE4.1, so the callee's CPU requirement holds.
    unsafe { merge_tail4(&a[i..], &b[j..], out) };
}

/// Byte-shuffle masks compacting the set lanes of an 8-lane `u16` match
/// mask to the front (lane order preserved); unused output lanes read 0x80
/// (zero).
static SSE16_COMPACT: [[u8; 16]; 256] = sse16_compact_table();

const fn sse16_compact_table() -> [[u8; 16]; 256] {
    let mut table = [[0x80u8; 16]; 256];
    let mut mask = 0usize;
    while mask < 256 {
        let mut out_lane = 0usize;
        let mut lane = 0usize;
        while lane < 8 {
            if mask & (1 << lane) != 0 {
                // audit:allow(hot_path_index): const-eval table builder: mask < 256 and out_lane*2+1 < 16 by the loop bounds; an overrun is a compile error
                table[mask][out_lane * 2] = (lane * 2) as u8;
                // audit:allow(hot_path_index): as above
                table[mask][out_lane * 2 + 1] = (lane * 2 + 1) as u8;
                out_lane += 1;
            }
            lane += 1;
        }
        mask += 1;
    }
    table
}

/// Compacts the `u16` lanes of `v` that `mask` (bit per lane) selects to
/// the front, widens them to `u32` with `high` ORed in, and stores all 8
/// widened lanes at `out[len..]`; returns how many of them are members.
///
/// # Safety
/// The CPU must support SSE4.1 and POPCNT, and `out` must have 8 spare
/// slots past its length.
#[target_feature(enable = "sse4.1,popcnt")]
unsafe fn store_matches16(v: __m128i, mask: usize, high: __m128i, out: &mut Vec<Elem>) -> usize {
    // SAFETY: mask < 256 (an 8-bit mask) and every table row is exactly 16
    // bytes.
    let shuffle = unsafe { _mm_loadu_si128(SSE16_COMPACT[mask & 0xFF].as_ptr() as *const __m128i) };
    let packed = _mm_shuffle_epi8(v, shuffle);
    let lo = _mm_or_si128(_mm_cvtepu16_epi32(packed), high);
    let hi = _mm_or_si128(_mm_cvtepu16_epi32(_mm_srli_si128::<8>(packed)), high);
    let len = out.len();
    debug_assert!(out.capacity() - len >= 8);
    // SAFETY: the caller keeps >= 8 spare slots, so both 4-lane stores
    // write into allocated capacity; set_len claims only the count_ones()
    // matched lanes the stores initialized.
    unsafe {
        let dst = out.as_mut_ptr().add(len);
        _mm_storeu_si128(dst as *mut __m128i, lo);
        _mm_storeu_si128(dst.add(4) as *mut __m128i, hi);
        let matched = (mask & 0xFF).count_ones() as usize;
        out.set_len(len + matched);
        matched
    }
}

/// Block `at..at + L` of `run`, copied into `L` lanes with the run's last
/// value repeated past its end — for a block that would read past the end
/// of the slice itself.
#[inline(always)]
fn padded<const L: usize>(run: &[u16], at: usize) -> [u16; L] {
    let mut block = [run.last().copied().unwrap_or(0); L];
    for (lane, &x) in block.iter_mut().zip(run.get(at..).unwrap_or(&[])) {
        *lane = x;
    }
    block
}

/// Block `at..at + 8` of the run `run[..n]` (`at < n <= run.len()`) as 8
/// lanes, every lane past the run holding its last value. Read in place
/// whenever the slice holds 8 lanes from `at` — past the run they hold
/// whatever follows it, overwritten by the blend — and copied only at the
/// slice's end. A block's maximum is then still the run's, so the merge's
/// advance rule holds, and a repeated value can only re-match a lane that
/// already matched it.
///
/// # Safety
/// The CPU must support SSE4.1.
#[target_feature(enable = "sse4.1")]
#[inline]
unsafe fn load8(run: &[u16], n: usize, at: usize) -> __m128i {
    let raw = if at + 8 <= run.len() {
        // SAFETY: at + 8 <= run.len(), so the 16-byte load is in bounds.
        unsafe { _mm_loadu_si128(run.as_ptr().add(at) as *const __m128i) }
    } else {
        let block = padded::<8>(run, at);
        // SAFETY: the padded block is 8 `u16`s (16 bytes).
        unsafe { _mm_loadu_si128(block.as_ptr() as *const __m128i) }
    };
    if at + 8 <= n {
        return raw;
    }
    let last = _mm_set1_epi16(run.get(n.wrapping_sub(1)).copied().unwrap_or(0) as i16);
    let lanes = _mm_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7);
    let inside = _mm_cmpgt_epi16(_mm_set1_epi16((n - at) as i16), lanes);
    _mm_blendv_epi8(last, raw, inside)
}

/// Lanes `at..at + 16` of `run`: read in place when the slice holds them,
/// else copied with the slice's last value repeated past its end.
///
/// # Safety
/// The CPU must support AVX2.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn raw16(run: &[u16], at: usize) -> __m256i {
    if at + 16 <= run.len() {
        // SAFETY: at + 16 <= run.len(), so the 32-byte load is in bounds.
        unsafe { _mm256_loadu_si256(run.as_ptr().add(at) as *const __m256i) }
    } else {
        let block = padded::<16>(run, at);
        // SAFETY: the padded block is 16 `u16`s (32 bytes).
        unsafe { _mm256_loadu_si256(block.as_ptr() as *const __m256i) }
    }
}

/// [`load8`]'s 16-lane twin.
///
/// # Safety
/// The CPU must support AVX2.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn load16(run: &[u16], n: usize, at: usize) -> __m256i {
    // SAFETY: AVX2 is present (this function's contract).
    let raw = unsafe { raw16(run, at) };
    if at + 16 <= n {
        return raw;
    }
    let last = _mm256_set1_epi16(run.get(n.wrapping_sub(1)).copied().unwrap_or(0) as i16);
    let lanes = _mm256_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    let inside = _mm256_cmpgt_epi16(_mm256_set1_epi16((n - at) as i16), lanes);
    _mm256_blendv_epi8(last, raw, inside)
}

/// The lanes of a block at `i` of an `n`-member run that hold its own
/// members (not padding): one bit per lane.
#[inline(always)]
fn valid_lanes<const L: usize>(n: usize, i: usize) -> usize {
    let k = n.saturating_sub(i).min(L);
    (1usize << k) - 1
}

/// A chunk whose longer run has at least this many times the shorter's
/// members is merged by [`merge16_skewed`], any other by
/// [`merge16_balanced`].
const SKEW: usize = 4;

/// AVX2 merge intersect of two chunked-array sets. Per chunk both touch,
/// the longer run and the shorter go to [`merge16_skewed`] when the longer
/// has at least [`SKEW`] times the members, else to [`merge16_balanced`];
/// both append `high | x` for each common `x` to `out`, ascending, and the
/// chunk walk runs inside this frame.
///
/// # Safety
/// The CPU must support AVX2 and POPCNT.
#[target_feature(enable = "avx2,popcnt")]
pub unsafe fn merge16_avx2(x: &ArraySet, y: &ArraySet, out: &mut Vec<Elem>) {
    // At most min(|x|, |y|) lanes ever match over every chunk; a store
    // claims no more than its own matches, so >= 16 spare slots past them
    // cover the two 8-lane stores of any block.
    out.reserve(x.len().min(y.len()) + 16);
    x.for_each_shared_chunk(y, |high, (a, na), (b, nb)| {
        let ((wide, nw), (narrow, nn)) = if na >= nb {
            ((a, na), (b, nb))
        } else {
            ((b, nb), (a, na))
        };
        if nn == 0 {
            return;
        }
        // SAFETY: AVX2 and POPCNT are present (this function's contract),
        // both runs are non-empty and lie inside their slices, and the
        // reserve above keeps >= 16 spare slots past every match.
        unsafe {
            if nw >= SKEW * nn {
                merge16_skewed(wide, nw, narrow, nn, high, out);
            } else {
                merge16_balanced(wide, nw, narrow, nn, high, out);
            }
        }
    });
}

/// One chunk of [`merge16_avx2`] whose runs are skewed: a block of 16
/// lanes of the longer run `wide[..nw]` against a block of 8 of the
/// shorter `narrow[..nn]`, broadcast to both 128-bit halves — all 128 lane
/// pairs in 8 compares, whose rotations stay inside each half. The longer
/// run, which sets the number of steps, advances 16 lanes a step. Matches
/// are taken from the longer run's lanes; last blocks are padded
/// ([`load16`], [`load8`]).
///
/// # Safety
/// The CPU must support AVX2 and POPCNT; both runs are non-empty and lie
/// inside their slices; `out` has >= 16 spare slots past every match this
/// chunk can add.
#[target_feature(enable = "avx2,popcnt")]
// Out of line: inlined beside the balanced loop, its registers crowd that
// loop's rotations onto the stack.
#[inline(never)]
unsafe fn merge16_skewed(
    wide: &[u16],
    nw: usize,
    narrow: &[u16],
    nn: usize,
    high: Elem,
    out: &mut Vec<Elem>,
) {
    let (Some(&w_last), Some(&n_last)) =
        (wide.get(nw.wrapping_sub(1)), narrow.get(nn.wrapping_sub(1)))
    else {
        return;
    };
    let hv = _mm_set1_epi32(high as i32);
    // Per block: its lanes, its maximum and (for the wide run, whose lanes
    // are the output) which lanes hold members, set once per advance.
    // SAFETY (both closures' loads): AVX2 is present (this function's
    // contract) and every `at` passed is below its run's length.
    let wide_block = |i: usize| {
        // SAFETY: see above.
        let v = unsafe { load16(wide, nw, i) };
        match wide.get(i + 15) {
            Some(&max) if i + 16 <= nw => (v, max, usize::MAX),
            _ => {
                let valid = valid_lanes::<16>(nw, i);
                (v, w_last, valid & 0xFF | (valid >> 8) << 16)
            }
        }
    };
    let narrow_block = |j: usize| {
        // SAFETY: see above.
        let v = unsafe { load8(narrow, nn, j) };
        match narrow.get(j + 7) {
            Some(&max) if j + 8 <= nn => (v, max),
            _ => (v, n_last),
        }
    };
    let (mut i, mut j) = (0usize, 0usize);
    let (mut vw, mut w_max, mut valid) = wide_block(i);
    let (mut vn, mut n_max) = narrow_block(j);
    loop {
        // SAFETY: AVX2 is present (this function's contract).
        let cmp = unsafe { lanes_in16(vw, &rotations16(_mm256_broadcastsi128_si256(vn))) };
        // Per 128-bit half, 8 mask bytes then 8 zero bytes: bits 0–7 are
        // the low half's lanes, bits 16–23 the high half's.
        let mask =
            _mm256_movemask_epi8(_mm256_packs_epi16(cmp, _mm256_setzero_si256())) as usize & valid;
        // Most blocks of two sparse lists share nothing: skip the store.
        if mask != 0 {
            // SAFETY: the caller keeps >= 16 spare slots.
            unsafe {
                store_matches16(_mm256_castsi256_si128(vw), mask, hv, out);
                store_matches16(_mm256_extracti128_si256::<1>(vw), mask >> 16, hv, out);
            }
        }
        // Advance the block with the smaller maximum (both on a tie); a run
        // whose last block advances is done, and so is the chunk.
        let (w_le, n_le) = (w_max <= n_max, n_max <= w_max);
        if w_le {
            i += 16;
            if i >= nw {
                break;
            }
            (vw, w_max, valid) = wide_block(i);
        }
        if n_le {
            j += 8;
            if j >= nn {
                break;
            }
            (vn, n_max) = narrow_block(j);
        }
    }
}

/// The eight rotations of each 128-bit half of `v` by 0–7 `u16` lanes:
/// with them a vector is compared against every lane of the same half of
/// `v` in 8 compares ([`lanes_in16`]).
///
/// # Safety
/// The CPU must support AVX2.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn rotations16(v: __m256i) -> [__m256i; 8] {
    [
        v,
        _mm256_alignr_epi8::<2>(v, v),
        _mm256_alignr_epi8::<4>(v, v),
        _mm256_alignr_epi8::<6>(v, v),
        _mm256_alignr_epi8::<8>(v, v),
        _mm256_alignr_epi8::<10>(v, v),
        _mm256_alignr_epi8::<12>(v, v),
        _mm256_alignr_epi8::<14>(v, v),
    ]
}

/// All-ones in each `u16` lane of `d` that equals some lane in the same
/// 128-bit half of the vector whose rotations `rot` holds
/// ([`rotations16`]).
///
/// # Safety
/// The CPU must support AVX2.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn lanes_in16(d: __m256i, rot: &[__m256i; 8]) -> __m256i {
    let [r0, r1, r2, r3, r4, r5, r6, r7] = *rot;
    let eq = |r| _mm256_cmpeq_epi16(d, r);
    _mm256_or_si256(
        _mm256_or_si256(
            _mm256_or_si256(eq(r0), eq(r1)),
            _mm256_or_si256(eq(r2), eq(r3)),
        ),
        _mm256_or_si256(
            _mm256_or_si256(eq(r4), eq(r5)),
            _mm256_or_si256(eq(r6), eq(r7)),
        ),
    )
}

/// One chunk of [`merge16_avx2`] whose runs are balanced: blocks of 16
/// lanes of both runs, `wide[..nw]` (the longer) and `narrow[..nn]`. The
/// wide block is kept as its rotations ([`rotations16`]), computed once per
/// advance of that block; each half of the narrow block is broadcast and
/// compared against them, all 256 lane pairs in 16 compares, so a step
/// moves 16 lanes of either run where [`merge16_skewed`] moves 16 of one
/// and 8 of the other. Matches are taken from the narrow block's lanes. A
/// run of at least 16 members is read in place, its last block starting at
/// its 16th member from the end and so overlapping the block before it;
/// the narrow lanes already passed or already output are masked out, so
/// none is output twice, and a wide lane read twice can only re-find a
/// narrow lane that is masked. Runs of at most 16 lanes each take one
/// step and no loop.
///
/// # Safety
/// The CPU must support AVX2 and POPCNT; `0 < nn <= nw`, `nw <=
/// wide.len()` and `nn <= narrow.len()`; `out` has >= 16 spare slots past
/// every match this chunk can add.
#[target_feature(enable = "avx2,popcnt")]
#[inline]
unsafe fn merge16_balanced(
    wide: &[u16],
    nw: usize,
    narrow: &[u16],
    nn: usize,
    high: Elem,
    out: &mut Vec<Elem>,
) {
    let (w, n) = (wide.as_ptr(), narrow.as_ptr());
    // SAFETY (every read through `w` and `n` below): each reads at most
    // lanes `..nw` of `wide` or `..nn` of `narrow`, which the caller
    // guarantees the slices hold, and AVX2 is present.
    // The wide block from `i`: in place when the run has 16 members, else
    // the one block, padded with the run's last member.
    let wide_block = |i: usize| {
        if nw >= 16 {
            // SAFETY: see above; i.min(nw - 16) + 16 <= nw.
            unsafe { _mm256_loadu_si256(w.add(i.min(nw - 16)) as *const __m256i) }
        } else {
            // SAFETY: see above; 0 < nw <= wide.len().
            unsafe { load16(wide, nw, 0) }
        }
    };
    // The narrow block from `j` the same way (a short run's lanes past its
    // end are masked, so they need no padding), and which of its lanes (one
    // bit each) are members at or past `j`: the lanes before `j` were
    // settled by earlier steps.
    let narrow_block = |j: usize| {
        if nn >= 16 {
            let from = j.min(nn - 16);
            (
                // SAFETY: see above; from + 16 <= nn.
                unsafe { _mm256_loadu_si256(n.add(from) as *const __m256i) },
                0xFFFF << (j - from),
            )
        } else {
            // SAFETY: see above.
            (unsafe { raw16(narrow, 0) }, (1usize << nn) - 1)
        }
    };
    // A block's maximum: its last lane, or the run's last member.
    let max_at = |run: &[u16], len: usize, at: usize| {
        run.get((at + 15).min(len - 1)).copied().unwrap_or(u16::MAX)
    };
    let w_max_at = |i: usize| max_at(wide, nw, i);
    let n_max_at = |j: usize| max_at(narrow, nn, j);
    // Appends the narrow lanes in `fresh` that the rotated wide block
    // holds, and drops them from `fresh`.
    let emit = |vn: __m256i, fresh: &mut usize, rot: &[__m256i; 8], out: &mut Vec<Elem>| {
        let (lo, hi) = (
            _mm256_castsi256_si128(vn),
            _mm256_extracti128_si256::<1>(vn),
        );
        // Each narrow half against the wide block's low and high halves.
        // SAFETY: the caller guarantees AVX2.
        let c_lo = unsafe { lanes_in16(_mm256_broadcastsi128_si256(lo), rot) };
        // SAFETY: as above.
        let c_hi = unsafe { lanes_in16(_mm256_broadcastsi128_si256(hi), rot) };
        let any = _mm256_or_si256(c_lo, c_hi);
        // Most blocks of two sparse lists share nothing: one test skips the
        // mask and the store.
        if _mm256_testz_si256(any, any) != 0 {
            return;
        }
        let fold =
            |c: __m256i| _mm_or_si128(_mm256_castsi256_si128(c), _mm256_extracti128_si256::<1>(c));
        // Bits 0–7 are the narrow block's low lanes, 8–15 its high.
        let mask = _mm_movemask_epi8(_mm_packs_epi16(fold(c_lo), fold(c_hi))) as usize & *fresh;
        *fresh &= !mask;
        if mask != 0 {
            let hv = _mm_set1_epi32(high as i32);
            // SAFETY: the caller keeps >= 16 spare slots.
            unsafe {
                store_matches16(lo, mask, hv, out);
                store_matches16(hi, mask >> 8, hv, out);
            }
        }
    };
    // SAFETY: the caller guarantees AVX2.
    let mut rot = unsafe { rotations16(wide_block(0)) };
    let (mut vn, mut fresh) = narrow_block(0);
    if nw <= 16 && nn <= 8 {
        // Both runs fit one block, the narrow one its low half: one
        // compare, no loop.
        let lo = _mm256_castsi256_si128(vn);
        // SAFETY: the caller guarantees AVX2.
        let c = unsafe { lanes_in16(_mm256_broadcastsi128_si256(lo), &rot) };
        if _mm256_testz_si256(c, c) == 0 {
            let c = _mm_or_si128(_mm256_castsi256_si128(c), _mm256_extracti128_si256::<1>(c));
            let mask = _mm_movemask_epi8(_mm_packs_epi16(c, _mm_setzero_si128())) as usize & fresh;
            if mask != 0 {
                // SAFETY: the caller keeps >= 16 spare slots.
                unsafe { store_matches16(lo, mask, _mm_set1_epi32(high as i32), out) };
            }
        }
        return;
    }
    if nw <= 16 {
        // One block each: one step, no loop.
        emit(vn, &mut fresh, &rot, out);
        return;
    }
    let (mut w_max, mut n_max) = (w_max_at(0), n_max_at(0));
    let (mut i, mut j) = (0usize, 0usize);
    loop {
        emit(vn, &mut fresh, &rot, out);
        // Advance the block with the smaller maximum (both on a tie); a run
        // whose last block advances is done, and so is the chunk.
        let (w_le, n_le) = (w_max <= n_max, n_max <= w_max);
        if w_le {
            i += 16;
            if i >= nw {
                break;
            }
            // SAFETY: the caller guarantees AVX2.
            rot = unsafe { rotations16(wide_block(i)) };
            w_max = w_max_at(i);
        }
        if n_le {
            j += 16;
            if j >= nn {
                break;
            }
            (vn, fresh) = narrow_block(j);
            n_max = n_max_at(j);
        }
    }
}

/// The bitmap-to-documents walk compiled with POPCNT and BMI1 (`tzcnt`,
/// `blsr`) — the AVX2 tier of [`super::extract_into_at`].
///
/// # Safety
/// The CPU must support POPCNT and BMI1.
#[target_feature(enable = "popcnt,bmi1")]
pub unsafe fn extract_avx2(base: Elem, words: &[u64], out: &mut Vec<Elem>) {
    extract_branchless(base, words, out)
}

/// AVX2 in-place `AND` with a folded all-zero test.
///
/// # Safety
/// The CPU must support AVX2. `acc` and `other` must be equal length.
#[target_feature(enable = "avx2")]
pub unsafe fn and_in_place_avx2(acc: &mut [u64], other: &[u64]) -> bool {
    let n = acc.len();
    let mut any = _mm256_setzero_si256();
    let mut w = 0usize;
    while w + 4 <= n {
        // SAFETY: w + 4 <= n = acc.len(), and the caller contract makes
        // `other` the same length, so the loads and the write-back stay
        // in bounds.
        let (va, vb) = unsafe {
            (
                _mm256_loadu_si256(acc.as_ptr().add(w) as *const __m256i),
                _mm256_loadu_si256(other.as_ptr().add(w) as *const __m256i),
            )
        };
        let v = _mm256_and_si256(va, vb);
        // SAFETY: same bound as the loads; the store writes back in place.
        unsafe { _mm256_storeu_si256(acc.as_mut_ptr().add(w) as *mut __m256i, v) };
        any = _mm256_or_si256(any, v);
        w += 4;
    }
    let mut tail_any = 0u64;
    while w < n {
        acc[w] &= other[w];
        tail_any |= acc[w];
        w += 1;
    }
    _mm256_testz_si256(any, any) == 1 && tail_any == 0
}

/// AVX2 in-place `OR` — the union sweep's word primitive, 4 words per
/// instruction. No zero test: a union accumulator only gains bits.
///
/// # Safety
/// The CPU must support AVX2. `acc` and `other` must be equal length.
#[target_feature(enable = "avx2")]
pub unsafe fn or_in_place_avx2(acc: &mut [u64], other: &[u64]) {
    let n = acc.len();
    let mut w = 0usize;
    while w + 4 <= n {
        // SAFETY: w + 4 <= n = acc.len(), and the caller contract makes
        // `other` the same length, so the loads and the write-back stay
        // in bounds.
        let (va, vb) = unsafe {
            (
                _mm256_loadu_si256(acc.as_ptr().add(w) as *const __m256i),
                _mm256_loadu_si256(other.as_ptr().add(w) as *const __m256i),
            )
        };
        // SAFETY: same bound as the loads; the store writes back in place.
        unsafe {
            _mm256_storeu_si256(
                acc.as_mut_ptr().add(w) as *mut __m256i,
                _mm256_or_si256(va, vb),
            )
        };
        w += 4;
    }
    while w < n {
        acc[w] |= other[w];
        w += 1;
    }
}

/// Lane selector broadcasting dword 3 (the low 128-bit lane's prefix-sum
/// total) to every lane of a `vpermd`.
static BCAST_LANE3: [u32; 8] = [3; 8];

/// Adds the broadcast low-lane total only into the high 128-bit lane.
static HI_LANE_MASK: [u32; 8] = [0, 0, 0, 0, u32::MAX, u32::MAX, u32::MAX, u32::MAX];

/// AVX2 bulk delta unpack: gathers 8 `width`-bit packed fields per
/// iteration, variable-shifts each into place, masks, and rebuilds
/// absolute doc ids with an in-register inclusive prefix sum (two in-lane
/// shifted adds, one cross-lane fix-up, plus the running carry). The
/// ragged tail (< 8 fields) decodes on the scalar word loop, so output is
/// byte-identical to the scalar twin (`unpack_deltas_scalar`).
///
/// # Safety
/// The CPU must support AVX2. `count >= 2`, `width` must be in
/// `1..=MAX_GATHER_WIDTH` (so a field starting at any in-byte
/// shift fits one 4-byte gather lane), and `bytes` must extend at least 8
/// bytes past the last field's starting byte — the dispatcher asserts
/// this padding before selecting this path.
#[target_feature(enable = "avx2")]
pub unsafe fn unpack_deltas_avx2(
    bytes: &[u8],
    bit_offset: usize,
    width: u32,
    first: Elem,
    count: usize,
    out: &mut Vec<Elem>,
) {
    let fields = count - 1;
    let w = width as usize;
    out.reserve(count);
    out.push(first);
    let mut carry = first;
    let mask = _mm256_set1_epi32(((1u64 << width) - 1) as i32);
    let ones = _mm256_set1_epi32(1);
    // SAFETY: both statics are 8 aligned-enough u32s (loadu has no
    // alignment requirement) read in full.
    let bcast3 = unsafe { _mm256_loadu_si256(BCAST_LANE3.as_ptr() as *const __m256i) };
    // SAFETY: as above.
    let hi_mask = unsafe { _mm256_loadu_si256(HI_LANE_MASK.as_ptr() as *const __m256i) };
    let base = bytes.as_ptr();
    let mut i = 0usize;
    while i + 8 <= fields {
        let p0 = bit_offset + i * w;
        let offs = _mm256_set_epi32(
            ((p0 + 7 * w) >> 3) as i32,
            ((p0 + 6 * w) >> 3) as i32,
            ((p0 + 5 * w) >> 3) as i32,
            ((p0 + 4 * w) >> 3) as i32,
            ((p0 + 3 * w) >> 3) as i32,
            ((p0 + 2 * w) >> 3) as i32,
            ((p0 + w) >> 3) as i32,
            (p0 >> 3) as i32,
        );
        let shifts = _mm256_set_epi32(
            ((p0 + 7 * w) & 7) as i32,
            ((p0 + 6 * w) & 7) as i32,
            ((p0 + 5 * w) & 7) as i32,
            ((p0 + 4 * w) & 7) as i32,
            ((p0 + 3 * w) & 7) as i32,
            ((p0 + 2 * w) & 7) as i32,
            ((p0 + w) & 7) as i32,
            (p0 & 7) as i32,
        );
        // SAFETY: every lane's byte offset is at most the last field's
        // starting byte, and the caller guarantees >= 8 padding bytes
        // beyond it, so each 4-byte gathered load stays inside `bytes`.
        let gathered = unsafe { _mm256_i32gather_epi32::<1>(base as *const i32, offs) };
        let deltas = _mm256_and_si256(_mm256_srlv_epi32(gathered, shifts), mask);
        let gaps = _mm256_add_epi32(deltas, ones);
        // Inclusive prefix sum within each 128-bit lane…
        let s1 = _mm256_add_epi32(gaps, _mm256_slli_si256::<4>(gaps));
        let s2 = _mm256_add_epi32(s1, _mm256_slli_si256::<8>(s1));
        // …then push the low lane's total into the high lane only.
        let low_total = _mm256_permutevar8x32_epi32(s2, bcast3);
        let scan = _mm256_add_epi32(s2, _mm256_and_si256(low_total, hi_mask));
        let abs = _mm256_add_epi32(scan, _mm256_set1_epi32(carry as i32));
        let len = out.len();
        out.reserve(8);
        // SAFETY: the reserve above guarantees capacity for 8 more lanes;
        // storeu is unaligned-safe and set_len only covers initialized
        // lanes.
        unsafe {
            _mm256_storeu_si256(out.as_mut_ptr().add(len) as *mut __m256i, abs);
            out.set_len(len + 8);
        }
        carry = _mm256_extract_epi32::<7>(abs) as u32;
        i += 8;
    }
    // Ragged tail: the same word loop as the scalar twin.
    let m = (1u64 << width) - 1;
    let mut pos = bit_offset + i * w;
    while i < fields {
        let byte = pos >> 3;
        // audit:allow(hot_path_panic): the dispatcher asserted 8 padding bytes past the last field's byte
        let word = u64::from_le_bytes(bytes[byte..byte + 8].try_into().expect("8-byte window"));
        carry += ((word >> (pos & 7)) & m) as u32 + 1;
        out.push(carry);
        pos += w;
        i += 1;
    }
}
