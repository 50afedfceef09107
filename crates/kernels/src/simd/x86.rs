//! The x86_64 `std::arch` implementations behind [`super`]'s dispatched
//! entry points. Compiled only on x86_64 without the `force-scalar`
//! feature; every function is `#[target_feature]`-gated and reached only
//! through [`SimdLevel::saturate`](super::SimdLevel::saturate)-checked
//! dispatch, so the required instructions are always present at runtime.
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
//! The extraction tiers are the portable walk itself, compiled in a frame
//! with `popcnt` (and `bmi1`) enabled.

use super::extract_branchless;
use crate::gallop::branchless_merge_into;
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

/// SSE4.1 merge intersect of sorted, duplicate-free slices; appends the
/// ascending intersection to `out`.
///
/// # Safety
/// The CPU must support SSE4.1 (which implies the SSSE3 byte shuffle).
#[target_feature(enable = "sse4.1")]
pub unsafe fn merge_sse(a: &[Elem], b: &[Elem], out: &mut Vec<Elem>) {
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
/// ascending intersection to `out`. The ragged tail falls through the
/// SSE4.1 kernel and then the scalar merge.
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
    unsafe { merge_sse(&a[i..], &b[j..], out) };
}

/// The bitmap-to-documents walk compiled with POPCNT — the SSE4.1 tier of
/// [`super::extract_into_at`].
///
/// # Safety
/// The CPU must support POPCNT.
#[target_feature(enable = "popcnt")]
pub unsafe fn extract_sse(base: Elem, words: &[u64], out: &mut Vec<Elem>) {
    extract_branchless(base, words, out)
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

/// SSE4.1 in-place `AND` with a folded all-zero test (one `PTEST` of the
/// OR-accumulator at the end).
///
/// # Safety
/// The CPU must support SSE4.1. `acc` and `other` must be equal length.
#[target_feature(enable = "sse4.1")]
pub unsafe fn and_in_place_sse(acc: &mut [u64], other: &[u64]) -> bool {
    let n = acc.len();
    let mut any = _mm_setzero_si128();
    let mut w = 0usize;
    while w + 2 <= n {
        // SAFETY: w + 2 <= n = acc.len(), and the caller contract makes
        // `other` the same length, so the loads and the write-back stay
        // in bounds.
        let (va, vb) = unsafe {
            (
                _mm_loadu_si128(acc.as_ptr().add(w) as *const __m128i),
                _mm_loadu_si128(other.as_ptr().add(w) as *const __m128i),
            )
        };
        let v = _mm_and_si128(va, vb);
        // SAFETY: same bound as the loads; the store writes back in place.
        unsafe { _mm_storeu_si128(acc.as_mut_ptr().add(w) as *mut __m128i, v) };
        any = _mm_or_si128(any, v);
        w += 2;
    }
    let mut tail_any = 0u64;
    while w < n {
        acc[w] &= other[w];
        tail_any |= acc[w];
        w += 1;
    }
    _mm_testz_si128(any, any) == 1 && tail_any == 0
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

/// SSE4.1 in-place `OR` — the union sweep's word primitive. No zero test:
/// a union accumulator only gains bits.
///
/// # Safety
/// The CPU must support SSE4.1. `acc` and `other` must be equal length.
#[target_feature(enable = "sse4.1")]
pub unsafe fn or_in_place_sse(acc: &mut [u64], other: &[u64]) {
    let n = acc.len();
    let mut w = 0usize;
    while w + 2 <= n {
        // SAFETY: w + 2 <= n = acc.len(), and the caller contract makes
        // `other` the same length, so the loads and the write-back stay
        // in bounds.
        let (va, vb) = unsafe {
            (
                _mm_loadu_si128(acc.as_ptr().add(w) as *const __m128i),
                _mm_loadu_si128(other.as_ptr().add(w) as *const __m128i),
            )
        };
        // SAFETY: same bound as the loads; the store writes back in place.
        unsafe {
            _mm_storeu_si128(
                acc.as_mut_ptr().add(w) as *mut __m128i,
                _mm_or_si128(va, vb),
            )
        };
        w += 2;
    }
    while w < n {
        acc[w] |= other[w];
        w += 1;
    }
}

/// AVX2 in-place `OR` — 4 words per instruction.
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
