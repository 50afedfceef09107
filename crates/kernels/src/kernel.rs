//! The slice-level pair kernels the harnesses bench, plus runtime
//! selection.
//!
//! A pair kernel is a plain function over sorted `&[u32]` slices — the
//! universal currency of posting lists — that appends the ascending
//! intersection to a caller buffer: [`scalar_merge_into`],
//! [`branchless_merge_into`](crate::branchless_merge_into),
//! [`galloping_into`], the SIMD merge
//! [`simd::merge_into`](crate::simd::merge_into), and [`auto_pair_into`],
//! which picks among them. [`pairwise_fold_into`](crate::pairwise_fold_into)
//! folds any of them over k lists. [`KernelChoice::select`] is the
//! slice-level dispatch rule (skew → galloping at [`GALLOP_RATIO`],
//! density → bitmap at [`BITMAP_MIN_DENSITY`], otherwise the SIMD merge);
//! the `fsi-index` planner prices its own kernels over prepared lists with
//! its own cost model and shares none of these thresholds.

use crate::bitmap::BitmapSet;
use crate::gallop::{galloping_into, GALLOP_RATIO};
use fsi_core::elem::Elem;
use fsi_core::traits::PairIntersect;

/// The classic branching two-pointer merge — the scalar baseline every
/// word-parallel kernel is benchmarked against. Appends `a ∩ b` to `out`,
/// ascending.
pub fn scalar_merge_into(a: &[Elem], b: &[Elem], out: &mut Vec<Elem>) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Minimum `n_min/universe` density at which building chunked bitmaps on
/// the fly and sweeping `O(universe/64)` words beats element-at-a-time
/// kernels — [`KernelChoice`]'s floor.
pub const BITMAP_MIN_DENSITY: f64 = 1.0 / 16.0;

/// Which kernel the runtime selector picked (exposed for tests/telemetry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelChoice {
    /// Degenerate input (an empty operand): plain merge short-circuits.
    Merge,
    /// Skewed sizes: gallop the small list through the large one.
    Galloping,
    /// Dense operands: word-parallel chunked-bitmap `AND`.
    Bitmap,
    /// Balanced, sparse: the block compare-and-compact merge at the
    /// dispatched SIMD level, on the flat lists alone.
    SimdMerge,
}

impl KernelChoice {
    /// The label telemetry reports for this choice.
    pub fn name(self) -> &'static str {
        match self {
            KernelChoice::Merge => "Merge",
            KernelChoice::Galloping => "Galloping",
            KernelChoice::Bitmap => "Bitmap",
            KernelChoice::SimdMerge => "SimdMerge",
        }
    }

    /// Bumps this choice's dispatch counter in the global metrics registry
    /// (`fsi_kernel_pair_dispatch_total{kernel=...}`) — one relaxed atomic
    /// increment on a cached handle, called once per dispatched *query*,
    /// not per element.
    fn record_dispatch(self) {
        use std::sync::OnceLock;
        static COUNTERS: OnceLock<[std::sync::Arc<fsi_obs::Counter>; 4]> = OnceLock::new();
        let counters = COUNTERS.get_or_init(|| {
            [
                KernelChoice::Merge,
                KernelChoice::Galloping,
                KernelChoice::Bitmap,
                KernelChoice::SimdMerge,
            ]
            .map(|k| {
                fsi_obs::Registry::global()
                    .counter("fsi_kernel_pair_dispatch_total", &[("kernel", k.name())])
            })
        });
        // audit:allow(hot_path_index): the array is sized to the enum's variant count and indexed by discriminant
        counters[self as usize].inc();
    }

    /// Dispatch rule (see the crate doc): empty → merge; ratio ≥
    /// [`GALLOP_RATIO`] → galloping; density ≥ [`BITMAP_MIN_DENSITY`] →
    /// bitmap; otherwise the SIMD merge. `universe_span` is the
    /// exclusive upper bound of the value range (`max element + 1`).
    pub fn select(n1: usize, n2: usize, universe_span: u64) -> Self {
        let (lo, hi) = (n1.min(n2), n1.max(n2));
        if lo == 0 {
            KernelChoice::Merge
        } else if hi / lo >= GALLOP_RATIO {
            KernelChoice::Galloping
        } else if lo as f64 >= BITMAP_MIN_DENSITY * universe_span.max(1) as f64 {
            KernelChoice::Bitmap
        } else {
            KernelChoice::SimdMerge
        }
    }
}

/// Appends `a ∩ b` to `out`, ascending, through the kernel
/// [`KernelChoice::select`] picks for these operands (the bitmap kernel
/// builds both chunked bitmaps on the fly), bumping that choice's dispatch
/// counter.
pub fn auto_pair_into(a: &[Elem], b: &[Elem], out: &mut Vec<Elem>) {
    let span = a
        .last()
        .copied()
        .max(b.last().copied())
        .map_or(0, |m| m as u64 + 1);
    let choice = KernelChoice::select(a.len(), b.len(), span);
    choice.record_dispatch();
    match choice {
        KernelChoice::Merge => scalar_merge_into(a, b, out),
        KernelChoice::Galloping => {
            let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
            galloping_into(small, large, out);
        }
        KernelChoice::Bitmap => BitmapSet::from_sorted_slice(a)
            .intersect_pair_into(&BitmapSet::from_sorted_slice(b), out),
        KernelChoice::SimdMerge => crate::simd::merge_into(a, b, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gallop::branchless_merge_into;
    use crate::multiway::pairwise_fold_into;
    use fsi_core::elem::{reference_intersection, SortedSet};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    type Pair = fn(&[Elem], &[Elem], &mut Vec<Elem>);

    /// Every slice-level pair kernel, by name.
    fn kernels() -> [(&'static str, Pair); 6] {
        [
            ("scalar_merge_into", scalar_merge_into),
            ("branchless_merge_into", branchless_merge_into),
            ("simd::merge_into", crate::simd::merge_into),
            ("galloping_into", galloping_into),
            ("bitmap (built on the fly)", |a, b, out| {
                BitmapSet::from_sorted_slice(a)
                    .intersect_pair_into(&BitmapSet::from_sorted_slice(b), out)
            }),
            ("auto_pair_into", auto_pair_into),
        ]
    }

    #[test]
    fn every_kernel_matches_reference_pairs() {
        let mut rng = StdRng::seed_from_u64(41);
        for trial in 0..15 {
            let n1 = rng.gen_range(0..1000);
            let n2 = rng.gen_range(0..1000);
            let u = rng.gen_range(1..20_000u32);
            let a: SortedSet = (0..n1).map(|_| rng.gen_range(0..u)).collect();
            let b: SortedSet = (0..n2).map(|_| rng.gen_range(0..u)).collect();
            let expect = reference_intersection(&[a.as_slice(), b.as_slice()]);
            for (name, kernel) in kernels() {
                let mut out = Vec::new();
                kernel(a.as_slice(), b.as_slice(), &mut out);
                assert_eq!(out, expect, "kernel {name} trial {trial}");
            }
        }
    }

    #[test]
    fn every_kernel_matches_reference_k_way() {
        let mut rng = StdRng::seed_from_u64(42);
        for k_sets in [3usize, 4] {
            let sets: Vec<SortedSet> = (0..k_sets)
                .map(|_| (0..600).map(|_| rng.gen_range(0..2000u32)).collect())
                .collect();
            let slices: Vec<&[Elem]> = sets.iter().map(|s| s.as_slice()).collect();
            let expect = reference_intersection(&slices);
            for (name, kernel) in kernels() {
                let mut out = Vec::new();
                pairwise_fold_into(kernel, &slices, &mut out);
                assert_eq!(out, expect, "kernel {name} k={k_sets}");
            }
        }
    }

    #[test]
    fn selection_rules() {
        // Empty operand.
        assert_eq!(KernelChoice::select(0, 100, 1000), KernelChoice::Merge);
        // Skew wins over density.
        assert_eq!(
            KernelChoice::select(10, 1000, 1000),
            KernelChoice::Galloping
        );
        // Dense and balanced.
        assert_eq!(KernelChoice::select(500, 600, 1000), KernelChoice::Bitmap);
        // Sparse and balanced.
        assert_eq!(
            KernelChoice::select(500, 600, 1_000_000),
            KernelChoice::SimdMerge
        );
    }

    /// The balanced sparse pair — neither skewed nor dense — runs the SIMD
    /// merge, and the answer is the reference's at every level this box
    /// has (the scalar twin included).
    #[test]
    fn balanced_sparse_pairs_run_the_simd_merge_at_every_level() {
        let mut rng = StdRng::seed_from_u64(43);
        let a: SortedSet = (0..2000).map(|_| rng.gen_range(0..400_000u32)).collect();
        let b: SortedSet = (0..2400).map(|_| rng.gen_range(0..400_000u32)).collect();
        let (a, b) = (a.as_slice(), b.as_slice());
        let span = u64::from(a[a.len() - 1].max(b[b.len() - 1])) + 1;
        assert_eq!(
            KernelChoice::select(a.len(), b.len(), span),
            KernelChoice::SimdMerge
        );
        let expect = reference_intersection(&[a, b]);
        assert!(!expect.is_empty());
        for level in crate::simd::available_levels() {
            let mut out = Vec::new();
            crate::simd::with_level(level, || auto_pair_into(a, b, &mut out));
            assert_eq!(out, expect, "{}", level.name());
        }
    }

    #[test]
    fn kernel_names_are_distinct() {
        let names: Vec<&str> = kernels().iter().map(|(name, _)| *name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "{names:?}");
    }
}
