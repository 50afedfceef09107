//! The common [`Kernel`] interface over every slice-level intersection
//! primitive, plus runtime selection.
//!
//! A kernel consumes plain sorted `&[u32]` slices — the universal currency
//! of posting lists — and appends the intersection to a caller buffer.
//! [`KernelChoice::select`] is the slice-level dispatch rule (skew →
//! galloping at [`GALLOP_RATIO`], density → bitmap at
//! [`BITMAP_MIN_DENSITY`], otherwise the SIMD merge); the
//! `fsi-index` planner prices the same kernels over prepared lists with
//! its own cost model (plus a membership-probe tier and a RanGroupScan
//! fallback) and shares none of these thresholds. [`AutoKernel`] packages
//! the slice-level choice behind the common trait so harnesses can bench
//! it as one kernel.

use crate::bitmap::BitmapKernel;
use crate::gallop::{Galloping, GALLOP_RATIO};
use fsi_core::elem::Elem;

/// A slice-level intersection kernel.
///
/// Implementations must accept any sorted, duplicate-free slices and append
/// an **ascending** intersection to `out` (slice kernels sort where their
/// natural order differs, unlike the prepared `*Set` forms whose trait
/// contract leaves order unspecified).
pub trait Kernel: std::fmt::Debug + Send + Sync {
    /// The label benchmarks and tests report.
    fn name(&self) -> &'static str;

    /// Appends `a ∩ b` to `out`, ascending.
    fn intersect_pair(&self, a: &[Elem], b: &[Elem], out: &mut Vec<Elem>);

    /// Appends `⋂ sets` to `out`, ascending. The default folds
    /// [`Kernel::intersect_pair`] smallest-first (SvS ordering).
    fn intersect_k(&self, sets: &[&[Elem]], out: &mut Vec<Elem>) {
        match sets {
            [] => {}
            [a] => out.extend_from_slice(a),
            _ => {
                let mut order: Vec<&[Elem]> = sets.to_vec();
                order.sort_by_key(|s| s.len());
                let mut acc = Vec::new();
                self.intersect_pair(order[0], order[1], &mut acc);
                for s in &order[2..] {
                    if acc.is_empty() {
                        break;
                    }
                    let mut next = Vec::new();
                    self.intersect_pair(&acc, s, &mut next);
                    acc = next;
                }
                out.extend(acc);
            }
        }
    }
}

/// The classic branching two-pointer merge — the scalar baseline every
/// word-parallel kernel is benchmarked against.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarMerge;

impl Kernel for ScalarMerge {
    fn name(&self) -> &'static str {
        "Merge"
    }

    fn intersect_pair(&self, a: &[Elem], b: &[Elem], out: &mut Vec<Elem>) {
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
}

/// The block compare-and-compact merge at the dispatched
/// [`SimdLevel`](crate::simd::SimdLevel) — what the balanced branch of
/// [`GallopingSet`](crate::GallopingSet) runs. Identical output to
/// [`ScalarMerge`]/[`BranchlessMerge`](crate::gallop::BranchlessMerge) at
/// every level; identical code under `force-scalar` or off x86_64.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimdMerge;

impl Kernel for SimdMerge {
    fn name(&self) -> &'static str {
        "SimdMerge"
    }

    fn intersect_pair(&self, a: &[Elem], b: &[Elem], out: &mut Vec<Elem>) {
        crate::simd::merge_into(a, b, out);
    }
}

/// Minimum `n_min/universe` density at which building chunked bitmaps on
/// the fly and sweeping `O(universe/64)` words beats element-at-a-time
/// kernels — the slice-level selectors' floor ([`KernelChoice`],
/// `MultiwayChoice`).
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

/// A kernel that re-selects per call via [`KernelChoice::select`] — the
/// planner's dispatch packaged behind the common trait.
#[derive(Debug, Clone, Copy, Default)]
pub struct AutoKernel;

impl AutoKernel {
    /// The choice [`AutoKernel::intersect_pair`] would make for these
    /// operands.
    pub fn choice(a: &[Elem], b: &[Elem]) -> KernelChoice {
        let span = a
            .last()
            .copied()
            .max(b.last().copied())
            .map_or(0, |m| m as u64 + 1);
        KernelChoice::select(a.len(), b.len(), span)
    }
}

impl Kernel for AutoKernel {
    fn name(&self) -> &'static str {
        "Auto"
    }

    fn intersect_pair(&self, a: &[Elem], b: &[Elem], out: &mut Vec<Elem>) {
        let choice = Self::choice(a, b);
        choice.record_dispatch();
        match choice {
            KernelChoice::Merge => ScalarMerge.intersect_pair(a, b, out),
            KernelChoice::Galloping => Galloping.intersect_pair(a, b, out),
            KernelChoice::Bitmap => BitmapKernel.intersect_pair(a, b, out),
            KernelChoice::SimdMerge => SimdMerge.intersect_pair(a, b, out),
        }
    }

    /// `k ≥ 3` routes through the true k-way layer
    /// ([`MultiwayAuto`](crate::multiway::MultiwayAuto)) — no pairwise
    /// fold, no materialized intermediates.
    fn intersect_k(&self, sets: &[&[Elem]], out: &mut Vec<Elem>) {
        use crate::multiway::{MultiwayAuto, MultiwayKernel};
        match sets {
            [] => {}
            [a] => out.extend_from_slice(a),
            [a, b] => self.intersect_pair(a, b, out),
            _ => MultiwayAuto::default().intersect(sets, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gallop::BranchlessMerge;
    use fsi_core::elem::{reference_intersection, SortedSet};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn kernels() -> Vec<Box<dyn Kernel>> {
        vec![
            Box::new(ScalarMerge),
            Box::new(BranchlessMerge),
            Box::new(SimdMerge),
            Box::new(Galloping),
            Box::new(BitmapKernel),
            Box::new(AutoKernel),
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
            for k in kernels() {
                let mut out = Vec::new();
                k.intersect_pair(a.as_slice(), b.as_slice(), &mut out);
                assert_eq!(out, expect, "kernel {} trial {trial}", k.name());
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
            for k in kernels() {
                let mut out = Vec::new();
                k.intersect_k(&slices, &mut out);
                assert_eq!(out, expect, "kernel {} k={k_sets}", k.name());
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
        assert_eq!(AutoKernel::choice(a, b), KernelChoice::SimdMerge);
        let expect = reference_intersection(&[a, b]);
        assert!(!expect.is_empty());
        for level in crate::simd::available_levels() {
            let mut out = Vec::new();
            crate::simd::with_level(level, || {
                AutoKernel.intersect_pair(a, b, &mut out);
            });
            assert_eq!(out, expect, "{}", level.name());
        }
    }

    #[test]
    fn kernel_names_are_distinct() {
        let names: Vec<&str> = kernels().iter().map(|k| k.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "{names:?}");
    }
}
