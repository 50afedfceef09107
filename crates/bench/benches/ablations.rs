//! Criterion benchmarks for the paper's design-choice ablations:
//! group size (Appendix A.1.1), number of hash images `m` (Section 3.3), and
//! the word-filter itself (Algorithm 5 line 3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fsi_core::hash::HashContext;
use fsi_core::traits::PairIntersect;
use fsi_core::{partition_level, IntGroupIndex, RanGroupScanIndex};
use fsi_workloads::synthetic::pair_with_intersection;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

const N: usize = 250_000;

/// IntGroup fixed-width partition size sweep (√w = 8 is the paper's choice).
fn ablation_group_size(c: &mut Criterion) {
    let ctx = HashContext::with_family_size(7, 8);
    let mut rng = StdRng::seed_from_u64(1);
    let (a, b) = pair_with_intersection(&mut rng, N, N, N / 100, (N as u64) * 20);
    let mut g = c.benchmark_group("ablation_intgroup_width");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    for s in [2usize, 4, 8, 16, 32] {
        let ia = IntGroupIndex::with_group_size(&ctx, &a, s);
        let ib = IntGroupIndex::with_group_size(&ctx, &b, s);
        let mut out = Vec::new();
        g.bench_function(BenchmarkId::from_parameter(s), |bench| {
            bench.iter(|| {
                out.clear();
                ia.intersect_pair_into(&ib, &mut out);
                out.len()
            })
        });
    }
    g.finish();
}

/// RanGroupScan partition level sweep around the paper's ⌈log2(n/√w)⌉.
fn ablation_partition_level(c: &mut Criterion) {
    let ctx = HashContext::with_family_size(7, 8);
    let mut rng = StdRng::seed_from_u64(2);
    let (a, b) = pair_with_intersection(&mut rng, N, N, N / 100, (N as u64) * 20);
    let base = partition_level(N);
    let mut g = c.benchmark_group("ablation_rgs_level");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    for offset in [-2i32, -1, 0, 1, 2] {
        let t = (base as i32 + offset).clamp(0, 31) as u32;
        let ia = RanGroupScanIndex::with_m_and_level(&ctx, &a, 2, t);
        let ib = RanGroupScanIndex::with_m_and_level(&ctx, &b, 2, t);
        let mut out = Vec::new();
        g.bench_function(
            BenchmarkId::from_parameter(format!("{offset:+}")),
            |bench| {
                bench.iter(|| {
                    out.clear();
                    ia.intersect_pair_into(&ib, &mut out);
                    out.len()
                })
            },
        );
    }
    g.finish();
}

/// Hash-image count sweep (space/time trade-off of Section 3.3).
fn ablation_m(c: &mut Criterion) {
    let ctx = HashContext::with_family_size(7, 8);
    let mut rng = StdRng::seed_from_u64(3);
    let (a, b) = pair_with_intersection(&mut rng, N, N, N / 1000, (N as u64) * 20);
    let mut g = c.benchmark_group("ablation_rgs_m");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    for m in [1usize, 2, 4, 8] {
        let ia = RanGroupScanIndex::with_m(&ctx, &a, m);
        let ib = RanGroupScanIndex::with_m(&ctx, &b, m);
        let mut out = Vec::new();
        g.bench_function(BenchmarkId::from_parameter(m), |bench| {
            bench.iter(|| {
                out.clear();
                ia.intersect_pair_into(&ib, &mut out);
                out.len()
            })
        });
    }
    g.finish();
}

criterion_group!(
    ablations,
    ablation_group_size,
    ablation_partition_level,
    ablation_m
);
criterion_main!(ablations);
