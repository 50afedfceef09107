//! SIMD-vs-scalar benchmark: every vectorized kernel against its scalar
//! twin on identical operands, at the SIMD tier this machine dispatches to.
//!
//! The shapes are the four of `--bin kernels` plus `ragged-unaligned`:
//! prime-sized lists intersected through offset subslices, so every block
//! loop runs with a remainder-hostile length *and* pointers off the lane
//! alignment — the configuration the differential suite pins for
//! correctness and this harness prices. Per shape and kernel the row
//! reports the scalar and SIMD microseconds on the *same* prepared
//! operands and their ratio (`speedup_vs_scalar`, the gated metric).
//! Results land in `BENCH_simd.json`; `active_level` records the dispatch
//! tier, and a `Scalar` tier (no SIMD hardware or a `force-scalar` build)
//! marks every row ungated rather than reporting fake 1.0x speedups.
//!
//! The `chunk_merge` rows price the chunked 16-bit merge
//! ([`ArraySet::intersect_into_at`]) against the flat `u32` merge
//! ([`simd::merge_into_at`]) on the same pairs, both at the active tier:
//! 1 k/1 k, 10 k/10 k and 30 k/3 k uniform lists over a 2 M-document
//! universe, the benchmark corpus's span. The two merges run interleaved
//! in one process, sample by sample, so a loaded box slows both alike;
//! `time_ratio` is the chunked merge's fastest sample over the `u32`
//! merge's, and `check_regression` holds it at or under 1.10. The rows
//! take milliseconds, so a smoke run times them with the full run's
//! samples too.
//!
//! Usage: `cargo run --release -p fsi-bench --bin simd -- [out.json] [--smoke]`

use fsi_bench::{min_time, HarnessArgs, Table};
use fsi_core::{PairIntersect, SortedSet};
use fsi_kernels::simd::{self, SimdLevel};
use fsi_kernels::{ArraySet, BitmapSet};
use fsi_workloads::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FULL_REPS: usize = 21;
const SMOKE_REPS: usize = 5;

/// One benchmark shape: how the operand pair is generated.
struct Shape {
    name: &'static str,
    n1: usize,
    n2: usize,
    universe: u32,
    zipf: bool,
    /// Intersect `[1..]` subslices: remainder-hostile lengths and pointers
    /// off the lane alignment.
    offset: bool,
}

const SHAPES: [Shape; 5] = [
    Shape {
        name: "balanced-sparse",
        n1: 100_000,
        n2: 100_000,
        universe: 8_000_000,
        zipf: false,
        offset: false,
    },
    Shape {
        name: "balanced-dense",
        n1: 150_000,
        n2: 150_000,
        universe: 1_000_000,
        zipf: false,
        offset: false,
    },
    Shape {
        name: "skewed-1:64",
        n1: 4_000,
        n2: 256_000,
        universe: 8_000_000,
        zipf: false,
        offset: false,
    },
    Shape {
        name: "zipf-clustered",
        n1: 120_000,
        n2: 120_000,
        universe: 2_000_000,
        zipf: true,
        offset: false,
    },
    Shape {
        name: "ragged-unaligned",
        n1: 99_991,
        n2: 100_003,
        universe: 1_200_000,
        zipf: false,
        offset: true,
    },
];

/// Draws a set of `n` distinct values (uniform or Zipf rank-skewed).
fn draw_set(rng: &mut StdRng, n: usize, universe: u32, zipf: bool) -> SortedSet {
    if zipf {
        let z = Zipf::new(universe as usize, 1.0);
        let mut vals: Vec<u32> = (0..4 * n).map(|_| z.sample(rng) as u32).collect();
        vals.sort_unstable();
        vals.dedup();
        vals.truncate(n);
        SortedSet::from_sorted_unchecked(vals)
    } else {
        (0..n).map(|_| rng.gen_range(0..universe)).collect()
    }
}

/// One chunked-merge pair: `n1` and `n2` uniform members of
/// `0..CHUNK_UNIVERSE`.
struct ChunkPair {
    name: &'static str,
    n1: usize,
    n2: usize,
}

/// The benchmark corpus's document universe: about 31 chunks of 2¹⁶.
const CHUNK_UNIVERSE: u32 = 2_000_000;

const CHUNK_PAIRS: [ChunkPair; 3] = [
    ChunkPair {
        name: "1k/1k",
        n1: 1_000,
        n2: 1_000,
    },
    ChunkPair {
        name: "10k/10k",
        n1: 10_000,
        n2: 10_000,
    },
    ChunkPair {
        name: "30k/3k",
        n1: 30_000,
        n2: 3_000,
    },
];

/// Merges per timed sample: enough that the smallest pair's sample spans
/// tens of microseconds.
const MERGES_PER_SAMPLE: usize = 64;

/// The chunked 16-bit merge against the flat `u32` merge on one pair, at
/// `level`, sample by sample in alternation; returns the fastest sample of
/// each, in microseconds per merge.
fn chunk_merge_row(level: SimdLevel, a: &[u32], b: &[u32], samples: usize) -> (f64, f64) {
    let (xa, xb) = (
        ArraySet::from_sorted_slice(a),
        ArraySet::from_sorted_slice(b),
    );
    let mut out: Vec<u32> = Vec::with_capacity(a.len().min(b.len()));
    let mut expect: Vec<u32> = Vec::new();
    simd::merge_into_at(SimdLevel::Scalar, a, b, &mut expect);
    let mut sample = |f: &mut dyn FnMut(&mut Vec<u32>)| {
        let start = std::time::Instant::now();
        for _ in 0..MERGES_PER_SAMPLE {
            out.clear();
            f(&mut out);
            std::hint::black_box(&out);
        }
        let us = start.elapsed().as_secs_f64() * 1e6 / MERGES_PER_SAMPLE as f64;
        assert_eq!(out, expect, "a merge diverged");
        us
    };
    let (mut flat, mut chunked) = (f64::MAX, f64::MAX);
    for _ in 0..samples.max(1) {
        flat = flat.min(sample(&mut |out| simd::merge_into_at(level, a, b, out)));
        chunked = chunked.min(sample(&mut |out| xa.intersect_into_at(level, &xb, out)));
    }
    (flat, chunked)
}

struct Row {
    kernel: &'static str,
    scalar_us: f64,
    simd_us: f64,
}

fn main() {
    let args = HarnessArgs::parse("BENCH_simd.json");
    let reps = args.pick(FULL_REPS, SMOKE_REPS);
    let active = SimdLevel::active();
    let mut rng = StdRng::seed_from_u64(fsi_bench::HARNESS_SEED);
    let mut shape_json: Vec<String> = Vec::new();

    println!(
        "SIMD tier: {} (hardware {}), lanes32={}, lanes64={}",
        active.name(),
        SimdLevel::detect().name(),
        active.lanes32(),
        active.lanes64()
    );

    for shape in &SHAPES {
        let a_full = draw_set(&mut rng, shape.n1, shape.universe, shape.zipf);
        let b_full = draw_set(&mut rng, shape.n2, shape.universe, shape.zipf);
        let skip = usize::from(shape.offset);
        let (a, b) = (&a_full.as_slice()[skip..], &b_full.as_slice()[skip..]);
        println!(
            "\n== {} (n1={}, n2={}, universe={}{}) ==",
            shape.name,
            a.len(),
            b.len(),
            shape.universe,
            if shape.offset { ", offset slices" } else { "" }
        );

        // Prepared forms, built outside the timed region on the (possibly
        // offset) slices the timed kernels see.
        let sa = SortedSet::from_sorted_unchecked(a.to_vec());
        let sb = SortedSet::from_sorted_unchecked(b.to_vec());
        let (bm_a, bm_b) = (BitmapSet::build(&sa), BitmapSet::build(&sb));

        let mut expect: Vec<u32> = Vec::new();
        simd::merge_into_at(SimdLevel::Scalar, a, b, &mut expect);

        let mut rows: Vec<Row> = Vec::new();
        // Times one closure at a clamped dispatch level, verifying output.
        let timed = |level: SimdLevel, f: &mut dyn FnMut(&mut Vec<u32>)| -> f64 {
            simd::with_level(level, || {
                let mut out: Vec<u32> = Vec::new();
                let d = min_time(reps, || {
                    out.clear();
                    f(&mut out);
                    out.len()
                });
                out.sort_unstable();
                assert_eq!(out, expect, "kernel diverged on {}", shape.name);
                d.as_secs_f64() * 1e6
            })
        };
        let bench =
            |kernel: &'static str, rows: &mut Vec<Row>, f: &mut dyn FnMut(&mut Vec<u32>)| {
                let scalar_us = timed(SimdLevel::Scalar, f);
                let simd_us = timed(active, f);
                rows.push(Row {
                    kernel,
                    scalar_us,
                    simd_us,
                });
            };

        bench("Merge", &mut rows, &mut |out| simd::merge_into(a, b, out));
        bench("Bitmap", &mut rows, &mut |out| {
            bm_a.intersect_pair_into(&bm_b, out)
        });

        let mut table = Table::new(vec!["kernel", "scalar us", "simd us", "speedup"]);
        let kernel_json: Vec<String> = rows
            .iter()
            .map(|row| {
                let speedup = if row.simd_us > 0.0 {
                    row.scalar_us / row.simd_us
                } else {
                    0.0
                };
                table.row(vec![
                    row.kernel.to_string(),
                    format!("{:.1}", row.scalar_us),
                    format!("{:.1}", row.simd_us),
                    format!("{speedup:.2}x"),
                ]);
                format!(
                    "        {{\"kernel\": \"{}\", \"scalar_us\": {:.2}, \
                     \"simd_us\": {:.2}, \"speedup_vs_scalar\": {speedup:.3}}}",
                    row.kernel, row.scalar_us, row.simd_us
                )
            })
            .collect();
        table.print();

        shape_json.push(format!(
            "    {{\n      \"shape\": \"{}\",\n      \"n1\": {},\n      \"n2\": {},\n      \
             \"universe\": {},\n      \"zipf\": {},\n      \"offset\": {},\n      \"r\": {},\n      \
             \"kernels\": [\n{}\n      ]\n    }}",
            shape.name,
            a.len(),
            b.len(),
            shape.universe,
            shape.zipf,
            shape.offset,
            expect.len(),
            kernel_json.join(",\n")
        ));
    }

    println!(
        "\n== chunked 16-bit merge vs u32 merge ({}) ==",
        active.name()
    );
    let mut table = Table::new(vec!["pair", "u32 us", "u16 us", "time ratio"]);
    let mut chunk_json: Vec<String> = Vec::new();
    for pair in &CHUNK_PAIRS {
        let a = draw_set(&mut rng, pair.n1, CHUNK_UNIVERSE, false);
        let b = draw_set(&mut rng, pair.n2, CHUNK_UNIVERSE, false);
        let (flat_us, chunked_us) = chunk_merge_row(active, a.as_slice(), b.as_slice(), FULL_REPS);
        let ratio = chunked_us / flat_us;
        table.row(vec![
            pair.name.to_string(),
            format!("{flat_us:.2}"),
            format!("{chunked_us:.2}"),
            format!("{ratio:.3}"),
        ]);
        chunk_json.push(format!(
            "    {{\"pair\": \"{}\", \"n1\": {}, \"n2\": {}, \"universe\": {CHUNK_UNIVERSE}, \
             \"u32_us\": {flat_us:.3}, \"u16_us\": {chunked_us:.3}, \"time_ratio\": {ratio:.4}}}",
            pair.name,
            a.len(),
            b.len()
        ));
    }
    table.print();

    let env = fsi_bench::env_json();
    let json = format!(
        "{{\n  \"bench\": \"simd\",\n  \"reps\": {reps},\n  \"smoke\": {},\n  {env},\n  \
         \"active_level\": \"{}\",\n  \"shapes\": [\n{}\n  ],\n  \"chunk_merge\": [\n{}\n  ]\n}}\n",
        args.smoke,
        active.name(),
        shape_json.join(",\n"),
        chunk_json.join(",\n")
    );
    args.write_output(&json);
    println!("\nwrote {}", args.out_path);
}
