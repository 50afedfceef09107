//! Kernel-layer throughput benchmark: the `fsi-kernels` primitives against
//! the scalar merge baseline, on synthetic and Zipf-shaped pairs.
//!
//! Structures are prepared outside the timed region (what a server
//! amortizes across queries); each row reports microseconds per
//! intersection, million input elements scanned per second, and the
//! speedup over the scalar merge on the same pair. Results land in
//! `BENCH_kernels.json` (hand-rolled JSON: the reference environment has
//! no registry access, so no serde).
//!
//! Usage: `cargo run --release -p fsi-bench --bin kernels -- [out.json] [--smoke]`
//! (`--smoke` keeps the shapes but cuts reps — sizes stay identical so the
//! CI regression gate compares like with like).

use fsi_bench::{median_time, HarnessArgs, Table};
use fsi_core::{PairIntersect, SortedSet};
use fsi_kernels::{branchless_merge_into, galloping_into, BitmapSet, Kernel, ScalarMerge};
use fsi_workloads::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FULL_REPS: usize = 15;
const SMOKE_REPS: usize = 3;

/// One benchmark shape: how the operand pair is generated.
struct Shape {
    name: &'static str,
    n1: usize,
    n2: usize,
    universe: u32,
    zipf: bool,
}

const SHAPES: [Shape; 4] = [
    Shape {
        name: "balanced-sparse",
        n1: 100_000,
        n2: 100_000,
        universe: 8_000_000,
        zipf: false,
    },
    Shape {
        name: "balanced-dense",
        n1: 150_000,
        n2: 150_000,
        universe: 1_000_000,
        zipf: false,
    },
    Shape {
        name: "skewed-1:64",
        n1: 4_000,
        n2: 256_000,
        universe: 8_000_000,
        zipf: false,
    },
    Shape {
        name: "zipf-clustered",
        n1: 120_000,
        n2: 120_000,
        universe: 2_000_000,
        zipf: true,
    },
];

/// Draws a set of `n` distinct values: uniform over the universe, or (for
/// Zipf shapes) rank-skewed so values cluster at the low end — dense head,
/// sparse tail, the document-frequency shape real posting lists have.
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

struct Row {
    kernel: &'static str,
    us: f64,
    melems_s: f64,
    speedup: f64,
}

fn main() {
    let args = HarnessArgs::parse("BENCH_kernels.json");
    let reps = args.pick(FULL_REPS, SMOKE_REPS);
    let mut rng = StdRng::seed_from_u64(fsi_bench::HARNESS_SEED);
    let mut shape_json: Vec<String> = Vec::new();

    for shape in &SHAPES {
        let a = draw_set(&mut rng, shape.n1, shape.universe, shape.zipf);
        let b = draw_set(&mut rng, shape.n2, shape.universe, shape.zipf);
        let total = (a.len() + b.len()) as f64;
        println!(
            "\n== {} (n1={}, n2={}, universe={}) ==",
            shape.name,
            a.len(),
            b.len(),
            shape.universe
        );

        // Prepared forms, built outside the timed region.
        let (ba, bb) = (BitmapSet::build(&a), BitmapSet::build(&b));
        let (small, large) = if a.len() <= b.len() {
            (&a, &b)
        } else {
            (&b, &a)
        };

        let mut out: Vec<u32> = Vec::new();
        let mut expect: Vec<u32> = Vec::new();
        ScalarMerge.intersect_pair(a.as_slice(), b.as_slice(), &mut expect);
        let r = expect.len();

        let mut rows: Vec<Row> = Vec::new();
        let mut bench =
            |kernel: &'static str, rows: &mut Vec<Row>, f: &mut dyn FnMut(&mut Vec<u32>)| {
                let d = median_time(reps, || {
                    out.clear();
                    f(&mut out);
                    out.len()
                });
                let mut check = std::mem::take(&mut out);
                check.sort_unstable();
                assert_eq!(check, expect, "kernel {kernel} diverged on {}", shape.name);
                out = check;
                let us = d.as_secs_f64() * 1e6;
                rows.push(Row {
                    kernel,
                    us,
                    melems_s: total / d.as_secs_f64() / 1e6,
                    speedup: 0.0, // filled once the merge row exists
                });
            };

        bench("Merge", &mut rows, &mut |out| {
            ScalarMerge.intersect_pair(a.as_slice(), b.as_slice(), out)
        });
        bench("BranchlessMerge", &mut rows, &mut |out| {
            branchless_merge_into(a.as_slice(), b.as_slice(), out)
        });
        bench("Galloping", &mut rows, &mut |out| {
            galloping_into(small.as_slice(), large.as_slice(), out)
        });
        bench("Bitmap", &mut rows, &mut |out| {
            ba.intersect_pair_into(&bb, out)
        });

        let merge_us = rows[0].us;
        for row in &mut rows {
            row.speedup = if row.us > 0.0 { merge_us / row.us } else { 0.0 };
        }

        let mut table = Table::new(vec!["kernel", "us/op", "Melems/s", "speedup vs Merge"]);
        let kernel_json: Vec<String> = rows
            .iter()
            .map(|row| {
                table.row(vec![
                    row.kernel.to_string(),
                    format!("{:.1}", row.us),
                    format!("{:.1}", row.melems_s),
                    format!("{:.2}x", row.speedup),
                ]);
                format!(
                    "        {{\"kernel\": \"{}\", \"us_per_op\": {:.2}, \
                     \"melems_per_s\": {:.2}, \"speedup_vs_merge\": {:.3}}}",
                    row.kernel, row.us, row.melems_s, row.speedup
                )
            })
            .collect();
        table.print();

        shape_json.push(format!(
            "    {{\n      \"shape\": \"{}\",\n      \"n1\": {},\n      \"n2\": {},\n      \
             \"universe\": {},\n      \"zipf\": {},\n      \"r\": {},\n      \
             \"kernels\": [\n{}\n      ]\n    }}",
            shape.name,
            a.len(),
            b.len(),
            shape.universe,
            shape.zipf,
            r,
            kernel_json.join(",\n")
        ));
    }

    let env = fsi_bench::env_json();
    let json = format!(
        "{{\n  \"bench\": \"kernels\",\n  \"reps\": {reps},\n  \"smoke\": {},\n  {env},\n  \
         \"shapes\": [\n{}\n  ]\n}}\n",
        args.smoke,
        shape_json.join(",\n")
    );
    args.write_output(&json);
    println!("\nwrote {}", args.out_path);
}
