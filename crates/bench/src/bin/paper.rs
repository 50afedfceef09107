//! `paper` — regenerates every figure and table of "Fast Set Intersection in
//! Memory" (VLDB 2011).
//!
//! ```text
//! cargo run --release -p fsi-bench --bin paper -- <experiment> [options]
//!
//! experiments:
//!   fig4        intersection time vs. set size (2 sets, r = 1%)
//!   fig5        intersection time vs. intersection size (crossover plot)
//!   ratio       intersection time vs. set-size ratio (Section 4 text)
//!   fig6        intersection time vs. number of keywords k = 2,3,4
//!   space       structure sizes vs. uncompressed posting lists
//!   fig7        real-workload normalized times + best-algorithm shares
//!   fig8        compressed variants: time and space vs. set size
//!   fig9        word-filtering probability vs. m (+ Lemma A.1/A.3 theory)
//!   fig10       preprocessing time vs. set size (uncompressed)
//!   fig11       preprocessing time vs. set size (compressed)
//!   fig12       fig7 broken down by keyword count
//!   compressed_real  compressed variants on the real workload (+ tail latency)
//!   intro_stat  the introduction's Bing-Shopping statistic
//!   ablation_group_size  sweep IntGroup width / RanGroupScan level offset
//!   ablation_m  sweep RanGroupScan hash-image count m
//!   all         everything above, in order
//!
//! options:
//!   --scale N    divide the paper's set sizes by N (default 8; 1 = paper scale)
//!   --reps N     timing repetitions per point (default 3)
//!   --queries N  query count for workload experiments (default 60)
//!   --seed N     harness seed
//!   --smoke      CI mode: scale >= 64, 1 rep, few queries; experiment
//!                defaults to `all` — proves every path runs, times nothing
//! ```

use fsi_bench::{fmt_ms, median_time, ms, run_strategy, Table, HARNESS_SEED};
use fsi_compress::{CompressedPostings, CompressedRgsIndex, EliasCode, GroupCoding};
use fsi_core::elem::SortedSet;
use fsi_core::hash::HashContext;
use fsi_core::traits::SetIndex;
use fsi_core::{filtering_stats, HashBinIndex, IntGroupIndex, RanGroupIndex, RanGroupScanIndex};
use fsi_index::strategy::{intersect_into, PreparedList, Strategy};
use fsi_workloads::querylog::{self, QueryLogConfig, WorkloadProfile};
use fsi_workloads::synthetic::{k_sets_uniform, pair_with_intersection};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use std::time::Duration;

#[derive(Debug, Clone)]
struct Opts {
    scale: usize,
    reps: usize,
    queries: usize,
    seed: u64,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            scale: 8,
            reps: 3,
            queries: 60,
            seed: HARNESS_SEED,
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment = String::new();
    let mut opts = Opts::default();
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => opts.scale = parse_num(it.next(), "--scale"),
            "--reps" => opts.reps = parse_num(it.next(), "--reps"),
            "--queries" => opts.queries = parse_num(it.next(), "--queries"),
            "--seed" => opts.seed = parse_num(it.next(), "--seed") as u64,
            "--smoke" => smoke = true,
            other if experiment.is_empty() && !other.starts_with('-') => {
                experiment = other.to_string();
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    if smoke {
        // CI mode: prove every experiment's code path end-to-end at a
        // fraction of the paper's sizes. Defaults to the full experiment
        // list; an explicit experiment narrows it.
        opts.scale = opts.scale.max(64);
        opts.reps = 1;
        opts.queries = opts.queries.min(12);
        if experiment.is_empty() {
            experiment = "all".to_string();
        }
        println!(
            "paper --smoke: scale 1/{}, reps {}, queries {}",
            opts.scale, opts.reps, opts.queries
        );
    }
    if experiment.is_empty() {
        eprintln!("usage: paper <experiment> [--scale N] [--reps N] [--queries N] [--smoke]");
        eprintln!("run `paper all` for the full suite; see the source header for the list");
        std::process::exit(2);
    }
    run(&experiment, &opts);
}

fn parse_num(v: Option<&String>, flag: &str) -> usize {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} needs a numeric argument");
        std::process::exit(2);
    })
}

fn run(experiment: &str, opts: &Opts) {
    match experiment {
        "fig4" => fig4(opts),
        "fig5" => fig5(opts),
        "ratio" => ratio(opts),
        "fig6" => fig6(opts),
        "space" => space(opts),
        "fig7" => fig7(opts),
        "fig8" => fig8(opts),
        "fig9" => fig9(opts),
        "fig10" => fig10(opts),
        "fig11" => fig11(opts),
        "fig12" => fig12(opts),
        "compressed_real" => compressed_real(opts),
        "intro_stat" => intro_stat(opts),
        "ablation_group_size" => ablation_group_size(opts),
        "ablation_m" => ablation_m(opts),
        "ablation_bucket_width" => ablation_bucket_width(opts),
        "planner_eval" => planner_eval(opts),
        "verify" => verify(opts),
        "all" => {
            for e in [
                "intro_stat",
                "fig4",
                "fig5",
                "ratio",
                "fig6",
                "space",
                "fig7",
                "fig12",
                "fig8",
                "compressed_real",
                "fig9",
                "fig10",
                "fig11",
                "ablation_group_size",
                "ablation_m",
                "ablation_bucket_width",
                "planner_eval",
            ] {
                run(e, opts);
                println!();
            }
        }
        other => {
            eprintln!("unknown experiment: {other}");
            std::process::exit(2);
        }
    }
}

fn ctx(opts: &Opts) -> HashContext {
    HashContext::with_family_size(opts.seed, 8)
}

fn header(title: &str, opts: &Opts) {
    println!("== {title} (scale 1/{}, reps {}) ==", opts.scale, opts.reps);
}

/// Times one lineup over one set collection, appending a table row.
fn lineup_row(
    table: &mut Table,
    label: String,
    lineup: &[Strategy],
    ctx: &HashContext,
    sets: &[&SortedSet],
    reps: usize,
) {
    let mut cells = vec![label];
    for &s in lineup {
        let (d, _, _) = run_strategy(s, ctx, sets, reps);
        cells.push(fmt_ms(ms(d)));
    }
    table.row(cells);
}

// ---------------------------------------------------------------- fig4

fn fig4(opts: &Opts) {
    header(
        "Figure 4: varying the set size (2 sets, equal size, r = 1%)",
        opts,
    );
    let ctx = ctx(opts);
    let lineup = [
        Strategy::Merge,
        Strategy::SkipList,
        Strategy::Hash,
        Strategy::Bpp,
        Strategy::Adaptive,
        Strategy::Lookup,
        Strategy::IntGroup,
        Strategy::RanGroup,
        Strategy::RanGroupScan { m: 4 },
    ];
    let mut t = Table::new(
        std::iter::once("set size".to_string())
            .chain(lineup.iter().map(|s| s.name()))
            .collect::<Vec<_>>(),
    );
    let mut rng = StdRng::seed_from_u64(opts.seed);
    for step in 1..=10usize {
        let n = step * 1_000_000 / opts.scale;
        let r = n / 100;
        let (a, b) = pair_with_intersection(&mut rng, n, n, r, universe_for(2 * n));
        lineup_row(&mut t, format!("{n}"), &lineup, &ctx, &[&a, &b], opts.reps);
    }
    t.print();
    println!("(paper: RanGroupScan 40-50% faster than Merge; Hash/SkipList/BPP slowest; ordering stable in n)");
}

/// A universe comfortably larger than the data (paper: uniform IDs).
fn universe_for(total: usize) -> u64 {
    ((total as u64) * 20).max(1 << 20)
}

// ---------------------------------------------------------------- fig5

fn fig5(opts: &Opts) {
    header(
        "Figure 5: varying the intersection size (2 sets of 10M)",
        opts,
    );
    let ctx = ctx(opts);
    let n = 10_000_000 / opts.scale;
    let lineup = [
        Strategy::Merge,
        Strategy::SkipList,
        Strategy::Hash,
        Strategy::Adaptive,
        Strategy::Svs,
        Strategy::Lookup,
        Strategy::IntGroup,
        Strategy::RanGroup,
        Strategy::RanGroupScan { m: 4 },
    ];
    let mut t = Table::new(
        std::iter::once("r/n".to_string())
            .chain(lineup.iter().map(|s| s.name()))
            .collect::<Vec<_>>(),
    );
    let mut rng = StdRng::seed_from_u64(opts.seed);
    for r_frac in [0.00005, 0.01, 0.1, 0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0] {
        let r = ((n as f64) * r_frac) as usize;
        let (a, b) = pair_with_intersection(&mut rng, n, n, r, universe_for(2 * n));
        lineup_row(
            &mut t,
            format!("{r_frac:.2}"),
            &lineup,
            &ctx,
            &[&a, &b],
            opts.reps,
        );
    }
    t.print();
    println!("(paper: RanGroupScan/IntGroup best for r < 0.7n; Merge best beyond, RanGroupScan 2nd and close)");
}

// ---------------------------------------------------------------- ratio

fn ratio(opts: &Opts) {
    header("Size-ratio experiment (|L2| = 10M, r = 1% of |L1|)", opts);
    let ctx = ctx(opts);
    let n2 = 10_000_000 / opts.scale;
    let lineup = [
        Strategy::Merge,
        Strategy::Hash,
        Strategy::Lookup,
        Strategy::Svs,
        Strategy::Adaptive,
        Strategy::SmallAdaptive,
        Strategy::BaezaYates,
        Strategy::IntGroupOpt,
        Strategy::RanGroupScan { m: 4 },
        Strategy::HashBin,
        Strategy::Auto,
    ];
    let mut t = Table::new(
        std::iter::once("sr".to_string())
            .chain(lineup.iter().map(|s| s.name()))
            .chain(std::iter::once("winner".to_string()))
            .collect::<Vec<_>>(),
    );
    let mut rng = StdRng::seed_from_u64(opts.seed);
    for sr in [1usize, 2, 8, 32, 100, 200, 625] {
        let n1 = (n2 / sr).max(16);
        let r = (n1 / 100).max(1);
        let (a, b) = pair_with_intersection(&mut rng, n1, n2, r, universe_for(n1 + n2));
        let mut cells = vec![format!("{sr}")];
        let mut best = (f64::INFINITY, String::new());
        for &s in &lineup {
            let (d, _, _) = run_strategy(s, &ctx, &[&a, &b], opts.reps);
            let v = ms(d);
            if v < best.0 {
                best = (v, s.name());
            }
            cells.push(fmt_ms(v));
        }
        cells.push(best.1);
        t.row(cells);
    }
    t.print();
    println!("(paper: RanGroupScan best for sr<32; Lookup/Hash for 32≤sr<100; Hash for sr≥100, then Lookup and HashBin; HashBin/RanGroupScan always close to the winner)");
}

// ---------------------------------------------------------------- fig6

fn fig6(opts: &Opts) {
    header(
        "Figure 6: varying the number of keywords (|Li| = 10M, uniform IDs)",
        opts,
    );
    let ctx = ctx(opts);
    let n = 10_000_000 / opts.scale;
    let universe = (200_000_000 / opts.scale) as u64;
    let lineup = [
        Strategy::Merge,
        Strategy::SkipList,
        Strategy::Hash,
        Strategy::Lookup,
        Strategy::Adaptive,
        Strategy::Svs,
        Strategy::SmallAdaptive,
        Strategy::BaezaYates,
        Strategy::RanGroup,
        Strategy::RanGroupScan { m: 2 },
    ];
    let mut t = Table::new(
        std::iter::once("k".to_string())
            .chain(lineup.iter().map(|s| s.name()))
            .collect::<Vec<_>>(),
    );
    let mut rng = StdRng::seed_from_u64(opts.seed);
    for k in 2..=4usize {
        let sets = k_sets_uniform(&mut rng, k, n, universe);
        let refs: Vec<&SortedSet> = sets.iter().collect();
        lineup_row(&mut t, format!("{k}"), &lineup, &ctx, &refs, opts.reps);
    }
    t.print();
    println!("(paper: RanGroupScan fastest, lead grows with k; RanGroup next; Merge beats the sophisticated baselines)");
}

// ---------------------------------------------------------------- space

fn space(opts: &Opts) {
    header(
        "Structure sizes (Section 4 'Size of the Data Structure')",
        opts,
    );
    let ctx = ctx(opts);
    let n = 4_000_000 / opts.scale;
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let (a, _) = pair_with_intersection(&mut rng, n, n, n / 100, universe_for(2 * n));
    let base = n * 4; // uncompressed posting list, 4 bytes per ID
    let mut t = Table::new(vec![
        "structure",
        "bytes",
        "overhead vs posting list",
        "paper",
    ]);
    let entries: Vec<(String, usize, &str)> = vec![
        ("posting list (Merge)".into(), base, "—"),
        (
            "IntGroup".into(),
            IntGroupIndex::build(&ctx, &a).size_in_bytes(),
            "+75%",
        ),
        (
            "RanGroup".into(),
            RanGroupIndex::build(&ctx, &a).size_in_bytes(),
            "+87% (64-bit words)",
        ),
        (
            "RanGroupScan(m=2)".into(),
            RanGroupScanIndex::with_m(&ctx, &a, 2).size_in_bytes(),
            "+37% (64-bit words)",
        ),
        (
            "RanGroupScan(m=4)".into(),
            RanGroupScanIndex::with_m(&ctx, &a, 4).size_in_bytes(),
            "+63% (64-bit words)",
        ),
    ];
    for (name, bytes, paper) in entries {
        let overhead = bytes as f64 / base as f64 - 1.0;
        t.row(vec![
            name,
            format!("{bytes}"),
            format!("{:+.0}%", overhead * 100.0),
            paper.to_string(),
        ]);
    }
    t.print();
    println!("(the paper counted one machine word per element; with 4-byte IDs the m hash words weigh relatively more)");
}

// ---------------------------------------------------------------- fig7 / fig12

struct WorkloadRun {
    lineup: Vec<Strategy>,
    /// per query: (k, per-strategy median ms)
    times: Vec<(usize, Vec<f64>)>,
}

fn run_workload(opts: &Opts, lineup: Vec<Strategy>) -> WorkloadRun {
    let ctx = ctx(opts);
    let cfg = QueryLogConfig {
        num_queries: opts.queries,
        scale: opts.scale,
        // A dense document space, as in the paper's 8M-page corpus: 8x the
        // longest posting list the model can emit.
        universe: (64_000_000 / opts.scale as u64).max(1 << 22),
        seed: opts.seed,
        profile: WorkloadProfile::WebSearch,
    };
    let plans = querylog::plan(&cfg);
    let mut times = Vec::with_capacity(plans.len());
    for p in &plans {
        let q = p.materialize(cfg.universe);
        let refs: Vec<&SortedSet> = q.sets.iter().collect();
        let row: Vec<f64> = lineup
            .iter()
            .map(|&s| ms(run_strategy(s, &ctx, &refs, opts.reps).0))
            .collect();
        times.push((q.k(), row));
    }
    WorkloadRun { lineup, times }
}

fn workload_lineup() -> Vec<Strategy> {
    vec![
        Strategy::Merge,
        Strategy::SkipList,
        Strategy::Hash,
        Strategy::Bpp,
        Strategy::Lookup,
        Strategy::Svs,
        Strategy::Adaptive,
        Strategy::BaezaYates,
        Strategy::SmallAdaptive,
        Strategy::IntGroup,
        Strategy::RanGroup,
        Strategy::RanGroupScan { m: 4 },
        Strategy::HashBin,
        Strategy::Auto,
    ]
}

fn print_normalized(run: &WorkloadRun, filter_k: Option<usize>) {
    let merge_col = run
        .lineup
        .iter()
        .position(|s| *s == Strategy::Merge)
        .expect("Merge in lineup");
    let mut t = Table::new(vec!["algorithm", "normalized time (Merge = 1)", "best on"]);
    let rows: Vec<&(usize, Vec<f64>)> = run
        .times
        .iter()
        .filter(|(k, _)| filter_k.is_none_or(|want| *k == want))
        .collect();
    if rows.is_empty() {
        println!("(no queries with this keyword count in the sample)");
        return;
    }
    let mut wins = vec![0usize; run.lineup.len()];
    for (_, row) in &rows {
        let best = row
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .expect("non-empty")
            .0;
        wins[best] += 1;
    }
    for (i, s) in run.lineup.iter().enumerate() {
        let norm: f64 = rows
            .iter()
            .map(|(_, row)| row[i] / row[merge_col].max(1e-9))
            .sum::<f64>()
            / rows.len() as f64;
        t.row(vec![
            s.name(),
            format!("{norm:.3}"),
            format!("{:.1}%", 100.0 * wins[i] as f64 / rows.len() as f64),
        ]);
    }
    t.print();
}

fn fig7(opts: &Opts) {
    header("Figure 7: real workload, normalized execution time", opts);
    let run = run_workload(opts, workload_lineup());
    print_normalized(&run, None);
    println!("(paper: RanGroupScan best overall — winner on 61.6% of queries, then RanGroup 16%, HashBin 7.7%; Lookup 6.4%, SvS 3.6%)");
}

fn fig12(opts: &Opts) {
    header(
        "Figure 12: real workload broken down by keyword count",
        opts,
    );
    let run = run_workload(opts, workload_lineup());
    for k in 2..=4usize {
        println!("-- {k}-keyword queries --");
        print_normalized(&run, Some(k));
    }
    println!("(paper: Merge degrades with k; Hash improves but stays near-worst; RanGroup edges RanGroupScan at k=4)");
}

// ---------------------------------------------------------------- fig8

fn fig8(opts: &Opts) {
    header("Figure 8: compressed structures, time and space", opts);
    let ctx = ctx(opts);
    let lineup = [
        Strategy::MergeCompressed(EliasCode::Delta),
        Strategy::LookupCompressed(EliasCode::Delta),
        Strategy::RgsCompressed(GroupCoding::Lowbits),
        Strategy::RgsCompressed(GroupCoding::Elias(EliasCode::Delta)),
        Strategy::Merge, // uncompressed reference
    ];
    let mut time_t = Table::new(
        std::iter::once("postings".to_string())
            .chain(lineup.iter().map(|s| s.name()))
            .collect::<Vec<_>>(),
    );
    let mut space_t = Table::new(
        std::iter::once("postings".to_string())
            .chain(lineup.iter().map(|s| s.name()))
            .collect::<Vec<_>>(),
    );
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let scale = opts.scale.min(8);
    let mut n = 131_072 / scale;
    while n <= 8_388_608 / scale {
        let r = n / 100;
        let (a, b) = pair_with_intersection(&mut rng, n, n, r, universe_for(2 * n));
        let mut time_cells = vec![format!("{n}")];
        let mut space_cells = vec![format!("{n}")];
        for &s in &lineup {
            let (d, _, bytes) = run_strategy(s, &ctx, &[&a, &b], opts.reps);
            time_cells.push(fmt_ms(ms(d)));
            space_cells.push(format!("{}", bytes / 8)); // words, as the paper plots
        }
        time_t.row(time_cells);
        space_t.row(space_cells);
        n *= 2;
    }
    println!("-- intersection time (ms) --");
    time_t.print();
    println!("-- structure size (64-bit words, both sets) --");
    space_t.print();
    println!("(paper: RanGroupScan_Lowbits 7.6-15x faster than compressed Merge at 1.3-1.9x its size; γ ≈ δ for the baselines)");
}

// ---------------------------------------------------------------- compressed_real

fn compressed_real(opts: &Opts) {
    header(
        "Compressed variants on the real workload (Section 4.1)",
        opts,
    );
    let lineup = vec![
        Strategy::MergeCompressed(EliasCode::Delta),
        Strategy::MergeCompressed(EliasCode::Gamma),
        Strategy::LookupCompressed(EliasCode::Delta),
        Strategy::LookupCompressed(EliasCode::Gamma),
        Strategy::RgsCompressed(GroupCoding::Lowbits),
        Strategy::Merge,
    ];
    let run = run_workload(opts, lineup.clone());
    let low_col = lineup
        .iter()
        .position(|s| *s == Strategy::RgsCompressed(GroupCoding::Lowbits))
        .expect("lowbits in lineup");
    let mean_low: f64 =
        run.times.iter().map(|(_, row)| row[low_col]).sum::<f64>() / run.times.len() as f64;
    let worst_low = run
        .times
        .iter()
        .map(|(_, row)| row[low_col])
        .fold(0.0f64, f64::max);
    let mut t = Table::new(vec![
        "algorithm",
        "mean time / Lowbits",
        "worst-case latency / Lowbits",
        "paper (mean)",
    ]);
    let paper_mean = ["8.4x", "9.1x", "5.7x", "6.2x", "1x", "—"];
    for (i, s) in lineup.iter().enumerate() {
        let mean: f64 =
            run.times.iter().map(|(_, row)| row[i]).sum::<f64>() / run.times.len() as f64;
        let worst = run
            .times
            .iter()
            .map(|(_, row)| row[i])
            .fold(0.0f64, f64::max);
        t.row(vec![
            s.name(),
            format!("{:.2}x", mean / mean_low),
            format!("{:.2}x", worst / worst_low),
            paper_mean[i].to_string(),
        ]);
    }
    t.print();
    println!(
        "(paper also reports worst-case latency 4.4-5.6x higher for the compressed baselines)"
    );
}

// ---------------------------------------------------------------- fig9

fn fig9(opts: &Opts) {
    header("Figure 9: probability of successful filtering vs. m", opts);
    let ctx = HashContext::with_family_size(opts.seed, 8);
    let m_max = 8usize;
    // Synthetic: the Figure 4 workload (r = 1%).
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let n = 1_000_000 / opts.scale;
    let (a, b) = pair_with_intersection(&mut rng, n, n, n / 100, universe_for(2 * n));
    let ia = RanGroupScanIndex::with_m(&ctx, &a, m_max);
    let ib = RanGroupScanIndex::with_m(&ctx, &b, m_max);
    let syn = filtering_stats(&[&ia, &ib], m_max);
    // "Real": 2-keyword queries from the workload model.
    let cfg = QueryLogConfig {
        num_queries: opts.queries.min(30),
        scale: opts.scale,
        universe: (64_000_000 / opts.scale as u64).max(1 << 22),
        seed: opts.seed,
        profile: WorkloadProfile::WebSearch,
    };
    let mut real_empty = 0u64;
    let mut real_filtered = vec![0u64; m_max];
    for p in querylog::plan(&cfg).iter().filter(|p| p.k() == 2) {
        let q = p.materialize(cfg.universe);
        let idx: Vec<RanGroupScanIndex> = q
            .sets
            .iter()
            .map(|s| RanGroupScanIndex::with_m(&ctx, s, m_max))
            .collect();
        let refs: Vec<&RanGroupScanIndex> = idx.iter().collect();
        let st = filtering_stats(&refs, m_max);
        real_empty += st.empty_tuples;
        for (acc, v) in real_filtered.iter_mut().zip(&st.filtered_by_m) {
            *acc += v;
        }
    }
    let p1_theory = (1.0 - 1.0 / 8.0f64).powi(8); // Lemma A.1, w = 64
    let mut t = Table::new(vec![
        "m",
        "measured (synthetic)",
        "measured (query log)",
        "theory >= 1-(1-0.3436)^m",
    ]);
    for m in [1usize, 2, 4, 6, 8] {
        let syn_p = syn.probability(m);
        let real_p = if real_empty == 0 {
            1.0
        } else {
            real_filtered[m - 1] as f64 / real_empty as f64
        };
        let theory = 1.0 - (1.0 - p1_theory).powi(m as i32);
        t.row(vec![
            format!("{m}"),
            format!("{syn_p:.3}"),
            format!("{real_p:.3}"),
            format!("{theory:.3}"),
        ]);
    }
    t.print();
    println!("(paper: measured probabilities exceed the Lemma A.1/A.3 lower bounds and are similar on both datasets)");
}

// ---------------------------------------------------------------- fig10 / fig11

fn preprocessing_sets(opts: &Opts) -> Vec<(usize, Vec<u32>)> {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    (1..=5usize)
        .map(|step| {
            let n = step * 2_000_000 / opts.scale;
            let mut v = fsi_workloads::sample_distinct(&mut rng, n, universe_for(n));
            v.shuffle(&mut rng); // builders receive unsorted input; sorting is part of the cost
            (n, v)
        })
        .collect()
}

fn time_build<T>(reps: usize, f: impl Fn() -> T) -> Duration {
    median_time(reps, &f)
}

fn fig10(opts: &Opts) {
    header(
        "Figure 10: preprocessing overhead (uncompressed structures)",
        opts,
    );
    let ctx = ctx(opts);
    let mut t = Table::new(vec![
        "set size",
        "Sorting",
        "HashBin",
        "IntGroup",
        "RanGroup",
        "RanGroupScan(m=4)",
    ]);
    for (n, raw) in preprocessing_sets(opts) {
        let sort_d = time_build(opts.reps, || {
            let mut v = raw.clone();
            v.sort_unstable();
            v
        });
        let sorted = SortedSet::from_unsorted(raw.clone());
        let hashbin_d = time_build(opts.reps, || HashBinIndex::build(&ctx, &sorted));
        let intgroup_d = time_build(opts.reps, || IntGroupIndex::build(&ctx, &sorted));
        let rangroup_d = time_build(opts.reps, || RanGroupIndex::build(&ctx, &sorted));
        let rgs_d = time_build(opts.reps, || RanGroupScanIndex::with_m(&ctx, &sorted, 4));
        t.row(vec![
            format!("{n}"),
            fmt_ms(ms(sort_d)),
            fmt_ms(ms(sort_d) + ms(hashbin_d)),
            fmt_ms(ms(sort_d) + ms(intgroup_d)),
            fmt_ms(ms(sort_d) + ms(rangroup_d)),
            fmt_ms(ms(sort_d) + ms(rgs_d)),
        ]);
    }
    t.print();
    println!("(columns include the sort, as in the paper; extra construction cost is a small multiple of sorting)");
}

fn fig11(opts: &Opts) {
    header(
        "Figure 11: preprocessing overhead (compressed structures)",
        opts,
    );
    let ctx = ctx(opts);
    let mut t = Table::new(vec![
        "set size",
        "Sorting",
        "RanGroupScan_Lowbits",
        "RanGroupScan_Gamma",
        "RanGroupScan_Delta",
        "Merge_Gamma",
        "Merge_Delta",
    ]);
    for (n, raw) in preprocessing_sets(opts) {
        let sort_d = time_build(opts.reps, || {
            let mut v = raw.clone();
            v.sort_unstable();
            v
        });
        let sorted = SortedSet::from_unsorted(raw.clone());
        let lowbits = time_build(opts.reps, || {
            CompressedRgsIndex::build(&ctx, &sorted, GroupCoding::Lowbits)
        });
        let rgs_gamma = time_build(opts.reps, || {
            CompressedRgsIndex::build(&ctx, &sorted, GroupCoding::Elias(EliasCode::Gamma))
        });
        let rgs_delta = time_build(opts.reps, || {
            CompressedRgsIndex::build(&ctx, &sorted, GroupCoding::Elias(EliasCode::Delta))
        });
        let merge_gamma = time_build(opts.reps, || {
            CompressedPostings::build(EliasCode::Gamma, &sorted)
        });
        let merge_delta = time_build(opts.reps, || {
            CompressedPostings::build(EliasCode::Delta, &sorted)
        });
        t.row(vec![
            format!("{n}"),
            fmt_ms(ms(sort_d)),
            fmt_ms(ms(sort_d) + ms(lowbits)),
            fmt_ms(ms(sort_d) + ms(rgs_gamma)),
            fmt_ms(ms(sort_d) + ms(rgs_delta)),
            fmt_ms(ms(sort_d) + ms(merge_gamma)),
            fmt_ms(ms(sort_d) + ms(merge_delta)),
        ]);
    }
    t.print();
    println!("(paper: Lowbits construction is significantly cheaper than the γ/δ alternatives)");
}

// ---------------------------------------------------------------- intro_stat

fn intro_stat(opts: &Opts) {
    header("Introduction statistic: Bing Shopping workload", opts);
    let cfg = QueryLogConfig {
        num_queries: 10_000,
        scale: opts.scale,
        universe: 1 << 31,
        seed: opts.seed,
        profile: WorkloadProfile::Shopping,
    };
    let plans = querylog::plan(&cfg);
    let stats = querylog::measure(&plans);
    let mut t = Table::new(vec!["statistic", "measured", "paper"]);
    t.row(vec![
        "queries with r <= n1/10".to_string(),
        format!("{:.1}%", stats.frac_r_le_tenth * 100.0),
        "94%".to_string(),
    ]);
    t.row(vec![
        "queries with r <= n1/100".to_string(),
        format!("{:.1}%", stats.frac_r_le_hundredth * 100.0),
        "76%".to_string(),
    ]);
    t.print();
}

// ---------------------------------------------------------------- ablations

fn ablation_group_size(opts: &Opts) {
    header("Ablation: group size (Appendix A.1.1)", opts);
    let ctx = ctx(opts);
    let n = 2_000_000 / opts.scale;
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let (a, b) = pair_with_intersection(&mut rng, n, n, n / 100, universe_for(2 * n));
    let mut t = Table::new(vec!["IntGroup width s", "time (ms)"]);
    for s in [2usize, 4, 8, 16, 32, 64] {
        let ia = IntGroupIndex::with_group_size(&ctx, &a, s);
        let ib = IntGroupIndex::with_group_size(&ctx, &b, s);
        let mut out = Vec::new();
        let d = median_time(opts.reps, || {
            out.clear();
            ia.intersect_pair_into(&ib, &mut out);
            out.len()
        });
        t.row(vec![format!("{s}"), fmt_ms(ms(d))]);
    }
    t.print();
    println!("(theory: s = sqrt(w) = 8 balances group-pair count against hash collisions)");

    // Theorem 3.4 payoff: optimal unequal widths vs fixed sqrt(w) on skew.
    let mut t = Table::new(vec!["sr", "IntGroup (s=8)", "IntGroupOpt (Thm 3.4)"]);
    for sr in [1usize, 8, 64, 512] {
        let n1 = (n / sr).max(16);
        let (a, b) =
            pair_with_intersection(&mut rng, n1, n, (n1 / 100).max(1), universe_for(n1 + n));
        let ia = IntGroupIndex::build(&ctx, &a);
        let ib = IntGroupIndex::build(&ctx, &b);
        let oa = fsi_core::IntGroupOptIndex::build(&ctx, &a);
        let ob = fsi_core::IntGroupOptIndex::build(&ctx, &b);
        let mut out = Vec::new();
        let d_fixed = median_time(opts.reps, || {
            out.clear();
            ia.intersect_pair_into(&ib, &mut out);
            out.len()
        });
        let d_opt = median_time(opts.reps, || {
            out.clear();
            fsi_core::traits::PairIntersect::intersect_pair_into(&oa, &ob, &mut out);
            out.len()
        });
        t.row(vec![
            format!("{sr}"),
            fmt_ms(ms(d_fixed)),
            fmt_ms(ms(d_opt)),
        ]);
    }
    t.print();
    println!("(Appendix A.1.1: optimal widths s* = sqrt(w*n1/n2) pay off as the size ratio grows)");

    let mut t = Table::new(vec!["RanGroupScan level offset", "groups", "time (ms)"]);
    let base_t = fsi_core::partition_level(n);
    for offset in -2i32..=2 {
        let t_level = (base_t as i32 + offset).clamp(0, 31) as u32;
        let ia = RanGroupScanIndex::with_m_and_level(&ctx, &a, 2, t_level);
        let ib = RanGroupScanIndex::with_m_and_level(&ctx, &b, 2, t_level);
        let mut out = Vec::new();
        let d = median_time(opts.reps, || {
            out.clear();
            fsi_core::traits::PairIntersect::intersect_pair_into(&ia, &ib, &mut out);
            out.len()
        });
        t.row(vec![
            format!("{offset:+}"),
            format!("2^{t_level}"),
            fmt_ms(ms(d)),
        ]);
    }
    t.print();
}

fn ablation_m(opts: &Opts) {
    header("Ablation: number of hash images m (Section 3.3)", opts);
    let ctx = HashContext::with_family_size(opts.seed, 8);
    let n = 2_000_000 / opts.scale;
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let (a, b) = pair_with_intersection(&mut rng, n, n, n / 1000, universe_for(2 * n));
    let four: Vec<SortedSet> = k_sets_uniform(&mut rng, 4, n, universe_for(4 * n));
    let mut t = Table::new(vec![
        "m",
        "2-set time (ms)",
        "4-set time (ms)",
        "bytes/elem",
    ]);
    for m in [1usize, 2, 4, 6, 8] {
        let ia = RanGroupScanIndex::with_m(&ctx, &a, m);
        let ib = RanGroupScanIndex::with_m(&ctx, &b, m);
        let mut out = Vec::new();
        let d2 = median_time(opts.reps, || {
            out.clear();
            fsi_core::traits::PairIntersect::intersect_pair_into(&ia, &ib, &mut out);
            out.len()
        });
        let idx4: Vec<RanGroupScanIndex> = four
            .iter()
            .map(|s| RanGroupScanIndex::with_m(&ctx, s, m))
            .collect();
        let refs4: Vec<&RanGroupScanIndex> = idx4.iter().collect();
        let d4 = median_time(opts.reps, || {
            out.clear();
            fsi_core::traits::KIntersect::intersect_k_into(&refs4, &mut out);
            out.len()
        });
        t.row(vec![
            format!("{m}"),
            fmt_ms(ms(d2)),
            fmt_ms(ms(d4)),
            format!("{:.2}", ia.size_in_bytes() as f64 / n as f64),
        ]);
    }
    t.print();
    println!("(more images filter more empty groups but cost m word-ANDs per tuple and m words per group)");
}

fn ablation_bucket_width(opts: &Opts) {
    header(
        "Ablation: Lookup bucket width B (Section 4: 'B = 32 ... best value')",
        opts,
    );
    let n = 2_000_000 / opts.scale;
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let (a, b) = pair_with_intersection(&mut rng, n, n, n / 100, universe_for(2 * n));
    let (s1, s2) = pair_with_intersection(&mut rng, n / 100, n, n / 10_000, universe_for(n));
    let mut t = Table::new(vec![
        "B",
        "balanced (ms)",
        "skewed 1:100 (ms)",
        "dir bytes/elem",
    ]);
    for log2b in [2u32, 3, 4, 5, 6, 7, 8] {
        let ia = fsi_baselines::LookupIndex::with_bucket_log2(&a, log2b);
        let ib = fsi_baselines::LookupIndex::with_bucket_log2(&b, log2b);
        let mut out = Vec::new();
        let d_bal = median_time(opts.reps, || {
            out.clear();
            fsi_core::traits::PairIntersect::intersect_pair_into(&ia, &ib, &mut out);
            out.len()
        });
        let ja = fsi_baselines::LookupIndex::with_bucket_log2(&s1, log2b);
        let jb = fsi_baselines::LookupIndex::with_bucket_log2(&s2, log2b);
        let d_skew = median_time(opts.reps, || {
            out.clear();
            fsi_core::traits::PairIntersect::intersect_pair_into(&ja, &jb, &mut out);
            out.len()
        });
        let dir_per_elem = (ia.size_in_bytes() as f64 - (ia.n() * 4) as f64) / ia.n() as f64;
        t.row(vec![
            format!("{}", 1u32 << log2b),
            fmt_ms(ms(d_bal)),
            fmt_ms(ms(d_skew)),
            format!("{dir_per_elem:.2}"),
        ]);
    }
    t.print();
    println!("(small B: directory dominates; large B: in-bucket merges dominate; the paper and [21] land on B = 32)");
}

fn planner_eval(opts: &Opts) {
    header(
        "Planner: per-query physical-plan choice vs fixed strategies",
        opts,
    );
    let ctx = ctx(opts);
    let cfg = QueryLogConfig {
        num_queries: opts.queries,
        scale: opts.scale,
        universe: (64_000_000 / opts.scale as u64).max(1 << 22),
        seed: opts.seed,
        profile: WorkloadProfile::WebSearch,
    };
    let planner = fsi_index::Planner::default();
    let (mut t_planner, mut t_rgs, mut t_hash, mut t_merge) = (0f64, 0f64, 0f64, 0f64);
    let mut plans = [0usize; 5];
    for p in querylog::plan(&cfg) {
        let q = p.materialize(cfg.universe);
        let lists: Vec<fsi_index::PlannedList> = q
            .sets
            .iter()
            .map(|s| fsi_index::PlannedList::build(&ctx, s))
            .collect();
        let refs: Vec<&fsi_index::PlannedList> = lists.iter().collect();
        let mut out = Vec::new();
        let d = median_time(opts.reps, || {
            out.clear();
            let plan = planner.intersect(&refs, &mut out);
            (plan, out.len())
        });
        t_planner += ms(d);
        match planner
            .plan_for_sets(&q.sets.iter().collect::<Vec<_>>())
            .kind
        {
            fsi_index::PlanKind::RanGroupScan => plans[0] += 1,
            fsi_index::PlanKind::HashProbe => plans[1] += 1,
            fsi_index::PlanKind::BitmapAnd => plans[2] += 1,
            fsi_index::PlanKind::GallopProbe => plans[3] += 1,
            _ => plans[4] += 1,
        }
        let sets: Vec<&SortedSet> = q.sets.iter().collect();
        t_rgs += ms(run_strategy(Strategy::RanGroupScan { m: 2 }, &ctx, &sets, opts.reps).0);
        t_hash += ms(run_strategy(Strategy::Hash, &ctx, &sets, opts.reps).0);
        t_merge += ms(run_strategy(Strategy::Merge, &ctx, &sets, opts.reps).0);
    }
    let nq = opts.queries as f64;
    let mut t = Table::new(vec!["executor", "mean ms/query", "note"]);
    t.row(vec![
        "Planner".to_string(),
        fmt_ms(t_planner / nq),
        format!(
            "{} RanGroupScan / {} HashProbe / {} BitmapAnd / {} GallopProbe / {} other",
            plans[0], plans[1], plans[2], plans[3], plans[4]
        ),
    ]);
    t.row(vec![
        "RanGroupScan(m=2) always".to_string(),
        fmt_ms(t_rgs / nq),
        String::new(),
    ]);
    t.row(vec![
        "Hash always".to_string(),
        fmt_ms(t_hash / nq),
        String::new(),
    ]);
    t.row(vec![
        "Merge always".to_string(),
        fmt_ms(t_merge / nq),
        String::new(),
    ]);
    t.print();
    println!("(the conclusion's robustness claim: the per-query choice should track the best fixed strategy)");
}

/// Differential fuzzing: every strategy vs the reference on random inputs.
fn verify(opts: &Opts) {
    header("Differential verification across all strategies", opts);
    let ctx = ctx(opts);
    let mut strategies = Strategy::uncompressed_lineup();
    strategies.push(Strategy::Auto);
    strategies.push(Strategy::IntGroupOpt);
    strategies.push(Strategy::Treap);
    strategies.extend(Strategy::compressed_lineup());
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let trials = opts.queries.max(20);
    for trial in 0..trials {
        let k = rng.gen_range(2..=4usize);
        let u = rng.gen_range(1..50_000u32) as u64;
        let sets: Vec<SortedSet> = (0..k)
            .map(|_| {
                let n = rng.gen_range(0..3000usize).min(u as usize);
                SortedSet::from_sorted_unchecked(fsi_workloads::sample_distinct(&mut rng, n, u))
            })
            .collect();
        let slices: Vec<&[u32]> = sets.iter().map(|s| s.as_slice()).collect();
        let expect = fsi_core::reference_intersection(&slices);
        for &strat in &strategies {
            let prepared: Vec<PreparedList> = sets.iter().map(|s| strat.prepare(&ctx, s)).collect();
            let refs: Vec<&PreparedList> = prepared.iter().collect();
            let got = fsi_index::strategy::intersect_sorted(&refs);
            assert_eq!(got, expect, "{} diverged on trial {trial}", strat.name());
        }
        if (trial + 1) % 10 == 0 {
            println!("  {} / {trials} trials verified", trial + 1);
        }
    }
    println!(
        "all {} strategies agree with the reference on {trials} random k-way inputs",
        strategies.len()
    );
}

// ---------------------------------------------------------------- shared helpers

#[allow(dead_code)]
fn check(lists: &[&PreparedList]) -> usize {
    let mut out = Vec::new();
    intersect_into(lists, &mut out);
    out.len()
}
