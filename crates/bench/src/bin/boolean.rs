//! Boolean expression-engine benchmark.
//!
//! Builds a Zipf corpus, generates three boolean query-stream shapes
//! (AND-only / OR-heavy / NOT-heavy) from the shared
//! `fsi_workloads::stream` traffic model, and measures the three pipeline
//! stages separately over a planned executor:
//!
//! * **parse** — query string → canonical `NormExpr` (`fsi_query::compile`:
//!   recursive descent + De Morgan/flatten/dedup rewrites);
//! * **plan** — cost-based `ExprPlan` over per-term `OperandStats`;
//! * **exec** — running the plan through the multiway/union/difference
//!   kernels.
//!
//! Per shape the JSON records per-query stage latencies (min-over-reps of
//! the stream totals, the steady-state estimator) and the combined
//! end-to-end `qps`, which the CI regression gate checks. A final
//! cache-demonstration pass replays a small-vocabulary reordered-duplicate
//! stream through a planned `Server` and records the canonical-key hit
//! rate next to the raw-string repeat rate — the gap is exactly the
//! traffic only canonicalization can cache.
//!
//! Usage: `cargo run --release -p fsi-bench --bin boolean -- [out.json] [--smoke]`

use fsi_bench::{min_time, HarnessArgs, Table};
use fsi_core::HashContext;
use fsi_index::{Corpus, CorpusConfig, Planner, SearchEngine};
use fsi_query::{ExprPlan, ExprPlanner, NormExpr};
use fsi_serve::{Request, ServeConfig, Server};
use fsi_workloads::stream::{generate_boolean_stream, BooleanStreamConfig};

struct ShapeRow {
    shape: &'static str,
    queries: usize,
    parse_us: f64,
    plan_us: f64,
    exec_us: f64,
    qps: f64,
    result_rows: usize,
}

fn main() {
    let args = HarnessArgs::parse("BENCH_boolean.json");
    // Like the serve bench, smoke keeps the full corpus and streams (the
    // run takes seconds) and only cuts repetitions: smaller inputs would
    // shift per-query costs and leave the one-sided gate comparing unlike
    // numbers.
    let num_docs: u32 = 400_000;
    let num_terms: usize = 1 << 10;
    let num_queries: usize = 2_500;
    let reps = args.pick(3, 1);

    println!(
        "corpus: {num_docs} docs x {num_terms} terms; {num_queries} queries per shape, \
         {reps} rep(s){}",
        if args.smoke { " [smoke]" } else { "" }
    );
    let corpus = Corpus::generate(CorpusConfig {
        num_docs,
        num_terms,
        ..CorpusConfig::default()
    });
    let ctx = HashContext::new(fsi_bench::HARNESS_SEED);
    let engine = SearchEngine::from_corpus(ctx, corpus);
    let exec = engine.planned_executor(Planner::auto());
    let planner = ExprPlanner::auto();

    let base = BooleanStreamConfig {
        num_queries,
        num_terms,
        ..BooleanStreamConfig::default()
    };
    let shapes: [(&'static str, BooleanStreamConfig); 3] = [
        (
            "and-only",
            BooleanStreamConfig {
                or_probability: 0.0,
                not_probability: 0.0,
                seed: 0xb001,
                ..base.clone()
            },
        ),
        (
            "or-heavy",
            BooleanStreamConfig {
                or_probability: 1.0,
                or_arity: 3,
                not_probability: 0.1,
                seed: 0xb002,
                ..base.clone()
            },
        ),
        (
            "not-heavy",
            BooleanStreamConfig {
                or_probability: 0.2,
                not_probability: 0.9,
                seed: 0xb003,
                ..base.clone()
            },
        ),
    ];

    let mut rows = Vec::new();
    let mut table = Table::new(vec![
        "shape",
        "parse us/q",
        "plan us/q",
        "exec us/q",
        "qps",
        "rows/q",
    ]);
    for (shape, cfg) in &shapes {
        let stream = generate_boolean_stream(cfg);
        let n = stream.len();

        // Stage 1: parse + rewrite.
        let mut compiled: Vec<NormExpr> = Vec::new();
        let parse_total = min_time(reps, || {
            compiled = stream
                .iter()
                .map(|q| fsi_query::compile(q).expect("generated queries compile"))
                .collect();
            compiled.len()
        });

        // Stage 2: cost-based planning over prepared-list stats.
        let mut plans: Vec<ExprPlan> = Vec::new();
        let plan_total = min_time(reps, || {
            plans = compiled
                .iter()
                .map(|e| planner.plan(e, &|t| exec.list(t).stats(), exec.universe()))
                .collect();
            plans.len()
        });

        // Stage 3: execution through the kernels.
        let mut out = Vec::new();
        let mut result_rows = 0usize;
        let exec_total = min_time(reps, || {
            result_rows = 0;
            for plan in &plans {
                out.clear();
                fsi_query::execute_plan(&exec, &planner, plan, &mut out);
                result_rows += out.len();
            }
            result_rows
        });

        let us = |d: std::time::Duration| d.as_secs_f64() * 1e6 / n as f64;
        let total_s =
            parse_total.as_secs_f64() + plan_total.as_secs_f64() + exec_total.as_secs_f64();
        let row = ShapeRow {
            shape,
            queries: n,
            parse_us: us(parse_total),
            plan_us: us(plan_total),
            exec_us: us(exec_total),
            qps: n as f64 / total_s,
            result_rows: result_rows / n,
        };
        table.row(vec![
            row.shape.to_string(),
            format!("{:.2}", row.parse_us),
            format!("{:.2}", row.plan_us),
            format!("{:.2}", row.exec_us),
            format!("{:.0}", row.qps),
            row.result_rows.to_string(),
        ]);
        rows.push(row);
    }
    table.print();

    // Cache demonstration: a small vocabulary cranks the Zipf repeat rate;
    // repeats arrive reordered/duplicated, so the hit rate a canonical key
    // reaches strictly exceeds what raw-string keying could.
    let cache_cfg = BooleanStreamConfig {
        num_queries,
        num_terms: 96,
        or_probability: 0.4,
        not_probability: 0.3,
        seed: 0xb004,
        ..BooleanStreamConfig::default()
    };
    let cache_stream = generate_boolean_stream(&cache_cfg);
    let mut canon_seen = std::collections::HashSet::new();
    let mut raw_seen = std::collections::HashSet::new();
    let mut canonical_repeats = 0usize;
    let mut raw_repeats = 0usize;
    for q in &cache_stream {
        let norm = fsi_query::compile(q).expect("compiles");
        if !canon_seen.insert(fsi_query::encode(&norm)) {
            canonical_repeats += 1;
        }
        if !raw_seen.insert(q.clone()) {
            raw_repeats += 1;
        }
    }
    let canonical_repeat_rate = canonical_repeats as f64 / cache_stream.len() as f64;
    let raw_repeat_rate = raw_repeats as f64 / cache_stream.len() as f64;
    let server = Server::new(
        &engine,
        ServeConfig {
            cache_capacity: 8192,
        },
    );
    for q in &cache_stream {
        server
            .execute(&Request::expr(q.as_str()))
            .expect("valid query");
    }
    let cache_stats = server.stats().cache;
    let hit_rate = cache_stats.hit_rate();
    println!(
        "\ncache: hit rate {hit_rate:.3} over {} queries \
         (canonical repeat rate {canonical_repeat_rate:.3}, raw-string {raw_repeat_rate:.3})",
        cache_stream.len()
    );
    assert!(
        (hit_rate - canonical_repeat_rate).abs() < 1e-9,
        "an unbounded-capacity cache must hit exactly the canonical repeats"
    );

    let shape_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"shape\": \"{}\", \"queries\": {}, \"parse_us\": {:.3}, \
                 \"plan_us\": {:.3}, \"exec_us\": {:.3}, \"qps\": {:.1}, \
                 \"mean_result_rows\": {}}}",
                r.shape, r.queries, r.parse_us, r.plan_us, r.exec_us, r.qps, r.result_rows
            )
        })
        .collect();
    let env = fsi_bench::env_json();
    let json = format!(
        "{{\n  \"bench\": \"boolean\",\n  \"smoke\": {},\n  {env},\n  \"config\": {{\n    \
         \"num_docs\": {num_docs},\n    \"num_terms\": {num_terms},\n    \
         \"num_queries\": {num_queries},\n    \"reps\": {reps},\n    \
         \"active_level\": \"{}\"\n  }},\n  \"shapes\": [\n{}\n  ],\n  \
         \"cache\": {{\n    \"queries\": {},\n    \"vocabulary\": {},\n    \
         \"hit_rate\": {hit_rate:.4},\n    \
         \"canonical_repeat_rate\": {canonical_repeat_rate:.4},\n    \
         \"raw_repeat_rate\": {raw_repeat_rate:.4}\n  }}\n}}\n",
        args.smoke,
        fsi_kernels::SimdLevel::active().name(),
        shape_json.join(",\n"),
        cache_stream.len(),
        cache_cfg.num_terms,
    );
    args.write_output(&json);
    println!("\nwrote {}", args.out_path);
}
