//! Observability-overhead benchmark.
//!
//! The tracing contract of `fsi-obs` is "cheap enough to leave on": a
//! traced query allocates a handful of spans and formats a few attribute
//! strings, all dwarfed by the intersection work itself. This binary puts
//! a number on that claim. It builds the boolean-bench Zipf corpus, replays
//! an AND-only query stream through a `Server` twice — once as plain
//! `Request::expr` requests and once `.traced()` — with the result cache
//! disabled so every query exercises parse → rewrite → plan → exec, and
//! records min-over-reps throughput for both paths.
//!
//! What tracing adds to one query is asserted at most
//! [`BUDGET_NS_PER_QUERY`] in full mode (twice that in smoke, where
//! single-rep jitter on shared CI hardware is the dominant term) and the
//! regression gate checks `untraced_qps` and `qps_ratio` one-sidedly, so
//! tracing can never silently grow a throughput cliff.
//!
//! The run also drains the always-on global registry — plan-kind
//! distribution and the planner's misprediction histogram
//! (`|log2(observed/estimated)|` in millilog2) — into the JSON, making the
//! file a provenance record of what the cost model actually chose.
//!
//! Usage: `cargo run --release -p fsi-bench --bin obs -- [out.json] [--smoke]`

use fsi_bench::{HarnessArgs, Table};
use fsi_core::HashContext;
use fsi_index::{Corpus, CorpusConfig, SearchEngine};
use fsi_obs::{Registry, SnapshotValue};
use fsi_serve::{Request, ServeConfig, Server};
use fsi_workloads::stream::{generate_boolean_stream, BooleanStreamConfig};

/// The tracing budget per traced query, in nanoseconds. An absolute cost,
/// not a share of the query: what four spans and their attribute strings
/// cost does not depend on how fast the kernels under them run, so a
/// share tightens or loosens with every kernel change and says nothing
/// about tracing. 2.6 µs is what the 5% this binary used to assert allowed
/// on the 52 µs query it was set against.
const BUDGET_NS_PER_QUERY: f64 = 2_600.0;

fn main() {
    let args = HarnessArgs::parse("BENCH_obs.json");
    // Like the boolean bench, smoke keeps the full corpus and stream (the
    // run takes seconds) and only cuts repetitions: the overhead ratio is
    // only meaningful when both paths do full-size work.
    let num_docs: u32 = 400_000;
    let num_terms: usize = 1 << 10;
    let num_queries: usize = 2_000;
    let reps = args.pick(5, 2);

    println!(
        "corpus: {num_docs} docs x {num_terms} terms; \
         {num_queries} AND-only queries, {reps} rep(s){}",
        if args.smoke { " [smoke]" } else { "" }
    );
    let corpus = Corpus::generate(CorpusConfig {
        num_docs,
        num_terms,
        ..CorpusConfig::default()
    });
    let ctx = HashContext::new(fsi_bench::HARNESS_SEED);
    let engine = SearchEngine::from_corpus(ctx, corpus);
    let server = Server::new(
        &engine,
        ServeConfig {
            cache_capacity: 0, // every query must run the full pipeline
            ..ServeConfig::default()
        },
    );

    let stream = generate_boolean_stream(&BooleanStreamConfig {
        num_queries,
        num_terms,
        or_probability: 0.0,
        not_probability: 0.0,
        seed: 0xb0b5,
        ..BooleanStreamConfig::default()
    });
    let n = stream.len();

    // Measure the untraced production path and its traced twin in
    // INTERLEAVED pairs: one untraced stream pass, then one traced pass,
    // `reps` times, taking the min of each. Back-to-back blocks would let
    // a box-speed drift between them masquerade as (or mask) tracing
    // overhead — on a shared single-core runner that drift alone exceeds
    // the budget this binary enforces.
    let mut rows = 0usize;
    let mut traced_rows = 0usize;
    let mut spans = 0usize;
    let mut run_untraced = || {
        rows = 0;
        for q in &stream {
            rows += server
                .execute(&Request::expr(q.as_str()))
                .expect("generated queries are valid")
                .docs
                .len();
        }
        rows
    };
    let mut run_traced = || {
        traced_rows = 0;
        spans = 0;
        for q in &stream {
            let resp = server
                .execute(&Request::expr(q.as_str()).traced())
                .expect("generated queries are valid");
            traced_rows += resp.docs.len();
            spans += resp.trace.expect("traced").spans.len();
        }
        (traced_rows, spans)
    };
    let (untraced, traced) = {
        std::hint::black_box(run_untraced());
        std::hint::black_box(run_traced());
        let mut best_u = None;
        let mut best_t = None;
        for _ in 0..reps.max(1) {
            let u = fsi_bench::time_once(&mut run_untraced);
            let t = fsi_bench::time_once(&mut run_traced);
            best_u = Some(best_u.map_or(u, |b: std::time::Duration| b.min(u)));
            best_t = Some(best_t.map_or(t, |b: std::time::Duration| b.min(t)));
        }
        (best_u.expect("reps >= 1"), best_t.expect("reps >= 1"))
    };
    assert_eq!(rows, traced_rows, "tracing must not change results");

    let untraced_qps = n as f64 / untraced.as_secs_f64();
    let traced_qps = n as f64 / traced.as_secs_f64();
    let qps_ratio = traced_qps / untraced_qps;
    let overhead_pct = (untraced_qps / traced_qps - 1.0) * 100.0;
    let overhead_ns = (traced.as_secs_f64() - untraced.as_secs_f64()) * 1e9 / n as f64;
    let spans_per_query = spans as f64 / n as f64;

    let mut table = Table::new(vec!["path", "qps", "us/q"]);
    let us = |d: std::time::Duration| format!("{:.2}", d.as_secs_f64() * 1e6 / n as f64);
    table.row(vec![
        "untraced".to_string(),
        format!("{untraced_qps:.0}"),
        us(untraced),
    ]);
    table.row(vec![
        "traced".to_string(),
        format!("{traced_qps:.0}"),
        us(traced),
    ]);
    table.print();
    println!(
        "overhead: {overhead_ns:.0} ns/query, {overhead_pct:.2}% \
         ({spans_per_query:.1} spans/query, {rows} total result rows)"
    );

    // The contract this benchmark exists to enforce. Smoke runs get slack:
    // at 1-2 reps on a timesliced CI core the min estimator still carries
    // scheduler noise the full run's 5 reps iron out.
    let budget_ns = BUDGET_NS_PER_QUERY * args.pick(1.0, 2.0);
    assert!(
        overhead_ns <= budget_ns,
        "tracing costs {overhead_ns:.0} ns per query, over the {budget_ns:.0} ns budget"
    );

    // Always-on planner telemetry accumulated by both paths above.
    let snap = Registry::global().snapshot();
    let mut plan_kinds: Vec<(String, u64)> = snap
        .entries
        .iter()
        .filter(|e| e.name == "fsi_plan_kind_total")
        .filter_map(|e| match e.value {
            SnapshotValue::Counter(v) => {
                let kind = e
                    .labels
                    .iter()
                    .find(|(k, _)| k == "kind")
                    .map(|(_, v)| v.clone())?;
                Some((kind, v))
            }
            _ => None,
        })
        .collect();
    plan_kinds.sort();
    let mispred = snap.histogram("fsi_plan_misprediction_millilog2", &[]);
    let (mis_count, mis_p50, mis_p99) = match mispred {
        Some(h) => (h.count, h.percentile(0.50), h.percentile(0.99)),
        None => (0, f64::NAN, f64::NAN),
    };
    println!(
        "plan kinds: {}",
        plan_kinds
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "misprediction: {mis_count} samples, p50 {mis_p50:.0} millilog2, \
         p99 {mis_p99:.0} millilog2"
    );

    let json_f64 = |v: f64| {
        if v.is_finite() {
            format!("{v:.1}")
        } else {
            "null".to_string()
        }
    };
    let plan_kind_json = plan_kinds
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect::<Vec<_>>()
        .join(", ");
    let env = fsi_bench::env_json();
    let json = format!(
        "{{\n  \"bench\": \"obs\",\n  \"smoke\": {},\n  {env},\n  \"config\": {{\n    \
         \"num_docs\": {num_docs},\n    \"num_terms\": {num_terms},\n    \
         \"num_queries\": {num_queries},\n    \
         \"reps\": {reps}\n  }},\n  \"overhead\": {{\n    \
         \"untraced_qps\": {untraced_qps:.1},\n    \"traced_qps\": {traced_qps:.1},\n    \
         \"qps_ratio\": {qps_ratio:.4},\n    \"overhead_pct\": {overhead_pct:.2},\n    \
         \"overhead_ns_per_query\": {overhead_ns:.0},\n    \
         \"budget_ns_per_query\": {budget_ns:.0},\n    \
         \"spans_per_query\": {spans_per_query:.2}\n  }},\n  \
         \"plan_kinds\": {{{plan_kind_json}}},\n  \"misprediction\": {{\n    \
         \"count\": {mis_count},\n    \"p50_millilog2\": {},\n    \
         \"p99_millilog2\": {}\n  }}\n}}\n",
        args.smoke,
        json_f64(mis_p50),
        json_f64(mis_p99),
    );
    args.write_output(&json);
    println!("\nwrote {}", args.out_path);
}
