//! Observability demo: `EXPLAIN` / `EXPLAIN ANALYZE`, per-query traces,
//! and the metrics registry — the three windows into the planned
//! execution stack, all through the one request-lifetime entry point
//! [`Server::execute`].
//!
//! Run with `cargo run --release --example explain`.

use fast_set_intersection::core::HashContext;
use fast_set_intersection::index::{Corpus, CorpusConfig, SearchEngine};
use fast_set_intersection::serve::{Request, ServeConfig, Server};

fn main() {
    let corpus = Corpus::generate(CorpusConfig {
        num_docs: 60_000,
        num_terms: 64,
        ..CorpusConfig::default()
    });
    let engine = SearchEngine::from_corpus(HashContext::new(7), corpus);
    let server = Server::new(
        &engine,
        ServeConfig {
            cache_capacity: 1024,
            ..ServeConfig::default() // planner-dispatched execution
        },
    );

    // --- EXPLAIN: the cost model's side of the story -----------------------
    // The prefix is part of the query language; the server strips it and
    // routes the request down the explain path.
    let src = "EXPLAIN (0 OR 1) AND 5 AND NOT 7";
    let resp = server.execute(&Request::expr(src)).unwrap();
    println!("> {src}\n{}", resp.explain.unwrap());

    // --- EXPLAIN ANALYZE: estimates and measurements side by side ----------
    let src = "EXPLAIN ANALYZE (0 OR 1) AND 5 AND NOT 7";
    let resp = server.execute(&Request::expr(src)).unwrap();
    println!("> {src}\n{}", resp.explain.unwrap());

    // --- Traced execution: the per-stage timeline of one real query --------
    let resp = server
        .execute(&Request::expr("(0 OR 1) AND 5 AND NOT 7").traced())
        .unwrap();
    println!(
        "{} result docs\n\n{}",
        resp.docs.len(),
        resp.trace.unwrap().render()
    );

    // --- The metrics registry: counters, gauges, latency histograms --------
    // A short warm-up so the snapshot has something to say.
    for _ in 0..20 {
        server
            .execute(&Request::expr("(0 OR 1) AND 5 AND NOT 7"))
            .unwrap();
        server.execute(&Request::expr("2 AND 3")).unwrap();
    }
    let snap = server.metrics();
    println!("{}", snap.to_prometheus());
}
