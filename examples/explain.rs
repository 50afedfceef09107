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
        },
    );

    // --- EXPLAIN: the cost model's side of the story -----------------------
    // The prefix is part of the query language; the server strips it and
    // routes the request down the explain path.
    let query = "(0 OR 1) AND 5 AND NOT 7";
    let src = format!("EXPLAIN {query}");
    let plain = server
        .execute(&Request::expr(&src))
        .unwrap()
        .explain
        .unwrap();
    println!("> {src}\n{plain}");

    // --- EXPLAIN ANALYZE: estimates and measurements side by side ----------
    let src = format!("EXPLAIN ANALYZE {query}");
    let analyzed = server
        .execute(&Request::expr(&src))
        .unwrap()
        .explain
        .unwrap();
    println!("> {src}\n{analyzed}");

    // --- Traced execution: the per-stage timeline of one real query --------
    let resp = server.execute(&Request::expr(query).traced()).unwrap();
    println!(
        "{} result docs\n\n{}",
        resp.docs.len(),
        resp.trace.unwrap().render()
    );

    // ANALYZE runs the serving walk: its root counts the served documents,
    // and it reports the same plan tree EXPLAIN renders.
    let root_rows = table_rows(&analyzed)
        .next()
        .and_then(|row| row.split_whitespace().nth(3));
    assert_eq!(root_rows, Some(resp.docs.len().to_string().as_str()));
    assert_eq!(node_labels(&plain), node_labels(&analyzed));

    // --- The metrics registry: counters, gauges, latency histograms --------
    // A short warm-up so the snapshot has something to say.
    for _ in 0..20 {
        server.execute(&Request::expr(query)).unwrap();
        server.execute(&Request::expr("2 AND 3")).unwrap();
    }
    let snap = server.metrics();
    println!("{}", snap.to_prometheus());
}

/// The rows of a rendered explain table, below its column titles.
fn table_rows(text: &str) -> impl Iterator<Item = &str> {
    text.lines().skip_while(|l| !l.starts_with("node")).skip(1)
}

/// Each row's node label (`NOT t7`, `And[HashProbe]`, …): its words before
/// the first number or `(input)`, tree glyphs dropped.
fn node_labels(text: &str) -> Vec<String> {
    table_rows(text)
        .map(|row| {
            row.split_whitespace()
                .take_while(|w| !w.starts_with(|c: char| c.is_ascii_digit() || c == '('))
                .filter(|w| !w.starts_with(['│', '├', '└']))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}
