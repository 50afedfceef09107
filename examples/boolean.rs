//! Boolean query-language demo: parse → rewrite → plan → execute, then
//! the same queries through the serving stack with canonical cache keys.
//!
//! Run with `cargo run --release --example boolean`.

use fast_set_intersection::core::HashContext;
use fast_set_intersection::index::{Corpus, CorpusConfig, Planner, SearchEngine};
use fast_set_intersection::query::{self, ExprPlanner};
use fast_set_intersection::serve::{Request, ServeConfig, Server};

fn main() {
    let corpus = Corpus::generate(CorpusConfig {
        num_docs: 60_000,
        num_terms: 64,
        ..CorpusConfig::default()
    });
    let engine = SearchEngine::from_corpus(HashContext::new(7), corpus);

    // --- Parse and rewrite -------------------------------------------------
    let src = "(0 AND 5) OR (3 4) AND NOT 7";
    let ast = query::parse(src).expect("parses");
    let norm = query::normalize(&ast).expect("bounded");
    println!("query:      {src}");
    println!("parsed:     {ast}");
    println!("canonical:  {norm}");
    println!("fingerprint: {:#018x}", query::fingerprint(&norm));
    // Equivalent spellings canonicalize — and therefore cache — the same.
    for spelling in [
        "4 AND 3 AND NOT 7 OR (5 AND 0)",
        "NOT (NOT 0 OR NOT 5) OR (4 3 AND NOT 7)",
    ] {
        let same = query::compile(spelling).expect("bounded");
        println!(
            "  {spelling:45} -> same entry: {}",
            query::encode(&same) == query::encode(&norm)
        );
    }
    // Unbounded NOTs are rejected, not served.
    println!("  NOT 7 alone -> {}", query::compile("NOT 7").unwrap_err());

    // --- Plan and execute over the prepared index --------------------------
    let exec = engine.planned_executor(Planner::auto());
    let planner = ExprPlanner::auto();
    let mut out = Vec::new();
    let plan = query::eval_planned_into(&exec, &planner, &norm, &mut out);
    println!("\nplan:       {}", plan.describe());
    println!(
        "estimates:  ~{:.0} rows, cost {:.0} units; actual {} docs",
        plan.est_rows,
        plan.est_cost,
        out.len()
    );

    // --- The serving stack -------------------------------------------------
    let server = Server::new(
        &engine,
        ServeConfig {
            cache_capacity: 1024,
        },
    );
    let first = server.execute(&Request::expr(src)).expect("valid");
    let reordered = server
        .execute(&Request::expr("(3 AND 4 AND NOT 7) OR (5 0)"))
        .expect("valid");
    assert_eq!(first.docs, reordered.docs);
    assert_eq!(first.docs.as_slice(), out.as_slice());
    let stats = server.stats();
    println!(
        "\nserved {} boolean queries; cache hits {} (canonical keying)",
        stats.expr_queries_served, stats.cache.hits
    );
}
