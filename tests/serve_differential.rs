//! Differential correctness of the serving layer against the
//! single-threaded `Executor` and the naive evaluator:
//!
//! * a conjunction served as text and compiled in process returns
//!   identical documents and plan kind, equal to the executor's answer
//!   and to `naive_eval`;
//! * the cache hit path returns exactly what the miss path computed, also
//!   while a small cache evicts mid-stream;
//! * concurrent callers of one shared server agree with serial queries;
//! * `execute` is exactly `begin` then `finish`: a mixed request stream
//!   through either leaves the same results, stats, and counters.

use fast_set_intersection::index::{Corpus, CorpusConfig, SearchEngine, Strategy};
use fast_set_intersection::query::{compile, naive::naive_eval};
use fast_set_intersection::serve::{Begun, QueryError, Request, Response, ServeConfig, Server};
use fast_set_intersection::workloads::stream::{generate_boolean_stream, BooleanStreamConfig};
use fast_set_intersection::workloads::{generate_stream, QueryStreamConfig};
use fast_set_intersection::HashContext;
use std::time::{Duration, Instant};

fn engine() -> SearchEngine {
    let corpus = Corpus::generate(CorpusConfig {
        num_docs: 12_000,
        num_terms: 40,
        ..CorpusConfig::default()
    });
    SearchEngine::from_corpus(HashContext::new(2011), corpus)
}

/// The conjunction of `terms` as query text.
fn and(terms: &[usize]) -> String {
    let text: Vec<String> = terms.iter().map(usize::to_string).collect();
    text.join(" AND ")
}

fn queries() -> Vec<Vec<usize>> {
    vec![
        vec![0, 1],
        vec![1, 2, 3],
        vec![0, 10, 20, 39],
        vec![35, 38],   // sparse tail terms
        vec![0, 39],    // most vs least frequent
        vec![7],        // single term
        vec![4, 4, 12], // duplicate term
    ]
}

#[test]
fn terms_and_expr_requests_match_executor_and_naive() {
    let engine = engine();
    let reference = engine.executor(Strategy::Merge);
    let slices: Vec<&[u32]> = engine.postings().iter().map(|p| p.as_slice()).collect();
    let mut conjunctions = queries();
    conjunctions.extend(generate_stream(&QueryStreamConfig {
        num_queries: 40,
        num_terms: engine.num_terms(),
        seed: 0x5E12,
        ..QueryStreamConfig::default()
    }));
    // Cache off: both spellings must plan, not hit each other's entry.
    let server = Server::new(&engine, ServeConfig { cache_capacity: 0 });
    for q in &conjunctions {
        let text = and(q);
        let norm = compile(&text).expect("compiles");
        let naive: Vec<u32> = naive_eval(&slices, &norm).into_iter().collect();
        let compiled = server.execute(&Request::norm(norm)).expect("valid");
        let expr = server.execute(&Request::expr(text)).expect("valid");
        assert_eq!(expr.docs.as_slice(), reference.query(q), "q {q:?}");
        assert_eq!(compiled.docs, expr.docs, "q {q:?}");
        assert_eq!(compiled.plan_kind, expr.plan_kind, "q {q:?}");
        assert!(expr.plan_kind.is_some(), "q {q:?}");
        assert_eq!(expr.docs.as_slice(), naive, "q {q:?}");
    }
}

#[test]
fn cache_hit_path_equals_miss_path() {
    let engine = engine();
    let reference = engine.executor(Strategy::Merge);
    let server = Server::new(&engine, ServeConfig { cache_capacity: 64 });
    for q in &queries() {
        // Computed by the kernels, then served by the cache.
        let miss = server.execute(&Request::expr(and(q))).expect("valid");
        let hit = server.execute(&Request::expr(and(q))).expect("valid");
        assert_eq!(miss.docs, hit.docs, "{q:?}");
        assert_eq!(hit.docs.as_slice(), reference.query(q), "{q:?}");
    }
    // Every query hit on its repeat.
    let stats = server.stats();
    assert_eq!(stats.cache.hits, queries().len() as u64);
}

#[test]
fn evicting_cache_matches_executor() {
    let engine = engine();
    let reference = engine.executor(Strategy::Merge);
    let server = Server::new(
        &engine,
        ServeConfig {
            cache_capacity: 32, // small: forces evictions mid-stream
        },
    );
    let terms: Vec<Vec<usize>> = (0..200)
        .map(|i| vec![i % 5, 5 + i % 7, 12 + i % 28])
        .collect();
    for _round in 0..3 {
        for q in &terms {
            let resp = server.execute(&Request::expr(and(q))).expect("valid");
            assert_eq!(resp.docs.as_slice(), reference.query(q), "{q:?}");
        }
    }
    assert!(server.stats().cache.evictions > 0);
}

#[test]
fn concurrent_clients_smoke() {
    let engine = engine();
    let reference = engine.executor(Strategy::Merge);
    let server = Server::new(
        &engine,
        ServeConfig {
            cache_capacity: 128,
        },
    );
    let expected: Vec<Vec<u32>> = (0..8)
        .map(|t| reference.query(&[t, 8 + t, 16 + t]))
        .collect();
    std::thread::scope(|scope| {
        for client in 0..4usize {
            let server = &server;
            let expected = &expected;
            scope.spawn(move || {
                for i in 0..100usize {
                    let t = (client + i) % 8;
                    let got = server
                        .execute(&Request::expr(and(&[t, 8 + t, 16 + t])))
                        .expect("valid");
                    assert_eq!(got.docs.as_slice(), expected[t], "client {client} t {t}");
                }
            });
        }
    });
    let stats = server.stats();
    assert_eq!(stats.queries_served, 400);
    assert_eq!(stats.cache.hits + stats.cache.misses, 400);
    // 8 distinct keys, but the get→compute→insert path is a benign
    // stampede: each of the 4 clients may independently miss a key the
    // first time it sees it, so up to 8 × 4 misses are legitimate.
    assert!(
        stats.cache.misses <= 8 * 4,
        "misses {} exceed the stampede bound",
        stats.cache.misses
    );
}

/// What must not depend on how a request was driven: everything in a
/// response but its wall-clock fields.
fn observable(result: &Result<Response, QueryError>) -> String {
    match result {
        Ok(r) => format!(
            "{:?} {:?} {:?} docs={:?} explain={:?} spans={:?}",
            r.disposition,
            r.cache,
            r.plan_kind,
            r.docs,
            // EXPLAIN ANALYZE prints measured times; its first line and
            // its shape are what is comparable.
            r.explain.as_ref().map(|e| e.lines().count()),
            r.trace
                .as_ref()
                .map(|t| t.spans.iter().map(|s| s.name.clone()).collect::<Vec<_>>()),
        ),
        Err(e) => format!("error: {e}"),
    }
}

#[test]
fn execute_is_exactly_begin_then_finish() {
    let engine = engine();
    let config = ServeConfig {
        cache_capacity: 48, // smaller than the stream's working set: evictions too
    };
    let whole = Server::new(&engine, config.clone());
    let halves = Server::new(&engine, config);
    // One seeded stream with every kind of outcome in it. Zipf-skewed, so
    // canonical forms repeat: hits and misses both.
    let exprs = generate_boolean_stream(&BooleanStreamConfig {
        num_queries: 300,
        num_terms: engine.num_terms(),
        or_probability: 0.4,
        not_probability: 0.3,
        seed: 0xBE61,
        ..BooleanStreamConfig::default()
    });
    let expired = Instant::now() - Duration::from_millis(1);
    let requests: Vec<Request> = exprs
        .iter()
        .enumerate()
        .map(|(i, q)| match i % 12 {
            3 => Request::expr(format!("{q} AND")), // does not parse
            4 => Request::expr(format!("{q} AND 99999")), // unknown term
            5 => Request::expr(format!("EXPLAIN {q}")),
            6 => Request::expr(format!("EXPLAIN ANALYZE {q}")),
            7 => Request::expr(q.as_str()).deadline(expired),
            8 => Request::expr(q.as_str()).tenant((i % 5) as u32),
            9 => Request::expr(q.as_str()).traced(),
            10 => Request::norm(compile(q).expect("compiles")).tenant(2),
            _ => Request::expr(q.as_str()),
        })
        .collect();
    let (mut finished, mut done) = (0, 0);
    for (i, req) in requests.iter().enumerate() {
        let one = whole.execute(req);
        let two = halves.begin(req).map(|begun| match begun {
            Begun::Done(response) => {
                done += 1;
                response
            }
            Begun::Miss(miss) => {
                finished += 1;
                halves.finish(miss)
            }
        });
        assert_eq!(observable(&one), observable(&two), "request {i}: {req:?}");
    }
    assert!(finished > 50 && done > 50, "{finished} misses, {done} done");

    let (a, b) = (whole.stats(), halves.stats());
    assert_eq!(
        (a.queries_served, a.queries_shed),
        (b.queries_served, b.queries_shed)
    );
    assert!(a.queries_shed > 0 && a.queries_served > 0);
    assert_eq!(a.latency.count, b.latency.count);
    let counters = |c: &fast_set_intersection::serve::CacheStats| {
        (
            c.lookups,
            c.hits,
            c.misses,
            c.insertions,
            c.evictions,
            c.len,
        )
    };
    assert_eq!(counters(&a.cache), counters(&b.cache));
    assert!(a.cache.hits > 0 && a.cache.evictions > 0, "{:?}", a.cache);
    let (a, b) = (whole.metrics(), halves.metrics());
    for tenant in ["0", "1", "2", "3", "4"] {
        let billed = |snap: &fast_set_intersection::obs::Snapshot| {
            snap.counter("fsi_tenant_queries_total", &[("tenant", tenant)])
        };
        assert_eq!(billed(&a), billed(&b), "tenant {tenant}");
        assert!(billed(&a).is_some(), "tenant {tenant}");
    }
}
