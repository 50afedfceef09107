//! Differential correctness of the serving layer against the
//! single-threaded `Executor` and the naive evaluator:
//!
//! * for **every** strategy and shard counts 1/2/7, the per-shard
//!   executors over the serving layer's document partition concatenate to
//!   byte-identical results;
//! * for shard counts 1/2/3/7, a conjunction served as a term list and as
//!   an expression returns identical documents and plan kind, equal to
//!   `naive_eval`;
//! * the cache hit path returns exactly what the miss path computed;
//! * concurrent batches over one shared server agree with serial queries.

use fast_set_intersection::index::{Corpus, CorpusConfig, SearchEngine, Strategy};
use fast_set_intersection::query::{compile, naive::naive_eval};
use fast_set_intersection::serve::{Request, ServeConfig, Server};
use fast_set_intersection::workloads::{generate_stream, QueryStreamConfig};
use fast_set_intersection::HashContext;

fn engine() -> SearchEngine {
    let corpus = Corpus::generate(CorpusConfig {
        num_docs: 12_000,
        num_terms: 40,
        ..CorpusConfig::default()
    });
    SearchEngine::from_corpus(HashContext::new(2011), corpus)
}

fn queries() -> Vec<Vec<usize>> {
    vec![
        vec![0, 1],
        vec![1, 2, 3],
        vec![0, 10, 20, 39],
        vec![35, 38],   // sparse tail terms
        vec![0, 39],    // most vs least frequent
        vec![7],        // single term
        vec![],         // empty query
        vec![4, 4, 12], // duplicate term
    ]
}

#[test]
fn every_strategy_and_shard_count_matches_executor() {
    let engine = engine();
    let queries = queries();
    for strategy in Strategy::full_lineup() {
        let reference = engine.executor(strategy);
        for shards in [1usize, 2, 7] {
            let parts: Vec<SearchEngine> = engine
                .doc_ranges(shards)
                .into_iter()
                .map(|docs| engine.restricted(docs))
                .collect();
            let execs: Vec<_> = parts.iter().map(|p| p.executor(strategy)).collect();
            for q in &queries {
                let sharded: Vec<u32> = execs.iter().flat_map(|e| e.query(q)).collect();
                assert_eq!(
                    sharded,
                    reference.query(q),
                    "strategy {} shards {shards} q {q:?}",
                    strategy.name()
                );
            }
        }
    }
}

#[test]
fn planned_mode_matches_executor_across_shard_counts() {
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
    for shards in [1usize, 2, 3, 7] {
        // Cache off: both spellings must plan, not hit each other's entry.
        let server = Server::new(
            &engine,
            ServeConfig {
                num_shards: shards,
                cache_capacity: 0,
                ..ServeConfig::default()
            },
        );
        for q in &conjunctions {
            let flat = server.execute(&Request::terms(q.clone())).expect("valid");
            assert_eq!(
                flat.docs.as_slice(),
                reference.query(q),
                "shards {shards} q {q:?}"
            );
            // The empty conjunction has no expression spelling.
            if q.is_empty() {
                assert!(flat.docs.is_empty());
                continue;
            }
            let text: Vec<String> = q.iter().map(usize::to_string).collect();
            let text = text.join(" AND ");
            let expr = server.execute(&Request::expr(&*text)).expect("valid");
            let naive: Vec<u32> = naive_eval(&slices, &compile(&text).expect("compiles"))
                .into_iter()
                .collect();
            assert_eq!(flat.docs, expr.docs, "shards {shards} q {q:?}");
            assert_eq!(flat.plan_kind, expr.plan_kind, "shards {shards} q {q:?}");
            assert!(flat.plan_kind.is_some(), "shards {shards} q {q:?}");
            assert_eq!(expr.docs.as_slice(), naive, "shards {shards} q {q:?}");
        }
    }
}

#[test]
fn cache_hit_path_equals_miss_path() {
    let engine = engine();
    let reference = engine.executor(Strategy::Merge);
    let server = Server::new(
        &engine,
        ServeConfig {
            num_shards: 3,
            num_workers: 2,
            cache_capacity: 64,
            ..ServeConfig::default()
        },
    );
    for q in &queries() {
        // Computed by the shards, then served by the cache.
        let miss = server.execute(&Request::terms(q.clone())).expect("valid");
        let hit = server.execute(&Request::terms(q.clone())).expect("valid");
        assert_eq!(miss.docs, hit.docs, "{q:?}");
        assert_eq!(hit.docs.as_slice(), reference.query(q), "{q:?}");
    }
    // Every query but the empty one (nothing to cache) hit on its repeat.
    let stats = server.stats();
    assert_eq!(stats.cache.hits, queries().len() as u64 - 1);
}

#[test]
fn sharded_and_cached_batches_match_executor() {
    let engine = engine();
    let reference = engine.executor(Strategy::Merge);
    let server = Server::new(
        &engine,
        ServeConfig {
            num_shards: 7,
            num_workers: 4,
            cache_capacity: 32, // small: forces evictions mid-batch
            cache_segments: 2,
            ..ServeConfig::default()
        },
    );
    let batch: Vec<Request> = (0..200)
        .map(|i| Request::terms(vec![i % 5, 5 + i % 7, 12 + i % 28]))
        .collect();
    let terms: Vec<Vec<usize>> = (0..200)
        .map(|i| vec![i % 5, 5 + i % 7, 12 + i % 28])
        .collect();
    for _round in 0..3 {
        let outcome = server.execute_batch(&batch);
        for (q, r) in terms.iter().zip(&outcome.responses) {
            let resp = r.as_ref().expect("valid");
            assert_eq!(resp.docs.as_slice(), reference.query(q), "{q:?}");
        }
    }
}

#[test]
fn concurrent_clients_smoke() {
    let engine = engine();
    let reference = engine.executor(Strategy::Merge);
    let server = Server::new(
        &engine,
        ServeConfig {
            num_shards: 2,
            num_workers: 2,
            cache_capacity: 128,
            ..ServeConfig::default()
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
                        .execute(&Request::terms(vec![t, 8 + t, 16 + t]))
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
