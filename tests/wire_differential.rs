//! One oracle for the whole stack: generated boolean expressions sent
//! through a live `NetServer` on loopback — wire protocol, admission,
//! queue, result cache, planner, kernels — and checked element for
//! element against the naive `BTreeSet` evaluator, once as a cache miss
//! and once as a cache hit.

use fast_set_intersection::index::{Corpus, CorpusConfig, SearchEngine};
use fast_set_intersection::net::protocol::{Status, DETAIL_CACHE_HIT, DETAIL_CACHE_MISS};
use fast_set_intersection::net::{Client, NetConfig, NetServer, RequestFrame};
use fast_set_intersection::query::{compile, encode, naive::naive_eval};
use fast_set_intersection::serve::{ServeConfig, Server};
use fast_set_intersection::workloads::stream::{generate_boolean_stream, BooleanStreamConfig};
use fast_set_intersection::HashContext;
use std::collections::HashSet;
use std::sync::Arc;

const NUM_TERMS: usize = 40;

#[test]
fn generated_expressions_match_naive_eval_over_the_wire() {
    let corpus = Corpus::generate(CorpusConfig {
        num_docs: 12_000,
        num_terms: NUM_TERMS,
        ..CorpusConfig::default()
    });
    let engine = SearchEngine::from_corpus(HashContext::new(0x3172), corpus);
    let slices: Vec<&[u32]> = engine.postings().iter().map(|p| p.as_slice()).collect();
    let stream = |or_probability, not_probability, seed| {
        generate_boolean_stream(&BooleanStreamConfig {
            num_queries: 120,
            num_terms: NUM_TERMS,
            or_probability,
            not_probability,
            seed,
            ..BooleanStreamConfig::default()
        })
    };
    let mut queries = stream(0.0, 0.0, 0xA17D); // AND-only
    queries.extend(stream(0.6, 0.5, 0x0817)); // OR/NOT-heavy
    assert!(queries.len() >= 200);

    // The default cache holds the whole stream: nothing is evicted, so a
    // canonical form misses exactly once.
    assert!(ServeConfig::default().cache_capacity >= queries.len());
    let serve = Arc::new(Server::new(&engine, ServeConfig::default()));
    let net = NetServer::start(Arc::clone(&serve), NetConfig::default()).expect("bind loopback");
    let mut client = Client::connect(net.local_addr()).expect("connect");

    let mut seen = HashSet::new();
    let mut id = 0u64;
    for query in &queries {
        let norm = compile(query).expect("generated queries compile");
        let expect: Vec<u32> = naive_eval(&slices, &norm).into_iter().collect();
        // Zipf streams repeat canonical forms; only the first sighting of
        // one executes.
        let first = if seen.insert(encode(&norm)) {
            DETAIL_CACHE_MISS
        } else {
            DETAIL_CACHE_HIT
        };
        for detail in [first, DETAIL_CACHE_HIT] {
            let resp = client
                .call(&RequestFrame::query(id, query.as_str()))
                .expect("call");
            assert_eq!(resp.status, Status::Ok, "{query}: {}", resp.message);
            assert_eq!(resp.id, id, "{query}");
            assert_eq!(resp.detail, detail, "{query}");
            assert_eq!(resp.docs, expect, "{query}");
            id += 1;
        }
    }
    let stats = serve.stats();
    assert_eq!(stats.queries_served, id);
    assert_eq!(stats.cache.misses, seen.len() as u64);
    net.stop();
}
