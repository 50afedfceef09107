//! The TCP front door end to end: start a [`NetServer`] on an ephemeral
//! loopback port, then drive it with the wire [`Client`] — plain queries,
//! a tenant-billed query, a cache hit observed on the wire, an invalid
//! query answered (not hung up on), and a deliberately expired deadline
//! shed with an explicit response.
//!
//! This is also the CI end-to-end check for the serving stack: it exits
//! non-zero if any wire response disagrees with the in-process engine.
//!
//! Run with: `cargo run --release --example net_serving`

use fast_set_intersection::index::{Corpus, CorpusConfig};
use fast_set_intersection::net::protocol::{Status, DETAIL_CACHE_HIT};
use fast_set_intersection::net::{Client, NetConfig, NetServer, RequestFrame};
use fast_set_intersection::serve::{Request, ServeConfig, Server};
use fast_set_intersection::HashContext;
use std::sync::Arc;

fn main() {
    let corpus = Corpus::generate(CorpusConfig {
        num_docs: 50_000,
        num_terms: 48,
        ..CorpusConfig::default()
    });
    let serve = Arc::new(Server::from_corpus(
        HashContext::new(0x2011),
        corpus,
        ServeConfig {
            cache_capacity: 1024,
            ..ServeConfig::default()
        },
    ));
    let net = NetServer::start(Arc::clone(&serve), NetConfig::default()).expect("bind loopback");
    println!("serving on {}", net.local_addr());

    let mut client = Client::connect(net.local_addr()).expect("connect");

    // Plain queries: every wire answer must match the in-process engine.
    for (id, query) in ["0 AND 1", "(0 OR 1) AND 5 AND NOT 7", "3 4 5"]
        .iter()
        .enumerate()
    {
        let resp = client
            .call(&RequestFrame::query(id as u64, *query))
            .expect("call");
        assert_eq!(resp.status, Status::Ok, "{query}: {}", resp.message);
        let expect = serve.execute(&Request::expr(*query)).expect("valid");
        assert_eq!(resp.docs, expect.docs.as_slice(), "{query}");
        println!(
            "  [{:>2}] {query:32} -> {} docs in {} us",
            resp.id,
            resp.docs.len(),
            resp.latency_us
        );
    }

    // A tenant-billed repeat of the first query: served from the result
    // cache, and the wire says so.
    let resp = client
        .call(&RequestFrame::query(10, "0 AND 1").with_tenant(42))
        .expect("call");
    assert_eq!((resp.status, resp.detail), (Status::Ok, DETAIL_CACHE_HIT));
    println!("  [10] tenant 42 repeat -> cache hit on the wire");

    // Invalid queries come back as errors; the connection survives.
    let resp = client
        .call(&RequestFrame::query(11, "0 AND"))
        .expect("call");
    assert_eq!(resp.status, Status::InvalidQuery);
    println!("  [11] \"0 AND\" -> InvalidQuery: {}", resp.message);

    // An already-expired deadline is shed with an explicit response —
    // never executed, never silently dropped.
    let resp = client
        .call(&RequestFrame::query(12, "0 AND 1 AND 2").with_deadline_us(1))
        .expect("call");
    assert_eq!(resp.status, Status::Shed);
    println!("  [12] 1us deadline -> shed (detail {})", resp.detail);

    let snap = net.metrics();
    let requests = snap.counter("fsi_net_requests_total", &[]).unwrap_or(0);
    println!("server saw {requests} requests; shutting down");
    net.stop();
    println!("net serving OK");
}
