//! The in-band admin surface end to end: start a [`NetServer`], serve a
//! little traffic (including a deliberately shed request), then scrape
//! everything back over the *same* TCP protocol — the Prometheus metrics
//! exposition (net + serve + global registries in one document), the
//! health snapshot, and the tail-sampled slow-query log with per-stage
//! timestamps.
//!
//! This is also the CI end-to-end check for the observability wiring: it
//! exits non-zero if the scrape is missing a registry, if the shed
//! request's record never lands in the slow log, or if the retained
//! record lacks its lifecycle stages.
//!
//! Run with: `cargo run --release --example metrics_scrape`

use fast_set_intersection::index::{Corpus, CorpusConfig};
use fast_set_intersection::net::protocol::Status;
use fast_set_intersection::net::{Client, NetConfig, NetServer, ObsConfig, RequestFrame};
use fast_set_intersection::obs::SlowLogEntry;
use fast_set_intersection::serve::{ServeConfig, Server};
use fast_set_intersection::HashContext;
use std::sync::Arc;
use std::time::Duration;

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
    // Head-sample everything so even fast successes land in the slow log
    // with a full query trace — handy for a demo, 1-in-N in production.
    let net = NetServer::start(
        Arc::clone(&serve),
        NetConfig {
            obs: ObsConfig {
                head_sample_every: 1,
                ..ObsConfig::default()
            },
            ..NetConfig::default()
        },
    )
    .expect("bind loopback");
    println!("serving on {}", net.local_addr());

    let mut client = Client::connect(net.local_addr()).expect("connect");

    // Some traffic to observe: three served queries from two tenants…
    for (id, query) in ["0 AND 1", "(0 OR 1) AND 5", "3 4 5"].iter().enumerate() {
        let resp = client
            .call(&RequestFrame::query(id as u64, *query).with_tenant((id % 2) as u32))
            .expect("call");
        assert_eq!(resp.status, Status::Ok, "{query}: {}", resp.message);
    }
    // …and one shed: a 1µs deadline is dead before anything could run for
    // it — refused by the reader if it has lapsed by the time `begin`
    // looks, shed by the worker on dequeue otherwise — and shed outcomes
    // are always retained, whatever the latency threshold.
    let resp = client
        .call(&RequestFrame::query(9, "0 AND 1 AND 2").with_deadline_us(1))
        .expect("call");
    assert_eq!(resp.status, Status::Shed);

    // 1. The metrics scrape: one wire op, one Prometheus document, all
    //    three registries (front door, serving engine, process-global).
    let prom = client.metrics().expect("metrics op");
    for family in [
        "fsi_net_requests_total",
        "fsi_net_queue_wait_ns",
        "fsi_net_stage_ns_count{stage=\"decode\"}",
        "fsi_net_answered_total{by=\"worker\"}",
        "fsi_net_tenant_requests_total",
        "fsi_net_handoff_total{via=\"park\"}",
        "fsi_net_spin_ns_total",
        "fsi_net_admission_evictions_total",
        "fsi_queries_served_total",
        "fsi_plan_kind_total",
        "fsi_index_bytes{repr=\"hash\"}",
        "fsi_index_lists{membership=\"bitmap\"}",
    ] {
        assert!(prom.contains(family), "scrape is missing {family}");
    }
    println!(
        "metrics scrape: {} bytes, {} families",
        prom.len(),
        prom.lines().filter(|l| l.starts_with("# TYPE")).count()
    );

    // 2. The health snapshot: queue and slow-log state as JSON.
    let health = client.health().expect("health op");
    assert!(health.contains("\"status\": \"ok\""), "{health}");
    println!("health: {health}");

    // 3. The slow log. Retention happens just after the response write,
    //    so poll briefly for the shed record.
    let shed: Arc<SlowLogEntry> = (0..500)
        .find_map(|_| {
            net.slow_log().into_iter().find(|e| e.id == 9).or_else(|| {
                std::thread::sleep(Duration::from_millis(2));
                None
            })
        })
        .expect("the shed request is retained");
    assert_eq!((shed.outcome, shed.reason), ("shed", "deadline_expired"));
    // Who shed it shows in the stage timeline: a request the reader
    // refused never waited, so it has an `execute` stage (the deadline
    // check) and no `queue` stage; one shed on dequeue has the reverse.
    let names: Vec<&str> = shed.stages.iter().map(|s| s.name).collect();
    assert!(
        names == ["decode", "execute", "write"] || names == ["decode", "queue", "write"],
        "stage timestamps retained: {:?}",
        shed.stages
    );
    // The same record is observable over the wire op.
    let dump = client.slowlog().expect("slowlog op");
    assert!(dump.contains("\"id\": 9,"), "{dump}");
    assert!(dump.contains("\"reason\": \"deadline_expired\""), "{dump}");
    println!("slow log retains the shed request with stages:");
    for s in &shed.stages {
        println!(
            "  {:>8}: start +{} ns, took {} ns",
            s.name, s.start_ns, s.dur_ns
        );
    }

    net.stop();
    println!("metrics scrape OK");
}
