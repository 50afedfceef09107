//! End-to-end serving over a real loopback socket: round trips,
//! protocol errors, admission control, deadline shedding, and the
//! exactly-one-response guarantee under flood.

use fsi_core::HashContext;
use fsi_index::{Corpus, CorpusConfig};
use fsi_net::protocol::{write_frame, Status, DETAIL_CACHE_HIT, DETAIL_SHED_ADMISSION};
use fsi_net::{Client, NetConfig, NetServer, ObsConfig, RequestFrame};
use fsi_serve::{Request, ServeConfig, Server};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn serving_stack(net: NetConfig) -> (Arc<Server>, NetServer) {
    let corpus = Corpus::generate(CorpusConfig {
        num_docs: 20_000,
        num_terms: 24,
        ..CorpusConfig::default()
    });
    let serve = Arc::new(Server::from_corpus(
        HashContext::new(0x2011),
        corpus,
        ServeConfig::default(),
    ));
    let net = NetServer::start(Arc::clone(&serve), net).expect("bind loopback");
    (serve, net)
}

/// Retention happens on the worker after the response is written, so a
/// client can observe its response before the slow-log entry lands;
/// poll briefly for the record.
fn wait_for_slowlog_entry(net: &NetServer, id: u64) -> Arc<fsi_obs::SlowLogEntry> {
    for _ in 0..500 {
        if let Some(e) = net.slow_log().into_iter().find(|e| e.id == id) {
            return e;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("request {id} never showed up in the slow log");
}

#[test]
fn queries_round_trip_and_match_in_process_results() {
    let (serve, net) = serving_stack(NetConfig::default());
    let mut client = Client::connect(net.local_addr()).expect("connect");
    for (id, query) in ["0 AND 1", "(0 OR 1) AND NOT 2", "5 AND 9 AND 13"]
        .iter()
        .enumerate()
    {
        let resp = client
            .call(&RequestFrame::query(id as u64, *query))
            .expect("call");
        assert_eq!(resp.status, Status::Ok, "{query}: {}", resp.message);
        assert_eq!(resp.id, id as u64);
        let expect = serve.execute(&Request::expr(*query)).expect("valid");
        assert_eq!(
            resp.docs,
            expect.docs.as_slice(),
            "wire result matches in-process result for {query}"
        );
    }
    // The second identical query is a cache hit, reported on the wire.
    let resp = client
        .call(&RequestFrame::query(7, "0 AND 1"))
        .expect("call");
    assert_eq!((resp.status, resp.detail), (Status::Ok, DETAIL_CACHE_HIT));
    net.stop();
}

#[test]
fn invalid_queries_get_error_responses_not_hangups() {
    let (_serve, net) = serving_stack(NetConfig::default());
    let mut client = Client::connect(net.local_addr()).expect("connect");
    let resp = client.call(&RequestFrame::query(1, "0 AND")).expect("call");
    assert_eq!(resp.status, Status::InvalidQuery);
    assert!(!resp.message.is_empty(), "carries the compile error");
    let resp = client
        .call(&RequestFrame::query(2, "0 AND 99999"))
        .expect("call");
    assert_eq!(resp.status, Status::InvalidQuery);
    assert!(resp.message.contains("unknown term"), "{}", resp.message);
    // The connection survives invalid queries.
    let resp = client
        .call(&RequestFrame::query(3, "0 AND 1"))
        .expect("call");
    assert_eq!(resp.status, Status::Ok);
    net.stop();
}

#[test]
fn garbage_bytes_get_bad_frame_then_close() {
    let (_serve, net) = serving_stack(NetConfig::default());
    // Raw socket: a plausible length prefix followed by garbage.
    let mut stream = TcpStream::connect(net.local_addr()).expect("connect");
    write_frame(&mut stream, b"this is not a frame body").expect("write");
    let mut client = Client::from_stream(stream);
    let resp = client
        .recv()
        .expect("bad-frame response")
        .expect("one frame");
    assert_eq!(resp.status, Status::BadFrame);
    assert!(!resp.message.is_empty());
    assert_eq!(client.recv().expect("clean close"), None, "server closed");
    // An oversized length prefix is also answered before the close.
    let mut stream = TcpStream::connect(net.local_addr()).expect("connect");
    use std::io::Write;
    stream.write_all(&u32::MAX.to_le_bytes()).expect("write");
    stream.flush().expect("flush");
    let mut client = Client::from_stream(stream);
    let resp = client
        .recv()
        .expect("bad-frame response")
        .expect("one frame");
    assert_eq!(resp.status, Status::BadFrame);
    net.stop();
}

#[test]
fn tenant_token_buckets_clip_floods_per_tenant() {
    let (_serve, net) = serving_stack(NetConfig {
        tenant_rate: 0.0, // no refill: the burst is the whole budget
        tenant_burst: 2.0,
        ..NetConfig::default()
    });
    let mut client = Client::connect(net.local_addr()).expect("connect");
    let statuses: Vec<Status> = (0..4)
        .map(|i| {
            client
                .call(&RequestFrame::query(i, "0 AND 1").with_tenant(5))
                .expect("call")
                .status
        })
        .collect();
    assert_eq!(
        statuses,
        [
            Status::Ok,
            Status::Ok,
            Status::Overloaded,
            Status::Overloaded
        ],
        "burst of 2, then admission denial"
    );
    let denied = client
        .call(&RequestFrame::query(9, "0 AND 1").with_tenant(5))
        .expect("call");
    assert_eq!(denied.detail, DETAIL_SHED_ADMISSION);
    // Another tenant and anonymous traffic are unaffected.
    let resp = client
        .call(&RequestFrame::query(10, "0 AND 1").with_tenant(6))
        .expect("call");
    assert_eq!(resp.status, Status::Ok);
    let resp = client
        .call(&RequestFrame::query(11, "0 AND 1"))
        .expect("call");
    assert_eq!(resp.status, Status::Ok);
    net.stop();
}

#[test]
fn expired_deadlines_shed_instead_of_executing() {
    // One worker, one-request batches: a backlog forms behind the first
    // requests, so a 1µs deadline is long dead by dequeue time.
    let (_serve, net) = serving_stack(NetConfig {
        workers: 1,
        batch_max: 1,
        queue_capacity: 256,
        ..NetConfig::default()
    });
    let client = Client::connect(net.local_addr()).expect("connect");
    let mut sender = client.try_clone().expect("clone");
    let mut receiver = client;
    const BACKLOG: u64 = 64;
    for id in 0..BACKLOG {
        sender
            .send(&RequestFrame::query(id, "0 AND 1 AND 2"))
            .expect("send");
    }
    sender
        .send(&RequestFrame::query(BACKLOG, "0 AND 1").with_deadline_us(1))
        .expect("send");
    let mut served = 0u32;
    let mut shed = 0u32;
    for _ in 0..=BACKLOG {
        let resp = receiver.recv().expect("recv").expect("response");
        match resp.status {
            Status::Ok => served += 1,
            Status::Shed => {
                assert_eq!(resp.id, BACKLOG, "only the tight deadline sheds");
                shed += 1;
            }
            other => panic!("unexpected status {other:?}"),
        }
    }
    assert_eq!((served, shed), (BACKLOG as u32, 1));
    let snap = net.metrics();
    assert_eq!(
        snap.counter("fsi_net_shed_total", &[("reason", "deadline_expired")]),
        Some(1)
    );
    net.stop();
}

#[test]
fn flood_gets_exactly_one_response_per_request() {
    // A tiny queue and a slow drain force Overloaded rejections; the
    // invariant under test is conservation: N requests in, N explicit
    // responses out, each status accounted for.
    let (_serve, net) = serving_stack(NetConfig {
        workers: 2,
        queue_capacity: 8,
        batch_max: 4,
        ..NetConfig::default()
    });
    const CONNS: usize = 3;
    const PER_CONN: u64 = 200;
    let mut handles = Vec::new();
    for c in 0..CONNS {
        let addr = net.local_addr();
        handles.push(std::thread::spawn(move || {
            let client = Client::connect(addr).expect("connect");
            let mut sender = client.try_clone().expect("clone");
            let mut receiver = client;
            let reader = std::thread::spawn(move || {
                let mut seen = Vec::new();
                for _ in 0..PER_CONN {
                    let resp = receiver.recv().expect("recv").expect("response");
                    seen.push((resp.id, resp.status));
                }
                seen
            });
            for i in 0..PER_CONN {
                let id = c as u64 * PER_CONN + i;
                sender
                    .send(&RequestFrame::query(id, "0 AND 1 AND 2").with_deadline_us(2_000))
                    .expect("send");
            }
            reader.join().expect("reader thread")
        }));
    }
    let mut ok = 0u64;
    let mut shed = 0u64;
    let mut overloaded = 0u64;
    let mut ids = Vec::new();
    for h in handles {
        for (id, status) in h.join().expect("conn thread") {
            ids.push(id);
            match status {
                Status::Ok => ok += 1,
                Status::Shed => shed += 1,
                Status::Overloaded => overloaded += 1,
                other => panic!("unexpected status {other:?}"),
            }
        }
    }
    ids.sort_unstable();
    let expect: Vec<u64> = (0..CONNS as u64 * PER_CONN).collect();
    assert_eq!(ids, expect, "every request id answered exactly once");
    assert_eq!(ok + shed + overloaded, CONNS as u64 * PER_CONN);
    let snap = net.metrics();
    let responses: u64 = ["ok", "shed", "overloaded"]
        .iter()
        .filter_map(|s| snap.counter("fsi_net_responses_total", &[("status", s)]))
        .sum();
    assert_eq!(responses, CONNS as u64 * PER_CONN, "server-side accounting");
    // Whether any flood request beat its 2 ms deadline depends on the
    // box (a loaded single-core CI runner can legitimately shed all of
    // them), so "some were served" is asserted on a deterministic probe
    // instead: the flood has fully drained (every request was answered),
    // so a fresh deadline-free request must be admitted and served.
    let mut probe = Client::connect(net.local_addr()).expect("connect");
    let resp = probe
        .call(&RequestFrame::query(u64::MAX, "0 AND 1 AND 2"))
        .expect("post-flood call");
    assert_eq!(resp.status, Status::Ok, "server serves again after flood");
    net.stop();
}

#[test]
fn admin_metrics_and_health_answer_in_band() {
    let (_serve, net) = serving_stack(NetConfig::default());
    let mut client = Client::connect(net.local_addr()).expect("connect");
    let resp = client
        .call(&RequestFrame::query(1, "0 AND 1"))
        .expect("call");
    assert_eq!(resp.status, Status::Ok);
    // One wire scrape sees all three registries: the front door's
    // (`fsi_net_*`), the serving engine's, and the process-global one
    // the planner and kernels dispatch into.
    let prom = client.metrics().expect("metrics");
    for family in [
        "fsi_net_requests_total",
        "fsi_queries_served_total",
        "fsi_plan_kind_total",
    ] {
        assert!(prom.contains(family), "scrape is missing {family}:\n{prom}");
    }
    // The in-process snapshot is the same merge (pins the namespaces
    // staying disjoint: counts come through unscaled, not doubled).
    let snap = net.metrics();
    assert_eq!(snap.counter("fsi_net_requests_total", &[]), Some(1));
    assert_eq!(snap.counter("fsi_queries_served_total", &[]), Some(1));
    assert_eq!(
        snap.counter("fsi_net_admin_requests_total", &[("op", "metrics")]),
        Some(1)
    );
    let health = client.health().expect("health");
    for needle in [
        "\"status\": \"ok\"",
        "\"lifecycle\": true",
        "\"queue_capacity\"",
        "\"slowlog_capacity\": 256",
    ] {
        assert!(
            health.contains(needle),
            "health is missing {needle}: {health}"
        );
    }
    net.stop();
}

/// The acceptance path: a request shed under flood leaves a retained
/// slow-log entry with per-stage timestamps, and that entry is
/// observable in-band over the wire `SlowLog` op.
#[test]
fn shed_requests_under_flood_are_retained_and_scrapable_via_the_slowlog_op() {
    let (_serve, net) = serving_stack(NetConfig {
        workers: 1,
        batch_max: 1,
        queue_capacity: 256,
        ..NetConfig::default()
    });
    let client = Client::connect(net.local_addr()).expect("connect");
    let mut sender = client.try_clone().expect("clone");
    let mut receiver = client;
    const BACKLOG: u64 = 64;
    for id in 0..BACKLOG {
        sender
            .send(&RequestFrame::query(id, "0 AND 1 AND 2"))
            .expect("send");
    }
    sender
        .send(
            &RequestFrame::query(BACKLOG, "0 AND 1")
                .with_deadline_us(1)
                .with_tenant(3),
        )
        .expect("send");
    for _ in 0..=BACKLOG {
        receiver.recv().expect("recv").expect("response");
    }
    // Shed outcomes are always retained, whatever the latency threshold.
    let shed = wait_for_slowlog_entry(&net, BACKLOG);
    assert_eq!((shed.outcome, shed.reason), ("shed", "deadline_expired"));
    assert_eq!(shed.tenant, Some(3));
    let names: Vec<&str> = shed.stages.iter().map(|s| s.name).collect();
    assert_eq!(
        names,
        ["decode", "queue", "write"],
        "stage timestamps cover the lifecycle up to the shed"
    );
    assert!(
        shed.stages
            .iter()
            .any(|s| s.name == "queue" && s.dur_ns > 0),
        "the queue wait behind the backlog is attributed: {:?}",
        shed.stages
    );
    // The same record comes back over the wire, on a fresh connection,
    // without touching admission or the queue.
    let mut admin = Client::connect(net.local_addr()).expect("connect");
    let json = admin.slowlog().expect("slowlog");
    let shed_id = format!("\"id\": {BACKLOG},");
    for needle in [
        shed_id.as_str(),
        "\"outcome\": \"shed\"",
        "\"reason\": \"deadline_expired\"",
        "\"name\": \"queue\"",
    ] {
        assert!(
            json.contains(needle),
            "slow-log dump is missing {needle}: {json}"
        );
    }
    net.stop();
}

#[test]
fn head_sampled_successes_carry_a_full_trace_into_the_slow_log() {
    let (_serve, net) = serving_stack(NetConfig {
        obs: ObsConfig {
            head_sample_every: 1, // sample everything
            ..ObsConfig::default()
        },
        ..NetConfig::default()
    });
    let mut client = Client::connect(net.local_addr()).expect("connect");
    let resp = client
        .call(&RequestFrame::query(9, "0 AND 1"))
        .expect("call");
    assert_eq!(resp.status, Status::Ok);
    let entry = wait_for_slowlog_entry(&net, 9);
    assert_eq!((entry.outcome, entry.reason), ("ok", "cache_miss"));
    assert_eq!(entry.query, "0 AND 1");
    let names: Vec<&str> = entry.stages.iter().map(|s| s.name).collect();
    assert_eq!(names, ["decode", "queue", "execute", "write"]);
    assert!(
        entry.trace.is_some(),
        "head-sampled requests run traced, and the trace rides along"
    );
    assert!(!entry.plan_summary.is_empty(), "plan summary recorded");
    net.stop();
}

#[test]
fn stripped_lifecycle_mode_still_serves_and_answers_admin_ops() {
    let (_serve, net) = serving_stack(NetConfig {
        obs: ObsConfig {
            lifecycle: false,
            ..ObsConfig::default()
        },
        ..NetConfig::default()
    });
    let mut client = Client::connect(net.local_addr()).expect("connect");
    let resp = client
        .call(&RequestFrame::query(1, "0 AND 1"))
        .expect("call");
    assert_eq!(resp.status, Status::Ok);
    let health = client.health().expect("health");
    assert!(health.contains("\"lifecycle\": false"), "{health}");
    // No retention and no per-tenant lifecycle series in stripped mode —
    // but the admin surface itself still answers.
    let json = client.slowlog().expect("slowlog");
    assert!(json.contains("\"capacity\": 0"), "{json}");
    assert!(!json.contains("\"id\":"), "nothing retained: {json}");
    let snap = net.metrics();
    assert!(snap
        .histogram("fsi_net_queue_wait_ns", &[("tenant", "anon")])
        .is_none());
    assert_eq!(snap.counter("fsi_net_requests_total", &[]), Some(1));
    net.stop();
}

#[test]
fn stop_is_idempotent_and_joins_everything() {
    let (_serve, net) = serving_stack(NetConfig::default());
    let mut client = Client::connect(net.local_addr()).expect("connect");
    let resp = client
        .call(&RequestFrame::query(1, "0 AND 1"))
        .expect("call");
    assert_eq!(resp.status, Status::Ok);
    net.stop();
    net.stop(); // second stop is a no-op
    assert!(
        client.call(&RequestFrame::query(2, "0 AND 1")).is_err(),
        "stopped server answers nothing"
    );
}
