//! End-to-end serving over a real loopback socket: round trips,
//! protocol errors, admission control, deadline shedding, who answers
//! what (the reader: everything that needs no kernel; a worker: every
//! cache miss), framing under segmentation and overtaking, connection
//! reaping, the exactly-one-response guarantee under flood, the bounded
//! spin of an idle worker, and the bounded admission map.

use fsi_core::HashContext;
use fsi_index::{Corpus, CorpusConfig};
use fsi_net::protocol::{
    encode_request_into, frame_into, Status, DETAIL_CACHE_HIT, DETAIL_CACHE_MISS,
    DETAIL_SHED_ADMISSION,
};
use fsi_net::{Client, NetConfig, NetServer, ObsConfig, RequestFrame};
use fsi_obs::Snapshot;
use fsi_serve::{Request, ServeConfig, Server};
use std::collections::BTreeSet;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn serving_stack_with(serve: ServeConfig, net: NetConfig) -> (Arc<Server>, NetServer) {
    let corpus = Corpus::generate(CorpusConfig {
        num_docs: 20_000,
        num_terms: 24,
        ..CorpusConfig::default()
    });
    let serve = Arc::new(Server::from_corpus(HashContext::new(0x2011), corpus, serve));
    let net = NetServer::start(Arc::clone(&serve), net).expect("bind loopback");
    (serve, net)
}

fn serving_stack(net: NetConfig) -> (Arc<Server>, NetServer) {
    serving_stack_with(ServeConfig::default(), net)
}

/// A server whose every query is a miss: nothing the reader can answer.
fn cache_off() -> ServeConfig {
    ServeConfig { cache_capacity: 0 }
}

/// Every request's record is retained, however fast it was.
fn retain_everything() -> ObsConfig {
    ObsConfig {
        slow_threshold: Duration::ZERO,
        slowlog_capacity: 4096,
        ..ObsConfig::default()
    }
}

/// Queries that each make a worker do real work — a wide union, thousands
/// of documents out — with a distinct canonical form for every `i < 374`.
fn heavy_query(i: u64) -> String {
    let a = 6 + i % 17;
    let b = (i / 17) % 22;
    format!("(0 OR 1 OR 2 OR 3 OR 4 OR 5 OR {a}) AND NOT (23 AND {b})")
}

fn answered(snap: &Snapshot, by: &str) -> u64 {
    snap.counter("fsi_net_answered_total", &[("by", by)])
        .unwrap_or(0)
}

fn queue_wait_samples(snap: &Snapshot) -> u64 {
    snap.histogram("fsi_net_queue_wait_ns", &[("tenant", "anon")])
        .map_or(0, |h| h.count)
}

/// A request's books are closed after its response is written, so a
/// client can hold the response before the last histogram sample lands:
/// scrapes until `settled` holds, and returns that scrape.
fn settled_metrics(net: &NetServer, settled: impl Fn(&Snapshot) -> bool) -> Snapshot {
    for _ in 0..500 {
        let snap = net.metrics();
        if settled(&snap) {
            return snap;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("metrics never settled");
}

/// Retention happens after the response is written, so a client can
/// observe its response before the slow-log entry lands; poll briefly for
/// the record.
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
    let mut wire = Vec::new();
    frame_into(&mut wire, b"this is not a frame body");
    stream.write_all(&wire).expect("write");
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
    // One worker, one-request batches, no cache: a backlog forms behind
    // the first requests. A 1µs deadline is dead by the time anything
    // could execute it — refused by the reader if it expired before
    // `begin` looked, shed on dequeue by the worker otherwise — and either
    // way it is answered `Shed`, counted once, and nothing ran for it.
    let (serve, net) = serving_stack_with(
        cache_off(),
        NetConfig {
            workers: 1,
            batch_max: 1,
            queue_capacity: 256,
            ..NetConfig::default()
        },
    );
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
    assert_eq!(
        serve.stats().queries_served,
        BACKLOG,
        "the shed request was never executed"
    );
    net.stop();
}

/// A tiny queue and a slow drain force Overloaded rejections; the
/// invariant under test is conservation: N requests in, N explicit
/// responses out, each status accounted for, no frame torn. Returns the
/// final scrape.
fn flood(serve: ServeConfig, query: fn(u64) -> String) -> Snapshot {
    let (_serve, net) = serving_stack_with(
        serve,
        NetConfig {
            workers: 2,
            queue_capacity: 8,
            batch_max: 4,
            ..NetConfig::default()
        },
    );
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
                    // A torn or interleaved frame fails to decode here.
                    let resp = receiver.recv().expect("recv").expect("response");
                    seen.push((resp.id, resp.status));
                }
                seen
            });
            for i in 0..PER_CONN {
                let id = c as u64 * PER_CONN + i;
                sender
                    .send(&RequestFrame::query(id, query(id)).with_deadline_us(2_000))
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
    const TOTAL: u64 = CONNS as u64 * PER_CONN;
    ids.sort_unstable();
    let expect: Vec<u64> = (0..TOTAL).collect();
    assert_eq!(ids, expect, "every request id answered exactly once");
    assert_eq!(ok + shed + overloaded, TOTAL);
    let snap = net.metrics();
    let responses: u64 = ["ok", "shed", "overloaded"]
        .iter()
        .filter_map(|s| snap.counter("fsi_net_responses_total", &[("status", s)]))
        .sum();
    assert_eq!(responses, TOTAL, "server-side accounting");
    assert_eq!(
        answered(&snap, "reader") + answered(&snap, "worker"),
        TOTAL,
        "every response was written by exactly one thread"
    );
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
    snap
}

#[test]
fn flood_gets_exactly_one_response_per_request() {
    // Cold: every request that gets past the queue bound is a worker's.
    let snap = flood(cache_off(), |_| "0 AND 1 AND 2".to_string());
    assert!(answered(&snap, "worker") > 0);
}

#[test]
fn flood_with_the_cache_on_interleaves_reader_and_worker_frames_without_tearing() {
    // A few distinct queries over a warm-able cache: each one's first
    // sightings are misses a worker answers, the rest are hits the reader
    // answers itself — two kinds of thread writing 12 KB frames to one
    // socket, under a queue that is also refusing. Conservation must hold
    // all the same.
    let snap = flood(ServeConfig::default(), |id| heavy_query(id % 5));
    assert!(
        answered(&snap, "worker") > 0,
        "first sightings went to workers"
    );
    assert!(answered(&snap, "reader") > 0, "hits stayed on the reader");
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
        "\"connections\": 1",
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

/// Sends `BACKLOG` heavy, distinct, deadline-free queries down one
/// connection with `probe` pipelined right behind them, and drains every
/// response. Returns how long the lot took.
fn backlog_then_probe(
    sender: &mut Client,
    receiver: &mut Client,
    first_id: u64,
    probe: Option<&RequestFrame>,
) -> Duration {
    const BACKLOG: u64 = 256;
    let start = Instant::now();
    for i in 0..BACKLOG {
        sender
            .send(&RequestFrame::query(first_id + i, heavy_query(i)))
            .expect("send");
    }
    if let Some(probe) = probe {
        sender.send(probe).expect("send");
    }
    for _ in 0..BACKLOG + u64::from(probe.is_some()) {
        receiver.recv().expect("recv").expect("response");
    }
    start.elapsed()
}

/// The acceptance path: a request shed under flood leaves a retained
/// slow-log entry with per-stage timestamps, and that entry is
/// observable in-band over the wire `SlowLog` op.
#[test]
fn shed_requests_under_flood_are_retained_and_scrapable_via_the_slowlog_op() {
    // One worker, no cache: the backlog is the worker's to chew through.
    let (_serve, net) = serving_stack_with(
        cache_off(),
        NetConfig {
            workers: 1,
            batch_max: 1,
            queue_capacity: 1024,
            ..NetConfig::default()
        },
    );
    let client = Client::connect(net.local_addr()).expect("connect");
    let mut sender = client.try_clone().expect("clone");
    let mut receiver = client;
    // A deadline that is alive when the reader looks and dead when the
    // worker does, without guessing at this box's speed: time the backlog
    // once, then give the probe an eighth of that. The reader gets to the
    // probe in a few percent of the drain time (it only compiles the
    // queries ahead of it); the worker needs all of it.
    let drain = backlog_then_probe(&mut sender, &mut receiver, 0, None);
    let budget_us = (drain.as_micros() / 8).clamp(1, u128::from(u32::MAX)) as u32;
    let shed = (1u64..=5)
        .find_map(|attempt| {
            let id = attempt * 10_000;
            let probe = RequestFrame::query(id, "0 AND 1")
                .with_deadline_us(budget_us)
                .with_tenant(3);
            backlog_then_probe(&mut sender, &mut receiver, id + 1, Some(&probe));
            let entry = wait_for_slowlog_entry(&net, id);
            // A stalled reader can still let the deadline lapse before
            // `begin`; that is the other test's sequence. Go again.
            entry
                .stages
                .iter()
                .any(|s| s.name == "queue")
                .then_some(entry)
        })
        .expect("a probe queued behind the backlog");
    // Shed outcomes are always retained, whatever the latency threshold.
    assert_eq!((shed.outcome, shed.reason), ("shed", "deadline_expired"));
    assert_eq!(shed.tenant, Some(3));
    let names: Vec<&str> = shed.stages.iter().map(|s| s.name).collect();
    assert_eq!(
        names,
        ["decode", "queue", "write"],
        "stage timestamps cover the lifecycle up to the shed on dequeue"
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
    let shed_id = format!("\"id\": {},", shed.id);
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
fn reader_answered_requests_have_no_queue_stage() {
    let (_serve, net) = serving_stack(NetConfig {
        obs: retain_everything(),
        ..NetConfig::default()
    });
    let mut client = Client::connect(net.local_addr()).expect("connect");
    let stages = |id| -> Vec<&'static str> {
        let entry = wait_for_slowlog_entry(&net, id);
        entry.stages.iter().map(|s| s.name).collect()
    };
    // A miss goes through the queue; the same query again is a hit, and a
    // hit never waits for anyone.
    for (id, detail) in [(1, DETAIL_CACHE_MISS), (2, DETAIL_CACHE_HIT)] {
        let resp = client
            .call(&RequestFrame::query(id, "0 AND 1"))
            .expect("call");
        assert_eq!((resp.status, resp.detail), (Status::Ok, detail));
    }
    assert_eq!(stages(1), ["decode", "queue", "execute", "write"]);
    assert_eq!(stages(2), ["decode", "execute", "write"]);
    assert_eq!(wait_for_slowlog_entry(&net, 2).reason, "cache_hit");
    // So does everything else `begin` settles: an invalid query…
    let resp = client.call(&RequestFrame::query(3, "0 AND")).expect("call");
    assert_eq!(resp.status, Status::InvalidQuery);
    assert_eq!(stages(3), ["decode", "execute", "write"]);
    // …and a deadline that is already gone on arrival, refused before it
    // is queued. To make "already gone" certain the frame is as large as
    // a frame may be: validating and copying 60 KB of multi-byte text
    // takes several times its own 1µs budget. (Were the deadline somehow
    // still alive, this text would come back `InvalidQuery`, not `Shed`.)
    let oversized = "é".repeat(30_000);
    let resp = client
        .call(&RequestFrame::query(4, oversized).with_deadline_us(1))
        .expect("call");
    assert_eq!(resp.status, Status::Shed);
    let entry = wait_for_slowlog_entry(&net, 4);
    assert_eq!((entry.outcome, entry.reason), ("shed", "deadline_expired"));
    assert_eq!(stages(4), ["decode", "execute", "write"]);
    // One miss waited in the queue; nothing else did.
    let snap = settled_metrics(&net, |snap| queue_wait_samples(snap) >= 1);
    assert_eq!(queue_wait_samples(&snap), 1);
    assert_eq!(
        (answered(&snap, "worker"), answered(&snap, "reader")),
        (1, 3)
    );
    net.stop();
}

#[test]
fn the_reader_never_evaluates_and_workers_never_see_a_hit() {
    const N: u64 = 40;
    let pass = |client: &mut Client, first_id: u64| {
        for i in 0..N {
            let resp = client
                .call(&RequestFrame::query(first_id + i, heavy_query(i)))
                .expect("call");
            assert_eq!(resp.status, Status::Ok, "{}", resp.message);
        }
    };
    // Cache off: every query needs the kernels, so every one crosses the
    // queue to a worker — on an idle server too — and leaves a wait sample.
    let (_serve, cold) = serving_stack_with(cache_off(), NetConfig::default());
    let mut client = Client::connect(cold.local_addr()).expect("connect");
    pass(&mut client, 0);
    let snap = settled_metrics(&cold, |snap| queue_wait_samples(snap) >= N);
    assert_eq!(
        (answered(&snap, "worker"), answered(&snap, "reader")),
        (N, 0)
    );
    assert_eq!(queue_wait_samples(&snap), N);
    // Who answers does not change who was admitted.
    let admitted = |snap: &Snapshot| {
        let labels = [("tenant", "anon"), ("outcome", "admitted")];
        snap.counter("fsi_net_tenant_requests_total", &labels)
    };
    assert_eq!(admitted(&snap), Some(N));
    cold.stop();
    // Cache on: the first pass is all misses, the second all hits — and
    // the second is the reader's alone.
    let (_serve, warm) = serving_stack(NetConfig::default());
    let mut client = Client::connect(warm.local_addr()).expect("connect");
    pass(&mut client, 0);
    let snap = warm.metrics();
    assert_eq!(
        (answered(&snap, "worker"), answered(&snap, "reader")),
        (N, 0)
    );
    pass(&mut client, N);
    let executed = |snap: &Snapshot| {
        snap.histogram("fsi_net_stage_ns", &[("stage", "execute")])
            .map_or(0, |h| h.count)
    };
    let snap = settled_metrics(&warm, |snap| executed(snap) >= 2 * N);
    assert_eq!(
        (answered(&snap, "worker"), answered(&snap, "reader")),
        (N, N)
    );
    assert_eq!(queue_wait_samples(&snap), N, "hits left no wait sample");
    assert_eq!(admitted(&snap), Some(2 * N));
    warm.stop();
}

fn handoffs(snap: &Snapshot, via: &str) -> u64 {
    snap.counter("fsi_net_handoff_total", &[("via", via)])
        .expect("exported from the first scrape on")
}

fn spin_ns(snap: &Snapshot) -> u64 {
    snap.counter("fsi_net_spin_ns_total", &[])
        .expect("exported from the first scrape on")
}

/// The spin is bounded: a server nobody talks to has every worker on the
/// condvar — the polling-time counter stops — and is woken the old way.
#[test]
fn idle_server_parks_every_worker() {
    const WORKERS: usize = 4;
    let (_serve, net) = serving_stack_with(
        cache_off(),
        NetConfig {
            workers: WORKERS,
            ..NetConfig::default()
        },
    );
    // Each worker polls for at most one budget (100 µs) before it parks;
    // wait until two scrapes a long way apart (in budgets) agree.
    let mut before = spin_ns(&net.metrics());
    let settled = (0..500)
        .find_map(|_| {
            std::thread::sleep(Duration::from_millis(10));
            let now = spin_ns(&net.metrics());
            let still = now == before && now > 0;
            before = now;
            still.then_some(now)
        })
        .expect("the workers never stopped polling");
    std::thread::sleep(Duration::from_millis(50));
    let snap = net.metrics();
    assert_eq!(spin_ns(&snap), settled, "an idle server is still polling");
    assert_eq!((handoffs(&snap, "spin"), handoffs(&snap, "park")), (0, 0));
    // The first miss finds everyone parked: one wake-up, no spin.
    let mut client = Client::connect(net.local_addr()).expect("connect");
    let resp = client
        .call(&RequestFrame::query(1, heavy_query(1)))
        .expect("call");
    assert_eq!(resp.status, Status::Ok, "{}", resp.message);
    let snap = settled_metrics(&net, |snap| answered(snap, "worker") == 1);
    assert_eq!((handoffs(&snap, "spin"), handoffs(&snap, "park")), (0, 1));
    // Back-to-back misses from one caller: every one of them is handed
    // to a worker that had to wait for it, spinning or parked (unless the
    // next frame beat the worker back to the queue).
    for id in 2..40 {
        let resp = client
            .call(&RequestFrame::query(id, heavy_query(id)))
            .expect("call");
        assert_eq!(resp.status, Status::Ok, "{}", resp.message);
    }
    let snap = settled_metrics(&net, |snap| answered(snap, "worker") == 39);
    let waited = handoffs(&snap, "spin") + handoffs(&snap, "park");
    assert!(
        (1..=39).contains(&waited),
        "{waited} hand-offs for 39 misses"
    );
    assert!(spin_ns(&snap) > settled, "the woken worker polled again");
    net.stop();
}

/// The fault: one client cycling through more tenant ids than the
/// admission map holds. Every stranger is admitted, the evictions that
/// kept the map bounded are on the scrape, and the tenant that was
/// throttled before the sweep — and kept knocking — still is after it.
#[test]
fn tenant_id_sweep_is_bounded_and_counted() {
    const FLOODER: u32 = 7;
    let (_serve, net) = serving_stack(NetConfig {
        tenant_rate: 0.0, // no refill: nothing ever frees itself
        tenant_burst: 1.0,
        ..NetConfig::default()
    });
    let evictions = |net: &NetServer| {
        net.metrics()
            .counter("fsi_net_admission_evictions_total", &[])
            .expect("exported from the first scrape on")
    };
    let mut client = Client::connect(net.local_addr()).expect("connect");
    let mut call = |id: u64, tenant: u32| {
        client
            .call(&RequestFrame::query(id, "0 AND 1").with_tenant(tenant))
            .expect("call")
            .status
    };
    assert_eq!(call(0, FLOODER), Status::Ok);
    assert_eq!(call(1, FLOODER), Status::Overloaded);
    assert_eq!(evictions(&net), 0);
    let sweep = fsi_net::admission::MAX_TENANTS as u32 + 500;
    for i in 0..sweep {
        assert_eq!(call(u64::from(i) + 2, 1_000 + i), Status::Ok, "tenant {i}");
        if i % 500 == 0 {
            assert_eq!(call(0, FLOODER), Status::Overloaded, "at sweep {i}");
        }
    }
    assert!(evictions(&net) >= 500, "{} evicted", evictions(&net));
    assert_eq!(call(1, FLOODER), Status::Overloaded, "throttled to the end");
    net.stop();
}

#[test]
fn frames_survive_segmentation() {
    let (_serve, net) = serving_stack(NetConfig::default());
    // 64 request frames in a single write: the reader's buffer holds many
    // frames at once, and each is answered exactly once.
    const BURST: u64 = 64;
    let mut stream = TcpStream::connect(net.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut wire = Vec::new();
    for id in 0..BURST {
        encode_request_into(&mut wire, &RequestFrame::query(id, heavy_query(id % 7)));
    }
    stream.write_all(&wire).expect("one write");
    let mut client = Client::from_stream(stream.try_clone().expect("clone"));
    let ids: BTreeSet<u64> = (0..BURST)
        .map(|_| {
            let resp = client.recv().expect("recv").expect("response");
            assert_eq!(resp.status, Status::Ok, "{}", resp.message);
            resp.id
        })
        .collect();
    assert_eq!(
        ids,
        (0..BURST).collect(),
        "each frame answered exactly once"
    );
    // One frame dribbled a byte at a time, every byte its own segment:
    // the reader must wait for the rest, not mistake a short read for EOF
    // or lose bytes between reads.
    let mut wire = Vec::new();
    encode_request_into(&mut wire, &RequestFrame::query(1_000, "0 AND 1"));
    for byte in &wire {
        stream.write_all(std::slice::from_ref(byte)).expect("byte");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_micros(200));
    }
    let resp = client.recv().expect("recv").expect("response");
    assert_eq!((resp.status, resp.id), (Status::Ok, 1_000));
    net.stop();
}

#[test]
fn a_hit_may_overtake_the_miss_sent_before_it() {
    let (_serve, net) = serving_stack(NetConfig::default());
    let mut client = Client::connect(net.local_addr()).expect("connect");
    let cached = client
        .call(&RequestFrame::query(0, "0 AND 1"))
        .expect("call");
    assert_eq!(cached.status, Status::Ok);
    // A sender and a receiver over one socket, split before the receiver
    // buffers anything. A miss that has to be computed, then a hit: both
    // come back, each under its own id, in either order.
    let mut sender = client.try_clone().expect("clone");
    let mut receiver = client;
    for round in 0..50u64 {
        let (miss, hit) = (10 + 2 * round, 11 + 2 * round);
        sender
            .send(&RequestFrame::query(miss, heavy_query(100 + round)))
            .expect("send");
        sender
            .send(&RequestFrame::query(hit, "0 AND 1"))
            .expect("send");
        let mut details = [None, None];
        for _ in 0..2 {
            let resp = receiver.recv().expect("recv").expect("response");
            assert_eq!(resp.status, Status::Ok, "{}", resp.message);
            let slot = usize::from(resp.id == hit);
            assert!(resp.id == miss || resp.id == hit, "stray id {}", resp.id);
            assert!(
                details[slot].replace(resp.detail).is_none(),
                "answered twice"
            );
            if resp.id == hit {
                assert_eq!(resp.docs, cached.docs);
            }
        }
        assert_eq!(details, [Some(DETAIL_CACHE_MISS), Some(DETAIL_CACHE_HIT)]);
    }
    net.stop();
}

#[test]
fn closed_connections_are_reaped() {
    let (_serve, net) = serving_stack(NetConfig::default());
    const CYCLES: u64 = 300;
    for id in 0..CYCLES {
        let mut client = Client::connect(net.local_addr()).expect("connect");
        let resp = client
            .call(&RequestFrame::query(id, "0 AND 1"))
            .expect("call");
        assert_eq!(resp.status, Status::Ok);
    }
    // Every reader sees its client's close and exits; only the prober's
    // own connection stays open.
    let mut prober = Client::connect(net.local_addr()).expect("connect");
    let settled = (0..2_000).any(|_| {
        let health = prober.health().expect("health");
        health.contains("\"connections\": 1,") || {
            std::thread::sleep(Duration::from_millis(2));
            false
        }
    });
    assert!(settled, "readers of closed connections never exited");
    assert_eq!(
        net.metrics().gauge("fsi_net_connections_open", &[]),
        Some(1)
    );
    // The accept loop reaps as it accepts: one more connection, and the
    // server is down to the two that are open — sockets dropped, reader
    // threads joined — not the 300 it has seen.
    let _second = Client::connect(net.local_addr()).expect("connect");
    let accepted = |snap: &Snapshot| snap.counter("fsi_net_connections_total", &[]);
    settled_metrics(&net, |snap| {
        accepted(snap) == Some(CYCLES + 2) && net.tracked_connections() == 2
    });
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
    let trace = entry.trace.as_ref().expect(
        "head-sampled requests run traced, and the trace rides along from the reader's \
         half to the worker's",
    );
    for span in ["parse", "cache", "exec"] {
        assert!(trace.span(span).is_some(), "missing span {span}");
    }
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
