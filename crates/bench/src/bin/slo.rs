//! Open-loop SLO benchmark for the TCP serving stack.
//!
//! Closed-loop benchmarks (like the worker-scaling rows `BENCH_serve.json`
//! used to carry) hide overload: the load generator waits for each
//! response, so offered load politely collapses to whatever the server
//! sustains and tail latencies look flat. This harness drives the real
//! loopback socket **open-loop**: request arrival times are drawn up front
//! as a Poisson-like process (exponential inter-arrivals from a seeded
//! RNG, so the schedule is reproducible) and senders hit those instants
//! whether or not earlier responses came back.
//!
//! The run first calibrates capacity closed-loop, then replays the
//! schedule at multiples of capacity — below (0.5x), at (1.0x), and far
//! past (4.0x) saturation — with a fixed per-request deadline. Reported
//! per row:
//!
//! * `goodput_qps` / `goodput_fraction` — responses that were both `Ok`
//!   and inside the deadline, measured from the *scheduled* arrival (queue
//!   wait counts, as it does for a real client);
//! * `shed_rate` — explicit `Shed`/`Overloaded` responses. Past
//!   saturation the server must degrade by shedding loudly, not by
//!   slowing everyone down or dropping silently;
//! * `p50_ms` / `p99_ms` over served responses;
//! * a hard in-process assertion that every request got exactly one
//!   response (`response_accounting == 1.0`), the conservation invariant
//!   the net layer promises.
//!
//! After the open-loop rows, two more sections exercise the lifecycle
//! observability layer:
//!
//! * `lifecycle` — closed-loop capacity with the always-on lifecycle
//!   instrumentation (stage timestamps, per-tenant histograms, tail
//!   sampling) versus a stripped front door (`lifecycle: false`) over the
//!   same serving engine. Calibration reps interleave between the two
//!   servers so machine drift hits both sides evenly; the overhead budget
//!   is hard-asserted in process;
//! * `attribution` — the p99 queue-wait vs service-time split from the
//!   per-tenant lifecycle histograms (where did the tail go: waiting or
//!   executing?), plus a deterministic shed probe — a pipelined burst of
//!   cache misses with a 1µs deadline — whose retained slow-log records
//!   are scraped back over the in-band `SlowLog` admin op.
//!
//! Usage: `cargo run --release -p fsi-bench --bin slo -- [out.json] [--smoke]`

use fsi_bench::json::Json;
use fsi_bench::{HarnessArgs, Table};
use fsi_core::HashContext;
use fsi_index::{Corpus, CorpusConfig};
use fsi_net::{Client, NetConfig, NetServer, ObsConfig, RequestFrame, Status};
use fsi_serve::{ServeConfig, Server};
use fsi_workloads::stream::{generate_boolean_stream, BooleanStreamConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CONNS: usize = 4;
const DEADLINE_MS: u64 = 20;
const OFFERED_MULTS: [f64; 3] = [0.5, 1.0, 4.0];

struct Row {
    offered_mult: f64,
    offered_qps: f64,
    requests: usize,
    served: usize,
    good: usize,
    shed: usize,
    errors: usize,
    p50_ms: f64,
    p99_ms: f64,
    max_send_lag_ms: f64,
}

impl Row {
    fn goodput_fraction(&self) -> f64 {
        self.good as f64 / self.requests as f64
    }
    fn shed_rate(&self) -> f64 {
        self.shed as f64 / self.requests as f64
    }
}

/// Closed-loop capacity estimate: `CONNS` clients keep a window of
/// requests pipelined (send `CAL_WINDOW`, drain `CAL_WINDOW`, repeat).
/// One-at-a-time `call`s would measure loopback round trips, not the
/// server — the window keeps the workers fed so wall-clock measures the
/// drain rate the open-loop rows are scaled against.
const CAL_WINDOW: usize = 32;

fn calibrate(addr: SocketAddr, stream: &[String], total: usize) -> f64 {
    let per_conn = total.div_ceil(CONNS);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..CONNS {
            let stream = &stream;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut sent = 0usize;
                while sent < per_conn {
                    let burst = CAL_WINDOW.min(per_conn - sent);
                    for i in 0..burst {
                        let k = c * per_conn + sent + i;
                        let q = &stream[k % stream.len()];
                        client
                            .send(&RequestFrame::query(k as u64, q.as_str()))
                            .expect("send");
                    }
                    for _ in 0..burst {
                        let resp = client.recv().expect("recv").expect("response");
                        assert_eq!(resp.status, Status::Ok, "calibration: {}", resp.message);
                    }
                    sent += burst;
                }
            });
        }
    });
    (per_conn * CONNS) as f64 / start.elapsed().as_secs_f64()
}

/// Sleep to an absolute instant. Deliberately NO spin-waiting: on a small
/// CI box the sender threads share cores with the server, and a spinning
/// sender starves the very workers it is benchmarking. OS sleep overshoot
/// (tens of microseconds) is measured and reported as send lag instead.
fn wait_until(t: Instant) {
    loop {
        let Some(remaining) = t.checked_duration_since(Instant::now()) else {
            return;
        };
        std::thread::sleep(remaining);
    }
}

/// One open-loop row: replay `requests` arrivals at `offered_qps` against
/// the server and account for every response.
fn run_row(
    addr: SocketAddr,
    stream: &[String],
    offered_mult: f64,
    offered_qps: f64,
    requests: usize,
    seed: u64,
) -> Row {
    // The arrival schedule, drawn up front: exponential gaps at rate
    // `offered_qps`. Seeded, so a given (capacity, mult, count) replays
    // the identical schedule shape.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut schedule = Vec::with_capacity(requests);
    let mut t = 0.0f64;
    for _ in 0..requests {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / offered_qps;
        schedule.push(Duration::from_secs_f64(t));
    }
    let schedule = &schedule;
    let deadline = Duration::from_millis(DEADLINE_MS);

    // Requests deal round-robin onto `CONNS` connections; each connection
    // splits into a paced sender thread and a receiver thread that drains
    // exactly its share of responses.
    let origin = Instant::now() + Duration::from_millis(50);
    let per_conn: Vec<Vec<(usize, Duration)>> = (0..CONNS)
        .map(|c| {
            (c..requests)
                .step_by(CONNS)
                .map(|k| (k, schedule[k]))
                .collect()
        })
        .collect();
    // Per connection: the (id, status, receive time) of every response it
    // drained, plus the sender's worst pacing lag in milliseconds.
    type ConnResult = (Vec<(u64, Status, Instant)>, f64);
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_conn
            .iter()
            .map(|mine| {
                scope.spawn(move || {
                    let client = Client::connect(addr).expect("connect");
                    let mut sender = client.try_clone().expect("clone");
                    let expected = mine.len();
                    let mut receiver = client;
                    let reader = std::thread::spawn(move || {
                        let mut seen = Vec::with_capacity(expected);
                        for _ in 0..expected {
                            let resp = receiver.recv().expect("recv").expect("response");
                            seen.push((resp.id, resp.status, Instant::now()));
                        }
                        seen
                    });
                    let mut max_lag = 0.0f64;
                    for &(k, at) in mine {
                        wait_until(origin + at);
                        max_lag = max_lag.max((Instant::now() - (origin + at)).as_secs_f64() * 1e3);
                        let q = &stream[k % stream.len()];
                        sender
                            .send(
                                &RequestFrame::query(k as u64, q.as_str())
                                    .with_deadline_us(deadline.as_micros() as u32),
                            )
                            .expect("send");
                    }
                    (reader.join().expect("reader thread"), max_lag)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("conn thread"))
            .collect()
    });

    let mut served = 0usize;
    let mut good = 0usize;
    let mut shed = 0usize;
    let mut errors = 0usize;
    let mut latencies_ms = Vec::new();
    let mut responses = 0usize;
    let mut max_send_lag_ms = 0.0f64;
    for (seen, lag) in results {
        max_send_lag_ms = max_send_lag_ms.max(lag);
        for (id, status, at) in seen {
            responses += 1;
            // Latency from the *scheduled* arrival: if the generator fell
            // behind, that lateness is the server's queue in spirit — a
            // real open-loop client would have sent on time.
            let lat = at.saturating_duration_since(origin + schedule[id as usize]);
            match status {
                Status::Ok => {
                    served += 1;
                    latencies_ms.push(lat.as_secs_f64() * 1e3);
                    if lat <= deadline {
                        good += 1;
                    }
                }
                Status::Shed | Status::Overloaded => shed += 1,
                Status::InvalidQuery | Status::BadFrame => errors += 1,
            }
        }
    }
    // The conservation invariant, hard-asserted: every request gets
    // exactly one explicit response, even past saturation.
    assert_eq!(
        responses, requests,
        "response accounting broke at {offered_mult}x offered load"
    );
    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    let pct = |p: f64| -> f64 {
        if latencies_ms.is_empty() {
            return f64::NAN;
        }
        let rank = ((p * latencies_ms.len() as f64).ceil().max(1.0) as usize) - 1;
        latencies_ms[rank.min(latencies_ms.len() - 1)]
    };
    Row {
        offered_mult,
        offered_qps,
        requests,
        served,
        good,
        shed,
        errors,
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
        max_send_lag_ms,
    }
}

fn main() {
    let args = HarnessArgs::parse("BENCH_slo.json");
    let num_docs: u32 = args.pick(400_000, 60_000);
    let num_terms: usize = 1 << 10;
    let cal_queries: usize = args.pick(4_000, 400);
    let row_secs: f64 = args.pick(1.0, 0.2);
    let max_requests: usize = args.pick(40_000, 2_000);

    println!(
        "corpus: {num_docs} docs x {num_terms} terms; \
         deadline {DEADLINE_MS} ms, {CONNS} conns{}",
        if args.smoke { " [smoke]" } else { "" }
    );
    let corpus = Corpus::generate(CorpusConfig {
        num_docs,
        num_terms,
        ..CorpusConfig::default()
    });
    let serve = Arc::new(Server::from_corpus(
        HashContext::new(fsi_bench::HARNESS_SEED),
        corpus,
        ServeConfig {
            cache_capacity: 8192,
        },
    ));
    // The server under test runs the default (instrumented) lifecycle
    // config plus 1-in-64 head sampling — the production posture.
    let net = NetServer::start(
        Arc::clone(&serve),
        NetConfig {
            obs: ObsConfig {
                head_sample_every: 64,
                ..ObsConfig::default()
            },
            ..NetConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = net.local_addr();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let stream = generate_boolean_stream(&BooleanStreamConfig {
        num_queries: 2_000,
        num_terms,
        seed: fsi_bench::HARNESS_SEED,
        ..BooleanStreamConfig::default()
    });

    // Warm the cache and the allocator, then measure capacity closed-loop.
    let _ = calibrate(addr, &stream, cal_queries / 4);
    let capacity_qps = calibrate(addr, &stream, cal_queries);
    println!("closed-loop capacity: {capacity_qps:.0} q/s over {CONNS} conns ({cores} cores)\n");

    let mut rows = Vec::new();
    let mut table = Table::new(vec![
        "offered",
        "q/s",
        "requests",
        "goodput q/s",
        "good frac",
        "shed rate",
        "p50 ms",
        "p99 ms",
    ]);
    for (i, &mult) in OFFERED_MULTS.iter().enumerate() {
        let offered_qps = capacity_qps * mult;
        let requests = ((offered_qps * row_secs) as usize).clamp(CONNS, max_requests);
        let row = run_row(
            addr,
            &stream,
            mult,
            offered_qps,
            requests,
            fsi_bench::HARNESS_SEED ^ (i as u64),
        );
        let wall = row.requests as f64 / row.offered_qps;
        let goodput_qps = row.good as f64 / wall;
        table.row(vec![
            format!("{mult:.1}x"),
            format!("{offered_qps:.0}"),
            row.requests.to_string(),
            format!("{goodput_qps:.0}"),
            format!("{:.3}", row.goodput_fraction()),
            format!("{:.3}", row.shed_rate()),
            format!("{:.2}", row.p50_ms),
            format!("{:.2}", row.p99_ms),
        ]);
        if row.max_send_lag_ms > 1.0 {
            println!(
                "note: {mult:.1}x generator fell up to {:.1} ms behind schedule",
                row.max_send_lag_ms
            );
        }
        rows.push(row);
    }
    table.print();

    // ---- lifecycle overhead: instrumented vs stripped capacity --------
    // Same serving engine behind a second, stripped front door
    // (`lifecycle: false`: no stage stamps, no per-tenant series, no
    // retention). Calibration reps interleave between the two servers so
    // drift (thermal, CI neighbors) lands on both sides evenly, and each
    // side keeps its best rep — peaks compare capacity, not noise.
    let stripped = NetServer::start(
        Arc::clone(&serve),
        NetConfig {
            obs: ObsConfig {
                lifecycle: false,
                slowlog_capacity: 0,
                ..ObsConfig::default()
            },
            ..NetConfig::default()
        },
    )
    .expect("bind loopback");
    let _ = calibrate(stripped.local_addr(), &stream, cal_queries / 4);
    let mut instrumented_qps = 0.0f64;
    let mut stripped_qps = 0.0f64;
    for _ in 0..3 {
        instrumented_qps = instrumented_qps.max(calibrate(addr, &stream, cal_queries));
        stripped_qps = stripped_qps.max(calibrate(stripped.local_addr(), &stream, cal_queries));
    }
    stripped.stop();
    let qps_ratio = instrumented_qps / stripped_qps;
    let overhead_pct = (1.0 - qps_ratio) * 100.0;
    let overhead_budget_pct: f64 = args.pick(5.0, 10.0);
    println!(
        "\nlifecycle overhead: instrumented {instrumented_qps:.0} q/s vs stripped \
         {stripped_qps:.0} q/s ({overhead_pct:+.2}%, budget {overhead_budget_pct:.0}%)"
    );
    assert!(
        overhead_pct <= overhead_budget_pct,
        "always-on lifecycle instrumentation costs {overhead_pct:.2}% of closed-loop \
         capacity (budget {overhead_budget_pct:.0}%)"
    );

    // ---- queue-wait attribution + shed-retention probe ----------------
    // A pipelined burst of cache misses with a 1µs deadline is dead
    // before a worker could run it on any box — refused by the reader if
    // the deadline lapsed before `begin` looked, shed on dequeue
    // otherwise — so the sheds are deterministic, and each must leave a
    // retained slow-log record observable over the in-band admin op.
    // (Misses, not stream queries: those are cached by now, and the
    // reader answers a hit faster than 1µs runs out.)
    const SHED_BURST: u64 = 32;
    let mut prober = Client::connect(addr).expect("connect");
    for id in 0..SHED_BURST {
        let uncached = format!("1 AND 2 AND 3 AND 4 AND 5 AND 6 AND 7 AND {}", 8 + id);
        prober
            .send(&RequestFrame::query((1 << 40) | id, uncached).with_deadline_us(1))
            .expect("send");
    }
    let mut shed_responses = 0u64;
    for _ in 0..SHED_BURST {
        let resp = prober.recv().expect("recv").expect("response");
        if matches!(resp.status, Status::Shed | Status::Overloaded) {
            shed_responses += 1;
        }
    }
    assert_eq!(
        shed_responses, SHED_BURST,
        "the 1µs-deadline burst must shed"
    );
    // Retention lands just after the response write: poll the wire op
    // until the records show up.
    let mut shed_retained = 0u64;
    for _ in 0..500 {
        let dump = prober.slowlog().expect("slowlog");
        let doc = Json::parse(&dump).expect("slowlog json");
        shed_retained = doc
            .get("entries")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .filter(|e| {
                e.get("outcome").and_then(Json::as_str) == Some("shed")
                    && e.get("stages")
                        .and_then(Json::as_array)
                        .is_some_and(|s| !s.is_empty())
            })
            .count() as u64;
        if shed_retained >= shed_responses {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(
        shed_retained > 0,
        "a shed request must leave a slow-log record with stage timestamps"
    );

    // Where did the p99 go — waiting in the queue, or executing? The
    // per-tenant lifecycle histograms answer without any per-request log.
    let snap = net.metrics();
    let p99_ms = |name: &str| {
        snap.histogram(name, &[("tenant", "anon")])
            .map_or(f64::NAN, |h| h.percentile(0.99) / 1e6)
    };
    let wait_p99_ms = p99_ms("fsi_net_queue_wait_ns");
    let service_p99_ms = p99_ms("fsi_net_service_ns");
    let wait_share_p99 = wait_p99_ms / (wait_p99_ms + service_p99_ms);
    println!(
        "p99 attribution: wait {wait_p99_ms:.3} ms vs service {service_p99_ms:.3} ms \
         (wait share {wait_share_p99:.2}); shed probe retained {shed_retained} records \
         ({shed_responses} shed responses)"
    );
    net.stop();

    let json_f64 = |v: f64| {
        if v.is_finite() {
            format!("{v:.3}")
        } else {
            "null".to_string()
        }
    };
    let rows_json: Vec<String> = rows
        .iter()
        .map(|r| {
            let wall = r.requests as f64 / r.offered_qps;
            format!(
                "    {{\"offered_mult\": {:.2}, \"offered_qps\": {:.1}, \"requests\": {}, \
                 \"served\": {}, \"good\": {}, \"shed\": {}, \"errors\": {}, \
                 \"goodput_qps\": {:.1}, \"goodput_fraction\": {:.4}, \"shed_rate\": {:.4}, \
                 \"p50_ms\": {}, \"p99_ms\": {}}}",
                r.offered_mult,
                r.offered_qps,
                r.requests,
                r.served,
                r.good,
                r.shed,
                r.errors,
                r.good as f64 / wall,
                r.goodput_fraction(),
                r.shed_rate(),
                json_f64(r.p50_ms),
                json_f64(r.p99_ms),
            )
        })
        .collect();
    let env = fsi_bench::env_json();
    let json = format!(
        "{{\n  \"bench\": \"slo\",\n  \"smoke\": {},\n  {env},\n  \"config\": {{\n    \
         \"num_docs\": {num_docs},\n    \"num_terms\": {num_terms},\n    \
         \"conns\": {CONNS},\n    \
         \"deadline_ms\": {DEADLINE_MS},\n    \
         \"calibration_queries\": {cal_queries}\n  }},\n  \
         \"capacity_qps\": {capacity_qps:.1},\n  \"response_accounting\": 1.0,\n  \
         \"lifecycle\": {{\n    \"instrumented_qps\": {instrumented_qps:.1},\n    \
         \"stripped_qps\": {stripped_qps:.1},\n    \"qps_ratio\": {qps_ratio:.4},\n    \
         \"overhead_pct\": {overhead_pct:.2},\n    \
         \"overhead_budget_pct\": {overhead_budget_pct:.1}\n  }},\n  \
         \"attribution\": {{\n    \"wait_p99_ms\": {},\n    \"service_p99_ms\": {},\n    \
         \"wait_share_p99\": {},\n    \"shed_responses\": {shed_responses},\n    \
         \"shed_retained\": {shed_retained}\n  }},\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        args.smoke,
        json_f64(wait_p99_ms),
        json_f64(service_p99_ms),
        json_f64(wait_share_p99),
        rows_json.join(",\n"),
    );
    args.write_output(&json);
    println!("\nwrote {}", args.out_path);
}
