//! The TCP front door: listener, connection readers, bounded request
//! queue, and worker pool, feeding the two halves of
//! [`fsi_serve::Server::execute`].
//!
//! The request lifecycle, end to end:
//!
//! 1. **Decode**: a connection reader takes one length-prefixed frame at a
//!    time out of a buffered socket (one read serves the prefix, the body
//!    and whatever is pipelined behind them). Malformed frames get a
//!    [`Status::BadFrame`] response and close the connection. Admin
//!    frames ([`crate::protocol::AdminOp`]) are answered inline by the
//!    reader, bypassing admission and the queue — scraping must work
//!    exactly when the server is overloaded.
//! 2. **Admission**: a tenant whose token bucket is empty gets
//!    [`Status::Overloaded`] immediately — cheaper for everyone than
//!    queueing work that will be shed later.
//! 3. **Begin**, still on the reader: [`fsi_serve::Server::begin`] checks
//!    the deadline, compiles the query, and probes the result cache.
//!    Whatever that settles — a cache hit, an invalid query, an unknown
//!    term, a deadline already expired on arrival, a plain `EXPLAIN` —
//!    **is answered here**, by the thread that read the frame: no queue,
//!    no hand-off, no second thread woken. This is work bounded by the
//!    size of the request. An `EXPLAIN` answers [`Status::Ok`] with no
//!    documents and the rendered plan as the message; `EXPLAIN ANALYZE`
//!    runs the query, so it is queued like a miss and answered the same
//!    way by a worker.
//! 4. **Queueing**: a cache miss — the one outcome that needs the kernels,
//!    work bounded only by the index — goes onto the bounded queue
//!    carrying its compiled expression. The queue is the only buffering
//!    point; a full queue answers [`Status::Overloaded`] at push time.
//!    The reader never evaluates a miss itself, not even on an idle
//!    server: it is the only thread that can dispatch for its
//!    connection, and a connection multiplexing many callers would stall
//!    them all behind one intersection (measured: see `docs/serving.md`).
//! 5. **Finish**: workers pop adaptive micro-batches; an idle one polls
//!    briefly for the next miss before it parks (`crate::queue`), so on a
//!    quiet server the hand-off costs no thread wake-up. A request whose
//!    deadline expired while it waited is shed on dequeue
//!    ([`Status::Shed`], nothing executed); the rest run through
//!    [`fsi_serve::Server::finish`] and answer [`Status::Ok`]. A panic
//!    inside `finish` is caught on the worker: that request answers
//!    [`Status::Internal`] (counted in `fsi_net_worker_panics_total`), and
//!    the worker goes on to the next miss. A panic in the reader's `begin`
//!    is caught the same way, and the reader goes on to the next frame.
//! 6. **Write**: whichever thread answers encodes the response **once** —
//!    header, length prefix, and the documents straight out of the
//!    `Arc` the result cache shares — into the connection's one reused
//!    buffer, and it leaves in one `write`, under the connection's
//!    writer lock so frames never interleave. A `write` blocked for the
//!    socket's write timeout (10 s) — a client that stopped reading —
//!    shuts the connection down, counted in
//!    `fsi_net_write_timeouts_total`: its reader exits, and the thread that
//!    was writing goes back to work instead of staying parked on it.
//!
//! Every decoded frame gets exactly one response; requests from one
//! connection may be answered out of order (match on the echoed request
//! id): independent workers finish at their own pace, and a hit overtakes
//! the miss queued before it.
//!
//! Each request additionally carries a lifecycle context
//! (`crate::lifecycle::Lifecycle`) stamping the stage boundaries
//! (`decode` → `queue` → `execute` → `write`, with no `queue` stage when
//! the reader answered); completions feed `fsi_net_stage_ns`, the
//! per-tenant wait/service histograms and
//! `fsi_net_answered_total{by="reader"|"worker"}`, and the tail sampler
//! decides which records the [`fsi_obs::SlowLog`] retains. Setting
//! [`ObsConfig::lifecycle`](crate::ObsConfig) to `false` strips all of
//! it — the baseline side of the instrumented-vs-stripped bench gate.

use crate::admission::Admission;
use crate::lifecycle::{
    AnsweredBy, Lifecycle, NetObs, ObsConfig, RecentTenant, StageKind, TenantOutcome, Verdict,
};
use crate::protocol::{
    decode_client_frame, encode_admin_response, encode_response_into, frame_into, read_frame_into,
    AdminOp, AdminRequest, AdminResponse, ClientFrame, FrameError, RequestFrame, ResponseRef,
    Status, DETAIL_CACHE_BYPASSED, DETAIL_CACHE_DISABLED, DETAIL_CACHE_HIT, DETAIL_CACHE_MISS,
    DETAIL_SHED_ADMISSION, DETAIL_SHED_DEADLINE, DETAIL_SHED_QUEUE_FULL, MAX_REQUEST_FRAME,
};
use crate::queue::BoundedQueue;
use fsi_obs::{Counter, SlowLogEntry, Snapshot, SnapshotEntry, SnapshotValue};
use fsi_serve::{
    Begun, CacheOutcome, Disposition, Miss, QueryError, QueryInput, Request, Response, ShedReason,
};
use std::io::{self, BufReader, ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of the network front door.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Bind address; port `0` picks an ephemeral port (the bound address
    /// is reported by [`NetServer::local_addr`]).
    pub addr: String,
    /// Worker threads executing requests; `0` means one per core.
    pub workers: usize,
    /// Bound of the request queue — the server's total backlog.
    pub queue_capacity: usize,
    /// Upper bound of one worker's dequeue batch. The effective batch
    /// size adapts to load: whatever is queued, up to this cap.
    pub batch_max: usize,
    /// Per-tenant admitted requests per second; `f64::INFINITY` disables
    /// admission control.
    pub tenant_rate: f64,
    /// Per-tenant token-bucket capacity (maximum burst).
    pub tenant_burst: f64,
    /// Lifecycle observability: stage timestamps, tail sampling, the
    /// slow log, and per-tenant metrics.
    pub obs: ObsConfig,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_capacity: 1024,
            batch_max: 32,
            tenant_rate: f64::INFINITY,
            tenant_burst: 64.0,
            obs: ObsConfig::default(),
        }
    }
}

/// A response buffer that grew past this (one huge result) is released
/// after the write instead of being kept for the life of the connection.
const SCRATCH_KEEP: usize = 1 << 20;

/// How long one `write` of a response may block on a client that stopped
/// reading (the socket's write timeout). A `write` that times out shuts
/// the connection down: its reader exits, and the thread that was writing
/// — a worker, or the reader itself — goes back to serving other
/// connections instead of staying parked on this one. A blocked `write`
/// that still moved a few bytes (the kernel's buffers taking more of a
/// client that stopped reading) returns them instead, and the frame's next
/// `write` waits again, so a stalled client is cut off after a few
/// timeouts (two or three on Linux loopback). A client that keeps reading,
/// however slowly, is not cut off.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// The one writer of a connection: the socket's write half and the
/// buffer every response is encoded into, behind one lock. Whichever
/// thread answers a request — the reader or a worker — encodes under the
/// lock and writes the frame whole, so frames never interleave and each
/// is one `write`.
struct ConnWriter {
    out: Mutex<Outbound>,
    /// `fsi_net_write_timeouts_total`.
    timeouts: Arc<Counter>,
}

struct Outbound {
    stream: TcpStream,
    scratch: Vec<u8>,
}

impl ConnWriter {
    /// A writer whose socket gives up on a `write` blocked for `timeout`,
    /// counting each time it does in `timeouts`.
    fn new(stream: TcpStream, timeout: Duration, timeouts: Arc<Counter>) -> Self {
        let _ = stream.set_write_timeout(Some(timeout));
        Self {
            out: Mutex::new(Outbound {
                stream,
                scratch: Vec::new(),
            }),
            timeouts,
        }
    }

    /// Encodes one frame with `encode` and writes it. A write that times
    /// out shuts the connection down (a frame may have left half-written),
    /// so the reader's next read ends and later writes fail at once; other
    /// write errors are swallowed: the client hung up, and closing is its
    /// acknowledgement.
    fn send(&self, encode: impl FnOnce(&mut Vec<u8>)) {
        let Ok(mut out) = self.out.lock() else { return };
        let Outbound { stream, scratch } = &mut *out;
        scratch.clear();
        encode(scratch);
        if let Err(e) = stream.write_all(scratch) {
            if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                self.timeouts.inc();
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        if scratch.capacity() > SCRATCH_KEEP {
            *scratch = Vec::new();
        }
    }

    fn shutdown(&self) {
        if let Ok(out) = self.out.lock() {
            let _ = out.stream.shutdown(Shutdown::Both);
        }
    }
}

/// One decoded request on its way to a response: what the wire said, the
/// serve-side request built from it (which owns the query text), and the
/// lifecycle stamps so far.
struct Ticket {
    id: u64,
    request: Request,
    lifecycle: Option<Lifecycle>,
}

impl Ticket {
    fn stage(&mut self, kind: StageKind) {
        if let Some(lc) = &mut self.lifecycle {
            lc.stage(kind);
        }
    }
}

/// One cache miss waiting for a worker, compiled expression and all.
struct Pending {
    ticket: Ticket,
    miss: Miss,
    writer: Arc<ConnWriter>,
}

/// What the server's threads share: connection readers use all of it,
/// workers the queue, the engine and the books, a scrape reads it.
struct Shared {
    queue: BoundedQueue<Pending>,
    obs: NetObs,
    admission: Admission,
    serve: Arc<fsi_serve::Server>,
    queue_capacity: usize,
    workers: usize,
    /// [`WRITE_TIMEOUT`], or a test's shorter one.
    write_timeout: Duration,
}

/// An accepted connection as the server tracks it: a handle on the socket
/// (to shut it down at stop) and its reader thread.
struct Conn {
    stream: TcpStream,
    reader: JoinHandle<()>,
}

/// A running TCP serving stack over one [`fsi_serve::Server`].
///
/// Dropping the server stops it: the listener closes, readers and
/// workers drain, and every thread is joined.
pub struct NetServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    ctx: Arc<Shared>,
    conns: Arc<Mutex<Vec<Conn>>>,
    accept_handle: Mutex<Option<JoinHandle<()>>>,
    worker_handles: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("local_addr", &self.local_addr)
            .field("queue_depth", &self.ctx.queue.len())
            .finish()
    }
}

impl NetServer {
    /// Binds, spawns the accept loop and the worker pool, and returns
    /// immediately. The serving engine is shared — queries admitted here
    /// run through the same cache and counters as in-process callers.
    pub fn start(serve: Arc<fsi_serve::Server>, config: NetConfig) -> io::Result<Self> {
        Self::with_write_timeout(serve, config, WRITE_TIMEOUT)
    }

    /// [`NetServer::start`] with every connection's writes timing out
    /// after `write_timeout`.
    fn with_write_timeout(
        serve: Arc<fsi_serve::Server>,
        config: NetConfig,
        write_timeout: Duration,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(2, |n| n.get())
        } else {
            config.workers
        };
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(Mutex::new(Vec::new()));
        let ctx = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_capacity),
            obs: NetObs::new(&config.obs),
            admission: Admission::new(config.tenant_rate, config.tenant_burst),
            serve,
            queue_capacity: config.queue_capacity,
            workers,
            write_timeout,
        });

        let worker_handles = (0..workers)
            .map(|_| {
                let ctx = Arc::clone(&ctx);
                let batch_max = config.batch_max;
                std::thread::spawn(move || {
                    // `pop_batch` is where an idle worker waits: polling
                    // briefly for the next miss, then parked.
                    while let Some(batch) = ctx.queue.pop_batch(batch_max) {
                        ctx.obs.record_batch(batch.len());
                        for pending in batch {
                            finish_pending(&ctx.serve, &ctx.obs, pending);
                        }
                    }
                })
            })
            .collect();

        let accept_handle = {
            let shutdown = Arc::clone(&shutdown);
            let conns = Arc::clone(&conns);
            let ctx = Arc::clone(&ctx);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // Responses are small and latency-bound: leaving Nagle
                    // on costs a delayed-ACK round (~40 ms) per response.
                    let _ = stream.set_nodelay(true);
                    ctx.obs
                        .registry
                        .counter("fsi_net_connections_total", &[])
                        .inc();
                    // Without a second handle the connection could not be
                    // shut down at stop; refuse it rather than leak it.
                    let Ok(handle) = stream.try_clone() else {
                        continue;
                    };
                    ctx.obs.open_connections.fetch_add(1, Ordering::Relaxed);
                    let reader = {
                        let ctx = Arc::clone(&ctx);
                        std::thread::spawn(move || {
                            read_connection(stream, &ctx);
                            ctx.obs.open_connections.fetch_sub(1, Ordering::Relaxed);
                        })
                    };
                    if let Ok(mut conns) = conns.lock() {
                        reap(&mut conns);
                        conns.push(Conn {
                            stream: handle,
                            reader,
                        });
                    }
                }
            })
        };

        Ok(Self {
            local_addr,
            shutdown,
            ctx,
            conns,
            accept_handle: Mutex::new(Some(accept_handle)),
            worker_handles: Mutex::new(worker_handles),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Current request-queue depth (racy, for telemetry; takes no lock).
    pub fn queue_depth(&self) -> usize {
        self.ctx.queue.len()
    }

    /// Connections the server still holds a socket and a reader thread
    /// for: the open ones, plus those closed since the last accept (the
    /// accept loop reaps — joins the reader, drops the socket — as it
    /// goes).
    pub fn tracked_connections(&self) -> usize {
        self.conns.lock().map_or(0, |conns| conns.len())
    }

    /// One snapshot of the whole stack: the front door's own counters
    /// (`fsi_net_*`) merged with the serving engine's registry and the
    /// process-global registry (kernel dispatch, plan kinds) — the same
    /// merge the in-band [`AdminOp::Metrics`] op renders as Prometheus
    /// text. The namespaces are disjoint by convention (`fsi_net_*` vs
    /// everything else), so the merge never collides.
    pub fn metrics(&self) -> Snapshot {
        metrics_snapshot(&self.ctx)
    }

    /// A point-in-time copy of the retained slow-log entries, oldest
    /// first (the in-process counterpart of the [`AdminOp::SlowLog`]
    /// wire op).
    pub fn slow_log(&self) -> Vec<Arc<SlowLogEntry>> {
        self.ctx.obs.slowlog.entries()
    }

    /// Stops the server: closes the listener and every connection, drains
    /// the queue (queued requests still get their one response if their
    /// connection survives long enough to carry it), and joins every
    /// thread. Idempotent; also runs on drop.
    pub fn stop(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the accept loop with one throwaway connection, then join it
        // so the connection list stops growing.
        let _ = TcpStream::connect(self.local_addr);
        if let Ok(mut h) = self.accept_handle.lock() {
            if let Some(h) = h.take() {
                let _ = h.join();
            }
        }
        // Shut every connection down: blocked readers and writers unblock
        // with an error and exit.
        let conns: Vec<Conn> = match self.conns.lock() {
            Ok(mut g) => g.drain(..).collect(),
            Err(_) => Vec::new(),
        };
        for conn in &conns {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        // Workers drain what is queued, then see the closed queue and
        // exit.
        self.ctx.queue.close();
        let workers: Vec<_> = match self.worker_handles.lock() {
            Ok(mut g) => g.drain(..).collect(),
            Err(_) => Vec::new(),
        };
        for h in workers {
            let _ = h.join();
        }
        for conn in conns {
            let _ = conn.reader.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Forgets the connections whose reader has exited: joins the thread and
/// drops the server's handle on the socket, so a server that has seen a
/// million short connections holds a handful of entries, not a million
/// file descriptors.
fn reap(conns: &mut Vec<Conn>) {
    let (done, open): (Vec<Conn>, Vec<Conn>) = std::mem::take(conns)
        .into_iter()
        .partition(|conn| conn.reader.is_finished());
    *conns = open;
    for conn in done {
        let _ = conn.reader.join();
    }
}

/// The net + serve + global registries in one snapshot, with the values
/// that are kept as plain atomics — by the queue, by admission, the open
/// connections — read now.
fn metrics_snapshot(ctx: &Shared) -> Snapshot {
    let obs = &ctx.obs;
    obs.registry
        .gauge("fsi_net_connections_open", &[])
        .set(obs.open_connections.load(Ordering::Relaxed) as u64);
    let mut snap = obs.registry.snapshot();
    let handoff = ctx.queue.handoff_stats();
    let counter = |name: &str, labels: &[(&str, &str)], value| SnapshotEntry {
        name: name.to_string(),
        labels: labels
            .iter()
            .map(|&(key, value)| (key.to_string(), value.to_string()))
            .collect(),
        value: SnapshotValue::Counter(value),
    };
    snap.merge_from(&Snapshot {
        entries: vec![
            counter(
                "fsi_net_admission_evictions_total",
                &[],
                ctx.admission.evictions(),
            ),
            counter("fsi_net_handoff_total", &[("via", "park")], handoff.park),
            counter("fsi_net_handoff_total", &[("via", "spin")], handoff.spin),
            counter("fsi_net_spin_ns_total", &[], handoff.spin_ns),
        ],
    });
    // `Server::metrics` already folds in `Registry::global()`, so one
    // scrape sees net + serve + kernels/planner.
    snap.merge_from(&ctx.serve.metrics());
    snap
}

/// Answers one admin request inline on the reader thread: no admission,
/// no queueing — the whole point of the in-band surface is that it works
/// while the data path is overloaded.
fn handle_admin(ctx: &Shared, writer: &ConnWriter, req: AdminRequest) {
    ctx.obs
        .registry
        .counter("fsi_net_admin_requests_total", &[("op", req.op.name())])
        .inc();
    let payload = match req.op {
        AdminOp::Metrics => metrics_snapshot(ctx).to_prometheus(),
        AdminOp::Health => {
            let uptime_us = ctx
                .obs
                .started
                .elapsed()
                .as_micros()
                .min(u128::from(u64::MAX));
            format!(
                "{{\"status\": \"ok\", \"uptime_us\": {}, \"connections\": {}, \
                 \"queue_depth\": {}, \"queue_capacity\": {}, \"workers\": {}, \
                 \"lifecycle\": {}, \"slowlog_entries\": {}, \"slowlog_capacity\": {}}}",
                uptime_us,
                ctx.obs.open_connections.load(Ordering::Relaxed),
                ctx.queue.len(),
                ctx.queue_capacity,
                ctx.workers,
                ctx.obs.lifecycle,
                ctx.obs.slowlog.len(),
                ctx.obs.slowlog.capacity(),
            )
        }
        AdminOp::SlowLog => ctx.obs.slowlog.to_json(),
    };
    let body = encode_admin_response(&AdminResponse {
        id: req.id,
        op: req.op,
        payload,
    });
    writer.send(|buf| frame_into(buf, &body));
}

/// Oversized or malformed framing: the stream can no longer be trusted to
/// re-synchronize. One `BadFrame` response (id 0: no frame was decoded to
/// echo), then close.
fn refuse_connection(obs: &NetObs, writer: &ConnWriter, error: &FrameError) {
    obs.count_bad_frame();
    let message = error.to_string();
    let resp = ResponseRef {
        message: &message,
        ..ResponseRef::empty(Status::BadFrame, 0, 0)
    };
    writer.send(|buf| encode_response_into(buf, &resp));
    writer.shutdown();
}

/// The query text a ticket's request was built from.
fn query_text(request: &Request) -> &str {
    match &request.input {
        QueryInput::Text(query) => query,
        QueryInput::Norm(_) => "",
    }
}

/// Writes one request's response and closes its books: the response and
/// answered-by counters, the `write` stage, the lifecycle's histograms
/// and slow-log retention.
fn deliver(
    obs: &NetObs,
    writer: &ConnWriter,
    by: AnsweredBy,
    mut ticket: Ticket,
    resp: &ResponseRef<'_>,
    verdict: Verdict,
) {
    obs.count_response(resp.status, by);
    writer.send(|buf| encode_response_into(buf, resp));
    ticket.stage(StageKind::Write);
    if let Some(lifecycle) = ticket.lifecycle {
        let request = &ticket.request;
        let query = query_text(request);
        obs.finish(lifecycle, ticket.id, request.options.tenant, query, verdict);
    }
}

/// Answers a request that is turned away rather than served — admission
/// denied, queue full, deadline expired (on arrival, or in the queue).
fn refuse(obs: &NetObs, writer: &ConnWriter, by: AnsweredBy, ticket: Ticket, reason: ShedReason) {
    let (status, detail, outcome, tenant_outcome) = match reason {
        ShedReason::AdmissionDenied => (
            Status::Overloaded,
            DETAIL_SHED_ADMISSION,
            "overloaded",
            TenantOutcome::Rejected,
        ),
        ShedReason::QueueFull => (
            Status::Overloaded,
            DETAIL_SHED_QUEUE_FULL,
            "overloaded",
            TenantOutcome::Shed,
        ),
        ShedReason::DeadlineExpired => {
            obs.shed_deadline.inc();
            (
                Status::Shed,
                DETAIL_SHED_DEADLINE,
                "shed",
                TenantOutcome::Shed,
            )
        }
    };
    obs.tenant_outcome(&ticket.lifecycle, tenant_outcome);
    let resp = ResponseRef::empty(status, detail, ticket.id);
    let verdict = Verdict::new(outcome, reason.label());
    deliver(obs, writer, by, ticket, &resp, verdict);
}

/// Answers a request with what the serving engine made of it — from
/// `begin` on the reader, from `finish` on a worker. The documents are
/// encoded straight out of the `Arc` the response shares with the cache;
/// an `EXPLAIN [ANALYZE]` rendering rides in the message.
fn answer(
    obs: &NetObs,
    writer: &ConnWriter,
    by: AnsweredBy,
    mut ticket: Ticket,
    result: Result<Response, QueryError>,
) {
    ticket.stage(StageKind::Execute);
    let id = ticket.id;
    match result {
        Ok(resp) => match resp.disposition {
            Disposition::Served => {
                let (detail, reason) = match resp.cache {
                    CacheOutcome::Miss => (DETAIL_CACHE_MISS, "cache_miss"),
                    CacheOutcome::Hit => (DETAIL_CACHE_HIT, "cache_hit"),
                    CacheOutcome::Disabled => (DETAIL_CACHE_DISABLED, "cache_disabled"),
                    CacheOutcome::Bypassed => (DETAIL_CACHE_BYPASSED, "cache_bypassed"),
                };
                let wire = ResponseRef {
                    latency_us: resp.latency.as_micros().min(u128::from(u32::MAX)) as u32,
                    docs: &resp.docs,
                    message: resp.explain.as_deref().unwrap_or(""),
                    ..ResponseRef::empty(Status::Ok, detail, id)
                };
                let verdict = Verdict {
                    plan: resp.plan_kind.unwrap_or(""),
                    trace: resp.trace,
                    ..Verdict::new("ok", reason)
                };
                deliver(obs, writer, by, ticket, &wire, verdict);
            }
            // The engine sheds for one reason only: the deadline had
            // passed when `begin` looked.
            Disposition::Shed(reason) => refuse(obs, writer, by, ticket, reason),
        },
        Err(e) => {
            let message = e.to_string();
            let wire = ResponseRef {
                message: &message,
                ..ResponseRef::empty(Status::InvalidQuery, 0, id)
            };
            let verdict = Verdict::new("invalid_query", "");
            deliver(obs, writer, by, ticket, &wire, verdict);
        }
    }
}

/// One connection's read loop: frame → decode → admission → `begin` →
/// answered here, or queued for a worker (query frames); inline answer
/// (admin frames).
fn read_connection(stream: TcpStream, ctx: &Shared) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let obs = &ctx.obs;
    let timeouts = Arc::clone(&obs.write_timeouts);
    let writer = Arc::new(ConnWriter::new(stream, ctx.write_timeout, timeouts));
    let mut body = Vec::new();
    let mut recent_tenant: RecentTenant = None;
    loop {
        match read_frame_into(&mut reader, MAX_REQUEST_FRAME, &mut body) {
            Ok(true) => {}
            // Clean EOF at a frame boundary, or the transport died: either
            // way the conversation is over.
            Ok(false) | Err(FrameError::Io(_)) => return,
            Err(e) => return refuse_connection(obs, &writer, &e),
        }
        // The whole frame is in hand: the lifecycle's origin, the clock
        // admission reads, and the instant a relative deadline counts from.
        let origin = Instant::now();
        let frame = match decode_client_frame(&body) {
            Ok(ClientFrame::Admin(req)) => {
                handle_admin(ctx, &writer, req);
                continue;
            }
            Ok(ClientFrame::Query(frame)) => frame,
            Err(e) => return refuse_connection(obs, &writer, &e),
        };
        obs.requests.inc();
        let RequestFrame {
            id,
            tenant,
            deadline_us,
            query,
        } = frame;
        let lifecycle = obs.begin(origin, tenant, &mut recent_tenant);
        let mut request = Request::expr(query);
        request.options.tenant = tenant;
        request.options.deadline =
            (deadline_us > 0).then(|| origin + Duration::from_micros(u64::from(deadline_us)));
        // Head-sampled requests run fully traced, so the slow-log entry can
        // carry the execution span tree alongside the stage timeline.
        request.options.trace = lifecycle.as_ref().is_some_and(|lc| lc.head_sampled);
        let mut ticket = Ticket {
            id,
            request,
            lifecycle,
        };
        let admitted = ctx.admission.admit(tenant, origin);
        ticket.stage(StageKind::Decode);
        if !admitted {
            refuse(
                obs,
                &writer,
                AnsweredBy::Reader,
                ticket,
                ShedReason::AdmissionDenied,
            );
            continue;
        }
        obs.tenant_outcome(&ticket.lifecycle, TenantOutcome::Admitted);
        // A panic while compiling or probing the cache is this request's
        // own, as a worker's is: it answers `Status::Internal`, and the
        // reader goes on to the next frame.
        let begun = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(test)]
            tests::inject_panic(ticket.id, tests::READER_PANIC_ID);
            ctx.serve.begin(&ticket.request)
        }));
        let miss = match begun {
            Ok(Ok(Begun::Miss(miss))) => miss,
            // Settled without a kernel: answered by the thread that read it.
            Ok(Ok(Begun::Done(response))) => {
                answer(obs, &writer, AnsweredBy::Reader, ticket, Ok(response));
                continue;
            }
            Ok(Err(e)) => {
                answer(obs, &writer, AnsweredBy::Reader, ticket, Err(e));
                continue;
            }
            Err(_) => {
                answer_panic(obs, &writer, AnsweredBy::Reader, ticket);
                continue;
            }
        };
        // Compiling and probing were the reader's work too.
        ticket.stage(StageKind::Decode);
        if let Some(lc) = &mut ticket.lifecycle {
            lc.queue_depth = ctx.queue.len();
        }
        let pending = Pending {
            ticket,
            miss,
            writer: Arc::clone(&writer),
        };
        match ctx.queue.push(pending) {
            Ok(()) => {}
            Err(Pending { ticket, .. }) => {
                refuse(
                    obs,
                    &writer,
                    AnsweredBy::Reader,
                    ticket,
                    ShedReason::QueueFull,
                );
            }
        }
    }
}

/// Answers a request whose handling panicked — `begin` on the connection's
/// reader, or evaluation on a worker: one [`Status::Internal`] response,
/// counted in `fsi_net_worker_panics_total`. The panic stays this request's
/// own.
fn answer_panic(obs: &NetObs, writer: &ConnWriter, by: AnsweredBy, mut ticket: Ticket) {
    ticket.stage(match by {
        AnsweredBy::Reader => StageKind::Decode,
        AnsweredBy::Worker => StageKind::Execute,
    });
    obs.worker_panics.inc();
    let resp = ResponseRef {
        message: "internal error: evaluating the query panicked",
        ..ResponseRef::empty(Status::Internal, 0, ticket.id)
    };
    let verdict = Verdict::new("internal", "panic");
    deliver(obs, writer, by, ticket, &resp, verdict);
}

/// Takes one dequeued miss to its response: shed if its deadline expired
/// in the queue, evaluated otherwise — and answered [`Status::Internal`]
/// if evaluating it panics, so the worker lives to take the next miss.
fn finish_pending(serve: &fsi_serve::Server, obs: &NetObs, pending: Pending) {
    let Pending {
        mut ticket,
        miss,
        writer,
    } = pending;
    // Close the queue stage first: everything since the reader handed the
    // request over was wait time.
    ticket.stage(StageKind::Queue);
    // Drop-on-dequeue: a request that already missed its deadline is shed
    // here, before any execution — the whole point of deadline-aware
    // shedding is to spend capacity only on requests that can still
    // succeed.
    let deadline = ticket.request.options.deadline;
    if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
        return refuse(
            obs,
            &writer,
            AnsweredBy::Worker,
            ticket,
            ShedReason::DeadlineExpired,
        );
    }
    // A panic in the kernels leaves nothing shared half-updated: they
    // write only this request's output, and `finish` touches the result
    // cache only after they return.
    let finished = catch_unwind(AssertUnwindSafe(|| {
        #[cfg(test)]
        tests::inject_panic(ticket.id, tests::PANIC_ID);
        serve.finish(miss)
    }));
    match finished {
        Ok(response) => answer(obs, &writer, AnsweredBy::Worker, ticket, Ok(response)),
        Err(_) => answer_panic(obs, &writer, AnsweredBy::Worker, ticket),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use fsi_core::{HashContext, SortedSet};
    use fsi_index::{Corpus, CorpusConfig, SearchEngine};
    use fsi_serve::{ServeConfig, Server};

    /// A request with this id panics on the worker, inside the guarded
    /// evaluation — the fault [`finish_pending`] isolates.
    pub(super) const PANIC_ID: u64 = 0xFA17;

    /// A request with this id panics on the connection's reader, inside
    /// the guarded `begin` — the fault the reader loop isolates.
    pub(super) const READER_PANIC_ID: u64 = 0xFA18;

    /// Panics when `id` is the seam's `target` id.
    pub(super) fn inject_panic(id: u64, target: u64) {
        if id == target {
            panic!("injected fault for request {id:#x}");
        }
    }

    #[test]
    fn a_panicking_request_gets_one_internal_response_and_the_worker_lives() {
        let corpus = Corpus::generate(CorpusConfig {
            num_docs: 20_000,
            num_terms: 24,
            ..CorpusConfig::default()
        });
        // Cache off, so every query is a miss a worker evaluates; one
        // worker, so the request after the panic can only be served by
        // the worker that panicked.
        let serve = Arc::new(Server::from_corpus(
            HashContext::new(0x2011),
            corpus,
            ServeConfig { cache_capacity: 0 },
        ));
        let net = NetServer::start(
            Arc::clone(&serve),
            NetConfig {
                workers: 1,
                ..NetConfig::default()
            },
        )
        .expect("bind loopback");
        let stream = TcpStream::connect(net.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("timeout");
        let mut client = Client::from_stream(stream);
        client
            .send(&RequestFrame::query(PANIC_ID, "0 AND 1"))
            .expect("send");
        client
            .send(&RequestFrame::query(7, "0 AND 1"))
            .expect("send");
        let first = client.recv().expect("recv").expect("a response");
        assert_eq!((first.id, first.status), (PANIC_ID, Status::Internal));
        assert!(first.docs.is_empty() && first.message.contains("panicked"));
        // The next frame answers the next request: the panicking one got
        // exactly one response, and the same worker served what followed.
        let second = client.recv().expect("recv").expect("a response");
        assert_eq!((second.id, second.status), (7, Status::Ok));
        let expect = serve.execute(&Request::expr("0 AND 1")).expect("valid");
        assert_eq!(second.docs, *expect.docs);
        let again = client
            .call(&RequestFrame::query(8, "0 AND 2"))
            .expect("call");
        assert_eq!((again.id, again.status), (8, Status::Ok));
        let snap = net.metrics();
        assert_eq!(snap.counter("fsi_net_worker_panics_total", &[]), Some(1));
        let responses = |status| snap.counter("fsi_net_responses_total", &[("status", status)]);
        assert_eq!(responses("internal"), Some(1));
        assert_eq!(responses("ok"), Some(2));
        assert_eq!(
            snap.counter("fsi_net_answered_total", &[("by", "worker")]),
            Some(3)
        );
    }

    #[test]
    fn a_panic_in_begin_answers_internal_and_the_reader_keeps_reading() {
        let corpus = Corpus::generate(CorpusConfig {
            num_docs: 20_000,
            num_terms: 24,
            ..CorpusConfig::default()
        });
        // Cache on, so the request after the panic is a hit the reader
        // answers itself: the connection's reader is the thread that
        // panicked, and it must still be reading.
        let serve = Arc::new(Server::from_corpus(
            HashContext::new(0x2012),
            corpus,
            ServeConfig::default(),
        ));
        let net =
            NetServer::start(Arc::clone(&serve), NetConfig::default()).expect("bind loopback");
        let stream = TcpStream::connect(net.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("timeout");
        let mut client = Client::from_stream(stream);
        let warm = client
            .call(&RequestFrame::query(1, "0 AND 1"))
            .expect("call");
        assert_eq!((warm.id, warm.status), (1, Status::Ok));
        client
            .send(&RequestFrame::query(READER_PANIC_ID, "0 AND 1"))
            .expect("send");
        client
            .send(&RequestFrame::query(2, "0 AND 1"))
            .expect("send");
        let first = client.recv().expect("recv").expect("a response");
        assert_eq!(
            (first.id, first.status),
            (READER_PANIC_ID, Status::Internal)
        );
        assert!(first.docs.is_empty() && first.message.contains("panicked"));
        let second = client.recv().expect("recv").expect("a response");
        assert_eq!((second.id, second.status), (2, Status::Ok));
        assert_eq!(second.docs, warm.docs);
        let snap = net.metrics();
        assert_eq!(snap.counter("fsi_net_worker_panics_total", &[]), Some(1));
        assert_eq!(
            snap.counter("fsi_net_responses_total", &[("status", "internal")]),
            Some(1)
        );
        // The warm-up miss went to a worker; the panic and the hit after it
        // were the reader's.
        assert_eq!(
            snap.counter("fsi_net_answered_total", &[("by", "reader")]),
            Some(2)
        );
    }

    /// A client that pipelines large answers and never reads fills both
    /// sockets' buffers, and the write blocked on it times out: the
    /// connection is shut down and counted, its reader exits, and the one
    /// worker — which was parked writing to it — answers a second client.
    #[test]
    fn a_client_that_never_reads_is_cut_off_at_the_write_timeout() {
        const TIMEOUT: Duration = Duration::from_millis(300);
        const SLACK: Duration = Duration::from_secs(5);
        // Every answer is 200 000 documents: 800 KB on the wire.
        let all: SortedSet = (0..200_000u32).collect();
        let engine = SearchEngine::from_postings(HashContext::new(9), vec![all.clone(), all]);
        // Cache off and one worker: every answer is the worker's to write.
        let serve = Arc::new(Server::new(&engine, ServeConfig { cache_capacity: 0 }));
        let config = NetConfig {
            workers: 1,
            ..NetConfig::default()
        };
        let net = NetServer::with_write_timeout(serve, config, TIMEOUT).expect("bind loopback");
        let mut stalled = TcpStream::connect(net.local_addr()).expect("connect");
        let mut sender = Client::from_stream(stalled.try_clone().expect("clone"));
        // 64 answers, 51 MB: far past what the two sockets buffer.
        for id in 0..64 {
            sender
                .send(&RequestFrame::query(id, "0 AND 1"))
                .expect("send");
        }
        let sent = Instant::now();
        let metric = |read: fn(&Snapshot) -> Option<u64>| read(&net.metrics());
        // A blocked `write` that moved a few bytes returns them at the
        // timeout and the frame's next `write` waits again: the frame is
        // given up within a few timeouts (two or three on Linux loopback).
        while metric(|m| m.counter("fsi_net_write_timeouts_total", &[])) != Some(1) {
            assert!(sent.elapsed() < 4 * TIMEOUT + SLACK, "no write timed out");
            std::thread::sleep(Duration::from_millis(5));
        }
        // The stalled client reads what was buffered, then the end of the
        // stream (or a reset): not its own read timeout.
        stalled.set_read_timeout(Some(SLACK)).expect("timeout");
        if let Err(e) = io::copy(&mut stalled, &mut io::sink()) {
            assert!(!matches!(
                e.kind(),
                ErrorKind::WouldBlock | ErrorKind::TimedOut
            ));
        }
        let mut other = Client::connect(net.local_addr()).expect("connect");
        let asked = Instant::now();
        let resp = other
            .call(&RequestFrame::query(1, "0 AND 1"))
            .expect("answered");
        assert!(asked.elapsed() < SLACK);
        assert_eq!((resp.status, resp.docs.len()), (Status::Ok, 200_000));
        // Only the second client's connection is still open.
        while metric(|m| m.gauge("fsi_net_connections_open", &[])) != Some(1) {
            assert!(
                sent.elapsed() < 4 * TIMEOUT + 3 * SLACK,
                "the stalled reader never exited"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            metric(|m| m.counter("fsi_net_write_timeouts_total", &[])),
            Some(1)
        );
    }
}
