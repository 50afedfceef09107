//! # fsi-net — the TCP front door over `fsi-serve`
//!
//! Ding & König's fast intersections buy headroom per query; this crate
//! spends that headroom under an arrival process. It serves the
//! [`fsi_serve::Server::execute`] request-lifetime API over plain
//! `std::net` TCP with the disciplines a front door owes its callers:
//!
//! * [`protocol`] — a length-prefixed binary protocol (request id,
//!   tenant, relative deadline, query string). Decoding is panic-free by
//!   construction; garbage gets a `BadFrame` response, never a crash.
//!   A frame is assembled whole — prefix included — and costs one write;
//!   read through a buffer, it costs one read, shared with whatever is
//!   pipelined behind it.
//! * [`queue`] — a bounded MPMC request queue: the one buffering point,
//!   whose bound is the backpressure. Workers dequeue adaptive
//!   micro-batches (whatever is queued, up to a cap); one that finds
//!   nothing polls briefly for the next request — one worker at a time,
//!   yielding, bounded — before it parks, so a miss on a quiet server
//!   does not wait for a thread to be woken.
//! * [`admission`] — per-tenant token buckets, so one flooding tenant is
//!   clipped to its rate while everyone else keeps their latency; the
//!   bucket map is bounded, so cycling tenant ids cannot grow it.
//! * [`server`] — [`NetServer`]: listener, per-connection readers,
//!   worker pool. The reader that decoded a frame runs
//!   [`fsi_serve::Server::begin`] and **answers there whatever needs no
//!   kernel** — a cache hit, an invalid query, an unknown term, a
//!   deadline already expired, a plain `EXPLAIN`; only a cache miss (or an
//!   `EXPLAIN ANALYZE`, which runs the query) is queued (with its
//!   compiled expression) for a worker to [`fsi_serve::Server::finish`],
//!   and a miss always is: the reader does bounded work only. A query
//!   sent with an `EXPLAIN [ANALYZE]` prefix gets a [`Status::Ok`] frame
//!   with no documents and the rendered plan as its message. Every
//!   response is encoded once, straight from the result the cache
//!   shares, into the connection's one reused buffer. Deadline-aware
//!   shedding happens on arrival and again at dequeue: a request that
//!   already missed its deadline is answered `Shed` without executing,
//!   and overload is answered `Overloaded` at admission time — every
//!   decoded request gets exactly one explicit response, never silent
//!   queueing.
//! * [`lifecycle`] — request-lifecycle observability ([`ObsConfig`]):
//!   per-stage timestamps (`decode` → `queue` → `execute` → `write`; no
//!   `queue` stage when the reader answered) exported as
//!   `fsi_net_stage_ns{stage}`, `fsi_net_answered_total{by}`, per-tenant
//!   wait/service histograms behind a label-cardinality cap, and
//!   tail-sampled retention into the [`fsi_obs::SlowLog`]. The
//!   in-band admin ops ([`protocol::AdminOp`]: `Metrics`, `Health`,
//!   `SlowLog`) expose all of it over the same socket, bypassing
//!   admission and the queue so scraping works under overload.
//! * [`client`] — a small blocking [`Client`] for examples, tests, the
//!   benchmark's load generator and the SLO bench (`fsi-bench --bin
//!   slo`, which drives a real loopback socket with an open-loop arrival
//!   schedule). Responses come back in completion order — a hit
//!   overtakes the miss sent before it — so pipelining callers match on
//!   the echoed id.
//!
//! ```no_run
//! use std::sync::Arc;
//! use fsi_net::{Client, NetConfig, NetServer, RequestFrame, Status};
//! use fsi_serve::{ServeConfig, Server};
//! use fsi_core::HashContext;
//! use fsi_index::{Corpus, CorpusConfig};
//!
//! let serve = Arc::new(Server::from_corpus(
//!     HashContext::new(42),
//!     Corpus::generate(CorpusConfig::default()),
//!     ServeConfig::default(),
//! ));
//! let net = NetServer::start(serve, NetConfig::default())?;
//! let mut client = Client::connect(net.local_addr())?;
//! let resp = client.call(&RequestFrame::query(1, "(0 OR 1) AND 2").with_deadline_us(50_000))?;
//! assert_eq!(resp.status, Status::Ok);
//! println!("{} docs in {}us", resp.docs.len(), resp.latency_us);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod admission;
pub mod client;
pub mod lifecycle;
pub mod protocol;
pub mod queue;
pub mod server;

pub use admission::Admission;
pub use client::Client;
pub use lifecycle::ObsConfig;
pub use protocol::{
    AdminOp, AdminRequest, AdminResponse, ClientFrame, FrameError, RequestFrame, ResponseFrame,
    Status,
};
pub use queue::BoundedQueue;
pub use server::{NetConfig, NetServer};
