//! The layer replay: a sample of the workload's queries walked, single
//! threaded, through each layer's public functions with a span around
//! every call.
//!
//! The walk is organised in passes — a block of queries through one
//! group of calls, then the same block through the next — so that each
//! call finds the processor caches as a live request would: last touched
//! by some other query, not by the previous step of the same one.

use crate::gate::{self, Expected};
use crate::system::Stack;
use crate::trace::Tracer;
use crate::workload::Workload;
use fsi_core::Elem;
use fsi_index::{MultiwayPlan, PlanKind, PlannedExecutor, PlannedList, Planner};
use fsi_net::protocol::{
    decode_client_frame, decode_response, encode_request, encode_response, ClientFrame,
};
use fsi_net::{Admission, BoundedQueue, Client, NetConfig, RequestFrame, ResponseFrame, Status};
use fsi_query::{ExprPlanner, NormExpr};
use fsi_serve::{CacheOutcome, Request, ServeConfig, Server};
use std::ops::Range;
use std::time::Instant;

/// Stream queries replayed.
pub const SAMPLE: usize = 2048;
/// AND queries of the sample run under every forced plan kind. Fewer
/// than [`SAMPLE`], because a forced `HeapMerge` or `HashProbe` on two
/// stop-word-sized lists takes milliseconds.
pub const FORCED_SAMPLE: usize = 512;

/// A plan kind a multiway AND can run as, with the names it is reported
/// under.
pub struct Kind {
    pub kind: PlanKind,
    /// Span around one forced execution.
    pub span: &'static str,
    /// Share of the sample's AND queries the planner chose it for.
    pub share_metric: &'static str,
    /// Mean time of an AND query with it forced.
    pub forced_metric: &'static str,
}

pub const KINDS: [Kind; 6] = [
    Kind {
        kind: PlanKind::RanGroupScan,
        span: "kernels.forced.RanGroupScan",
        share_metric: "index.plan_kind_share.RanGroupScan",
        forced_metric: "kernels.forced_ns.RanGroupScan",
    },
    Kind {
        kind: PlanKind::HashProbe,
        span: "kernels.forced.HashProbe",
        share_metric: "index.plan_kind_share.HashProbe",
        forced_metric: "kernels.forced_ns.HashProbe",
    },
    Kind {
        kind: PlanKind::BitmapAnd,
        span: "kernels.forced.BitmapAnd",
        share_metric: "index.plan_kind_share.BitmapAnd",
        forced_metric: "kernels.forced_ns.BitmapAnd",
    },
    Kind {
        kind: PlanKind::GallopProbe,
        span: "kernels.forced.GallopProbe",
        share_metric: "index.plan_kind_share.GallopProbe",
        forced_metric: "kernels.forced_ns.GallopProbe",
    },
    Kind {
        kind: PlanKind::HeapMerge,
        span: "kernels.forced.HeapMerge",
        share_metric: "index.plan_kind_share.HeapMerge",
        forced_metric: "kernels.forced_ns.HeapMerge",
    },
    Kind {
        kind: PlanKind::CompressedGallop,
        span: "kernels.forced.CompressedGallop",
        share_metric: "index.plan_kind_share.CompressedGallop",
        forced_metric: "kernels.forced_ns.CompressedGallop",
    },
];

/// What the replay measured besides the spans.
pub struct Replay {
    pub tracer: Tracer,
    /// Queries replayed.
    pub requests: usize,
    /// Mean encoded response size, length prefix included.
    pub response_bytes: f64,
    /// Mean rows per answer.
    pub result_rows: f64,
    /// AND queries run under forced kinds, and how often the planner
    /// chose each of [`KINDS`] for them.
    pub and_queries: usize,
    pub planned: [usize; 6],
    /// For how many of them each of [`KINDS`] was admissible.
    pub admissible: [usize; 6],
    /// Σ time of the planned kind ÷ Σ time of the fastest admissible kind.
    pub plan_regret: f64,
}

/// The terms of a pure conjunction of at least two terms.
fn flat_and(expr: &NormExpr) -> Option<Vec<usize>> {
    let NormExpr::And { pos, neg } = expr else {
        return None;
    };
    if !neg.is_empty() || pos.len() < 2 {
        return None;
    }
    pos.iter()
        .map(|c| match c {
            NormExpr::Term(t) => Some(*t),
            _ => None,
        })
        .collect()
}

fn admissible(kind: PlanKind, lists: &[&PlannedList]) -> bool {
    match kind {
        PlanKind::BitmapAnd => lists.iter().all(|l| l.bitmap().is_some()),
        PlanKind::CompressedGallop => lists.iter().all(|l| l.compressed().is_some()),
        _ => true,
    }
}

/// Queries per block of the walk.
const BLOCK: usize = 128;

/// Replays the first [`SAMPLE`] stream queries through every layer.
/// `client` talks to the live front door of `stack`.
pub fn replay(
    stack: &Stack,
    client: &mut Client,
    workload: &Workload,
    stream: &[String],
    expected: &[Expected],
) -> Result<Replay, String> {
    let sample = &stream[..stream.len().min(SAMPLE)];
    let net_config = NetConfig::default();
    let cached_server;
    let hit_server: &Server = if workload.cached {
        &stack.serve
    } else {
        cached_server = Server::new(&stack.engine, ServeConfig::default());
        &cached_server
    };
    let mut walk = Walk {
        serve: &stack.serve,
        hit_server,
        // Where the workload leaves the kernels idle there is nothing to
        // plan or force.
        kernels: (!workload.cached).then(|| Kernels {
            exec: stack.engine.planned_executor(Planner::auto()),
            planner: ExprPlanner::auto(),
            rows: Vec::new(),
            forced: Vec::new(),
        }),
        sample,
        expected,
        admission: Admission::new(net_config.tenant_rate, net_config.tenant_burst),
        queue: BoundedQueue::new(net_config.queue_capacity),
        batch_max: net_config.batch_max,
        tracer: Tracer::new(),
        wire_span: Vec::with_capacity(sample.len()),
        execute_span: Vec::with_capacity(sample.len()),
        norms: Vec::with_capacity(sample.len()),
        response_bytes: 0,
        result_rows: 0,
    };
    // The walk is blocked: each pass covers BLOCK queries before the next
    // pass covers the same ones. A block's lists are far more than the
    // last-level cache holds, so every call still finds the caches as a
    // live request would; and the parts of one request are measured
    // within tens of milliseconds of its whole, which is what keeps the
    // box's drift out of "the whole minus its parts".
    for lo in (0..sample.len()).step_by(BLOCK) {
        let block = lo..(lo + BLOCK).min(sample.len());
        walk.round_trips(client, block.clone())?;
        walk.request_path(block.clone())?;
        walk.inside_execute(block.clone())?;
        walk.cache_hits(block.clone())?;
        walk.plan_and_execute(block.clone());
        walk.forced_kinds(block);
    }
    Ok(walk.finish())
}

/// The unsharded planned index the planner and kernel passes run on (as
/// `fsi-bench --bin boolean` does), and what the forced passes found.
struct Kernels {
    exec: PlannedExecutor,
    planner: ExprPlanner,
    rows: Vec<Elem>,
    /// Per AND query: the kind the planner chose, and the time under
    /// each of [`KINDS`] where admissible.
    forced: Vec<(PlanKind, [Option<u64>; 6])>,
}

struct Walk<'a> {
    serve: &'a Server,
    hit_server: &'a Server,
    kernels: Option<Kernels>,
    sample: &'a [String],
    expected: &'a [Expected],
    admission: Admission,
    queue: BoundedQueue<RequestFrame>,
    batch_max: usize,
    tracer: Tracer,
    /// Per query: its `net.wire_call` and `serve.execute` spans, and its
    /// canonical form.
    wire_span: Vec<u32>,
    execute_span: Vec<u32>,
    norms: Vec<NormExpr>,
    response_bytes: u64,
    result_rows: u64,
}

impl Walk<'_> {
    /// The whole: one live round trip per query.
    fn round_trips(&mut self, client: &mut Client, block: Range<usize>) -> Result<(), String> {
        for i in block {
            let query = &self.sample[i];
            let frame = RequestFrame::query(i as u64, query.as_str());
            let (id, resp) = self
                .tracer
                .record("net.wire_call", i as u32, None, || client.call(&frame));
            let resp = resp.map_err(|e| format!("{query:?}: {e}"))?;
            if resp.id != i as u64 {
                return Err(format!(
                    "{query:?}: response id {} for request {i}",
                    resp.id
                ));
            }
            gate::check(&self.expected[i], &resp).map_err(|e| format!("{query:?}: {e}"))?;
            self.wire_span.push(id);
        }
        Ok(())
    }

    /// The request path around `Server::execute`, in the order a request
    /// meets it, with the front door's default policy objects.
    fn request_path(&mut self, block: Range<usize>) -> Result<(), String> {
        for i in block {
            let query = &self.sample[i];
            let (r, wire) = (i as u32, Some(self.wire_span[i]));
            let t = &mut self.tracer;
            let frame = RequestFrame::query(i as u64, query.as_str());
            let (_, body) = t.record("net.encode_request", r, wire, || encode_request(&frame));
            let (_, decoded) =
                t.record("net.decode_request", r, wire, || decode_client_frame(&body));
            let Ok(ClientFrame::Query(decoded)) = decoded else {
                return Err(format!("{query:?}: request frame did not round-trip"));
            };
            let now = Instant::now();
            let (_, admitted) = t.record("net.admit", r, wire, || {
                self.admission.admit(decoded.tenant, now)
            });
            if !admitted {
                return Err(format!("{query:?}: default admission refused a request"));
            }
            let (_, batch) = t.record("net.queue_handoff", r, wire, || {
                self.queue
                    .push(decoded)
                    .ok()
                    .and_then(|()| self.queue.pop_batch(self.batch_max))
            });
            let Some(Some(request)) = batch.map(|mut b| b.pop()) else {
                return Err(format!("{query:?}: request lost in the queue"));
            };
            let (exec_id, answer) = t.record("serve.execute", r, wire, || {
                self.serve.execute(&Request::expr(&request.query))
            });
            let answer = answer.map_err(|e| format!("{query:?}: {e}"))?;
            self.execute_span.push(exec_id);
            self.result_rows += answer.docs.len() as u64;
            // Building the frame copies the documents out of the shared
            // result; the server pays that copy before it encodes.
            let (_, wire_body) = t.record("net.encode_response", r, wire, || {
                encode_response(&ResponseFrame {
                    status: Status::Ok,
                    detail: 0,
                    flags: 0,
                    id: request.id,
                    latency_us: answer.latency.as_micros().min(u128::from(u32::MAX)) as u32,
                    docs: answer.docs.as_slice().to_vec(),
                    message: String::new(),
                })
            });
            self.response_bytes += wire_body.len() as u64 + 4;
            let (_, back) = t.record("net.decode_response", r, wire, || {
                decode_response(&wire_body)
            });
            let back = back.map_err(|e| format!("{query:?}: {e}"))?;
            gate::check(&self.expected[i], &back).map_err(|e| format!("{query:?}: {e}"))?;
        }
        Ok(())
    }

    /// Inside `execute`: compile, key, and (when the workload's server
    /// computes answers at all) the sharded evaluation.
    fn inside_execute(&mut self, block: Range<usize>) -> Result<(), String> {
        for i in block {
            let query = &self.sample[i];
            let (r, exec) = (i as u32, Some(self.execute_span[i]));
            let t = &mut self.tracer;
            let (_, ast) = t.record("query.parse", r, exec, || fsi_query::parse(query));
            let ast = ast.map_err(|e| format!("{query:?}: {e}"))?;
            let (_, norm) = t.record("query.normalize", r, exec, || fsi_query::normalize(&ast));
            let norm = norm.map_err(|e| format!("{query:?}: {e}"))?;
            let (_, key) = t.record("query.encode_key", r, None, || fsi_query::encode(&norm));
            std::hint::black_box(key);
            if self.kernels.is_some() {
                let (_, docs) = t.record("serve.shard_exec", r, exec, || {
                    self.serve.engine().query_expr(&norm)
                });
                if docs.len() != self.expected[i].len as usize {
                    return Err(format!("{query:?}: sharded evaluation disagrees"));
                }
            }
            self.norms.push(norm);
        }
        Ok(())
    }

    /// A cache hit: `execute` on an immediate repeat, on a cache-fronted
    /// server.
    fn cache_hits(&mut self, block: Range<usize>) -> Result<(), String> {
        for i in block {
            let query = &self.sample[i];
            let request = Request::expr(query.as_str());
            self.hit_server
                .execute(&request)
                .map_err(|e| format!("{query:?}: {e}"))?;
            let (_, hit) = self.tracer.record("serve.cache_hit", i as u32, None, || {
                self.hit_server.execute(&request)
            });
            let hit = hit.map_err(|e| format!("{query:?}: {e}"))?;
            if hit.cache != CacheOutcome::Hit {
                return Err(format!("{query:?}: immediate repeat was not a cache hit"));
            }
        }
        Ok(())
    }

    /// Plan and execute on the unsharded planned index.
    fn plan_and_execute(&mut self, block: Range<usize>) {
        let Some(k) = &mut self.kernels else { return };
        for i in block {
            let norm = &self.norms[i];
            let (_, plan) = self.tracer.record("query.plan", i as u32, None, || {
                k.planner
                    .plan(norm, &|t| k.exec.list(t).stats(), k.exec.universe())
            });
            k.rows.clear();
            self.tracer.record("query.exec", i as u32, None, || {
                fsi_query::execute_plan(&k.exec, &k.planner, &plan, &mut k.rows)
            });
        }
    }

    /// The block's AND queries under every admissible forced kind, one
    /// kind at a time, until [`FORCED_SAMPLE`] queries have been forced.
    fn forced_kinds(&mut self, block: Range<usize>) {
        let Some(k) = &mut self.kernels else { return };
        let room = FORCED_SAMPLE - k.forced.len();
        let ands: Vec<(u32, Vec<usize>)> = block
            .filter_map(|i| flat_and(&self.norms[i]).map(|terms| (i as u32, terms)))
            .take(room)
            .collect();
        let first = k.forced.len();
        let mut orders = Vec::with_capacity(ands.len());
        for (_, terms) in &ands {
            let plan = k.exec.plan(terms);
            k.forced.push((plan.kind, [None; 6]));
            orders.push(plan.order);
        }
        for (slot, Kind { kind, span, .. }) in KINDS.iter().enumerate() {
            let kind = *kind;
            for (q, (request, terms)) in ands.iter().enumerate() {
                let lists: Vec<&PlannedList> = terms.iter().map(|&t| k.exec.list(t)).collect();
                if !admissible(kind, &lists) {
                    continue;
                }
                let plan = MultiwayPlan {
                    kind,
                    order: orders[q].clone(),
                    est_cost: 0.0,
                };
                k.rows.clear();
                let (id, ()) = self.tracer.record(span, *request, None, || {
                    k.exec.planner().execute(&plan, &lists, &mut k.rows);
                    // RanGroupScan emits in g-order; serving pays the sort.
                    if kind == PlanKind::RanGroupScan {
                        k.rows.sort_unstable();
                    }
                });
                k.forced[first + q].1[slot] = Some(self.tracer.spans()[id as usize].duration_ns());
            }
        }
    }

    fn finish(self) -> Replay {
        let n = self.sample.len();
        let mut out = Replay {
            tracer: self.tracer,
            requests: n,
            response_bytes: self.response_bytes as f64 / n as f64,
            result_rows: self.result_rows as f64 / n as f64,
            and_queries: 0,
            planned: [0; 6],
            admissible: [0; 6],
            plan_regret: 0.0,
        };
        let forced = self.kernels.map(|k| k.forced).unwrap_or_default();
        out.and_queries = forced.len();
        let (mut planned_ns, mut best_ns) = (0u64, 0u64);
        for (planned, times) in &forced {
            for (slot, time) in times.iter().enumerate() {
                out.admissible[slot] += usize::from(time.is_some());
            }
            let Some(slot) = KINDS.iter().position(|k| k.kind == *planned) else {
                continue; // Empty or Single: nothing to choose.
            };
            out.planned[slot] += 1;
            planned_ns += times[slot].unwrap_or(0);
            best_ns += times.iter().flatten().min().copied().unwrap_or(0);
        }
        if best_ns > 0 {
            out.plan_regret = planned_ns as f64 / best_ns as f64;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_pure_multi_term_conjunctions_are_and_queries() {
        let compile = |q| fsi_query::compile(q).expect("compiles");
        assert_eq!(flat_and(&compile("t3 AND t1 t2")), Some(vec![1, 2, 3]));
        assert_eq!(flat_and(&compile("t1 AND NOT t2")), None);
        assert_eq!(flat_and(&compile("t1 OR t2")), None);
        assert_eq!(flat_and(&compile("t1 AND (t2 OR t3)")), None);
        assert_eq!(flat_and(&compile("t4")), None);
    }
}
