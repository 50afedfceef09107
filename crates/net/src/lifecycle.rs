//! Request-lifecycle observability for the front door: per-stage
//! timestamps from frame read to response write, tail-based retention
//! into the [`SlowLog`], and per-tenant labeled metrics behind a
//! cardinality cap.
//!
//! The always-on path records **timestamps only** (one `Instant::now()`
//! per stage boundary plus a handful of relaxed atomics at completion) —
//! the ≤5% overhead discipline that `BENCH_slo.json`'s
//! instrumented-vs-stripped gate enforces. Every metric handle a request
//! touches is resolved once — per server for the fixed names and the
//! `anon` tenant, per connection for a named tenant — so a request costs
//! no registry lookup and no label `String`. Full span trees are built
//! only for head-sampled requests, which run through
//! `fsi_serve::Request::traced`; everything else that the tail sampler
//! retains (threshold breaches, sheds, rejections) carries the stage
//! timeline, outcome attribution, and queue depth — enough to answer
//! "where did the time go" without paying trace construction per
//! request.
//!
//! The stage vocabulary, in order (`fsi_net_stage_ns{stage=…}`):
//!
//! * `decode` — what the reader thread does before it answers or hands
//!   off: frame decode, the admission check, and, for a request that is
//!   then queued, `fsi_serve::Server::begin` (parse, normalize, cache
//!   probe);
//! * `queue` — wait from enqueue to dequeue (under overload this is where
//!   p99 lives). A request the reader answers itself has **no** `queue`
//!   stage and leaves no `fsi_net_queue_wait_ns` sample: it never waited;
//! * `execute` — serve-side service time: `begin` for a reader-answered
//!   request (a cache hit, a refusal, an error), `Server::finish` for a
//!   worker-answered one;
//! * `write` — encode + socket write.

use crate::protocol::Status;
use fsi_obs::{
    Counter, Histogram, LabelCap, QueryTrace, Registry, SlowLog, SlowLogEntry, Stage, TailSampler,
};
use fsi_serve::ShedReason;
use std::collections::BTreeMap;
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Observability configuration of the front door.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Whether the lifecycle layer runs at all. `false` strips every
    /// per-request timestamp, per-tenant metric, and slow-log push —
    /// the baseline side of the instrumented-vs-stripped bench gate.
    pub lifecycle: bool,
    /// Retained slow-log entries; `0` disables retention.
    pub slowlog_capacity: usize,
    /// Latency threshold past which a request's record is retained.
    pub slow_threshold: Duration,
    /// Head-sample every N-th request with a full execution trace;
    /// `0` disables head sampling.
    pub head_sample_every: u64,
    /// Maximum distinct tenant label values on per-tenant metrics;
    /// further tenants collapse into the `other` label.
    pub tenant_label_cap: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            lifecycle: true,
            slowlog_capacity: 256,
            slow_threshold: Duration::from_millis(100),
            head_sample_every: 0,
            tenant_label_cap: 64,
        }
    }
}

/// One lifecycle stage; the discriminant is its slot in
/// [`Lifecycle::dur_ns`] and its position in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StageKind {
    Decode,
    Queue,
    Execute,
    Write,
}

const STAGES: [(StageKind, &str); 4] = [
    (StageKind::Decode, "decode"),
    (StageKind::Queue, "queue"),
    (StageKind::Execute, "execute"),
    (StageKind::Write, "write"),
];

/// Which thread wrote a request's response
/// (`fsi_net_answered_total{by=…}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AnsweredBy {
    /// The connection's reader: the request needed no kernel.
    Reader,
    /// A pool worker, after the queue.
    Worker,
}

/// A per-tenant outcome (`fsi_net_tenant_requests_total{outcome=…}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TenantOutcome {
    /// Passed the tenant's token bucket — whatever became of it after
    /// (a request shed later counts under both).
    Admitted,
    /// Denied by the tenant's token bucket.
    Rejected,
    /// Shed: queue full or deadline expired.
    Shed,
}

/// A histogram registered at its first sample: one registry lookup for
/// the life of the server, and a family nothing was recorded into stays
/// out of the scrape (an empty histogram's percentiles read `NaN`).
struct LazyHistogram {
    name: &'static str,
    label: (&'static str, String),
    cell: OnceLock<Arc<Histogram>>,
}

impl LazyHistogram {
    fn new(name: &'static str, key: &'static str, value: &str) -> Self {
        Self {
            name,
            label: (key, value.to_string()),
            cell: OnceLock::new(),
        }
    }

    fn get(&self, registry: &Registry) -> &Histogram {
        self.cell
            .get_or_init(|| registry.histogram(self.name, &[(self.label.0, &self.label.1)]))
    }
}

/// The metric handles of one tenant label.
pub(crate) struct TenantMetrics {
    outcomes: [Arc<Counter>; 3],
    queue_wait: LazyHistogram,
    service: LazyHistogram,
}

impl TenantMetrics {
    fn new(registry: &Registry, label: &str) -> Self {
        let outcome = |outcome| {
            registry.counter(
                "fsi_net_tenant_requests_total",
                &[("tenant", label), ("outcome", outcome)],
            )
        };
        Self {
            outcomes: [outcome("admitted"), outcome("rejected"), outcome("shed")],
            queue_wait: LazyHistogram::new("fsi_net_queue_wait_ns", "tenant", label),
            service: LazyHistogram::new("fsi_net_service_ns", "tenant", label),
        }
    }
}

/// The tenant a connection's last request billed to, with its handles: a
/// connection usually speaks for one tenant, so this one-entry memo keeps
/// the label cap's lock and the label `String` off the request path.
pub(crate) type RecentTenant = Option<(u32, Arc<TenantMetrics>)>;

/// Per-request lifecycle context: an origin instant and sequential stage
/// stamps. Created at frame read, carried through the queue with the
/// request, finished after the response write.
pub(crate) struct Lifecycle {
    origin: Instant,
    last: Instant,
    /// Duration of each stage the request went through, by [`StageKind`].
    /// Stages happen in slot order, so a stage starts where the stamped
    /// ones before it end.
    dur_ns: [Option<u64>; 4],
    /// The request's tenant handles; `None` bills to [`NetObs::anon`].
    tenant: Option<Arc<TenantMetrics>>,
    /// Whether the 1-in-N head sampler picked this request (it then runs
    /// fully traced).
    pub head_sampled: bool,
    /// Queue depth observed at admission.
    pub queue_depth: usize,
}

impl Lifecycle {
    fn new(origin: Instant, tenant: Option<Arc<TenantMetrics>>, head_sampled: bool) -> Self {
        Self {
            origin,
            last: origin,
            dur_ns: [None; 4],
            tenant,
            head_sampled,
            queue_depth: 0,
        }
    }

    /// Closes the stage that ran from the previous boundary to now.
    /// Stamping the most recent stage again extends it.
    pub fn stage(&mut self, kind: StageKind) {
        let now = Instant::now();
        if let Some(slot) = self.dur_ns.get_mut(kind as usize) {
            *slot = Some(slot.unwrap_or(0) + ns(now.saturating_duration_since(self.last)));
        }
        self.last = now;
    }

    fn total_ns(&self) -> u64 {
        ns(self.last.saturating_duration_since(self.origin))
    }

    fn stage_dur(&self, kind: StageKind) -> Option<u64> {
        self.dur_ns.get(kind as usize).copied().flatten()
    }

    /// The stamped stages as the slow log keeps them.
    fn timeline(&self) -> Vec<Stage> {
        let mut start_ns = 0;
        STAGES
            .iter()
            .filter_map(|&(kind, name)| {
                let dur_ns = self.stage_dur(kind)?;
                let stage = Stage {
                    name,
                    start_ns,
                    dur_ns,
                };
                start_ns += dur_ns;
                Some(stage)
            })
            .collect()
    }
}

/// Increments the counter an enum discriminant selects.
fn inc(counters: &[Arc<Counter>], which: usize) {
    if let Some(counter) = counters.get(which) {
        counter.inc();
    }
}

pub(crate) fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// How one request ended, for the slow log.
pub(crate) struct Verdict {
    /// `ok`, `shed`, `overloaded`, or `invalid_query`.
    pub outcome: &'static str,
    /// The shed reason or the cache outcome; empty when none applies.
    pub reason: &'static str,
    /// The executed plan's root operator; empty when nothing was planned.
    pub plan: &'static str,
    /// The execution trace of a head-sampled request.
    pub trace: Option<QueryTrace>,
}

impl Verdict {
    /// A verdict with nothing planned and nothing traced.
    pub fn new(outcome: &'static str, reason: &'static str) -> Self {
        Self {
            outcome,
            reason,
            plan: "",
            trace: None,
        }
    }
}

/// The shared observability state of one `NetServer`: its registry, slow
/// log, sampling policy, tenant label cap, and the metric handles the
/// request path records through.
pub(crate) struct NetObs {
    pub registry: Registry,
    pub slowlog: SlowLog,
    sampler: TailSampler,
    tenants: LabelCap,
    pub lifecycle: bool,
    pub started: Instant,
    /// Connections whose reader is still running
    /// (`fsi_net_connections_open`, set at scrape time).
    pub open_connections: AtomicUsize,
    /// `fsi_net_requests_total`.
    pub requests: Arc<Counter>,
    /// `fsi_net_batch_size`, registered by the first batch.
    batch_size: OnceLock<Arc<Histogram>>,
    /// `fsi_net_responses_total{status}`, indexed by [`Status`].
    responses: [Arc<Counter>; 5],
    /// `fsi_net_answered_total{by}`, indexed by [`AnsweredBy`].
    answered: [Arc<Counter>; 2],
    /// `fsi_net_shed_total{reason="deadline_expired"}`: requests shed
    /// because their deadline ran out, on arrival or in the queue.
    pub shed_deadline: Arc<Counter>,
    /// `fsi_net_stage_ns{stage}`, indexed by [`StageKind`].
    stage_ns: [LazyHistogram; 4],
    /// Handles of the anonymous tenant; `None` in stripped mode.
    anon: Option<TenantMetrics>,
    /// Handles per capped tenant label — at most `tenant_label_cap + 1`.
    named: Mutex<BTreeMap<String, Arc<TenantMetrics>>>,
}

impl NetObs {
    pub fn new(config: &ObsConfig) -> Self {
        let registry = Registry::new();
        let response = |status| registry.counter("fsi_net_responses_total", &[("status", status)]);
        let answered = |by| registry.counter("fsi_net_answered_total", &[("by", by)]);
        let shed_deadline = registry.counter(
            "fsi_net_shed_total",
            &[("reason", ShedReason::DeadlineExpired.label())],
        );
        Self {
            slowlog: SlowLog::new(if config.lifecycle {
                config.slowlog_capacity
            } else {
                0
            }),
            sampler: TailSampler::new(config.slow_threshold, config.head_sample_every),
            tenants: LabelCap::new(config.tenant_label_cap),
            lifecycle: config.lifecycle,
            started: Instant::now(),
            open_connections: AtomicUsize::new(0),
            requests: registry.counter("fsi_net_requests_total", &[]),
            batch_size: OnceLock::new(),
            // In `Status` discriminant order.
            responses: [
                response("ok"),
                response("shed"),
                response("overloaded"),
                response("invalid_query"),
                response("bad_frame"),
            ],
            answered: [answered("reader"), answered("worker")],
            shed_deadline,
            stage_ns: STAGES.map(|(_, name)| LazyHistogram::new("fsi_net_stage_ns", "stage", name)),
            anon: config
                .lifecycle
                .then(|| TenantMetrics::new(&registry, "anon")),
            named: Mutex::new(BTreeMap::new()),
            registry,
        }
    }

    /// Opens a lifecycle context for one request, resolving its tenant's
    /// handles (through `recent`, the connection's memo) and making the
    /// head-sample decision now so a sampled request can run fully
    /// traced. `None` in stripped mode — downstream stamping
    /// short-circuits on it.
    pub fn begin(
        &self,
        origin: Instant,
        tenant: Option<u32>,
        recent: &mut RecentTenant,
    ) -> Option<Lifecycle> {
        if !self.lifecycle {
            return None;
        }
        let tenant = tenant.map(|id| match recent {
            Some((seen, metrics)) if *seen == id => Arc::clone(metrics),
            _ => {
                let metrics = self.tenant_metrics(id);
                *recent = Some((id, Arc::clone(&metrics)));
                metrics
            }
        });
        Some(Lifecycle::new(origin, tenant, self.sampler.sample_head()))
    }

    /// The handles of `id`'s capped label, registered at first use.
    fn tenant_metrics(&self, id: u32) -> Arc<TenantMetrics> {
        let label = self.tenants.label(id);
        // Every update leaves the map valid, so a poisoned lock is still
        // good to read and insert into.
        let mut named = self.named.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(metrics) = named.get(&label) {
            return Arc::clone(metrics);
        }
        let metrics = Arc::new(TenantMetrics::new(&self.registry, &label));
        named.insert(label, Arc::clone(&metrics));
        metrics
    }

    /// The tenant handles a lifecycle bills to.
    fn tenant_of<'a>(&'a self, lc: &'a Lifecycle) -> Option<&'a TenantMetrics> {
        lc.tenant.as_deref().or(self.anon.as_ref())
    }

    /// Counts one per-tenant outcome. A `None` lifecycle (stripped mode)
    /// records nothing.
    pub fn tenant_outcome(&self, lifecycle: &Option<Lifecycle>, outcome: TenantOutcome) {
        if let Some(tenant) = lifecycle.as_ref().and_then(|lc| self.tenant_of(lc)) {
            inc(&tenant.outcomes, outcome as usize);
        }
    }

    /// Counts one response on its way out, by status and by the thread
    /// writing it.
    pub fn count_response(&self, status: Status, by: AnsweredBy) {
        inc(&self.responses, status as usize);
        inc(&self.answered, by as usize);
    }

    /// Counts one `BadFrame` response: it answers no request, so nobody
    /// "answered" it.
    pub fn count_bad_frame(&self) {
        self.registry.counter("fsi_net_frames_bad_total", &[]).inc();
        inc(&self.responses, Status::BadFrame as usize);
    }

    /// Records one worker micro-batch.
    pub fn record_batch(&self, len: usize) {
        self.batch_size
            .get_or_init(|| self.registry.histogram("fsi_net_batch_size", &[]))
            .record(len as u64);
    }

    /// Finishes one request: records every stamped stage into
    /// `fsi_net_stage_ns`, queue-wait and service-time into the tenant's
    /// histograms (with the request id as exemplar), asks the tail
    /// sampler whether to retain, and pushes the slow-log entry if so.
    pub fn finish(&self, lc: Lifecycle, id: u64, tenant: Option<u32>, query: &str, v: Verdict) {
        for (kind, hist) in STAGES.iter().zip(&self.stage_ns) {
            if let Some(dur) = lc.stage_dur(kind.0) {
                hist.get(&self.registry).record(dur);
            }
        }
        if let Some(metrics) = self.tenant_of(&lc) {
            if let Some(wait) = lc.stage_dur(StageKind::Queue) {
                metrics
                    .queue_wait
                    .get(&self.registry)
                    .record_with_exemplar(wait, id);
            }
            if let Some(service) = lc.stage_dur(StageKind::Execute) {
                metrics
                    .service
                    .get(&self.registry)
                    .record_with_exemplar(service, id);
            }
        }
        let total_ns = lc.total_ns();
        if self
            .sampler
            .retain(total_ns, v.outcome == "ok", lc.head_sampled)
        {
            self.slowlog.push(SlowLogEntry {
                id,
                tenant,
                query: query.to_string(),
                outcome: v.outcome,
                reason: v.reason,
                queue_depth: lc.queue_depth,
                total_ns,
                stages: lc.timeline(),
                plan_summary: v.plan.to_string(),
                trace: v.trace,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_obs::SnapshotValue;

    #[test]
    fn stages_are_sequential_offsets_from_origin() {
        let mut lc = Lifecycle::new(Instant::now(), None, false);
        lc.stage(StageKind::Decode);
        std::thread::sleep(Duration::from_millis(2));
        lc.stage(StageKind::Queue);
        lc.stage(StageKind::Execute);
        let stages = lc.timeline();
        assert_eq!(
            stages.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["decode", "queue", "execute"]
        );
        // Each stage starts where the previous one ended, and together
        // they cover the whole lifecycle.
        for pair in stages.windows(2) {
            assert_eq!(pair[0].start_ns + pair[0].dur_ns, pair[1].start_ns);
        }
        assert_eq!(stages.iter().map(|s| s.dur_ns).sum::<u64>(), lc.total_ns());
        assert!(lc.stage_dur(StageKind::Queue).expect("queue stage") >= 2_000_000);
        assert!(lc.total_ns() >= 2_000_000);
        assert_eq!(lc.stage_dur(StageKind::Write), None);
    }

    #[test]
    fn restamping_a_stage_extends_it() {
        // The reader stamps `decode` before `begin` and again when `begin`
        // came back a miss: one stage, covering both.
        let mut lc = Lifecycle::new(Instant::now(), None, false);
        lc.stage(StageKind::Decode);
        let first = lc.stage_dur(StageKind::Decode).expect("stamped");
        std::thread::sleep(Duration::from_millis(1));
        lc.stage(StageKind::Decode);
        let both = lc.stage_dur(StageKind::Decode).expect("stamped");
        assert!(both >= first + 1_000_000, "{first} then {both}");
        assert_eq!(lc.timeline().len(), 1);
        assert_eq!(both, lc.total_ns());
    }

    #[test]
    fn stripped_mode_produces_no_context_and_retains_nothing() {
        let obs = NetObs::new(&ObsConfig {
            lifecycle: false,
            ..ObsConfig::default()
        });
        let lifecycle = obs.begin(Instant::now(), Some(1), &mut None);
        assert!(lifecycle.is_none());
        obs.tenant_outcome(&lifecycle, TenantOutcome::Admitted);
        // Only the always-on counters exist, all still at zero: no
        // per-tenant series, no histogram.
        for entry in obs.registry.snapshot().entries {
            assert!(!entry.name.contains("tenant"), "{entry:?}");
            assert_eq!(entry.value, SnapshotValue::Counter(0), "{entry:?}");
        }
        assert_eq!(obs.slowlog.capacity(), 0);
    }

    #[test]
    fn finish_records_per_tenant_histograms_and_retains_non_success() {
        let obs = NetObs::new(&ObsConfig {
            slow_threshold: Duration::from_secs(3600), // only non-success retains
            ..ObsConfig::default()
        });
        let mut recent = None;
        let mut lc = obs
            .begin(Instant::now(), Some(7), &mut recent)
            .expect("lifecycle on");
        for (kind, _) in STAGES {
            lc.stage(kind);
        }
        lc.queue_depth = 9;
        obs.finish(
            lc,
            42,
            Some(7),
            "0 AND 1",
            Verdict::new("shed", "deadline_expired"),
        );
        let snap = obs.registry.snapshot();
        let wait = snap
            .histogram("fsi_net_queue_wait_ns", &[("tenant", "7")])
            .expect("wait histogram");
        assert_eq!(wait.count, 1);
        assert_eq!(wait.exemplar.map(|(_, id)| id), Some(42));
        assert!(snap
            .histogram("fsi_net_service_ns", &[("tenant", "7")])
            .is_some());
        for (_, stage) in STAGES {
            let hist = snap.histogram("fsi_net_stage_ns", &[("stage", stage)]);
            assert_eq!(hist.map(|h| h.count), Some(1), "{stage}");
        }
        let entries = obs.slowlog.entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].id, 42);
        assert_eq!(entries[0].queue_depth, 9);
        assert_eq!(entries[0].outcome, "shed");
        assert_eq!(entries[0].stages.len(), 4);
        // A fast success under the same policy is not retained — and, never
        // queued, leaves no queue-wait sample and no `queue` stage sample.
        let mut lc = obs
            .begin(Instant::now(), Some(7), &mut recent)
            .expect("lifecycle on");
        assert!(
            matches!(&recent, Some((7, _))),
            "the connection remembers its tenant"
        );
        lc.stage(StageKind::Decode);
        lc.stage(StageKind::Execute);
        obs.finish(lc, 43, Some(7), "0 AND 1", Verdict::new("ok", "cache_hit"));
        assert_eq!(obs.slowlog.len(), 1, "fast success dropped");
        let snap = obs.registry.snapshot();
        let count = |name, labels: &[(&str, &str)]| snap.histogram(name, labels).map(|h| h.count);
        assert_eq!(count("fsi_net_queue_wait_ns", &[("tenant", "7")]), Some(1));
        assert_eq!(count("fsi_net_service_ns", &[("tenant", "7")]), Some(2));
        assert_eq!(count("fsi_net_stage_ns", &[("stage", "queue")]), Some(1));
        assert_eq!(count("fsi_net_stage_ns", &[("stage", "execute")]), Some(2));
    }

    #[test]
    fn tenant_handles_stay_behind_the_label_cap() {
        let obs = NetObs::new(&ObsConfig {
            tenant_label_cap: 2,
            ..ObsConfig::default()
        });
        let mut recent = None;
        for tenant in 0..10 {
            let lc = obs.begin(Instant::now(), Some(tenant), &mut recent);
            obs.tenant_outcome(&lc, TenantOutcome::Admitted);
        }
        let snap = obs.registry.snapshot();
        let admitted = |tenant| {
            snap.counter(
                "fsi_net_tenant_requests_total",
                &[("tenant", tenant), ("outcome", "admitted")],
            )
        };
        assert_eq!(admitted("0"), Some(1));
        assert_eq!(admitted("1"), Some(1));
        assert_eq!(admitted("other"), Some(8), "over-cap tenants share a label");
        assert_eq!(admitted("2"), None);
    }
}
