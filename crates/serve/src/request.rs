//! The request-lifetime serving API: one [`Request`] in, one [`Response`]
//! out.
//!
//! [`crate::Server::execute`] is the one entry point: a [`Request`] names
//! *what* to answer ([`QueryInput`]) and *how* ([`QueryOptions`]), and the
//! [`Response`] carries the documents plus per-request metadata (cache
//! outcome, chosen plan kind, served/shed disposition, measured latency,
//! optional trace and `EXPLAIN` rendering). Every per-request concern
//! (deadlines, tenants, tracing) is an option, not a method.

use fsi_core::Elem;
use fsi_obs::QueryTrace;
use fsi_query::{ExplainMode, NormExpr};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a request asks the engine to answer.
#[derive(Debug, Clone)]
pub enum QueryInput {
    /// A flat conjunctive query: intersect these posting lists. Served as
    /// the equivalent `AND` expression — same plan, same cache entry.
    Terms(Vec<usize>),
    /// A boolean query string in the [`fsi_query`] language
    /// (`AND`/`OR`/`NOT`, parentheses, implicit `AND`, optional
    /// `EXPLAIN [ANALYZE]` prefix).
    Text(String),
    /// A pre-compiled canonical expression.
    Norm(NormExpr),
}

/// Per-request execution options. Everything defaults off.
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    /// Record a [`QueryTrace`] (one span per stage) into
    /// [`Response::trace`].
    pub trace: bool,
    /// Render the plan instead of serving documents: `Some(mode)` turns
    /// the request into `EXPLAIN` with that default mode. A textual query
    /// carrying its own `EXPLAIN [ANALYZE]` prefix triggers this too (the
    /// prefix wins over the option's mode).
    pub explain: Option<ExplainMode>,
    /// Drop the request (a [`ShedReason::DeadlineExpired`] response,
    /// nothing executed) if this instant has passed by the time the engine
    /// picks it up — the load-shedding contract the network layer builds
    /// on.
    pub deadline: Option<Instant>,
    /// The tenant this request bills to; counted per-tenant in the
    /// server's metrics registry (`fsi_tenant_queries_total`).
    pub tenant: Option<u32>,
}

/// One query request: input plus options. Build with the constructors and
/// chain the builder methods:
///
/// ```
/// use fsi_serve::Request;
/// use std::time::Duration;
///
/// let req = Request::expr("(0 OR 1) AND 2")
///     .tenant(7)
///     .deadline_in(Duration::from_millis(5));
/// assert_eq!(req.options.tenant, Some(7));
/// ```
#[derive(Debug, Clone)]
pub struct Request {
    /// What to answer.
    pub input: QueryInput,
    /// How to answer it.
    pub options: QueryOptions,
}

impl Request {
    /// A flat conjunctive query over term ids.
    pub fn terms(terms: impl Into<Vec<usize>>) -> Self {
        Self {
            input: QueryInput::Terms(terms.into()),
            options: QueryOptions::default(),
        }
    }

    /// A boolean query string.
    pub fn expr(query: impl Into<String>) -> Self {
        Self {
            input: QueryInput::Text(query.into()),
            options: QueryOptions::default(),
        }
    }

    /// A pre-compiled canonical expression.
    pub fn norm(expr: NormExpr) -> Self {
        Self {
            input: QueryInput::Norm(expr),
            options: QueryOptions::default(),
        }
    }

    /// Record a full [`QueryTrace`] into the response.
    pub fn traced(mut self) -> Self {
        self.options.trace = true;
        self
    }

    /// Render `EXPLAIN` under `mode` instead of serving documents.
    pub fn explain(mut self, mode: ExplainMode) -> Self {
        self.options.explain = Some(mode);
        self
    }

    /// Shed the request if `at` has passed when the engine picks it up.
    pub fn deadline(mut self, at: Instant) -> Self {
        self.options.deadline = Some(at);
        self
    }

    /// Shed the request if not picked up within `budget` from now.
    pub fn deadline_in(mut self, budget: Duration) -> Self {
        self.options.deadline = Some(Instant::now() + budget);
        self
    }

    /// Bill the request to a tenant.
    pub fn tenant(mut self, tenant: u32) -> Self {
        self.options.tenant = Some(tenant);
        self
    }
}

/// How the result cache participated in a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Answered from the cache.
    Hit,
    /// Computed by the planner's kernels and inserted.
    Miss,
    /// The cache is disabled (`cache_capacity: 0`).
    Disabled,
    /// The request never consulted the cache (shed, `EXPLAIN`, or the
    /// empty conjunction).
    Bypassed,
}

/// Why a request was shed instead of executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The request's deadline had already passed when the engine (or the
    /// network layer's dequeue check) picked it up.
    DeadlineExpired,
    /// The network layer's bounded request queue was full.
    QueueFull,
    /// Per-tenant admission control (token bucket) rejected the request.
    AdmissionDenied,
}

impl ShedReason {
    /// A short label for telemetry and wire responses.
    pub fn label(self) -> &'static str {
        match self {
            ShedReason::DeadlineExpired => "deadline_expired",
            ShedReason::QueueFull => "queue_full",
            ShedReason::AdmissionDenied => "admission_denied",
        }
    }
}

/// Whether a request was served or shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Executed (or answered from cache) and the response carries results.
    Served,
    /// Dropped under load-shedding; [`Response::docs`] is empty.
    Shed(ShedReason),
}

/// What one request came back with: results plus per-request metadata.
#[derive(Debug, Clone)]
pub struct Response {
    /// Matching documents in ascending order (`Arc`-shared with the cache:
    /// hits cost no copy). Empty for shed and `EXPLAIN` responses.
    pub docs: Arc<Vec<Elem>>,
    /// Served or shed (and why).
    pub disposition: Disposition,
    /// How the result cache participated.
    pub cache: CacheOutcome,
    /// The root operator of the executed plan. `None` when nothing was
    /// planned: cache hits, shed requests, `EXPLAIN`, and the empty
    /// conjunction.
    pub plan_kind: Option<&'static str>,
    /// Wall-clock service time of this request as the server measured it.
    pub latency: Duration,
    /// The trace, when [`QueryOptions::trace`] was set.
    pub trace: Option<QueryTrace>,
    /// The rendered plan, when the request was an `EXPLAIN`.
    pub explain: Option<String>,
}

impl Response {
    /// True when the request was served (not shed).
    pub fn is_served(&self) -> bool {
        matches!(self.disposition, Disposition::Served)
    }

    /// A response that carries no documents and never consulted the cache
    /// or the engine: shed requests, `EXPLAIN`, the empty conjunction.
    pub(crate) fn bypassed(disposition: Disposition, latency: Duration) -> Self {
        Self {
            docs: Arc::new(Vec::new()),
            disposition,
            cache: CacheOutcome::Bypassed,
            plan_kind: None,
            latency,
            trace: None,
            explain: None,
        }
    }
}

/// Canonical [`NormExpr`] of a non-empty flat conjunction: sorted,
/// deduplicated; one term collapses to [`NormExpr::Term`]. Returns `None`
/// for the empty query (the canonical language has no ⊤ — the server
/// answers it empty without consulting the engine).
pub(crate) fn flat_to_norm(terms: &[usize]) -> Option<NormExpr> {
    let mut sorted = terms.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    match sorted.len() {
        0 => None,
        1 => Some(NormExpr::Term(sorted[0])),
        _ => Some(NormExpr::And {
            pos: sorted.into_iter().map(NormExpr::Term).collect(),
            neg: Vec::new(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_set_options() {
        let r = Request::terms(vec![3, 1])
            .tenant(9)
            .traced()
            .explain(ExplainMode::Plan)
            .deadline(Instant::now());
        assert!(matches!(r.input, QueryInput::Terms(ref t) if t == &[3, 1]));
        assert_eq!(r.options.tenant, Some(9));
        assert!(r.options.trace);
        assert!(r.options.explain.is_some());
        assert!(r.options.deadline.is_some());
    }

    #[test]
    fn flat_to_norm_is_canonical() {
        assert_eq!(flat_to_norm(&[]), None);
        assert_eq!(flat_to_norm(&[4]), Some(NormExpr::Term(4)));
        // Sorted + deduplicated, exactly like fsi_query::encode_flat_and
        // keys it.
        let norm = flat_to_norm(&[5, 2, 5, 9]).expect("non-empty");
        assert_eq!(
            fsi_query::encode(&norm),
            fsi_query::encode_flat_and(&[5, 2, 5, 9])
        );
    }

    #[test]
    fn shed_reasons_have_labels() {
        for r in [
            ShedReason::DeadlineExpired,
            ShedReason::QueueFull,
            ShedReason::AdmissionDenied,
        ] {
            assert!(!r.label().is_empty());
        }
    }
}
