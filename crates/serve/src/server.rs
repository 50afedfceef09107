//! The top-level serving facade: a [`PreparedIndex`] and a [`QueryCache`]
//! assembled from one [`ServeConfig`], answering [`Request`]s through the
//! single [`Server::execute`] entry point.

use crate::cache::{CacheKey, QueryCache};
use crate::config::ServeConfig;
use crate::index::PreparedIndex;
use crate::request::{
    flat_to_norm, CacheOutcome, Disposition, QueryInput, Request, Response, ShedReason,
};
use crate::stats::{LatencySummary, ServeStats};
use fsi_core::HashContext;
use fsi_index::{Corpus, SearchEngine};
use fsi_kernels::SimdLevel;
use fsi_obs::{
    Counter, HistSnapshot, Histogram, LabelCap, Registry, Snapshot, Span, SpanStart, TraceBuilder,
};
use fsi_query::{CompileError, ExplainMode, NormExpr};
use std::borrow::Cow;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Starts a span on a traced request; free on an untraced one.
fn span_start(tb: &Option<TraceBuilder>) -> Option<SpanStart> {
    tb.as_ref().map(TraceBuilder::start_span)
}

/// Ends a span started with [`span_start`]; the span, when there is one,
/// takes attributes.
fn span_end<'a>(
    tb: &'a mut Option<TraceBuilder>,
    start: Option<SpanStart>,
    name: &str,
) -> Option<&'a mut Span> {
    Some(tb.as_mut()?.end_span(start?, name))
}

/// Why the server rejected a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The query does not parse or normalizes to an unbounded set.
    Compile(CompileError),
    /// The query names a term outside the index vocabulary.
    UnknownTerm {
        /// The offending term id.
        term: usize,
        /// The vocabulary size (valid ids are `0..num_terms`).
        num_terms: usize,
    },
    /// The requested option combination is not expressible — e.g.
    /// `EXPLAIN` of the empty conjunction, which the canonical expression
    /// language cannot represent.
    Unsupported(&'static str),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Compile(e) => write!(f, "{e}"),
            QueryError::UnknownTerm { term, num_terms } => {
                write!(f, "unknown term t{term} (index has {num_terms} terms)")
            }
            QueryError::Unsupported(what) => write!(f, "unsupported request: {what}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<CompileError> for QueryError {
    fn from(e: CompileError) -> Self {
        QueryError::Compile(e)
    }
}

/// What [`Server::begin`] made of a request.
#[derive(Debug)]
pub enum Begun {
    /// Answered without touching a kernel: a shed, a rendered plan, the
    /// empty conjunction, or a cache hit.
    Done(Response),
    /// The answer has to be computed: hand this to [`Server::finish`].
    Miss(Miss),
}

/// A validated request the cache could not answer, carrying its
/// canonical expression so nothing is parsed twice. [`Server::finish`]
/// consumes it; dropping it instead abandons the request — nothing was
/// executed, and nothing counts as served.
#[derive(Debug)]
pub struct Miss {
    norm: NormExpr,
    work: Work,
    /// Time spent inside `begin`; `finish` adds its own.
    spent: Duration,
}

/// What `finish` owes a [`Miss`].
#[derive(Debug)]
enum Work {
    /// Evaluate, insert under `key` (when the cache is on), respond with
    /// documents.
    Serve {
        key: Option<CacheKey>,
        flat: bool,
        tb: Option<TraceBuilder>,
    },
    /// `EXPLAIN ANALYZE`: evaluate with per-node timing, respond with the
    /// rendering.
    Analyze,
}

/// A self-contained query-serving engine. [`Server::execute`] is the one
/// execution entry point; everything a request needs rides on the
/// [`Request`] it submits.
///
/// ```
/// use fsi_serve::{Request, ServeConfig, Server};
/// use fsi_core::{HashContext, SortedSet};
/// use fsi_index::SearchEngine;
///
/// let engine = SearchEngine::from_postings(
///     HashContext::new(1),
///     vec![
///         SortedSet::from_unsorted(vec![1, 5, 9, 12]),
///         SortedSet::from_unsorted(vec![5, 9, 30]),
///     ],
/// );
/// let server = Server::new(&engine, ServeConfig::default());
/// let response = server.execute(&Request::terms(vec![0, 1])).expect("valid");
/// assert_eq!(response.docs.as_slice(), &[5, 9]);
/// assert!(response.is_served());
/// ```
#[derive(Debug)]
pub struct Server {
    config: ServeConfig,
    engine: PreparedIndex,
    cache: QueryCache,
    /// The server's own metrics registry. Serving counters live here (not
    /// on the process-global registry) so two servers in one process never
    /// alias; [`Server::metrics`] folds the global registry's kernel- and
    /// planner-dispatch counters in at snapshot time.
    registry: Registry,
    /// Bounds the distinct `tenant` label values on per-tenant counters
    /// (tenant ids come off the wire; see [`Server::TENANT_LABEL_CAP`]).
    tenant_labels: LabelCap,
    queries_served: Arc<Counter>,
    expr_queries_served: Arc<Counter>,
    queries_shed: Arc<Counter>,
    /// Per-query service-time distribution in nanoseconds: every executed
    /// request records here.
    latency_ns: Arc<Histogram>,
}

impl Server {
    /// Maximum distinct `tenant` label values on per-tenant metrics — this
    /// server's and `fsi-net`'s front-door families alike; tenants beyond
    /// the cap share the `other` label.
    pub const TENANT_LABEL_CAP: usize = 64;

    /// Builds the serving stack over an existing engine.
    pub fn new(engine: &SearchEngine, config: ServeConfig) -> Self {
        let registry = Registry::new();
        let queries_served = registry.counter("fsi_queries_served_total", &[]);
        let expr_queries_served = registry.counter("fsi_expr_queries_served_total", &[]);
        let queries_shed = registry.counter("fsi_queries_shed_total", &[]);
        let latency_ns = registry.histogram("fsi_query_latency_ns", &[]);
        let engine = PreparedIndex::build(engine);
        // The index is immutable: its footprint — whole, and by physical
        // representation — and how many of its lists carry a bitmap are
        // gauges set once here, not re-derived on every scrape.
        registry
            .gauge("fsi_index_bytes", &[])
            .set(engine.size_in_bytes() as u64);
        for (repr, bytes) in engine.bytes_by_repr().parts() {
            registry
                .gauge("fsi_index_bytes", &[("repr", repr)])
                .set(bytes as u64);
        }
        let bitmap_lists = engine.num_bitmap_lists();
        for (membership, lists) in [
            ("bitmap", bitmap_lists),
            ("none", engine.num_terms() - bitmap_lists),
        ] {
            registry
                .gauge("fsi_index_lists", &[("membership", membership)])
                .set(lists as u64);
        }
        Self {
            engine,
            cache: QueryCache::new(config.cache_capacity),
            registry,
            tenant_labels: LabelCap::new(Self::TENANT_LABEL_CAP),
            queries_served,
            expr_queries_served,
            queries_shed,
            latency_ns,
            config,
        }
    }

    /// Builds the serving stack directly over a synthetic corpus.
    pub fn from_corpus(ctx: HashContext, corpus: Corpus, config: ServeConfig) -> Self {
        Self::new(&SearchEngine::from_corpus(ctx, corpus), config)
    }

    /// Executes one request — the sole execution entry point, and exactly
    /// [`Server::begin`] followed, on a cache miss, by [`Server::finish`].
    ///
    /// The request lifecycle:
    ///
    /// 1. **Deadline check** — a request whose deadline has already passed
    ///    is shed (an `Ok` response with
    ///    [`Disposition::Shed`]`(`[`ShedReason::DeadlineExpired`]`)`,
    ///    nothing executed).
    /// 2. **Compile & validate** — every input becomes one canonical
    ///    expression: textual queries parse and normalize (an
    ///    `EXPLAIN [ANALYZE]` prefix turns the request into an explain),
    ///    a flat term list is its `AND`; out-of-vocabulary terms are
    ///    rejected. Rejected requests count toward no serving counter.
    /// 3. **Cache** — keyed by the canonical encoding, so flat
    ///    conjunctions and equivalent boolean spellings share entries.
    /// 4. **Execute** — one plan over the whole index, under the server's
    ///    planner; the response reports the plan's root operator, cache
    ///    outcome, and measured service time, plus a trace or a rendered
    ///    plan when asked.
    ///
    /// Steps 1–3 are `begin`, step 4 is `finish`.
    ///
    /// ```
    /// use fsi_serve::{Request, ServeConfig, Server};
    /// use fsi_core::{HashContext, SortedSet};
    /// use fsi_index::SearchEngine;
    ///
    /// let engine = SearchEngine::from_postings(
    ///     HashContext::new(1),
    ///     vec![
    ///         SortedSet::from_unsorted(vec![1, 5, 9, 12]),
    ///         SortedSet::from_unsorted(vec![5, 9, 30]),
    ///         SortedSet::from_unsorted(vec![9]),
    ///     ],
    /// );
    /// let server = Server::new(&engine, ServeConfig::default());
    /// let hits = server.execute(&Request::expr("(0 AND 1) AND NOT 2")).expect("valid");
    /// assert_eq!(hits.docs.as_slice(), &[5]);
    /// assert!(server.execute(&Request::expr("NOT 2")).is_err(), "unbounded");
    /// ```
    pub fn execute(&self, req: &Request) -> Result<Response, QueryError> {
        Ok(match self.begin(req)? {
            Begun::Done(response) => response,
            Begun::Miss(miss) => self.finish(miss),
        })
    }

    /// The first half of [`Server::execute`], and all of it that is
    /// bounded by the size of the request rather than of the index:
    /// deadline check, compile, vocabulary check, plain `EXPLAIN`, and
    /// the cache probe. Whatever those settle — a shed, a rejection, a
    /// rendered plan, the empty conjunction, a cache hit — comes back as
    /// [`Begun::Done`] (or the `Err`); only a request that needs the
    /// kernels comes back as a [`Begun::Miss`] for [`Server::finish`].
    ///
    /// A caller that owns a thread which must stay responsive (the
    /// network reader) calls `begin` there and hands the miss elsewhere.
    pub fn begin(&self, req: &Request) -> Result<Begun, QueryError> {
        let start = Instant::now();
        if let Some(deadline) = req.options.deadline {
            if start >= deadline {
                self.queries_shed.inc();
                self.note_tenant(req);
                let shed = Disposition::Shed(ShedReason::DeadlineExpired);
                return Ok(Begun::Done(Response::bypassed(shed, start.elapsed())));
            }
        }
        let mut explain = req.options.explain;
        let mut tb = None;
        let norm = match &req.input {
            QueryInput::Text(src) => {
                let (prefix_mode, rest) = fsi_query::strip_explain(src);
                explain = prefix_mode.or(explain);
                if req.options.trace && explain.is_none() {
                    tb = Some(TraceBuilder::new(rest));
                }
                let s = span_start(&tb);
                let ast = fsi_query::parse(rest).map_err(CompileError::from)?;
                span_end(&mut tb, s, "parse");
                let s = span_start(&tb);
                let norm = fsi_query::normalize(&ast).map_err(CompileError::from)?;
                if let Some(span) = span_end(&mut tb, s, "rewrite") {
                    let fingerprint = format!("{:016x}", fsi_query::fingerprint(&norm));
                    span.attr("canonical", &norm)
                        .attr("fingerprint", fingerprint);
                }
                Cow::Owned(norm)
            }
            QueryInput::Norm(expr) => Cow::Borrowed(expr),
            QueryInput::Terms(terms) => match flat_to_norm(terms) {
                Some(norm) => Cow::Owned(norm),
                None if req.options.trace || explain.is_some() => {
                    return Err(QueryError::Unsupported(
                        "the empty conjunction has no expression form to explain or trace",
                    ));
                }
                // The canonical language has no ⊤: the empty conjunction
                // is served empty by convention, nothing planned or cached.
                None => {
                    self.queries_served.inc();
                    self.note_tenant(req);
                    let latency = self.record(start.elapsed());
                    return Ok(Begun::Done(Response::bypassed(
                        Disposition::Served,
                        latency,
                    )));
                }
            },
        };
        let num_terms = self.engine.num_terms();
        if let Some(&term) = norm.terms().iter().find(|&&t| t >= num_terms) {
            return Err(QueryError::UnknownTerm { term, num_terms });
        }
        self.note_tenant(req);
        let work = match explain {
            // Renders the plan tree instead of serving documents, so it
            // counts toward no serving counter.
            Some(ExplainMode::Plan) => {
                let text = self.engine.explain(&norm, ExplainMode::Plan);
                return Ok(Begun::Done(Response {
                    explain: Some(text),
                    ..Response::bypassed(Disposition::Served, start.elapsed())
                }));
            }
            // ANALYZE runs the query to time it: kernel work, so it is
            // `finish`'s, like any other evaluation.
            Some(ExplainMode::Analyze) => Work::Analyze,
            None => {
                if req.options.trace && tb.is_none() {
                    tb = Some(TraceBuilder::new(norm.to_string()));
                }
                // A flat request is a served query, not an expression query.
                let flat = matches!(req.input, QueryInput::Terms(_));
                let key = self.cache.is_enabled().then(|| CacheKey::from_norm(&norm));
                let s = span_start(&tb);
                let hit = key.as_ref().and_then(|k| self.cache.get(k));
                if let Some(span) = span_end(&mut tb, s, "cache") {
                    span.attr(
                        "outcome",
                        match (&hit, &key) {
                            (Some(_), _) => "hit",
                            (None, Some(_)) => "miss",
                            (None, None) => "disabled",
                        },
                    );
                }
                if let Some(docs) = hit {
                    self.note_served(flat);
                    return Ok(Begun::Done(Response {
                        docs,
                        disposition: Disposition::Served,
                        cache: CacheOutcome::Hit,
                        plan_kind: None,
                        latency: self.record(start.elapsed()),
                        trace: tb.map(TraceBuilder::finish),
                        explain: None,
                    }));
                }
                Work::Serve { key, flat, tb }
            }
        };
        Ok(Begun::Miss(Miss {
            norm: norm.into_owned(),
            work,
            spent: start.elapsed(),
        }))
    }

    /// The second half of [`Server::execute`]: planned evaluation over
    /// the whole index, then the cache insert. On a traced request a span
    /// records each step; result and cache interaction are identical
    /// either way, so traced and untraced runs compare for overhead
    /// directly. The reported latency is the time spent inside `begin`
    /// plus the time spent here — whatever passed between the two (a
    /// queue) is the caller's to account for.
    pub fn finish(&self, miss: Miss) -> Response {
        let start = Instant::now();
        let Miss { norm, work, spent } = miss;
        let (key, flat, mut tb) = match work {
            Work::Analyze => {
                let text = self.engine.explain(&norm, ExplainMode::Analyze);
                return Response {
                    explain: Some(text),
                    ..Response::bypassed(Disposition::Served, spent + start.elapsed())
                };
            }
            Work::Serve { key, flat, tb } => (key, flat, tb),
        };
        self.note_served(flat);
        let s = span_start(&tb);
        let (docs, plan) = self.engine.eval(&norm);
        let docs = Arc::new(docs);
        let kind = plan.operator();
        if let Some(span) = span_end(&mut tb, s, "exec") {
            // The root operator rides along as a cheap static label and
            // the estimates round to integers — the planner-misprediction
            // signal. The full plan tree is EXPLAIN's job: a `describe()`
            // per query costs more than the tracing budget allows.
            span.attr("simd", SimdLevel::active().name())
                .attr("kind", kind)
                .attr("est_rows", plan.est_rows.round() as u64)
                .attr("est_cost", plan.est_cost.round() as u64)
                .attr("rows", docs.len());
        }
        let cache = match key {
            Some(key) => {
                let outcome = self.cache.insert(key, Arc::clone(&docs));
                if let Some(tb) = &mut tb {
                    tb.event("cache_insert")
                        .attr("fresh", outcome.fresh)
                        .attr("evicted", outcome.evicted);
                }
                CacheOutcome::Miss
            }
            None => CacheOutcome::Disabled,
        };
        Response {
            docs,
            disposition: Disposition::Served,
            cache,
            plan_kind: Some(kind),
            latency: self.record(spent + start.elapsed()),
            trace: tb.map(TraceBuilder::finish),
            explain: None,
        }
    }

    /// Counts one request answered with documents — a hit in `begin`, a
    /// computed result in `finish` — so a [`Miss`] that is dropped instead
    /// of finished (shed from a queue) was never "served".
    fn note_served(&self, flat: bool) {
        self.queries_served.inc();
        if !flat {
            self.expr_queries_served.inc();
        }
    }

    /// Bills the request to its tenant, if any. The tenant label is
    /// cardinality-capped ([`Server::TENANT_LABEL_CAP`]): tenant ids are
    /// client-controlled `u32`s, and without a cap a tenant-id sweep
    /// would grow the registry — and every scrape — without bound.
    /// Over-cap tenants collapse into the `other` label.
    fn note_tenant(&self, req: &Request) {
        if let Some(tenant) = req.options.tenant {
            let id = self.tenant_labels.label(tenant);
            self.registry
                .counter("fsi_tenant_queries_total", &[("tenant", &id)])
                .inc();
        }
    }

    fn record(&self, latency: Duration) -> Duration {
        self.latency_ns.record_duration(latency);
        latency
    }

    // -- accessors & telemetry ---------------------------------------------

    /// The prepared index queries run on.
    pub fn engine(&self) -> &PreparedIndex {
        &self.engine
    }

    /// The result cache.
    pub fn cache(&self) -> &QueryCache {
        &self.cache
    }

    /// The active configuration (post-normalization).
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Copies the cache's counters into the registry as gauges, so a
    /// snapshot is self-contained. Called on every snapshot — gauge sets
    /// are cheap relative to taking one.
    fn sync_gauges(&self) {
        let stats = self.cache.stats();
        let set = |name: &str, v: u64| self.registry.gauge(name, &[]).set(v);
        set("fsi_cache_hits", stats.hits);
        set("fsi_cache_misses", stats.misses);
        set("fsi_cache_lookups", stats.lookups);
        set("fsi_cache_insertions", stats.insertions);
        set("fsi_cache_evictions", stats.evictions);
        set("fsi_cache_refreshes", stats.refreshes);
        set("fsi_cache_entries", stats.len as u64);
        set("fsi_cache_value_bytes", stats.value_bytes as u64);
        set("fsi_cache_capacity", stats.capacity as u64);
        for (i, seg) in stats.segments.iter().enumerate() {
            let id = i.to_string();
            let labels = [("segment", id.as_str())];
            let seg_set = |name: &str, v: u64| self.registry.gauge(name, &labels).set(v);
            seg_set("fsi_cache_segment_entries", seg.len as u64);
            seg_set("fsi_cache_segment_value_bytes", seg.value_bytes as u64);
            seg_set("fsi_cache_segment_insertions", seg.insertions);
            seg_set("fsi_cache_segment_evictions", seg.evictions);
            seg_set("fsi_cache_segment_refreshes", seg.refreshes);
        }
    }

    /// A full metrics snapshot: this server's registry (serving counters,
    /// per-tenant counters, latency histogram, cache gauges) merged with
    /// the process-global registry (kernel dispatch and planner choice
    /// counters). Render with [`Snapshot::to_prometheus`] or
    /// [`Snapshot::to_json`].
    pub fn metrics(&self) -> Snapshot {
        self.sync_gauges();
        let mut snap = self.registry.snapshot();
        snap.merge_from(&Registry::global().snapshot());
        snap
    }

    /// A point-in-time stats snapshot — a typed view over the same
    /// registry [`Server::metrics`] exposes.
    pub fn stats(&self) -> ServeStats {
        let snap = self.registry.snapshot();
        let empty = HistSnapshot::default();
        let latency_hist = snap
            .histogram("fsi_query_latency_ns", &[])
            .unwrap_or(&empty);
        ServeStats {
            queries_served: snap.counter("fsi_queries_served_total", &[]).unwrap_or(0),
            expr_queries_served: snap
                .counter("fsi_expr_queries_served_total", &[])
                .unwrap_or(0),
            queries_shed: snap.counter("fsi_queries_shed_total", &[]).unwrap_or(0),
            latency: LatencySummary::from_histogram(latency_hist),
            cache: self.cache.stats(),
            index_bytes: self.engine.size_in_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_index::{CorpusConfig, Planner, Strategy};
    use fsi_query::ExplainMode;

    fn engine() -> SearchEngine {
        let corpus = Corpus::generate(CorpusConfig {
            num_docs: 15_000,
            num_terms: 24,
            ..CorpusConfig::default()
        });
        SearchEngine::from_corpus(HashContext::new(77), corpus)
    }

    fn server(config: ServeConfig) -> Server {
        Server::new(&engine(), config)
    }

    #[test]
    fn single_queries_are_cached() {
        let s = server(ServeConfig { cache_capacity: 16 });
        let a = s.execute(&Request::terms(vec![0, 1, 5])).expect("valid");
        let b = s.execute(&Request::terms(vec![5, 1, 0])).expect("valid");
        assert_eq!(a.docs, b.docs, "order-insensitive key");
        assert_eq!(a.cache, CacheOutcome::Miss);
        assert_eq!(b.cache, CacheOutcome::Hit);
        assert!(a.plan_kind.is_some(), "planned default reports a kind");
        assert_eq!(b.plan_kind, None, "hits execute nothing");
        let stats = s.stats();
        assert_eq!(stats.queries_served, 2);
        assert_eq!(stats.cache.hits, 1);
        assert!(stats.index_bytes > 0);
    }

    #[test]
    fn disabled_cache_still_serves() {
        let s = server(ServeConfig { cache_capacity: 0 });
        let a = s.execute(&Request::terms(vec![0, 1])).expect("valid");
        let b = s.execute(&Request::terms(vec![0, 1])).expect("valid");
        assert_eq!(a.docs, b.docs);
        assert_eq!(a.cache, CacheOutcome::Disabled);
        assert_eq!(b.cache, CacheOutcome::Disabled);
        let stats = s.stats();
        assert_eq!(stats.cache.hits, 0);
        assert_eq!(stats.cache.misses, 0, "disabled cache records nothing");
    }

    #[test]
    fn expression_queries_are_served_and_cached_canonically() {
        let s = server(ServeConfig { cache_capacity: 32 });
        let a = s
            .execute(&Request::expr("(0 OR 1) AND 5 AND NOT 2"))
            .expect("valid");
        // An equivalent expression — reordered, duplicated, De Morgan'd —
        // must hit the same cache entry.
        let b = s
            .execute(&Request::expr(
                "5 AND NOT 2 AND NOT (NOT 1 AND NOT 0) AND 5",
            ))
            .expect("valid");
        assert_eq!(a.docs, b.docs);
        let stats = s.stats();
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.expr_queries_served, 2);
        assert_eq!(stats.queries_served, 2);
    }

    #[test]
    fn flat_and_expression_paths_share_the_cache() {
        let s = server(ServeConfig { cache_capacity: 32 });
        let flat = s.execute(&Request::terms(vec![1, 0])).expect("valid");
        let expr = s.execute(&Request::expr("0 AND 1")).expect("valid");
        assert_eq!(flat.docs, expr.docs);
        assert_eq!(s.stats().cache.hits, 1, "expression hit the flat entry");
    }

    #[test]
    fn expression_matches_flat_conjunction_results() {
        let s = server(ServeConfig { cache_capacity: 0 });
        assert_eq!(
            s.execute(&Request::expr("0 AND 1 AND 9"))
                .expect("valid")
                .docs,
            s.execute(&Request::terms(vec![0, 1, 9]))
                .expect("valid")
                .docs
        );
    }

    #[test]
    fn invalid_queries_are_rejected_not_panicked() {
        let s = server(ServeConfig::default());
        assert!(matches!(
            s.execute(&Request::expr("0 AND")),
            Err(QueryError::Compile(fsi_query::CompileError::Parse(_)))
        ));
        assert!(matches!(
            s.execute(&Request::expr("NOT 0")),
            Err(QueryError::Compile(fsi_query::CompileError::Rewrite(_)))
        ));
        let err = s
            .execute(&Request::expr("0 AND 99999"))
            .expect_err("unknown term");
        assert!(
            matches!(err, QueryError::UnknownTerm { term: 99999, .. }),
            "{err}"
        );
        let err = s
            .execute(&Request::terms(vec![0, 99999]))
            .expect_err("unknown term");
        assert!(matches!(err, QueryError::UnknownTerm { term: 99999, .. }));
        assert_eq!(
            s.stats().queries_served,
            0,
            "rejected queries are not counted"
        );
    }

    #[test]
    fn traced_request_matches_untraced_and_carries_spans() {
        let s = server(ServeConfig { cache_capacity: 16 });
        let src = "(0 OR 1) AND 5 AND NOT 2";
        let traced = s.execute(&Request::expr(src).traced()).expect("valid");
        let trace = traced.trace.as_ref().expect("trace recorded");
        let plain = s.execute(&Request::expr(src)).expect("valid");
        assert_eq!(plain.docs, traced.docs, "tracing must not change results");
        for span in ["parse", "rewrite", "cache", "exec"] {
            assert!(trace.span(span).is_some(), "missing span {span}");
        }
        // One plan ran over the whole index: exactly one exec span, which
        // carries the plan and the estimate/observation pair.
        let names: Vec<&str> = trace.spans.iter().map(|sp| sp.name.as_str()).collect();
        assert_eq!(
            names,
            ["parse", "rewrite", "cache", "exec", "cache_insert"],
            "one span per stage"
        );
        let exec = trace.span("exec").expect("exec span");
        assert!(exec.get("est_rows").is_some());
        assert!(exec.get("est_cost").is_some());
        assert_eq!(
            exec.get("rows"),
            Some(traced.docs.len().to_string().as_str())
        );
        assert_eq!(
            traced.plan_kind,
            exec.get("kind"),
            "response metadata mirrors the exec span"
        );
        assert!(trace.render().contains("kind="));
        assert!(trace.to_json().contains("\"spans\""));
        // A second traced run hits the entry the first one inserted and
        // returns early: cache span says hit, no exec span.
        let again = s.execute(&Request::expr(src).traced()).expect("valid");
        let trace2 = again.trace.as_ref().expect("trace recorded");
        assert_eq!(again.docs, traced.docs);
        assert_eq!(again.cache, CacheOutcome::Hit);
        assert_eq!(
            trace2.span("cache").and_then(|s| s.get("outcome")),
            Some("hit")
        );
        assert!(trace2.span("exec").is_none());
    }

    #[test]
    fn traced_miss_records_exec_and_insert() {
        let s = server(ServeConfig { cache_capacity: 8 });
        let resp = s
            .execute(&Request::expr("0 AND 9").traced())
            .expect("valid");
        let trace = resp.trace.as_ref().expect("trace recorded");
        assert_eq!(
            trace.span("cache").and_then(|s| s.get("outcome")),
            Some("miss")
        );
        let exec = trace.span("exec").expect("exec span");
        assert!(exec.get("simd").is_some());
        let insert = trace.span("cache_insert").expect("insert event");
        assert_eq!(insert.get("fresh"), Some("true"));
        // Traced queries count like any other expression query.
        assert_eq!(s.stats().expr_queries_served, 1);
    }

    #[test]
    fn explain_renders_one_plan_tree() {
        let planned = server(ServeConfig::default());
        // The EXPLAIN prefix turns a plain execute into an explain.
        let resp = planned
            .execute(&Request::expr("EXPLAIN (0 OR 1) AND 5"))
            .expect("valid");
        let plain = resp.explain.as_ref().expect("explain rendered");
        assert!(resp.docs.is_empty(), "EXPLAIN serves no documents");
        assert!(plain.starts_with("EXPLAIN\n"), "{plain}");
        assert_eq!(plain.matches("EXPLAIN").count(), 1, "one plan tree");
        assert!(!plain.contains("shard"), "{plain}");
        assert!(plain.contains("est_cost"), "{plain}");
        assert!(!plain.contains("time"), "plain EXPLAIN has no timings");
        let analyzed = planned
            .execute(&Request::expr("EXPLAIN ANALYZE (0 OR 1) AND 5"))
            .expect("valid")
            .explain
            .expect("explain rendered");
        assert!(analyzed.contains("EXPLAIN ANALYZE"), "{analyzed}");
        assert!(analyzed.contains("rows"), "{analyzed}");
        // Bare queries take the option's default mode.
        let defaulted = planned
            .execute(&Request::expr("0 AND 5").explain(ExplainMode::Analyze))
            .expect("valid")
            .explain
            .expect("explain rendered");
        assert!(defaulted.contains("EXPLAIN ANALYZE"), "{defaulted}");
        // EXPLAIN does not serve documents.
        assert_eq!(planned.stats().queries_served, 0);
    }

    #[test]
    fn expired_deadline_sheds_without_executing() {
        let s = server(ServeConfig::default());
        let resp = s
            .execute(
                &Request::terms(vec![0, 1]).deadline(Instant::now() - Duration::from_millis(1)),
            )
            .expect("shed is not an error");
        assert_eq!(
            resp.disposition,
            Disposition::Shed(ShedReason::DeadlineExpired)
        );
        assert!(resp.docs.is_empty());
        assert_eq!(resp.cache, CacheOutcome::Bypassed);
        let stats = s.stats();
        assert_eq!(stats.queries_served, 0, "shed requests serve nothing");
        assert_eq!(stats.queries_shed, 1);
        // A generous deadline serves normally.
        let ok = s
            .execute(&Request::terms(vec![0, 1]).deadline_in(Duration::from_secs(60)))
            .expect("valid");
        assert!(ok.is_served());
        assert_eq!(s.stats().queries_served, 1);
    }

    #[test]
    fn begin_settles_what_needs_no_kernel_and_hands_back_the_rest() {
        let s = server(ServeConfig { cache_capacity: 16 });
        let done = |req: &Request| match s.begin(req).expect("valid") {
            Begun::Done(response) => response,
            Begun::Miss(miss) => panic!("{req:?} needs no kernel, got {miss:?}"),
        };
        // Kernel work comes back as a miss — an evaluation, or an ANALYZE
        // (which evaluates to time itself) — and a miss that is dropped
        // rather than finished was never served.
        for req in [
            Request::expr("0 AND 1"),
            Request::expr("EXPLAIN ANALYZE 0 AND 1"),
        ] {
            assert!(matches!(s.begin(&req), Ok(Begun::Miss(_))), "{req:?}");
        }
        assert_eq!(s.stats().queries_served, 0, "dropped misses serve nothing");
        assert_eq!(s.stats().cache.misses, 1, "but the probe missed");
        // Everything else `begin` answers itself.
        assert!(done(&Request::expr("EXPLAIN 0 AND 1")).explain.is_some());
        assert!(done(&Request::terms(vec![])).docs.is_empty());
        let shed = done(&Request::expr("0 AND 1").deadline(Instant::now()));
        assert!(!shed.is_served());
        assert!(s.begin(&Request::expr("0 AND")).is_err());
        assert!(s.begin(&Request::expr("0 AND 99999")).is_err());
        // A finished miss fills the cache; the same query then ends in
        // `begin`, with the documents the miss computed.
        let Ok(Begun::Miss(miss)) = s.begin(&Request::expr("0 AND 1")) else {
            panic!("still uncached");
        };
        let computed = s.finish(miss);
        assert_eq!(computed.cache, CacheOutcome::Miss);
        let hit = done(&Request::expr("1 AND 0"));
        assert_eq!(hit.cache, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&hit.docs, &computed.docs), "shared, not copied");
        assert_eq!(s.stats().queries_served, 3, "empty conjunction, miss, hit");
    }

    #[test]
    fn tenant_requests_are_billed_per_tenant() {
        let s = server(ServeConfig::default());
        s.execute(&Request::terms(vec![0, 1]).tenant(7))
            .expect("valid");
        s.execute(&Request::terms(vec![0, 2]).tenant(7))
            .expect("valid");
        s.execute(&Request::terms(vec![0, 3]).tenant(9))
            .expect("valid");
        s.execute(&Request::terms(vec![0, 4])).expect("valid");
        let snap = s.metrics();
        assert_eq!(
            snap.counter("fsi_tenant_queries_total", &[("tenant", "7")]),
            Some(2)
        );
        assert_eq!(
            snap.counter("fsi_tenant_queries_total", &[("tenant", "9")]),
            Some(1)
        );
        assert_eq!(snap.counter("fsi_queries_served_total", &[]), Some(4));
    }

    #[test]
    fn tenant_label_cardinality_is_capped() {
        // A tenant-id sweep (ids are client-controlled) must not grow the
        // registry without bound: past the cap, tenants collapse into the
        // `other` label.
        let s = server(ServeConfig::default());
        let sweep = Server::TENANT_LABEL_CAP as u32 + 10;
        for t in 0..sweep {
            s.execute(&Request::terms(vec![0, 1]).tenant(t))
                .expect("valid");
        }
        let snap = s.metrics();
        let tenant_series = snap
            .entries
            .iter()
            .filter(|e| e.name == "fsi_tenant_queries_total")
            .count();
        assert_eq!(tenant_series, Server::TENANT_LABEL_CAP + 1);
        assert_eq!(
            snap.counter("fsi_tenant_queries_total", &[("tenant", "other")]),
            Some(10),
            "over-cap tenants share the overflow label"
        );
        assert_eq!(
            snap.counter("fsi_tenant_queries_total", &[("tenant", "0")]),
            Some(1),
            "under-cap tenants keep their own series"
        );
        assert_eq!(snap.sum("fsi_tenant_queries_total"), u64::from(sweep));
    }

    #[test]
    fn empty_conjunction_options_are_rejected_cleanly() {
        let s = server(ServeConfig::default());
        // The empty flat query itself is served — an empty result by
        // convention — and counts like any other flat query.
        let resp = s.execute(&Request::terms(vec![])).expect("valid");
        assert!(resp.is_served());
        assert!(resp.docs.is_empty());
        assert_eq!(s.stats().queries_served, 1);
        assert_eq!(s.stats().expr_queries_served, 0);
        // But it has no expression form to explain or trace.
        assert!(matches!(
            s.execute(&Request::terms(vec![]).explain(ExplainMode::Plan)),
            Err(QueryError::Unsupported(_))
        ));
        assert!(matches!(
            s.execute(&Request::terms(vec![]).traced()),
            Err(QueryError::Unsupported(_))
        ));
    }

    #[test]
    fn flat_options_route_through_the_expression_engine() {
        let s = server(ServeConfig { cache_capacity: 16 });
        let plain = s.execute(&Request::terms(vec![1, 0])).expect("valid");
        // A traced flat request hits the same cache entry and counts as a
        // flat query, not an expression query.
        let traced = s
            .execute(&Request::terms(vec![0, 1]).traced())
            .expect("valid");
        assert_eq!(plain.docs, traced.docs);
        assert_eq!(traced.cache, CacheOutcome::Hit);
        assert!(traced.trace.is_some());
        assert_eq!(s.stats().expr_queries_served, 0);
        assert_eq!(s.stats().queries_served, 2);
        // EXPLAIN of a flat request renders the conjunction's plan.
        let explained = s
            .execute(&Request::terms(vec![0, 1]).explain(ExplainMode::Plan))
            .expect("valid");
        assert!(explained.explain.expect("rendered").contains("est_cost"));
    }

    #[test]
    fn metrics_snapshot_carries_counters_cache_gauges_and_latency() {
        let s = server(ServeConfig { cache_capacity: 16 });
        let plans_before = s.metrics().sum("fsi_plan_kind_total");
        s.execute(&Request::terms(vec![0, 1])).expect("valid");
        s.execute(&Request::terms(vec![0, 1])).expect("valid");
        s.execute(&Request::expr("3 AND 4")).expect("valid");
        let snap = s.metrics();
        assert_eq!(snap.counter("fsi_queries_served_total", &[]), Some(3));
        assert_eq!(snap.counter("fsi_expr_queries_served_total", &[]), Some(1));
        assert_eq!(snap.gauge("fsi_cache_hits", &[]), Some(1));
        assert_eq!(
            snap.gauge("fsi_index_bytes", &[]),
            Some(s.engine().size_in_bytes() as u64)
        );
        assert!(snap
            .gauge("fsi_cache_segment_entries", &[("segment", "0")])
            .is_some());
        let hist = snap
            .histogram("fsi_query_latency_ns", &[])
            .expect("latency histogram registered");
        assert_eq!(hist.count, 3);
        // The global registry's plan counters merge in: this server's two
        // misses each ran a conjunction. Counters only grow, so tests
        // running alongside can only add to the difference.
        assert!(snap.sum("fsi_plan_kind_total") >= plans_before + 2);
        // Both render targets stay well-formed.
        let prom = snap.to_prometheus();
        assert!(prom.contains("fsi_queries_served_total 3"), "{prom}");
        assert!(snap.to_json().starts_with('{'));
        // stats() is a typed view over the same registry.
        let stats = s.stats();
        assert_eq!(stats.queries_served, 3);
        assert_eq!(stats.latency.count, 3);
        assert!(stats.latency.max_us > 0.0);
    }

    #[test]
    fn plan_kind_is_the_root_operator_of_the_whole_index_plan() {
        // Terms 0 and 1 are dense past document 10 000 and nearly empty
        // below it; 2 and 3 are sparse everywhere. A plan over the whole
        // index sees 0 AND 1 as a dense pair — any plan over only the low
        // documents would not.
        let spread = |step: usize| (0..40_000u32).step_by(step);
        let dense = |step: usize| {
            [0, 9_999]
                .into_iter()
                .chain((10_000..40_000u32).step_by(step))
        };
        let engine = SearchEngine::from_postings(
            HashContext::new(5),
            vec![
                dense(1).collect(),
                dense(2).collect(),
                spread(97).collect(),
                spread(389).collect(),
            ],
        );
        let s = Server::new(&engine, ServeConfig { cache_capacity: 0 });
        let whole = engine.planned_executor(Planner::auto());
        let planner = fsi_query::ExprPlanner::auto();
        for terms in [
            vec![0usize, 1],
            vec![2, 3],
            vec![0, 2, 3],
            vec![1, 2],
            vec![3],
        ] {
            let norm = flat_to_norm(&terms).expect("non-empty");
            let plan = planner.plan(&norm, &|t| whole.list(t).stats(), whole.universe());
            let expect = Some(plan.operator());
            let flat = s.execute(&Request::terms(terms.clone())).expect("valid");
            let expr = s.execute(&Request::expr(norm.to_string())).expect("valid");
            assert_eq!(flat.plan_kind, expect, "{terms:?}");
            assert_eq!(expr.plan_kind, expect, "{terms:?}");
        }
        // The dense pair sweeps. A sparse driver (413 postings, a hash
        // table) against a dense term (15 002, a bitmap) at a 1:36 size
        // ratio: bit tests make this the membership probe's query; between
        // two tables it would gallop. Both win at every SIMD tier, so the
        // pins hold on any machine.
        for (terms, kind) in [(vec![0, 1], "BitmapAnd"), (vec![1, 2], "HashProbe")] {
            let norm = flat_to_norm(&terms).expect("non-empty");
            for level in SimdLevel::ALL {
                let planner = fsi_query::ExprPlanner::new(Planner::for_simd(level));
                let plan = planner.plan(&norm, &|t| whole.list(t).stats(), whole.universe());
                assert_eq!(plan.operator(), kind, "{level:?}");
            }
            let resp = s.execute(&Request::terms(terms)).expect("valid");
            assert_eq!(resp.plan_kind, Some(kind));
        }
    }

    #[test]
    fn planned_mode_end_to_end() {
        let engine = engine();
        let s = Server::new(&engine, ServeConfig::default());
        let fixed = engine.executor(Strategy::Merge);
        for q in [vec![0usize, 1], vec![2, 3, 10], vec![20]] {
            assert_eq!(
                s.execute(&Request::terms(q.clone()))
                    .expect("valid")
                    .docs
                    .as_slice(),
                fixed.query(&q),
                "{q:?}"
            );
        }
    }
}
