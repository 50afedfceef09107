//! The metrics registry: named, labeled counters, gauges, and histograms
//! with lock-free hot paths, plus point-in-time [`Snapshot`]s rendered as
//! Prometheus exposition text or JSON.
//!
//! Registration (`counter`/`gauge`/`histogram`) takes a write lock once
//! per *distinct* metric and returns an [`std::sync::Arc`] handle;
//! call sites cache the handle (usually in a `OnceLock`) so the hot path
//! is a single relaxed atomic op with no map lookup at all. Counters are
//! striped across cache-line-padded atomics selected by a thread-local
//! stripe id, so concurrent workers never contend on one cell.
//!
//! Snapshots are mergeable ([`Snapshot::merge_from`]): counters and gauges
//! add, histograms merge bucket-wise — associative and commutative, so
//! per-worker or per-process registries can be combined in any grouping with
//! an identical result (the merge-associativity proptests pin this).

use crate::hist::{HistSnapshot, Histogram};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// Stripes per counter (and per histogram's count and sum). A power of
/// two; 8 × 64 B = one stripe per core of a typical small host without
/// bloating every counter past 512 B.
pub(crate) const STRIPES: usize = 8;

/// One cache-line-padded counter stripe.
#[repr(align(64))]
#[derive(Default)]
struct Stripe(AtomicU64);

/// A monotonically increasing counter, striped to keep concurrent
/// increments off each other's cache lines.
pub struct Counter {
    stripes: [Stripe; STRIPES],
}

/// Round-robin stripe assignment per thread: cheap, stable within a
/// thread, and spreads a worker pool evenly across stripes.
pub(crate) fn thread_stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    STRIPE.with(|s| *s)
}

impl Counter {
    fn new() -> Self {
        Self {
            stripes: Default::default(),
        }
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        // audit:allow(hot_path_index): thread_stripe() reduces modulo STRIPES, the array length
        self.stripes[thread_stripe()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Current total across all stripes.
    pub fn get(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

/// A last-write-wins instantaneous value (lengths, byte footprints,
/// configuration constants).
#[derive(Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.get()).finish()
    }
}

/// Label pairs attached to a metric, e.g. `[("kernel", "Galloping")]`.
pub type Labels = Vec<(String, String)>;

/// A label-cardinality cap for metrics labeled by an unbounded external
/// id (tenants on the wire can be any `u32`): the first `max` distinct
/// ids keep their own label value, everything past the cap collapses
/// into [`LabelCap::OVERFLOW`]. This bounds registry growth — and scrape
/// size — under adversarial or merely chatty traffic, while an id seen
/// before the cap filled keeps its own series forever (stable identity,
/// no flapping between "own label" and "other").
#[derive(Debug, Default)]
pub struct LabelCap {
    max: usize,
    seen: Mutex<BTreeSet<u32>>,
    overflow: AtomicU64,
}

impl LabelCap {
    /// The label value every over-cap id collapses into.
    pub const OVERFLOW: &'static str = "other";

    /// A cap admitting at most `max` distinct label values.
    pub fn new(max: usize) -> Self {
        Self {
            max,
            seen: Mutex::new(BTreeSet::new()),
            overflow: AtomicU64::new(0),
        }
    }

    /// The label value for `id`: its decimal form while the cap has
    /// room (or `id` was already admitted), [`LabelCap::OVERFLOW`]
    /// afterwards.
    pub fn label(&self, id: u32) -> String {
        // audit:allow(hot_path_panic): mutex poisoning means another thread already panicked; propagating is correct
        let mut seen = self.seen.lock().expect("label cap lock");
        if seen.contains(&id) {
            return id.to_string();
        }
        if seen.len() < self.max {
            seen.insert(id);
            return id.to_string();
        }
        drop(seen);
        self.overflow.fetch_add(1, Ordering::Relaxed);
        Self::OVERFLOW.to_string()
    }

    /// Distinct ids currently admitted.
    pub fn admitted(&self) -> usize {
        // audit:allow(hot_path_panic): mutex poisoning means another thread already panicked; propagating is correct
        self.seen.lock().expect("label cap lock").len()
    }

    /// Total lookups that collapsed into [`LabelCap::OVERFLOW`].
    pub fn overflowed(&self) -> u64 {
        self.overflow.load(Ordering::Relaxed)
    }
}

/// Fully qualified metric identity: name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MetricId {
    name: String,
    labels: Labels,
}

impl MetricId {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Labels = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        Self {
            name: name.to_string(),
            labels,
        }
    }
}

#[derive(Debug)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics. Cheap to clone handles out of, cheap to
/// snapshot, and safe to share across threads.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: RwLock<BTreeMap<MetricId, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide registry — where layers without an obvious owner
    /// (kernel dispatch counters, planner plan-kind counters) register.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Gets or registers a counter.
    ///
    /// # Panics
    /// If the same (name, labels) identity is already registered as a
    /// different metric kind — that is a naming bug, not a runtime state.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.get_or_insert(name, labels, || Metric::Counter(Arc::new(Counter::new()))) {
            Metric::Counter(c) => c,
            // audit:allow(hot_path_panic): re-registering a name as a different metric kind is a programming error; fail fast
            other => panic!("{name} already registered as {other:?}, wanted counter"),
        }
    }

    /// Gets or registers a gauge (same identity rules as
    /// [`Registry::counter`]).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.get_or_insert(name, labels, || Metric::Gauge(Arc::new(Gauge::default()))) {
            Metric::Gauge(g) => g,
            // audit:allow(hot_path_panic): re-registering a name as a different metric kind is a programming error; fail fast
            other => panic!("{name} already registered as {other:?}, wanted gauge"),
        }
    }

    /// Gets or registers a histogram (same identity rules as
    /// [`Registry::counter`]).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.get_or_insert(name, labels, || {
            Metric::Histogram(Arc::new(Histogram::new()))
        }) {
            Metric::Histogram(h) => h,
            // audit:allow(hot_path_panic): re-registering a name as a different metric kind is a programming error; fail fast
            other => panic!("{name} already registered as {other:?}, wanted histogram"),
        }
    }

    fn get_or_insert(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let id = MetricId::new(name, labels);
        // audit:allow(hot_path_panic): lock poisoning means a writer already panicked; propagating beats silently losing metrics
        if let Some(m) = self.metrics.read().expect("registry lock").get(&id) {
            return clone_metric(m);
        }
        // audit:allow(hot_path_panic): lock poisoning means a writer already panicked; propagating beats silently losing metrics
        let mut map = self.metrics.write().expect("registry lock");
        clone_metric(map.entry(id).or_insert_with(make))
    }

    /// A point-in-time copy of every metric, in deterministic
    /// (name, labels) order.
    pub fn snapshot(&self) -> Snapshot {
        // audit:allow(hot_path_panic): lock poisoning means a writer already panicked; propagating beats silently losing metrics
        let map = self.metrics.read().expect("registry lock");
        Snapshot {
            entries: map
                .iter()
                .map(|(id, m)| SnapshotEntry {
                    name: id.name.clone(),
                    labels: id.labels.clone(),
                    value: match m {
                        Metric::Counter(c) => SnapshotValue::Counter(c.get()),
                        Metric::Gauge(g) => SnapshotValue::Gauge(g.get()),
                        Metric::Histogram(h) => SnapshotValue::Histogram(h.snapshot()),
                    },
                })
                .collect(),
        }
    }
}

fn clone_metric(m: &Metric) -> Metric {
    match m {
        Metric::Counter(c) => Metric::Counter(Arc::clone(c)),
        Metric::Gauge(g) => Metric::Gauge(Arc::clone(g)),
        Metric::Histogram(h) => Metric::Histogram(Arc::clone(h)),
    }
}

/// One metric's value in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotValue {
    /// A monotone counter total.
    Counter(u64),
    /// An instantaneous gauge value.
    Gauge(u64),
    /// A histogram's buckets and exact aggregates.
    Histogram(HistSnapshot),
}

/// One metric in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotEntry {
    /// Metric name (`snake_case`, conventionally suffixed `_total` for
    /// counters and `_ns`/`_bytes` for unit-carrying values).
    pub name: String,
    /// Sorted label pairs.
    pub labels: Labels,
    /// The value at snapshot time.
    pub value: SnapshotValue,
}

/// A point-in-time copy of a registry, ordered by (name, labels).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Every metric, deterministic order.
    pub entries: Vec<SnapshotEntry>,
}

impl Snapshot {
    fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SnapshotEntry> {
        let id = MetricId::new(name, labels);
        self.entries
            .iter()
            .find(|e| e.name == id.name && e.labels == id.labels)
    }

    /// The value of a counter, if present.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.find(name, labels)?.value {
            SnapshotValue::Counter(v) => Some(v),
            _ => None,
        }
    }

    /// The value of a gauge, if present.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.find(name, labels)?.value {
            SnapshotValue::Gauge(v) => Some(v),
            _ => None,
        }
    }

    /// The snapshot of a histogram, if present.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistSnapshot> {
        match &self.find(name, labels)?.value {
            SnapshotValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Sum of every counter (or gauge) entry sharing `name`, across all
    /// label combinations — e.g. total dispatches over all kernels.
    pub fn sum(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.name == name)
            .map(|e| match &e.value {
                SnapshotValue::Counter(v) | SnapshotValue::Gauge(v) => *v,
                SnapshotValue::Histogram(h) => h.count,
            })
            .sum()
    }

    /// Merges `other` into `self`: counters and gauges add, histograms
    /// merge bucket-wise, metrics present on one side only carry over.
    /// Associative and commutative — per-worker snapshots combine in any
    /// grouping to the same total.
    pub fn merge_from(&mut self, other: &Snapshot) {
        for theirs in &other.entries {
            let mine = self
                .entries
                .iter_mut()
                .find(|e| e.name == theirs.name && e.labels == theirs.labels);
            match mine {
                None => {
                    let at = self
                        .entries
                        .partition_point(|e| (&e.name, &e.labels) < (&theirs.name, &theirs.labels));
                    self.entries.insert(at, theirs.clone());
                }
                Some(mine) => match (&mut mine.value, &theirs.value) {
                    (SnapshotValue::Counter(a), SnapshotValue::Counter(b)) => *a += b,
                    (SnapshotValue::Gauge(a), SnapshotValue::Gauge(b)) => *a += b,
                    (SnapshotValue::Histogram(a), SnapshotValue::Histogram(b)) => a.merge_from(b),
                    // audit:allow(hot_path_panic): merging snapshots from differently-typed registries is a programming error; fail fast
                    (a, b) => panic!(
                        "metric {} kind mismatch in merge: {a:?} vs {b:?}",
                        mine.name
                    ),
                },
            }
        }
    }

    /// Prometheus exposition-format text: `# TYPE` lines, labeled samples,
    /// and for histograms cumulative `_bucket{le=...}` series plus `_sum`
    /// and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_typed: Option<&str> = None;
        for e in &self.entries {
            let kind = match e.value {
                SnapshotValue::Counter(_) => "counter",
                SnapshotValue::Gauge(_) => "gauge",
                SnapshotValue::Histogram(_) => "histogram",
            };
            if last_typed != Some(e.name.as_str()) {
                out.push_str(&format!("# TYPE {} {}\n", e.name, kind));
                last_typed = Some(e.name.as_str());
            }
            match &e.value {
                SnapshotValue::Counter(v) | SnapshotValue::Gauge(v) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        e.name,
                        prom_labels(&e.labels, None),
                        v
                    ));
                }
                SnapshotValue::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for &(upper, n) in &h.buckets {
                        cumulative += n;
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            e.name,
                            prom_labels(&e.labels, Some(&upper.to_string())),
                            cumulative
                        ));
                    }
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        e.name,
                        prom_labels(&e.labels, Some("+Inf")),
                        h.count
                    ));
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        e.name,
                        prom_labels(&e.labels, None),
                        h.sum
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        e.name,
                        prom_labels(&e.labels, None),
                        h.count
                    ));
                }
            }
        }
        out
    }

    /// A JSON document: `{"metrics": [{"name", "labels", "type", ...}]}`.
    /// Histogram entries carry buckets, exact aggregates, and p50/p95/p99
    /// estimates.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"metrics\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            let labels: Vec<String> = e
                .labels
                .iter()
                .map(|(k, v)| format!("\"{}\": \"{}\"", json_escape(k), json_escape(v)))
                .collect();
            let labels = format!("{{{}}}", labels.join(", "));
            let body = match &e.value {
                SnapshotValue::Counter(v) => format!("\"type\": \"counter\", \"value\": {v}"),
                SnapshotValue::Gauge(v) => format!("\"type\": \"gauge\", \"value\": {v}"),
                SnapshotValue::Histogram(h) => {
                    let buckets: Vec<String> = h
                        .buckets
                        .iter()
                        .map(|&(u, n)| format!("[{u}, {n}]"))
                        .collect();
                    format!(
                        "\"type\": \"histogram\", \"count\": {}, \"sum\": {}, \"max\": {}, \
                         \"p50\": {}, \"p95\": {}, \"p99\": {}, \"buckets\": [{}]",
                        h.count,
                        h.sum,
                        h.max,
                        json_f64(h.percentile(0.50)),
                        json_f64(h.percentile(0.95)),
                        json_f64(h.percentile(0.99)),
                        buckets.join(", ")
                    )
                }
            };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"labels\": {}, {}}}{}\n",
                json_escape(&e.name),
                labels,
                body,
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn prom_labels(labels: &Labels, le: Option<&str>) -> String {
    let mut pairs: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    if let Some(le) = le {
        pairs.push(format!("le=\"{le}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

/// `s` as the inside of a JSON string: `"` and `\` escaped, and every
/// control character below U+0020 written as an escape — the one escaper
/// every JSON writer of this crate uses, so text from a request (a query
/// in the slow log or a trace) always leaves as valid JSON.
pub(crate) fn json_escape(s: &str) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// JSON has no NaN; an empty histogram's percentiles render as null.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_stripe_and_sum() {
        let r = Registry::new();
        let c = r.counter("requests_total", &[]);
        // Keep the interpreted-thread volume tractable under Miri.
        const PER_THREAD: u64 = if cfg!(miri) { 200 } else { 10_000 };
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..PER_THREAD {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4 * PER_THREAD);
        assert_eq!(
            r.snapshot().counter("requests_total", &[]),
            Some(4 * PER_THREAD)
        );
    }

    #[test]
    fn registration_is_idempotent_and_label_order_insensitive() {
        let r = Registry::new();
        let a = r.counter("x_total", &[("k", "v"), ("a", "b")]);
        let b = r.counter("x_total", &[("a", "b"), ("k", "v")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(r.snapshot().entries.len(), 1);
    }

    #[test]
    #[should_panic(expected = "wanted gauge")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x", &[]);
        r.gauge("x", &[]);
    }

    #[test]
    fn snapshot_merge_adds_and_carries() {
        let (r1, r2) = (Registry::new(), Registry::new());
        r1.counter("a_total", &[]).add(3);
        r2.counter("a_total", &[]).add(4);
        r2.counter("b_total", &[("k", "x")]).add(9);
        r1.histogram("lat_ns", &[]).record(100);
        r2.histogram("lat_ns", &[]).record(200);
        let mut merged = r1.snapshot();
        merged.merge_from(&r2.snapshot());
        assert_eq!(merged.counter("a_total", &[]), Some(7));
        assert_eq!(merged.counter("b_total", &[("k", "x")]), Some(9));
        assert_eq!(merged.histogram("lat_ns", &[]).map(|h| h.count), Some(2));
        // Commutativity.
        let mut flipped = r2.snapshot();
        flipped.merge_from(&r1.snapshot());
        assert_eq!(merged, flipped);
    }

    #[test]
    fn prometheus_text_has_types_buckets_and_totals() {
        let r = Registry::new();
        r.counter("hits_total", &[("seg", "0")]).add(5);
        r.gauge("len", &[]).set(2);
        let h = r.histogram("lat_ns", &[]);
        h.record(10);
        h.record(100_000);
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("# TYPE hits_total counter"), "{text}");
        assert!(text.contains("hits_total{seg=\"0\"} 5"), "{text}");
        assert!(text.contains("# TYPE len gauge"), "{text}");
        assert!(text.contains("lat_ns_bucket"), "{text}");
        assert!(text.contains("le=\"+Inf\"} 2"), "{text}");
        assert!(text.contains("lat_ns_count 2"), "{text}");
    }

    #[test]
    fn json_is_structured_and_null_safe() {
        let r = Registry::new();
        r.counter("c_total", &[]).add(1);
        r.histogram("empty_ns", &[]);
        let json = r.snapshot().to_json();
        assert!(
            json.contains("\"type\": \"counter\", \"value\": 1"),
            "{json}"
        );
        assert!(json.contains("\"p50\": null"), "{json}");
    }

    #[test]
    fn sum_spans_label_combinations() {
        let r = Registry::new();
        r.counter("d_total", &[("kernel", "Merge")]).add(2);
        r.counter("d_total", &[("kernel", "Galloping")]).add(3);
        assert_eq!(r.snapshot().sum("d_total"), 5);
    }

    #[test]
    fn label_cap_bounds_cardinality_with_stable_identity() {
        let cap = LabelCap::new(3);
        assert_eq!(cap.label(10), "10");
        assert_eq!(cap.label(20), "20");
        assert_eq!(cap.label(10), "10", "repeat lookups are stable");
        assert_eq!(cap.label(30), "30");
        assert_eq!(cap.label(40), LabelCap::OVERFLOW, "cap full");
        assert_eq!(cap.label(99), LabelCap::OVERFLOW);
        assert_eq!(cap.label(20), "20", "admitted ids never demote");
        assert_eq!(cap.admitted(), 3);
        assert_eq!(cap.overflowed(), 2);
        // A zero cap sends everything to the overflow label.
        let none = LabelCap::new(0);
        assert_eq!(none.label(1), LabelCap::OVERFLOW);
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a = Registry::global().counter("obs_selftest_total", &[]);
        a.inc();
        let b = Registry::global().counter("obs_selftest_total", &[]);
        assert!(b.get() >= 1);
    }
}
