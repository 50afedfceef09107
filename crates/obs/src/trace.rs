//! Per-query structured tracing: a flat list of named, timed spans with
//! string attributes, built cheaply while a query runs and rendered as
//! text or JSON afterwards.
//!
//! The model is deliberately flat (parse → rewrite → cache → exec): the
//! serving stack's per-query stages are sequential, so a flat
//! span list with start offsets reconstructs the timeline exactly, without
//! the allocation churn of a span tree. Attributes carry the attribution
//! payload — chosen `PlanKind`, SIMD tier, estimated vs observed rows,
//! cache hit/miss/refresh — as plain strings so the trace layer has no
//! dependency on the layers it describes.

use crate::registry::json_escape;
use std::time::Instant;

/// One timed stage of a traced query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Stage name (`parse`, `cache`, `exec`, …).
    pub name: String,
    /// Start offset from the trace's origin, nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration, nanoseconds.
    pub dur_ns: u64,
    /// Attribution payload as `(key, value)` pairs. Keys are `&'static`:
    /// attribute names are always literals at the instrumentation site, and
    /// tracing sits on the per-query hot path — one avoidable allocation
    /// per attribute is exactly the overhead budget this crate promises
    /// not to spend.
    pub attrs: Vec<(&'static str, String)>,
}

impl Span {
    /// Adds one attribute (chainable).
    pub fn attr(&mut self, key: &'static str, value: impl ToString) -> &mut Self {
        self.attrs.push((key, value.to_string()));
        self
    }

    /// The value of an attribute, if set.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// An opaque span start marker from [`TraceBuilder::start_span`].
#[derive(Debug, Clone, Copy)]
pub struct SpanStart(Instant);

/// Accumulates spans while a query runs; [`TraceBuilder::finish`] seals it
/// into a [`QueryTrace`].
#[derive(Debug)]
pub struct TraceBuilder {
    origin: Instant,
    query: String,
    spans: Vec<Span>,
}

impl TraceBuilder {
    /// A new trace whose clock starts now.
    pub fn new(query: impl Into<String>) -> Self {
        Self {
            origin: Instant::now(),
            query: query.into(),
            // One span per stage: 8 covers the serving stack's shape
            // without a mid-query regrow.
            spans: Vec::with_capacity(8),
        }
    }

    /// Marks the start of a stage.
    pub fn start_span(&self) -> SpanStart {
        SpanStart(Instant::now())
    }

    /// Ends a stage started with [`TraceBuilder::start_span`], recording it
    /// under `name`; the returned reference takes attributes.
    pub fn end_span(&mut self, start: SpanStart, name: &str) -> &mut Span {
        let start_ns = ns(start.0.duration_since(self.origin));
        let dur_ns = ns(start.0.elapsed());
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            dur_ns,
            attrs: Vec::new(),
        });
        // audit:allow(hot_path_panic): an element was pushed on the line above
        self.spans.last_mut().expect("just pushed")
    }

    /// Records an instantaneous (zero-duration) event span.
    pub fn event(&mut self, name: &str) -> &mut Span {
        let at = self.start_span();
        self.end_span(at, name)
    }

    /// Seals the trace; `total_ns` covers from construction to this call.
    pub fn finish(self) -> QueryTrace {
        QueryTrace {
            total_ns: ns(self.origin.elapsed()),
            query: self.query,
            spans: self.spans,
        }
    }
}

fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A completed query trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryTrace {
    /// The query string as submitted.
    pub query: String,
    /// End-to-end wall clock, nanoseconds.
    pub total_ns: u64,
    /// Stages in completion order (stage pipelines are sequential, so this
    /// is also timeline order).
    pub spans: Vec<Span>,
}

impl QueryTrace {
    /// The first span with this name, if any.
    pub fn span(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// A human-readable multi-line rendering:
    ///
    /// ```text
    /// trace "0 AND 1" total 182.4µs
    ///   parse        1.2µs
    ///   cache        0.4µs  outcome=miss
    ///   exec        88.0µs  kind=HashProbe est_rows=120 rows=117
    /// ```
    pub fn render(&self) -> String {
        let mut out = format!("trace {:?} total {}\n", self.query, fmt_ns(self.total_ns));
        let width = self.spans.iter().map(|s| s.name.len()).max().unwrap_or(0);
        for s in &self.spans {
            let attrs: Vec<String> = s.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
            out.push_str(&format!(
                "  {:<width$}  {:>10}  {}\n",
                s.name,
                fmt_ns(s.dur_ns),
                attrs.join(" ")
            ));
        }
        out
    }

    /// A JSON document with the query, total, and every span.
    pub fn to_json(&self) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let attrs: Vec<String> = s
                    .attrs
                    .iter()
                    .map(|(k, v)| format!("\"{}\": \"{}\"", json_escape(k), json_escape(v)))
                    .collect();
                format!(
                    "{{\"name\": \"{}\", \"start_ns\": {}, \"dur_ns\": {}, \"attrs\": {{{}}}}}",
                    json_escape(&s.name),
                    s.start_ns,
                    s.dur_ns,
                    attrs.join(", ")
                )
            })
            .collect();
        format!(
            "{{\"query\": \"{}\", \"total_ns\": {}, \"spans\": [{}]}}",
            json_escape(&self.query),
            self.total_ns,
            spans.join(", ")
        )
    }
}

/// Formats nanoseconds with an adaptive unit.
pub fn fmt_ns(ns: u64) -> String {
    let v = ns as f64;
    if v >= 1e9 {
        format!("{:.2}s", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}ms", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}µs", v / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_within_the_total() {
        let mut tb = TraceBuilder::new("0 AND 1");
        let s = tb.start_span();
        std::hint::black_box((0..1000u64).sum::<u64>());
        tb.end_span(s, "work").attr("rows", 42);
        let trace = tb.finish();
        assert_eq!(trace.spans.len(), 1);
        let span = trace.span("work").expect("span recorded");
        assert_eq!(span.get("rows"), Some("42"));
        assert!(span.start_ns + span.dur_ns <= trace.total_ns);
    }

    #[test]
    fn spans_are_in_timeline_order() {
        let mut tb = TraceBuilder::new("q");
        for name in ["parse", "plan", "exec"] {
            let s = tb.start_span();
            tb.end_span(s, name);
        }
        let trace = tb.finish();
        let starts: Vec<u64> = trace.spans.iter().map(|s| s.start_ns).collect();
        assert!(starts.windows(2).all(|w| w[0] <= w[1]), "{starts:?}");
    }

    #[test]
    fn render_and_json_carry_the_payload() {
        let mut tb = TraceBuilder::new("0 AND \"x\"");
        tb.event("cache").attr("outcome", "hit");
        let trace = tb.finish();
        let text = trace.render();
        assert!(text.contains("cache"), "{text}");
        assert!(text.contains("outcome=hit"), "{text}");
        let json = trace.to_json();
        assert!(json.contains("\\\"x\\\""), "{json}");
        assert!(json.contains("\"outcome\": \"hit\""), "{json}");
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(500), "500ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
