//! Outside-in spans: one around every call the layer replay makes into a
//! layer's public functions. Nothing inside `crates/` is instrumented.
//!
//! A span's `parent` is the span of the call that, in the running server,
//! contains this work (`query.parse` happens inside `serve.execute`, which
//! happens inside the round trip `net.wire_call`). The replay measures the
//! parts one after another, so a child's interval does not lie inside its
//! parent's; the parent link is what makes "the whole minus its replayed
//! parts" computable, see [`Tracer::self_ns`].

use std::io::Write;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in the trace.
    pub id: u32,
    /// The containing call, if the replay measured one.
    pub parent: Option<u32>,
    /// The query's index in the workload stream; spans of one request
    /// share it.
    pub request: u32,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Nanoseconds since the trace began.
    pub start_ns: u64,
    /// Nanoseconds since the trace began.
    pub end_ns: u64,
}

impl Span {
    /// How long the call took.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans of one traced run, kept in memory until [`Tracer::write_jsonl`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `call` under a span and returns the span's id with the call's
    /// result.
    pub fn record<T>(
        &mut self,
        name: &'static str,
        request: u32,
        parent: Option<u32>,
        call: impl FnOnce() -> T,
    ) -> (u32, T) {
        let start = Instant::now();
        let result = call();
        let end = Instant::now();
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
        });
        (id, result)
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of all spans called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Self time of every span called `name`: its duration minus the
    /// durations of its child spans. Signed, because the children were
    /// measured separately: a negative value means the replayed parts
    /// took longer than the whole they are parts of, which the report
    /// must show and not clamp away.
    pub fn self_ns(&self, name: &str) -> Vec<i64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as i64 - children[s.id as usize] as i64)
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_the_whole_minus_its_children() {
        let t = Tracer {
            origin: Instant::now(),
            spans: vec![
                span(0, None, "whole", 0, 100),
                span(1, Some(0), "part", 200, 230),
                span(2, Some(0), "inner", 300, 340),
                span(3, Some(2), "leaf", 400, 415),
                span(4, None, "whole", 500, 520),
                span(5, Some(4), "part", 600, 650),
            ],
        };
        // 100 - (30 + 40); grandchildren are charged to their own parent.
        // The second whole's part outran it and stays negative.
        assert_eq!(t.self_ns("whole"), vec![30, -30]);
        assert_eq!(t.self_ns("inner"), vec![25]);
        assert_eq!(t.self_ns("leaf"), vec![15]);
        assert_eq!(t.durations_ns("part"), vec![30, 50]);
    }

    #[test]
    fn recorded_spans_nest_by_parent_and_serialise() {
        let mut t = Tracer::new();
        let (whole, v) = t.record("whole", 7, None, || 41 + 1);
        assert_eq!(v, 42);
        let (part, ()) = t.record("part", 7, Some(whole), || ());
        assert_eq!((whole, part), (0, 1));
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[1].start_ns >= t.spans()[0].end_ns);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).expect("write to memory");
        let text = String::from_utf8(buf).expect("utf-8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"parent\": null") && lines[0].contains("\"request\": 7"));
        assert!(lines[1].contains("\"parent\": 0") && lines[1].contains("\"name\": \"part\""));
    }
}
