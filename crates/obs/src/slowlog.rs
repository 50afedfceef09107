//! The tail-sampled slow-query log: a fixed-capacity concurrent ring
//! buffer of retained request records, plus the [`TailSampler`] that
//! decides retention.
//!
//! The retention contract is **tail-based**: the always-on request path
//! collects stage timestamps only (cheap enough to leave on), and a full
//! record is kept solely for requests that matter after the fact — those
//! that breached a latency threshold, ended in any non-success outcome
//! (shed, rejected, invalid), or were head-sampled 1-in-N at admission
//! (head-sampled requests can additionally carry a full [`QueryTrace`],
//! since the sampling decision predates execution).
//!
//! The ring is bounded and evicts oldest-first, so a flood of slow or
//! shed requests can never grow memory without bound: the log always
//! holds the `capacity` most recent retained records. Entries are pushed
//! whole under one mutex and shared out as `Arc`s, so readers never see
//! a torn record and a dump never blocks writers for long
//! (`crates/obs/tests/slowlog.rs` pins the capacity bound, the
//! no-tearing guarantee, and oldest-first eviction over exhaustive
//! interleavings).

use crate::registry::{json_escape, thread_stripe, STRIPES};
use crate::trace::QueryTrace;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One timed lifecycle stage of a retained request (`decode`,
/// `admission`, `queue`, `execute`, `write`), as offsets from the moment
/// the request's frame was read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stage {
    /// Stage name; a `&'static str` so the always-on path never
    /// allocates for a name.
    pub name: &'static str,
    /// Start offset from the request origin, nanoseconds.
    pub start_ns: u64,
    /// Stage duration, nanoseconds.
    pub dur_ns: u64,
}

/// One retained request record.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowLogEntry {
    /// The wire request id (the caller's correlation handle).
    pub id: u64,
    /// The tenant the request billed to, if any.
    pub tenant: Option<u32>,
    /// The query string as submitted.
    pub query: String,
    /// Final outcome: `ok`, `shed`, `overloaded`, or `invalid_query`.
    pub outcome: &'static str,
    /// Attribution refining the outcome: the shed reason
    /// (`deadline_expired`, `queue_full`, `admission_denied`) or the
    /// cache outcome for served requests; empty when none applies.
    pub reason: &'static str,
    /// Request-queue depth observed at admission — the backlog this
    /// request queued behind.
    pub queue_depth: usize,
    /// End-to-end wall clock from frame read to response written,
    /// nanoseconds.
    pub total_ns: u64,
    /// The lifecycle stage timeline (always-on timestamps).
    pub stages: Vec<Stage>,
    /// The executed plan kind, when execution reported one.
    pub plan_summary: String,
    /// The full execution span tree — present only for head-sampled
    /// requests, which ran traced.
    pub trace: Option<QueryTrace>,
}

impl SlowLogEntry {
    /// Renders the entry as one JSON object.
    pub fn to_json(&self) -> String {
        let stages: Vec<String> = self
            .stages
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": \"{}\", \"start_ns\": {}, \"dur_ns\": {}}}",
                    json_escape(s.name),
                    s.start_ns,
                    s.dur_ns
                )
            })
            .collect();
        let tenant = match self.tenant {
            Some(t) => t.to_string(),
            None => "null".to_string(),
        };
        let trace = match &self.trace {
            Some(t) => t.to_json(),
            None => "null".to_string(),
        };
        format!(
            "{{\"id\": {}, \"tenant\": {}, \"query\": \"{}\", \"outcome\": \"{}\", \
             \"reason\": \"{}\", \"queue_depth\": {}, \"total_ns\": {}, \
             \"plan\": \"{}\", \"stages\": [{}], \"trace\": {}}}",
            self.id,
            tenant,
            json_escape(&self.query),
            json_escape(self.outcome),
            json_escape(self.reason),
            self.queue_depth,
            self.total_ns,
            json_escape(&self.plan_summary),
            stages.join(", "),
            trace
        )
    }
}

#[derive(Debug)]
struct Ring {
    /// Retained entries, oldest first, each with the thread stripe that
    /// pushed (and so allocated) it.
    items: VecDeque<(usize, Arc<SlowLogEntry>)>,
    /// Evicted entries waiting for the stripe that allocated them to
    /// come back and free them (see [`SlowLog::push`]), at most
    /// [`SlowLog::grave_capacity`] each.
    graves: [Vec<Arc<SlowLogEntry>>; STRIPES],
}

/// A fixed-capacity concurrent ring buffer of [`SlowLogEntry`] records:
/// pushes evict oldest-first once full, and snapshots hand out `Arc`s so
/// no reader ever observes a partially written entry.
#[derive(Debug)]
pub struct SlowLog {
    inner: Mutex<Ring>,
    capacity: usize,
    /// Total entries ever retained (monotone; `retained - len` were
    /// evicted).
    retained: AtomicU64,
}

impl SlowLog {
    /// A log holding at most `capacity` entries. A capacity of `0`
    /// disables retention entirely — pushes become no-ops.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Ring {
                items: VecDeque::with_capacity(capacity),
                graves: Default::default(),
            }),
            capacity,
            retained: AtomicU64::new(0),
        }
    }

    /// Maximum retained entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Retains one entry, evicting the oldest when full. Returns whether
    /// the entry was kept (`false` only for a zero-capacity log).
    ///
    /// An evicted entry is freed by the thread stripe that pushed it, not
    /// by whichever thread evicts it: it is parked, and its own stripe's
    /// next push frees it. An entry is a dozen small heap blocks, and a
    /// serving thread that frees another's blocks gets them back from the
    /// allocator for its own next requests — after which every serving
    /// thread's per-request temporaries sit in every other thread's heap,
    /// for good. Measured on the hit path of `fsi-net` (4 connections, 2
    /// cores, 1-in-64 head sampling, a full 256-entry log): 155–169 k q/s
    /// evicting in place, 183–200 k parked, 203–238 k with nothing
    /// retained. Parking is bounded — a stripe whose threads have gone
    /// leaves at most its share of `capacity` behind, and past that
    /// evictions free in place.
    pub fn push(&self, entry: SlowLogEntry) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let entry = Arc::new(entry);
        let home = thread_stripe();
        let mut guard = match self.inner.lock() {
            Ok(g) => g,
            // audit:allow(hot_path_panic): mutex poisoning means another request already panicked; propagating is correct
            Err(e) => panic!("slow log poisoned: {e}"),
        };
        let ring = &mut *guard;
        let mut dead = Vec::new();
        if let Some(mine) = ring.graves.get_mut(home) {
            dead.append(mine);
        }
        if ring.items.len() >= self.capacity {
            if let Some((owner, evicted)) = ring.items.pop_front() {
                match ring.graves.get_mut(owner) {
                    Some(grave) if owner != home && grave.len() < self.grave_capacity() => {
                        grave.push(evicted);
                    }
                    _ => dead.push(evicted),
                }
            }
        }
        ring.items.push_back((home, entry));
        drop(guard);
        drop(dead);
        self.retained.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// How many evicted entries may wait for one stripe: together the
    /// graves hold at most as many entries as the log itself.
    fn grave_capacity(&self) -> usize {
        self.capacity.div_ceil(STRIPES)
    }

    /// Current number of retained entries.
    pub fn len(&self) -> usize {
        match self.inner.lock() {
            Ok(g) => g.items.len(),
            // audit:allow(hot_path_panic): mutex poisoning means another request already panicked; propagating is correct
            Err(e) => panic!("slow log poisoned: {e}"),
        }
    }

    /// Whether the log holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total entries ever retained (monotone, survives eviction).
    pub fn retained_total(&self) -> u64 {
        self.retained.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the retained entries, oldest first.
    pub fn entries(&self) -> Vec<Arc<SlowLogEntry>> {
        match self.inner.lock() {
            Ok(g) => g.items.iter().map(|(_, e)| Arc::clone(e)).collect(),
            // audit:allow(hot_path_panic): mutex poisoning means another request already panicked; propagating is correct
            Err(e) => panic!("slow log poisoned: {e}"),
        }
    }

    /// Renders the whole log as one JSON document:
    /// `{"capacity": N, "retained_total": N, "entries": [...]}`.
    pub fn to_json(&self) -> String {
        let entries: Vec<String> = self
            .entries()
            .iter()
            .map(|e| format!("    {}", e.to_json()))
            .collect();
        format!(
            "{{\n  \"capacity\": {},\n  \"retained_total\": {},\n  \"entries\": [\n{}\n  ]\n}}\n",
            self.capacity,
            self.retained_total(),
            entries.join(",\n")
        )
    }
}

/// The tail-based retention policy: keep a request's record when it
/// breached the latency threshold, ended in a non-success outcome, or was
/// head-sampled 1-in-N at admission.
#[derive(Debug)]
pub struct TailSampler {
    threshold_ns: u64,
    head_every: u64,
    heads: AtomicU64,
}

impl TailSampler {
    /// A policy retaining requests slower than `threshold` plus every
    /// `head_every`-th request (`0` disables head sampling). A zero
    /// threshold retains everything with nonzero latency — useful in
    /// tests, pathological in production.
    pub fn new(threshold: Duration, head_every: u64) -> Self {
        Self {
            threshold_ns: u64::try_from(threshold.as_nanos()).unwrap_or(u64::MAX),
            head_every,
            heads: AtomicU64::new(0),
        }
    }

    /// The head-sampling decision, made once per request **at admission**
    /// (so a sampled request can run fully traced). Exactly one in
    /// `head_every` calls returns `true`; always `false` when disabled.
    pub fn sample_head(&self) -> bool {
        if self.head_every == 0 {
            return false;
        }
        self.heads
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(self.head_every)
    }

    /// The tail decision, made once per request at completion.
    pub fn retain(&self, total_ns: u64, success: bool, head_sampled: bool) -> bool {
        head_sampled || !success || total_ns > self.threshold_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u64) -> SlowLogEntry {
        SlowLogEntry {
            id,
            tenant: Some(7),
            query: format!("{id} AND 1"),
            outcome: "ok",
            reason: "cache_miss",
            queue_depth: 3,
            total_ns: 1_000 * id,
            stages: vec![Stage {
                name: "queue",
                start_ns: 10,
                dur_ns: 90,
            }],
            plan_summary: "HashProbe".to_string(),
            trace: None,
        }
    }

    #[test]
    fn ring_bounds_and_evicts_oldest_first() {
        let log = SlowLog::new(3);
        for id in 0..5 {
            assert!(log.push(entry(id)));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.retained_total(), 5);
        let ids: Vec<u64> = log.entries().iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![2, 3, 4], "oldest evicted first");
    }

    #[test]
    fn evicted_entries_wait_for_the_stripe_that_allocated_them() {
        let log = SlowLog::new(16);
        for id in 0..16 {
            log.push(entry(id));
        }
        let home = thread_stripe();
        let held = log.entries();
        let refs = |i: usize| Arc::strong_count(&held[i]);
        // A thread of another stripe evicts three of this thread's entries.
        while !std::thread::scope(|s| {
            let other =
                s.spawn(|| thread_stripe() != home && (16..19).all(|id| log.push(entry(id))));
            other.join().expect("pusher")
        }) {}
        let ids: Vec<u64> = log.entries().iter().map(|e| e.id).collect();
        assert_eq!(ids, (3..19).collect::<Vec<_>>(), "evicted all the same");
        // Two are parked for their stripe (its share of 16 over 8 stripes);
        // the third, past the bound, was freed in place.
        assert_eq!([refs(0), refs(1), refs(2)], [2, 2, 1]);
        // The stripe's next push frees what was parked for it, and evicts
        // its own oldest entry in place.
        log.push(entry(19));
        assert_eq!([refs(0), refs(1), refs(3)], [1, 1, 1]);
        assert_eq!(log.len(), 16);
    }

    #[test]
    fn zero_capacity_retains_nothing() {
        let log = SlowLog::new(0);
        assert!(!log.push(entry(1)));
        assert!(log.is_empty());
        assert_eq!(log.retained_total(), 0);
        assert!(log.to_json().contains("\"entries\": [\n\n  ]"));
    }

    #[test]
    fn json_carries_the_attribution_payload() {
        let log = SlowLog::new(4);
        log.push(entry(9));
        let json = log.to_json();
        assert!(json.contains("\"id\": 9"), "{json}");
        assert!(json.contains("\"tenant\": 7"), "{json}");
        assert!(json.contains("\"outcome\": \"ok\""), "{json}");
        assert!(json.contains("\"queue_depth\": 3"), "{json}");
        assert!(json.contains("\"name\": \"queue\""), "{json}");
        assert!(json.contains("\"trace\": null"), "{json}");
        // An anonymous entry renders a null tenant.
        let mut anon = entry(10);
        anon.tenant = None;
        log.push(anon);
        assert!(log.to_json().contains("\"tenant\": null"));
    }

    #[test]
    fn head_sampler_fires_exactly_one_in_n() {
        let s = TailSampler::new(Duration::from_millis(100), 4);
        let fired: Vec<bool> = (0..12).map(|_| s.sample_head()).collect();
        let expect: Vec<bool> = (0..12).map(|i| i % 4 == 0).collect();
        assert_eq!(fired, expect);
        let off = TailSampler::new(Duration::from_millis(100), 0);
        assert!((0..100).all(|_| !off.sample_head()));
    }

    #[test]
    fn retention_truth_table() {
        let s = TailSampler::new(Duration::from_micros(50), 0);
        assert!(!s.retain(10_000, true, false), "fast success drops");
        assert!(s.retain(60_000, true, false), "threshold breach retains");
        assert!(s.retain(10_000, false, false), "non-success retains");
        assert!(s.retain(10_000, true, true), "head sample retains");
        assert!(
            !s.retain(50_000, true, false),
            "threshold is exclusive at the boundary"
        );
    }

    #[test]
    fn concurrent_pushes_never_exceed_capacity_or_tear() {
        let log = Arc::new(SlowLog::new(8));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let log = Arc::clone(&log);
                s.spawn(move || {
                    for i in 0..50 {
                        log.push(entry(t * 1_000 + i));
                    }
                });
            }
        });
        assert_eq!(log.len(), 8);
        assert_eq!(log.retained_total(), 200);
        for e in log.entries() {
            // An entry's fields are mutually consistent — never torn
            // across two writers.
            assert_eq!(e.query, format!("{} AND 1", e.id));
            assert_eq!(e.total_ns, 1_000 * e.id);
        }
    }
}
