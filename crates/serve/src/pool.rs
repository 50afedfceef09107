//! Batched parallel execution: a worker pool that drains a batch of
//! requests with work stealing.
//!
//! Items are dealt round-robin onto per-worker deques; a worker pops its
//! own queue from the front and, when empty, steals from the back of its
//! siblings' queues — cheap load balancing for skewed batches where a few
//! giant queries would otherwise idle most workers. All threads are scoped
//! (`std::thread::scope`, nothing outlives the batch), and the crate is
//! `#![forbid(unsafe_code)]`, so the borrow checker vouches for the pool.
//!
//! The pool schedules; it does not execute. [`crate::Server::execute_batch`]
//! hands it the per-request [`crate::Server::execute`] closure, so batched
//! requests take the same cache-fronted path as single ones. Two workers
//! racing on the same (rare) duplicate query may both compute it — a
//! benign stampede that keeps the hot path lock-free between cache
//! segments.

use fsi_obs::Histogram;
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A fixed-width worker pool for batch execution.
#[derive(Debug, Clone)]
pub struct QueryPool {
    workers: usize,
}

/// The product of one generic [`QueryPool::run_indexed`] run: positional
/// per-item results with their service times, the per-worker deal depths,
/// per-worker executed counts, and the merged per-item latency histogram.
pub(crate) struct IndexedRun<T> {
    /// `(f(i), service time of f(i))`, positionally parallel to `0..n`.
    pub items: Vec<(T, Duration)>,
    /// Items dealt to each worker's queue (round-robin).
    pub queue_depths: Vec<usize>,
    /// Items each worker actually completed (difference from
    /// `queue_depths` is work stealing).
    pub executed_per_worker: Vec<usize>,
    /// Merged per-item service-time histogram (nanosecond samples).
    pub hist: Histogram,
}

/// One worker's haul from a [`QueryPool::run_indexed`] run: the
/// `(index, item, service time)` triples it completed plus its local
/// latency histogram, merged after join.
type WorkerHaul<T> = (Vec<(usize, T, Duration)>, Histogram);

impl QueryPool {
    /// A pool of `workers` threads (normalized up to 1).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// Number of worker threads per batch.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The one batch scheduler: runs `f(0..n)` across the pool —
    /// round-robin dealt, work-stealing — and returns positional results
    /// with per-item service times. Single-worker pools and trivial runs
    /// stay on the calling thread.
    pub(crate) fn run_indexed<T, F>(&self, n: usize, f: F) -> IndexedRun<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.workers == 1 || n <= 1 {
            let hist = Histogram::new();
            let items = (0..n)
                .map(|i| {
                    let start = Instant::now();
                    let item = f(i);
                    let latency = start.elapsed();
                    hist.record_duration(latency);
                    (item, latency)
                })
                .collect();
            return IndexedRun {
                items,
                queue_depths: vec![n],
                executed_per_worker: vec![n],
                hist,
            };
        }
        let workers = self.workers.min(n).max(1);
        // Deal item indices round-robin onto per-worker deques.
        let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| Mutex::new((w..n).step_by(workers).collect()))
            .collect();
        let queue_depths: Vec<usize> = queues
            .iter()
            // audit:allow(hot_path_panic): mutex poisoning means a worker already panicked; propagate rather than limp on
            .map(|q| q.lock().expect("queue lock").len())
            .collect();
        let queues = &queues;
        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        // One histogram per worker: recording stays
                        // lock-free and contention-free; the pool merges
                        // after the batch (bucket merge is associative, so
                        // any merge order gives the same distribution).
                        let hist = Histogram::new();
                        let mut done: Vec<(usize, T, Duration)> = Vec::new();
                        loop {
                            // Own queue first (front), then steal (back).
                            // The own-queue guard must drop before any
                            // steal attempt locks a sibling queue:
                            // holding it across the steal is an AB-BA
                            // deadlock when two drained workers steal
                            // from each other.
                            // audit:allow(hot_path_panic): mutex poisoning means a worker already panicked; propagate rather than limp on
                            let own = queues[w].lock().expect("queue lock").pop_front();
                            let next = own.or_else(|| {
                                (1..workers).find_map(|offset| {
                                    queues[(w + offset) % workers]
                                        .lock()
                                        // audit:allow(hot_path_panic): mutex poisoning means a worker already panicked; propagate rather than limp on
                                        .expect("queue lock")
                                        .pop_back()
                                })
                            });
                            let Some(idx) = next else { break };
                            let start = Instant::now();
                            let item = f(idx);
                            let latency = start.elapsed();
                            hist.record_duration(latency);
                            done.push((idx, item, latency));
                        }
                        (done, hist)
                    })
                })
                .collect();
            let per_worker: Vec<WorkerHaul<T>> = handles
                .into_iter()
                // audit:allow(hot_path_panic): a panicked worker must fail the whole batch, not vanish silently
                .map(|h| h.join().expect("worker panicked"))
                .collect();
            let executed: Vec<usize> = per_worker.iter().map(|(d, _)| d.len()).collect();
            let merged = Histogram::new();
            for (_, h) in &per_worker {
                merged.merge_from(h);
            }
            // Reassemble positionally: every index was dealt exactly once,
            // so every slot fills exactly once.
            let mut slots: Vec<Option<(T, Duration)>> = (0..n).map(|_| None).collect();
            for (done, _) in per_worker {
                for (idx, item, latency) in done {
                    if let Some(slot) = slots.get_mut(idx) {
                        *slot = Some((item, latency));
                    }
                }
            }
            let items: Vec<(T, Duration)> = slots.into_iter().flatten().collect();
            assert_eq!(items.len(), n, "every dealt index completes exactly once");
            IndexedRun {
                items,
                queue_depths,
                executed_per_worker: executed,
                hist: merged,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheOutcome, Request, ServeConfig, Server};
    use fsi_core::{Elem, HashContext};
    use fsi_index::{Corpus, CorpusConfig};

    fn server(workers: usize, cache_capacity: usize) -> Server {
        let corpus = Corpus::generate(CorpusConfig {
            num_docs: 20_000,
            num_terms: 32,
            ..CorpusConfig::default()
        });
        Server::from_corpus(
            HashContext::new(5),
            corpus,
            ServeConfig {
                num_shards: 3,
                num_workers: workers,
                cache_capacity,
                ..ServeConfig::default()
            },
        )
    }

    fn batch() -> Vec<Request> {
        (0..40)
            .map(|i| Request::terms(vec![i % 8, (i + 3) % 16, (i * 5 + 1) % 32]))
            .collect()
    }

    fn docs(server: &Server, requests: &[Request]) -> Vec<std::sync::Arc<Vec<Elem>>> {
        let outcome = server.execute_batch(requests);
        outcome
            .responses
            .into_iter()
            .map(|r| r.expect("valid").docs)
            .collect()
    }

    #[test]
    fn batch_results_match_direct_queries() {
        let requests = batch();
        for workers in [1usize, 2, 4] {
            let server = server(workers, 0);
            let outcome = server.execute_batch(&requests);
            assert_eq!(outcome.responses.len(), requests.len());
            for (req, r) in requests.iter().zip(&outcome.responses) {
                let direct = server.execute(req).expect("valid");
                let batched = r.as_ref().expect("valid");
                assert_eq!(batched.docs, direct.docs, "workers={workers} {req:?}");
                assert_eq!(batched.cache, CacheOutcome::Disabled);
            }
            assert_eq!(outcome.latency.count, requests.len());
            assert!(outcome.throughput_qps > 0.0);
        }
    }

    #[test]
    fn cache_front_serves_repeats() {
        let server = server(4, 128);
        let requests: Vec<Request> = (0..30)
            .map(|i| Request::terms(vec![i % 3, 10 + i % 2]))
            .collect();
        let first = docs(&server, &requests);
        // 6 distinct term sets; every request in the second pass hits.
        let second = server.execute_batch(&requests);
        for (a, b) in first.iter().zip(&second.responses) {
            let b = b.as_ref().expect("valid");
            assert_eq!(b.cache, CacheOutcome::Hit);
            assert_eq!(a, &b.docs);
        }
        assert!(server.stats().cache.hit_rate() > 0.5);
    }

    #[test]
    fn cached_results_equal_uncached() {
        let requests = batch();
        let cached = server(3, 64);
        let warm = docs(&cached, &requests);
        let hot = docs(&cached, &requests);
        let cold = docs(&server(3, 0), &requests);
        for ((w, h), c) in warm.iter().zip(&hot).zip(&cold) {
            assert_eq!(w, h);
            assert_eq!(w, c);
        }
    }

    #[test]
    fn queue_depths_and_executed_counts_cover_the_batch() {
        let n = 40;
        for workers in [1usize, 3, 4] {
            let run = QueryPool::new(workers).run_indexed(n, |i| i);
            let used = workers.min(n);
            assert_eq!(run.queue_depths.len(), used, "workers={workers}");
            assert_eq!(run.executed_per_worker.len(), used);
            assert_eq!(run.queue_depths.iter().sum::<usize>(), n);
            assert_eq!(run.executed_per_worker.iter().sum::<usize>(), n);
            // Round-robin deal: initial depths differ by at most one.
            let mn = *run.queue_depths.iter().min().expect("non-empty");
            let mx = *run.queue_depths.iter().max().expect("non-empty");
            assert!(mx - mn <= 1, "deal not round-robin: {:?}", run.queue_depths);
            // Results are positional whichever worker ran them.
            let items: Vec<usize> = run.items.into_iter().map(|(i, _)| i).collect();
            assert_eq!(items, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let run = QueryPool::new(4).run_indexed(0, |i| i);
        assert!(run.items.is_empty());
        assert_eq!(run.hist.snapshot().count, 0);
    }

    #[test]
    fn rapid_tiny_batches_never_wedge() {
        // Regression: the steal path used to hold the worker's own queue
        // lock while locking siblings, deadlocking two simultaneously
        // drained workers. Many tiny batches maximize simultaneous drains.
        let pool = QueryPool::new(2);
        for _ in 0..200 {
            let run = pool.run_indexed(4, |i| i);
            assert_eq!(run.items.len(), 4);
        }
    }

    #[test]
    fn more_workers_than_queries_is_fine() {
        let run = QueryPool::new(16).run_indexed(2, |i| i * 10);
        let items: Vec<usize> = run.items.into_iter().map(|(i, _)| i).collect();
        assert_eq!(items, vec![0, 10]);
    }
}
