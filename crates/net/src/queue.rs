//! A bounded MPMC request queue with batch dequeue and a spin-then-park
//! hand-off.
//!
//! Connection readers push decoded requests; pool workers pop batches.
//! The queue is the server's one buffering point, so its bound is the
//! server's backpressure: a full queue rejects at push time (the reader
//! answers `Overloaded` immediately) instead of growing an invisible
//! backlog whose requests would all miss their deadlines anyway.
//!
//! Batch dequeue is the adaptive micro-batching knob: a worker asks for
//! up to `max` items and gets however many are queued — one under light
//! load (lowest latency), a full batch under heavy load (amortized
//! wakeups) — with no timer and no tuning parameter beyond the cap.
//!
//! # The hand-off
//!
//! A worker that finds the queue empty does not go straight to the
//! condvar: waking a parked thread is a futex round trip on the blocking
//! path of the very next request, and on the benchmark box it costs more
//! than the median intersection it delays. The worker first takes the
//! queue's single **spinner token**, polls the published depth for at
//! most `SPIN_BUDGET` (100 µs) with [`std::thread::yield_now`] between
//! polls, and only then parks. The three parts are the design, not
//! tuning (measured in `docs/serving.md`): *one* spinner whatever the
//! pool size, so an idle pool burns at most one budget of one core per
//! wake-up; *yielding*, so the spinner gives its core to the reader and
//! client threads it is waiting on; *bounded*, so an idle server has
//! every worker parked after one budget.
//!
//! No wake-up can be lost. The truth lives under the mutex: the atomic
//! depth is a hint a spinner reads without the lock, and every way out of
//! the spin — saw something, or gave up — takes the lock and re-checks
//! before waiting on the condvar, exactly as a queue with no spin phase
//! would. `push` publishes the depth *before* it unlocks and decides
//! under the lock whether to `notify_one`: only when a worker is actually
//! parked (std's futex condvar issues a syscall per `notify_one`, waiter
//! or not). The exhaustive-interleaving model in
//! `crates/net/tests/handoff_model.rs` walks every schedule of these
//! steps.

use crate::lifecycle::ns;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, LockResult, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long an idle worker polls for the next item before it parks.
/// Private and fixed: 50, 100 and 150 µs measured alike on `and_cold`
/// (`docs/serving.md`), so there is nothing for a caller to tune.
const SPIN_BUDGET: Duration = Duration::from_micros(100);

/// Bit of [`BoundedQueue::depth`] that says the queue is closed; the rest
/// is the number of queued items. Non-zero either way, so a spinner
/// leaves at once when the queue closes.
const CLOSED: usize = 1 << (usize::BITS - 1);

/// A bounded multi-producer multi-consumer FIFO.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    readable: Condvar,
    capacity: usize,
    /// `items.len()`, with [`CLOSED`] or-ed in once closed — what
    /// `Inner` says, published for readers that do not hold the lock (the
    /// spinner, telemetry). Written only under the lock.
    depth: AtomicUsize,
    /// The spinner token: `true` while one worker is polling `depth`.
    spinner: AtomicBool,
    stats: HandoffCounters,
}

#[derive(Debug)]
struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Workers waiting on `readable` right now.
    parked: usize,
}

/// Statistics only: each cell stands alone and publishes nothing, so
/// every access is `Relaxed`.
#[derive(Debug, Default)]
struct HandoffCounters {
    spin: AtomicU64,
    park: AtomicU64,
    spin_ns: AtomicU64,
}

/// How the workers that had to wait for their batch got it, and what the
/// waiting cost (see [`BoundedQueue::handoff_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HandoffStats {
    /// Batches a worker picked up out of its spin window — no wake-up on
    /// the request's path.
    pub spin: u64,
    /// Batches a worker was woken from the condvar for.
    pub park: u64,
    /// Total time workers spent polling, caught something or not: the
    /// CPU the spin phase costs.
    pub spin_ns: u64,
}

/// Holds the spinner token; dropping it — at the end of the spin window,
/// or unwinding out of it — gives the token back.
struct SpinToken<'a>(&'a AtomicBool);

impl Drop for SpinToken<'_> {
    fn drop(&mut self) {
        // Release: pairs with the Acquire in `spin_token`, so the next
        // holder's window starts after this one's ended.
        self.0.store(false, Ordering::Release);
    }
}

/// The guard out of a `lock()` or a `wait()`.
fn unpoisoned<G>(guard: LockResult<G>) -> G {
    match guard {
        Ok(g) => g,
        // audit:allow(hot_path_panic): mutex poisoning means another request already panicked; propagating is correct
        Err(e) => panic!("request queue poisoned: {e}"),
    }
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (normalized up to 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity),
                closed: false,
                parked: 0,
            }),
            readable: Condvar::new(),
            capacity,
            depth: AtomicUsize::new(0),
            spinner: AtomicBool::new(false),
            stats: HandoffCounters::default(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        unpoisoned(self.inner.lock())
    }

    /// Publishes what `inner` holds. Called with the lock held, before it
    /// is released, by everything that changes `items` or `closed`.
    fn publish(&self, inner: &Inner<T>) {
        let closed = if inner.closed { CLOSED } else { 0 };
        // Release: pairs with the Acquire loads in `spin` and `len`. The
        // items themselves are handed over by the mutex; this only orders
        // the hint after the change it reports.
        self.depth
            .store(inner.items.len() | closed, Ordering::Release);
    }

    /// Enqueues without blocking. Returns the item back when the queue is
    /// full or closed — the caller owes it a response either way.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut inner = self.lock();
        if inner.closed || inner.items.len() >= self.capacity {
            return Err(item);
        }
        inner.items.push_back(item);
        self.publish(&inner);
        // Decided under the lock: a worker counted in `parked` is on the
        // condvar (or woken and waiting for this lock, where a spare
        // notify is harmless); one not counted has yet to take the lock
        // and will find the item when it does.
        let wake = inner.parked > 0;
        drop(inner);
        if wake {
            self.readable.notify_one();
        }
        Ok(())
    }

    /// Dequeues between 1 and `max` items, blocking while the queue is
    /// empty — polling briefly before each park, if no other worker is
    /// (see the module docs). Returns `None` only when the queue is
    /// closed **and** drained — pending items are always delivered first,
    /// so every admitted request is handed to exactly one worker.
    pub fn pop_batch(&self, max: usize) -> Option<Vec<T>> {
        self.pop_batch_with(max, std::thread::yield_now)
    }

    /// [`BoundedQueue::pop_batch`], with what a spinner does between two
    /// polls passed in — the seam the tests use to act *inside* the spin
    /// window (push, close, panic) instead of racing it.
    fn pop_batch_with(&self, max: usize, pause: impl Fn()) -> Option<Vec<T>> {
        let max = max.max(1);
        // The counter this batch goes under, once the worker has had to
        // wait for it: `None` while it was simply there when it looked.
        let mut handoff: Option<&AtomicU64> = None;
        let mut may_spin = true;
        let mut inner = self.lock();
        loop {
            if !inner.items.is_empty() {
                let n = inner.items.len().min(max);
                let batch: Vec<T> = inner.items.drain(..n).collect();
                self.publish(&inner);
                drop(inner);
                if let Some(handoff) = handoff {
                    handoff.fetch_add(1, Ordering::Relaxed);
                }
                return Some(batch);
            }
            if inner.closed {
                return None;
            }
            // About to block. One spin window before each park, if the
            // token is free: poll without the lock, then take it again and
            // re-check at the top of the loop, so whatever was pushed
            // meanwhile is seen there and not slept through.
            let token = if may_spin { self.spin_token() } else { None };
            if let Some(token) = token {
                may_spin = false;
                drop(inner);
                self.spin(token, &pause);
                handoff = Some(&self.stats.spin);
                inner = self.lock();
                continue;
            }
            inner.parked += 1;
            inner = unpoisoned(self.readable.wait(inner));
            inner.parked -= 1;
            handoff = Some(&self.stats.park);
            may_spin = true;
        }
    }

    /// Takes the spinner token if no worker holds it.
    fn spin_token(&self) -> Option<SpinToken<'_>> {
        // Acquire: pairs with the Release in `SpinToken::drop`. At most one
        // caller gets `Ok` between two such stores. The guard is built
        // lazily (`then`, not `then_some`): one built and dropped on the
        // losing side would give back a token its caller never held.
        self.spinner
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Acquire)
            .is_ok()
            .then(|| SpinToken(&self.spinner))
    }

    /// The spin window: polls the published depth until it reads non-zero
    /// (an item, or closed) or the budget runs out, calling `pause`
    /// between polls, then gives the token back. Runs with no lock held,
    /// so unwinding out of it poisons nothing — and drops the token.
    fn spin(&self, token: SpinToken<'_>, pause: impl Fn()) {
        let start = Instant::now();
        let spent = loop {
            // Acquire: pairs with the Release in `publish`.
            let depth = self.depth.load(Ordering::Acquire);
            let spent = start.elapsed();
            if depth != 0 || spent >= SPIN_BUDGET {
                break spent;
            }
            pause();
        };
        drop(token);
        self.stats.spin_ns.fetch_add(ns(spent), Ordering::Relaxed);
    }

    /// Current depth (racy, for telemetry). Takes no lock.
    pub fn len(&self) -> usize {
        // Acquire: pairs with the Release in `publish`.
        self.depth.load(Ordering::Acquire) & !CLOSED
    }

    /// Whether the queue is currently empty (racy, for telemetry).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How waiting workers have been handed their batches so far, and the
    /// time spent polling. A batch that was already queued when a worker
    /// looked counts under neither `spin` nor `park`.
    pub fn handoff_stats(&self) -> HandoffStats {
        HandoffStats {
            spin: self.stats.spin.load(Ordering::Relaxed),
            park: self.stats.park.load(Ordering::Relaxed),
            spin_ns: self.stats.spin_ns.load(Ordering::Relaxed),
        }
    }

    /// Closes the queue: future pushes fail, and workers drain what is
    /// left before [`BoundedQueue::pop_batch`] returns `None`.
    pub fn close(&self) {
        let mut inner = self.lock();
        inner.closed = true;
        // The sentinel: a spinner reads non-zero and leaves at once.
        self.publish(&inner);
        drop(inner);
        self.readable.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_batch_cap() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.push(i).expect("capacity");
        }
        assert_eq!(q.len(), 5);
        assert_eq!(q.pop_batch(3), Some(vec![0, 1, 2]));
        assert_eq!(q.pop_batch(3), Some(vec![3, 4]));
        assert!(q.is_empty());
    }

    #[test]
    fn full_queue_rejects_push() {
        let q = BoundedQueue::new(2);
        q.push(1).expect("capacity");
        q.push(2).expect("capacity");
        assert_eq!(q.push(3), Err(3));
        q.pop_batch(1);
        q.push(3).expect("freed a slot");
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4);
        q.push("a").expect("capacity");
        q.push("b").expect("capacity");
        q.close();
        assert_eq!(q.push("c"), Err("c"), "closed queue rejects");
        assert_eq!(q.pop_batch(10), Some(vec!["a", "b"]), "drained first");
        assert_eq!(q.pop_batch(10), None, "then closed");
    }

    #[test]
    fn blocked_consumers_wake_on_close() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop_batch(4))
            })
            .collect();
        // Give the consumers a moment to block, then close.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        for c in consumers {
            assert_eq!(c.join().expect("no panic"), None);
        }
    }

    #[test]
    fn concurrent_producers_and_consumers_lose_nothing() {
        let q = Arc::new(BoundedQueue::<u64>::new(64));
        const PER: u64 = 500;
        let producers: Vec<_> = (0..4u64)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..PER {
                        let mut item = p * PER + i;
                        // Retry on full: the test asserts conservation, not
                        // shedding.
                        loop {
                            match q.push(item) {
                                Ok(()) => break,
                                Err(back) => {
                                    item = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(batch) = q.pop_batch(7) {
                        got.extend(batch);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().expect("producer");
        }
        q.close();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().expect("consumer"))
            .collect();
        all.sort_unstable();
        let expect: Vec<u64> = (0..4 * PER).collect();
        assert_eq!(all, expect, "every pushed item popped exactly once");
    }

    /// Spins until every one of `n` consumers is waiting on the condvar.
    fn wait_until_parked<T>(q: &BoundedQueue<T>, n: usize) {
        while q.lock().parked < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn idle_consumers_all_park_and_nobody_holds_the_token() {
        const WORKERS: usize = 4;
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let consumers: Vec<_> = (0..WORKERS)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop_batch(4))
            })
            .collect();
        wait_until_parked(&q, WORKERS);
        assert!(!q.spinner.load(Ordering::Acquire), "a parked token holder");
        let settled = q.handoff_stats();
        assert!(settled.spin_ns > 0, "somebody polled before parking");
        assert_eq!((settled.spin, settled.park), (0, 0), "nothing handed off");
        // Everybody is on the condvar, so nothing can be polling: the cost
        // counter has stopped.
        std::thread::sleep(4 * SPIN_BUDGET);
        assert_eq!(q.handoff_stats(), settled);
        // A parked pool is woken the old way, one worker per push.
        q.push(9).expect("capacity");
        while q.handoff_stats().park == 0 {
            std::thread::yield_now();
        }
        q.close();
        let got: Vec<_> = consumers
            .into_iter()
            .filter_map(|c| c.join().expect("no panic"))
            .collect();
        assert_eq!(got, [vec![9]]);
        let end = q.handoff_stats();
        assert_eq!((end.spin, end.park), (0, 1));
    }

    #[test]
    fn an_item_pushed_inside_the_spin_window_needs_no_wake_up() {
        let q = BoundedQueue::new(4);
        // The "pause" between the first two polls is the push.
        let got = q.pop_batch_with(4, || q.push(5).expect("capacity"));
        assert_eq!(got, Some(vec![5]));
        let stats = q.handoff_stats();
        assert_eq!((stats.spin, stats.park), (1, 0));
        assert!(!q.spinner.load(Ordering::Acquire), "token given back");
        // Already queued when the worker looks: neither a spin nor a park.
        q.push(6).expect("capacity");
        assert_eq!(q.pop_batch(4), Some(vec![6]));
        assert_eq!(q.handoff_stats().spin + q.handoff_stats().park, 1);
    }

    #[test]
    fn close_ends_a_spin_window_at_the_next_poll() {
        let q = BoundedQueue::<u32>::new(4);
        let pauses = AtomicUsize::new(0);
        let got = q.pop_batch_with(4, || {
            pauses.fetch_add(1, Ordering::Relaxed);
            q.close();
        });
        assert_eq!(got, None);
        assert_eq!(
            pauses.load(Ordering::Relaxed),
            1,
            "kept polling after close"
        );
        assert_eq!(q.len(), 0, "the sentinel is not a depth");
    }

    #[test]
    fn a_panic_inside_the_spin_window_gives_the_token_back() {
        let q = BoundedQueue::<u32>::new(4);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            q.pop_batch_with(4, || panic!("injected into the spin window"))
        }));
        assert!(unwound.is_err());
        assert!(!q.spinner.load(Ordering::Acquire), "token stranded");
        // No lock was held across the window either: the queue still works,
        // and the next idle worker spins.
        q.push(1).expect("not poisoned");
        assert_eq!(q.pop_batch(4), Some(vec![1]));
        assert_eq!(
            q.pop_batch_with(4, || q.push(2).expect("capacity")),
            Some(vec![2])
        );
        assert_eq!(q.handoff_stats().spin, 1);
    }

    #[test]
    fn at_most_one_worker_spins_at_any_instant() {
        const WORKERS: usize = 4;
        const ITEMS: u32 = 2_000;
        let q = BoundedQueue::<u32>::new(8);
        let spinning = AtomicUsize::new(0);
        let most = AtomicUsize::new(0);
        let popped = std::thread::scope(|scope| {
            let consumers: Vec<_> = (0..WORKERS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut popped = 0;
                        // Every pause is inside some worker's window; count
                        // how many are inside one at once.
                        while let Some(batch) = q.pop_batch_with(2, || {
                            let now = spinning.fetch_add(1, Ordering::SeqCst) + 1;
                            most.fetch_max(now, Ordering::SeqCst);
                            std::thread::yield_now();
                            spinning.fetch_sub(1, Ordering::SeqCst);
                        }) {
                            popped += batch.len();
                        }
                        popped
                    })
                })
                .collect();
            for mut item in 0..ITEMS {
                while let Err(back) = q.push(item) {
                    item = back;
                    std::thread::yield_now();
                }
                // Let the queue run dry now and then, so workers go idle.
                if item % 8 == 0 {
                    std::thread::yield_now();
                }
            }
            q.close();
            consumers
                .into_iter()
                .map(|c| c.join().expect("consumer"))
                .sum::<usize>()
        });
        assert_eq!(popped, ITEMS as usize);
        assert_eq!(most.load(Ordering::SeqCst), 1, "two workers polled at once");
        assert!(q.handoff_stats().spin_ns > 0);
    }

    #[test]
    fn telemetry_reads_the_depth_without_the_lock() {
        let q = BoundedQueue::new(4);
        q.push(1).expect("capacity");
        q.push(2).expect("capacity");
        // Would deadlock here if `len` still took the mutex.
        let held = q.lock();
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        drop(held);
    }
}
