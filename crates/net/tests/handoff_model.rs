//! Exhaustive-interleaving model of the queue's spin-then-park hand-off
//! (`fsi_net::queue`), in the style of `crates/obs/tests/interleavings.rs`:
//! no real threads and no hoping the scheduler is unkind — every schedule
//! of small per-thread step sequences is walked, and the invariants are
//! asserted in every state reached.
//!
//! The model mirrors `BoundedQueue::{push, pop_batch, close}` step for
//! step, one shared-memory access (or one lock operation) per step:
//!
//! | thread | steps, in source order |
//! |---|---|
//! | producer (`push`) | lock · push_back and read `parked` · **publish depth** · **unlock** · **notify-if-parked** |
//! | consumer (`pop_batch`) | lock · **re-check** (drain, publish, unlock — or see `closed`) · try the token · unlock · **poll** the depth (again, or **give up**: the budget can run out between any two polls) · give the token back · **lock** · re-check · **wait** (count itself parked, release the lock and sleep, atomically) · woken: lock, uncount |
//! | closer (`close`) | lock · set `closed` · publish the sentinel · unlock · notify_all |
//!
//! The condvar may also wake one sleeper for no reason, once per walk.
//!
//! Because consumers loop and block, the walk is a depth-first search
//! over *states* with a visited set rather than over fixed-length
//! schedules: every reachable state is expanded by every thread that can
//! move in it, so every interleaving is covered, and a state reached by
//! two schedules is checked once.
//!
//! What is asserted:
//!
//! * **no lost wake-up** — in every state where nothing more will be
//!   notified, a queued item has a consumer that is not asleep; and every
//!   walk ends with every accepted item popped. Scenarios are run for
//!   every number of pushes up to the largest, so each push is the *last*
//!   push of some scenario: an item that only a later push would have
//!   rescued is left stranded there;
//! * **FIFO, exactly once** — the pop order is always a prefix of the
//!   push order;
//! * **at most one token holder**, never one that is parked, and an idle
//!   system (everybody parked) has none;
//! * **the published depth is the truth whenever the lock is free** —
//!   which is what "publish before unlock" buys telemetry and the spinner;
//! * **close drains everything** — every consumer returns, every item is
//!   popped or was refused at push.
//!
//! The model has teeth: two deliberately broken protocols (park without
//! the re-check; publish after the unlock) are walked by the same code
//! and must be caught.
//!
//! Scope, as in the fsi-obs harness: interleavings of sequentially
//! consistent steps, not weak-memory reorderings. The items travel under
//! the mutex; the two atomics are Release/Acquire pairs documented at
//! each site, and the `tsan` CI job runs the real-thread tests over them.

use std::collections::{HashSet, VecDeque};

const CLOSED: usize = 1 << (usize::BITS - 1);
const CAPACITY: usize = 2;
const BATCH_MAX: usize = 2;
/// Polls a spinner may make before its budget is certainly gone. It may
/// give up after any of them.
const MAX_POLLS: u8 = 2;

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Flaw {
    None,
    /// After the spin window: lock, then wait — without looking.
    ParkWithoutRecheck,
    /// `push` unlocks first and publishes the depth afterwards.
    PublishAfterUnlock,
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
enum ProdPc {
    /// `lock()`, the capacity check, `push_back`, and reading `parked`:
    /// one step — until the depth is published nothing outside the lock
    /// can tell them apart.
    LockAndPush,
    Publish,
    Unlock,
    Notify,
    Done,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct Producer {
    pc: ProdPc,
    /// Items this producer pushes, one `push` call each, and how many of
    /// those calls have returned.
    todo: &'static [u8],
    done: usize,
    /// `parked > 0`, as read under the lock.
    wake: bool,
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
enum ConsPc {
    /// `lock()` and the re-check at the top of the loop (drain, or see
    /// `closed`, or find nothing): one step, all of it under the lock.
    LockAndCheck,
    PublishPop,
    UnlockPop,
    UnlockClosed,
    TryToken,
    UnlockToSpin,
    Poll,
    GiveBack,
    /// The flawed path only: lock, then wait, without the re-check.
    LockAndPark,
    Waiting,
    /// Notified: takes the lock again, uncounts itself, re-checks.
    Reacquire,
    Done,
}

/// Consumers are interchangeable, so a state is stored with them sorted.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
struct Consumer {
    pc: ConsPc,
    may_spin: bool,
    holds_token: bool,
    polls: u8,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum ClosePc {
    LockAndSetClosed,
    Publish,
    Unlock,
    NotifyAll,
    Done,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct World {
    // The mutex (who holds it is in that thread's `pc`) and what it guards.
    locked: bool,
    items: VecDeque<u8>,
    closed: bool,
    parked: usize,
    // The two atomics.
    depth: usize,
    token: bool,
    producers: Vec<Producer>,
    /// Asleep on the condvar: the ones at [`ConsPc::Waiting`].
    consumers: Vec<Consumer>,
    closer: Option<ClosePc>,
    // History, for the FIFO and conservation checks.
    pushed: Vec<u8>,
    popped: Vec<u8>,
}

impl World {
    fn new(pushes: &[&'static [u8]], consumers: usize, closer: bool) -> Self {
        Self {
            locked: false,
            items: VecDeque::new(),
            closed: false,
            parked: 0,
            depth: 0,
            token: false,
            producers: pushes
                .iter()
                .map(|todo| Producer {
                    pc: ProdPc::LockAndPush,
                    todo,
                    done: 0,
                    wake: false,
                })
                .collect(),
            consumers: (0..consumers)
                .map(|_| Consumer {
                    pc: ConsPc::LockAndCheck,
                    may_spin: true,
                    holds_token: false,
                    polls: 0,
                })
                .collect(),
            closer: closer.then_some(ClosePc::LockAndSetClosed),
            pushed: Vec::new(),
            popped: Vec::new(),
        }
    }

    fn published(&self) -> usize {
        self.items.len() | if self.closed { CLOSED } else { 0 }
    }

    fn asleep(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.consumers.len()).filter(|&c| self.consumers[c].pc == ConsPc::Waiting)
    }

    /// Every state one step of producer `p` can lead to (none: blocked or
    /// finished).
    fn step_producer(&self, p: usize, flaw: Flaw) -> Vec<World> {
        let mut w = self.clone();
        let was = &self.producers[p];
        let call_returns = |w: &mut World| {
            let prod = &mut w.producers[p];
            prod.wake = false;
            prod.done += 1;
            prod.pc = if prod.done < prod.todo.len() {
                ProdPc::LockAndPush
            } else {
                ProdPc::Done
            };
        };
        match was.pc {
            ProdPc::LockAndPush => {
                if self.locked {
                    return vec![];
                }
                if w.closed || w.items.len() >= CAPACITY {
                    // `return Err(item)`: locked, looked, unlocked.
                    call_returns(&mut w);
                } else {
                    w.locked = true;
                    w.items.push_back(was.todo[was.done]);
                    w.pushed.push(was.todo[was.done]);
                    w.producers[p].wake = w.parked > 0;
                    w.producers[p].pc = match flaw {
                        Flaw::PublishAfterUnlock => ProdPc::Unlock,
                        _ => ProdPc::Publish,
                    };
                }
            }
            ProdPc::Publish => {
                w.depth = w.published();
                w.producers[p].pc = match flaw {
                    Flaw::PublishAfterUnlock => ProdPc::Notify,
                    _ => ProdPc::Unlock,
                };
            }
            ProdPc::Unlock => {
                w.locked = false;
                w.producers[p].pc = match flaw {
                    Flaw::PublishAfterUnlock => ProdPc::Publish,
                    _ => ProdPc::Notify,
                };
            }
            ProdPc::Notify => {
                call_returns(&mut w);
                if was.wake && self.asleep().next().is_some() {
                    // `notify_one` wakes any one sleeper.
                    return self
                        .asleep()
                        .map(|c| {
                            let mut w = w.clone();
                            w.consumers[c].pc = ConsPc::Reacquire;
                            w
                        })
                        .collect();
                }
            }
            ProdPc::Done => return vec![],
        }
        vec![w]
    }

    /// The top of `pop_batch`'s loop, lock in hand.
    fn recheck(&mut self) -> ConsPc {
        if !self.items.is_empty() {
            let n = self.items.len().min(BATCH_MAX);
            self.popped.extend(self.items.drain(..n));
            ConsPc::PublishPop
        } else if self.closed {
            ConsPc::UnlockClosed
        } else {
            ConsPc::TryToken
        }
    }

    /// `parked += 1; readable.wait(inner)`: counted, unlocked and asleep
    /// in one step — the condvar's guarantee.
    fn park(&mut self) -> ConsPc {
        self.parked += 1;
        self.locked = false;
        ConsPc::Waiting
    }

    fn step_consumer(&self, c: usize, flaw: Flaw) -> Vec<World> {
        let mut w = self.clone();
        let was = &self.consumers[c];
        let next = match was.pc {
            ConsPc::LockAndCheck => {
                if self.locked {
                    return vec![];
                }
                w.locked = true;
                w.recheck()
            }
            ConsPc::PublishPop => {
                w.depth = w.published();
                ConsPc::UnlockPop
            }
            ConsPc::UnlockPop => {
                // `return Some(batch)`; the worker loop calls `pop_batch`
                // again.
                w.locked = false;
                w.consumers[c].may_spin = true;
                ConsPc::LockAndCheck
            }
            ConsPc::UnlockClosed => {
                w.locked = false;
                ConsPc::Done
            }
            ConsPc::TryToken => {
                if was.may_spin && !w.token {
                    w.token = true;
                    w.consumers[c].holds_token = true;
                    w.consumers[c].may_spin = false;
                    ConsPc::UnlockToSpin
                } else {
                    w.park()
                }
            }
            ConsPc::UnlockToSpin => {
                w.locked = false;
                ConsPc::Poll
            }
            ConsPc::Poll => {
                w.consumers[c].polls += 1;
                if w.depth == 0 && was.polls + 1 < MAX_POLLS {
                    // Nothing yet: poll again — or the budget ran out here.
                    let mut gave_up = w.clone();
                    gave_up.consumers[c].pc = ConsPc::GiveBack;
                    return vec![w, gave_up];
                }
                ConsPc::GiveBack
            }
            ConsPc::GiveBack => {
                w.token = false;
                w.consumers[c].holds_token = false;
                w.consumers[c].polls = 0;
                match flaw {
                    Flaw::ParkWithoutRecheck => ConsPc::LockAndPark,
                    _ => ConsPc::LockAndCheck,
                }
            }
            ConsPc::LockAndPark => {
                if self.locked {
                    return vec![];
                }
                w.park()
            }
            ConsPc::Waiting | ConsPc::Done => return vec![],
            ConsPc::Reacquire => {
                if self.locked {
                    return vec![];
                }
                w.locked = true;
                w.parked -= 1;
                w.consumers[c].may_spin = true;
                w.recheck()
            }
        };
        w.consumers[c].pc = next;
        vec![w]
    }

    fn step_closer(&self) -> Vec<World> {
        let mut w = self.clone();
        let next = match self.closer {
            None | Some(ClosePc::Done) => return vec![],
            Some(ClosePc::LockAndSetClosed) => {
                if self.locked {
                    return vec![];
                }
                w.locked = true;
                w.closed = true;
                ClosePc::Publish
            }
            Some(ClosePc::Publish) => {
                w.depth = w.published();
                ClosePc::Unlock
            }
            Some(ClosePc::Unlock) => {
                w.locked = false;
                ClosePc::NotifyAll
            }
            Some(ClosePc::NotifyAll) => {
                for c in self.asleep() {
                    w.consumers[c].pc = ConsPc::Reacquire;
                }
                ClosePc::Done
            }
        };
        w.closer = Some(next);
        vec![w]
    }

    fn successors(&self, flaw: Flaw) -> Vec<World> {
        let mut next = Vec::new();
        for p in 0..self.producers.len() {
            next.extend(self.step_producer(p, flaw));
        }
        for c in 0..self.consumers.len() {
            next.extend(self.step_consumer(c, flaw));
        }
        next.extend(self.step_closer());
        next
    }

    /// The invariants of every reachable state.
    fn check(&self) -> Result<(), String> {
        let holders = self.consumers.iter().filter(|c| c.holds_token);
        if self.token != (holders.clone().count() == 1) || holders.clone().count() > 1 {
            return Err(format!("token {}: {:?}", self.token, self.consumers));
        }
        for holder in holders {
            let pc = holder.pc;
            if !matches!(pc, ConsPc::UnlockToSpin | ConsPc::Poll | ConsPc::GiveBack) {
                return Err(format!("a consumer holds the token at {pc:?}"));
            }
        }
        if !self.locked && self.depth != self.published() {
            return Err(format!(
                "lock free, depth reads {:#x}, queue holds {:#x}",
                self.depth,
                self.published()
            ));
        }
        if !self.pushed.starts_with(&self.popped) {
            return Err(format!(
                "popped {:?} is not a prefix of pushed {:?}",
                self.popped, self.pushed
            ));
        }
        // A queued item, every live consumer asleep, and nobody left who
        // will notify: only a later push (or close) could rescue it.
        let notifier_coming =
            self.producers.iter().any(|p| {
                p.wake && matches!(p.pc, ProdPc::Publish | ProdPc::Unlock | ProdPc::Notify)
            }) || matches!(self.closer, Some(pc) if pc != ClosePc::Done);
        let someone_awake = self
            .consumers
            .iter()
            .any(|c| !matches!(c.pc, ConsPc::Waiting | ConsPc::Done));
        if !self.items.is_empty() && !someone_awake && !notifier_coming {
            return Err(format!("lost wake-up: {:?} queued", self.items));
        }
        Ok(())
    }

    /// What must hold once no thread can move.
    fn check_end(&self) -> Result<(), String> {
        if self.producers.iter().any(|p| p.pc != ProdPc::Done)
            || matches!(self.closer, Some(pc) if pc != ClosePc::Done)
        {
            return Err("a producer or the closer is stuck".to_string());
        }
        if self.popped != self.pushed {
            return Err(format!(
                "pushed {:?}, popped {:?}, {:?} left queued",
                self.pushed, self.popped, self.items
            ));
        }
        let everyone_is = |pc| self.consumers.iter().all(|c| c.pc == pc);
        if self.closer.is_some() {
            if !everyone_is(ConsPc::Done) {
                return Err("a consumer did not return after close".to_string());
            }
        } else if !everyone_is(ConsPc::Waiting) || self.parked != self.consumers.len() || self.token
        {
            return Err(format!(
                "idle, yet not everyone is parked: parked {} token {}",
                self.parked, self.token
            ));
        }
        Ok(())
    }
}

/// No walk may hold more states than this (the largest scenario below is
/// under half of it): a model edit that explodes fails here, not in the
/// machine's memory.
const MAX_STATES: usize = 300_000;

/// Walks every state reachable from `start`; returns how many there are,
/// or the first violation.
fn explore(start: World, flaw: Flaw) -> Result<usize, String> {
    let mut seen = HashSet::new();
    let mut stack = vec![start];
    while let Some(mut world) = stack.pop() {
        world.consumers.sort_unstable();
        if seen.contains(&world) {
            continue;
        }
        world.check()?;
        let next = world.successors(flaw);
        if next.is_empty() {
            world.check_end()?;
        }
        stack.extend(next);
        seen.insert(world);
        if seen.len() > MAX_STATES {
            return Err(format!("more than {MAX_STATES} states"));
        }
    }
    Ok(seen.len())
}

/// Every way up to three pushes split over up to three producers — closed
/// under dropping the last push, so each push is some scenario's last.
const PUSHES: [&[&[u8]]; 7] = [
    &[],
    &[&[1]],
    &[&[1, 2]],
    &[&[1], &[2]],
    &[&[1, 2, 3]],
    &[&[1, 2], &[3]],
    &[&[1], &[2], &[3]],
];

/// Walks every push pattern against one to three consumers, up to five
/// threads in all (beyond that the state count only multiplies); returns
/// the number of states seen.
fn walk_all(closer: bool) -> usize {
    let mut states = 0;
    for pushes in PUSHES {
        for consumers in 1..=3 {
            if pushes.len() + consumers > 5 {
                continue;
            }
            states += explore(World::new(pushes, consumers, closer), Flaw::None)
                .unwrap_or_else(|e| panic!("{pushes:?} × {consumers} consumers: {e}"));
        }
    }
    states
}

#[test]
fn no_interleaving_loses_a_wake_up_or_reorders_or_shares_the_token() {
    let states = walk_all(false);
    // Not vacuous: the walk is a hundred thousand distinct states.
    assert!(states > 50_000, "only {states} states walked");
}

#[test]
fn close_drains_everything_under_every_interleaving() {
    let states = walk_all(true);
    assert!(states > 200_000, "only {states} states walked");
}

#[test]
fn the_model_catches_a_park_without_the_recheck() {
    // One push, one consumer is enough: the item lands while the consumer
    // is between its last poll and the lock.
    let err = explore(World::new(&[&[1]], 1, false), Flaw::ParkWithoutRecheck)
        .expect_err("a lost wake-up must be found");
    assert!(err.contains("lost wake-up"), "{err}");
}

#[test]
fn the_model_catches_a_depth_published_after_the_unlock() {
    let err = explore(World::new(&[&[1]], 1, false), Flaw::PublishAfterUnlock)
        .expect_err("a stale depth must be found");
    assert!(err.contains("depth reads"), "{err}");
}
