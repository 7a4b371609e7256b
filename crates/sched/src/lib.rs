//! `flock-sched` — a deterministic discrete-event executor on virtual time.
//!
//! This is the continuous monitor's executor: each round, `flock-monitor`
//! runs one checker task per due instance here. A check is a pure function
//! of the virtual instant it was scheduled for, so the monitor needs an
//! executor whose event order never depends on thread timing. (The §3
//! crawl does not run here: its rate-limited requests block on the
//! crawler's worker pool and move the shared clock themselves.) The
//! executor is the classic discrete-event loop:
//!
//! * **Logical tasks** ([`Task`]) are plain state machines — no async
//!   runtime, no boxed futures. Each `poll` runs the task until it either
//!   finishes ([`Step::Done`]), wants to be polled again in the same
//!   virtual instant ([`Step::Ready`]), or parks itself until a virtual
//!   deadline ([`Step::Wait`]).
//! * **The event queue** is a binary heap of `(virtual_time, seq, task)`
//!   entries. `seq` is a monotonically increasing tie-breaker assigned in
//!   deterministic order, so two events at the same instant always fire
//!   in the order they were scheduled — never in thread-race order.
//! * **The clock only moves when the ready set is empty.** While any task
//!   is `Ready`, the executor drains the batch; once nothing can run at
//!   the current instant, the clock jumps to the earliest pending event
//!   ([`Clock::advance_to`]) and every event now due joins the next
//!   batch. The seconds the clock actually moved are charged — exactly
//!   once, to the first event in `(time, seq)` order — through the
//!   caller's `charge` hook, which is how the monitor keeps its
//!   "Σ wait buckets + work = phase duration" identity.
//! * **A small OS-thread pool** (≤ the configured thread count) polls the
//!   batch concurrently: workers claim batch *positions* off an atomic
//!   cursor, results are folded back in batch order by a single
//!   coordinator between two barrier points. Every scheduling decision —
//!   admission order, event order, charge attribution — is made from
//!   position-sorted data, so a 1-thread and an 8-thread run produce the
//!   same event sequence by construction.
//!
//! The admission **window** bounds how many tasks are live at once
//! (`repro --monitor --tasks`): with `n` inputs and a window of `w`,
//! at most `w` tasks are in flight and a completion admits the next
//! input, in input order.
//!
//! All deadline arithmetic saturates: a task may legitimately park itself
//! at `u64::MAX` (a pathological Retry-After) and the clock pins there
//! instead of wrapping around.

pub mod explore;

use flock_core::{FlockError, Result};
use flock_obs::trace;
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;

/// The virtual clock the executor schedules against. `advance_to` must be
/// a `max` (never move backwards) and must return the seconds actually
/// applied, so waits can be charged exactly once across racers.
pub trait Clock: Sync {
    /// Current virtual time in seconds.
    fn now(&self) -> u64;
    /// Advance to at least `deadline_secs`; returns the seconds the clock
    /// actually moved (zero when already past the deadline).
    fn advance_to(&self, deadline_secs: u64) -> u64;
}

/// A plain atomic virtual clock — the reference [`Clock`] used by tests
/// and benches that do not schedule against a full API server.
#[derive(Debug, Default)]
pub struct AtomicClock(AtomicU64);

impl AtomicClock {
    /// A clock starting at `start_secs`.
    pub fn new(start_secs: u64) -> AtomicClock {
        AtomicClock(AtomicU64::new(start_secs))
    }
}

impl Clock for AtomicClock {
    fn now(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }

    fn advance_to(&self, deadline_secs: u64) -> u64 {
        let prev = self.0.fetch_max(deadline_secs, Ordering::SeqCst);
        deadline_secs.saturating_sub(prev)
    }
}

/// What a task wants after one poll.
#[derive(Debug)]
pub enum Step<B> {
    /// Park until the virtual clock reaches `until`. When the event
    /// fires, the seconds the clock moved for it are charged to `bill`
    /// through the executor's charge hook (zero for every event after the
    /// first at a given instant — the wait was already paid).
    Wait {
        /// Absolute virtual deadline in seconds.
        until: u64,
        /// Attribution payload handed back at fire time.
        bill: B,
    },
    /// Poll again in the current batch, at the same virtual instant.
    Ready,
    /// The task has produced its output and will not be polled again.
    Done,
}

/// A lightweight logical task: an explicit state machine polled by the
/// executor. Implementations typically hold their partial output and
/// whatever cursor/retry state a blocking implementation would keep on
/// its stack.
pub trait Task: Send {
    /// Attribution payload carried by [`Step::Wait`] events.
    type Bill: Send;
    /// Run until the next yield point. `now` is the current virtual time.
    fn poll(&mut self, now: u64) -> Step<Self::Bill>;
}

/// The discrete-event executor: a fixed OS-thread count and an admission
/// window for logical tasks.
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    threads: usize,
    window: usize,
}

impl Executor {
    /// An executor multiplexing up to `window` live logical tasks over
    /// `threads` OS threads. Both must be at least 1 — a zero is a typed
    /// configuration error, not a silent clamp.
    pub fn new(threads: usize, window: usize) -> Result<Executor> {
        if threads == 0 {
            return Err(FlockError::InvalidConfig(
                "scheduler needs at least one OS thread (threads = 0)".to_string(),
            ));
        }
        if window == 0 {
            return Err(FlockError::InvalidConfig(
                "scheduler admission window must be at least one logical task (tasks = 0)"
                    .to_string(),
            ));
        }
        Ok(Executor { threads, window })
    }

    /// OS threads this executor polls with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Admission window (maximum live logical tasks).
    pub fn window(&self) -> usize {
        self.window
    }

    /// Drive every task to [`Step::Done`] and hand the tasks back (their
    /// outputs live inside them). `charge` is invoked at event-fire time
    /// with each fired bill and the seconds of clock movement attributed
    /// to it; the sum of charged seconds equals the total clock movement.
    pub fn run<S, C, F>(&self, clock: &C, tasks: Vec<S>, charge: F) -> Vec<S>
    where
        S: Task,
        C: Clock,
        F: Fn(&S::Bill, u64) + Sync,
    {
        let n = tasks.len();
        if n == 0 {
            return tasks;
        }
        let threads = self.threads.min(n);
        let slots: Vec<Mutex<S>> = tasks.into_iter().map(Mutex::new).collect();
        let mut engine = Engine::new(n, self.window);
        engine.admit();
        let shared = Shared {
            engine: Mutex::new(engine),
            results: Mutex::new(Vec::new()),
            cursor: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            barrier: Barrier::new(threads),
        };
        crossbeam::scope(|scope| {
            for slot in 1..threads {
                let shared = &shared;
                let slots = &slots;
                let charge = &charge;
                scope.spawn(move |_| drive(slot, shared, slots, clock, charge));
            }
            // The calling thread is worker 0, so a 1-thread executor runs
            // fully inline — the serial and parallel paths are the same
            // code, which is what makes cross-thread-count determinism an
            // argument instead of a hope.
            drive(0, &shared, &slots, clock, &charge);
        })
        // flock-lint: allow(panic) a panicked task has poisoned the schedule; re-raise on the coordinator
        .expect("scheduler worker panicked");
        slots.into_iter().map(Mutex::into_inner).collect()
    }
}

/// Event-queue bookkeeping, owned by whichever thread is the coordinator
/// between rounds (the lock is uncontended there; workers only read the
/// prepared batch).
struct Engine<B> {
    /// Pending events: `Reverse((virtual_time, seq, task_index))` — a
    /// min-heap popping earliest time first, sequence order within a time.
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    /// Attribution payload for each parked task.
    bills: Vec<Option<B>>,
    /// Monotone tie-breaker, assigned in deterministic batch order.
    seq: u64,
    /// Next input index not yet admitted.
    next_admit: usize,
    /// Admitted and not yet `Done`.
    live: usize,
    window: usize,
    n: usize,
    /// Task indexes to poll this round.
    batch: Vec<usize>,
}

impl<B> Engine<B> {
    fn new(n: usize, window: usize) -> Engine<B> {
        Engine {
            heap: BinaryHeap::new(),
            bills: (0..n).map(|_| None).collect(),
            seq: 0,
            next_admit: 0,
            live: 0,
            window,
            n,
            batch: Vec::new(),
        }
    }

    /// Top the live set up to the window, in input order.
    fn admit(&mut self) {
        while self.live < self.window && self.next_admit < self.n {
            self.batch.push(self.next_admit);
            self.next_admit += 1;
            self.live += 1;
        }
    }

    /// Fold one poll result back in, in deterministic order. `Ready`
    /// tasks go to `next` (the front of the next batch).
    fn apply(&mut self, idx: usize, step: Step<B>, next: &mut Vec<usize>) {
        match step {
            Step::Wait { until, bill } => {
                self.seq += 1;
                self.bills[idx] = Some(bill);
                self.heap.push(Reverse((until, self.seq, idx)));
            }
            Step::Ready => next.push(idx),
            Step::Done => self.live -= 1,
        }
    }

    /// The ready set is empty: advance the clock to the earliest pending
    /// event and move everything now due into the batch. The first fired
    /// event (in `(time, seq)` order) is charged the full clock movement;
    /// the rest were waiting on an instant someone else already paid for
    /// and are charged zero.
    fn fire<C: Clock, F: Fn(&B, u64)>(&mut self, clock: &C, charge: &F) {
        let Some(&Reverse((first, _, _))) = self.heap.peek() else {
            return;
        };
        let mut applied = clock.advance_to(first);
        let now = clock.now();
        while let Some(&Reverse((t, _, idx))) = self.heap.peek() {
            if t > now {
                break;
            }
            self.heap.pop();
            if let Some(bill) = self.bills[idx].take() {
                charge(&bill, applied);
            }
            applied = 0;
            self.batch.push(idx);
        }
    }
}

struct Shared<B> {
    engine: Mutex<Engine<B>>,
    /// `(batch_position, task_index, step)` for the round in flight.
    results: Mutex<Vec<(usize, usize, Step<B>)>>,
    /// Next unclaimed batch position.
    cursor: AtomicUsize,
    stop: AtomicBool,
    barrier: Barrier,
}

/// One worker's round loop: batch-poll between two barrier points; the
/// barrier leader folds results back into the engine before releasing the
/// next round.
fn drive<S, C, F>(slot: usize, shared: &Shared<S::Bill>, slots: &[Mutex<S>], clock: &C, charge: &F)
where
    S: Task,
    C: Clock,
    F: Fn(&S::Bill, u64) + Sync,
{
    let _worker = trace::worker_scope(slot);
    loop {
        shared.barrier.wait();
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let batch: Vec<usize> = shared.engine.lock().batch.clone();
        loop {
            let pos = shared.cursor.fetch_add(1, Ordering::SeqCst);
            if pos >= batch.len() {
                break;
            }
            let idx = batch[pos];
            let step = {
                let mut task = slots[idx].lock();
                // The task flag travels with the poll, not the thread:
                // API layers consult it to treat simulated latency as a
                // virtual-time event instead of a real sleep.
                let _task = trace::task_scope();
                task.poll(clock.now())
            };
            shared.results.lock().push((pos, idx, step));
        }
        if shared.barrier.wait().is_leader() {
            coordinate(shared, clock, charge);
        }
    }
}

/// Exactly one thread runs this between the round-end barrier and the
/// next round-start barrier: fold the round's results back in batch
/// order, admit, and — if nothing is ready — fire the event queue.
fn coordinate<B, C, F>(shared: &Shared<B>, clock: &C, charge: &F)
where
    C: Clock,
    F: Fn(&B, u64) + Sync,
{
    let mut engine = shared.engine.lock();
    let mut results = std::mem::take(&mut *shared.results.lock());
    // Completion order is thread noise; batch position is the contract.
    results.sort_by_key(|&(pos, _, _)| pos);
    engine.batch.clear();
    let mut next: Vec<usize> = Vec::new();
    for (_, idx, step) in results {
        engine.apply(idx, step, &mut next);
    }
    engine.batch = next;
    engine.admit();
    if engine.batch.is_empty() {
        engine.fire(clock, charge);
    }
    if engine.batch.is_empty() {
        shared.stop.store(true, Ordering::SeqCst);
    }
    shared.cursor.store(0, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A scripted task: `readies` Ready yields, then one Wait per entry
    /// of `waits` (relative to the clock at poll time), then Done.
    struct Scripted {
        id: usize,
        readies: usize,
        waits: Vec<u64>,
        at: usize,
        polls: usize,
        finished_at: Option<u64>,
    }

    impl Scripted {
        fn new(id: usize, readies: usize, waits: Vec<u64>) -> Scripted {
            Scripted {
                id,
                readies,
                waits,
                at: 0,
                polls: 0,
                finished_at: None,
            }
        }
    }

    impl Task for Scripted {
        type Bill = usize;
        fn poll(&mut self, now: u64) -> Step<usize> {
            self.polls += 1;
            if self.readies > 0 {
                self.readies -= 1;
                return Step::Ready;
            }
            if self.at < self.waits.len() {
                let until = now.saturating_add(self.waits[self.at]);
                self.at += 1;
                return Step::Wait {
                    until,
                    bill: self.id,
                };
            }
            self.finished_at = Some(now);
            Step::Done
        }
    }

    fn charges_of(threads: usize, window: usize, specs: &[(usize, Vec<u64>)]) -> Vec<(usize, u64)> {
        let clock = AtomicClock::new(0);
        let tasks: Vec<Scripted> = specs
            .iter()
            .enumerate()
            .map(|(id, (readies, waits))| Scripted::new(id, *readies, waits.clone()))
            .collect();
        let log = Mutex::new(Vec::new());
        let ex = Executor::new(threads, window).expect("valid executor");
        let done = ex.run(&clock, tasks, |bill, applied| {
            log.lock().push((*bill, applied));
        });
        assert!(done.iter().all(|t| t.finished_at.is_some()));
        log.into_inner()
    }

    #[test]
    fn zero_threads_or_window_is_a_typed_error() {
        assert!(matches!(
            Executor::new(0, 16),
            Err(FlockError::InvalidConfig(_))
        ));
        assert!(matches!(
            Executor::new(4, 0),
            Err(FlockError::InvalidConfig(_))
        ));
        assert!(Executor::new(1, 1).is_ok());
    }

    #[test]
    fn empty_task_set_is_a_no_op() {
        let clock = AtomicClock::new(7);
        let ex = Executor::new(4, 16).expect("valid executor");
        let out: Vec<Scripted> = ex.run(&clock, Vec::new(), |_, _| {});
        assert!(out.is_empty());
        assert_eq!(clock.now(), 7);
    }

    #[test]
    fn clock_advances_to_earliest_event_and_charges_the_first_firer() {
        // Task 0 parks at t=20, task 1 at t=10: the clock must visit 10
        // first (charging 10s to task 1), then 20 (charging 10s to task 0).
        let log = charges_of(1, 16, &[(0, vec![20]), (0, vec![10])]);
        assert_eq!(log, vec![(1, 10), (0, 10)]);
    }

    #[test]
    fn simultaneous_events_fire_in_seq_order_and_pay_once() {
        // Three tasks park at the same instant: exactly one pays the wait.
        let log = charges_of(1, 16, &[(0, vec![30]), (0, vec![30]), (0, vec![30])]);
        assert_eq!(log, vec![(0, 30), (1, 0), (2, 0)]);
    }

    #[test]
    fn ready_tasks_run_before_the_clock_moves() {
        let clock = AtomicClock::new(0);
        let tasks = vec![Scripted::new(0, 5, vec![]), Scripted::new(1, 0, vec![1000])];
        let ex = Executor::new(2, 16).expect("valid executor");
        let done = ex.run(&clock, tasks, |_, _| {});
        // Task 0 yielded Ready five times and finished without the clock
        // moving past task 1's park point.
        assert_eq!(done[0].polls, 6);
        assert_eq!(done[0].finished_at, Some(0));
        assert_eq!(clock.now(), 1000);
    }

    #[test]
    fn charges_are_identical_across_thread_counts() {
        let specs: Vec<(usize, Vec<u64>)> = (0..50)
            .map(|i| (i % 3, vec![(i as u64 * 37) % 200, (i as u64 * 11) % 90]))
            .collect();
        let serial = charges_of(1, 8, &specs);
        for threads in [2, 4, 8] {
            assert_eq!(charges_of(threads, 8, &specs), serial, "threads={threads}");
        }
        // Window size changes the virtual timeline (later admissions park
        // later), but never the identity: charged seconds sum exactly to
        // the clock movement of the run, at any window and thread count.
        for window in [1, 3, 50] {
            let clock = AtomicClock::new(0);
            let tasks: Vec<Scripted> = specs
                .iter()
                .enumerate()
                .map(|(id, (readies, waits))| Scripted::new(id, *readies, waits.clone()))
                .collect();
            let charged = AtomicU64::new(0);
            let ex = Executor::new(4, window).expect("valid executor");
            ex.run(&clock, tasks, |_, applied| {
                charged.fetch_add(applied, Ordering::SeqCst);
            });
            assert_eq!(
                charged.load(Ordering::SeqCst),
                clock.now(),
                "window={window}"
            );
        }
    }

    #[test]
    fn admission_window_bounds_live_tasks() {
        struct Counting<'a> {
            live: &'a AtomicUsize,
            peak: &'a AtomicUsize,
            started: bool,
            waits: usize,
        }
        impl Task for Counting<'_> {
            type Bill = ();
            fn poll(&mut self, now: u64) -> Step<()> {
                if !self.started {
                    self.started = true;
                    let l = self.live.fetch_add(1, Ordering::SeqCst) + 1;
                    self.peak.fetch_max(l, Ordering::SeqCst);
                }
                if self.waits > 0 {
                    self.waits -= 1;
                    return Step::Wait {
                        until: now + 5,
                        bill: (),
                    };
                }
                self.live.fetch_sub(1, Ordering::SeqCst);
                Step::Done
            }
        }
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let tasks: Vec<Counting> = (0..100)
            .map(|i| Counting {
                live: &live,
                peak: &peak,
                started: false,
                waits: 1 + i % 3,
            })
            .collect();
        let clock = AtomicClock::new(0);
        let ex = Executor::new(4, 7).expect("valid executor");
        ex.run(&clock, tasks, |_, _| {});
        assert_eq!(live.load(Ordering::SeqCst), 0);
        assert!(
            peak.load(Ordering::SeqCst) <= 7,
            "window exceeded: {}",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn deadlines_near_u64_max_saturate_and_terminate() {
        // One task parks at u64::MAX, another at MAX-5: the clock pins at
        // MAX, charges sum to exactly MAX, and the run terminates.
        let log = charges_of(2, 16, &[(0, vec![u64::MAX]), (0, vec![u64::MAX - 5])]);
        let total: u64 = log.iter().map(|&(_, a)| a).sum();
        assert_eq!(total, u64::MAX);
        // A task that parks *again* at MAX from a clock already at MAX
        // still fires (zero movement) instead of hanging.
        let log2 = charges_of(1, 4, &[(0, vec![u64::MAX, u64::MAX, 10])]);
        let total2: u64 = log2.iter().map(|&(_, a)| a).sum();
        assert_eq!(total2, u64::MAX);
        assert_eq!(log2.len(), 3);
    }

    #[test]
    fn worker_slots_are_visible_to_tasks() {
        struct SlotProbe {
            seen: Option<usize>,
            scheduled: bool,
        }
        impl Task for SlotProbe {
            type Bill = ();
            fn poll(&mut self, _now: u64) -> Step<()> {
                self.seen = trace::current_worker();
                self.scheduled = trace::in_scheduled_task();
                Step::Done
            }
        }
        let clock = AtomicClock::new(0);
        let tasks: Vec<SlotProbe> = (0..32)
            .map(|_| SlotProbe {
                seen: None,
                scheduled: false,
            })
            .collect();
        let ex = Executor::new(4, 32).expect("valid executor");
        let done = ex.run(&clock, tasks, |_, _| {});
        assert!(done.iter().all(|t| matches!(t.seen, Some(w) if w < 4)));
        assert!(done.iter().all(|t| t.scheduled));
        // The flag does not leak outside the run.
        assert!(!trace::in_scheduled_task());
        assert_eq!(trace::current_worker(), None);
    }
}
