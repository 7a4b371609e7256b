//! A loom-lite bounded model checker for the discrete-event executor.
//!
//! [`crate::Executor`] is deterministic *by construction*: admission
//! order, batch order, and charge attribution are all derived from
//! position-sorted data, and ties in the event queue break on a `seq`
//! assigned in deterministic order. The one place that determinism is a
//! *policy choice* rather than a law of the queue is a **tied batch**:
//! several events parked at the same virtual instant all fire together,
//! and the executor orders them by `seq`. Code driven by the executor
//! must therefore produce Data-tier output that does not depend on that
//! ordering — a task set whose artifact changes when two same-instant
//! events swap is scheduler-order-sensitive, which is exactly the class
//! of bug the two-tier contract forbids.
//!
//! This module checks that property exhaustively for small models. The
//! serial engine here mirrors the executor's loop — admission window,
//! ready-batch draining, clock advance to the earliest pending event,
//! first-fired-pays charging — but treats every tied batch of `k > 1`
//! events as a branch point and enumerates all `k!` orderings (Lehmer
//! decoding of a per-branch decision index, DFS over decision prefixes,
//! re-running the model from scratch for each schedule). Across every
//! schedule it asserts:
//!
//! 1. the model's **observed artifact** (its Data-tier bytes) is
//!    byte-identical to the first schedule's;
//! 2. **Σ charged seconds == total clock movement** — the "Σ wait
//!    buckets + work = duration" identity survives any tie order;
//! 3. the **final virtual clock** is identical across schedules.
//!
//! Ties wider than [`MAX_TIED`] are refused rather than sampled: a
//! truncated exploration that claims exhaustiveness would be worse than
//! an honest error.
//!
//! The models CI explores — tied retry deadlines, a canonicalized shared
//! log, windowed admission, and a last-writer-wins counter-model the
//! explorer must catch — are this crate's `tests/race_models.rs`, run as
//! `cargo test -p flock-sched --test race_models`.

use crate::{Step, Task};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Widest tied batch the explorer will permute (8! = 40 320 schedules
/// from a single branch point).
pub const MAX_TIED: usize = 8;

/// Result of an exhaustive exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Schedules actually run (product of `k!` over branch points when
    /// not truncated).
    pub schedules: u64,
    /// Branch points (tied batches with more than one event) in a run.
    pub branch_points: usize,
    /// Widest tie encountered.
    pub max_tied: usize,
    /// True when `max_schedules` stopped the exploration early.
    pub truncated: bool,
}

/// Why an exploration failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExploreError {
    /// A tied batch exceeded [`MAX_TIED`]; the model is too wide to
    /// enumerate exhaustively.
    TooManyTied { tied: usize },
    /// A schedule produced different Data-tier bytes than schedule 0.
    /// `decisions` reproduces the offending schedule.
    ArtifactDivergence {
        schedule: u64,
        decisions: Vec<usize>,
    },
    /// Charged seconds did not sum to the clock movement of the run.
    ChargeLeak {
        schedule: u64,
        charged: u64,
        moved: u64,
    },
    /// A schedule ended at a different virtual time than schedule 0.
    ClockDivergence {
        schedule: u64,
        baseline: u64,
        got: u64,
    },
}

impl std::fmt::Display for ExploreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreError::TooManyTied { tied } => write!(
                f,
                "tied batch of {tied} events exceeds the exhaustive cap of {MAX_TIED}"
            ),
            ExploreError::ArtifactDivergence {
                schedule,
                decisions,
            } => write!(
                f,
                "Data-tier artifact diverged at schedule {schedule} \
                 (tie-order decisions {decisions:?}): output depends on \
                 same-instant event ordering"
            ),
            ExploreError::ChargeLeak {
                schedule,
                charged,
                moved,
            } => write!(
                f,
                "schedule {schedule} charged {charged}s for {moved}s of clock \
                 movement; the wait-accounting identity is broken"
            ),
            ExploreError::ClockDivergence {
                schedule,
                baseline,
                got,
            } => write!(
                f,
                "schedule {schedule} finished at t={got}, schedule 0 at \
                 t={baseline}: total duration depends on tie ordering"
            ),
        }
    }
}

impl std::error::Error for ExploreError {}

/// Exhaustive tie-permutation explorer. `window` mirrors the executor's
/// admission window (values below 1 are treated as 1); `max_schedules`
/// is a backstop against models with many independent branch points.
#[derive(Debug, Clone, Copy)]
pub struct Explorer {
    pub window: usize,
    pub max_schedules: u64,
}

impl Default for Explorer {
    fn default() -> Explorer {
        Explorer {
            window: usize::MAX,
            max_schedules: 250_000,
        }
    }
}

impl Explorer {
    /// Run `make()`'s task set under every tie ordering; `observe`
    /// extracts the Data-tier artifact bytes from the finished tasks.
    pub fn explore<S, Mk, Ob>(&self, mut make: Mk, observe: Ob) -> Result<Outcome, ExploreError>
    where
        S: Task,
        Mk: FnMut() -> Vec<S>,
        Ob: Fn(&[S]) -> Vec<u8>,
    {
        let mut decisions: Vec<usize> = Vec::new();
        let mut schedules = 0u64;
        let mut baseline: Option<(Vec<u8>, u64)> = None;
        let mut branch_points = 0usize;
        let mut max_tied = 0usize;
        loop {
            if schedules >= self.max_schedules {
                return Ok(Outcome {
                    schedules,
                    branch_points,
                    max_tied,
                    truncated: true,
                });
            }
            let mut tasks = make();
            let run = run_one(&mut tasks, self.window, &decisions, true, &mut |_, _| {})?;
            max_tied = max_tied.max(run.max_tied);
            branch_points = branch_points.max(run.arities.len());
            if run.charged != run.clock {
                return Err(ExploreError::ChargeLeak {
                    schedule: schedules,
                    charged: run.charged,
                    moved: run.clock,
                });
            }
            let obs = observe(&tasks);
            match &baseline {
                None => baseline = Some((obs, run.clock)),
                Some((base_obs, base_clock)) => {
                    if *base_clock != run.clock {
                        return Err(ExploreError::ClockDivergence {
                            schedule: schedules,
                            baseline: *base_clock,
                            got: run.clock,
                        });
                    }
                    if *base_obs != obs {
                        let effective: Vec<usize> = (0..run.arities.len())
                            .map(|i| decisions.get(i).copied().unwrap_or(0))
                            .collect();
                        return Err(ExploreError::ArtifactDivergence {
                            schedule: schedules,
                            decisions: effective,
                        });
                    }
                }
            }
            schedules += 1;
            // Odometer step over the decision vector: bump the deepest
            // branch that still has untried orderings, drop everything
            // after it (later branch arities may change under the new
            // prefix and are rediscovered on the re-run).
            let mut ds: Vec<usize> = (0..run.arities.len())
                .map(|i| decisions.get(i).copied().unwrap_or(0))
                .collect();
            let mut advanced = false;
            for i in (0..ds.len()).rev() {
                if ds[i] + 1 < run.arities[i] {
                    ds[i] += 1;
                    ds.truncate(i + 1);
                    advanced = true;
                    break;
                }
            }
            if !advanced {
                return Ok(Outcome {
                    schedules,
                    branch_points,
                    max_tied,
                    truncated: false,
                });
            }
            decisions = ds;
        }
    }
}

/// One serial run in canonical `(time, seq)` tie order — the ordering the
/// real [`crate::Executor`] uses — returning the finished tasks and the
/// final virtual clock. `charge` receives the same bills, in the same
/// order, with the same amounts as `Executor::run` would deliver.
pub fn canonical_run<S: Task>(
    window: usize,
    mut tasks: Vec<S>,
    mut charge: impl FnMut(&S::Bill, u64),
) -> (Vec<S>, u64) {
    // With `enumerate` off no branch is ever taken, so `run_one` cannot
    // fail; the fallback arm is unreachable but safer than an unwrap.
    let clock = match run_one(&mut tasks, window, &[], false, &mut charge) {
        Ok(run) => run.clock,
        Err(_) => 0,
    };
    (tasks, clock)
}

struct RunOut {
    /// Arity (`k!`) of each branch point encountered, in order.
    arities: Vec<usize>,
    charged: u64,
    clock: u64,
    max_tied: usize,
}

/// The serial mirror of the executor loop, with tie ordering decided by
/// `decisions` (Lehmer-decoded permutation indices, one per tied batch).
fn run_one<S, F>(
    tasks: &mut [S],
    window: usize,
    decisions: &[usize],
    enumerate: bool,
    charge: &mut F,
) -> Result<RunOut, ExploreError>
where
    S: Task,
    F: FnMut(&S::Bill, u64),
{
    let n = tasks.len();
    let window = window.max(1);
    let mut heap: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
    let mut bills: Vec<Option<S::Bill>> = (0..n).map(|_| None).collect();
    let mut seq = 0u64;
    let mut next_admit = 0usize;
    let mut live = 0usize;
    let mut clock = 0u64;
    let mut out = RunOut {
        arities: Vec::new(),
        charged: 0,
        clock: 0,
        max_tied: 0,
    };
    let mut batch: Vec<usize> = Vec::new();
    while live < window && next_admit < n {
        batch.push(next_admit);
        next_admit += 1;
        live += 1;
    }
    while !batch.is_empty() {
        let mut next = Vec::new();
        for idx in std::mem::take(&mut batch) {
            match tasks[idx].poll(clock) {
                Step::Wait { until, bill } => {
                    seq += 1;
                    bills[idx] = Some(bill);
                    heap.push(Reverse((until, seq, idx)));
                }
                Step::Ready => next.push(idx),
                Step::Done => live -= 1,
            }
        }
        batch = next;
        while live < window && next_admit < n {
            batch.push(next_admit);
            next_admit += 1;
            live += 1;
        }
        if !batch.is_empty() {
            continue;
        }
        let Some(&Reverse((first, _, _))) = heap.peek() else {
            break;
        };
        let moved = first.saturating_sub(clock);
        clock = clock.max(first);
        // Everything due now fires together; since the clock never passes
        // a pending event, the whole popped set shares one timestamp —
        // this is the tied batch whose order is the legal nondeterminism.
        let mut tied: Vec<usize> = Vec::new();
        while let Some(&Reverse((t, _, idx))) = heap.peek() {
            if t > clock {
                break;
            }
            heap.pop();
            tied.push(idx);
        }
        out.max_tied = out.max_tied.max(tied.len());
        let order = if enumerate && tied.len() > 1 {
            if tied.len() > MAX_TIED {
                return Err(ExploreError::TooManyTied { tied: tied.len() });
            }
            let arity = factorial(tied.len());
            let d = decisions.get(out.arities.len()).copied().unwrap_or(0);
            out.arities.push(arity);
            permutation(&tied, d)
        } else {
            tied
        };
        let mut applied = moved;
        for idx in order {
            if let Some(bill) = bills[idx].take() {
                charge(&bill, applied);
                out.charged += applied;
            }
            applied = 0;
            batch.push(idx);
        }
    }
    out.clock = clock;
    Ok(out)
}

fn factorial(k: usize) -> usize {
    (1..=k).product()
}

/// The `code`-th permutation of `items` in lexicographic order (Lehmer
/// decoding). `code` beyond `k!` clamps rather than indexing out.
fn permutation(items: &[usize], mut code: usize) -> Vec<usize> {
    let mut pool = items.to_vec();
    let mut out = Vec::with_capacity(pool.len());
    for i in (1..=pool.len()).rev() {
        let f = factorial(i - 1);
        let idx = (code / f).min(pool.len().saturating_sub(1));
        code %= f;
        out.push(pool.remove(idx));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AtomicClock, Clock, Executor};
    use parking_lot::Mutex;

    /// The same scripted shape the executor tests use: `readies` Ready
    /// yields, then one Wait per entry (relative deadline), then Done.
    struct Scripted {
        id: usize,
        readies: usize,
        waits: Vec<u64>,
        at: usize,
        finished_at: Option<u64>,
    }

    impl Scripted {
        fn new(id: usize, readies: usize, waits: Vec<u64>) -> Scripted {
            Scripted {
                id,
                readies,
                waits,
                at: 0,
                finished_at: None,
            }
        }
    }

    impl Task for Scripted {
        type Bill = usize;
        fn poll(&mut self, now: u64) -> Step<usize> {
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

    fn specs() -> Vec<(usize, Vec<u64>)> {
        (0..12)
            .map(|i| (i % 3, vec![(i as u64 * 37) % 50, (i as u64 * 11) % 30]))
            .collect()
    }

    #[test]
    fn canonical_run_matches_the_executor() {
        for window in [2, 5, 100] {
            let mk = || -> Vec<Scripted> {
                specs()
                    .into_iter()
                    .enumerate()
                    .map(|(id, (r, w))| Scripted::new(id, r, w))
                    .collect()
            };
            let clock = AtomicClock::new(0);
            let log = Mutex::new(Vec::new());
            let ex = Executor::new(1, window).expect("valid executor");
            let real = ex.run(&clock, mk(), |bill, applied| {
                log.lock().push((*bill, applied));
            });
            let mut model_log = Vec::new();
            let (model, end) = canonical_run(window, mk(), |bill, applied| {
                model_log.push((*bill, applied));
            });
            assert_eq!(model_log, log.into_inner(), "window={window}");
            assert_eq!(end, clock.now(), "window={window}");
            for (a, b) in real.iter().zip(model.iter()) {
                assert_eq!(a.finished_at, b.finished_at, "window={window}");
            }
        }
    }

    #[test]
    fn a_single_tie_enumerates_exactly_k_factorial_schedules() {
        for k in [2usize, 3, 4] {
            let outcome = Explorer::default()
                .explore(
                    || (0..k).map(|id| Scripted::new(id, 0, vec![10])).collect(),
                    |tasks: &[Scripted]| {
                        let mut ids: Vec<usize> = tasks.iter().map(|t| t.id).collect();
                        ids.sort_unstable();
                        format!("{ids:?}").into_bytes()
                    },
                )
                .expect("order-insensitive model");
            assert_eq!(outcome.schedules, factorial(k) as u64, "k={k}");
            assert_eq!(outcome.branch_points, 1);
            assert_eq!(outcome.max_tied, k);
            assert!(!outcome.truncated);
        }
    }

    #[test]
    fn ties_wider_than_the_cap_are_refused() {
        let err = Explorer::default()
            .explore(
                || (0..9).map(|id| Scripted::new(id, 0, vec![5])).collect(),
                |_: &[Scripted]| Vec::new(),
            )
            .expect_err("9-way tie must refuse");
        assert_eq!(err, ExploreError::TooManyTied { tied: 9 });
    }

    #[test]
    fn an_order_sensitive_artifact_is_caught() {
        // The artifact leaks the id of whichever tied task fired last.
        struct LastWriter {
            id: usize,
            slot: std::sync::Arc<Mutex<usize>>,
            parked: bool,
        }
        impl Task for LastWriter {
            type Bill = ();
            fn poll(&mut self, now: u64) -> Step<()> {
                if !self.parked {
                    self.parked = true;
                    return Step::Wait {
                        until: now + 3,
                        bill: (),
                    };
                }
                *self.slot.lock() = self.id;
                Step::Done
            }
        }
        let err = Explorer::default()
            .explore(
                || {
                    let slot = std::sync::Arc::new(Mutex::new(0));
                    (0..3)
                        .map(|id| LastWriter {
                            id,
                            slot: slot.clone(),
                            parked: false,
                        })
                        .collect::<Vec<_>>()
                },
                |tasks: &[LastWriter]| vec![*tasks[0].slot.lock() as u8],
            )
            .expect_err("order-sensitive model must diverge");
        assert!(
            matches!(err, ExploreError::ArtifactDivergence { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn charge_identity_holds_across_all_schedules() {
        // Mixed ties and distinct deadlines; the model is insensitive but
        // every schedule's Σcharges==clock identity is asserted inside.
        let outcome = Explorer::default()
            .explore(
                || {
                    vec![
                        Scripted::new(0, 1, vec![10, 5]),
                        Scripted::new(1, 0, vec![10, 5]),
                        Scripted::new(2, 0, vec![15]),
                        Scripted::new(3, 2, vec![10]),
                    ]
                },
                |tasks: &[Scripted]| {
                    tasks
                        .iter()
                        .flat_map(|t| t.finished_at.unwrap_or(u64::MAX).to_be_bytes().to_vec())
                        .collect()
                },
            )
            .expect("insensitive model");
        assert!(outcome.schedules >= 6, "{outcome:?}");
        assert!(!outcome.truncated);
    }

    #[test]
    fn schedule_cap_truncates_honestly() {
        let outcome = Explorer {
            window: usize::MAX,
            max_schedules: 3,
        }
        .explore(
            || (0..4).map(|id| Scripted::new(id, 0, vec![10])).collect(),
            |_: &[Scripted]| Vec::new(),
        )
        .expect("cap is not an error");
        assert!(outcome.truncated);
        assert_eq!(outcome.schedules, 3);
    }
}
