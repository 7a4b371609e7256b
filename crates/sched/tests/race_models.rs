//! Bounded scheduler models, explored exhaustively.
//!
//! Each model is a small task set run through
//! [`flock_sched::explore::Explorer`], which exhaustively permutes every
//! tied (same-virtual-instant) event batch and asserts the model's
//! Data-tier artifact is byte-identical across all schedules, that
//! Σ charged wait seconds equals the clock movement of every schedule,
//! and that every schedule ends at the same virtual time.
//!
//! The three clean models mirror the shapes the monitor actually runs on
//! the executor — tied retry deadlines, a shared append log canonicalized
//! before output, a narrow admission window — and must stay clean.
//! [`last_writer_wins`] is the deliberately order-sensitive counter-model;
//! the explorer must *catch* it, which is what gives the clean runs their
//! meaning. CI runs this file as its own job:
//! `cargo test -p flock-sched --test race_models`.

use flock_sched::explore::{ExploreError, Explorer, Outcome};
use flock_sched::{Step, Task};
use parking_lot::Mutex;
use std::sync::Arc;

type Explored = Result<Outcome, ExploreError>;

/// A scripted task: `readies` Ready yields, then one Wait per entry
/// (relative deadline), then Done at the current instant.
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

/// Per-task finish times in task-id order — the order-insensitive way to
/// serialize a fan-out's results, mirroring the crawler's fold-by-input
/// -order contract.
fn finish_times(tasks: &[Scripted]) -> Vec<u8> {
    let mut out = Vec::with_capacity(tasks.len() * 8);
    for t in tasks {
        out.extend_from_slice(&t.finished_at.unwrap_or(u64::MAX).to_be_bytes());
    }
    out
}

/// Model 1: five workers back off to the *same* retry deadline (one 5-way
/// tie, 120 schedules), then proceed on distinct schedules.
fn tied_retry_deadlines() -> Explored {
    Explorer::default().explore(
        || {
            (0..5)
                .map(|id| Scripted::new(id, 0, vec![10, 1 + id as u64]))
                .collect::<Vec<_>>()
        },
        finish_times,
    )
}

/// A task that appends `(now, id)` to a shared log at each of two tied
/// wake-ups — the shape of concurrent workers reporting into one dataset.
struct Logger {
    id: usize,
    log: Arc<Mutex<Vec<(u64, usize)>>>,
    rounds: usize,
}

impl Task for Logger {
    type Bill = usize;
    fn poll(&mut self, now: u64) -> Step<usize> {
        if self.rounds > 0 {
            self.rounds -= 1;
            return Step::Wait {
                until: now + 5,
                bill: self.id,
            };
        }
        self.log.lock().push((now, self.id));
        Step::Done
    }
}

/// Model 2: four tasks race their appends into a shared log at the same
/// instant; the artifact sorts the log before rendering — append order is
/// Sched-tier noise, the sorted content is the Data tier.
fn shared_log_canonicalized() -> Explored {
    Explorer::default().explore(
        || {
            let log = Arc::new(Mutex::new(Vec::new()));
            (0..4)
                .map(|id| Logger {
                    id,
                    log: Arc::clone(&log),
                    rounds: 2,
                })
                .collect::<Vec<_>>()
        },
        |tasks: &[Logger]| {
            let mut entries = tasks
                .first()
                .map(|t| t.log.lock().clone())
                .unwrap_or_default();
            entries.sort_unstable();
            let mut out = Vec::with_capacity(entries.len() * 16);
            for (t, id) in entries {
                out.extend_from_slice(&t.to_be_bytes());
                out.extend_from_slice(&(id as u64).to_be_bytes());
            }
            out
        },
    )
}

/// Model 3: six identical tasks through an admission window of two — the
/// monitor's `--tasks` flag shape. Pairwise ties at every round;
/// completion admits the next input in input order.
fn windowed_admission() -> Explored {
    Explorer {
        window: 2,
        ..Explorer::default()
    }
    .explore(
        || {
            (0..6)
                .map(|id| Scripted::new(id, 1, vec![7, 7]))
                .collect::<Vec<_>>()
        },
        finish_times,
    )
}

/// The deliberately order-sensitive counter-model: three tasks wake at
/// one tied instant and each overwrites a shared slot; the artifact
/// exposes the last writer. The explorer must report divergence.
struct LastWriter {
    id: usize,
    slot: Arc<Mutex<usize>>,
    parked: bool,
}

impl Task for LastWriter {
    type Bill = usize;
    fn poll(&mut self, now: u64) -> Step<usize> {
        if !self.parked {
            self.parked = true;
            return Step::Wait {
                until: now + 3,
                bill: self.id,
            };
        }
        *self.slot.lock() = self.id;
        Step::Done
    }
}

/// The counter-model: expected to FAIL with
/// [`ExploreError::ArtifactDivergence`].
fn last_writer_wins() -> Explored {
    Explorer::default().explore(
        || {
            let slot = Arc::new(Mutex::new(usize::MAX));
            (0..3)
                .map(|id| LastWriter {
                    id,
                    slot: Arc::clone(&slot),
                    parked: false,
                })
                .collect::<Vec<_>>()
        },
        |tasks: &[LastWriter]| {
            tasks
                .first()
                .map(|t| (*t.slot.lock() as u64).to_be_bytes().to_vec())
                .unwrap_or_default()
        },
    )
}

#[test]
fn ci_models_are_clean_and_genuinely_branchy() {
    for (name, result) in [
        ("tied-retry-deadlines", tied_retry_deadlines()),
        ("shared-log-canonicalized", shared_log_canonicalized()),
        ("windowed-admission", windowed_admission()),
    ] {
        let outcome = result.unwrap_or_else(|e| panic!("{name} failed: {e}"));
        assert!(!outcome.truncated, "{name} truncated");
        assert!(
            outcome.branch_points >= 1 && outcome.schedules > 1,
            "{name} explored nothing: {outcome:?}"
        );
    }
}

#[test]
fn tied_retry_model_is_exhaustive_at_five_factorial() {
    let outcome = tied_retry_deadlines().expect("clean model");
    assert_eq!(outcome.schedules, 120);
    assert_eq!(outcome.max_tied, 5);
}

#[test]
fn the_sensitive_model_is_caught() {
    let result = last_writer_wins();
    assert!(
        matches!(result, Err(ExploreError::ArtifactDivergence { .. })),
        "{result:?}"
    );
}
