//! Thread-local trace context — the `TraceCtx` glue between the layers.
//!
//! The crawler opens a *logical request* span per API call it makes; the
//! API server, several stack frames below and in a different crate, knows
//! things the crawler cannot see (did the rate-limit rejection come from
//! the token bucket or from an injected Retry-After storm? was the fault
//! a chaos injection or a dead instance?). Threading that
//! information through every endpoint signature would bloat the API
//! surface for the sake of telemetry, so the context rides in
//! thread-locals instead:
//!
//! * the **worker slot** — set by the worker pool on each of its threads,
//!   so spans can attribute work to a worker thread;
//! * the **last attempt's outcome** — written by the API server on every
//!   acquire decision ([`record_attempt`]) and consumed by the crawler
//!   ([`take_attempt`]) right after the call returns: the typed
//!   [`SpanOutcome`] the caller counts on its request's span.
//!
//! Everything here is plain `Cell` state: no wall clock, no ambient RNG,
//! no locks. A thread that never sets the context reads `None` and all
//! instrumentation degrades to no-ops — the server works unchanged when
//! driven by code that does not trace (benches, unit tests).

use std::cell::Cell;

/// Why an attempt failed, when it failed with something other than a
/// rate-limit rejection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// A chaos-plan injected error (counts against the key's budget).
    Injected,
    /// The target instance was down — permanently or inside an outage
    /// window.
    Outage,
    /// Anything else (application-level errors, interrupts).
    Other,
}

/// The typed outcome of one API request attempt:
/// `granted | rate_limited | fault(kind) | stale_cursor`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanOutcome {
    /// The request consumed a token and was served.
    Granted,
    /// Rejected by the rate limiter; `storm` is true when the rejection
    /// was an injected Retry-After storm rather than a genuine empty
    /// token bucket (indistinguishable to callers, distinguished here).
    RateLimited {
        /// Injected by a chaos Retry-After storm.
        storm: bool,
    },
    /// The attempt failed before consuming a token.
    Fault(FaultKind),
    /// Granted, but the pagination cursor pointed past a shrunk result
    /// set.
    StaleCursor,
}

impl SpanOutcome {
    /// Stable label used by exports and reports.
    pub fn label(self) -> &'static str {
        match self {
            SpanOutcome::Granted => "granted",
            SpanOutcome::RateLimited { storm: false } => "rate_limited",
            SpanOutcome::RateLimited { storm: true } => "rate_limited(storm)",
            SpanOutcome::Fault(FaultKind::Injected) => "fault(injected)",
            SpanOutcome::Fault(FaultKind::Outage) => "fault(outage)",
            SpanOutcome::Fault(FaultKind::Other) => "fault(other)",
            SpanOutcome::StaleCursor => "stale_cursor",
        }
    }
}

thread_local! {
    static WORKER: Cell<Option<usize>> = const { Cell::new(None) };
    static LAST_ATTEMPT: Cell<Option<SpanOutcome>> = const { Cell::new(None) };
}

/// Scope guard restoring the previous worker slot on drop.
#[derive(Debug)]
pub struct WorkerGuard {
    prev: Option<usize>,
}

/// Mark this thread as worker `slot` until the guard drops.
pub fn worker_scope(slot: usize) -> WorkerGuard {
    WorkerGuard {
        prev: WORKER.with(|w| w.replace(Some(slot))),
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        WORKER.with(|w| w.set(self.prev));
    }
}

/// The worker slot of the current thread, if inside a [`worker_scope`].
pub fn current_worker() -> Option<usize> {
    WORKER.with(Cell::get)
}

/// Record the typed outcome of the attempt the current thread just made
/// (called by the API layer at the acquire decision).
pub fn record_attempt(outcome: SpanOutcome) {
    LAST_ATTEMPT.with(|a| a.set(Some(outcome)));
}

/// Upgrade the last attempt's outcome to [`SpanOutcome::StaleCursor`]
/// (the grant happened, then pagination found the cursor stale). A no-op
/// when no attempt is pending.
pub fn mark_stale_cursor() {
    LAST_ATTEMPT.with(|a| {
        if a.get().is_some() {
            a.set(Some(SpanOutcome::StaleCursor));
        }
    });
}

/// Take (and clear) the last recorded attempt's outcome. Clearing on
/// read keeps a failed pre-acquire path (e.g. an unknown instance) from
/// replaying the previous request's outcome.
pub fn take_attempt() -> Option<SpanOutcome> {
    LAST_ATTEMPT.with(Cell::take)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_scope_nests_and_restores() {
        assert_eq!(current_worker(), None);
        {
            let _a = worker_scope(3);
            assert_eq!(current_worker(), Some(3));
            {
                let _b = worker_scope(7);
                assert_eq!(current_worker(), Some(7));
            }
            assert_eq!(current_worker(), Some(3));
        }
        assert_eq!(current_worker(), None);
    }

    #[test]
    fn attempts_are_taken_once() {
        record_attempt(SpanOutcome::Granted);
        assert_eq!(take_attempt(), Some(SpanOutcome::Granted));
        assert_eq!(take_attempt(), None);
    }

    #[test]
    fn stale_cursor_upgrades_the_pending_attempt() {
        mark_stale_cursor(); // no pending attempt: no-op
        assert_eq!(take_attempt(), None);
        record_attempt(SpanOutcome::Granted);
        mark_stale_cursor();
        assert_eq!(take_attempt(), Some(SpanOutcome::StaleCursor));
    }

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(SpanOutcome::Granted.label(), "granted");
        assert_eq!(
            SpanOutcome::RateLimited { storm: true }.label(),
            "rate_limited(storm)"
        );
        assert_eq!(
            SpanOutcome::Fault(FaultKind::Outage).label(),
            "fault(outage)"
        );
        assert_eq!(SpanOutcome::StaleCursor.label(), "stale_cursor");
    }
}
