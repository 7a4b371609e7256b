//! Trace vocabulary and the one piece of thread-local context.
//!
//! The crawler and the monitor open one *logical request* span per API
//! call and count every server attempt on it. What an attempt was —
//! granted, rate limited by a token bucket or by an injected Retry-After
//! storm, failed by a chaos injection or a dead instance, or served a
//! stale cursor — is read off the attempt's own `Result` by
//! `flock_apis::server::attempt_outcome`: the server's errors carry
//! everything the typed [`SpanOutcome`] needs, so nothing rides beside
//! them.
//!
//! The **worker slot** is the only ambient context: the worker pool sets
//! it on each of its threads ([`worker_scope`]) so spans can attribute
//! work to a worker without every call signature carrying a slot. It is
//! plain `Cell` state: no wall clock, no ambient RNG, no locks. A thread
//! outside any pool reads `None`.

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
    /// Anything else: an application-level answer such as `NotFound` or
    /// `Forbidden` (also when the request had been granted a token), or
    /// an interrupt.
    Other,
}

/// The typed outcome of one API request attempt:
/// `granted | rate_limited | fault(kind) | stale_cursor`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanOutcome {
    /// The request was served.
    Granted,
    /// Rejected by the rate limiter; `storm` is true when the rejection
    /// was an injected Retry-After storm rather than a genuine empty
    /// token bucket (the error's `storm` bit).
    RateLimited {
        /// Injected by a chaos Retry-After storm.
        storm: bool,
    },
    /// The attempt failed with an error other than a rate limit or a
    /// stale cursor.
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
