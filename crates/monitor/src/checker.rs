//! Checks: one blocking check per due domain, run on the worker pool,
//! which `round_workers` sizes per round: a round of fewer than
//! `2 × MIN_CHECKS_PER_WORKER` checks runs on the calling thread and
//! spawns nothing.
//!
//! A check is the crawler's blocking retry loop pointed at the peers
//! endpoint: the request keeps one span open across its attempts, every
//! server attempt is recorded against it, and every second a wait moves
//! the virtual clock is charged to the same `(span, phase, cause)` bucket
//! `Crawler::request` would charge. What differs is the outcome policy,
//! which must stay **Data-deterministic under scheduled-time semantics**:
//!
//! * `Ok(peers)` → [`CheckOutcome::Alive`] with the discovered peers,
//!   borrowed from the server's peers map.
//! * Rate limits (token bucket or chaos Retry-After storm) → wait the
//!   advertised interval and retry the same check. The retry count is
//!   schedule-dependent; the eventual success is not.
//! * Outages (`InstanceOutage` / `InstanceUnavailable`) →
//!   [`CheckOutcome::Dead`] **immediately**. A monitor never waits out an
//!   outage — "down right now" is exactly the observation it exists to
//!   record; the orchestrator's capped backoff decides when to look
//!   again.
//! * Other retryable errors (chaos error bursts) → bounded transient
//!   retries with a fixed backoff, then [`CheckOutcome::Unreachable`].
//!   Chaos drains its per-key fault budget deterministically, so the
//!   attempt count per check — and therefore the outcome — is a pure
//!   function of the plan and the check's scheduled instant.
//! * Anything else (`NotFound`, `Forbidden`, …) →
//!   [`CheckOutcome::Unreachable`].

use crate::{MonitorConfig, PHASE};
use flock_apis::server::ApiServer;
use flock_core::{worker_pool, FlockError, Result};
use flock_obs::trace::{self, FaultKind, SpanOutcome};
use flock_obs::{Registry, WaitCause};

/// Result of one completed check, folded into the roster by the
/// orchestrator.
#[derive(Debug)]
pub enum CheckOutcome<'a> {
    /// The instance answered; these are its federation peers, borrowed
    /// from the server, so the fold copies only the domains it adds.
    Alive(&'a [String]),
    /// The instance is down (outage window or permanent flag).
    Dead,
    /// Retries exhausted or a non-retryable error.
    Unreachable,
}

/// The open span plus retry state of one in-flight check.
struct ReqState {
    span: u64,
    label: String,
    transient: u32,
}

/// Either wait until `until` (charging the wait to `cause`) and retry, or
/// finish.
enum ReqPoll<'a> {
    Wait { until: u64, cause: WaitCause },
    Done(CheckOutcome<'a>),
}

/// Open the orchestrator's span for the whole monitoring phase. Its id
/// only ever feeds `attribute_wait` and `span_end` — Sched-tier
/// telemetry — so the caller stays Data-clean (declared as a boundary in
/// `tier.manifest`).
pub(crate) fn watch_span(obs: &Registry, start_secs: u64) -> u64 {
    obs.span_begin(PHASE, "orchestrator", None, None, start_secs)
}

/// Open the logical-request span for one check. Boundary fn: the span id
/// and worker slot feed Sched-tier telemetry only; the check's Data-tier
/// outcome is derived solely from the API result.
fn mon_begin(obs: &Registry, api: &ApiServer, domain: &str) -> ReqState {
    let label = format!("peers:{domain}");
    let span = obs.span_begin(PHASE, &label, None, trace::current_worker(), api.now());
    ReqState {
        span,
        label,
        transient: 0,
    }
}

/// One server attempt of an in-flight check, evaluated at the check's
/// scheduled instant `as_of`. Boundary fn: consumes `take_attempt` /
/// `current_worker` for span attribution only; the returned
/// [`CheckOutcome`] is a pure function of the API result sequence, which
/// chaos derives from `(seed, plan, key)` — never from the schedule.
fn mon_attempt<'a>(
    obs: &Registry,
    api: &'a ApiServer,
    cfg: &MonitorConfig,
    st: &mut ReqState,
    domain: &str,
    as_of: u64,
) -> ReqPoll<'a> {
    let before = api.now();
    let r = {
        let _guard = trace::span_scope(st.span);
        api.mastodon_instance_peers(domain, as_of)
    };
    let attempt = trace::take_attempt();
    let outcome = match (&r, attempt) {
        (_, Some(a)) => a.outcome,
        (Ok(_), None) => SpanOutcome::Granted,
        (Err(FlockError::RateLimited { .. }), None) => SpanOutcome::RateLimited { storm: false },
        (Err(FlockError::InstanceOutage { .. }), None)
        | (Err(FlockError::InstanceUnavailable(_)), None) => SpanOutcome::Fault(FaultKind::Outage),
        (Err(_), None) => SpanOutcome::Fault(FaultKind::Other),
    };
    obs.span_attempt(
        st.span,
        PHASE,
        &st.label,
        trace::current_worker(),
        attempt.map(|a| a.family),
        outcome,
        before,
        before,
    );
    let span = st.span;
    let finish = |out: CheckOutcome<'a>| {
        obs.span_end(span, api.now(), outcome);
        ReqPoll::Done(out)
    };
    match r {
        Ok(peers) => finish(CheckOutcome::Alive(peers)),
        Err(FlockError::RateLimited { retry_after_secs }) => {
            let cause = if outcome == (SpanOutcome::RateLimited { storm: true }) {
                WaitCause::RetryAfterStorm
            } else {
                WaitCause::TokenBucket
            };
            ReqPoll::Wait {
                until: before.saturating_add(retry_after_secs),
                cause,
            }
        }
        Err(FlockError::InstanceOutage { .. }) | Err(FlockError::InstanceUnavailable(_)) => {
            finish(CheckOutcome::Dead)
        }
        Err(e) if e.is_retryable() => {
            st.transient += 1;
            if st.transient > cfg.max_transient_retries {
                return finish(CheckOutcome::Unreachable);
            }
            ReqPoll::Wait {
                until: before.saturating_add(cfg.transient_backoff_secs),
                cause: WaitCause::TransientBackoff,
            }
        }
        Err(_) => finish(CheckOutcome::Unreachable),
    }
}

/// One due domain's check as of its scheduled instant `as_of`: attempt,
/// wait out a rate limit or transient backoff on the virtual clock, and
/// retry until the check classifies. The wait is a `max` to the deadline,
/// so only the seconds this call actually moved the clock are charged
/// (another worker may already have paid part of it), which keeps the
/// phase's wait identity exact at any thread count.
fn check<'a>(
    obs: &Registry,
    api: &'a ApiServer,
    cfg: &MonitorConfig,
    domain: &str,
    as_of: u64,
) -> CheckOutcome<'a> {
    let mut st = mon_begin(obs, api, domain);
    loop {
        match mon_attempt(obs, api, cfg, &mut st, domain, as_of) {
            ReqPoll::Wait { until, cause } => {
                let applied = api.advance_clock_to(until);
                obs.attribute_wait(st.span, PHASE, cause, applied);
            }
            ReqPoll::Done(out) => return out,
        }
    }
}

/// Fewest due checks worth one pool worker. A scoped spawn and join costs
/// about 28 µs on a 2-CPU host and a check about 4 µs, so a worker must
/// take dozens of checks to repay its thread. Measured on that host:
///
/// * no `monitor_outages` round (five simulated years of a `small()`
///   world) reaches 64 checks: rounds hold 1–36, 7.6 on average, and
///   spreading every round of two or more over the pool spawned about
///   22,000 threads per job;
/// * `paper()` rounds reach 310 checks, and giving its rounds of 128 or
///   more to two workers ran within noise of running every round on one
///   thread (6 alternating in-process runs each: medians 7.38 s vs
///   7.25 s, range 4.7–12.0 s on a shared host).
pub const MIN_CHECKS_PER_WORKER: usize = 64;

/// Workers a round of `due` checks is spread over: one per
/// [`MIN_CHECKS_PER_WORKER`] checks, capped by `threads`, at least one.
/// A round of fewer than two workers' worth runs on the calling thread.
pub(crate) fn round_workers(threads: usize, due: usize) -> usize {
    threads.min(due / MIN_CHECKS_PER_WORKER).max(1)
}

/// Execute one round: every `due` domain checked as of `as_of` on
/// [`round_workers`] pool workers, results in `due` order.
pub(crate) fn run_round<'a>(
    api: &'a ApiServer,
    obs: &Registry,
    cfg: &MonitorConfig,
    due: &[String],
    as_of: u64,
) -> Result<Vec<CheckOutcome<'a>>> {
    worker_pool::run(round_workers(cfg.threads, due.len()), due, |_, domain| {
        check(obs, api, cfg, domain, as_of)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narrow_rounds_run_on_one_worker() {
        for threads in [1, 2, 8, 64] {
            for due in [0, 1, 2, 63, 64, 127] {
                assert_eq!(
                    round_workers(threads, due),
                    1,
                    "threads={threads} due={due}"
                );
            }
        }
    }

    #[test]
    fn threads_cap_the_spread() {
        assert_eq!(round_workers(8, 128), 2);
        assert_eq!(round_workers(8, 300), 4);
        assert_eq!(round_workers(8, 10_000), 8);
        assert_eq!(round_workers(2, 310), 2);
        assert_eq!(round_workers(3, 1_000), 3);
    }

    #[test]
    fn one_thread_never_spreads_a_round() {
        for due in [0, 1, 127, 128, 310, 1 << 20] {
            assert_eq!(round_workers(1, due), 1, "due={due}");
        }
    }
}
