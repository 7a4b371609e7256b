//! Checks: one blocking check per due domain, run on the worker pool.
//!
//! A check is the crawler's blocking retry loop pointed at the peers
//! endpoint: the request keeps one span open across its attempts, every
//! server attempt is recorded against it, and every second a wait moves
//! the virtual clock is charged to the same `(span, phase, cause)` bucket
//! `Crawler::request` would charge. What differs is the outcome policy,
//! which must stay **Data-deterministic under scheduled-time semantics**:
//!
//! * `Ok(peers)` → [`CheckOutcome::Alive`] with the discovered peers.
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
pub enum CheckOutcome {
    /// The instance answered; these are its federation peers.
    Alive(Vec<String>),
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
enum ReqPoll {
    Wait { until: u64, cause: WaitCause },
    Done(CheckOutcome),
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
fn mon_attempt(
    obs: &Registry,
    api: &ApiServer,
    cfg: &MonitorConfig,
    st: &mut ReqState,
    domain: &str,
    as_of: u64,
) -> ReqPoll {
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
    let finish = |out: CheckOutcome| {
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
fn check(
    obs: &Registry,
    api: &ApiServer,
    cfg: &MonitorConfig,
    domain: &str,
    as_of: u64,
) -> CheckOutcome {
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

/// Execute one round: every `due` domain checked as of `as_of` on
/// `cfg.threads` pool workers, results in `due` order.
pub(crate) fn run_round(
    api: &ApiServer,
    obs: &Registry,
    cfg: &MonitorConfig,
    due: &[String],
    as_of: u64,
) -> Result<Vec<CheckOutcome>> {
    worker_pool::run(cfg.threads, due, |_, domain| {
        check(obs, api, cfg, domain, as_of)
    })
}
