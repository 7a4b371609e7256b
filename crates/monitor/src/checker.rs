//! Checker tasks: one `flock-sched` state machine per due domain.
//!
//! A checker is a yielding version of the crawler's blocking retry loop:
//! the in-flight request keeps its span open across yields, every server
//! attempt is recorded against it, and every second the executor moves
//! the clock is billed — at event fire time — to the same
//! `(span, phase, cause)` bucket an inline wait would have charged. What differs is the outcome policy, which must stay
//! **Data-deterministic under scheduled-time semantics**:
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
use flock_core::{FlockError, Result};
use flock_obs::trace::{self, FaultKind, SpanOutcome};
use flock_obs::{Registry, WaitCause};
use flock_sched::{Clock, Executor, Step, Task};

/// What one yielded wait is charged to when its event fires.
pub(crate) struct WaitBill {
    span: u64,
    cause: WaitCause,
}

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
    last_outcome: SpanOutcome,
}

/// Either park until `until` (billing the wait at fire time) or finish.
enum ReqPoll {
    Wait { until: u64, bill: WaitBill },
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
        // Overwritten by every attempt; only a task that is never polled
        // to completion leaves the placeholder.
        last_outcome: SpanOutcome::Fault(FaultKind::Other),
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
    st.last_outcome = outcome;
    let finish = |st: &ReqState, out: CheckOutcome| {
        obs.span_end(st.span, api.now(), st.last_outcome);
        ReqPoll::Done(out)
    };
    match r {
        Ok(peers) => finish(st, CheckOutcome::Alive(peers)),
        Err(FlockError::RateLimited { retry_after_secs }) => {
            let cause = if outcome == (SpanOutcome::RateLimited { storm: true }) {
                WaitCause::RetryAfterStorm
            } else {
                WaitCause::TokenBucket
            };
            ReqPoll::Wait {
                until: before.saturating_add(retry_after_secs),
                bill: WaitBill {
                    span: st.span,
                    cause,
                },
            }
        }
        Err(FlockError::InstanceOutage { .. }) | Err(FlockError::InstanceUnavailable(_)) => {
            finish(st, CheckOutcome::Dead)
        }
        Err(e) if e.is_retryable() => {
            st.transient += 1;
            if st.transient > cfg.max_transient_retries {
                return finish(st, CheckOutcome::Unreachable);
            }
            ReqPoll::Wait {
                until: before.saturating_add(cfg.transient_backoff_secs),
                bill: WaitBill {
                    span: st.span,
                    cause: WaitCause::TransientBackoff,
                },
            }
        }
        Err(_) => finish(st, CheckOutcome::Unreachable),
    }
}

/// One due domain's checker: polls until the check classifies.
struct CheckTask<'a> {
    obs: &'a Registry,
    api: &'a ApiServer,
    cfg: &'a MonitorConfig,
    domain: &'a str,
    as_of: u64,
    req: Option<ReqState>,
    out: Option<CheckOutcome>,
}

impl Task for CheckTask<'_> {
    type Bill = WaitBill;

    fn poll(&mut self, _now: u64) -> Step<WaitBill> {
        if self.out.is_some() {
            return Step::Done;
        }
        let st = match &mut self.req {
            Some(st) => st,
            None => self.req.insert(mon_begin(self.obs, self.api, self.domain)),
        };
        match mon_attempt(self.obs, self.api, self.cfg, st, self.domain, self.as_of) {
            ReqPoll::Wait { until, bill } => Step::Wait { until, bill },
            ReqPoll::Done(out) => {
                self.out = Some(out);
                Step::Done
            }
        }
    }
}

/// The API server's virtual clock through the scheduler's eyes.
struct MonClock<'a>(&'a ApiServer);

impl Clock for MonClock<'_> {
    fn now(&self) -> u64 {
        self.0.now()
    }

    fn advance_to(&self, deadline_secs: u64) -> u64 {
        self.0.advance_clock_to(deadline_secs)
    }
}

/// Execute one round: every `due` domain checked as of `as_of`, results
/// in `due` order. A task the executor failed to drive to completion
/// (which cannot happen short of a scheduler bug) surfaces as
/// [`CheckOutcome::Unreachable`] rather than a panic.
pub(crate) fn run_round(
    api: &ApiServer,
    obs: &Registry,
    cfg: &MonitorConfig,
    due: &[String],
    as_of: u64,
) -> Result<Vec<CheckOutcome>> {
    let tasks: Vec<CheckTask> = due
        .iter()
        .map(|domain| CheckTask {
            obs,
            api,
            cfg,
            domain,
            as_of,
            req: None,
            out: None,
        })
        .collect();
    let ex = Executor::new(cfg.threads, cfg.tasks)?;
    let done = ex.run(&MonClock(api), tasks, |bill, applied| {
        obs.attribute_wait(bill.span, PHASE, bill.cause, applied);
    });
    Ok(done
        .into_iter()
        .map(|t| t.out.unwrap_or(CheckOutcome::Unreachable))
        .collect())
}
