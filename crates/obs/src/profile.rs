//! Virtual-time profiler: fold the span store into per-phase profiles.
//!
//! The crawl is single-clocked — every wait moves one shared virtual
//! clock — so profiling is exact, not sampled: a phase's virtual duration
//! decomposes into the [`WaitCause`] buckets its requests charged plus
//! whatever remains as useful work. The profiler groups spans by trace id
//! (= phase), splits logical requests from attempt children, aggregates
//! outcome tallies and per-worker load, extracts the **critical path**
//! (the ordered list of spans that actually advanced the clock — on a
//! shared virtual clock, a span that charged N seconds *is* N seconds of
//! the phase's wall time, whatever the other workers were doing), and
//! ranks the slowest request chains for the run report.

use std::collections::BTreeMap;

use crate::{PhaseSpan, Registry, Span, WaitCause};

/// Aggregate load of one worker slot within a phase.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerLoad {
    /// Logical requests this worker drove.
    pub requests: u64,
    /// Individual server attempts (≥ requests).
    pub attempts: u64,
    /// Virtual seconds of clock advance this worker's requests charged.
    pub wait_secs: u64,
}

/// A worker slot as the report and the dashboard print it: its number, or
/// `-` for a span opened outside the worker pool.
pub fn slot_label(worker: Option<usize>) -> String {
    worker.map_or_else(|| "-".to_string(), |w| w.to_string())
}

/// One segment of a phase's critical path: a span that advanced the
/// shared virtual clock.
#[derive(Clone, Debug)]
pub struct CriticalSegment {
    pub span_id: u64,
    pub label: String,
    pub worker: Option<usize>,
    /// Virtual time the span started.
    pub start_secs: u64,
    /// Seconds of clock advance the span charged (its critical-path
    /// contribution).
    pub advance_secs: u64,
}

/// A ranked logical request chain (parent span + its attempts).
#[derive(Clone, Debug)]
pub struct ChainSummary {
    pub span_id: u64,
    pub phase: String,
    pub label: String,
    pub worker: Option<usize>,
    pub start_secs: u64,
    pub end_secs: u64,
    /// Number of attempt children the server answered.
    pub attempts: u64,
    /// Final outcome label (`"open"` if the span never ended).
    pub outcome: &'static str,
    pub wait_secs: u64,
}

impl ChainSummary {
    /// Virtual duration of the chain.
    pub fn duration_secs(&self) -> u64 {
        self.end_secs.saturating_sub(self.start_secs)
    }
}

/// Everything the profiler knows about one phase.
#[derive(Clone, Debug)]
pub struct PhaseProfile {
    pub name: String,
    pub start_secs: u64,
    pub end_secs: u64,
    /// Virtual seconds charged per [`WaitCause`] (ledger order).
    pub waits: [u64; WaitCause::COUNT],
    /// Logical requests (root spans).
    pub requests: u64,
    /// Server attempts (child spans).
    pub attempts: u64,
    /// Attempt outcomes by stable label.
    pub outcomes: BTreeMap<&'static str, u64>,
    /// Per-worker load, keyed by worker slot; `None` holds the spans
    /// opened outside the worker pool, which carry no slot.
    pub workers: BTreeMap<Option<usize>, WorkerLoad>,
    /// Spans that advanced the clock, in start order.
    pub critical_path: Vec<CriticalSegment>,
    /// Every request chain, slowest first (ties broken by span id).
    pub slowest: Vec<ChainSummary>,
}

impl PhaseProfile {
    /// Virtual duration of the phase.
    pub fn duration_secs(&self) -> u64 {
        self.end_secs.saturating_sub(self.start_secs)
    }

    /// Total attributed waiting across all causes.
    pub fn wait_total_secs(&self) -> u64 {
        self.waits.iter().sum()
    }

    /// Useful work: duration minus attributed waits. With the virtual
    /// clock, granted requests are instantaneous, so a fully attributed
    /// phase reports zero — any positive residue is *unattributed* clock
    /// movement (which the integration tests treat as a bug).
    pub fn work_secs(&self) -> u64 {
        self.duration_secs().saturating_sub(self.wait_total_secs())
    }
}

/// Build one [`PhaseProfile`] per entry of the registry's phase table,
/// in phase-start order. Spans whose trace id matches no phase (or
/// phases with no spans) still profile cleanly — the grouping is by
/// name, not by position.
pub fn phase_profiles(reg: &Registry) -> Vec<PhaseProfile> {
    let phases: Vec<PhaseSpan> = reg.phases();
    let ledger = reg.waits();
    let spans = reg.spans();

    let mut by_phase: BTreeMap<&str, Vec<&Span>> = BTreeMap::new();
    for s in &spans {
        by_phase.entry(s.trace.as_str()).or_default().push(s);
    }
    // Attempt counts per parent id, for chain summaries.
    let mut children: BTreeMap<u64, u64> = BTreeMap::new();
    for s in &spans {
        if let Some(p) = s.parent {
            *children.entry(p).or_default() += 1;
        }
    }

    phases
        .iter()
        .map(|ph| {
            let mut prof = PhaseProfile {
                name: ph.name.clone(),
                start_secs: ph.start_secs,
                end_secs: ph.end_secs.unwrap_or(ph.start_secs),
                waits: ledger.get(&ph.name).copied().unwrap_or_default(),
                requests: 0,
                attempts: 0,
                outcomes: BTreeMap::new(),
                workers: BTreeMap::new(),
                critical_path: Vec::new(),
                slowest: Vec::new(),
            };
            for s in by_phase.get(ph.name.as_str()).into_iter().flatten() {
                let slot = prof.workers.entry(s.worker).or_default();
                if s.parent.is_none() {
                    prof.requests += 1;
                    slot.requests += 1;
                    slot.wait_secs += s.wait_total_secs();
                    if s.wait_total_secs() > 0 {
                        prof.critical_path.push(CriticalSegment {
                            span_id: s.id,
                            label: s.label.clone(),
                            worker: s.worker,
                            start_secs: s.start_secs,
                            advance_secs: s.wait_total_secs(),
                        });
                    }
                    prof.slowest.push(ChainSummary {
                        span_id: s.id,
                        phase: s.trace.clone(),
                        label: s.label.clone(),
                        worker: s.worker,
                        start_secs: s.start_secs,
                        end_secs: s.end_secs,
                        attempts: children.get(&s.id).copied().unwrap_or(0),
                        outcome: s.outcome.map_or("open", |o| o.label()),
                        wait_secs: s.wait_total_secs(),
                    });
                } else {
                    prof.attempts += 1;
                    slot.attempts += 1;
                    if let Some(o) = s.outcome {
                        *prof.outcomes.entry(o.label()).or_default() += 1;
                    }
                }
            }
            prof.critical_path
                .sort_by_key(|seg| (seg.start_secs, seg.span_id));
            prof.slowest.sort_by(|a, b| {
                b.duration_secs()
                    .cmp(&a.duration_secs())
                    .then(a.span_id.cmp(&b.span_id))
            });
            prof
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SpanOutcome;
    use crate::Tier;

    fn seeded_registry() -> Registry {
        let reg = Registry::new();
        reg.counter("flock.test.touch", Tier::Data).inc(); // irrelevant noise
        reg.phase_start(0, "expand.followees");
        // Request 1 on worker 0: rate-limited once, then granted.
        let r1 = reg.span_begin("expand.followees", "following:1", None, Some(0), 0);
        reg.span_attempt(
            r1,
            "expand.followees",
            "following:1",
            Some(0),
            Some("follows"),
            SpanOutcome::RateLimited { storm: true },
            0,
            0,
        );
        reg.attribute_wait(
            Some(r1),
            "expand.followees",
            WaitCause::RetryAfterStorm,
            900,
        );
        reg.span_attempt(
            r1,
            "expand.followees",
            "following:1",
            Some(0),
            Some("follows"),
            SpanOutcome::Granted,
            900,
            900,
        );
        reg.span_end(r1, 900, SpanOutcome::Granted);
        // Request 2 on worker 1: granted immediately.
        let r2 = reg.span_begin("expand.followees", "following:2", None, Some(1), 900);
        reg.span_attempt(
            r2,
            "expand.followees",
            "following:2",
            Some(1),
            Some("follows"),
            SpanOutcome::Granted,
            900,
            900,
        );
        reg.span_end(r2, 900, SpanOutcome::Granted);
        reg.phase_end(900, "expand.followees");
        reg
    }

    #[test]
    fn profiles_fold_requests_attempts_and_waits() {
        let reg = seeded_registry();
        let profiles = phase_profiles(&reg);
        assert_eq!(profiles.len(), 1);
        let p = &profiles[0];
        assert_eq!(p.name, "expand.followees");
        assert_eq!(p.duration_secs(), 900);
        assert_eq!(p.requests, 2);
        assert_eq!(p.attempts, 3);
        assert_eq!(p.waits[WaitCause::RetryAfterStorm.index()], 900);
        assert_eq!(p.wait_total_secs(), 900);
        assert_eq!(p.work_secs(), 0); // fully attributed
        assert_eq!(p.outcomes["granted"], 2);
        assert_eq!(p.outcomes["rate_limited(storm)"], 1);
    }

    #[test]
    fn per_worker_load_and_critical_path() {
        let reg = seeded_registry();
        let p = &phase_profiles(&reg)[0];
        assert_eq!(p.workers.len(), 2);
        assert_eq!(p.workers[&Some(0)].requests, 1);
        assert_eq!(p.workers[&Some(0)].attempts, 2);
        assert_eq!(p.workers[&Some(0)].wait_secs, 900);
        assert_eq!(p.workers[&Some(1)].requests, 1);
        assert_eq!(p.workers[&Some(1)].wait_secs, 0);
        // Only the waiting span is on the critical path.
        assert_eq!(p.critical_path.len(), 1);
        assert_eq!(p.critical_path[0].advance_secs, 900);
        assert_eq!(p.critical_path[0].label, "following:1");
    }

    #[test]
    fn spans_without_a_slot_are_not_worker_zeros() {
        let reg = seeded_registry();
        // A root span opened outside the pool, as the crawl's serial
        // phases open theirs.
        let root = reg.span_begin("expand.followees", "following:3", None, None, 0);
        reg.attribute_wait(Some(root), "expand.followees", WaitCause::Idle, 100);
        reg.span_end(root, 900, SpanOutcome::Granted);
        let p = &phase_profiles(&reg)[0];
        let load = |slot| (p.workers[&slot].requests, p.workers[&slot].wait_secs);
        assert_eq!(p.workers.len(), 3);
        assert_eq!(
            [load(None), load(Some(0)), load(Some(1))],
            [(1, 100), (1, 900), (1, 0)]
        );
    }

    #[test]
    fn slowest_chains_rank_by_duration() {
        let reg = seeded_registry();
        let p = &phase_profiles(&reg)[0];
        assert_eq!(p.slowest.len(), 2);
        assert_eq!(p.slowest[0].label, "following:1");
        assert_eq!(p.slowest[0].duration_secs(), 900);
        assert_eq!(p.slowest[0].attempts, 2);
        assert_eq!(p.slowest[0].outcome, "granted");
        assert_eq!(p.slowest[1].duration_secs(), 0);
    }

    #[test]
    fn phase_without_spans_profiles_cleanly() {
        let reg = Registry::new();
        reg.phase_start(10, "discover.collect_tweets");
        reg.phase_end(10, "discover.collect_tweets");
        let profiles = phase_profiles(&reg);
        assert_eq!(profiles.len(), 1);
        assert_eq!(profiles[0].duration_secs(), 0);
        assert_eq!(profiles[0].requests, 0);
        assert!(profiles[0].critical_path.is_empty());
    }
}
