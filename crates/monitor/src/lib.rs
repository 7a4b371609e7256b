//! `flock-monitor` — a continuous fediverse-monitoring workload on the
//! virtual clock.
//!
//! The paper's migration tracking depended on third-party monitors
//! (instances.social, the Fediverse Observer) that poll every known
//! instance on a schedule, discover new ones through peer lists, and keep
//! an always-fresh roster of which instances are alive. This crate
//! reproduces that workload against the simulated fediverse: a trusted
//! **orchestrator** keeps one [`NodeRecord`] per known domain and runs a
//! **check** whenever a record's re-check deadline comes due. A check hits
//! the API layer's federation-peers endpoint; success refreshes the
//! record and folds any newly discovered peers into the roster, failure
//! classifies the node (dead vs unreachable) and backs off exponentially
//! up to a cap. Over days-to-weeks of simulated uptime, under
//! `flock-chaos` outage plans, the roster tracks liveness, death, and
//! rebirth.
//!
//! Determinism is the point, and it rests on **scheduled-time
//! semantics**: every check is stamped with the virtual instant it was
//! *due* (`as_of`), outage windows are evaluated at that instant, and
//! every field of a [`NodeRecord`] is derived from scheduled instants
//! only. Actual clock positions — which depend on how rate-limit and
//! backoff waits interleave under a given thread count — never enter the
//! Data tier. CI compares the rendered [`nodes_list`] and the report's
//! Data section byte-for-byte across thread counts, exactly like the
//! crawl pipeline.
//!
//! The run loop is **rounds-based**: find the earliest due instant,
//! advance the clock there (charged to [`WaitCause::Idle`] on the
//! orchestrator's span, so the per-phase wait identity Σ buckets + work =
//! duration still holds), run every due check as a blocking loop on the
//! worker pool (`flock_core::worker_pool`, the crawl's execution model),
//! fold results in input order, repeat. A round takes one pool worker per
//! [`checker::MIN_CHECKS_PER_WORKER`] due checks, up to
//! [`MonitorConfig::threads`]: most rounds hold a few checks, which cost
//! less than the thread a wider round would spawn, so they run on the
//! calling thread. Round boundaries are also the
//! checkpoint grain: [`checkpoint::MonitorCheckpoint`] persists the
//! roster atomically and durably, and a resumed run continues from the
//! last completed round with the same Data-tier output as an
//! uninterrupted one.

pub mod checker;
pub mod checkpoint;

use flock_apis::server::ApiServer;
use flock_core::durable;
use flock_core::{FlockError, Result};
use flock_obs::{Registry, Tier, WaitCause};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;

/// Seconds per simulated day.
pub const SECS_PER_DAY: u64 = 86_400;

/// The single obs phase every monitor span and wait is attributed to.
pub const PHASE: &str = "monitor.watch";

/// Histogram bounds for checks-per-instance (Data tier).
pub const CHECKS_BOUNDS: [u64; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// Histogram bounds for discovery depth (Data tier).
pub const DEPTH_BOUNDS: [u64; 6] = [1, 2, 3, 4, 6, 8];

/// Configuration for one monitoring run.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Simulated horizon in days; the run ends when no record is due
    /// before `sim_days * 86_400` seconds of virtual time.
    pub sim_days: u64,
    /// Most worker-pool threads one round's checks run on. A round gets
    /// one worker per [`checker::MIN_CHECKS_PER_WORKER`] due checks, up to
    /// this cap, so a round of fewer than 128 checks runs on the calling
    /// thread at any setting.
    pub threads: usize,
    /// Domains seeded into the roster at depth 0 (the flagship
    /// instances, in the default wiring).
    pub bootstrap: Vec<String>,
    /// Re-check interval for an instance last seen alive.
    pub alive_recheck_secs: u64,
    /// First re-check delay after a failed check; doubles per
    /// consecutive failure.
    pub backoff_base_secs: u64,
    /// Ceiling on the failure backoff — also the worst-case rebirth
    /// detection latency once an outage lifts.
    pub backoff_cap_secs: u64,
    /// Delay between discovering a peer and first checking it.
    pub discovery_delay_secs: u64,
    /// Transient failures tolerated per check before classifying the
    /// node unreachable.
    pub max_transient_retries: u32,
    /// Virtual backoff between transient retries within one check.
    pub transient_backoff_secs: u64,
    /// Where to persist [`checkpoint::MonitorCheckpoint`]s; `None`
    /// disables checkpointing (and resume).
    pub checkpoint_path: Option<PathBuf>,
    /// Checkpoint every N completed rounds (0 = only on interruption).
    pub checkpoint_every_rounds: u64,
    /// Stop (with a checkpoint) after this many rounds in this process —
    /// the test hook for interrupt-then-resume runs.
    pub stop_after_rounds: Option<u64>,
}

impl Default for MonitorConfig {
    fn default() -> MonitorConfig {
        MonitorConfig {
            sim_days: 30,
            threads: 1,
            bootstrap: Vec::new(),
            alive_recheck_secs: 21_600,
            backoff_base_secs: 3_600,
            backoff_cap_secs: SECS_PER_DAY,
            discovery_delay_secs: 300,
            max_transient_retries: 3,
            transient_backoff_secs: 30,
            checkpoint_path: None,
            checkpoint_every_rounds: 50,
            stop_after_rounds: None,
        }
    }
}

impl MonitorConfig {
    /// Reject configurations the run loop cannot honor.
    pub fn validate(&self) -> Result<()> {
        if self.sim_days == 0 {
            return Err(FlockError::InvalidConfig(
                "monitor horizon must be at least one simulated day".to_string(),
            ));
        }
        if self.threads == 0 {
            return Err(FlockError::InvalidConfig(
                "monitor needs at least one worker thread (threads = 0)".to_string(),
            ));
        }
        if self.bootstrap.is_empty() {
            return Err(FlockError::InvalidConfig(
                "monitor needs at least one bootstrap domain".to_string(),
            ));
        }
        if self.backoff_base_secs == 0 || self.backoff_cap_secs < self.backoff_base_secs {
            return Err(FlockError::InvalidConfig(format!(
                "monitor backoff base {}s / cap {}s out of order",
                self.backoff_base_secs, self.backoff_cap_secs
            )));
        }
        if self.alive_recheck_secs == 0 {
            return Err(FlockError::InvalidConfig(
                "monitor alive re-check interval must be positive".to_string(),
            ));
        }
        Ok(())
    }

    /// The virtual horizon in seconds.
    pub fn horizon_secs(&self) -> u64 {
        self.sim_days.saturating_mul(SECS_PER_DAY)
    }

    /// The failure backoff after `failures` consecutive failed checks:
    /// `base * 2^(failures-1)`, capped.
    pub fn failure_backoff_secs(&self, failures: u32) -> u64 {
        let doublings = failures.saturating_sub(1).min(32);
        self.backoff_base_secs
            .saturating_mul(1u64 << doublings)
            .min(self.backoff_cap_secs)
    }
}

/// Liveness classification of one known domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeState {
    /// Discovered but never successfully or unsuccessfully checked.
    Pending,
    /// Last check answered with a peers list.
    Alive,
    /// Last check found the instance down (permanent outage flag or an
    /// active chaos outage window).
    Dead,
    /// Last check exhausted its transient-retry budget or hit a
    /// non-retryable error.
    Unreachable,
}

impl NodeState {
    /// Stable lowercase label used in the nodes-list artifact.
    pub fn label(&self) -> &'static str {
        match self {
            NodeState::Pending => "pending",
            NodeState::Alive => "alive",
            NodeState::Dead => "dead",
            NodeState::Unreachable => "unreachable",
        }
    }
}

impl fmt::Display for NodeState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Everything the orchestrator knows about one domain. Every timestamp
/// is a **scheduled** virtual instant (the `as_of` of the check that set
/// it), never an actual clock position — that is what keeps the roster
/// byte-identical across thread counts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeRecord {
    /// The instance domain.
    pub domain: String,
    /// Current liveness classification.
    pub state: NodeState,
    /// Peer-discovery depth: 0 for bootstrap domains, parent + 1 for a
    /// domain first seen in a peers list.
    pub depth: u32,
    /// When the domain entered the roster.
    pub discovered_secs: u64,
    /// Scheduled instant of the most recent completed check.
    pub last_checked_secs: Option<u64>,
    /// Scheduled instant the state last changed (or discovery time).
    pub last_change_secs: u64,
    /// Next scheduled check.
    pub next_check_secs: u64,
    /// Completed checks so far.
    pub checks: u64,
    /// Consecutive failed checks (drives the backoff exponent).
    pub consecutive_failures: u32,
    /// Alive → Dead transitions observed.
    pub deaths: u64,
    /// Dead → Alive transitions observed.
    pub rebirths: u64,
}

impl NodeRecord {
    fn discovered(domain: String, depth: u32, at_secs: u64, first_check_secs: u64) -> NodeRecord {
        NodeRecord {
            domain,
            state: NodeState::Pending,
            depth,
            discovered_secs: at_secs,
            last_checked_secs: None,
            last_change_secs: at_secs,
            next_check_secs: first_check_secs,
            checks: 0,
            consecutive_failures: 0,
            deaths: 0,
            rebirths: 0,
        }
    }
}

/// What a finished run hands back.
#[derive(Debug)]
pub struct MonitorOutcome {
    /// The final roster, keyed by domain.
    pub records: BTreeMap<String, NodeRecord>,
    /// Rounds completed over the whole monitored horizon (including
    /// rounds replayed from a checkpoint's history counter).
    pub rounds: u64,
    /// Total completed checks across the roster.
    pub checks_total: u64,
    /// The round count restored from a checkpoint, if this run resumed.
    pub resumed_from_round: Option<u64>,
    /// `false` when `stop_after_rounds` interrupted the run before the
    /// horizon; the checkpoint allows a later run to finish it.
    pub completed: bool,
}

/// Run the monitor until no check is due before the horizon (or until
/// `stop_after_rounds`). Resumes automatically from
/// `cfg.checkpoint_path` when a checkpoint exists there.
pub fn run(api: &ApiServer, obs: &Registry, cfg: &MonitorConfig) -> Result<MonitorOutcome> {
    cfg.validate()?;
    let horizon = cfg.horizon_secs();

    let mut records: BTreeMap<String, NodeRecord> = BTreeMap::new();
    let mut round: u64 = 0;
    let mut resumed_from_round = None;
    if let Some(path) = &cfg.checkpoint_path {
        if let Some(cp) = durable::load_if_exists::<checkpoint::MonitorCheckpoint>(path)? {
            round = cp.round;
            resumed_from_round = Some(cp.round);
            for rec in cp.records {
                records.insert(rec.domain.clone(), rec);
            }
            // Waits up to the checkpointed instant were paid (and
            // attributed) by the interrupted run; move the fresh clock
            // there before the phase opens so they are not paid again.
            api.advance_clock_to(cp.clock_secs);
        }
    }
    if records.is_empty() {
        for domain in &cfg.bootstrap {
            records.insert(
                domain.clone(),
                NodeRecord::discovered(domain.clone(), 0, 0, 0),
            );
        }
    }

    let start = api.now();
    obs.phase_start(start, PHASE);
    let orch = checker::watch_span(obs, start);
    let mut rounds_this_process: u64 = 0;
    let completed = loop {
        let due_time = records
            .values()
            .map(|r| r.next_check_secs)
            .filter(|&t| t <= horizon)
            .min();
        let Some(due_time) = due_time else {
            break true;
        };
        // Nothing is runnable before the due instant: the orchestrator
        // sleeps there, and the movement lands in the Idle bucket so the
        // phase's wait identity stays exact.
        let applied = api.advance_clock_to(due_time);
        obs.attribute_wait(orch, PHASE, WaitCause::Idle, applied);
        // BTreeMap order makes the due set — and therefore the pool's
        // claim order and the fold below — domain-sorted.
        let due: Vec<String> = records
            .values()
            .filter(|r| r.next_check_secs == due_time)
            .map(|r| r.domain.clone())
            .collect();
        let outcomes = checker::run_round(api, obs, cfg, &due, due_time)?;
        for (domain, outcome) in due.iter().zip(outcomes) {
            fold(&mut records, cfg, domain, due_time, outcome);
        }
        round += 1;
        rounds_this_process += 1;
        if let Some(path) = &cfg.checkpoint_path {
            if cfg.checkpoint_every_rounds > 0 && round.is_multiple_of(cfg.checkpoint_every_rounds)
            {
                checkpoint_now(path, round, api.now(), &records)?;
            }
        }
        if cfg
            .stop_after_rounds
            .is_some_and(|cap| rounds_this_process >= cap)
        {
            if let Some(path) = &cfg.checkpoint_path {
                checkpoint_now(path, round, api.now(), &records)?;
            }
            break false;
        }
    };

    let end = if completed {
        // Idle out the rest of the horizon so "monitored for N days"
        // means exactly N days of attributed virtual time.
        let applied = api.advance_clock_to(horizon);
        obs.attribute_wait(orch, PHASE, WaitCause::Idle, applied);
        horizon.max(api.now())
    } else {
        api.now()
    };
    obs.span_end(orch, end, flock_obs::trace::SpanOutcome::Granted);
    obs.phase_end(end, PHASE);

    let checks_total = records.values().map(|r| r.checks).sum();
    if completed {
        publish_metrics(obs, &records);
    }
    Ok(MonitorOutcome {
        records,
        rounds: round,
        checks_total,
        resumed_from_round,
        completed,
    })
}

fn checkpoint_now(
    path: &std::path::Path,
    round: u64,
    clock_secs: u64,
    records: &BTreeMap<String, NodeRecord>,
) -> Result<()> {
    let cp = checkpoint::MonitorCheckpoint {
        round,
        clock_secs,
        records: records.values().cloned().collect(),
    };
    durable::save(path, &cp)
}

/// Fold one completed check into the roster. `as_of` is the check's
/// scheduled instant; every timestamp written here derives from it.
fn fold(
    records: &mut BTreeMap<String, NodeRecord>,
    cfg: &MonitorConfig,
    domain: &str,
    as_of: u64,
    outcome: checker::CheckOutcome<'_>,
) {
    let parent_depth = records.get(domain).map(|r| r.depth).unwrap_or(0);
    if let Some(rec) = records.get_mut(domain) {
        rec.checks += 1;
        rec.last_checked_secs = Some(as_of);
        match &outcome {
            checker::CheckOutcome::Alive(_) => {
                rec.consecutive_failures = 0;
                if rec.state == NodeState::Dead {
                    rec.rebirths += 1;
                }
                if rec.state != NodeState::Alive {
                    rec.state = NodeState::Alive;
                    rec.last_change_secs = as_of;
                }
                rec.next_check_secs = as_of.saturating_add(cfg.alive_recheck_secs);
            }
            checker::CheckOutcome::Dead => {
                rec.consecutive_failures = rec.consecutive_failures.saturating_add(1);
                if rec.state == NodeState::Alive {
                    rec.deaths += 1;
                }
                if rec.state != NodeState::Dead {
                    rec.state = NodeState::Dead;
                    rec.last_change_secs = as_of;
                }
                rec.next_check_secs =
                    as_of.saturating_add(cfg.failure_backoff_secs(rec.consecutive_failures));
            }
            checker::CheckOutcome::Unreachable => {
                rec.consecutive_failures = rec.consecutive_failures.saturating_add(1);
                if rec.state != NodeState::Unreachable {
                    rec.state = NodeState::Unreachable;
                    rec.last_change_secs = as_of;
                }
                rec.next_check_secs =
                    as_of.saturating_add(cfg.failure_backoff_secs(rec.consecutive_failures));
            }
        }
    }
    // Every alive check re-folds its whole peers list; only a domain the
    // roster lacks is copied out of the server's map.
    if let checker::CheckOutcome::Alive(peers) = outcome {
        for peer in peers {
            if !records.contains_key(peer) {
                records.insert(
                    peer.clone(),
                    NodeRecord::discovered(
                        peer.clone(),
                        parent_depth.saturating_add(1),
                        as_of,
                        as_of.saturating_add(cfg.discovery_delay_secs),
                    ),
                );
            }
        }
    }
}

/// Publish the end-of-run Data-tier metrics. Derived **only** from the
/// final roster — never incremented mid-run — so an interrupted-then-
/// resumed run publishes the same values as an uninterrupted one.
fn publish_metrics(obs: &Registry, records: &BTreeMap<String, NodeRecord>) {
    let count = |state: NodeState| records.values().filter(|r| r.state == state).count() as u64;
    obs.counter("monitor.nodes_known", Tier::Data)
        .add(records.len() as u64);
    obs.counter("monitor.nodes_alive", Tier::Data)
        .add(count(NodeState::Alive));
    obs.counter("monitor.nodes_dead", Tier::Data)
        .add(count(NodeState::Dead));
    obs.counter("monitor.nodes_unreachable", Tier::Data)
        .add(count(NodeState::Unreachable));
    obs.counter("monitor.nodes_pending", Tier::Data)
        .add(count(NodeState::Pending));
    obs.counter("monitor.checks_total", Tier::Data)
        .add(records.values().map(|r| r.checks).sum());
    obs.counter("monitor.deaths", Tier::Data)
        .add(records.values().map(|r| r.deaths).sum());
    obs.counter("monitor.rebirths", Tier::Data)
        .add(records.values().map(|r| r.rebirths).sum());
    let checks = obs.histogram("monitor.checks_per_instance", Tier::Data, &CHECKS_BOUNDS);
    let depth = obs.histogram("monitor.discovery_depth", Tier::Data, &DEPTH_BOUNDS);
    for rec in records.values() {
        checks.record(rec.checks);
        depth.record(u64::from(rec.depth));
    }
}

/// Render the deterministic nodes-list artifact: a commented header
/// (run identity only — nothing schedule-dependent) and one
/// tab-separated line per domain in roster order. CI compares these
/// bytes across thread counts.
pub fn nodes_list(
    records: &BTreeMap<String, NodeRecord>,
    seed: u64,
    scenario: &str,
    sim_days: u64,
) -> String {
    use std::fmt::Write;

    let mut out = String::new();
    let _ = writeln!(out, "# flock-monitor nodes list");
    let _ = writeln!(out, "# seed={seed} scenario={scenario} sim_days={sim_days}");
    let _ = writeln!(
        out,
        "# domain\tstate\tdepth\tdiscovered\tlast_checked\tlast_change\tnext_check\tchecks\tfailures\tdeaths\trebirths"
    );
    for rec in records.values() {
        let last_checked = match rec.last_checked_secs {
            Some(t) => t.to_string(),
            None => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            rec.domain,
            rec.state,
            rec.depth,
            rec.discovered_secs,
            last_checked,
            rec.last_change_secs,
            rec.next_check_secs,
            rec.checks,
            rec.consecutive_failures,
            rec.deaths,
            rec.rebirths,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let cfg = MonitorConfig::default();
        assert_eq!(cfg.failure_backoff_secs(1), 3_600);
        assert_eq!(cfg.failure_backoff_secs(2), 7_200);
        assert_eq!(cfg.failure_backoff_secs(3), 14_400);
        assert_eq!(cfg.failure_backoff_secs(10), SECS_PER_DAY);
        assert_eq!(cfg.failure_backoff_secs(u32::MAX), SECS_PER_DAY);
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        let ok = MonitorConfig {
            bootstrap: vec!["m.example".to_string()],
            ..MonitorConfig::default()
        };
        assert!(ok.validate().is_ok());
        for bad in [
            MonitorConfig {
                sim_days: 0,
                ..ok.clone()
            },
            MonitorConfig {
                threads: 0,
                ..ok.clone()
            },
            MonitorConfig {
                bootstrap: Vec::new(),
                ..ok.clone()
            },
            MonitorConfig {
                backoff_base_secs: 0,
                ..ok.clone()
            },
            MonitorConfig {
                backoff_cap_secs: 1,
                ..ok.clone()
            },
            MonitorConfig {
                alive_recheck_secs: 0,
                ..ok.clone()
            },
        ] {
            assert!(bad.validate().is_err());
        }
    }

    #[test]
    fn fold_tracks_discovery_death_and_rebirth() {
        let cfg = MonitorConfig {
            bootstrap: vec!["a.example".to_string()],
            ..MonitorConfig::default()
        };
        let mut records = BTreeMap::new();
        records.insert(
            "a.example".to_string(),
            NodeRecord::discovered("a.example".to_string(), 0, 0, 0),
        );
        let peers = vec!["b.example".to_string()];
        fold(
            &mut records,
            &cfg,
            "a.example",
            0,
            checker::CheckOutcome::Alive(&peers),
        );
        assert_eq!(records.len(), 2);
        let b = &records["b.example"];
        assert_eq!(b.depth, 1);
        assert_eq!(b.next_check_secs, cfg.discovery_delay_secs);
        let a = &records["a.example"];
        assert_eq!(a.state, NodeState::Alive);
        assert_eq!(a.next_check_secs, cfg.alive_recheck_secs);

        let t1 = a.next_check_secs;
        fold(
            &mut records,
            &cfg,
            "a.example",
            t1,
            checker::CheckOutcome::Dead,
        );
        let a = &records["a.example"];
        assert_eq!(a.state, NodeState::Dead);
        assert_eq!(a.deaths, 1);
        assert_eq!(a.next_check_secs, t1 + cfg.backoff_base_secs);

        let t2 = a.next_check_secs;
        fold(
            &mut records,
            &cfg,
            "a.example",
            t2,
            checker::CheckOutcome::Dead,
        );
        let a = &records["a.example"];
        assert_eq!(a.consecutive_failures, 2);
        assert_eq!(a.next_check_secs, t2 + 2 * cfg.backoff_base_secs);

        let t3 = a.next_check_secs;
        fold(
            &mut records,
            &cfg,
            "a.example",
            t3,
            checker::CheckOutcome::Alive(&[]),
        );
        let a = &records["a.example"];
        assert_eq!(a.state, NodeState::Alive);
        assert_eq!(a.rebirths, 1);
        assert_eq!(a.consecutive_failures, 0);
        assert_eq!(a.checks, 4);

        // Re-folding a known peer leaves its record alone; only the new
        // domain enters the roster.
        let t4 = a.next_check_secs;
        let peers = vec!["b.example".to_string(), "c.example".to_string()];
        fold(
            &mut records,
            &cfg,
            "a.example",
            t4,
            checker::CheckOutcome::Alive(&peers),
        );
        assert_eq!(records.len(), 3);
        let b = &records["b.example"];
        assert_eq!((b.depth, b.discovered_secs), (1, 0));
        let c = &records["c.example"];
        assert_eq!((c.depth, c.discovered_secs), (1, t4));
        assert_eq!(c.next_check_secs, t4 + cfg.discovery_delay_secs);
    }

    #[test]
    fn nodes_list_is_sorted_and_headered() {
        let mut records = BTreeMap::new();
        for d in ["b.example", "a.example"] {
            records.insert(
                d.to_string(),
                NodeRecord::discovered(d.to_string(), 0, 0, 0),
            );
        }
        let text = nodes_list(&records, 42, "rolling-outages", 30);
        assert!(text.starts_with("# flock-monitor nodes list\n"));
        assert!(text.contains("seed=42 scenario=rolling-outages sim_days=30"));
        let body: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(body.len(), 2);
        assert!(body[0].starts_with("a.example\tpending\t0\t0\t-\t"));
        assert!(body[1].starts_with("b.example\t"));
    }
}
