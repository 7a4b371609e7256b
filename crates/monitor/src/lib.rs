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
//! up to a cap. The server lends each domain's peers list as one slice
//! for its lifetime, so the run loop remembers the slice each domain last
//! folded and skips the per-peer roster lookups when an alive check lends
//! that same slice again. Over days-to-weeks of simulated uptime, under
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
//! advance the clock there (charged to the phase's [`WaitCause::Idle`]
//! ledger with no span, since no request waited, so the per-phase wait
//! identity Σ buckets + work = duration still holds), run every due check
//! as a blocking loop on the worker pool (`flock_core::worker_pool`, the
//! crawl's execution model), fold results in input order, repeat. A
//! round takes one pool worker per [`checker::MIN_CHECKS_PER_WORKER`] due
//! checks, up to [`MonitorConfig::threads`]: most rounds hold a few
//! checks, which cost less than the thread a wider round would spawn, so
//! they run on the calling thread. Round boundaries are also the
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

/// Re-check interval for an instance last seen alive.
pub const ALIVE_RECHECK_SECS: u64 = 21_600;

/// First re-check delay after a failed check; doubles per consecutive
/// failure up to [`BACKOFF_CAP_SECS`].
pub const BACKOFF_BASE_SECS: u64 = 3_600;

/// Ceiling on the failure backoff — also the worst-case rebirth
/// detection latency once an outage lifts.
pub const BACKOFF_CAP_SECS: u64 = SECS_PER_DAY;

/// Delay between discovering a peer and first checking it.
pub const DISCOVERY_DELAY_SECS: u64 = 300;

/// Transient failures tolerated per check before classifying the node
/// unreachable.
pub const MAX_TRANSIENT_RETRIES: u32 = 3;

/// Virtual backoff between transient retries within one check.
pub const TRANSIENT_BACKOFF_SECS: u64 = 30;

/// A run with a checkpoint path saves the roster every this many completed
/// rounds (and whenever `stop_after_rounds` interrupts it).
pub const CHECKPOINT_EVERY_ROUNDS: u64 = 50;

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
    /// Where to persist [`checkpoint::MonitorCheckpoint`]s (every
    /// [`CHECKPOINT_EVERY_ROUNDS`] rounds); `None` disables checkpointing
    /// (and resume).
    pub checkpoint_path: Option<PathBuf>,
    /// Stop (with a checkpoint) after this many rounds in this process —
    /// the test hook for interrupt-then-resume runs. At least one round:
    /// `Some(0)` is rejected, not run as one.
    pub stop_after_rounds: Option<u64>,
}

impl Default for MonitorConfig {
    fn default() -> MonitorConfig {
        MonitorConfig {
            sim_days: 30,
            threads: 1,
            bootstrap: Vec::new(),
            checkpoint_path: None,
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
        // The cap is checked only after a round, so zero would run one.
        if self.stop_after_rounds == Some(0) {
            return Err(FlockError::InvalidConfig(
                "monitor must run at least one round (stop_after_rounds = 0)".to_string(),
            ));
        }
        Ok(())
    }

    /// The virtual horizon in seconds.
    pub fn horizon_secs(&self) -> u64 {
        self.sim_days.saturating_mul(SECS_PER_DAY)
    }
}

/// The failure backoff after `failures` consecutive failed checks:
/// `BACKOFF_BASE_SECS * 2^(failures-1)`, capped at [`BACKOFF_CAP_SECS`].
fn failure_backoff_secs(failures: u32) -> u64 {
    let doublings = failures.saturating_sub(1).min(32);
    BACKOFF_BASE_SECS
        .saturating_mul(1u64 << doublings)
        .min(BACKOFF_CAP_SECS)
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

    // Not checkpointed, so a resumed run starts it empty too: each
    // domain's first alive check in this process folds its list in full.
    let mut folded: BTreeMap<String, &[String]> = BTreeMap::new();
    let start = api.now();
    obs.phase_start(start, PHASE);
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
        // sleeps there, and the movement lands in the phase's Idle bucket
        // (no request waited, so no span) so the wait identity stays exact.
        let applied = api.advance_clock_to(due_time);
        obs.attribute_wait(None, PHASE, WaitCause::Idle, applied);
        // BTreeMap order makes the due set — and therefore the pool's
        // claim order and the fold below — domain-sorted.
        let due: Vec<String> = records
            .values()
            .filter(|r| r.next_check_secs == due_time)
            .map(|r| r.domain.clone())
            .collect();
        let outcomes = checker::run_round(api, obs, cfg, &due, due_time)?;
        for (domain, outcome) in due.iter().zip(outcomes) {
            fold(&mut records, &mut folded, domain, due_time, outcome);
        }
        round += 1;
        rounds_this_process += 1;
        if let Some(path) = &cfg.checkpoint_path {
            if round.is_multiple_of(CHECKPOINT_EVERY_ROUNDS) {
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
        obs.attribute_wait(None, PHASE, WaitCause::Idle, applied);
        horizon.max(api.now())
    } else {
        api.now()
    };
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
/// `folded` is the memo: the peers slice each domain's alive checks last
/// folded, kept in the run loop only (never in a [`NodeRecord`] or a
/// checkpoint).
fn fold<'a>(
    records: &mut BTreeMap<String, NodeRecord>,
    folded: &mut BTreeMap<String, &'a [String]>,
    domain: &str,
    as_of: u64,
    outcome: checker::CheckOutcome<'a>,
) {
    let mut parent_depth = 0;
    if let Some(rec) = records.get_mut(domain) {
        parent_depth = rec.depth;
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
                rec.next_check_secs = as_of.saturating_add(ALIVE_RECHECK_SECS);
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
                    as_of.saturating_add(failure_backoff_secs(rec.consecutive_failures));
            }
            checker::CheckOutcome::Unreachable => {
                rec.consecutive_failures = rec.consecutive_failures.saturating_add(1);
                if rec.state != NodeState::Unreachable {
                    rec.state = NodeState::Unreachable;
                    rec.last_change_secs = as_of;
                }
                rec.next_check_secs =
                    as_of.saturating_add(failure_backoff_secs(rec.consecutive_failures));
            }
        }
    }
    // An alive check folds its peers list unless it lends the very slice
    // (same address and length) this domain folded last. The server lends
    // one slice per domain for its lifetime, so a changed list is always a
    // new slice, and the roster never drops a domain, so every lookup of
    // a skipped loop would hit. Only a domain the roster lacks is copied
    // out of the server's table.
    if let checker::CheckOutcome::Alive(peers) = outcome {
        let lent_again = folded
            .get(domain)
            .is_some_and(|last| std::ptr::eq(*last, peers));
        if lent_again {
            return;
        }
        folded.insert(domain.to_string(), peers);
        for peer in peers {
            if !records.contains_key(peer) {
                records.insert(
                    peer.clone(),
                    NodeRecord::discovered(
                        peer.clone(),
                        parent_depth.saturating_add(1),
                        as_of,
                        as_of.saturating_add(DISCOVERY_DELAY_SECS),
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
        assert_eq!(failure_backoff_secs(1), 3_600);
        assert_eq!(failure_backoff_secs(2), 7_200);
        assert_eq!(failure_backoff_secs(3), 14_400);
        assert_eq!(failure_backoff_secs(10), SECS_PER_DAY);
        assert_eq!(failure_backoff_secs(u32::MAX), SECS_PER_DAY);
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
                stop_after_rounds: Some(0),
                ..ok.clone()
            },
        ] {
            assert!(matches!(bad.validate(), Err(FlockError::InvalidConfig(_))));
        }
    }

    #[test]
    fn fold_tracks_discovery_death_and_rebirth() {
        let mut records = BTreeMap::new();
        records.insert(
            "a.example".to_string(),
            NodeRecord::discovered("a.example".to_string(), 0, 0, 0),
        );
        let mut folded = BTreeMap::new();
        let peers = vec!["b.example".to_string()];
        fold(
            &mut records,
            &mut folded,
            "a.example",
            0,
            checker::CheckOutcome::Alive(&peers),
        );
        assert_eq!(records.len(), 2);
        let b = &records["b.example"];
        assert_eq!(b.depth, 1);
        assert_eq!(b.next_check_secs, DISCOVERY_DELAY_SECS);
        let a = &records["a.example"];
        assert_eq!(a.state, NodeState::Alive);
        assert_eq!(a.next_check_secs, ALIVE_RECHECK_SECS);

        let t1 = a.next_check_secs;
        fold(
            &mut records,
            &mut folded,
            "a.example",
            t1,
            checker::CheckOutcome::Dead,
        );
        let a = &records["a.example"];
        assert_eq!(a.state, NodeState::Dead);
        assert_eq!(a.deaths, 1);
        assert_eq!(a.next_check_secs, t1 + BACKOFF_BASE_SECS);

        let t2 = a.next_check_secs;
        fold(
            &mut records,
            &mut folded,
            "a.example",
            t2,
            checker::CheckOutcome::Dead,
        );
        let a = &records["a.example"];
        assert_eq!(a.consecutive_failures, 2);
        assert_eq!(a.next_check_secs, t2 + 2 * BACKOFF_BASE_SECS);

        let t3 = a.next_check_secs;
        fold(
            &mut records,
            &mut folded,
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
            &mut folded,
            "a.example",
            t4,
            checker::CheckOutcome::Alive(&peers),
        );
        assert_eq!(records.len(), 3);
        let b = &records["b.example"];
        assert_eq!((b.depth, b.discovered_secs), (1, 0));
        let c = &records["c.example"];
        assert_eq!((c.depth, c.discovered_secs), (1, t4));
        assert_eq!(c.next_check_secs, t4 + DISCOVERY_DELAY_SECS);
    }

    /// A roster of `a.example` at depth 1 plus `peers`, after one alive
    /// check of `a.example` at instant 0 folded them.
    fn folded_once(
        peers: &[String],
    ) -> (BTreeMap<String, NodeRecord>, BTreeMap<String, &[String]>) {
        let mut records = BTreeMap::new();
        records.insert(
            "a.example".to_string(),
            NodeRecord::discovered("a.example".to_string(), 1, 0, 0),
        );
        let mut folded = BTreeMap::new();
        let alive = checker::CheckOutcome::Alive(peers);
        fold(&mut records, &mut folded, "a.example", 0, alive);
        (records, folded)
    }

    fn domains(list: &[&str]) -> Vec<String> {
        list.iter().map(|d| d.to_string()).collect()
    }

    #[test]
    fn refolding_the_same_slice_leaves_the_roster_untouched() {
        let peers = domains(&["b.example", "c.example"]);
        let (mut records, mut folded) = folded_once(&peers);
        assert_eq!(records.len(), 3);
        // Drop a peer behind the memo's back (the run loop never does):
        // a second fold of the same slice must not read the roster.
        records.remove("c.example");
        let before = nodes_list(&records, 0, "-", 1);
        let t1 = ALIVE_RECHECK_SECS;
        let alive = checker::CheckOutcome::Alive(&peers);
        fold(&mut records, &mut folded, "a.example", t1, alive);
        assert!(!records.contains_key("c.example"));
        // The checked record itself still updates.
        let a = &records["a.example"];
        assert_eq!((a.checks, a.last_checked_secs), (2, Some(t1)));
        assert_eq!(a.next_check_secs, t1 + ALIVE_RECHECK_SECS);
        let others = |text: &str| {
            text.lines()
                .filter(|l| !l.starts_with("a.example"))
                .map(str::to_string)
                .collect::<Vec<_>>()
        };
        assert_eq!(others(&before), others(&nodes_list(&records, 0, "-", 1)));
    }

    #[test]
    fn a_newly_lent_list_is_folded_in_full() {
        let peers = domains(&["b.example", "c.example"]);
        let (mut records, mut folded) = folded_once(&peers);
        // The same contents, allocated apart, plus one domain more.
        let grown = domains(&["b.example", "c.example", "d.example"]);
        let t1 = ALIVE_RECHECK_SECS;
        let alive = checker::CheckOutcome::Alive(&grown);
        fold(&mut records, &mut folded, "a.example", t1, alive);
        assert_eq!(records.len(), 4);
        let d = &records["d.example"];
        assert_eq!((d.depth, d.discovered_secs), (2, t1));
        assert_eq!(d.next_check_secs, t1 + DISCOVERY_DELAY_SECS);
        assert_eq!(records["b.example"].discovered_secs, 0);
        assert!(std::ptr::eq(folded["a.example"], grown.as_slice()));
    }

    #[test]
    fn failed_checks_between_memoized_folds_still_update_the_record() {
        let peers = domains(&["b.example"]);
        let (mut records, mut folded) = folded_once(&peers);
        let mut t = ALIVE_RECHECK_SECS;
        for failed in [
            checker::CheckOutcome::Dead,
            checker::CheckOutcome::Unreachable,
        ] {
            fold(&mut records, &mut folded, "a.example", t, failed);
            let a = &records["a.example"];
            assert_ne!(a.state, NodeState::Alive);
            assert_eq!(a.last_change_secs, t);
            t = a.next_check_secs;
            let alive = checker::CheckOutcome::Alive(&peers);
            fold(&mut records, &mut folded, "a.example", t, alive);
            let a = &records["a.example"];
            assert_eq!((a.state, a.last_change_secs), (NodeState::Alive, t));
            assert_eq!(a.consecutive_failures, 0);
            assert_eq!(a.next_check_secs, t + ALIVE_RECHECK_SECS);
            t = a.next_check_secs;
        }
        let a = &records["a.example"];
        assert_eq!((a.checks, a.deaths, a.rebirths), (5, 1, 1));
        assert_eq!(records.len(), 2);
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
