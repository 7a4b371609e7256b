//! The continuous-monitoring contract, end to end.
//!
//! The monitor's promise is the crawler's, stretched over weeks of
//! virtual uptime: the nodes-list artifact and the Data-tier metrics are
//! a pure function of `(world seed, chaos plan, monitor config)` — the
//! worker-pool thread count is an execution detail; an interrupted run
//! resumes from its checkpoint, at any round boundary, to the same bytes; a
//! death is noticed, and a rebirth is noticed no later than the
//! configured backoff cap after the outage lifts; and every second of
//! monitored virtual time is attributed to a wait bucket. A round spreads
//! over the pool only when it is wide enough to repay the threads.

use flock::apis::{ApiConfig, ApiServer};
use flock::chaos::{Fault, FaultPlan, InstanceSelector, Scenario, Window};
use flock::core::rng::fnv1a;
use flock::fedisim::{World, WorldConfig};
use flock::monitor::{self, MonitorConfig, NodeState};
use flock::obs::profile::phase_profiles;
use flock::obs::Registry;
use std::sync::Arc;

fn monitor_api(world: &Arc<World>, plan: FaultPlan, obs: &Registry) -> ApiServer {
    let config = ApiConfig {
        chaos: plan,
        ..ApiConfig::default()
    };
    ApiServer::with_obs(world.clone(), config, obs.clone()).unwrap()
}

fn base_config(world: &World) -> MonitorConfig {
    MonitorConfig {
        bootstrap: world.flagship_domains(),
        ..MonitorConfig::default()
    }
}

/// The worker slot of every check, read off the span each check opens.
fn check_slots(obs: &Registry) -> Vec<Option<usize>> {
    assert_eq!(obs.spans_dropped(), 0, "the span store evicted checks");
    obs.spans()
        .into_iter()
        .filter(|s| s.trace == monitor::PHASE && s.label.starts_with("peers:"))
        .map(|s| s.worker)
        .collect()
}

/// The worker-pool thread count is a Sched-tier knob: every cell must
/// produce the same nodes list and the same Data-tier snapshot, byte for
/// byte, through a chaos plan with outage waves (instances die *and*
/// come back mid-run). The one-thread reference run (75 rounds, 836
/// checks) is also pinned to golden digests, so a change that moved
/// every cell the same way still fails here.
#[test]
fn monitor_is_thread_count_invariant() {
    let seed = 1234;
    let world = Arc::new(World::generate(&WorldConfig::small().with_seed(seed)).unwrap());
    let run = |threads: usize| -> (String, String) {
        let obs = Registry::new();
        let api = monitor_api(&world, Scenario::RollingOutages.plan(seed), &obs);
        let cfg = MonitorConfig {
            sim_days: 7,
            threads,
            ..base_config(&world)
        };
        let out = monitor::run(&api, &obs, &cfg).unwrap();
        assert!(out.completed);
        assert!(out.checks_total > 0);
        (
            monitor::nodes_list(&out.records, seed, "rolling-outages", cfg.sim_days),
            obs.snapshot(),
        )
    };
    let (nodes_ref, snap_ref) = run(1);
    assert_eq!(
        fnv1a(&nodes_ref),
        0xdf51_dafd_8a24_97dd,
        "nodes list golden moved"
    );
    assert_eq!(
        fnv1a(&snap_ref),
        0xa6f2_7a07_1610_b0cd,
        "Data-tier snapshot golden moved"
    );
    for threads in [2, 8] {
        let (nodes, snap) = run(threads);
        assert_eq!(nodes, nodes_ref, "nodes list differs at threads={threads}");
        assert_eq!(snap, snap_ref, "data snapshot differs at threads={threads}");
    }
}

/// Narrow rounds run on the calling thread: no round of the
/// flagship-bootstrapped week reaches two workers' worth of checks, so at
/// 8 threads every check still runs as worker 0 and no round spawns a
/// thread.
#[test]
fn narrow_rounds_run_on_the_calling_thread() {
    let seed = 1234;
    let world = Arc::new(World::generate(&WorldConfig::small().with_seed(seed)).unwrap());
    let obs = Registry::new();
    let api = monitor_api(&world, Scenario::RollingOutages.plan(seed), &obs);
    let cfg = MonitorConfig {
        sim_days: 7,
        threads: 8,
        ..base_config(&world)
    };
    let out = monitor::run(&api, &obs, &cfg).unwrap();
    assert!(out.completed);
    let slots = check_slots(&obs);
    assert_eq!(slots.len() as u64, out.checks_total);
    assert!(
        slots.iter().all(|&w| w == Some(0)),
        "a narrow round left the calling thread"
    );
}

/// A check is one span: the monitor records exactly one span per check
/// and counts the check's server attempts on it, so the span ring holds
/// checks, not attempts.
#[test]
fn every_check_is_one_span_counting_its_attempts() {
    let seed = 1234;
    let world = Arc::new(World::generate(&WorldConfig::small().with_seed(seed)).unwrap());
    let obs = Registry::new();
    let api = monitor_api(&world, Scenario::RollingOutages.plan(seed), &obs);
    let cfg = MonitorConfig {
        sim_days: 7,
        threads: 1,
        ..base_config(&world)
    };
    let out = monitor::run(&api, &obs, &cfg).unwrap();
    assert!(out.completed);
    assert_eq!(
        obs.span_count() as u64 + obs.spans_dropped(),
        out.checks_total,
        "spans recorded per check"
    );
    for s in obs.spans() {
        assert_eq!(s.trace, monitor::PHASE);
        assert!(s.attempts >= 1, "check span {} has no attempt", s.label);
        assert!(s.outcome.is_some(), "check span {} has no outcome", s.label);
    }
}

/// Wide rounds spread over the pool without moving a byte: bootstrapping
/// all 300 domains of a `small()` world makes the first round 300 checks
/// wide, which 8 threads split over 4 workers. The nodes list and the
/// Data-tier snapshot match the one-thread run's.
#[test]
fn wide_rounds_spread_over_workers_with_identical_bytes() {
    let seed = 1234;
    let config = WorldConfig {
        n_instances: 300,
        ..WorldConfig::small()
    };
    let world = Arc::new(World::generate(&config.with_seed(seed)).unwrap());
    let bootstrap: Vec<String> = world.instances.iter().map(|i| i.domain.clone()).collect();
    assert_eq!(bootstrap.len(), 300);
    let run = |threads: usize| {
        let obs = Registry::new();
        let api = monitor_api(&world, Scenario::RollingOutages.plan(seed), &obs);
        let cfg = MonitorConfig {
            sim_days: 2,
            threads,
            bootstrap: bootstrap.clone(),
            ..MonitorConfig::default()
        };
        let out = monitor::run(&api, &obs, &cfg).unwrap();
        assert!(out.completed);
        (
            monitor::nodes_list(&out.records, seed, "rolling-outages", cfg.sim_days),
            obs.snapshot(),
            check_slots(&obs),
        )
    };
    let (nodes_ref, snap_ref, slots) = run(1);
    assert!(slots.iter().all(|&w| w == Some(0)));
    let (nodes, snap, slots) = run(8);
    assert_eq!(nodes, nodes_ref, "nodes list differs at threads=8");
    assert_eq!(snap, snap_ref, "data snapshot differs at threads=8");
    assert!(
        slots.iter().all(|w| w.is_some_and(|w| w < 4)),
        "a round of at most 300 checks took more than 4 workers"
    );
    assert!(
        slots.iter().any(|w| w.is_some_and(|w| w > 0)),
        "no check of a 300-check round ran off the calling thread"
    );
}

/// Rolling outages must actually exercise the liveness state machine:
/// some instance dies, and some instance is seen alive again after its
/// outage lifts.
#[test]
fn monitor_observes_deaths_and_rebirths_under_rolling_outages() {
    let seed = 1;
    let world = Arc::new(World::generate(&WorldConfig::small().with_seed(seed)).unwrap());
    let obs = Registry::new();
    let api = monitor_api(&world, Scenario::RollingOutages.plan(seed), &obs);
    let cfg = MonitorConfig {
        sim_days: 14,
        ..base_config(&world)
    };
    let out = monitor::run(&api, &obs, &cfg).unwrap();
    let deaths: u64 = out.records.values().map(|r| r.deaths).sum();
    let rebirths: u64 = out.records.values().map(|r| r.rebirths).sum();
    assert!(deaths > 0, "no instance ever died under rolling outages");
    assert!(rebirths > 0, "no rebirth observed after the waves lifted");
    // Discovery must have expanded well past the bootstrap set.
    assert!(out.records.len() > cfg.bootstrap.len());
    assert!(out
        .records
        .values()
        .any(|r| r.depth > 0 && r.state == NodeState::Alive));
}

/// Interrupt-then-resume byte-equality: a run stopped (with a
/// checkpoint) after a few rounds and resumed in a fresh process — fresh
/// API server, fresh registry — renders exactly the nodes list of an
/// uninterrupted run.
#[test]
fn interrupted_monitor_resumes_to_identical_nodes_list() {
    let seed = 9;
    let world = Arc::new(World::generate(&WorldConfig::small().with_seed(seed)).unwrap());
    let sim_days = 3;

    let uninterrupted = {
        let obs = Registry::new();
        let api = monitor_api(&world, Scenario::RollingOutages.plan(seed), &obs);
        let cfg = MonitorConfig {
            sim_days,
            ..base_config(&world)
        };
        let out = monitor::run(&api, &obs, &cfg).unwrap();
        monitor::nodes_list(&out.records, seed, "rolling-outages", sim_days)
    };

    let dir = std::env::temp_dir().join("flock_monitor_resume_test");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("monitor.ckpt");
    std::fs::remove_file(&ckpt).ok();

    // First process: stop after five rounds, leaving a checkpoint.
    {
        let obs = Registry::new();
        let api = monitor_api(&world, Scenario::RollingOutages.plan(seed), &obs);
        let cfg = MonitorConfig {
            sim_days,
            checkpoint_path: Some(ckpt.clone()),
            stop_after_rounds: Some(5),
            ..base_config(&world)
        };
        let out = monitor::run(&api, &obs, &cfg).unwrap();
        assert!(!out.completed);
        assert!(ckpt.exists(), "interrupted run left no checkpoint");
        // The checkpoint's bytes are pinned across commits, like the
        // dataset goldens in tests/determinism.rs.
        let saved = std::fs::read_to_string(&ckpt).unwrap();
        assert_eq!(
            fnv1a(&saved),
            0x1d6a_9a10_489b_4bf0,
            "the five-round checkpoint's bytes moved"
        );
    }

    // Second process: fresh server and registry, resume to the horizon.
    let resumed = {
        let obs = Registry::new();
        let api = monitor_api(&world, Scenario::RollingOutages.plan(seed), &obs);
        let cfg = MonitorConfig {
            sim_days,
            checkpoint_path: Some(ckpt.clone()),
            ..base_config(&world)
        };
        let out = monitor::run(&api, &obs, &cfg).unwrap();
        assert_eq!(out.resumed_from_round, Some(5));
        assert!(out.completed);
        monitor::nodes_list(&out.records, seed, "rolling-outages", sim_days)
    };
    std::fs::remove_file(&ckpt).ok();

    assert_eq!(
        resumed, uninterrupted,
        "resumed nodes list differs from uninterrupted run"
    );
}

/// Crash-anywhere resume at monitor grain: a chain of runs, each
/// stopped after a single round, resumes from the one shared checkpoint
/// at every round boundary of the horizon and still renders exactly the
/// nodes list of an uninterrupted run. Every link has a fresh registry;
/// the links share one API server, whose clock the checkpoint already
/// carries forward. Before each resume a torn temp file sits beside the
/// checkpoint, as a writer killed inside its durable write leaves one: the
/// resume reads past it, and it never replaces the checkpoint.
#[test]
fn monitor_resumes_at_every_round_boundary() {
    let seed = 9;
    let world = Arc::new(World::generate(&WorldConfig::small().with_seed(seed)).unwrap());
    let sim_days = 3;

    let (uninterrupted, rounds) = {
        let obs = Registry::new();
        let api = monitor_api(&world, Scenario::RollingOutages.plan(seed), &obs);
        let cfg = MonitorConfig {
            sim_days,
            ..base_config(&world)
        };
        let out = monitor::run(&api, &obs, &cfg).unwrap();
        assert!(out.completed);
        (
            monitor::nodes_list(&out.records, seed, "rolling-outages", sim_days),
            out.rounds,
        )
    };

    let dir = std::env::temp_dir().join("flock_monitor_round_chain_test");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("monitor.ckpt");
    std::fs::remove_file(&ckpt).ok();
    let torn = dir.join(format!(".monitor.ckpt.tmp.{}", std::process::id() + 1));

    let api = monitor_api(
        &world,
        Scenario::RollingOutages.plan(seed),
        &Registry::new(),
    );
    let mut links = 0u64;
    let resumed = loop {
        let obs = Registry::new();
        let cfg = MonitorConfig {
            sim_days,
            checkpoint_path: Some(ckpt.clone()),
            stop_after_rounds: Some(1),
            ..base_config(&world)
        };
        let good = std::fs::read(&ckpt).unwrap_or_default();
        let torn_bytes = &good[..good.len() / 2];
        std::fs::write(&torn, torn_bytes).unwrap();
        let out = monitor::run(&api, &obs, &cfg).unwrap();
        assert_eq!(std::fs::read(&torn).unwrap(), torn_bytes, "link {links}");
        let saved = std::fs::read(&ckpt).ok();
        assert_ne!(saved.as_deref(), Some(torn_bytes), "link {links}");
        let expected_start = if links == 0 { None } else { Some(links) };
        assert_eq!(out.resumed_from_round, expected_start, "link {links}");
        links += 1;
        if out.completed {
            break monitor::nodes_list(&out.records, seed, "rolling-outages", sim_days);
        }
        assert_eq!(out.rounds, links, "link {links} did not run one round");
    };
    std::fs::remove_file(&ckpt).ok();
    std::fs::remove_file(&torn).ok();

    // One link per round, plus the last, which finds nothing due.
    assert_eq!(links, rounds + 1, "the chain skipped a round boundary");
    assert_eq!(
        resumed, uninterrupted,
        "round-by-round resumed nodes list differs from uninterrupted run"
    );
}

/// Death → rebirth detection latency is bounded by the failure-backoff
/// cap: once a permanent-looking outage lifts, the next scheduled
/// re-check — at most `backoff_cap_secs` after the lift — flips the
/// record back to alive.
#[test]
fn rebirth_detection_latency_is_bounded_by_the_backoff_cap() {
    let seed = 7;
    let world = Arc::new(World::generate(&WorldConfig::small().with_seed(seed)).unwrap());
    let victim = world.outage_candidates().into_iter().next().unwrap();
    let lift_secs = 2 * 86_400;
    let plan = FaultPlan {
        seed,
        faults: vec![Fault::InstanceOutage {
            selector: InstanceSelector::Domains(vec![victim.clone()]),
            window: Window {
                start_secs: 86_400,
                end_secs: lift_secs,
            },
        }],
    };
    let obs = Registry::new();
    let api = monitor_api(&world, plan, &obs);
    let cfg = MonitorConfig {
        sim_days: 4,
        bootstrap: vec![victim.clone()],
        backoff_cap_secs: 14_400,
        ..MonitorConfig::default()
    };
    let out = monitor::run(&api, &obs, &cfg).unwrap();
    let rec = &out.records[&victim];
    assert_eq!(rec.deaths, 1, "outage window never observed as a death");
    assert_eq!(rec.rebirths, 1, "lifted outage never observed as a rebirth");
    assert_eq!(rec.state, NodeState::Alive);
    // The rebirth's scheduled instant is the last state change; it may
    // trail the lift by at most one capped backoff.
    assert!(rec.last_change_secs >= lift_secs);
    assert!(
        rec.last_change_secs - lift_secs <= cfg.backoff_cap_secs,
        "rebirth seen {}s after the lift, cap is {}s",
        rec.last_change_secs - lift_secs,
        cfg.backoff_cap_secs
    );
}

/// The attribution identity holds over the whole monitored horizon:
/// every virtual second of the monitor phase lands in some wait bucket
/// (idle, rate-limit, storm, transient backoff) and none is left as
/// unattributed "work" — the monitor never computes in virtual time.
#[test]
fn monitor_phase_waits_sum_to_the_horizon() {
    let seed = 1234;
    let world = Arc::new(World::generate(&WorldConfig::small().with_seed(seed)).unwrap());
    let obs = Registry::new();
    let api = monitor_api(&world, Scenario::RollingOutages.plan(seed), &obs);
    let cfg = MonitorConfig {
        sim_days: 7,
        threads: 8,
        ..base_config(&world)
    };
    let out = monitor::run(&api, &obs, &cfg).unwrap();
    assert!(out.completed);
    let profiles = phase_profiles(&obs);
    let p = profiles
        .iter()
        .find(|p| p.name == monitor::PHASE)
        .expect("monitor phase profiled");
    assert_eq!(p.duration_secs(), cfg.sim_days * 86_400);
    // Every profiled request is a check: the orchestrator's idle waits
    // reach the phase ledger without a span of their own.
    assert!(p.requests > 0);
    assert_eq!(p.requests, out.checks_total);
    assert_eq!(
        p.work_secs(),
        0,
        "unattributed clock movement: duration {} != waits {}",
        p.duration_secs(),
        p.wait_total_secs()
    );
}
