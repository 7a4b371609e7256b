//! The chaos contract, end to end: every canned fault scenario must keep
//! the crawl deterministic (same seed + plan ⇒ byte-identical dataset and
//! data-tier metrics at any worker count), a crawl interrupted at any
//! request must resume from its checkpoint to the same dataset, and a
//! degraded dataset — with
//! its coverage report of skipped items — must survive persistence and
//! anonymization.

use flock::apis::{ApiConfig, ApiServer};
use flock::chaos::Scenario;
use flock::crawler::prelude::*;
use flock::fedisim::{World, WorldConfig};
use flock::obs::profile::phase_profiles;
use flock::obs::Registry;
use flock_core::{durable, FlockError};
use std::sync::Arc;

fn chaos_api(world: &Arc<World>, scenario: Scenario, seed: u64, obs: &Registry) -> ApiServer {
    let config = ApiConfig {
        chaos: scenario.plan(seed),
        ..ApiConfig::default()
    };
    ApiServer::with_obs(world.clone(), config, obs.clone()).unwrap()
}

/// Stats are crawl *accounting* (who ate which rate-limit wait) and
/// legitimately vary with scheduling; everything else must not.
fn stats_zeroed_json(mut ds: Dataset) -> String {
    ds.stats = CrawlStats::default();
    serde_json::to_string(&ds).unwrap()
}

/// For every canned scenario: the worker count is an execution detail.
/// A one-worker and an eight-worker crawl through the same fault plan must
/// produce the same dataset (including the coverage report) byte for byte,
/// and the same data-tier metrics snapshot.
#[test]
fn every_scenario_is_worker_count_invariant() {
    let seed = 1234;
    let world = Arc::new(World::generate(&WorldConfig::small().with_seed(seed)).unwrap());
    for scenario in Scenario::ALL {
        let run = |workers: usize| -> (String, String) {
            let obs = Registry::new();
            let api = chaos_api(&world, scenario, seed, &obs);
            let config = CrawlerConfig {
                workers,
                ..CrawlerConfig::default()
            };
            let ds = Crawler::with_registry(&api, config, obs.clone())
                .unwrap()
                .run()
                .unwrap();
            (stats_zeroed_json(ds), obs.snapshot())
        };
        let (ds1, snap1) = run(1);
        let (ds8, snap8) = run(8);
        assert_eq!(
            ds1, ds8,
            "{scenario}: dataset bytes differ between workers=1 and workers=8"
        );
        assert_eq!(
            snap1, snap8,
            "{scenario}: data-tier metrics differ between workers=1 and workers=8"
        );
    }
}

/// Chaos must degrade, not derail: the noisy scenarios complete the crawl
/// and report what they had to skip, rather than erroring out.
#[test]
fn flaky_federation_degrades_gracefully() {
    let seed = 1234;
    let world = Arc::new(World::generate(&WorldConfig::small().with_seed(seed)).unwrap());
    let obs = Registry::new();
    let api = chaos_api(&world, Scenario::FlakyFederation, seed, &obs);
    let ds = Crawler::with_registry(&api, CrawlerConfig::default(), obs.clone())
        .unwrap()
        .run()
        .unwrap();
    // A crawl under calm skies must report full coverage.
    let calm_obs = Registry::new();
    let calm_api = chaos_api(&world, Scenario::Calm, seed, &calm_obs);
    let calm = Crawler::with_registry(&calm_api, CrawlerConfig::default(), calm_obs.clone())
        .unwrap()
        .run()
        .unwrap();
    assert!(calm.coverage.is_empty(), "{}", calm.coverage.summary());
    // The degraded crawl still found migrants even where it skipped items.
    assert!(!ds.matched.is_empty());
    for item in &ds.coverage.skipped {
        assert!(
            PHASES.contains(&item.phase.as_str()),
            "unknown phase {:?}",
            item.phase
        );
        assert!(!item.reason.is_empty());
    }
}

/// Crash-anywhere resume: a crawl killed at its first request, at its
/// last, and in the middle of every other phase that issues requests
/// picks up from its checkpoint and converges to the dataset an
/// uninterrupted crawl produces. Each resumed run gets a fresh ApiServer —
/// process-restart semantics: per-key chaos budgets are server state and
/// reset with the process, while completed phases come from the
/// checkpoint and are never re-crawled. The killed runs use one worker,
/// so the request an abort lands on is the same in every run; the
/// resumed runs use the default pool.
#[test]
fn interrupted_crawl_resumes_to_the_same_dataset() {
    let seed = 77;
    let scenario = Scenario::RateLimitStorm;
    let world = Arc::new(World::generate(&WorldConfig::small().with_seed(seed)).unwrap());
    let one_worker = CrawlerConfig {
        workers: 1,
        ..CrawlerConfig::default()
    };

    let obs = Registry::new();
    let api = chaos_api(&world, scenario, seed, &obs);
    let uninterrupted = Crawler::with_registry(&api, one_worker.clone(), obs.clone())
        .unwrap()
        .run()
        .unwrap();
    let total_requests = uninterrupted.stats.requests;
    assert!(total_requests > 0);
    let reference = stats_zeroed_json(uninterrupted);

    // Requests (server attempts) per phase, in execution order.
    assert_eq!(obs.spans_dropped(), 0, "the span store evicted attempts");
    let profiles = phase_profiles(&obs);
    let attempts: Vec<u64> = PHASES
        .iter()
        .map(|name| {
            profiles
                .iter()
                .find(|p| p.name == *name)
                .map_or(0, |p| p.attempts)
        })
        .collect();
    assert_eq!(attempts.iter().sum::<u64>(), total_requests);
    // The first request, the last, and the middle request of every phase
    // neither of those falls in.
    let mut points = vec![0, total_requests - 1];
    let mut before = 0;
    for &n in &attempts {
        let phase = before..before + n;
        if n > 0 && !points.iter().any(|at| phase.contains(at)) {
            points.push(before + n / 2);
        }
        before += n;
    }
    points.sort_unstable();

    let path = std::env::temp_dir().join(format!("flock-chaos-ckpt-{}.json", std::process::id()));
    let mut interrupted = vec![false; PHASES.len()];
    for &at in &points {
        let _ = std::fs::remove_file(&path);

        // First attempt: killed by the fault-injection hook before request
        // `at` (0-based) reaches the server.
        let obs = Registry::new();
        let api = chaos_api(&world, scenario, seed, &obs);
        let config = CrawlerConfig {
            abort_after_requests: Some(at),
            ..one_worker.clone()
        };
        let err = Crawler::with_registry(&api, config, obs.clone())
            .unwrap()
            .run_resumable(&path)
            .unwrap_err();
        assert!(
            matches!(err, FlockError::Interrupted),
            "abort at {at}: {err}"
        );
        let completed = durable::load_if_exists::<Checkpoint>(&path)
            .unwrap()
            .map_or(0, |cp| cp.completed.len());
        let phase = PHASES[completed];
        interrupted[completed] = true;

        // Second attempt: fresh server, no abort — resumes and completes.
        let obs = Registry::new();
        let api = chaos_api(&world, scenario, seed, &obs);
        let resumed = Crawler::with_registry(&api, CrawlerConfig::default(), obs.clone())
            .unwrap()
            .run_resumable(&path)
            .unwrap();
        assert_eq!(
            stats_zeroed_json(resumed),
            reference,
            "crawl killed at request {at} of {total_requests} (in {phase}) resumed to another dataset"
        );
    }
    let _ = std::fs::remove_file(&path);
    for ((phase, n), hit) in PHASES.iter().zip(&attempts).zip(&interrupted) {
        assert!(
            *n == 0 || *hit,
            "{phase} issues {n} requests but was never interrupted"
        );
    }
}

/// A degraded dataset — coverage report included — round-trips through the
/// persistence layer, and anonymization preserves the coverage verbatim
/// (skip reasons name queries, numeric ids and domains, never usernames).
#[test]
fn degraded_dataset_round_trips_with_coverage() {
    let seed = 1234;
    let world = Arc::new(World::generate(&WorldConfig::small().with_seed(seed)).unwrap());
    let obs = Registry::new();
    let api = chaos_api(&world, Scenario::FlakyFederation, seed, &obs);
    let ds = Crawler::with_registry(&api, CrawlerConfig::default(), obs.clone())
        .unwrap()
        .run()
        .unwrap();

    let json = ds.to_json().unwrap();
    let back = Dataset::from_json(&json).unwrap();
    assert_eq!(back.coverage, ds.coverage);
    assert_eq!(back.matched.len(), ds.matched.len());

    let anon = ds.anonymized(seed).unwrap();
    assert_eq!(anon.coverage, ds.coverage);
}

/// Pre-checkpoint datasets (serialized before the coverage field existed)
/// deserialize with an empty coverage report.
#[test]
fn coverage_field_is_backward_compatible() {
    let world = Arc::new(World::generate(&WorldConfig::small().with_seed(3)).unwrap());
    let api = ApiServer::with_defaults(world).unwrap();
    let ds = crawl(&api).unwrap();
    assert!(ds.coverage.is_empty());
    // Drop the (empty) coverage field from the compact rendering to fake a
    // dataset written by an older version of the pipeline.
    let json = serde_json::to_string(&ds).unwrap();
    let needle = r#""coverage":{"skipped":[]},"#;
    assert!(json.contains(needle), "compact rendering changed shape");
    let legacy = json.replacen(needle, "", 1);
    let back = Dataset::from_json(&legacy).unwrap();
    assert!(back.coverage.is_empty());
    assert_eq!(back.matched.len(), ds.matched.len());
}

/// Config validation runs at server construction: a NaN or out-of-range
/// error rate is a typed error, not a latent crash.
#[test]
fn invalid_api_config_is_rejected_at_construction() {
    let world = Arc::new(World::generate(&WorldConfig::small().with_seed(1)).unwrap());
    for rate in [f64::NAN, -0.1, 1.5] {
        let config = ApiConfig {
            transient_error_rate: rate,
            ..ApiConfig::default()
        };
        match ApiServer::new(world.clone(), config) {
            Ok(_) => panic!("rate {rate} accepted"),
            Err(err) => assert!(
                matches!(err, FlockError::InvalidConfig(_)),
                "rate {rate}: {err}"
            ),
        }
    }
}
