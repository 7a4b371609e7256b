//! The observability contract, end to end: on the shared virtual clock,
//! **every** second of a crawl phase must be attributed to exactly one
//! wait bucket (token-bucket, Retry-After storm, outage, transient
//! backoff) — granted requests are instantaneous, so a fully attributed
//! phase reports zero residual "work". The chaos scenarios must show up
//! in the right bucket (a rate-limit storm bills Retry-After waits; calm
//! skies bill none), every request must be one span counting its
//! attempts, and the run report's Data-tier section must be
//! byte-identical across worker counts.

use flock::apis::{ApiConfig, ApiServer};
use flock::chaos::Scenario;
use flock::crawler::prelude::*;
use flock::fedisim::{World, WorldConfig};
use flock::obs::profile::phase_profiles;
use flock::obs::{Registry, WaitCause};
use flock::repro::MigrationStudy;
use std::sync::Arc;

const SEED: u64 = 1234;

fn crawl(world: &Arc<World>, scenario: Scenario, workers: usize) -> Registry {
    let obs = Registry::new();
    let config = ApiConfig {
        chaos: scenario.plan(SEED),
        ..ApiConfig::default()
    };
    let api = ApiServer::with_obs(world.clone(), config, obs.clone()).unwrap();
    let crawler_config = CrawlerConfig {
        workers,
        ..CrawlerConfig::default()
    };
    Crawler::with_registry(&api, crawler_config, obs.clone())
        .unwrap()
        .run()
        .unwrap();
    obs
}

fn small_world() -> Arc<World> {
    Arc::new(World::generate(&WorldConfig::small().with_seed(SEED)).unwrap())
}

/// The accounting identity behind the whole profiler: per phase,
/// Σ wait buckets + work = duration, with work = 0 — at any worker
/// count, under any scenario. A non-zero residue would mean some code
/// path moved the virtual clock without attributing the movement.
#[test]
fn wait_buckets_sum_to_phase_durations() {
    let world = small_world();
    for scenario in [Scenario::Calm, Scenario::RateLimitStorm] {
        for workers in [1, 8] {
            let obs = crawl(&world, scenario, workers);
            let profiles = phase_profiles(&obs);
            let request_bearing: Vec<_> = profiles.iter().filter(|p| p.requests > 0).collect();
            assert!(
                !request_bearing.is_empty(),
                "{scenario}/workers={workers}: no phases profiled"
            );
            for p in &request_bearing {
                assert_eq!(
                    p.wait_total_secs() + p.work_secs(),
                    p.duration_secs(),
                    "{scenario}/workers={workers}: phase {} accounting broken",
                    p.name
                );
                assert_eq!(
                    p.work_secs(),
                    0,
                    "{scenario}/workers={workers}: phase {} has {}s of unattributed \
                     clock movement (duration {} vs waits {:?})",
                    p.name,
                    p.work_secs(),
                    p.duration_secs(),
                    p.waits
                );
            }
            // The sub-phases tile the crawl: no virtual time falls in the
            // cracks between them.
            let crawl_span = profiles
                .iter()
                .find(|p| p.name == "crawl")
                .expect("top-level crawl phase recorded");
            let tiled: u64 = request_bearing.iter().map(|p| p.duration_secs()).sum();
            assert_eq!(
                tiled,
                crawl_span.duration_secs(),
                "{scenario}/workers={workers}: sub-phase durations do not tile the crawl"
            );
        }
    }
}

/// Calm skies must not bill a single second to the Retry-After-storm
/// bucket; a rate-limit storm must make that bucket the majority of all
/// waiting. This is what makes the report's attribution trustworthy:
/// the cause labels track the injected faults, not heuristics.
#[test]
fn storm_waits_are_billed_to_the_storm_and_only_the_storm() {
    let world = small_world();

    let calm = crawl(&world, Scenario::Calm, 1);
    let storm_secs_when_calm: u64 = calm
        .waits()
        .values()
        .map(|w| w[WaitCause::RetryAfterStorm.index()])
        .sum();
    assert_eq!(
        storm_secs_when_calm, 0,
        "calm crawl billed seconds to the Retry-After storm bucket"
    );

    let stormy = crawl(&world, Scenario::RateLimitStorm, 1);
    let totals = stormy
        .waits()
        .values()
        .fold([0u64; WaitCause::COUNT], |mut acc, w| {
            for (a, v) in acc.iter_mut().zip(w) {
                *a += v;
            }
            acc
        });
    let storm = totals[WaitCause::RetryAfterStorm.index()];
    let other: u64 = totals.iter().sum::<u64>() - storm;
    assert!(
        storm > other,
        "rate-limit storm should dominate wait attribution (storm={storm}s, other={other}s)"
    );
}

/// One span per logical request: a rate-limit-storm crawl on 4 workers
/// keeps every request's span, each span carries the worker slot that
/// drove it, at least one attempt and the last attempt's outcome, and
/// the spans' attempts add up to the crawler's own attempt counter. The
/// storm makes some request take more than one attempt.
#[test]
fn one_span_per_request_counts_its_attempts() {
    let world = small_world();
    let workers = 4;
    let obs = crawl(&world, Scenario::RateLimitStorm, workers);
    assert_eq!(obs.spans_dropped(), 0, "the span store evicted requests");
    let spans = obs.spans();
    assert!(!spans.is_empty());
    for s in &spans {
        if let Some(w) = s.worker {
            assert!(w < workers, "span {} claims worker slot {w}", s.id);
        }
        assert!(s.end_secs >= s.start_secs, "span {} ends early", s.id);
        assert!(
            s.attempts >= 1,
            "span {} ({}) has no attempt",
            s.id,
            s.label
        );
        assert!(s.outcome.is_some(), "span {} has no outcome", s.id);
    }
    let attempts: u64 = spans.iter().map(|s| u64::from(s.attempts)).sum();
    assert_eq!(
        Some(attempts),
        obs.counter_value("flock.crawler.requests.attempts")
    );
    assert!(
        spans.iter().any(|s| s.attempts > 1),
        "no request took a second attempt under the storm"
    );
}

/// The run report's Data-tier section is a pure function of
/// (seed, scale, scenario): rendering it from a one-worker and an
/// eight-worker crawl must produce identical bytes, while the
/// scheduling section is free to differ.
#[test]
fn report_data_tier_is_worker_count_invariant() {
    let config = WorldConfig::small().with_seed(SEED);
    let render = |workers: usize| -> (String, String) {
        let obs = Registry::new();
        let api_config = ApiConfig {
            chaos: Scenario::RateLimitStorm.plan(SEED),
            ..ApiConfig::default()
        };
        let crawler_config = CrawlerConfig {
            workers,
            ..CrawlerConfig::default()
        };
        let study =
            MigrationStudy::run_configured(&config, api_config, crawler_config, &obs).unwrap();
        let report = study
            .run_report(&obs, Some(Scenario::RateLimitStorm), SEED, workers)
            .unwrap();
        (report.data_section().to_string(), report.to_text())
    };
    let (data1, text1) = render(1);
    let (data8, text8) = render(8);
    assert_eq!(
        data1, data8,
        "report Data-tier section differs between workers=1 and workers=8"
    );
    // Both full reports carry the fences so consumers can carve out the
    // deterministic part mechanically.
    for text in [&text1, &text8] {
        assert!(text.contains(flock::obs::report::DATA_FENCE_BEGIN));
        assert!(text.contains(flock::obs::report::DATA_FENCE_END));
        assert!(text.contains(flock::obs::report::SCHED_FENCE_BEGIN));
        assert!(text.contains(flock::obs::report::SCHED_FENCE_END));
    }
}
