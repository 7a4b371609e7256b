//! Crawls under adverse conditions: transient faults, brutal rate limits,
//! and heavy instance downtime must degrade coverage gracefully — never
//! corrupt data, never fabricate it, never deadlock.

use flock::apis::{ApiConfig, ApiServer, RatePolicy};
use flock::chaos::Scenario;
use flock::core::FlockError;
use flock::crawler::prelude::*;
use flock::fedisim::{World, WorldConfig};
use std::sync::Arc;

fn world(seed: u64) -> Arc<World> {
    Arc::new(World::generate(&WorldConfig::small().with_seed(seed)).unwrap())
}

#[test]
fn heavy_transient_faults_still_produce_a_consistent_dataset() {
    let w = world(1);
    let cfg = ApiConfig {
        transient_error_rate: 0.10,
        ..ApiConfig::default()
    };
    let api = ApiServer::new(w.clone(), cfg).unwrap();
    let ds = crawl(&api).expect("crawl should survive 10% fault rate");
    assert!(
        ds.stats.transient_failures > 0,
        "faults must have been injected"
    );
    // Consistency under faults: no phantom matches.
    for m in &ds.matched {
        assert!(w.account_by_handle(&m.handle).is_some());
    }
    // Coverage maps stay total over matched users.
    assert_eq!(ds.twitter_outcomes.len(), ds.matched.len());
    assert_eq!(ds.mastodon_outcomes.len(), ds.matched.len());
}

#[test]
fn fault_free_and_faulty_crawls_agree_on_the_matched_set() {
    let w = world(2);
    let clean = crawl(&ApiServer::with_defaults(w.clone()).unwrap()).unwrap();
    let cfg = ApiConfig {
        transient_error_rate: 0.05,
        ..ApiConfig::default()
    };
    let faulty = crawl(&ApiServer::new(w.clone(), cfg).unwrap()).unwrap();
    // Transient faults are retried to completion, so identification must
    // not lose users.
    let a: std::collections::BTreeSet<_> = clean.matched.iter().map(|m| m.twitter_id).collect();
    let b: std::collections::BTreeSet<_> = faulty.matched.iter().map(|m| m.twitter_id).collect();
    assert_eq!(a, b, "fault retries changed the matched set");
}

#[test]
fn draconian_rate_limits_cost_time_not_data() {
    let w = world(3);
    let default_ds = crawl(&ApiServer::with_defaults(w.clone()).unwrap()).unwrap();

    let cfg = ApiConfig {
        search_policy: RatePolicy {
            capacity: 10,
            window_secs: 900,
        },
        follows_policy: RatePolicy {
            capacity: 2,
            window_secs: 900,
        },
        mastodon_policy: RatePolicy {
            capacity: 30,
            window_secs: 300,
        },
        ..ApiConfig::default()
    };
    let api = ApiServer::new(w.clone(), cfg).unwrap();
    let ds = crawl(&api).unwrap();

    assert_eq!(ds.matched.len(), default_ds.matched.len());
    assert_eq!(ds.collected_tweets.len(), default_ds.collected_tweets.len());
    assert!(
        ds.stats.rate_limited > default_ds.stats.rate_limited,
        "tighter limits must cause more waiting"
    );
    assert!(
        ds.stats.virtual_secs > default_ds.stats.virtual_secs,
        "tighter limits must cost more virtual time"
    );
}

/// A transient backoff configured near `u64::MAX` drives the virtual
/// clock to the top of its range: it must *saturate* there — no wrap, no
/// panic, no livelock. With the clock pinned at the ceiling, later waits
/// can no longer move time, so the run may end in the typed retry-budget
/// error (the fail-fast the budget exists for), but never in anything
/// else. The flaky-federation scenario guarantees the transient faults
/// that trigger the backoff.
#[test]
fn huge_transient_backoff_saturates_the_virtual_clock() {
    let cfg = ApiConfig {
        chaos: Scenario::FlakyFederation.plan(1234),
        ..ApiConfig::default()
    };
    let api = ApiServer::new(world(1234), cfg).unwrap();
    let config = CrawlerConfig {
        workers: 4,
        transient_backoff_secs: u64::MAX,
        max_transient_retries: 2,
        // With the clock pinned at the ceiling, budget starvation is how
        // the run ends; a small budget keeps that ending fast.
        max_rate_limit_wait_secs: 3_600,
        ..CrawlerConfig::default()
    };
    match Crawler::new(&api, config).unwrap().run() {
        Ok(_) | Err(FlockError::RetryBudgetExhausted { .. }) => {}
        Err(e) => panic!("expected a clean end or the budget error, got {e}"),
    }
    assert_eq!(api.now(), u64::MAX, "clock wrapped instead of saturating");
}

#[test]
fn pervasive_downtime_shrinks_mastodon_coverage_only() {
    let mut config = WorldConfig::small().with_seed(4);
    config.instance_down_rate = 0.45;
    let w = Arc::new(World::generate(&config).unwrap());
    let ds = crawl(&ApiServer::with_defaults(w.clone()).unwrap()).unwrap();
    let down = ds
        .mastodon_outcomes
        .values()
        .filter(|o| **o == MastodonCrawlOutcome::InstanceDown)
        .count() as f64
        / ds.mastodon_outcomes.len() as f64;
    // The top-5 instances always stay up and hold much of the population,
    // so the realized share undershoots the request — but it must be far
    // above the default 11.58%.
    assert!(down > 0.22, "downtime share {down}");
    // Twitter-side coverage is unaffected.
    let tw_ok = ds
        .twitter_outcomes
        .values()
        .filter(|o| **o == TwitterCrawlOutcome::Ok)
        .count() as f64
        / ds.twitter_outcomes.len() as f64;
    assert!(tw_ok > 0.85);
}

#[test]
fn zero_switchers_world_still_analyzes() {
    let mut config = WorldConfig::small().with_seed(5);
    config.switch_rate = 0.0;
    let w = Arc::new(World::generate(&config).unwrap());
    let ds = crawl(&ApiServer::with_defaults(w).unwrap()).unwrap();
    assert!(ds.matched.iter().all(|m| !m.switched()));
    let f9 = flock_analysis::fig9_switching(&ds);
    assert_eq!(f9.n_switchers, 0);
    assert!(f9.flows.is_empty());
    let f10 = flock_analysis::fig10_switcher_influence(&ds);
    assert_eq!(f10.n_switchers_with_followees, 0);
}

#[test]
fn crossposterless_world_still_analyzes() {
    let mut config = WorldConfig::small().with_seed(6);
    config.crossposter_rate = 0.0;
    config.manual_mirror_rate = 0.0;
    let w = Arc::new(World::generate(&config).unwrap());
    let ds = crawl(&ApiServer::with_defaults(w).unwrap()).unwrap();
    let f13 = flock_analysis::fig13_crossposters(&ds);
    assert_eq!(f13.ever_used_pct, 0.0);
    let f14 = flock_analysis::fig14_similarity(&ds);
    // Only accidental similarity remains.
    assert!(f14.mean_identical_pct < 0.5, "{}", f14.mean_identical_pct);
    assert!(f14.mean_similar_pct < 8.0, "{}", f14.mean_similar_pct);
}
