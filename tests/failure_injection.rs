//! Crawls under adverse conditions: transient faults, brutal rate limits,
//! and heavy instance downtime must degrade coverage gracefully — never
//! corrupt data, never fabricate it, never deadlock.

use flock::apis::{ApiConfig, ApiServer, RatePolicy};
use flock::chaos::{EndpointFamily, Fault, FaultPlan};
use flock::core::{FlockError, MastodonHandle};
use flock::crawler::prelude::*;
use flock::fedisim::{World, WorldConfig};
use flock::obs::Registry;
use std::collections::BTreeSet;
use std::sync::Arc;

fn world(seed: u64) -> Arc<World> {
    Arc::new(World::generate(&WorldConfig::small().with_seed(seed)).unwrap())
}

/// A server whose every endpoint family fails a `key_rate` share of its
/// logical requests 1–5 times each: within the crawler's five retries, so
/// every fault is retried to completion.
fn faulty_api(w: &Arc<World>, key_rate: f64, obs: &Registry) -> ApiServer {
    let cfg = ApiConfig {
        chaos: FaultPlan::error_bursts(w.config.seed, key_rate, 5),
        ..ApiConfig::default()
    };
    ApiServer::with_obs(w.clone(), cfg, obs.clone()).unwrap()
}

/// Errors the plan injected on `family`.
fn injected(obs: &Registry, family: &str) -> u64 {
    obs.counter_value(&format!("flock.apis.{family}.chaos.injected_errors"))
        .unwrap_or(0)
}

#[test]
fn heavy_transient_faults_still_produce_a_consistent_dataset() {
    let w = world(1);
    let obs = Registry::new();
    let api = faulty_api(&w, 0.10, &obs);
    let ds = crawl(&api).expect("crawl should survive 10% fault rate");
    for family in ["search", "follows", "mastodon"] {
        assert!(injected(&obs, family) > 0, "no {family} faults injected");
    }
    // Every fault was retried to completion: nothing was skipped.
    assert!(ds.coverage.is_empty(), "{}", ds.coverage.summary());
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
    let obs = Registry::new();
    let faulty = crawl(&faulty_api(&w, 0.05, &obs)).unwrap();
    assert!(injected(&obs, "search") > 0, "no search faults injected");
    assert!(
        injected(&obs, "mastodon") > 0,
        "no mastodon faults injected"
    );
    // Transient faults are retried to completion, so identification must
    // not lose users.
    let a: std::collections::BTreeSet<_> = clean.matched.iter().map(|m| m.twitter_id).collect();
    let b: std::collections::BTreeSet<_> = faulty.matched.iter().map(|m| m.twitter_id).collect();
    assert_eq!(a, b, "fault retries changed the matched set");
}

/// Every page of `handle`'s Mastodon following list, waiting out rate
/// limits, up to the first other error (none for a dead instance).
fn following_as_paged(api: &ApiServer, handle: &MastodonHandle) -> Vec<MastodonHandle> {
    let mut out = Vec::new();
    let mut cursor: Option<String> = None;
    loop {
        match api.mastodon_account_following(handle, cursor.as_deref()) {
            Ok(page) => {
                out.extend(page.items);
                match page.next {
                    Some(c) => cursor = Some(c),
                    None => return out,
                }
            }
            Err(FlockError::RateLimited {
                retry_after_secs, ..
            }) => {
                api.advance_clock_to(api.now() + retry_after_secs);
            }
            Err(_) => return out,
        }
    }
}

#[test]
fn cut_short_mastodon_followee_lists_are_reported_not_kept() {
    let w = world(1234);
    let cfg = ApiConfig {
        chaos: FaultPlan {
            seed: 1234,
            faults: vec![Fault::ErrorBurst {
                family: EndpointFamily::Mastodon,
                key_rate: 0.5,
                max_per_key: 8,
            }],
        },
        ..ApiConfig::default()
    };
    let ds = crawl(&ApiServer::new(w.clone(), cfg).unwrap()).unwrap();
    let cut: BTreeSet<u64> = ds
        .coverage
        .skipped
        .iter()
        .filter_map(|s| s.item.strip_prefix("mastodon followees of "))
        .map(|id| id.parse().unwrap())
        .collect();
    assert_eq!(cut, BTreeSet::from([178, 684]), "{}", ds.coverage.summary());
    // A cut user keeps the Twitter side and no Mastodon list; every list
    // kept is the whole list a calm server pages out for that handle.
    let calm = ApiServer::with_defaults(w.clone()).unwrap();
    for (id, rec) in &ds.followees {
        if cut.contains(&id.0) {
            assert!(
                !rec.twitter.is_empty(),
                "user {} lost its Twitter side",
                id.0
            );
            assert!(rec.mastodon.is_empty(), "user {} kept a cut list", id.0);
            continue;
        }
        let m = ds.matched_by_id(*id).unwrap();
        assert_eq!(
            rec.mastodon,
            following_as_paged(&calm, &m.resolved_handle),
            "user {}",
            id.0
        );
    }
    for id in &cut {
        assert!(
            ds.followees.keys().any(|k| k.0 == *id),
            "no record for {id}"
        );
    }
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
