//! Paper-scale determinism: the million-user tier must honor the same
//! contract as every other scale — generation is a pure function of the
//! seed, and the crawl's dataset is byte-identical at any worker count.
//!
//! The full `paper_scale()` matrix is a tens-of-minutes job, so it is
//! opt-in: the CI bench job (and anyone debugging) sets
//! `FLOCK_PAPER_SCALE=full`. The default run uses a *proxy* config —
//! `paper_scale()`'s exact behavioural rates with the two count knobs
//! reduced — which exercises the identical plan/stream generation path,
//! columnar arenas and sorted-vec indexes, just over fewer users.

use flock::apis::ApiServer;
use flock::crawler::prelude::*;
use flock::fedisim::{World, WorldConfig};
use std::sync::Arc;

const SEED: u64 = 1234;

fn paper_proxy_config() -> WorldConfig {
    let mut config = WorldConfig::paper_scale().with_seed(SEED);
    if std::env::var("FLOCK_PAPER_SCALE").as_deref() != Ok("full") {
        // Rates untouched: only the counts shrink, so every probability
        // drawn per user is drawn from the same distributions the real
        // paper_scale tier uses.
        config.n_searchable_users = 6_000;
        config.n_instances = 160;
    }
    config
}

/// Stats are crawl accounting and legitimately vary with scheduling;
/// everything else must not.
fn stats_zeroed_json(mut ds: Dataset) -> String {
    ds.stats = CrawlStats::default();
    serde_json::to_string(&ds).unwrap()
}

/// Two generations of the same seed must agree arena-for-arena: the
/// per-user `DetRng::stream` timelines must not introduce any draw-order
/// dependence on allocation.
#[test]
fn paper_tier_generation_is_a_pure_function_of_the_seed() {
    let config = paper_proxy_config();
    let a = World::generate(&config).unwrap();
    let b = World::generate(&config).unwrap();

    assert_eq!(a.tweets.len(), b.tweets.len());
    assert_eq!(a.tweets.text_bytes(), b.tweets.text_bytes());
    for (x, y) in a.tweets.iter().zip(b.tweets.iter()) {
        assert_eq!(x.author, y.author);
        assert_eq!(x.day, y.day);
        assert_eq!(x.text, y.text);
    }
    assert_eq!(a.statuses.len(), b.statuses.len());
    assert_eq!(a.statuses.text_bytes(), b.statuses.text_bytes());
    for (x, y) in a.statuses.iter().zip(b.statuses.iter()) {
        assert_eq!(x.account, y.account);
        assert_eq!(x.day, y.day);
        assert_eq!(x.text, y.text);
    }
    assert_eq!(a.users.len(), b.users.len());
    assert_eq!(a.accounts.len(), b.accounts.len());
}

/// The crawl of the paper-tier world is byte-identical on one worker
/// and on eight.
#[test]
fn paper_tier_crawl_is_byte_identical_across_workers() {
    let world = Arc::new(World::generate(&paper_proxy_config()).unwrap());
    let run_with = |workers: usize| -> String {
        let api = ApiServer::with_defaults(world.clone()).unwrap();
        let config = CrawlerConfig {
            workers,
            ..CrawlerConfig::default()
        };
        stats_zeroed_json(Crawler::new(&api, config).unwrap().run().unwrap())
    };
    assert_eq!(
        run_with(8),
        run_with(1),
        "dataset bytes differ between workers=1 and workers=8"
    );
}
