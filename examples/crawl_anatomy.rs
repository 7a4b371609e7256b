//! Anatomy of the §3 crawl: what each pipeline stage sees, costs, and
//! loses. Runs the crawler against one world and reports collection,
//! matching, coverage, sampling and rate-limit behaviour stage by stage.
//!
//! ```sh
//! cargo run --release --example crawl_anatomy
//! ```

use flock::apis::{ApiConfig, ApiServer};
use flock::chaos::FaultPlan;
use flock::crawler::prelude::*;
use flock::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

fn main() {
    let config = WorldConfig::small().with_seed(2024);
    let world = Arc::new(flock::fedisim::World::generate(&config).expect("world"));
    println!(
        "ground truth: {} searchable users, {} true migrants, {} instances\n",
        world.users.len(),
        world.n_migrants(),
        world.instances.len()
    );

    // Inject a little transient failure so the retry path is visible: 1%
    // of the requests on every endpoint family fail once, then go through.
    let api_config = ApiConfig {
        chaos: FaultPlan::error_bursts(config.seed, 0.01, 1),
        ..ApiConfig::default()
    };
    let api = ApiServer::new(world.clone(), api_config).expect("valid api config");

    let ds = Crawler::new(&api, CrawlerConfig::default())
        .expect("valid crawler config")
        .run()
        .expect("crawl");

    println!("== §3.1 collection ==");
    let authors: HashSet<_> = ds.collected_tweets.iter().map(|t| t.author).collect();
    println!(
        "queries captured {} tweets from {} distinct users",
        ds.collected_tweets.len(),
        authors.len()
    );
    let by_kind = |k: QueryKind| ds.collected_tweets.iter().filter(|t| t.via == k).count();
    println!(
        "  via keywords: {}   via hashtags: {}   via instance links: {}",
        by_kind(QueryKind::Keyword),
        by_kind(QueryKind::Hashtag),
        by_kind(QueryKind::InstanceLink)
    );

    println!("\n== §3.1 matching ==");
    let bio = ds
        .matched
        .iter()
        .filter(|m| m.matched_via == MatchSource::Bio)
        .count();
    println!(
        "identified {} migrants ({} via bio, {} via tweet text)",
        ds.matched.len(),
        bio,
        ds.matched.len() - bio
    );
    println!(
        "ground-truth migrants missed (no visible announcement): {}",
        world.n_migrants() - ds.matched.len()
    );

    println!("\n== §3.2 timeline coverage ==");
    let tw = |o: TwitterCrawlOutcome| ds.twitter_outcomes.values().filter(|x| **x == o).count();
    println!(
        "twitter: ok {} suspended {} deleted {} protected {}",
        tw(TwitterCrawlOutcome::Ok),
        tw(TwitterCrawlOutcome::Suspended),
        tw(TwitterCrawlOutcome::Deleted),
        tw(TwitterCrawlOutcome::Protected)
    );
    let ms = |o: MastodonCrawlOutcome| ds.mastodon_outcomes.values().filter(|x| **x == o).count();
    println!(
        "mastodon: ok {} no-statuses {} instance-down {}",
        ms(MastodonCrawlOutcome::Ok),
        ms(MastodonCrawlOutcome::NoStatuses),
        ms(MastodonCrawlOutcome::InstanceDown)
    );
    let tweets: usize = ds.twitter_timelines.values().map(Vec::len).sum();
    let statuses: usize = ds.mastodon_timelines.values().map(Vec::len).sum();
    println!("collected {tweets} timeline tweets and {statuses} statuses");

    println!("\n== §3.3 followee sample ==");
    println!(
        "sampled {} users ({} switchers force-included); {} twitter followee edges",
        ds.followees.len(),
        ds.matched.iter().filter(|m| m.switched()).count(),
        ds.followees
            .values()
            .map(|r| r.twitter.len())
            .sum::<usize>()
    );

    println!("\n== crawl economics ==");
    println!(
        "{} requests, {} rate-limit waits, {} transient failures survived, {} virtual seconds (~{:.1} virtual days) of API time",
        ds.stats.requests,
        ds.stats.rate_limited,
        ds.stats.transient_failures,
        ds.stats.virtual_secs,
        ds.stats.virtual_secs as f64 / 86_400.0
    );
    println!(
        "(the follows endpoint allows 15 requests / 15 min — the reason the paper sampled 10%)"
    );
}
