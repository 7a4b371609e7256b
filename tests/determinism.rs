//! Reproducibility: the same seed must reproduce the same world, crawl and
//! analysis bit-for-bit; a different seed must not.

use flock::activitypub::ActorId;
use flock::apis::{ApiConfig, ApiServer};
use flock::chaos::Scenario;
use flock::core::rng::fnv1a;
use flock::core::InstanceId;
use flock::crawler::prelude::*;
use flock::fedisim::{World, WorldConfig};
use flock::obs::Registry;
use flock::prelude::*;
use flock_analysis::rq3::{fig14_similarity, Fig14Similarity};
use flock_analysis::stats::{mean, Ecdf};
use flock_analysis::util::par_map;
use flock_analysis::HeadlineReport;
use flock_textsim::{cosine, embed, Embedding, SIMILARITY_THRESHOLD};
use std::collections::BTreeSet;
use std::fmt::Write;
use std::sync::Arc;

fn run(seed: u64) -> Dataset {
    let world = Arc::new(World::generate(&WorldConfig::small().with_seed(seed)).unwrap());
    let api = ApiServer::with_defaults(world).unwrap();
    crawl(&api).unwrap()
}

#[test]
fn identical_seeds_identical_datasets() {
    let a = run(99);
    let b = run(99);
    assert_eq!(a.collected_tweets.len(), b.collected_tweets.len());
    for (x, y) in a.collected_tweets.iter().zip(&b.collected_tweets) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.text, y.text);
        assert_eq!(x.day, y.day);
    }
    assert_eq!(a.matched.len(), b.matched.len());
    for (x, y) in a.matched.iter().zip(&b.matched) {
        assert_eq!(x.twitter_id, y.twitter_id);
        assert_eq!(x.handle, y.handle);
        assert_eq!(x.resolved_handle, y.resolved_handle);
        assert_eq!(x.matched_via, y.matched_via);
    }
    assert_eq!(a.twitter_outcomes, b.twitter_outcomes);
    assert_eq!(a.mastodon_outcomes, b.mastodon_outcomes);
    let fa: Vec<_> = {
        let mut v: Vec<_> = a.followees.iter().collect();
        v.sort_by_key(|(id, _)| **id);
        v.into_iter()
            .map(|(id, r)| (*id, r.twitter.clone()))
            .collect()
    };
    let fb: Vec<_> = {
        let mut v: Vec<_> = b.followees.iter().collect();
        v.sort_by_key(|(id, _)| **id);
        v.into_iter()
            .map(|(id, r)| (*id, r.twitter.clone()))
            .collect()
    };
    assert_eq!(fa, fb);
}

#[test]
fn identical_seeds_identical_headlines() {
    let a = HeadlineReport::compute(&run(7));
    let b = HeadlineReport::compute(&run(7));
    assert_eq!(a.n_matched, b.n_matched);
    for (x, y) in a.metrics.iter().zip(&b.metrics) {
        assert_eq!(x.name, y.name);
        assert!(
            (x.measured - y.measured).abs() < 1e-9,
            "{}: {} vs {}",
            x.name,
            x.measured,
            y.measured
        );
    }
}

/// The worker count is an execution detail, not an input: a one-worker and
/// an eight-worker crawl of the same seeded world must produce the same
/// dataset byte for byte, and therefore the same headline table.
#[test]
fn worker_count_does_not_change_the_dataset() {
    let world = Arc::new(World::generate(&WorldConfig::small().with_seed(4242)).unwrap());
    let run_with = |workers: usize| -> Dataset {
        let api = ApiServer::with_defaults(world.clone()).unwrap();
        let config = CrawlerConfig {
            workers,
            ..CrawlerConfig::default()
        };
        let mut ds = Crawler::new(&api, config).unwrap().run().unwrap();
        // Crawl *accounting* (who ate which rate-limit wait) legitimately
        // depends on scheduling; the observed data must not.
        ds.stats = CrawlStats::default();
        ds
    };
    let serial = run_with(1);
    let parallel = run_with(8);
    let a = serde_json::to_string(&serial).unwrap();
    let b = serde_json::to_string(&parallel).unwrap();
    assert_eq!(a, b, "dataset bytes differ between workers=1 and workers=8");
    assert_eq!(
        HeadlineReport::compute(&serial).to_table(),
        HeadlineReport::compute(&parallel).to_table()
    );
}

/// Same contract for the telemetry layer: the data-tier metrics snapshot —
/// granted API calls per endpoint family, items collected per phase — is a
/// function of the seeded world, so workers=1 and workers=8 must render it
/// byte for byte the same. (Scheduling-tier metrics — rate-limit
/// rejections, retry waits, queue depths — are excluded from `snapshot()`
/// by design: they legitimately vary with thread interleaving.)
#[test]
fn worker_count_does_not_change_the_metrics_snapshot() {
    let world = Arc::new(World::generate(&WorldConfig::small().with_seed(1234)).unwrap());
    let snap = |workers: usize| -> String {
        let obs = flock::obs::Registry::new();
        let api = ApiServer::with_obs(
            world.clone(),
            flock::apis::ApiConfig::default(),
            obs.clone(),
        )
        .unwrap();
        let config = CrawlerConfig {
            workers,
            ..CrawlerConfig::default()
        };
        Crawler::with_registry(&api, config, obs.clone())
            .unwrap()
            .run()
            .unwrap();
        obs.snapshot()
    };
    let serial = snap(1);
    assert!(!serial.is_empty());
    assert!(serial.contains("flock.apis.search.granted"), "{serial}");
    assert!(
        serial.contains("flock.crawler.discover.matched_users"),
        "{serial}"
    );
    let parallel = snap(8);
    assert_eq!(
        serial, parallel,
        "data-tier metrics differ between workers=1 and workers=8"
    );
}

#[test]
fn different_seeds_differ() {
    let a = run(1);
    let b = run(2);
    // Same config, different randomness: sizes are close but content is not
    // identical.
    let a_texts: Vec<&str> = a
        .collected_tweets
        .iter()
        .take(100)
        .map(|t| t.text.as_str())
        .collect();
    let b_texts: Vec<&str> = b
        .collected_tweets
        .iter()
        .take(100)
        .map(|t| t.text.as_str())
        .collect();
    assert_ne!(a_texts, b_texts);
}

/// Golden digests pin the reproduction's output across commits, not just
/// across runs: `fnv1a` of the stats-zeroed dataset JSON, of the Data-tier
/// metrics snapshot (together, the bytes of a `repro stamp`), of every
/// rendered figure, of the `export_csv` files (name and bytes, in name
/// order), of the retention and topical-alignment extensions and of the
/// pretty anonymized release (salt 1234), for the seed-1234 `small()` study
/// under a calm and a rate-limit-storm chaos plan. A refactor must leave
/// all fourteen values alone; a change that moves one on purpose updates
/// it and says why.
#[test]
fn small_study_matches_its_golden_digests() {
    let config = WorldConfig::small().with_seed(1234);
    let golden: [(Scenario, [u64; 7]); 2] = [
        (
            Scenario::Calm,
            [
                0x8cb8_62c9_6df7_aa18,
                0xfc29_b27d_d3b3_1ed1,
                0x2b95_2041_aa32_e08e,
                0xee53_fc38_d066_fa04,
                0x97c7_d09f_9895_91d7,
                0x627d_a349_2b90_0c74,
                0x4752_a5a3_561d_4da2,
            ],
        ),
        (
            Scenario::RateLimitStorm,
            [
                0x8cb8_62c9_6df7_aa18,
                0x341c_f1ee_8d3e_f94b,
                0x2b95_2041_aa32_e08e,
                0xee53_fc38_d066_fa04,
                0x97c7_d09f_9895_91d7,
                0x627d_a349_2b90_0c74,
                0x4752_a5a3_561d_4da2,
            ],
        ),
    ];
    let csv_digest = |study: &MigrationStudy, scenario: Scenario| -> u64 {
        let dir = std::env::temp_dir().join(format!(
            "flock-golden-csv-{scenario}-{}",
            std::process::id()
        ));
        study.export_csv(&dir).unwrap();
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        let mut all = String::new();
        for name in names {
            all.push_str(&name);
            all.push('\n');
            all.push_str(&std::fs::read_to_string(dir.join(&name)).unwrap());
        }
        std::fs::remove_dir_all(&dir).ok();
        fnv1a(&all)
    };
    let digests = |scenario: Scenario| -> [u64; 7] {
        let obs = Registry::new();
        let api_config = ApiConfig {
            chaos: scenario.plan(config.seed),
            ..ApiConfig::default()
        };
        let study =
            MigrationStudy::run_configured(&config, api_config, CrawlerConfig::default(), &obs)
                .unwrap();
        let mut ds = study.dataset.clone();
        ds.stats = CrawlStats::default();
        // The pretty anonymized release (`repro dump-dataset`) must read
        // back to exactly its own bytes.
        let release = ds.anonymized(1234).unwrap().to_json().unwrap();
        assert_eq!(
            Dataset::from_json(&release).unwrap().to_json().unwrap(),
            release,
            "{scenario}: the release does not re-serialize to its own bytes"
        );
        [
            fnv1a(&serde_json::to_string(&ds).unwrap()),
            fnv1a(&obs.snapshot()),
            fnv1a(&study.render_all()),
            csv_digest(&study, scenario),
            fnv1a(&study.render_retention()),
            fnv1a(&study.render_topics()),
            fnv1a(&release),
        ]
    };
    let got = golden.map(|(scenario, _)| (scenario, digests(scenario)));
    assert_eq!(
        got, golden,
        "[dataset, snapshot, figures, csv, retention, topics, release] digests moved; now {got:#x?}"
    );
}

/// The whole Mastodon follow graph a world builds over the ActivityPub
/// substrate, rendered as text: each account's first and current actor
/// (following and followers in stored order, `movedTo`, `alsoKnownAs`),
/// then the peers map the monitor crawls, instances in domain order.
fn follow_graph_digest(config: &WorldConfig) -> u64 {
    let world = World::generate(config).unwrap();
    let net = &world.fediverse;
    let handle = |id: ActorId| net.actor(id).unwrap().handle.to_string();
    let list = |ids: &[ActorId]| {
        ids.iter()
            .map(|&id| handle(id))
            .collect::<Vec<_>>()
            .join(",")
    };
    let mut all = String::new();
    for account in &world.accounts {
        let first = ActorId(account.id.index() as u32);
        for id in [first, world.actor_of(account)] {
            let actor = net.actor(id).expect("every handle is an actor");
            writeln!(
                all,
                "{} following={} followers={} moved_to={} aka={}",
                actor.handle,
                list(&actor.following),
                list(&actor.followers),
                actor.moved_to.map(handle).unwrap_or_default(),
                list(&actor.also_known_as),
            )
            .unwrap();
        }
    }
    let domain = |i: &InstanceId| net.domain(*i).unwrap();
    let rows = net.federation_peers();
    let mut instances: Vec<InstanceId> = world.instances.iter().map(|i| i.id).collect();
    instances.sort_by_key(|i| domain(i));
    for i in &instances {
        let peers: Vec<&str> = rows[i.index()].iter().map(domain).collect();
        writeln!(all, "{}: {}", domain(i), peers.join(",")).unwrap();
    }
    fnv1a(&all)
}

/// The golden digests above see the Mastodon follow graph only through the
/// crawler's sample of it. This one pins the whole graph the seed-1234
/// `small()` world builds.
#[test]
fn small_follow_graph_matches_its_golden_digest() {
    let got = follow_graph_digest(&WorldConfig::small().with_seed(1234));
    assert_eq!(
        got, 0xeb18_150e_4e12_668d,
        "follow-graph digest moved; now {got:#x}"
    );
}

/// The same graph at `medium()` seed 1234: 3,614 accounts and 166
/// switches, whose Moves reach many remote instances.
#[test]
fn medium_follow_graph_matches_its_golden_digest() {
    let got = follow_graph_digest(&WorldConfig::medium().with_seed(1234));
    assert_eq!(
        got, 0xc329_8d8c_adbc_6298,
        "medium follow-graph digest moved; now {got:#x}"
    );
}

/// The Twitter followee lists the seed-1234 `small()` world realizes, one
/// line per migrant in migrant-index order, each list in stored order.
/// RQ2 reads them through the crawler; this pins them at the source, so a
/// change to the sampler that moves a single draw shows up here.
#[test]
fn small_twitter_followees_match_their_golden_digest() {
    let world = World::generate(&WorldConfig::small().with_seed(1234)).unwrap();
    let mut all = String::new();
    for list in &world.twitter_followees {
        let ids: Vec<String> = list.iter().map(|u| u.0.to_string()).collect();
        writeln!(all, "{}", ids.join(",")).unwrap();
    }
    let got = fnv1a(&all);
    assert_eq!(
        got, 0x1627_ba72_90b2_c648,
        "twitter-followee digest moved; now {got:#x}"
    );
}

/// The goldens above pin what a crawl returns; this pins which requests it
/// makes. A one-worker crawl of the seed-1234 `small()` world runs once
/// calm and once under a rate-limit storm, and every span (trace, label,
/// virtual start and end, attempts, last outcome and waits by cause) goes
/// into one digest per plan. With one worker the schedule is fixed, so a
/// request added, dropped, reordered or retried differently moves a value.
#[test]
fn small_crawl_traffic_matches_its_golden_digests() {
    let world = Arc::new(World::generate(&WorldConfig::small().with_seed(1234)).unwrap());
    let traffic = |scenario: Scenario| -> (usize, u64, u64) {
        let obs = Registry::new();
        let api_config = ApiConfig {
            chaos: scenario.plan(1234),
            ..ApiConfig::default()
        };
        let api = ApiServer::with_obs(world.clone(), api_config, obs.clone()).unwrap();
        let config = CrawlerConfig {
            workers: 1,
            ..CrawlerConfig::default()
        };
        Crawler::with_registry(&api, config, obs.clone())
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(obs.spans_dropped(), 0, "{scenario}: the span ring evicted");
        let spans = obs.spans();
        let mut all = String::new();
        let mut attempts = 0u64;
        for s in &spans {
            attempts += u64::from(s.attempts);
            writeln!(
                all,
                "{} {} {}..{} x{} {} {:?}",
                s.trace,
                s.label,
                s.start_secs,
                s.end_secs,
                s.attempts,
                s.outcome.map_or("none", |o| o.label()),
                s.waits,
            )
            .unwrap();
        }
        (spans.len(), attempts, fnv1a(&all))
    };
    let got = [traffic(Scenario::Calm), traffic(Scenario::RateLimitStorm)];
    assert_eq!(
        got,
        [
            (1_674, 2_470, 0xa1a1_863d_2b48_4a60),
            (1_674, 2_714, 0x50e0_96ea_1e09_8042),
        ],
        "[calm, rate-limit-storm] (spans, attempts, digest) moved; now {got:#x?}"
    );
}

#[test]
fn figure_rendering_is_deterministic() {
    let s1 = MigrationStudy::run(&WorldConfig::small().with_seed(5)).unwrap();
    let s2 = MigrationStudy::run(&WorldConfig::small().with_seed(5)).unwrap();
    for id in FigureId::ALL {
        assert_eq!(s1.render(id), s2.render(id), "{id:?} differs across runs");
    }
}

/// Fig. 14 as it was computed before `similar` decided `cosine > 0.7` on
/// integer feature counts: every status embedding against every tweet
/// embedding, in floats. Kept verbatim as the reference the integer
/// decision must reproduce.
fn float_fig14_similarity(ds: &Dataset) -> Fig14Similarity {
    // Work items in `matched` order, not map order: the per-user fracs
    // feed floating-point accumulators, so iteration order is part of the
    // deterministic contract regardless of how many workers run below.
    let pairs: Vec<_> = ds
        .matched
        .iter()
        .filter_map(|m| {
            let tweets = ds.twitter_timelines.get(&m.twitter_id)?;
            let statuses = ds.mastodon_timelines.get(&m.resolved_handle)?;
            (!tweets.is_empty() && !statuses.is_empty()).then_some((tweets, statuses))
        })
        .collect();
    // Embedding every status against every tweet embedding dominates the
    // figure pipeline; users are independent, so fan them out.
    let fracs = par_map(&pairs, |&(tweets, statuses)| {
        let tweet_texts: BTreeSet<&str> = tweets.iter().map(|t| t.text.as_str()).collect();
        let tweet_embeddings: Vec<Embedding> = tweets.iter().map(|t| embed(&t.text)).collect();
        let mut identical = 0usize;
        let mut similar = 0usize;
        for s in statuses {
            if tweet_texts.contains(s.text.as_str()) {
                identical += 1;
                similar += 1;
                continue;
            }
            let e = embed(&s.text);
            if tweet_embeddings
                .iter()
                .any(|te| cosine(te, &e) > SIMILARITY_THRESHOLD)
            {
                similar += 1;
            }
        }
        (
            identical as f64 / statuses.len() as f64,
            similar as f64 / statuses.len() as f64,
        )
    });
    let identical_fracs: Vec<f64> = fracs.iter().map(|p| p.0).collect();
    let similar_fracs: Vec<f64> = fracs.iter().map(|p| p.1).collect();
    Fig14Similarity {
        mean_identical_pct: mean(identical_fracs.iter().copied()) * 100.0,
        mean_similar_pct: mean(similar_fracs.iter().copied()) * 100.0,
        fully_different_pct: similar_fracs.iter().filter(|f| **f < 0.5).count() as f64
            / similar_fracs.len().max(1) as f64
            * 100.0,
        n_users: identical_fracs.len(),
        identical: Ecdf::new(identical_fracs),
        similar: Ecdf::new(similar_fracs),
    }
}

/// Fig. 14's integer decision reproduces the float loop byte for byte on
/// the `small()` worlds of seeds 1 and 9999; the seed-1234 goldens above
/// already pin that world's figures.
#[test]
fn fig14_integer_decision_matches_the_float_loop() {
    for seed in [1, 9999] {
        let ds = run(seed);
        assert_eq!(
            serde_json::to_string(&fig14_similarity(&ds)).unwrap(),
            serde_json::to_string(&float_fig14_similarity(&ds)).unwrap(),
            "seed {seed}"
        );
    }
}
