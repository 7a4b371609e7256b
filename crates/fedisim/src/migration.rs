//! The migration model: *when* users move and *which instance* they pick.
//!
//! Timing follows the event-driven intensity of Fig. 2 — a large wave right
//! after the takeover (most migrated accounts are ≥ 30 days old by the end
//! of the window, §4), a second bump at the Nov 4 layoffs and a third at
//! the Nov 17 resignations.
//!
//! Instance choice mixes three forces, which is what produces RQ1 + RQ2:
//!
//! 1. **popularity** — Zipf-weighted preference for big, well-known
//!    instances, *damped for high-engagement users* (dedicated users seek
//!    small communities: the Fig. 6 centralization paradox);
//! 2. **topic** — users with a niche interest often pick its topical
//!    instance (`sigmoid.social` for AI, …);
//! 3. **herding** — with some probability a user simply joins the modal
//!    instance of their already-migrated friends (the §5.2 network effect:
//!    14.72% of migrated followees end up on the user's instance).

use crate::config::{
    WorldConfig, EARLY_ADOPTER_RATE, HANDLE_IN_BIO_RATE, HANDLE_IN_TWEET_RATE,
    INSTANCE_ZIPF_EXPONENT, SAME_USERNAME_RATE,
};
use crate::graph::MigrantFriendGraph;
use crate::instances::Instance;
use crate::users::TwitterUser;
use flock_core::{
    Day, DetRng, FlockError, InstanceId, MastodonAccountId, MastodonHandle, Result, TwitterUserId,
};
use flock_obs::{Registry, Tier};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A completed instance switch (§5.3).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SwitchRecord {
    /// The instance the account was created on.
    pub from: InstanceId,
    /// The instance the account moved to.
    pub to: InstanceId,
    /// When the move happened.
    pub day: Day,
    /// Seconds within the day (real APIs return full timestamps; the mover
    /// analyses need sub-day resolution to order same-day events).
    pub tod_secs: u32,
}

/// A ground-truth Mastodon account created by a migrating Twitter user.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MastodonAccount {
    pub id: MastodonAccountId,
    /// The Twitter user who owns it (ground truth; the §3.1 matcher has to
    /// *recover* this mapping from announcements).
    pub owner: TwitterUserId,
    /// Current handle (changes on switch).
    pub handle: MastodonHandle,
    /// Handle on the first instance.
    pub first_handle: MastodonHandle,
    /// Current instance.
    pub instance: InstanceId,
    /// Instance the account was created on.
    pub first_instance: InstanceId,
    /// Account creation day (21% of accounts predate the takeover).
    pub created: Day,
    /// Creation time within the day, in seconds (ties on the big wave days
    /// are broken by this, like real `created_at` timestamps).
    pub created_tod_secs: u32,
    /// The day the user announced the move on Twitter.
    pub announced: Day,
    /// Handle is present in the Twitter bio (matched first by §3.1).
    pub in_bio: bool,
    /// Handle was tweeted (matched only if usernames are identical).
    pub in_tweet: bool,
    /// Instance switch, if the user performed one.
    pub switch: Option<SwitchRecord>,
}

impl MastodonAccount {
    /// `true` if the Mastodon username equals the Twitter username
    /// (paper: 72% of migrants).
    pub fn same_username(&self, twitter_username: &str) -> bool {
        self.first_handle.username() == twitter_username
    }
}

/// Per-day migration intensity over the collection window (Fig. 2's shape).
/// Out-of-window days have zero intensity.
pub fn migration_intensity(day: Day) -> f64 {
    match day.offset() {
        25 => 0.6,
        26 => 4.0,  // takeover closes
        27 => 42.0, // the big wave: most migrated accounts are ≥ 30 days
        28 => 48.0, // old by the end of the window (§4's 50.59%)
        29 => 28.0,
        30 => 17.0,
        31 => 7.0,
        32 => 4.0,
        33 => 3.0,
        34 => 8.5, // layoffs
        35 => 7.0,
        36 => 4.5,
        37 => 3.0,
        38 => 2.5,
        39..=46 => 2.0 - 0.1 * (day.offset() - 39) as f64,
        47 => 6.5, // resignations
        48 => 5.0,
        49 => 3.4,
        50 => 2.0,
        51 => 1.4,
        _ => 0.0,
    }
}

/// Sample an announcement day from the intensity curve.
pub fn sample_migration_day(rng: &mut DetRng) -> Day {
    let days: Vec<Day> = (Day::COLLECTION_START.offset()..=Day::COLLECTION_END.offset())
        .map(Day)
        .collect();
    let weights: Vec<f64> = days.iter().map(|d| migration_intensity(*d)).collect();
    days[rng.choose_weighted(&weights)]
}

/// Derive the Mastodon username: identical to the Twitter one with
/// probability `same_rate` (the world passes [`SAME_USERNAME_RATE`]),
/// otherwise a recognizable variant.
fn mastodon_username(twitter_username: &str, same_rate: f64, rng: &mut DetRng) -> (String, bool) {
    if rng.chance(same_rate) {
        (twitter_username.to_string(), true)
    } else {
        // Variant suffixes are alphabetic only: numeric suffixes could
        // collide with the base population's generated usernames.
        let suffix = ["fedi", "toots", "masto", "online", "real"];
        let s = *rng.choose(&suffix);
        let mut name = format!("{twitter_username}_{s}");
        // Mastodon's 30-char limit. A plain `String::truncate(30)` panics
        // when byte 30 falls inside a multi-byte character (any long
        // username with accents or CJK), so cut at a char boundary.
        flock_core::text::truncate_to_boundary(&mut name, 30);
        (name, false)
    }
}

/// Rank-offset of the popularity law: a *shifted* Zipf
/// `w(rank) = 1/(rank + SHIFT)^s` flattens the head (the top handful of
/// general instances are comparably attractive — Fig. 4's histogram is not
/// a cliff) while keeping the long tail thin.
const RANK_SHIFT: f64 = 4.0;

/// Extra pull of `mastodon.social` beyond its rank: it is the instance the
/// press told everyone about (§4: "a flagship Mastodon instance operated by
/// Mastodon gGmbH receives the largest fraction of migrated Twitter
/// users").
const FLAGSHIP_BOOST: f64 = 1.8;

/// The engagement-damping quantization buckets of [`InstanceSampler`].
const DAMPING_BUCKETS: [f64; 7] = [0.5, 0.75, 1.0, 1.4, 2.0, 2.8, 3.5];

/// Precomputed instance-choice distributions, one per engagement-damping
/// bucket. High-engagement users get a flatter exponent (they seek out
/// small communities); sampling is a binary search over cumulative weights.
pub struct InstanceSampler {
    /// `(damping bucket value, cumulative weights by rank)`.
    tables: Vec<(f64, Vec<f64>)>,
}

impl InstanceSampler {
    /// Build the per-bucket cumulative tables.
    pub fn new(n_instances: usize, base_exponent: f64) -> Self {
        let tables = DAMPING_BUCKETS
            .iter()
            .map(|&damping| {
                let s = (base_exponent / damping).max(0.2);
                let mut acc = 0.0;
                let cumulative: Vec<f64> = (0..n_instances)
                    .map(|rank| {
                        let boost = if rank == 0 { FLAGSHIP_BOOST } else { 1.0 };
                        acc += boost / (rank as f64 + RANK_SHIFT).powf(s);
                        acc
                    })
                    .collect();
                (damping, cumulative)
            })
            .collect();
        InstanceSampler { tables }
    }

    /// Sample an instance rank for a user with the given engagement.
    pub fn sample(&self, engagement: f64, rng: &mut DetRng) -> usize {
        let damping = engagement.clamp(0.5, 3.5);
        let (_, table) = self
            .tables
            .iter()
            .min_by(|a, b| (a.0 - damping).abs().total_cmp(&(b.0 - damping).abs()))
            // flock-lint: allow(panic) DAMPING_BUCKETS is a non-empty const, so `new` always builds >=1 table
            .expect("non-empty buckets");
        // flock-lint: allow(panic) `new` builds each table with one entry per instance and n_instances >= 1
        let total = *table.last().expect("instances exist");
        let x = rng.f64() * total;
        table.partition_point(|c| *c < x).min(table.len() - 1)
    }
}

/// Rank from which instances count as "deep tail" for community snapping.
const TAIL_START: usize = 40;

/// Choose an instance for `user`, given the instances their already-migrated
/// friends picked and the tail instances already seeded by earlier movers.
#[allow(clippy::too_many_arguments)]
pub fn choose_instance(
    user: &TwitterUser,
    friend_instances: &[InstanceId],
    instances: &[Instance],
    sampler: &InstanceSampler,
    seeded_tail: &mut Vec<InstanceId>,
    config: &WorldConfig,
    rng: &mut DetRng,
) -> InstanceId {
    // 1. Herding: join the friends' modal instance.
    if !friend_instances.is_empty() && rng.chance(config.herding_probability) {
        let mut counts: BTreeMap<InstanceId, usize> = BTreeMap::new();
        for &i in friend_instances {
            *counts.entry(i).or_insert(0) += 1;
        }
        if let Some(modal) = counts
            .iter()
            .max_by_key(|(id, c)| (**c, std::cmp::Reverse(id.raw())))
            .map(|(id, _)| *id)
        {
            return modal;
        }
    }
    // 2. Topical: dedicated users with a niche interest go to its server.
    if user.primary_topic.has_topical_instance() {
        let affinity = (0.45 * user.engagement).min(0.80);
        if rng.chance(affinity) {
            let topical: Vec<&Instance> = instances
                .iter()
                .filter(|i| i.topic == Some(user.primary_topic))
                .collect();
            if !topical.is_empty() {
                let weights: Vec<f64> = topical.iter().map(|i| i.popularity.sqrt()).collect();
                return topical[rng.choose_weighted(&weights)].id;
            }
        }
    }
    // 3. Popularity with engagement damping: high engagement flattens the
    // law, pushing dedicated users into the tail.
    let rank = sampler.sample(user.engagement, rng);
    // Tail community formation (Fig. 6a): deep-tail joiners usually pick a
    // small server where *someone* already is (word of mouth) rather than a
    // uniformly random empty one. Only *dedicated* users strike out alone —
    // running or seeding a brand-new instance is a self-hoster move, which
    // is exactly why single-user instances host the most active users
    // (the §4 paradox).
    if rank >= TAIL_START {
        let dedicated = user.engagement > 1.6;
        if !dedicated {
            if !seeded_tail.is_empty() {
                return seeded_tail[rng.below_usize(seeded_tail.len())];
            }
            // No small community exists yet: settle for a mid-size server.
            let mid = TAIL_START.min(instances.len()) - 1;
            return instances[mid - rng.below_usize(mid / 2 + 1)].id;
        }
        if !seeded_tail.is_empty() && rng.chance(0.65) {
            return seeded_tail[rng.below_usize(seeded_tail.len())];
        }
        let id = instances[rank].id;
        if !seeded_tail.contains(&id) {
            seeded_tail.push(id);
        }
        return id;
    }
    instances[rank].id
}

/// Run the migration model: decide each migrant's announcement day,
/// instance, handle and account-creation date. Migrants are processed in
/// announcement-day order so herding can observe earlier movers.
///
/// `migrant_users` maps migrant index → user index; the returned accounts
/// are in migrant-index order (`accounts[i].id == MastodonAccountId(i)`).
pub fn run_migration(
    users: &[TwitterUser],
    migrant_users: &[usize],
    graph: &MigrantFriendGraph,
    instances: &[Instance],
    config: &WorldConfig,
    rng: &mut DetRng,
) -> Result<Vec<MastodonAccount>> {
    let n = migrant_users.len();
    assert_eq!(graph.len(), n, "graph must cover the migrant set");

    // Announcement days, sampled independently per migrant.
    let days: Vec<Day> = (0..n).map(|_| sample_migration_day(rng)).collect();

    // Process in day order (ties broken by index for determinism).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (days[i], i));

    let mut chosen_instance: Vec<Option<InstanceId>> = vec![None; n];
    let mut accounts: Vec<Option<MastodonAccount>> = vec![None; n];
    let sampler = InstanceSampler::new(instances.len(), INSTANCE_ZIPF_EXPONENT);
    let mut seeded_tail: Vec<InstanceId> = Vec::new();

    for &mi in &order {
        let user = &users[migrant_users[mi]];
        let friend_instances: Vec<InstanceId> = graph
            .friends(mi)
            .iter()
            .filter_map(|&f| chosen_instance[f as usize])
            .collect();
        let inst = choose_instance(
            user,
            &friend_instances,
            instances,
            &sampler,
            &mut seeded_tail,
            config,
            rng,
        );
        chosen_instance[mi] = Some(inst);

        let (m_username, _same) = mastodon_username(&user.username, SAME_USERNAME_RATE, rng);
        let handle = MastodonHandle::new(&m_username, &instances[inst.index()].domain)?;

        // 21% of accounts predate the takeover (early adopters who only
        // *announced* during the window); the rest are created when the
        // user announces (occasionally a day earlier — people set up the
        // account, then tweet).
        let announced = days[mi];
        let created = if rng.chance(EARLY_ADOPTER_RATE) {
            let span = 25 - instances[inst.index()].created.offset().max(-1800);
            Day(25 - rng.range_i64(1, i64::from(span.max(2))) as i32)
        } else {
            let lag = if rng.chance(0.25) { 1 } else { 0 };
            Day((announced.offset() - lag).max(Day::COLLECTION_START.offset()))
        };

        let in_bio = rng.chance(HANDLE_IN_BIO_RATE);
        // Users who do not put the handle in their bio almost always tweet
        // it (otherwise nobody could find them — or the §3.1 matcher, which
        // is exactly how the paper under-counts).
        let in_tweet = if in_bio {
            rng.chance(HANDLE_IN_TWEET_RATE)
        } else {
            rng.chance(0.93)
        };

        accounts[mi] = Some(MastodonAccount {
            id: MastodonAccountId::from_index(mi),
            owner: user.id,
            handle: handle.clone(),
            first_handle: handle,
            instance: inst,
            first_instance: inst,
            created,
            created_tod_secs: rng.below(86_400) as u32,
            announced,
            in_bio,
            in_tweet,
            switch: None,
        });
    }

    accounts
        .into_iter()
        .enumerate()
        .map(|(mi, a)| {
            a.ok_or_else(|| {
                FlockError::InvalidConfig(format!("migrant {mi} was never assigned an account"))
            })
        })
        .collect()
}

/// Record the ground-truth migration shape into `obs`: a total-migrant
/// counter and per-wave account-creation counters for the three Fig. 2
/// event waves (takeover, layoffs, resignations — each wave is the event
/// day plus the two days after it). Everything here derives from
/// generated world data, so all of it is deterministic (data-tier).
pub fn emit_migration_telemetry(accounts: &[MastodonAccount], obs: &Registry) {
    let migrants = obs.counter("flock.fedisim.migration.migrants", Tier::Data);
    migrants.add(accounts.len() as u64);
    let waves: [(&str, Day); 3] = [
        ("takeover", Day::TAKEOVER),
        ("layoffs", Day::LAYOFFS),
        ("resignations", Day::RESIGNATIONS),
    ];
    for (name, start) in waves {
        let in_wave = accounts
            .iter()
            .filter(|a| (start.offset()..start.offset() + 3).contains(&a.created.offset()))
            .count() as u64;
        obs.counter(&format!("flock.fedisim.migration.wave_{name}"), Tier::Data)
            .add(in_wave);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::build_friend_graph;
    use crate::instances::generate_instances;
    use crate::users::generate_users;

    fn setup() -> (
        WorldConfig,
        Vec<TwitterUser>,
        Vec<usize>,
        MigrantFriendGraph,
        Vec<Instance>,
    ) {
        let config = WorldConfig::small().with_seed(21);
        let mut rng = DetRng::new(config.seed);
        let users = generate_users(&config, &mut rng.fork("users"));
        let migrants: Vec<usize> = users
            .iter()
            .enumerate()
            .filter(|(_, u)| u.is_migrant)
            .map(|(i, _)| i)
            .collect();
        let graph = build_friend_graph(migrants.len(), 12.0, 0.9, 0.04, &mut rng.fork("graph"));
        let instances = generate_instances(
            config.n_instances,
            INSTANCE_ZIPF_EXPONENT,
            &mut rng.fork("inst"),
        );
        (config, users, migrants, graph, instances)
    }

    #[test]
    fn multibyte_usernames_truncate_without_panicking() {
        // Regression: `name.truncate(30)` panicked whenever byte 30 fell
        // inside a multi-byte character of `<twitter_username>_<suffix>`.
        let mut rng = DetRng::new(7);
        for base in [
            "ünïcödé_üser_with_ä_lööong_nam", // 2-byte chars straddling 30
            "日本語のユーザー名で長いもの",   // 3-byte chars
            "🦣🦣🦣🦣🦣🦣🦣🦣🦣🦣",           // 4-byte chars
        ] {
            for _ in 0..64 {
                let (name, same) = mastodon_username(base, 0.0, &mut rng);
                assert!(!same);
                assert!(name.len() <= 30, "{name:?} is {} bytes", name.len());
                assert!(name.is_char_boundary(name.len()));
            }
        }
    }

    #[test]
    fn intensity_peaks_after_takeover() {
        let peak = Day(28);
        for d in Day::study_days() {
            assert!(migration_intensity(d) <= migration_intensity(peak));
        }
        assert_eq!(migration_intensity(Day(0)), 0.0);
        assert_eq!(migration_intensity(Day(60)), 0.0);
        assert!(migration_intensity(Day::LAYOFFS) > migration_intensity(Day(33)));
        assert!(migration_intensity(Day::RESIGNATIONS) > migration_intensity(Day(46)));
    }

    #[test]
    fn sampled_days_lie_in_window_and_cluster_early() {
        let mut rng = DetRng::new(1);
        let days: Vec<Day> = (0..5000).map(|_| sample_migration_day(&mut rng)).collect();
        assert!(days.iter().all(|d| d.in_collection_window()));
        let early = days
            .iter()
            .filter(|d| (26..=30).contains(&d.offset()))
            .count();
        let frac = early as f64 / days.len() as f64;
        assert!((0.45..0.75).contains(&frac), "early-wave fraction {frac}");
    }

    #[test]
    fn accounts_cover_all_migrants_with_valid_handles() {
        let (config, users, migrants, graph, instances) = setup();
        let mut rng = DetRng::new(99);
        let accounts =
            run_migration(&users, &migrants, &graph, &instances, &config, &mut rng).unwrap();
        assert_eq!(accounts.len(), migrants.len());
        for (i, a) in accounts.iter().enumerate() {
            assert_eq!(a.id.index(), i);
            assert_eq!(a.owner, users[migrants[i]].id);
            assert_eq!(a.instance, a.first_instance);
            assert_eq!(a.handle.instance(), instances[a.instance.index()].domain);
            assert!(a.created <= Day::COLLECTION_END);
            assert!(a.announced.in_collection_window());
            assert!(a.switch.is_none());
        }
    }

    #[test]
    fn migration_telemetry_counts_waves() {
        let (config, users, migrants, graph, instances) = setup();
        let mut rng = DetRng::new(99);
        let accounts =
            run_migration(&users, &migrants, &graph, &instances, &config, &mut rng).unwrap();
        let obs = Registry::new();
        emit_migration_telemetry(&accounts, &obs);
        let get = |k: &str| {
            obs.counter_value(&format!("flock.fedisim.migration.{k}"))
                .unwrap_or(0)
        };
        assert_eq!(get("migrants"), accounts.len() as u64);
        // The takeover wave dominates Fig. 2 by construction.
        assert!(get("wave_takeover") > get("wave_layoffs"));
        assert!(get("wave_takeover") > get("wave_resignations"));
        let total = get("wave_takeover") + get("wave_layoffs") + get("wave_resignations");
        assert!(total <= get("migrants"));
        assert!(obs
            .export_text()
            .contains("counter flock.fedisim.migration.wave_takeover "));
        // Emission is deterministic: a second registry sees the same shape.
        let obs2 = Registry::new();
        emit_migration_telemetry(&accounts, &obs2);
        assert_eq!(obs.snapshot(), obs2.snapshot());
    }

    #[test]
    fn same_username_rate_near_config() {
        let (config, users, migrants, graph, instances) = setup();
        let mut rng = DetRng::new(100);
        let accounts =
            run_migration(&users, &migrants, &graph, &instances, &config, &mut rng).unwrap();
        let same = accounts
            .iter()
            .enumerate()
            .filter(|(i, a)| a.same_username(&users[migrants[*i]].username))
            .count() as f64
            / accounts.len() as f64;
        assert!((same - SAME_USERNAME_RATE).abs() < 0.08, "same-rate {same}");
    }

    #[test]
    fn early_adopter_rate_near_config() {
        let (config, users, migrants, graph, instances) = setup();
        let mut rng = DetRng::new(101);
        let accounts =
            run_migration(&users, &migrants, &graph, &instances, &config, &mut rng).unwrap();
        let early = accounts
            .iter()
            .filter(|a| !a.created.is_post_takeover())
            .count() as f64
            / accounts.len() as f64;
        assert!(
            (early - EARLY_ADOPTER_RATE).abs() < 0.09,
            "early rate {early}"
        );
    }

    #[test]
    fn flagship_attracts_the_most_users() {
        let (config, users, migrants, graph, instances) = setup();
        let mut rng = DetRng::new(102);
        let accounts =
            run_migration(&users, &migrants, &graph, &instances, &config, &mut rng).unwrap();
        let mut counts = vec![0usize; instances.len()];
        for a in &accounts {
            counts[a.instance.index()] += 1;
        }
        let max = counts.iter().copied().max().unwrap();
        assert_eq!(counts[0], max, "mastodon.social must lead (fig 4)");
        assert!(counts[0] >= accounts.len() / 10);
    }

    #[test]
    fn herding_increases_same_instance_fraction() {
        let (mut config, users, migrants, graph, instances) = setup();
        let frac_same = |cfg: &WorldConfig, seed: u64| {
            let mut rng = DetRng::new(seed);
            let accounts =
                run_migration(&users, &migrants, &graph, &instances, cfg, &mut rng).unwrap();
            let mut same = 0.0;
            let mut total = 0.0;
            for (i, a) in accounts.iter().enumerate() {
                let friends = graph.friends(i);
                if friends.is_empty() {
                    continue;
                }
                let on_same = friends
                    .iter()
                    .filter(|&&f| accounts[f as usize].instance == a.instance)
                    .count();
                same += on_same as f64 / friends.len() as f64;
                total += 1.0;
            }
            same / total
        };
        config.herding_probability = 0.0;
        let low = frac_same(&config, 7);
        config.herding_probability = 0.5;
        let high = frac_same(&config, 7);
        assert!(
            high > low + 0.05,
            "herding must raise co-location: {low} -> {high}"
        );
    }

    #[test]
    fn usernames_variants_are_valid() {
        let mut rng = DetRng::new(11);
        for i in 0..200 {
            let base = crate::users::username_for(i);
            let (name, same) = mastodon_username(&base, 0.5, &mut rng);
            assert!(flock_core::handle::is_valid_username(&name), "{name}");
            if same {
                assert_eq!(name, base);
            } else {
                assert_ne!(name, base);
            }
        }
    }
}

#[cfg(test)]
mod sampler_tests {
    use super::*;

    #[test]
    fn sampler_ranks_in_bounds() {
        let sampler = InstanceSampler::new(500, 2.25);
        let mut rng = DetRng::new(1);
        for _ in 0..10_000 {
            let e = 0.3 + rng.f64() * 3.5;
            assert!(sampler.sample(e, &mut rng) < 500);
        }
    }

    #[test]
    fn higher_engagement_means_deeper_ranks() {
        let sampler = InstanceSampler::new(500, 2.25);
        let mut rng = DetRng::new(2);
        let mean_rank = |eng: f64, rng: &mut DetRng| -> f64 {
            (0..20_000)
                .map(|_| sampler.sample(eng, rng) as f64)
                .sum::<f64>()
                / 20_000.0
        };
        let casual = mean_rank(0.7, &mut rng);
        let dedicated = mean_rank(3.0, &mut rng);
        assert!(
            dedicated > casual * 2.0,
            "dedicated users must sample deeper: {casual:.1} vs {dedicated:.1}"
        );
    }

    #[test]
    fn flagship_is_boosted_over_rank_one() {
        let sampler = InstanceSampler::new(100, 2.25);
        let mut rng = DetRng::new(3);
        let mut counts = [0usize; 2];
        for _ in 0..50_000 {
            let r = sampler.sample(1.0, &mut rng);
            if r < 2 {
                counts[r] += 1;
            }
        }
        // With the 1.8 boost plus the shifted-Zipf ratio, rank 0 must beat
        // rank 1 by well over the no-boost ratio of (6/5)^2.25 ≈ 1.5.
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!(ratio > 1.8, "flagship/second ratio {ratio:.2}");
    }

    #[test]
    fn singleton_instances_are_seeded_by_dedicated_users_only() {
        use crate::graph::build_friend_graph;
        use crate::instances::generate_instances;
        use crate::users::generate_users;
        let config = WorldConfig::medium().with_seed(61);
        let mut rng = DetRng::new(config.seed);
        let users = generate_users(&config, &mut rng.fork("users"));
        let migrants: Vec<usize> = users
            .iter()
            .enumerate()
            .filter(|(_, u)| u.is_migrant)
            .map(|(i, _)| i)
            .collect();
        let graph = build_friend_graph(migrants.len(), 12.0, 0.55, 0.045, &mut rng.fork("g"));
        let instances = generate_instances(
            config.n_instances,
            INSTANCE_ZIPF_EXPONENT,
            &mut rng.fork("i"),
        );
        let accounts = run_migration(
            &users,
            &migrants,
            &graph,
            &instances,
            &config,
            &mut rng.fork("m"),
        )
        .unwrap();
        // Users alone on their instance, deep in the tail, must all be
        // dedicated (the self-hoster rule).
        let mut count_per_instance = std::collections::BTreeMap::new();
        for a in &accounts {
            *count_per_instance.entry(a.first_instance).or_insert(0usize) += 1;
        }
        for (mi, a) in accounts.iter().enumerate() {
            if count_per_instance[&a.first_instance] == 1 && a.first_instance.index() >= TAIL_START
            {
                let eng = users[migrants[mi]].engagement;
                assert!(
                    eng > 1.25,
                    "casual user (engagement {eng:.2}) alone on tail instance {}",
                    a.first_instance
                );
            }
        }
    }
}
