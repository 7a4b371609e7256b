//! The Twitter-side user population.
//!
//! These are the 1M-ish users whose tweets match the §3.1 search queries.
//! A configurable fraction are ground-truth migrants; the rest discuss the
//! migration without moving (the paper could only map 136k of the 1.02M
//! tweet authors to Mastodon accounts).

use crate::config::{
    WorldConfig, TWEETS_PER_DAY_MEAN, TWITTER_DEGREE_SIGMA, TWITTER_DELETED_RATE,
    TWITTER_FOLLOWEE_MEDIAN, TWITTER_FOLLOWER_MEDIAN, TWITTER_PROTECTED_RATE,
    TWITTER_SUSPENDED_RATE, TWITTER_TOXICITY_MEAN, VERIFIED_RATE,
};
use flock_core::{Day, DetRng, TwitterUserId};
use flock_textsim::Topic;
use serde::{Deserialize, Serialize};

/// What the §3.2 timeline crawl will find when it asks for this account.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccountFate {
    /// Crawlable.
    Active,
    /// Suspended by the platform (paper: 0.08% of identified migrants).
    Suspended,
    /// Deleted/deactivated by the user (paper: 2.26% — the users who
    /// "completely left Twitter", §8).
    Deleted,
    /// Tweets are protected (paper: 2.78%).
    Protected,
}

/// A Twitter account.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TwitterUser {
    pub id: TwitterUserId,
    /// Unique lowercase username.
    pub username: String,
    /// Profile display name.
    pub display_name: String,
    /// Profile bio; the migration announcer may append a Mastodon handle
    /// here (the §3.1 matcher checks metadata first).
    pub bio: String,
    /// Account creation date (median migrated account is 11.5 years old).
    pub created: Day,
    /// Legacy verified badge (paper: 4% of migrants).
    pub verified: bool,
    /// Main interest; drives topics, hashtags and topical-instance choice.
    pub primary_topic: Topic,
    /// Secondary interest.
    pub secondary_topic: Topic,
    /// Multiplicative activity/networking trait (log-normal, median 1).
    /// High-engagement users post more, follow more, and are the ones who
    /// seek out small topical instances (the Fig. 6 paradox).
    pub engagement: f64,
    /// Per-user probability that any given post is toxic.
    pub toxicity: f64,
    /// Expected tweets per day in the study window.
    pub tweet_rate: f64,
    /// Twitter follower count (scalar; lists are only realized for
    /// migrants, matching what the paper could crawl).
    pub follower_count: u64,
    /// Twitter followee count.
    pub followee_count: u64,
    /// Crawl-time account state.
    pub fate: AccountFate,
    /// Ground truth: does this user migrate during the window?
    pub is_migrant: bool,
    /// Index into the tweet-source table (the user's usual client).
    pub preferred_client: usize,
}

const NAME_ADJECTIVES: &[&str] = &[
    "quiet",
    "bright",
    "mossy",
    "rapid",
    "velvet",
    "cosmic",
    "amber",
    "silver",
    "crimson",
    "wandering",
    "curious",
    "patient",
    "fuzzy",
    "sleepy",
    "electric",
    "northern",
    "salty",
    "gentle",
    "lunar",
    "verdant",
    "rusty",
    "hollow",
    "golden",
    "misty",
    "bold",
];
const NAME_NOUNS: &[&str] = &[
    "otter", "falcon", "badger", "fern", "comet", "harbor", "willow", "ember", "raven", "maple",
    "cedar", "drift", "spark", "quill", "marsh", "summit", "pebble", "gale", "thicket", "lantern",
    "anchor", "sprout", "beacon", "prism", "burrow",
];

/// Generate a unique username for the `i`-th user.
pub fn username_for(i: usize) -> String {
    let a = NAME_ADJECTIVES[i % NAME_ADJECTIVES.len()];
    let n = NAME_NOUNS[(i / NAME_ADJECTIVES.len()) % NAME_NOUNS.len()];
    let suffix = i / (NAME_ADJECTIVES.len() * NAME_NOUNS.len());
    if suffix == 0 {
        format!("{a}_{n}")
    } else {
        format!("{a}_{n}_{suffix}")
    }
}

/// Relative popularity of topics among *Twitter* posters (Fig. 15 shows a
/// diverse mix there). Order matches [`Topic::ALL`].
fn topic_weights() -> [f64; 14] {
    // Fediverse, Migration, Entertainment, Celebrities, Politics, Tech,
    // GameDev, Ai, History, Sports, Art, Science, Food, Smalltalk
    [
        2.0, 4.0, 10.0, 6.0, 10.0, 8.0, 3.0, 3.0, 2.5, 8.0, 5.0, 4.0, 4.0, 9.0,
    ]
}

/// Generate the searchable-user population. `migrant_flags[i]` marks the
/// ground-truth migrants (chosen uniformly at random here; *when* they
/// migrate is the migration model's job).
pub fn generate_users(config: &WorldConfig, rng: &mut DetRng) -> Vec<TwitterUser> {
    let n = config.n_searchable_users;
    let weights = topic_weights();
    let mut users = Vec::with_capacity(n);
    for i in 0..n {
        let is_migrant = rng.chance(config.migrant_fraction);
        let engagement = rng.lognormal(0.0, 0.6);
        // Account age: log-normal in days, median ≈ 11.5 years (§5.1).
        let age_days = rng
            .lognormal((4200.0f64).ln(), 0.55)
            .clamp(30.0, 16.5 * 365.0);
        let primary_topic = Topic::ALL[rng.choose_weighted(&weights)];
        let secondary_topic = Topic::ALL[rng.choose_weighted(&weights)];
        let verified = rng.chance(VERIFIED_RATE);
        // Degrees: log-normal around the paper's medians, correlated with
        // engagement (active users follow and are followed more), and
        // boosted for verified accounts.
        let deg_boost = engagement.powf(0.5) * if verified { 4.0 } else { 1.0 };
        let follower_count =
            (rng.lognormal(TWITTER_FOLLOWER_MEDIAN.ln(), TWITTER_DEGREE_SIGMA) * deg_boost) as u64;
        let followee_count = (rng.lognormal(TWITTER_FOLLOWEE_MEDIAN.ln(), TWITTER_DEGREE_SIGMA)
            * engagement.powf(0.3))
        .clamp(1.0, 100_000.0) as u64;
        let fate = {
            let r = rng.f64();
            if r < TWITTER_SUSPENDED_RATE {
                AccountFate::Suspended
            } else if r < TWITTER_SUSPENDED_RATE + TWITTER_DELETED_RATE {
                AccountFate::Deleted
            } else if r < TWITTER_SUSPENDED_RATE + TWITTER_DELETED_RATE + TWITTER_PROTECTED_RATE {
                AccountFate::Protected
            } else {
                AccountFate::Active
            }
        };
        // Per-user toxicity propensity: most users are clean; a minority
        // produce nearly all toxic posts. Correlated with engagement so
        // heavy posters skew the *corpus* rate above the per-user mean
        // (paper: 5.49% of tweets vs 4.02% per-user mean).
        let toxicity = (sample_toxicity(TWITTER_TOXICITY_MEAN / 1.11, rng)
            * (0.45 + 0.55 * engagement))
            .min(0.7);
        let username = username_for(i);
        users.push(TwitterUser {
            id: TwitterUserId::from_index(i),
            display_name: display_name_from(&username),
            bio: format!(
                "{} enthusiast. opinions my own. {}",
                primary_topic.to_string().to_lowercase(),
                if verified {
                    "press inquiries via dm."
                } else {
                    ""
                }
            )
            .trim_end()
            .to_string(),
            username,
            created: Day(-(age_days as i32)),
            verified,
            primary_topic,
            secondary_topic,
            engagement,
            toxicity,
            tweet_rate: TWEETS_PER_DAY_MEAN * engagement,
            follower_count,
            followee_count,
            fate,
            is_migrant,
            preferred_client: usize::MAX, // assigned by the content model
        });
    }
    users
}

/// Heavy-tailed per-user toxic fraction with the requested mean: a small
/// core of "toxic" users and a clean majority.
fn sample_toxicity(mean: f64, rng: &mut DetRng) -> f64 {
    // 25% of users carry toxicity; within them Exp-distributed.
    if rng.chance(0.25) {
        (rng.exponential(1.0 / (mean * 4.0))).min(0.6)
    } else {
        0.0
    }
}

fn display_name_from(username: &str) -> String {
    username
        .split('_')
        .filter(|p| p.parse::<u64>().is_err())
        .map(|p| {
            let mut c = p.chars();
            match c.next() {
                Some(f) => f.to_uppercase().collect::<String>() + c.as_str(),
                None => String::new(),
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> WorldConfig {
        WorldConfig::small().with_seed(5)
    }

    #[test]
    fn usernames_unique_and_valid() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..5000 {
            let u = username_for(i);
            assert!(seen.insert(u.clone()), "dup {u}");
            assert!(flock_core::handle::is_valid_username(&u), "invalid {u}");
        }
    }

    #[test]
    fn population_size_and_migrant_fraction() {
        let c = cfg();
        let mut rng = DetRng::new(c.seed);
        let users = generate_users(&c, &mut rng);
        assert_eq!(users.len(), c.n_searchable_users);
        let migrants = users.iter().filter(|u| u.is_migrant).count();
        let expected = c.expected_migrants();
        assert!(
            (migrants as f64 - expected as f64).abs() < expected as f64 * 0.25,
            "{migrants} vs {expected}"
        );
    }

    #[test]
    fn verified_rate_close_to_config() {
        let c = WorldConfig::medium().with_seed(6);
        let mut rng = DetRng::new(c.seed);
        let users = generate_users(&c, &mut rng);
        let v = users.iter().filter(|u| u.verified).count() as f64 / users.len() as f64;
        assert!((v - VERIFIED_RATE).abs() < 0.01, "verified rate {v}");
    }

    #[test]
    fn median_account_age_near_paper() {
        let c = WorldConfig::medium().with_seed(7);
        let mut rng = DetRng::new(c.seed);
        let users = generate_users(&c, &mut rng);
        let mut ages: Vec<i32> = users.iter().map(|u| -u.created.offset()).collect();
        ages.sort_unstable();
        let median_years = ages[ages.len() / 2] as f64 / 365.0;
        assert!(
            (9.0..14.0).contains(&median_years),
            "median age {median_years} years"
        );
    }

    #[test]
    fn degree_medians_near_paper() {
        let c = WorldConfig::medium().with_seed(8);
        let mut rng = DetRng::new(c.seed);
        let users = generate_users(&c, &mut rng);
        let mut fol: Vec<u64> = users.iter().map(|u| u.followee_count).collect();
        fol.sort_unstable();
        let median = fol[fol.len() / 2] as f64;
        assert!(
            (TWITTER_FOLLOWEE_MEDIAN * 0.6..TWITTER_FOLLOWEE_MEDIAN * 1.7).contains(&median),
            "median followees {median}"
        );
    }

    #[test]
    fn toxicity_mean_near_config() {
        let c = WorldConfig::medium().with_seed(9);
        let mut rng = DetRng::new(c.seed);
        let users = generate_users(&c, &mut rng);
        let mean: f64 = users.iter().map(|u| u.toxicity).sum::<f64>() / users.len() as f64;
        assert!(
            (TWITTER_TOXICITY_MEAN * 0.6..TWITTER_TOXICITY_MEAN * 1.5).contains(&mean),
            "toxicity mean {mean}"
        );
        // The majority of users are perfectly clean.
        let clean = users.iter().filter(|u| u.toxicity == 0.0).count();
        assert!(clean > users.len() / 2);
    }

    #[test]
    fn fates_roughly_match_rates() {
        let c = WorldConfig::paper().with_seed(10);
        let mut rng = DetRng::new(c.seed);
        let users = generate_users(&c, &mut rng);
        let n = users.len() as f64;
        let frac = |f: AccountFate| users.iter().filter(|u| u.fate == f).count() as f64 / n;
        assert!((frac(AccountFate::Deleted) - TWITTER_DELETED_RATE).abs() < 0.005);
        assert!((frac(AccountFate::Protected) - TWITTER_PROTECTED_RATE).abs() < 0.005);
        assert!(frac(AccountFate::Suspended) < 0.005);
    }

    #[test]
    fn display_name_capitalizes() {
        assert_eq!(display_name_from("quiet_otter"), "Quiet Otter");
        assert_eq!(display_name_from("quiet_otter_7"), "Quiet Otter");
    }

    #[test]
    fn deterministic_generation() {
        let c = cfg();
        let mut a = DetRng::new(3);
        let mut b = DetRng::new(3);
        let ua = generate_users(&c, &mut a);
        let ub = generate_users(&c, &mut b);
        assert_eq!(ua.len(), ub.len());
        for (x, y) in ua.iter().zip(ub.iter()) {
            assert_eq!(x.username, y.username);
            assert_eq!(x.created, y.created);
            assert_eq!(x.is_migrant, y.is_migrant);
            assert_eq!(x.follower_count, y.follower_count);
        }
    }
}
