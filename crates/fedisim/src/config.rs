//! World configuration: scale presets, the rates a study varies, and every
//! other behavioural rate as a constant, each anchored to the paper
//! statistic it reproduces.
//!
//! The reproduction target is the *proportions* the paper reports, not its
//! absolute counts (our substrate is a simulator, not Nov-2022 Twitter), so
//! the presets scale the population down while keeping every rate intact.
//! [`WorldConfig`] holds the scale and the rates a follow-up study varies on
//! its own sample (herding, switching, cross-posting, abandonment, downtime,
//! background registrations); the rest are the `pub const`s below.

use flock_core::FlockError;

// ---- §3.1 identification ------------------------------------------------

/// P(migrant reuses their Twitter username on Mastodon) (paper: 72%).
pub const SAME_USERNAME_RATE: f64 = 0.645;
/// P(migrant puts the Mastodon handle in their Twitter bio). Bio matches are
/// accepted for any username; tweet-text matches only when usernames are
/// identical, so this drives identification coverage.
pub const HANDLE_IN_BIO_RATE: f64 = 0.62;
/// P(migrant tweets their handle at migration time).
pub const HANDLE_IN_TWEET_RATE: f64 = 0.75;
/// P(searchable non-migrant tweets migration keywords on a given
/// event-window day) — the noise corpus the search must sift.
pub const NOISE_TWEET_RATE: f64 = 0.065;
/// P(migrant has legacy verified status) (paper: 4%).
pub const VERIFIED_RATE: f64 = 0.04;

// ---- §3.2 crawl-coverage fates ------------------------------------------

/// P(identified migrant's Twitter account is suspended at crawl time)
/// (paper: 0.08%).
pub const TWITTER_SUSPENDED_RATE: f64 = 0.0008;
/// P(deleted/deactivated at crawl time) (paper: 2.26%).
pub const TWITTER_DELETED_RATE: f64 = 0.0226;
/// P(tweets protected at crawl time) (paper: 2.78%).
pub const TWITTER_PROTECTED_RATE: f64 = 0.0278;
/// P(migrant never posted a status) (paper: 9.20%).
pub const NEVER_POSTED_RATE: f64 = 0.092;

// ---- §4 instance landscape ----------------------------------------------

/// Zipf exponent of instance popularity. Calibrated so ≈ 96% of users land
/// on the top 25% of instances (Fig. 5) with a heavy single-user tail
/// (13.16% of instances, Fig. 6a).
pub const INSTANCE_ZIPF_EXPONENT: f64 = 2.25;
/// P(Mastodon account predates the takeover) (paper: 21%).
pub const EARLY_ADOPTER_RATE: f64 = 0.21;

// ---- §5 social network --------------------------------------------------

/// Median Twitter followees of migrated users (paper: 787).
pub const TWITTER_FOLLOWEE_MEDIAN: f64 = 787.0;
/// Median Twitter followers of migrated users (paper: 744).
pub const TWITTER_FOLLOWER_MEDIAN: f64 = 744.0;
/// Log-normal sigma for both Twitter degree distributions.
pub const TWITTER_DEGREE_SIGMA: f64 = 1.1;
/// Mean fraction of a migrant's followees who also migrate (paper: 5.99%).
pub const FOLLOWEE_MIGRANT_FRACTION: f64 = 0.0599;
/// Fraction of a migrant's migrated Twitter followees they manage to
/// re-follow on Mastodon (drives the 38/48 median degrees of Fig. 7).
pub const MASTODON_REFOLLOW_RATE: f64 = 0.75;
/// Mean number of *local* (same-instance) discoveries a migrant follows on
/// Mastodon, scaled by engagement.
pub const MASTODON_LOCAL_FOLLOW_MEAN: f64 = 30.0;

// ---- §5.3 switching -----------------------------------------------------

/// P(a switch happens after the takeover | switch) (paper: 97.22%).
pub const SWITCH_POST_TAKEOVER_RATE: f64 = 0.9722;

// ---- §6 content ---------------------------------------------------------

/// Mean tweets/day of an active migrant during the window
/// (paper: 16.1M tweets / 129k users / 61 days ≈ 2.0).
pub const TWEETS_PER_DAY_MEAN: f64 = 2.0;
/// Mean statuses/day once on Mastodon (paper: 5.7M / 107k / ~30 days,
/// ramping from 0 at join).
pub const STATUSES_PER_DAY_MEAN: f64 = 1.6;
/// Per-post mirror probability for manual mirrorers (paraphrased, hence
/// "similar" not "identical").
pub const MANUAL_MIRROR_PER_POST: f64 = 0.95;
/// Per-post mirror probability for cross-poster users (identical text).
pub const CROSSPOST_PER_POST: f64 = 0.28;
/// Mean days between joining and going quiet, for abandoners.
pub const MASTODON_ABANDON_AFTER_DAYS_MEAN: f64 = 16.0;
/// Mean per-user toxic fraction on Twitter (paper: 4.02%).
pub const TWITTER_TOXICITY_MEAN: f64 = 0.0402;
/// Multiplier applied to a user's toxicity on Mastodon (paper observes
/// 2.07% vs 4.02% ⇒ ≈ 0.5).
pub const MASTODON_TOXICITY_FACTOR: f64 = 0.5;

// ---- background fediverse activity (Fig. 3) -----------------------------

/// Surge multiplier applied to background registrations after the takeover
/// (Mastodon gained 1M+ users while the paper tracked 136k, i.e. most of the
/// wave is invisible to the §3.1 method).
pub const BACKGROUND_SURGE_FACTOR: f64 = 9.0;

/// The settable part of the simulated world: its scale and the rates a
/// study varies.
///
/// Defaults reproduce the paper's published rates; the scale fields choose
/// how many users/instances/posts to simulate.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Master seed; every subsystem forks its own stream from it.
    pub seed: u64,

    // ---- scale ----------------------------------------------------------
    /// Users who post tweets matching the §3.1 search queries
    /// (paper: 1,024,577). Only a minority actually migrate.
    pub n_searchable_users: usize,
    /// Fraction of searchable users who truly migrate. The paper identified
    /// 136,009 of 1,024,577 ⇒ ≈ 13.3% (their method is a lower bound; we
    /// generate slightly more ground-truth migrants than get identified).
    pub migrant_fraction: f64,
    /// Instances on the global `instances.social`-style list
    /// (paper: 15,886; migrants landed on 2,879 of them).
    pub n_instances: usize,

    // ---- §3.2 crawl-coverage fates --------------------------------------
    /// P(a migrant's instance is down at Mastodon crawl time)
    /// (paper: 11.58% of users were on unreachable instances).
    pub instance_down_rate: f64,

    // ---- §5 social network ----------------------------------------------
    /// P(choosing the modal instance of one's already-migrated friends
    /// instead of sampling by popularity/topic) — the herding knob behind
    /// the 14.72% same-instance statistic.
    pub herding_probability: f64,

    // ---- §5.3 switching --------------------------------------------------
    /// P(a migrant switches instance during the window) (paper: 4.09%).
    pub switch_rate: f64,

    // ---- §6 content -------------------------------------------------------
    /// P(user runs a cross-posting tool) (paper: 5.73% used one at least
    /// once).
    pub crossposter_rate: f64,
    /// P(user manually mirrors some content without a tool). Together with
    /// cross-posters this complements the 84.45% of users whose content is
    /// fully different.
    pub manual_mirror_rate: f64,
    /// P(a migrant abandons Mastodon before the window ends). The paper's
    /// §8 asks whether users retain their accounts; follow-up studies in
    /// early 2023 found roughly a quarter of the wave going quiet within
    /// weeks — this knob drives the `retention` extension analysis.
    pub mastodon_abandon_rate: f64,

    // ---- background fediverse activity (Fig. 3) ---------------------------
    /// Untracked background registrations per instance per week before the
    /// takeover (scaled by instance popularity).
    pub background_weekly_registrations: f64,
}

impl WorldConfig {
    /// CI/test scale: ≈ 2.5k searchable users, ≈ 330 migrants. Runs the
    /// whole pipeline in well under a second.
    pub fn small() -> Self {
        WorldConfig {
            n_searchable_users: 2_500,
            n_instances: 120,
            ..WorldConfig::default_rates(11)
        }
    }

    /// Demo scale: ≈ 25k searchable users, ≈ 3.3k migrants, 500 instances.
    pub fn medium() -> Self {
        WorldConfig {
            n_searchable_users: 25_000,
            n_instances: 500,
            ..WorldConfig::default_rates(11)
        }
    }

    /// Closest-to-paper scale that still runs in minutes: a 1:10 scaling of
    /// the paper's counts (≈ 102k searchable users, ≈ 13.6k migrants,
    /// ≈ 1,589 instances).
    pub fn paper() -> Self {
        WorldConfig {
            n_searchable_users: 102_458,
            n_instances: 1_589,
            ..WorldConfig::default_rates(11)
        }
    }

    /// Full paper scale, 1:1 with the study's counts: 1,024,577 searchable
    /// users and 15,886 listed instances, every behavioural rate unchanged.
    /// Around 150k ground-truth migrants and tens of millions of posts —
    /// this is the preset the columnar tweet and status arenas exist for.
    /// The one recorded run (commit `347e61f`, in `BENCH_history.jsonl`)
    /// took 781 s to generate, 64 s to crawl and 554 s to analyze, and
    /// peaked at 43.2 GB of RSS.
    pub fn paper_scale() -> Self {
        WorldConfig {
            n_searchable_users: 1_024_577,
            n_instances: 15_886,
            ..WorldConfig::default_rates(11)
        }
    }

    /// The paper-calibrated rates with everything else defaulted.
    fn default_rates(seed: u64) -> Self {
        WorldConfig {
            seed,
            n_searchable_users: 2_500,
            migrant_fraction: 0.146,
            n_instances: 120,
            instance_down_rate: 0.1158,
            herding_probability: 0.22,
            switch_rate: 0.046,
            crossposter_rate: 0.0573,
            manual_mirror_rate: 0.16,
            mastodon_abandon_rate: 0.22,
            background_weekly_registrations: 6.0,
        }
    }

    /// Override the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Expected number of ground-truth migrants, rounded to nearest (a
    /// truncating cast here understated the expectation by up to a user).
    pub fn expected_migrants(&self) -> usize {
        (self.n_searchable_users as f64 * self.migrant_fraction).round() as usize
    }

    /// Validate that every probability is a probability, every scale is
    /// non-degenerate and the background registration rate is a finite,
    /// non-negative mean.
    pub fn validate(&self) -> Result<(), FlockError> {
        let probs: [(&str, f64); 7] = [
            ("migrant_fraction", self.migrant_fraction),
            ("instance_down_rate", self.instance_down_rate),
            ("herding_probability", self.herding_probability),
            ("switch_rate", self.switch_rate),
            ("crossposter_rate", self.crossposter_rate),
            ("manual_mirror_rate", self.manual_mirror_rate),
            ("mastodon_abandon_rate", self.mastodon_abandon_rate),
        ];
        for (name, p) in probs {
            if !(0.0..=1.0).contains(&p) {
                return Err(FlockError::InvalidConfig(format!(
                    "{name} = {p} is not a probability"
                )));
            }
        }
        if self.n_searchable_users < 100 {
            return Err(FlockError::InvalidConfig(
                "need at least 100 searchable users".into(),
            ));
        }
        if self.n_instances < 10 {
            return Err(FlockError::InvalidConfig(
                "need at least 10 instances".into(),
            ));
        }
        if self.expected_migrants() < 20 {
            return Err(FlockError::InvalidConfig(
                "migrant_fraction × n_searchable_users too small".into(),
            ));
        }
        let bg = self.background_weekly_registrations;
        if !(bg.is_finite() && bg >= 0.0) {
            return Err(FlockError::InvalidConfig(format!(
                "background_weekly_registrations = {bg} is not a finite, non-negative mean"
            )));
        }
        Ok(())
    }
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig::small()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        WorldConfig::small().validate().unwrap();
        WorldConfig::medium().validate().unwrap();
        WorldConfig::paper().validate().unwrap();
        WorldConfig::paper_scale().validate().unwrap();
    }

    #[test]
    fn paper_scale_matches_the_study_counts() {
        let c = WorldConfig::paper_scale();
        assert_eq!(c.n_searchable_users, 1_024_577);
        assert_eq!(c.n_instances, 15_886);
        // Rates are the same calibration as every other preset.
        let base = WorldConfig::paper();
        assert_eq!(c.migrant_fraction, base.migrant_fraction);
        assert_eq!(c.instance_down_rate, base.instance_down_rate);
        let m = c.expected_migrants();
        assert!((130_000..160_000).contains(&m), "{m}");
    }

    #[test]
    fn expected_migrants_rounds_to_nearest() {
        let mut c = WorldConfig::small();
        c.n_searchable_users = 1_000;
        c.migrant_fraction = 0.1466; // 146.6 → 147, not a truncated 146
        assert_eq!(c.expected_migrants(), 147);
    }

    #[test]
    fn paper_preset_is_one_tenth_scale() {
        let c = WorldConfig::paper();
        // 1,024,577 / 10 ≈ 102,458 searchable users; 15,886 / 10 ≈ 1,589.
        assert_eq!(c.n_searchable_users, 102_458);
        assert_eq!(c.n_instances, 1_589);
        // ≈ 13,600 ground-truth migrants (the paper identified 13,601 at
        // this scale).
        let m = c.expected_migrants();
        assert!((13_000..16_000).contains(&m), "{m}");
    }

    #[test]
    fn invalid_probability_rejected() {
        let mut c = WorldConfig::small();
        c.switch_rate = 1.5;
        assert!(c.validate().is_err());
        c.switch_rate = -0.1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn bad_background_registrations_rejected() {
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let mut c = WorldConfig::small();
            c.background_weekly_registrations = bad;
            assert!(
                matches!(c.validate(), Err(FlockError::InvalidConfig(_))),
                "{bad} accepted"
            );
        }
        let mut c = WorldConfig::small();
        c.background_weekly_registrations = 0.0;
        c.validate().unwrap();
    }

    #[test]
    fn constants_are_in_range() {
        let probs = [
            SAME_USERNAME_RATE,
            HANDLE_IN_BIO_RATE,
            HANDLE_IN_TWEET_RATE,
            NOISE_TWEET_RATE,
            VERIFIED_RATE,
            TWITTER_SUSPENDED_RATE,
            TWITTER_DELETED_RATE,
            TWITTER_PROTECTED_RATE,
            // The three account fates partition one uniform draw.
            TWITTER_SUSPENDED_RATE + TWITTER_DELETED_RATE + TWITTER_PROTECTED_RATE,
            NEVER_POSTED_RATE,
            EARLY_ADOPTER_RATE,
            FOLLOWEE_MIGRANT_FRACTION,
            MASTODON_REFOLLOW_RATE,
            SWITCH_POST_TAKEOVER_RATE,
            MANUAL_MIRROR_PER_POST,
            CROSSPOST_PER_POST,
            TWITTER_TOXICITY_MEAN,
            MASTODON_TOXICITY_FACTOR,
        ];
        for p in probs {
            assert!((0.0..=1.0).contains(&p), "{p} is not a probability");
        }
        let positive = [
            INSTANCE_ZIPF_EXPONENT,
            TWITTER_FOLLOWEE_MEDIAN,
            TWITTER_FOLLOWER_MEDIAN,
            TWITTER_DEGREE_SIGMA,
            MASTODON_LOCAL_FOLLOW_MEAN,
            TWEETS_PER_DAY_MEAN,
            STATUSES_PER_DAY_MEAN,
            MASTODON_ABANDON_AFTER_DAYS_MEAN,
            BACKGROUND_SURGE_FACTOR,
        ];
        for x in positive {
            assert!(x.is_finite() && x > 0.0, "{x} is not a positive mean");
        }
    }

    #[test]
    fn degenerate_scale_rejected() {
        let mut c = WorldConfig::small();
        c.n_searchable_users = 10;
        assert!(c.validate().is_err());
        let mut c = WorldConfig::small();
        c.n_instances = 2;
        assert!(c.validate().is_err());
        let mut c = WorldConfig::small();
        c.migrant_fraction = 0.001;
        assert!(c.validate().is_err());
    }

    #[test]
    fn with_seed() {
        let c = WorldConfig::small().with_seed(99);
        assert_eq!(c.seed, 99);
    }
}
