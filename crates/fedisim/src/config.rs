//! World configuration: scale presets and every behavioural rate, each
//! anchored to the paper statistic it reproduces.
//!
//! The reproduction target is the *proportions* the paper reports, not its
//! absolute counts (our substrate is a simulator, not Nov-2022 Twitter), so
//! the presets scale the population down while keeping every rate intact.

use flock_core::FlockError;
use serde::{Deserialize, Serialize};

/// Full configuration of the simulated world.
///
/// Defaults reproduce the paper's published rates; the scale fields choose
/// how many users/instances/posts to simulate.
#[derive(Debug, Clone, Serialize, Deserialize)]
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

    // ---- §3.1 identification --------------------------------------------
    /// P(migrant reuses their Twitter username on Mastodon) (paper: 72%).
    pub same_username_rate: f64,
    /// P(migrant puts the Mastodon handle in their Twitter bio). Bio
    /// matches are accepted for any username; tweet-text matches only when
    /// usernames are identical, so this drives identification coverage.
    pub handle_in_bio_rate: f64,
    /// P(migrant tweets their handle at migration time).
    pub handle_in_tweet_rate: f64,
    /// P(searchable non-migrant tweets migration keywords on a given
    /// event-window day) — the noise corpus the search must sift.
    pub noise_tweet_rate: f64,
    /// P(migrant has legacy verified status) (paper: 4%).
    pub verified_rate: f64,

    // ---- §3.2 crawl-coverage fates --------------------------------------
    /// P(identified migrant's Twitter account is suspended at crawl time)
    /// (paper: 0.08%).
    pub twitter_suspended_rate: f64,
    /// P(deleted/deactivated at crawl time) (paper: 2.26%).
    pub twitter_deleted_rate: f64,
    /// P(tweets protected at crawl time) (paper: 2.78%).
    pub twitter_protected_rate: f64,
    /// P(a migrant's instance is down at Mastodon crawl time)
    /// (paper: 11.58% of users were on unreachable instances).
    pub instance_down_rate: f64,
    /// P(migrant never posted a status) (paper: 9.20%).
    pub never_posted_rate: f64,

    // ---- §4 instance landscape ------------------------------------------
    /// Zipf exponent of instance popularity. Calibrated so ≈ 96% of users
    /// land on the top 25% of instances (Fig. 5) with a heavy single-user
    /// tail (13.16% of instances, Fig. 6a).
    pub instance_zipf_exponent: f64,
    /// P(Mastodon account predates the takeover) (paper: 21%).
    pub early_adopter_rate: f64,

    // ---- §5 social network ----------------------------------------------
    /// Median Twitter followees of migrated users (paper: 787).
    pub twitter_followee_median: f64,
    /// Median Twitter followers of migrated users (paper: 744).
    pub twitter_follower_median: f64,
    /// Log-normal sigma for both Twitter degree distributions.
    pub twitter_degree_sigma: f64,
    /// Mean fraction of a migrant's followees who also migrate
    /// (paper: 5.99%).
    pub followee_migrant_fraction: f64,
    /// P(choosing the modal instance of one's already-migrated friends
    /// instead of sampling by popularity/topic) — the herding knob behind
    /// the 14.72% same-instance statistic.
    pub herding_probability: f64,
    /// Fraction of a migrant's migrated Twitter followees they manage to
    /// re-follow on Mastodon (drives the 38/48 median degrees of Fig. 7).
    pub mastodon_refollow_rate: f64,
    /// Mean number of *local* (same-instance) discoveries a migrant follows
    /// on Mastodon, scaled by engagement.
    pub mastodon_local_follow_mean: f64,

    // ---- §5.3 switching --------------------------------------------------
    /// P(a migrant switches instance during the window) (paper: 4.09%).
    pub switch_rate: f64,
    /// P(a switch happens after the takeover | switch) (paper: 97.22%).
    pub switch_post_takeover_rate: f64,

    // ---- §6 content -------------------------------------------------------
    /// Mean tweets/day of an active migrant during the window
    /// (paper: 16.1M tweets / 129k users / 61 days ≈ 2.0).
    pub tweets_per_day_mean: f64,
    /// Mean statuses/day once on Mastodon (paper: 5.7M / 107k / ~30 days,
    /// ramping from 0 at join).
    pub statuses_per_day_mean: f64,
    /// P(user runs a cross-posting tool) (paper: 5.73% used one at least
    /// once).
    pub crossposter_rate: f64,
    /// P(user manually mirrors some content without a tool). Together with
    /// cross-posters this complements the 84.45% of users whose content is
    /// fully different.
    pub manual_mirror_rate: f64,
    /// Per-post mirror probability for manual mirrorers (paraphrased, hence
    /// "similar" not "identical").
    pub manual_mirror_per_post: f64,
    /// Per-post mirror probability for cross-poster users (identical text).
    pub crosspost_per_post: f64,
    /// P(a migrant abandons Mastodon before the window ends). The paper's
    /// §8 asks whether users retain their accounts; follow-up studies in
    /// early 2023 found roughly a quarter of the wave going quiet within
    /// weeks — this knob drives the `retention` extension analysis.
    pub mastodon_abandon_rate: f64,
    /// Mean days between joining and going quiet, for abandoners.
    pub mastodon_abandon_after_days_mean: f64,
    /// Mean per-user toxic fraction on Twitter (paper: 4.02%).
    pub twitter_toxicity_mean: f64,
    /// Multiplier applied to a user's toxicity on Mastodon (paper observes
    /// 2.07% vs 4.02% ⇒ ≈ 0.5).
    pub mastodon_toxicity_factor: f64,

    // ---- background fediverse activity (Fig. 3) ---------------------------
    /// Untracked background registrations per instance per week before the
    /// takeover (scaled by instance popularity).
    pub background_weekly_registrations: f64,
    /// Surge multiplier applied to background registrations after the
    /// takeover (Mastodon gained 1M+ users while the paper tracked 136k,
    /// i.e. most of the wave is invisible to the §3.1 method).
    pub background_surge_factor: f64,
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
    /// this is the preset the arena storage and streaming content
    /// generation exist for. The one recorded run (commit `347e61f`, in
    /// `BENCH_history.jsonl`) took 781 s to generate, 64 s to crawl and
    /// 554 s to analyze, and peaked at 43.2 GB of RSS.
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
            same_username_rate: 0.645,
            handle_in_bio_rate: 0.62,
            handle_in_tweet_rate: 0.75,
            noise_tweet_rate: 0.065,
            verified_rate: 0.04,
            twitter_suspended_rate: 0.0008,
            twitter_deleted_rate: 0.0226,
            twitter_protected_rate: 0.0278,
            instance_down_rate: 0.1158,
            never_posted_rate: 0.092,
            instance_zipf_exponent: 2.25,
            early_adopter_rate: 0.21,
            twitter_followee_median: 787.0,
            twitter_follower_median: 744.0,
            twitter_degree_sigma: 1.1,
            followee_migrant_fraction: 0.0599,
            herding_probability: 0.22,
            mastodon_refollow_rate: 0.75,
            mastodon_local_follow_mean: 30.0,
            switch_rate: 0.046,
            switch_post_takeover_rate: 0.9722,
            tweets_per_day_mean: 2.0,
            statuses_per_day_mean: 1.6,
            crossposter_rate: 0.0573,
            manual_mirror_rate: 0.16,
            manual_mirror_per_post: 0.95,
            crosspost_per_post: 0.28,
            mastodon_abandon_rate: 0.22,
            mastodon_abandon_after_days_mean: 16.0,
            twitter_toxicity_mean: 0.0402,
            mastodon_toxicity_factor: 0.5,
            background_weekly_registrations: 6.0,
            background_surge_factor: 9.0,
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

    /// Validate that every probability is a probability and every scale is
    /// non-degenerate.
    pub fn validate(&self) -> Result<(), FlockError> {
        let probs: [(&str, f64); 19] = [
            ("migrant_fraction", self.migrant_fraction),
            ("same_username_rate", self.same_username_rate),
            ("handle_in_bio_rate", self.handle_in_bio_rate),
            ("handle_in_tweet_rate", self.handle_in_tweet_rate),
            ("verified_rate", self.verified_rate),
            ("twitter_suspended_rate", self.twitter_suspended_rate),
            ("twitter_deleted_rate", self.twitter_deleted_rate),
            ("twitter_protected_rate", self.twitter_protected_rate),
            ("instance_down_rate", self.instance_down_rate),
            ("never_posted_rate", self.never_posted_rate),
            ("early_adopter_rate", self.early_adopter_rate),
            ("followee_migrant_fraction", self.followee_migrant_fraction),
            ("herding_probability", self.herding_probability),
            ("mastodon_refollow_rate", self.mastodon_refollow_rate),
            ("switch_rate", self.switch_rate),
            ("switch_post_takeover_rate", self.switch_post_takeover_rate),
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
        if self.instance_zipf_exponent <= 0.0 {
            return Err(FlockError::InvalidConfig(
                "instance_zipf_exponent must be positive".into(),
            ));
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
