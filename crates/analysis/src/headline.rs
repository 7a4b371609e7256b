//! The headline report: every in-text statistic of the paper, paper-value
//! vs measured, in one table. This is the "tables" regeneration target —
//! the paper has no numbered tables; its dense in-text numbers are the
//! tabular results.

use crate::analysis::Analysis;
use flock_crawler::dataset::{Dataset, MastodonCrawlOutcome, TwitterCrawlOutcome};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One headline metric: what the paper reports vs what we measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Metric {
    pub name: String,
    pub paper: f64,
    pub measured: f64,
    pub unit: String,
}

impl Metric {
    fn new(name: &str, paper: f64, measured: f64, unit: &str) -> Self {
        Metric {
            name: name.to_string(),
            paper,
            measured,
            unit: unit.to_string(),
        }
    }

    /// Relative deviation from the paper value (0 = exact).
    pub fn relative_error(&self) -> f64 {
        if self.paper == 0.0 {
            return self.measured.abs();
        }
        ((self.measured - self.paper) / self.paper).abs()
    }
}

/// Verdict of a reproduction check on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// Within a third relative error or 3 points absolute.
    Pass,
    /// Within 75% relative error or 8 points absolute — right ballpark.
    Warn,
    /// Off.
    Fail,
}

impl Metric {
    /// Classify this metric's reproduction quality. Absolute slack matters
    /// for small percentages (0.08% vs 0.12% is a fine reproduction at
    /// 50% relative error), relative slack for large values.
    pub fn verdict(&self) -> Verdict {
        let abs = (self.measured - self.paper).abs();
        let rel = self.relative_error();
        if rel < 0.33 || abs < 3.0 {
            Verdict::Pass
        } else if rel < 0.75 || abs < 8.0 {
            Verdict::Warn
        } else {
            Verdict::Fail
        }
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<58} paper {:>9.2}{:<4} measured {:>9.2}{}",
            self.name, self.paper, self.unit, self.measured, self.unit
        )
    }
}

/// The full headline comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeadlineReport {
    /// Counts that scale with the world (reported, not compared).
    pub n_matched: usize,
    pub n_instances: usize,
    pub n_collected_tweets: usize,
    pub n_searched_users: usize,
    /// Proportion metrics compared against the paper.
    pub metrics: Vec<Metric>,
}

impl HeadlineReport {
    /// Compute every headline statistic from a crawled dataset.
    pub fn compute(ds: &Dataset) -> HeadlineReport {
        HeadlineReport::from_analysis(&Analysis::new(ds))
    }

    /// Compute every headline statistic, reading each figure through `a`
    /// so that figures the caller also renders are computed once. Callers
    /// outside the crate read it memoized, as [`Analysis::headline`].
    pub(crate) fn from_analysis(a: &Analysis<'_>) -> HeadlineReport {
        let ds = a.dataset();
        let mut metrics = Vec::new();
        let n = ds.matched.len().max(1) as f64;

        // §3.1 identification.
        let same_username = ds
            .matched
            .iter()
            .filter(|m| m.handle.username() == m.twitter_username)
            .count() as f64
            / n
            * 100.0;
        metrics.push(Metric::new(
            "same username on both platforms",
            72.0,
            same_username,
            "%",
        ));
        let verified = ds.matched.iter().filter(|m| m.verified).count() as f64 / n * 100.0;
        metrics.push(Metric::new("legacy-verified migrants", 4.0, verified, "%"));

        // §3.2 coverage.
        let tw_outcome = |o: TwitterCrawlOutcome| {
            ds.twitter_outcomes.values().filter(|x| **x == o).count() as f64
                / ds.twitter_outcomes.len().max(1) as f64
                * 100.0
        };
        metrics.push(Metric::new(
            "Twitter timelines crawled",
            94.88,
            tw_outcome(TwitterCrawlOutcome::Ok),
            "%",
        ));
        metrics.push(Metric::new(
            "  suspended",
            0.08,
            tw_outcome(TwitterCrawlOutcome::Suspended),
            "%",
        ));
        metrics.push(Metric::new(
            "  deleted/deactivated",
            2.26,
            tw_outcome(TwitterCrawlOutcome::Deleted),
            "%",
        ));
        metrics.push(Metric::new(
            "  protected",
            2.78,
            tw_outcome(TwitterCrawlOutcome::Protected),
            "%",
        ));
        let ms_outcome = |o: MastodonCrawlOutcome| {
            ds.mastodon_outcomes.values().filter(|x| **x == o).count() as f64
                / ds.mastodon_outcomes.len().max(1) as f64
                * 100.0
        };
        metrics.push(Metric::new(
            "Mastodon timelines crawled",
            79.22,
            ms_outcome(MastodonCrawlOutcome::Ok),
            "%",
        ));
        metrics.push(Metric::new(
            "  never posted",
            9.20,
            ms_outcome(MastodonCrawlOutcome::NoStatuses),
            "%",
        ));
        metrics.push(Metric::new(
            "  instance down",
            11.58,
            ms_outcome(MastodonCrawlOutcome::InstanceDown),
            "%",
        ));

        // §4 centralization.
        let c = a.fig5();
        metrics.push(Metric::new(
            "users on top 25% of instances",
            96.0,
            c.top_quartile_share * 100.0,
            "%",
        ));
        metrics.push(Metric::new(
            "accounts created before takeover",
            21.0,
            a.pre_takeover_account_fraction() * 100.0,
            "%",
        ));
        let f6 = a.fig6();
        metrics.push(Metric::new(
            "single-user instances",
            13.16,
            f6.single_user_instance_fraction * 100.0,
            "%",
        ));
        metrics.push(Metric::new(
            "single-user-instance follower advantage",
            64.88,
            f6.single_vs_rest_followers_pct,
            "%",
        ));
        metrics.push(Metric::new(
            "single-user-instance followee advantage",
            99.04,
            f6.single_vs_rest_followees_pct,
            "%",
        ));
        metrics.push(Metric::new(
            "single-user-instance status advantage",
            121.14,
            f6.single_vs_rest_statuses_pct,
            "%",
        ));
        metrics.push(Metric::new(
            "users in the ≥30-day age analysis",
            50.59,
            f6.analyzed_user_fraction * 100.0,
            "%",
        ));

        // §5.1 social networks.
        let f7 = a.fig7();
        metrics.push(Metric::new(
            "median Twitter followers",
            744.0,
            f7.twitter_follower_median,
            "",
        ));
        metrics.push(Metric::new(
            "median Twitter followees",
            787.0,
            f7.twitter_followee_median,
            "",
        ));
        metrics.push(Metric::new(
            "median Mastodon followers",
            38.0,
            f7.mastodon_follower_median,
            "",
        ));
        metrics.push(Metric::new(
            "median Mastodon followees",
            48.0,
            f7.mastodon_followee_median,
            "",
        ));
        metrics.push(Metric::new(
            "no Mastodon followers",
            6.01,
            f7.mastodon_no_followers_pct,
            "%",
        ));
        metrics.push(Metric::new(
            "follow nobody on Mastodon",
            3.6,
            f7.mastodon_no_followees_pct,
            "%",
        ));
        metrics.push(Metric::new(
            "median Twitter account age",
            11.5,
            f7.twitter_median_age_years,
            "yr",
        ));
        metrics.push(Metric::new(
            "median Mastodon account age",
            35.0,
            f7.mastodon_median_age_days,
            "d",
        ));

        // §5.2 migration influence.
        let f8 = a.fig8();
        metrics.push(Metric::new(
            "mean followees that migrated",
            5.99,
            f8.mean_migrated_pct,
            "%",
        ));
        metrics.push(Metric::new(
            "users with no migrated followee",
            3.94,
            f8.none_migrated_pct,
            "%",
        ));
        metrics.push(Metric::new(
            "first movers in their ego net",
            4.98,
            f8.first_mover_pct,
            "%",
        ));
        metrics.push(Metric::new(
            "last movers in their ego net",
            4.58,
            f8.last_mover_pct,
            "%",
        ));
        metrics.push(Metric::new(
            "migrated followees moving before user",
            45.76,
            f8.mean_migrated_before_pct,
            "%",
        ));
        metrics.push(Metric::new(
            "migrated followees on same instance",
            14.72,
            f8.mean_same_instance_pct,
            "%",
        ));
        metrics.push(Metric::new(
            "co-locating users on mastodon.social",
            30.68,
            f8.same_instance_on_flagship_pct,
            "%",
        ));

        // §5.3 switching.
        let f9 = a.fig9();
        metrics.push(Metric::new(
            "users who switched instance",
            4.09,
            f9.switcher_pct,
            "%",
        ));
        metrics.push(Metric::new(
            "switches after the takeover",
            97.22,
            f9.post_takeover_pct,
            "%",
        ));
        let f10 = a.fig10();
        metrics.push(Metric::new(
            "switchers' followees at first instance",
            11.4,
            f10.mean_at_first_pct,
            "%",
        ));
        metrics.push(Metric::new(
            "switchers' followees at second instance",
            46.98,
            f10.mean_at_second_pct,
            "%",
        ));
        metrics.push(Metric::new(
            "followees at second instance before switcher",
            77.42,
            f10.mean_second_before_pct,
            "%",
        ));

        // §6 content.
        let f13 = a.fig13();
        metrics.push(Metric::new(
            "users who used a cross-poster",
            5.73,
            f13.ever_used_pct,
            "%",
        ));
        let f14 = a.fig14();
        metrics.push(Metric::new(
            "mean identical statuses",
            1.53,
            f14.mean_identical_pct,
            "%",
        ));
        metrics.push(Metric::new(
            "mean similar statuses",
            16.57,
            f14.mean_similar_pct,
            "%",
        ));
        metrics.push(Metric::new(
            "users with fully different content",
            84.45,
            f14.fully_different_pct,
            "%",
        ));
        let f16 = a.fig16();
        metrics.push(Metric::new(
            "toxic tweets (corpus)",
            5.49,
            f16.twitter_corpus_pct,
            "%",
        ));
        metrics.push(Metric::new(
            "toxic statuses (corpus)",
            2.80,
            f16.mastodon_corpus_pct,
            "%",
        ));
        metrics.push(Metric::new(
            "mean toxic tweets per user",
            4.02,
            f16.twitter_user_mean_pct,
            "%",
        ));
        metrics.push(Metric::new(
            "mean toxic statuses per user",
            2.07,
            f16.mastodon_user_mean_pct,
            "%",
        ));
        metrics.push(Metric::new(
            "users toxic on both platforms",
            14.26,
            f16.toxic_on_both_pct,
            "%",
        ));

        HeadlineReport {
            n_matched: ds.matched.len(),
            n_instances: c.n_instances,
            n_collected_tweets: ds.collected_tweets.len(),
            n_searched_users: ds.searched_users,
            metrics,
        }
    }

    /// Verdict counts: `(pass, warn, fail)`.
    pub fn verdict_counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for m in &self.metrics {
            match m.verdict() {
                Verdict::Pass => c.0 += 1,
                Verdict::Warn => c.1 += 1,
                Verdict::Fail => c.2 += 1,
            }
        }
        c
    }

    /// Render the verification table: every metric with its verdict.
    pub fn to_verify_table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let v = match m.verdict() {
                Verdict::Pass => "PASS",
                Verdict::Warn => "WARN",
                Verdict::Fail => "FAIL",
            };
            out.push_str(&format!(
                "[{v}] {:<56} paper {:>9.2}{:<3} measured {:>9.2}{}\n",
                m.name, m.paper, m.unit, m.measured, m.unit
            ));
        }
        let (p, w, f) = self.verdict_counts();
        out.push_str(&format!(
            "\n{p} pass, {w} warn, {f} fail of {} metrics\n",
            self.metrics.len()
        ));
        out
    }

    /// Render as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "identified migrants: {}   landing instances: {}   collected tweets: {}   searched users: {}\n",
            self.n_matched, self.n_instances, self.n_collected_tweets, self.n_searched_users
        ));
        out.push_str(&format!(
            "{:<58} {:>16} {:>18}\n",
            "metric", "paper", "measured"
        ));
        for m in &self.metrics {
            out.push_str(&format!(
                "{:<58} {:>12.2} {:<3} {:>14.2} {}\n",
                m.name, m.paper, m.unit, m.measured, m.unit
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_relative_error() {
        let m = Metric::new("x", 10.0, 12.0, "%");
        assert!((m.relative_error() - 0.2).abs() < 1e-12);
        let z = Metric::new("z", 0.0, 0.5, "%");
        assert_eq!(z.relative_error(), 0.5);
    }

    #[test]
    fn report_on_empty_dataset_is_total_but_finite() {
        let ds = Dataset::default();
        let r = HeadlineReport::compute(&ds);
        assert!(r.metrics.len() > 30, "{} metrics", r.metrics.len());
        for m in &r.metrics {
            assert!(m.measured.is_finite(), "{} not finite", m.name);
        }
        let table = r.to_table();
        assert!(table.contains("users on top 25% of instances"));
    }

    #[test]
    fn metric_display() {
        let m = Metric::new("median Twitter followers", 744.0, 700.0, "");
        let s = m.to_string();
        assert!(s.contains("744"));
        assert!(s.contains("700"));
    }
}
