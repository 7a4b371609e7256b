//! RQ3 — cross-platform usage patterns (§6, Figs. 11–16).

use crate::stats::{mean, Ecdf};
use crate::util::par_map;
use flock_core::{Day, MastodonHandle, TwitterUserId};
use flock_crawler::dataset::Dataset;
use flock_textsim::{for_each_token, similar, FeatureCounts, ToxicityScorer};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// The two cross-posting tools of Fig. 12/13 (source strings as they
/// appear in the tweet `source` field).
pub const CROSSPOSTER_SOURCES: [&str; 2] = ["Mastodon-Twitter Crossposter", "Moa Bridge"];

/// Fig. 11: daily activity of migrated users on both platforms.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig11Activity {
    /// One entry per study day.
    pub days: Vec<Day>,
    pub tweets: Vec<u64>,
    pub statuses: Vec<u64>,
    /// Mean daily tweets in the last week ÷ first week (≈ 1.0: Twitter
    /// activity does not collapse after migration).
    pub twitter_last_over_first_week: f64,
}

/// Compute Fig. 11 from the crawled timelines.
pub fn fig11_activity(ds: &Dataset) -> Fig11Activity {
    let days: Vec<Day> = Day::study_days().collect();
    let mut tweets = vec![0u64; days.len()];
    let mut statuses = vec![0u64; days.len()];
    for tl in ds.twitter_timelines.values() {
        for t in tl {
            if t.day.in_study_window() {
                tweets[t.day.offset() as usize] += 1;
            }
        }
    }
    for tl in ds.mastodon_timelines.values() {
        for s in tl {
            if s.day.in_study_window() {
                statuses[s.day.offset() as usize] += 1;
            }
        }
    }
    let first_week: u64 = tweets[..7].iter().sum();
    let last_week: u64 = tweets[days.len() - 7..].iter().sum();
    Fig11Activity {
        days,
        twitter_last_over_first_week: if first_week == 0 {
            0.0
        } else {
            last_week as f64 / first_week as f64
        },
        tweets,
        statuses,
    }
}

/// One source row of Fig. 12.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SourceRow {
    pub source: String,
    pub before: u64,
    pub after: u64,
}

impl SourceRow {
    /// Growth after the takeover, in percent.
    pub fn growth_pct(&self) -> f64 {
        if self.before == 0 {
            if self.after == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.after as f64 / self.before as f64 - 1.0) * 100.0
        }
    }
}

/// Fig. 12: tweet sources before/after the takeover, top-N by volume.
pub fn fig12_sources(ds: &Dataset, top_n: usize) -> Vec<SourceRow> {
    let mut per: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for tl in ds.twitter_timelines.values() {
        for t in tl {
            let e = per.entry(t.source.as_str()).or_insert((0, 0));
            if t.day.is_post_takeover() {
                e.1 += 1;
            } else {
                e.0 += 1;
            }
        }
    }
    let mut rows: Vec<SourceRow> = per
        .into_iter()
        .map(|(source, (before, after))| SourceRow {
            source: source.to_string(),
            before,
            after,
        })
        .collect();
    rows.sort_by(|a, b| {
        (b.before + b.after)
            .cmp(&(a.before + a.after))
            .then(a.source.cmp(&b.source))
    });
    rows.truncate(top_n);
    rows
}

/// Fig. 13 + the §6.1 cross-poster statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig13CrossPosters {
    pub days: Vec<Day>,
    /// Distinct users tweeting via a cross-posting tool each day.
    pub users_per_day: Vec<u64>,
    /// Share of migrated users who used a tool at least once (paper: 5.73%).
    pub ever_used_pct: f64,
}

/// Compute Fig. 13.
pub fn fig13_crossposters(ds: &Dataset) -> Fig13CrossPosters {
    let days: Vec<Day> = Day::study_days().collect();
    let mut per_day: Vec<BTreeSet<TwitterUserId>> = vec![BTreeSet::new(); days.len()];
    let mut ever: BTreeSet<TwitterUserId> = BTreeSet::new();
    for (uid, tl) in &ds.twitter_timelines {
        for t in tl {
            if CROSSPOSTER_SOURCES.contains(&t.source.as_str()) && t.day.in_study_window() {
                per_day[t.day.offset() as usize].insert(*uid);
                ever.insert(*uid);
            }
        }
    }
    Fig13CrossPosters {
        days,
        users_per_day: per_day.iter().map(|s| s.len() as u64).collect(),
        ever_used_pct: ever.len() as f64 / ds.matched.len().max(1) as f64 * 100.0,
    }
}

/// Fig. 14 + the §6.1 similarity statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig14Similarity {
    /// CDF of the per-user fraction of statuses identical to a tweet.
    pub identical: Ecdf,
    /// CDF of the per-user fraction of statuses similar to a tweet
    /// (cosine > 0.7, identical included — as the paper computes it).
    pub similar: Ecdf,
    /// Paper: 1.53%.
    pub mean_identical_pct: f64,
    /// Paper: 16.57%.
    pub mean_similar_pct: f64,
    /// Users whose content is *predominantly* different (less than half of
    /// their statuses similar to a tweet). The paper reports 84.45% of
    /// users posting "completely different content" alongside a 16.57%
    /// mean similar fraction — figures only mutually consistent under a
    /// majority-style criterion, which is what we compute.
    pub fully_different_pct: f64,
    pub n_users: usize,
}

/// Compute Fig. 14: for every user with both timelines, compare each status
/// against the user's tweets (exact match for *identical*; embedding cosine
/// above [`flock_textsim::SIMILARITY_THRESHOLD`] for *similar*, decided by
/// [`similar`] on integer feature counts).
pub fn fig14_similarity(ds: &Dataset) -> Fig14Similarity {
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
    // Comparing every status against every tweet dominates the figure
    // pipeline; users are independent, so fan them out.
    let fracs = par_map(&pairs, |&(tweets, statuses)| {
        let tweet_texts: BTreeSet<&str> = tweets.iter().map(|t| t.text.as_str()).collect();
        let tweet_counts: Vec<FeatureCounts> =
            tweets.iter().map(|t| FeatureCounts::of(&t.text)).collect();
        let mut n_identical = 0usize;
        let mut n_similar = 0usize;
        for s in statuses {
            if tweet_texts.contains(s.text.as_str()) {
                n_identical += 1;
                n_similar += 1;
                continue;
            }
            let counts = FeatureCounts::of(&s.text);
            if tweet_counts.iter().any(|tc| similar(tc, &counts)) {
                n_similar += 1;
            }
        }
        (
            n_identical as f64 / statuses.len() as f64,
            n_similar as f64 / statuses.len() as f64,
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

/// One hashtag row of Fig. 15.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HashtagRow {
    pub tag: String,
    pub count: u64,
}

/// Fig. 15: top hashtags on each platform.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig15Hashtags {
    pub twitter: Vec<HashtagRow>,
    pub mastodon: Vec<HashtagRow>,
}

/// Compute Fig. 15 from the crawled timelines.
pub fn fig15_hashtags(ds: &Dataset, top_n: usize) -> Fig15Hashtags {
    let tweets: Vec<&[_]> = ds.twitter_timelines.values().map(Vec::as_slice).collect();
    let statuses: Vec<&[_]> = ds.mastodon_timelines.values().map(Vec::as_slice).collect();
    Fig15Hashtags {
        twitter: top_hashtags(&tweets, |t| &t.text, top_n),
        mastodon: top_hashtags(&statuses, |s| &s.text, top_n),
    }
}

/// The `top_n` most used hashtags over `timelines`, counted one timeline
/// per pool task. Counts are sums, so the merge order cannot change them.
fn top_hashtags<P: Sync>(
    timelines: &[&[P]],
    text: fn(&P) -> &str,
    top_n: usize,
) -> Vec<HashtagRow> {
    let per_timeline = par_map(timelines, |posts| {
        let mut counts: BTreeMap<String, u64> = BTreeMap::new();
        for post in posts.iter() {
            for_each_token(text(post), |tok| {
                if !tok.starts_with('#') {
                    return;
                }
                match counts.get_mut(tok) {
                    Some(n) => *n += 1,
                    None => {
                        counts.insert(tok.to_string(), 1);
                    }
                }
            });
        }
        counts
    });
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for (tag, n) in per_timeline.into_iter().flatten() {
        *counts.entry(tag).or_insert(0) += n;
    }
    let mut rows: Vec<HashtagRow> = counts
        .into_iter()
        .map(|(tag, count)| HashtagRow { tag, count })
        .collect();
    rows.sort_by(|a, b| b.count.cmp(&a.count).then(a.tag.cmp(&b.tag)));
    rows.truncate(top_n);
    rows
}

/// Fig. 16 + the §6.3 toxicity statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig16Toxicity {
    /// CDF of per-user toxic tweet fraction.
    pub twitter: Ecdf,
    /// CDF of per-user toxic status fraction.
    pub mastodon: Ecdf,
    /// Corpus-level toxic shares (paper: 5.49% vs 2.80%).
    pub twitter_corpus_pct: f64,
    pub mastodon_corpus_pct: f64,
    /// Per-user means (paper: 4.02% vs 2.07%).
    pub twitter_user_mean_pct: f64,
    pub mastodon_user_mean_pct: f64,
    /// Users with ≥ 1 toxic post on *both* platforms (paper: 14.26%).
    pub toxic_on_both_pct: f64,
}

/// Compute Fig. 16 by scoring every crawled post.
pub fn fig16_toxicity(ds: &Dataset) -> Fig16Toxicity {
    let scorer = ToxicityScorer::new();
    let handle_by_user: BTreeMap<TwitterUserId, &MastodonHandle> = ds
        .matched
        .iter()
        .map(|m| (m.twitter_id, &m.resolved_handle))
        .collect();

    let mut tw_fracs = Vec::new();
    let mut ms_fracs = Vec::new();
    let mut tw_total = 0u64;
    let mut tw_toxic = 0u64;
    let mut ms_total = 0u64;
    let mut ms_toxic = 0u64;
    let mut both = 0usize;
    let mut evaluable = 0usize;

    // Scoring every post dominates; users are independent, so score them
    // on the pool as `(posts, toxic posts)` per crawled, non-empty
    // timeline, then fold in `matched` order: the fractions feed float
    // accumulators, so the fold order is part of the output.
    let per_user = par_map(&ds.matched, |m| {
        let tweets = ds
            .twitter_timelines
            .get(&m.twitter_id)
            .filter(|tl| !tl.is_empty())
            .map(|tl| {
                let toxic = tl.iter().filter(|t| scorer.is_toxic(&t.text)).count();
                (tl.len(), toxic)
            });
        let statuses = handle_by_user
            .get(&m.twitter_id)
            .and_then(|h| ds.mastodon_timelines.get(*h))
            .filter(|sl| !sl.is_empty())
            .map(|sl| {
                let toxic = sl.iter().filter(|s| scorer.is_toxic(&s.text)).count();
                (sl.len(), toxic)
            });
        (tweets, statuses)
    });
    for (tweets, statuses) in per_user {
        if let Some((n, toxic)) = tweets {
            tw_total += n as u64;
            tw_toxic += toxic as u64;
            tw_fracs.push(toxic as f64 / n as f64);
        }
        if let Some((n, toxic)) = statuses {
            ms_total += n as u64;
            ms_toxic += toxic as u64;
            ms_fracs.push(toxic as f64 / n as f64);
        }
        if let (Some((_, tw)), Some((_, ms))) = (tweets, statuses) {
            evaluable += 1;
            if tw > 0 && ms > 0 {
                both += 1;
            }
        }
    }

    Fig16Toxicity {
        twitter_corpus_pct: tw_toxic as f64 / tw_total.max(1) as f64 * 100.0,
        mastodon_corpus_pct: ms_toxic as f64 / ms_total.max(1) as f64 * 100.0,
        twitter_user_mean_pct: mean(tw_fracs.iter().copied()) * 100.0,
        mastodon_user_mean_pct: mean(ms_fracs.iter().copied()) * 100.0,
        toxic_on_both_pct: both as f64 / evaluable.max(1) as f64 * 100.0,
        twitter: Ecdf::new(tw_fracs),
        mastodon: Ecdf::new(ms_fracs),
    }
}

/// Fig. 2 (presented in §3 but computed from the same dataset): daily
/// counts of collected tweets, split by query family.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig2Collection {
    pub days: Vec<Day>,
    pub instance_links: Vec<u64>,
    pub keywords_and_hashtags: Vec<u64>,
    pub total_tweets: usize,
    pub total_users: usize,
}

/// Compute Fig. 2.
pub fn fig2_collection(ds: &Dataset) -> Fig2Collection {
    let days: Vec<Day> = (Day::COLLECTION_START.offset()..=Day::COLLECTION_END.offset())
        .map(Day)
        .collect();
    let mut links = vec![0u64; days.len()];
    let mut keywords = vec![0u64; days.len()];
    for t in &ds.collected_tweets {
        if !t.day.in_collection_window() {
            continue;
        }
        let idx = (t.day.offset() - Day::COLLECTION_START.offset()) as usize;
        match t.via {
            flock_crawler::dataset::QueryKind::InstanceLink => links[idx] += 1,
            _ => keywords[idx] += 1,
        }
    }
    Fig2Collection {
        days,
        instance_links: links,
        keywords_and_hashtags: keywords,
        total_tweets: ds.collected_tweets.len(),
        total_users: ds.searched_users,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_core::TweetId;
    use flock_crawler::dataset::{
        CollectedTweet, MatchSource, MatchedUser, QueryKind, TimelineStatus, TimelineTweet,
    };

    fn matched(i: u64, inst: &str) -> MatchedUser {
        let h = format!("@u{i}@{inst}");
        MatchedUser {
            twitter_id: TwitterUserId(i),
            twitter_username: format!("u{i}"),
            twitter_created: Day(-4000),
            verified: false,
            twitter_followers: 10,
            twitter_followees: 10,
            handle: h.parse().unwrap(),
            matched_via: MatchSource::Bio,
            first_seen: None,
            resolved_handle: h.parse().unwrap(),
            account: None,
            first_account: None,
        }
    }

    fn tweet(day: i32, text: &str, source: &str) -> TimelineTweet {
        TimelineTweet {
            id: TweetId(0),
            day: Day(day),
            text: text.to_string(),
            source: source.to_string(),
        }
    }

    fn status(day: i32, text: &str) -> TimelineStatus {
        TimelineStatus {
            day: Day(day),
            text: text.to_string(),
        }
    }

    fn dataset() -> Dataset {
        let mut ds = Dataset::default();
        for i in 0..2 {
            ds.matched.push(matched(i, "mastodon.social"));
        }
        // u0: one identical cross-post via the tool, one unrelated pair.
        ds.twitter_timelines.insert(
            TwitterUserId(0),
            vec![
                tweet(30, "shader engine sprite gamejam pixels", "Twitter Web App"),
                tweet(31, "mirrored words exactly the same", "Moa Bridge"),
                tweet(5, "pre takeover chatter words", "Twitter Web App"),
            ],
        );
        ds.mastodon_timelines.insert(
            "@u0@mastodon.social".parse().unwrap(),
            vec![
                status(31, "mirrored words exactly the same"),
                status(33, "recipe sourdough espresso ramen baking"),
            ],
        );
        // u1: toxic on both platforms.
        ds.twitter_timelines.insert(
            TwitterUserId(1),
            vec![
                tweet(40, "you pathetic clown garbage take", "Twitter for iPhone"),
                tweet(41, "lovely quiet morning", "Twitter for iPhone"),
            ],
        );
        ds.mastodon_timelines.insert(
            "@u1@mastodon.social".parse().unwrap(),
            vec![
                status(42, "stupid pathetic garbage argument"),
                status(43, "instance federation talk #fediverse"),
            ],
        );
        ds.collected_tweets.push(CollectedTweet {
            id: TweetId(1),
            author: TwitterUserId(0),
            day: Day(27),
            text: "mastodon time".into(),
            source: "Twitter Web App".into(),
            via: QueryKind::Keyword,
        });
        ds.collected_tweets.push(CollectedTweet {
            id: TweetId(2),
            author: TwitterUserId(1),
            day: Day(27),
            text: "https://mastodon.social/@u1".into(),
            source: "Twitter Web App".into(),
            via: QueryKind::InstanceLink,
        });
        ds.searched_users = 2;
        ds
    }

    #[test]
    fn fig11_counts_by_day() {
        let ds = dataset();
        let f = fig11_activity(&ds);
        assert_eq!(f.days.len(), Day::STUDY_LEN);
        assert_eq!(f.tweets.iter().sum::<u64>(), 5);
        assert_eq!(f.statuses.iter().sum::<u64>(), 4);
        assert_eq!(f.tweets[30], 1);
        assert_eq!(f.statuses[42], 1);
    }

    #[test]
    fn fig12_splits_before_after() {
        let ds = dataset();
        let rows = fig12_sources(&ds, 30);
        let web = rows.iter().find(|r| r.source == "Twitter Web App").unwrap();
        assert_eq!(web.before, 1);
        assert_eq!(web.after, 1);
        let moa = rows.iter().find(|r| r.source == "Moa Bridge").unwrap();
        assert_eq!(moa.before, 0);
        assert_eq!(moa.after, 1);
        assert!(moa.growth_pct().is_infinite());
        assert_eq!(
            SourceRow {
                source: "x".into(),
                before: 10,
                after: 120
            }
            .growth_pct(),
            1100.0
        );
    }

    #[test]
    fn fig13_daily_users() {
        let ds = dataset();
        let f = fig13_crossposters(&ds);
        assert_eq!(f.users_per_day[31], 1);
        assert_eq!(f.users_per_day[30], 0);
        assert!((f.ever_used_pct - 50.0).abs() < 1e-9);
    }

    #[test]
    fn fig14_identical_and_similar() {
        let ds = dataset();
        let f = fig14_similarity(&ds);
        assert_eq!(f.n_users, 2);
        // u0: 1 of 2 statuses identical; u1: 0 of 2.
        assert!((f.mean_identical_pct - 25.0).abs() < 1e-9);
        assert!(f.mean_similar_pct >= f.mean_identical_pct);
        assert!(f.fully_different_pct <= 50.0);
    }

    #[test]
    fn fig15_top_hashtags() {
        let ds = dataset();
        let f = fig15_hashtags(&ds, 30);
        assert!(f.mastodon.iter().any(|r| r.tag == "#fediverse"));
        assert!(f.twitter.is_empty() || f.twitter.iter().all(|r| r.count >= 1));
    }

    #[test]
    fn fig16_toxicity_rates() {
        let ds = dataset();
        let f = fig16_toxicity(&ds);
        // u1: 1 of 2 tweets toxic, 1 of 2 statuses toxic; u0 clean.
        assert!((f.twitter_corpus_pct - 20.0).abs() < 1e-9); // 1/5
        assert!((f.mastodon_corpus_pct - 25.0).abs() < 1e-9); // 1/4
        assert!((f.toxic_on_both_pct - 50.0).abs() < 1e-9);
        assert_eq!(f.twitter.len(), 2);
    }

    #[test]
    fn fig2_split() {
        let ds = dataset();
        let f = fig2_collection(&ds);
        assert_eq!(f.total_tweets, 2);
        assert_eq!(f.total_users, 2);
        let idx = (27 - Day::COLLECTION_START.offset()) as usize;
        assert_eq!(f.instance_links[idx], 1);
        assert_eq!(f.keywords_and_hashtags[idx], 1);
    }

    #[test]
    fn empty_dataset_safe() {
        let ds = Dataset::default();
        fig11_activity(&ds);
        assert!(fig12_sources(&ds, 30).is_empty());
        fig13_crossposters(&ds);
        let f14 = fig14_similarity(&ds);
        assert_eq!(f14.n_users, 0);
        fig15_hashtags(&ds, 30);
        fig16_toxicity(&ds);
        fig2_collection(&ds);
    }
}
