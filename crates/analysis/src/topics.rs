//! Topical alignment — quantifying §5.2/§5.3's qualitative claims.
//!
//! The paper *names* topical destinations (`sigmoid.social` "for people
//! researching and working in Artificial Intelligence", `historians.social`,
//! `mastodon.gamedev.place`) and observes that switches flow from
//! general-purpose to topic-specific instances — but never quantifies the
//! topical fit. With both timelines crawled we can: infer each user's
//! dominant interest **from the hashtags they actually posted** (no ground
//! truth involved) and measure
//!
//! 1. how topically *coherent* each instance's population is, and
//! 2. whether switching increased the topical fit between user and
//!    instance.

use flock_core::TwitterUserId;
use flock_crawler::dataset::Dataset;
use flock_textsim::{for_each_token, Topic};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Map a (lowercase) hashtag to the topic that emits it, if any. Built by
/// inverting the generator's topic→hashtag tables for both platforms, so
/// inference and generation cannot drift apart.
fn hashtag_topic_table() -> BTreeMap<String, Topic> {
    let mut table = BTreeMap::new();
    for topic in Topic::ALL {
        for platform in flock_core::Platform::ALL {
            for tag in topic.hashtags(platform) {
                // First topic wins on the rare shared tag.
                table.entry(tag.to_ascii_lowercase()).or_insert(topic);
            }
        }
    }
    table
}

/// A user's interest profile inferred from posted hashtags.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InferredInterest {
    /// The user's most-used non-meta topic, if any hashtags were observed.
    /// Fediverse/Migration tags are excluded — everyone posts those during
    /// a migration; they carry no interest signal.
    pub dominant: Option<Topic>,
    /// Hashtag observations that contributed.
    pub n_tags: usize,
}

/// Infer interests for every matched user from their crawled tweets and
/// statuses.
pub fn infer_interests(ds: &Dataset) -> BTreeMap<TwitterUserId, InferredInterest> {
    let table = hashtag_topic_table();
    let handle_by_user: BTreeMap<TwitterUserId, &flock_core::MastodonHandle> = ds
        .matched
        .iter()
        .map(|m| (m.twitter_id, &m.resolved_handle))
        .collect();
    let mut out = BTreeMap::new();
    for m in &ds.matched {
        let mut counts: BTreeMap<Topic, usize> = BTreeMap::new();
        let mut n_tags = 0usize;
        let bump = |text: &str, counts: &mut BTreeMap<Topic, usize>, n: &mut usize| {
            for_each_token(text, |tok| {
                if !tok.starts_with('#') {
                    return;
                }
                if let Some(topic) = table.get(tok) {
                    if !matches!(topic, Topic::Fediverse | Topic::Migration) {
                        *counts.entry(*topic).or_insert(0) += 1;
                    }
                    *n += 1;
                }
            });
        };
        if let Some(tl) = ds.twitter_timelines.get(&m.twitter_id) {
            for t in tl {
                bump(&t.text, &mut counts, &mut n_tags);
            }
        }
        if let Some(sl) = handle_by_user
            .get(&m.twitter_id)
            .and_then(|h| ds.mastodon_timelines.get(*h))
        {
            for s in sl {
                bump(&s.text, &mut counts, &mut n_tags);
            }
        }
        let dominant = counts
            .into_iter()
            .max_by_key(|(t, c)| (*c, std::cmp::Reverse(*t)))
            .map(|(t, _)| t);
        out.insert(m.twitter_id, InferredInterest { dominant, n_tags });
    }
    out
}

/// One topical instance's population profile.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InstanceTopicProfile {
    pub domain: String,
    /// Users on the instance with an inferred interest.
    pub n_users: usize,
    /// The instance's modal inferred topic.
    pub modal_topic: Option<String>,
    /// Share of users whose inferred interest equals the modal topic.
    pub coherence: f64,
}

/// The topical-alignment report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TopicReport {
    /// Profiles for every instance with ≥ `min_users` interest-typed users,
    /// most coherent first.
    pub profiles: Vec<InstanceTopicProfile>,
    /// Mean coherence of the flagship vs the rest (topical instances should
    /// be far more coherent than `mastodon.social`).
    pub flagship_coherence: f64,
    /// Switchers whose destination's modal topic matches their own inferred
    /// interest, as a share of switchers with an inferred interest.
    pub switcher_alignment_pct: f64,
    /// The same share for their *first* instance — switching should raise it.
    pub pre_switch_alignment_pct: f64,
}

/// Compute the report. `min_users` bounds profile noise (5 is sensible).
pub fn topic_report(ds: &Dataset, min_users: usize) -> TopicReport {
    let interests = infer_interests(ds);
    // Group typed users by current instance.
    let mut by_instance: BTreeMap<&str, Vec<Topic>> = BTreeMap::new();
    for m in &ds.matched {
        if let Some(InferredInterest {
            dominant: Some(t), ..
        }) = interests.get(&m.twitter_id)
        {
            by_instance
                .entry(m.resolved_handle.instance())
                .or_default()
                .push(*t);
        }
    }
    let profile = |domain: &str, topics: &[Topic]| -> InstanceTopicProfile {
        let mut counts: BTreeMap<Topic, usize> = BTreeMap::new();
        for t in topics {
            *counts.entry(*t).or_insert(0) += 1;
        }
        let modal = counts
            .iter()
            .max_by_key(|(t, c)| (**c, std::cmp::Reverse(**t)))
            .map(|(t, c)| (*t, *c));
        InstanceTopicProfile {
            domain: domain.to_string(),
            n_users: topics.len(),
            modal_topic: modal.map(|(t, _)| t.to_string()),
            coherence: modal
                .map(|(_, c)| c as f64 / topics.len() as f64)
                .unwrap_or(0.0),
        }
    };
    let mut profiles: Vec<InstanceTopicProfile> = by_instance
        .iter()
        .filter(|(_, topics)| topics.len() >= min_users)
        .map(|(d, topics)| profile(d, topics))
        .collect();
    profiles.sort_by(|a, b| {
        b.coherence
            .total_cmp(&a.coherence)
            .then(a.domain.cmp(&b.domain))
    });
    let flagship_coherence = by_instance
        .get("mastodon.social")
        .map(|t| profile("mastodon.social", t).coherence)
        .unwrap_or(0.0);

    // Switcher alignment: does the destination's modal topic match the
    // switcher's inferred interest, and did the move improve on the origin?
    let modal_by_instance: BTreeMap<&str, Topic> = by_instance
        .iter()
        .filter_map(|(d, topics)| {
            let mut counts: BTreeMap<Topic, usize> = BTreeMap::new();
            for t in topics {
                *counts.entry(*t).or_insert(0) += 1;
            }
            counts
                .into_iter()
                .max_by_key(|(t, c)| (*c, std::cmp::Reverse(*t)))
                .map(|(t, _)| (*d, t))
        })
        .collect();
    let mut aligned_after = 0usize;
    let mut aligned_before = 0usize;
    let mut typed_switchers = 0usize;
    for m in ds.matched.iter().filter(|m| m.switched()) {
        let Some(InferredInterest {
            dominant: Some(me), ..
        }) = interests.get(&m.twitter_id)
        else {
            continue;
        };
        typed_switchers += 1;
        if modal_by_instance.get(m.resolved_handle.instance()) == Some(me) {
            aligned_after += 1;
        }
        if modal_by_instance.get(m.handle.instance()) == Some(me) {
            aligned_before += 1;
        }
    }
    TopicReport {
        profiles,
        flagship_coherence,
        switcher_alignment_pct: aligned_after as f64 / typed_switchers.max(1) as f64 * 100.0,
        pre_switch_alignment_pct: aligned_before as f64 / typed_switchers.max(1) as f64 * 100.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_core::{Day, TweetId};
    use flock_crawler::dataset::{MatchSource, MatchedUser, TimelineTweet};

    fn user(i: u64, inst: &str, resolved: &str) -> MatchedUser {
        MatchedUser {
            twitter_id: TwitterUserId(i),
            twitter_username: format!("u{i}"),
            twitter_created: Day(-100),
            verified: false,
            twitter_followers: 1,
            twitter_followees: 1,
            handle: format!("@u{i}@{inst}").parse().unwrap(),
            matched_via: MatchSource::Bio,
            first_seen: None,
            resolved_handle: format!("@u{i}@{resolved}").parse().unwrap(),
            account: None,
            first_account: None,
        }
    }

    fn tweet(text: &str) -> TimelineTweet {
        TimelineTweet {
            id: TweetId(0),
            day: Day(30),
            text: text.to_string(),
            source: "Twitter Web App".into(),
        }
    }

    fn ds() -> Dataset {
        let mut ds = Dataset::default();
        // Five AI people on sigmoid.social, five mixed on the flagship.
        for i in 0..5 {
            ds.matched.push(user(i, "sigmoid.social", "sigmoid.social"));
            ds.twitter_timelines.insert(
                TwitterUserId(i),
                vec![tweet("new paper on transformers #ai #machinelearning")],
            );
        }
        let flagship_tags = ["#f1", "#baking", "#rustlang", "#histodons", "#NowPlaying"];
        for i in 5..10 {
            ds.matched
                .push(user(i, "mastodon.social", "mastodon.social"));
            ds.twitter_timelines.insert(
                TwitterUserId(i),
                vec![tweet(&format!("stuff {}", flagship_tags[(i - 5) as usize]))],
            );
        }
        // One switcher with AI interests who moved flagship → sigmoid.
        ds.matched
            .push(user(10, "mastodon.social", "sigmoid.social"));
        ds.twitter_timelines.insert(
            TwitterUserId(10),
            vec![tweet("training runs all week #machinelearning #ai")],
        );
        ds
    }

    #[test]
    fn interests_inferred_from_hashtags() {
        let interests = infer_interests(&ds());
        assert_eq!(interests[&TwitterUserId(0)].dominant, Some(Topic::Ai));
        assert_eq!(interests[&TwitterUserId(10)].dominant, Some(Topic::Ai));
        // Meta tags alone yield no interest.
        let mut d = ds();
        d.twitter_timelines.insert(
            TwitterUserId(0),
            vec![tweet("hello #TwitterMigration #fediverse")],
        );
        let interests = infer_interests(&d);
        assert_eq!(interests[&TwitterUserId(0)].dominant, None);
    }

    #[test]
    fn topical_instances_are_coherent() {
        let r = topic_report(&ds(), 3);
        let sigmoid = r
            .profiles
            .iter()
            .find(|p| p.domain == "sigmoid.social")
            .expect("profile");
        assert_eq!(sigmoid.modal_topic.as_deref(), Some("Ai"));
        assert!(sigmoid.coherence > 0.9);
        // The flagship mixes five different interests.
        assert!(r.flagship_coherence < 0.5);
    }

    #[test]
    fn switching_raises_alignment() {
        let r = topic_report(&ds(), 3);
        assert!((r.switcher_alignment_pct - 100.0).abs() < 1e-9);
        assert!(r.pre_switch_alignment_pct < r.switcher_alignment_pct);
    }

    #[test]
    fn empty_dataset() {
        let r = topic_report(&Dataset::default(), 3);
        assert!(r.profiles.is_empty());
        assert_eq!(r.switcher_alignment_pct, 0.0);
    }
}
