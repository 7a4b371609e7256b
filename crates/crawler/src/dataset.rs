//! The dataset the crawl produces — everything downstream analysis sees.
//!
//! Nothing in here is ground truth: every field was observed through the
//! public API surface, with the same blind spots the paper had (deleted
//! accounts, protected tweets, down instances, handles nobody announced).

use flock_apis::types::{ActivityRow, InstanceInfoObject, MastodonAccountObject};
use flock_core::{Day, MastodonHandle, SortedVecMap, TweetId, TwitterUserId};
use serde::{Deserialize, Serialize};

/// Which §3.1 query family matched a collected tweet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QueryKind {
    /// A keyword / phrase query ('mastodon', "bye bye twitter", …).
    Keyword,
    /// A migration hashtag query (#TwitterMigration, …).
    Hashtag,
    /// An instance-link query (`url:"mastodon.social"`, …).
    InstanceLink,
}

/// A tweet captured by the §3.1 search.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CollectedTweet {
    pub id: TweetId,
    pub author: TwitterUserId,
    pub day: Day,
    pub text: String,
    pub source: String,
    /// First query family that surfaced it.
    pub via: QueryKind,
}

/// How a Twitter→Mastodon mapping was established (§3.1's hierarchy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MatchSource {
    /// Handle found in profile metadata (bio) — accepted for any username.
    Bio,
    /// Handle found in tweet text — accepted only when the Twitter and
    /// Mastodon usernames are identical.
    TweetText,
}

/// An identified migrant: a Twitter account mapped to a Mastodon handle.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MatchedUser {
    pub twitter_id: TwitterUserId,
    pub twitter_username: String,
    pub twitter_created: Day,
    pub verified: bool,
    pub twitter_followers: u64,
    pub twitter_followees: u64,
    /// The handle as announced.
    pub handle: MastodonHandle,
    pub matched_via: MatchSource,
    /// Day of the user's earliest collected migration tweet — the visible
    /// announcement. Used as the join-date proxy when the Mastodon account
    /// itself is unreachable (the paper could always see announcement
    /// dates).
    pub first_seen: Option<Day>,
    /// The account after following any `moved_to` redirect.
    pub resolved_handle: MastodonHandle,
    /// Account object fetched from the (reachable) instance.
    pub account: Option<MastodonAccountObject>,
    /// The original account object when a `moved_to` redirect was followed
    /// (i.e. the user switched instance, §5.3).
    pub first_account: Option<MastodonAccountObject>,
}

impl MatchedUser {
    /// Did this user switch instance (observable via `moved_to`)?
    pub fn switched(&self) -> bool {
        self.resolved_handle != self.handle
    }
}

/// Why a Twitter timeline crawl failed — the §3.2 coverage taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TwitterCrawlOutcome {
    Ok,
    Suspended,
    Deleted,
    Protected,
    /// Transient retries exhausted (fault injection / chaos): the account
    /// may exist, but the crawler could not retrieve its timeline.
    Unreachable,
}

/// Why a Mastodon timeline crawl yielded nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MastodonCrawlOutcome {
    Ok,
    /// The account exists but has zero statuses (paper: 9.20%).
    NoStatuses,
    /// The instance was unreachable at crawl time (paper: 11.58%).
    InstanceDown,
    /// Transient retries exhausted (fault injection / chaos): the instance
    /// answered, but the timeline could not be retrieved.
    Unreachable,
}

/// One piece of work the crawler gave up on after exhausting its retries —
/// the graceful-degradation record chaos scenarios leave behind.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SkippedItem {
    /// Pipeline phase that skipped the item (e.g. `expand.followees`).
    pub phase: String,
    /// What was skipped, human-readable and stable for a given seed.
    pub item: String,
    /// The error that exhausted the retries.
    pub reason: String,
}

/// Everything the crawl skipped and why. Entries are recorded in phase
/// order and, within a phase, in the phase's deterministic work order, so
/// the report is byte-identical across worker counts for a given seed and
/// fault plan.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoverageReport {
    pub skipped: Vec<SkippedItem>,
}

impl CoverageReport {
    /// Record one skipped item.
    pub fn record_skip(
        &mut self,
        phase: &str,
        item: impl Into<String>,
        reason: impl std::fmt::Display,
    ) {
        self.skipped.push(SkippedItem {
            phase: phase.to_string(),
            item: item.into(),
            reason: reason.to_string(),
        });
    }

    /// Number of skipped items.
    pub fn len(&self) -> usize {
        self.skipped.len()
    }

    /// True when nothing was skipped.
    pub fn is_empty(&self) -> bool {
        self.skipped.is_empty()
    }

    /// Per-phase skip counts, one `phase: n` line each, phase order.
    pub fn summary(&self) -> String {
        let mut counts: Vec<(&str, usize)> = Vec::new();
        for s in &self.skipped {
            match counts.iter_mut().find(|(p, _)| *p == s.phase) {
                Some((_, n)) => *n += 1,
                None => counts.push((&s.phase, 1)),
            }
        }
        counts
            .iter()
            .map(|(p, n)| format!("{p}: {n}"))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// A crawled tweet in a user's timeline (the §3.2 corpus).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimelineTweet {
    pub id: TweetId,
    pub day: Day,
    pub text: String,
    pub source: String,
}

/// A crawled Mastodon status.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimelineStatus {
    pub day: Day,
    pub text: String,
}

/// Followee data for one sampled user (§3.3).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FolloweeRecord {
    /// Twitter accounts the user follows.
    pub twitter: Vec<TwitterUserId>,
    /// Mastodon accounts the user follows (resolved handles).
    pub mastodon: Vec<MastodonHandle>,
}

/// Counters for the crawl's interaction with the APIs.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct CrawlStats {
    pub requests: u64,
    pub rate_limited: u64,
    pub transient_failures: u64,
    /// Virtual seconds of API time the crawl consumed.
    pub virtual_secs: u64,
}

/// The §3 dataset.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Dataset {
    /// The instances.social-style seed list.
    pub instance_list: Vec<String>,
    /// Every tweet the §3.1 search captured (deduplicated).
    pub collected_tweets: Vec<CollectedTweet>,
    /// Distinct authors in `collected_tweets`.
    pub searched_users: usize,
    /// Identified migrants, §3.1.
    pub matched: Vec<MatchedUser>,
    /// §3.2 Twitter timelines (only for `Ok` outcomes).
    #[serde(with = "as_pairs")]
    pub twitter_timelines: SortedVecMap<TwitterUserId, Vec<TimelineTweet>>,
    /// §3.2 crawl outcome per matched user.
    #[serde(with = "as_pairs")]
    pub twitter_outcomes: SortedVecMap<TwitterUserId, TwitterCrawlOutcome>,
    /// §3.2 Mastodon timelines keyed by resolved handle.
    #[serde(with = "as_pairs")]
    pub mastodon_timelines: SortedVecMap<MastodonHandle, Vec<TimelineStatus>>,
    /// §3.2 Mastodon outcome per matched user (keyed by Twitter id).
    #[serde(with = "as_pairs")]
    pub mastodon_outcomes: SortedVecMap<TwitterUserId, MastodonCrawlOutcome>,
    /// §3.3 followee sample (keyed by Twitter id; ~10% of matched users).
    #[serde(with = "as_pairs")]
    pub followees: SortedVecMap<TwitterUserId, FolloweeRecord>,
    /// §3.1 cross-check: weekly activity per instance domain.
    pub weekly_activity: SortedVecMap<String, Vec<ActivityRow>>,
    /// Public per-instance metadata (registered users incl. background —
    /// what instances.social reported for the landing instances).
    #[serde(default)]
    pub instance_info: SortedVecMap<String, InstanceInfoObject>,
    /// What the crawl skipped after exhausting retries, and why — the
    /// degradation record a chaos scenario leaves behind. Empty on a
    /// fault-free crawl of fully-crawlable users.
    #[serde(default)]
    pub coverage: CoverageReport,
    /// Crawl accounting.
    pub stats: CrawlStats,
}

impl Dataset {
    /// Instances that actually received matched users.
    pub fn landing_instances(&self) -> Vec<String> {
        let mut set: Vec<String> = self
            .matched
            .iter()
            .map(|m| m.resolved_handle.instance().to_string())
            .collect();
        set.sort();
        set.dedup();
        set
    }

    /// Matched users that live on a given instance (post-redirect).
    pub fn users_on_instance(&self, domain: &str) -> Vec<&MatchedUser> {
        self.matched
            .iter()
            .filter(|m| m.resolved_handle.instance() == domain)
            .collect()
    }

    /// Find a matched user by Twitter id.
    pub fn matched_by_id(&self, id: TwitterUserId) -> Option<&MatchedUser> {
        self.matched.iter().find(|m| m.twitter_id == id)
    }
}

/// Serialize maps with non-string keys (ids, handles) as JSON pair lists.
/// The output bytes are identical to the previous `BTreeMap`-backed
/// encoding: a `SortedVecMap` iterates in ascending key order too.
pub(crate) mod as_pairs {
    use flock_core::SortedVecMap;
    use serde::{Deserialize, Deserializer, Error, Serialize, Serializer};

    pub fn serialize<K, V>(map: &SortedVecMap<K, V>, s: &mut Serializer) -> Result<(), Error>
    where
        K: Serialize,
        V: Serialize,
    {
        s.collect_seq(map)
    }

    pub fn deserialize<'de, K, V>(d: &mut Deserializer<'de>) -> Result<SortedVecMap<K, V>, Error>
    where
        K: Deserialize<'de> + Ord,
        V: Deserialize<'de>,
    {
        let pairs: Vec<(K, V)> = Vec::deserialize(d)?;
        Ok(pairs.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handle(s: &str) -> MastodonHandle {
        s.parse().unwrap()
    }

    fn matched(u: &str, h: &str, resolved: &str) -> MatchedUser {
        MatchedUser {
            twitter_id: TwitterUserId(1),
            twitter_username: u.into(),
            twitter_created: Day(-1000),
            verified: false,
            twitter_followers: 10,
            twitter_followees: 20,
            handle: handle(h),
            matched_via: MatchSource::Bio,
            first_seen: None,
            resolved_handle: handle(resolved),
            account: None,
            first_account: None,
        }
    }

    #[test]
    fn switched_detection() {
        let stay = matched("a", "@a@one.example", "@a@one.example");
        assert!(!stay.switched());
        let moved = matched("b", "@b@one.example", "@b@two.example");
        assert!(moved.switched());
    }

    #[test]
    fn landing_instances_dedup_sorted() {
        let mut d = Dataset::default();
        d.matched.push(matched("a", "@a@b.example", "@a@b.example"));
        d.matched.push(matched("c", "@c@a.example", "@c@a.example"));
        d.matched.push(matched("d", "@d@b.example", "@d@b.example"));
        assert_eq!(d.landing_instances(), vec!["a.example", "b.example"]);
        assert_eq!(d.users_on_instance("b.example").len(), 2);
    }
}
