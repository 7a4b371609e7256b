//! Dataset persistence and anonymization.
//!
//! §3.4 of the paper: *"We anonymize the data before use … Upon acceptance
//! of the paper, anonymized data will be made available to the public."*
//! This module implements that release path: a [`Dataset`] serializes to
//! JSON, and [`Dataset::anonymized`] produces the shareable variant —
//! usernames and handles replaced by stable pseudonyms (instance domains
//! are retained: they are the unit of the RQ1/RQ2 analyses), with handle
//! occurrences inside post text rewritten to match.

use crate::dataset::{CrawlStats, Dataset, MatchedUser};
use flock_core::handle::extract_handles;
use flock_core::rng::fnv1a_salted;
use flock_core::{durable, FlockError, MastodonHandle, Result};
use std::collections::BTreeMap;
use std::path::Path;

impl Dataset {
    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string_pretty(self)
            .map_err(|e| FlockError::InvalidConfig(format!("serialize: {e}")))
    }

    /// Deserialize from JSON. Input that fails strict parsing is a
    /// [`FlockError::MalformedRecord`], as a corrupt CSV is.
    pub fn from_json(json: &str) -> Result<Dataset> {
        serde_json::from_str(json)
            .map_err(|e| FlockError::MalformedRecord(format!("deserialize dataset: {e}")))
    }

    /// Write JSON to a file.
    pub fn save(&self, path: &Path) -> Result<()> {
        std::fs::write(path, self.to_json()?)
            .map_err(|e| FlockError::InvalidConfig(format!("write {}: {e}", path.display())))
    }

    /// Read a dataset back from a file.
    pub fn load(path: &Path) -> Result<Dataset> {
        Dataset::from_json(&durable::read_json_text(path, "dataset")?)
    }

    /// The anonymized release variant: every username becomes a stable
    /// pseudonym derived from `salt`, both in the records and inside post
    /// text. Instance domains, dates, counts, sources and non-handle text
    /// are retained — they carry the scientific content. The crawl's own
    /// accounting ([`CrawlStats`]) is not: it depends on thread timing, so
    /// the release carries zeroed stats and is the same at every worker
    /// count.
    pub fn anonymized(&self, salt: u64) -> Result<Dataset> {
        let mut names = Pseudonyms::new(salt);
        // Collect every username we must rewrite: matched users' Twitter
        // usernames and all handle usernames.
        for m in &self.matched {
            names.assign(&m.twitter_username);
            names.assign(m.handle.username());
            names.assign(m.resolved_handle.username());
        }

        let anon_handle = |h: &MastodonHandle, names: &mut Pseudonyms| -> Result<MastodonHandle> {
            MastodonHandle::new(&names.assign(h.username()), h.instance())
        };
        let anon_text = |text: &str, names: &mut Pseudonyms| -> Result<String> {
            let mut out = text.to_string();
            for h in extract_handles(text) {
                let replacement = anon_handle(&h, names)?;
                out = out.replace(&h.to_string(), &replacement.to_string());
                out = out.replace(&h.profile_url(), &replacement.profile_url());
            }
            Ok(out)
        };

        let matched: Vec<MatchedUser> = self
            .matched
            .iter()
            .map(|m| {
                let mut a = m.clone();
                a.twitter_username = names.assign(&m.twitter_username);
                a.handle = anon_handle(&m.handle, &mut names)?;
                a.resolved_handle = anon_handle(&m.resolved_handle, &mut names)?;
                if let Some(acct) = &mut a.account {
                    acct.handle = anon_handle(&acct.handle, &mut names)?;
                    if let Some(moved) = &acct.moved_to {
                        acct.moved_to = Some(anon_handle(moved, &mut names)?);
                    }
                }
                if let Some(acct) = &mut a.first_account {
                    acct.handle = anon_handle(&acct.handle, &mut names)?;
                    if let Some(moved) = &acct.moved_to {
                        acct.moved_to = Some(anon_handle(moved, &mut names)?);
                    }
                }
                Ok(a)
            })
            .collect::<Result<_>>()?;

        let collected_tweets = self
            .collected_tweets
            .iter()
            .map(|t| {
                let mut t = t.clone();
                t.text = anon_text(&t.text, &mut names)?;
                Ok(t)
            })
            .collect::<Result<_>>()?;
        let twitter_timelines = self
            .twitter_timelines
            .iter()
            .map(|(id, tl)| {
                let tl = tl
                    .iter()
                    .map(|t| {
                        let mut t = t.clone();
                        t.text = anon_text(&t.text, &mut names)?;
                        Ok(t)
                    })
                    .collect::<Result<_>>()?;
                Ok((*id, tl))
            })
            .collect::<Result<_>>()?;
        let mastodon_timelines = self
            .mastodon_timelines
            .iter()
            .map(|(h, tl)| {
                let tl = tl
                    .iter()
                    .map(|s| {
                        let mut s = s.clone();
                        s.text = anon_text(&s.text, &mut names)?;
                        Ok(s)
                    })
                    .collect::<Result<_>>()?;
                Ok((anon_handle(h, &mut names)?, tl))
            })
            .collect::<Result<_>>()?;
        let followees = self
            .followees
            .iter()
            .map(|(id, rec)| {
                let mut rec = rec.clone();
                rec.mastodon = rec
                    .mastodon
                    .iter()
                    .map(|h| anon_handle(h, &mut names))
                    .collect::<Result<_>>()?;
                Ok((*id, rec))
            })
            .collect::<Result<_>>()?;

        Ok(Dataset {
            instance_list: self.instance_list.clone(),
            collected_tweets,
            searched_users: self.searched_users,
            matched,
            twitter_timelines,
            twitter_outcomes: self.twitter_outcomes.clone(),
            mastodon_timelines,
            mastodon_outcomes: self.mastodon_outcomes.clone(),
            followees,
            weekly_activity: self.weekly_activity.clone(),
            instance_info: self.instance_info.clone(),
            // Skip reasons name queries and domains, never usernames.
            coverage: self.coverage.clone(),
            stats: CrawlStats::default(),
        })
    }
}

/// Deterministic username → pseudonym assignment.
struct Pseudonyms {
    salt: u64,
    map: BTreeMap<String, String>,
}

impl Pseudonyms {
    fn new(salt: u64) -> Self {
        Pseudonyms {
            salt,
            map: BTreeMap::new(),
        }
    }

    /// Pseudonym for a username (stable within one anonymization pass).
    fn assign(&mut self, username: &str) -> String {
        if let Some(p) = self.map.get(username) {
            return p.clone();
        }
        let p = format!("user_{:012x}", fnv1a_salted(self.salt, username));
        self.map.insert(username.to_string(), p.clone());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{CollectedTweet, MatchSource, QueryKind};
    use flock_core::{Day, TweetId, TwitterUserId};

    fn sample() -> Dataset {
        let mut ds = Dataset {
            instance_list: vec!["mastodon.social".into()],
            ..Dataset::default()
        };
        ds.matched.push(MatchedUser {
            twitter_id: TwitterUserId(1),
            twitter_username: "quiet_otter".into(),
            twitter_created: Day(-1000),
            verified: true,
            twitter_followers: 10,
            twitter_followees: 20,
            handle: "@quiet_otter@mastodon.social".parse().unwrap(),
            matched_via: MatchSource::Bio,
            first_seen: Some(Day(28)),
            resolved_handle: "@quiet_otter@mastodon.social".parse().unwrap(),
            account: None,
            first_account: None,
        });
        ds.collected_tweets.push(CollectedTweet {
            id: TweetId(0),
            author: TwitterUserId(1),
            day: Day(28),
            text: "bye! find me at @quiet_otter@mastodon.social".into(),
            source: "Twitter Web App".into(),
            via: QueryKind::Keyword,
        });
        ds.searched_users = 1;
        ds
    }

    #[test]
    fn json_round_trip() {
        let ds = sample();
        let json = ds.to_json().unwrap();
        let back = Dataset::from_json(&json).unwrap();
        assert_eq!(back.matched.len(), 1);
        assert_eq!(back.matched[0].handle, ds.matched[0].handle);
        assert_eq!(back.collected_tweets[0].text, ds.collected_tweets[0].text);
        assert_eq!(back.searched_users, 1);
    }

    #[test]
    fn save_and_load() {
        let dir = std::env::temp_dir().join("flock_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.json");
        let ds = sample();
        ds.save(&path).unwrap();
        let back = Dataset::load(&path).unwrap();
        assert_eq!(back.matched.len(), ds.matched.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_json_is_rejected_cleanly() {
        for bad in ["", "{", "null", "[1,2,3]", "{\"matched\": 7}"] {
            match Dataset::from_json(bad) {
                Err(FlockError::MalformedRecord(msg)) => {
                    assert!(msg.contains("deserialize dataset"), "{msg}")
                }
                other => panic!("{bad:?}: expected MalformedRecord, got {other:?}"),
            }
        }
        assert!(matches!(
            Dataset::load(std::path::Path::new("/no/such/file.json")),
            Err(FlockError::InvalidConfig(_))
        ));
    }

    #[test]
    fn the_release_carries_no_crawl_accounting() {
        let mut ds = sample();
        ds.stats = CrawlStats {
            requests: 2470,
            rate_limited: 341,
            transient_failures: 546,
            virtual_secs: 17_520,
        };
        let anon = ds.anonymized(1234).unwrap();
        assert_eq!(anon.stats.requests, 0);
        // The release equals that of the same crawl with zeroed stats.
        ds.stats = CrawlStats::default();
        assert_eq!(
            anon.to_json().unwrap(),
            ds.anonymized(1234).unwrap().to_json().unwrap()
        );
    }

    #[test]
    fn anonymization_scrubs_usernames_everywhere() {
        let ds = sample();
        let anon = ds.anonymized(42).unwrap();
        assert_ne!(anon.matched[0].twitter_username, "quiet_otter");
        assert_ne!(anon.matched[0].handle.username(), "quiet_otter");
        // The instance stays — it's the unit of analysis.
        assert_eq!(anon.matched[0].handle.instance(), "mastodon.social");
        // Text mentions are rewritten consistently with the record.
        assert!(!anon.collected_tweets[0].text.contains("quiet_otter"));
        assert!(anon.collected_tweets[0]
            .text
            .contains(anon.matched[0].handle.username()));
    }

    #[test]
    fn anonymization_is_deterministic_and_salted() {
        let ds = sample();
        let a = ds.anonymized(42).unwrap();
        let b = ds.anonymized(42).unwrap();
        assert_eq!(a.matched[0].twitter_username, b.matched[0].twitter_username);
        let c = ds.anonymized(43).unwrap();
        assert_ne!(a.matched[0].twitter_username, c.matched[0].twitter_username);
    }

    /// A known answer pins the pseudonym bytes of the published dataset.
    #[test]
    fn pseudonym_known_answer() {
        let mut names = Pseudonyms::new(42);
        assert_eq!(names.assign("quiet_otter"), "user_c2949eb5abb0d078");
    }

    #[test]
    fn anonymization_preserves_structure() {
        let ds = sample();
        let anon = ds.anonymized(7).unwrap();
        assert_eq!(anon.matched.len(), ds.matched.len());
        assert_eq!(anon.collected_tweets.len(), ds.collected_tweets.len());
        assert_eq!(anon.matched[0].twitter_id, ds.matched[0].twitter_id);
        assert_eq!(anon.matched[0].first_seen, ds.matched[0].first_seen);
    }
}
