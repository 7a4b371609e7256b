//! Timeline generation: every tweet and status in the world.
//!
//! This module produces the corpora that RQ3 (and the §3.1 search) operate
//! on:
//!
//! * migrants tweet throughout the window (their Twitter activity does
//!   *not* drop after migrating — Fig. 11) and post statuses from the day
//!   they join, ramping up;
//! * the migration announcement tweet carries the Mastodon handle and
//!   migration hashtags (what the §3.1 matcher finds);
//! * non-migrant "noise" users tweet migration keywords without moving
//!   (the paper matched 1.02M tweet authors but could map only 136k);
//! * cross-poster users mirror content *identically* via the two tools the
//!   paper names (Fig. 12/13); manual mirrorers paraphrase (similar-but-
//!   not-identical, Fig. 14);
//! * a per-user toxicity propensity injects insult vocabulary at the
//!   platform-specific rates behind Fig. 16.

use crate::config::{
    WorldConfig, CROSSPOST_PER_POST, MANUAL_MIRROR_PER_POST, MASTODON_ABANDON_AFTER_DAYS_MEAN,
    MASTODON_TOXICITY_FACTOR, NEVER_POSTED_RATE, NOISE_TWEET_RATE, STATUSES_PER_DAY_MEAN,
};
use crate::migration::MastodonAccount;
use crate::users::TwitterUser;
use flock_core::{Day, DetRng, MastodonAccountId, Platform, StatusId, TweetId, TwitterUserId};
use flock_textsim::{PostGenerator, Topic};
use serde::{Deserialize, Serialize};

/// Tweet sources (clients), most popular first — the Fig. 12 table.
/// The two cross-posting tools the paper names sit at fixed indices
/// [`SOURCE_CROSSPOSTER`] and [`SOURCE_MOA`].
pub const SOURCES: &[(&str, f64)] = &[
    ("Twitter Web App", 30.0),
    ("Twitter for iPhone", 28.0),
    ("Twitter for Android", 22.0),
    ("Twitter for iPad", 6.0),
    ("TweetDeck", 5.0),
    ("Tweetbot for iOS", 2.5),
    ("Twitter for Mac", 1.8),
    ("Hootsuite Inc.", 1.6),
    ("Buffer", 1.4),
    ("IFTTT", 1.2),
    ("Echofon", 1.0),
    ("Fenix 2", 0.9),
    ("Talon Android", 0.8),
    ("Twitterrific for iOS", 0.8),
    ("dlvr.it", 0.7),
    ("SocialFlow", 0.6),
    ("Sprout Social", 0.6),
    ("Tweetlogix", 0.5),
    ("Plume for Twitter", 0.5),
    ("Janetter", 0.4),
    ("Twidere for Android", 0.4),
    ("TweetCaster for Android", 0.35),
    ("UberSocial for iPhone", 0.3),
    ("Owly", 0.3),
    ("Zapier.com", 0.25),
    ("Crowdfire App", 0.2),
    ("Typefully", 0.2),
    ("Chirpty", 0.15),
    ("Mastodon-Twitter Crossposter", 0.10),
    ("Moa Bridge", 0.06),
];

/// Index of "Mastodon-Twitter Crossposter" in [`SOURCES`].
pub const SOURCE_CROSSPOSTER: u16 = 28;
/// Index of "Moa Bridge" in [`SOURCES`].
pub const SOURCE_MOA: u16 = 29;

/// The §3.1 search keywords ('mastodon', 'bye bye twitter', 'good bye
/// twitter') — announcement and noise tweets embed these.
pub const MIGRATION_PHRASES: &[&str] = &[
    "mastodon",
    "bye bye twitter",
    "good bye twitter",
    "leaving for mastodon",
    "find me on mastodon",
];

/// Keyword-free announcement leads: these tweets are only discoverable
/// through the §3.1 *instance-link* queries (`url:"<domain>"`), giving
/// Fig. 2 its second series.
pub const LINK_ONLY_PHRASES: &[&str] = &[
    "new home:",
    "you can now find me here:",
    "settled in over at",
    "my new corner of the internet:",
    "posting here from now on:",
];

/// How a user mirrors content across platforms (Fig. 14 trichotomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MirrorBehavior {
    /// 84%: the two accounts carry different personas.
    None,
    /// Runs one of the two cross-posting tools: identical mirrors.
    CrossPoster { source: u16 },
    /// Mirrors by hand: paraphrased (similar, not identical).
    Manual,
}

/// Columnar arena holding every tweet: one concatenated text buffer plus
/// parallel compact columns, instead of one heap `String` (and one `Vec`
/// slot of padding) per tweet. At paper scale the corpus runs to tens of
/// millions of tweets — per-tweet allocations dominated both peak RSS and
/// allocator traffic before this layout. Ids are dense and implicit:
/// tweet `i` is `TweetId(i)`, in generation order.
#[derive(Debug, Default, Clone)]
pub struct TweetStore {
    authors: Vec<TwitterUserId>,
    days: Vec<Day>,
    sources: Vec<u16>,
    /// All tweet texts, concatenated in id order.
    text: String,
    /// `text_ends[i]` = byte offset one past tweet `i`'s text.
    text_ends: Vec<u64>,
}

/// One tweet viewed out of a [`TweetStore`] (text borrowed, not cloned).
#[derive(Debug, Clone, Copy)]
pub struct TweetView<'a> {
    pub id: TweetId,
    pub author: TwitterUserId,
    pub day: Day,
    pub text: &'a str,
    pub source: u16,
}

impl TweetStore {
    /// Number of tweets.
    pub fn len(&self) -> usize {
        self.authors.len()
    }

    /// True when no tweets were generated.
    pub fn is_empty(&self) -> bool {
        self.authors.is_empty()
    }

    /// Append a tweet; its id is its position.
    pub fn push(&mut self, author: TwitterUserId, day: Day, text: &str, source: u16) -> TweetId {
        let id = TweetId(self.authors.len() as u64);
        self.authors.push(author);
        self.days.push(day);
        self.sources.push(source);
        self.text.push_str(text);
        self.text_ends.push(self.text.len() as u64);
        id
    }

    fn text_range(&self, i: usize) -> (usize, usize) {
        let start = if i == 0 {
            0
        } else {
            self.text_ends[i - 1] as usize
        };
        (start, self.text_ends[i] as usize)
    }

    /// Text of tweet `i`.
    pub fn text(&self, i: usize) -> &str {
        let (s, e) = self.text_range(i);
        &self.text[s..e]
    }

    /// Day of tweet `i`.
    pub fn day(&self, i: usize) -> Day {
        self.days[i]
    }

    /// Author of tweet `i`.
    pub fn author(&self, i: usize) -> TwitterUserId {
        self.authors[i]
    }

    /// Source (client) index of tweet `i`.
    pub fn source(&self, i: usize) -> u16 {
        self.sources[i]
    }

    /// Tweet `i` as a view.
    pub fn get(&self, i: usize) -> TweetView<'_> {
        TweetView {
            id: TweetId(i as u64),
            author: self.authors[i],
            day: self.days[i],
            text: self.text(i),
            source: self.sources[i],
        }
    }

    /// All tweets in id order.
    pub fn iter(&self) -> TweetIter<'_> {
        TweetIter { store: self, i: 0 }
    }

    /// Bytes of text held (diagnostics).
    pub fn text_bytes(&self) -> usize {
        self.text.len()
    }
}

/// Iterator over a [`TweetStore`] in id order.
pub struct TweetIter<'a> {
    store: &'a TweetStore,
    i: usize,
}

impl<'a> Iterator for TweetIter<'a> {
    type Item = TweetView<'a>;

    fn next(&mut self) -> Option<TweetView<'a>> {
        if self.i >= self.store.len() {
            return None;
        }
        let v = self.store.get(self.i);
        self.i += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.store.len() - self.i;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for TweetIter<'_> {}

impl<'a> IntoIterator for &'a TweetStore {
    type Item = TweetView<'a>;
    type IntoIter = TweetIter<'a>;

    fn into_iter(self) -> TweetIter<'a> {
        self.iter()
    }
}

/// Columnar arena for Mastodon statuses; same layout contract as
/// [`TweetStore`]: status `i` is `StatusId(i)`, in generation order.
#[derive(Debug, Default, Clone)]
pub struct StatusStore {
    accounts: Vec<MastodonAccountId>,
    days: Vec<Day>,
    text: String,
    text_ends: Vec<u64>,
}

/// One status viewed out of a [`StatusStore`].
#[derive(Debug, Clone, Copy)]
pub struct StatusView<'a> {
    pub id: StatusId,
    pub account: MastodonAccountId,
    pub day: Day,
    pub text: &'a str,
}

impl StatusStore {
    /// Number of statuses.
    pub fn len(&self) -> usize {
        self.accounts.len()
    }

    /// True when no statuses were generated.
    pub fn is_empty(&self) -> bool {
        self.accounts.is_empty()
    }

    /// Append a status; its id is its position.
    pub fn push(&mut self, account: MastodonAccountId, day: Day, text: &str) -> StatusId {
        let id = StatusId(self.accounts.len() as u64);
        self.accounts.push(account);
        self.days.push(day);
        self.text.push_str(text);
        self.text_ends.push(self.text.len() as u64);
        id
    }

    fn text_range(&self, i: usize) -> (usize, usize) {
        let start = if i == 0 {
            0
        } else {
            self.text_ends[i - 1] as usize
        };
        (start, self.text_ends[i] as usize)
    }

    /// Text of status `i`.
    pub fn text(&self, i: usize) -> &str {
        let (s, e) = self.text_range(i);
        &self.text[s..e]
    }

    /// Day of status `i`.
    pub fn day(&self, i: usize) -> Day {
        self.days[i]
    }

    /// Account of status `i`.
    pub fn account(&self, i: usize) -> MastodonAccountId {
        self.accounts[i]
    }

    /// Status `i` as a view.
    pub fn get(&self, i: usize) -> StatusView<'_> {
        StatusView {
            id: StatusId(i as u64),
            account: self.accounts[i],
            day: self.days[i],
            text: self.text(i),
        }
    }

    /// All statuses in id order.
    pub fn iter(&self) -> StatusIter<'_> {
        StatusIter { store: self, i: 0 }
    }

    /// Bytes of text held (diagnostics).
    pub fn text_bytes(&self) -> usize {
        self.text.len()
    }
}

/// Iterator over a [`StatusStore`] in id order.
pub struct StatusIter<'a> {
    store: &'a StatusStore,
    i: usize,
}

impl<'a> Iterator for StatusIter<'a> {
    type Item = StatusView<'a>;

    fn next(&mut self) -> Option<StatusView<'a>> {
        if self.i >= self.store.len() {
            return None;
        }
        let v = self.store.get(self.i);
        self.i += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.store.len() - self.i;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for StatusIter<'_> {}

impl<'a> IntoIterator for &'a StatusStore {
    type Item = StatusView<'a>;
    type IntoIter = StatusIter<'a>;

    fn into_iter(self) -> StatusIter<'a> {
        self.iter()
    }
}

/// Everything the content phase produced.
#[derive(Debug, Default)]
pub struct Corpora {
    pub tweets: TweetStore,
    pub statuses: StatusStore,
    /// Per-migrant mirror behaviour (migrant index order).
    pub mirror_behavior: Vec<MirrorBehavior>,
    /// Per-migrant "never posted a status" flag (paper: 9.20%).
    pub never_posted: Vec<bool>,
}

/// Per-user topic choice for one tweet.
fn tweet_topic(user: &TwitterUser, migrated: bool, rng: &mut DetRng) -> Topic {
    let r = rng.f64();
    if migrated && r < 0.08 {
        Topic::Migration
    } else if r < 0.45 {
        user.primary_topic
    } else if r < 0.65 {
        user.secondary_topic
    } else {
        *rng.choose(&Topic::ALL)
    }
}

/// Per-user topic choice for one status: Mastodon talk is dominated by the
/// Fediverse and the migration itself (Fig. 15).
fn status_topic(user: &TwitterUser, rng: &mut DetRng) -> Topic {
    let r = rng.f64();
    if r < 0.30 {
        Topic::Fediverse
    } else if r < 0.48 {
        Topic::Migration
    } else if r < 0.78 {
        user.primary_topic
    } else if r < 0.90 {
        user.secondary_topic
    } else {
        *rng.choose(&Topic::ALL)
    }
}

/// Day after which the cross-posters broke (Twitter revoked their API
/// rate-limits late in November — the Fig. 13 downward tail).
const CROSSPOSTER_BREAK_DAY: i32 = 54;

/// Generate every tweet and status into the columnar arenas.
///
/// First the draws that run in one global order: preferred clients,
/// per-migrant mirror behaviour, never-posted and abandonment coins, and the
/// bio updates the §3.1 matcher reads. Then each migrant's two-platform
/// timeline (migrant-index order) and each noise user's chatter (user-index
/// order) is written straight into the arenas, one user at a time, from that
/// user's own [`DetRng::stream`]; every user's posts therefore form one
/// contiguous id run, and no user's draws depend on another's. `accounts`
/// must be in migrant-index order and `migrant_users[i]` maps migrant index
/// → index into `users`.
pub fn generate_content(
    users: &mut [TwitterUser],
    migrant_users: &[usize],
    accounts: &[MastodonAccount],
    config: &WorldConfig,
    rng: &mut DetRng,
) -> Corpora {
    let source_weights: Vec<f64> = SOURCES.iter().map(|(_, w)| *w).collect();

    // Assign preferred clients to everyone (cross-poster tools excluded
    // from organic preference).
    for u in users.iter_mut() {
        if u.preferred_client == usize::MAX {
            let mut c = rng.choose_weighted(&source_weights);
            while c as u16 == SOURCE_CROSSPOSTER || c as u16 == SOURCE_MOA {
                c = rng.choose_weighted(&source_weights);
            }
            u.preferred_client = c;
        }
    }

    // Mirror behaviour + never-posted flags per migrant.
    let mut out = Corpora {
        mirror_behavior: Vec::with_capacity(accounts.len()),
        never_posted: Vec::with_capacity(accounts.len()),
        ..Corpora::default()
    };
    for _ in accounts {
        let b = if rng.chance(config.crossposter_rate) {
            MirrorBehavior::CrossPoster {
                source: if rng.chance(0.62) {
                    SOURCE_CROSSPOSTER
                } else {
                    SOURCE_MOA
                },
            }
        } else if rng.chance(config.manual_mirror_rate) {
            MirrorBehavior::Manual
        } else {
            MirrorBehavior::None
        };
        out.mirror_behavior.push(b);
        out.never_posted.push(rng.chance(NEVER_POSTED_RATE));
    }

    // Abandonment (the §8 retention question): a slice of the wave goes
    // quiet on Mastodon a couple of weeks after arriving, while their
    // Twitter posting continues unchanged. Drawn here (not per-timeline)
    // so each timeline depends on its own stream only.
    let mut abandon_after = Vec::with_capacity(accounts.len());
    for account in accounts {
        abandon_after.push(if rng.chance(config.mastodon_abandon_rate) {
            let lag = rng
                .exponential(1.0 / MASTODON_ABANDON_AFTER_DAYS_MEAN)
                .round() as i32;
            Some(account.announced + lag.max(2))
        } else {
            None
        });
    }

    // Bio updates: the §3.1 matcher reads profile metadata first.
    for (mi, &ui) in migrant_users.iter().enumerate() {
        let account = &accounts[mi];
        if account.in_bio {
            let handle_text = if rng.chance(0.7) {
                account.first_handle.to_string()
            } else {
                account.first_handle.profile_url()
            };
            users[ui].bio = format!("{} | {}", users[ui].bio, handle_text);
        }
    }

    // The two stream bases every per-user timeline derives from.
    let migrant_base = rng.next_u64();
    let noise_base = rng.next_u64();
    let gen = PostGenerator::default();
    for (mi, &ui) in migrant_users.iter().enumerate() {
        let rng = &mut DetRng::stream(migrant_base, mi as u64);
        migrant_content(
            mi,
            &users[ui],
            &accounts[mi],
            abandon_after[mi],
            &gen,
            rng,
            &mut out,
        );
    }
    for (ui, user) in users.iter().enumerate() {
        if !user.is_migrant {
            let rng = &mut DetRng::stream(noise_base, ui as u64);
            noise_content(user, &gen, rng, &mut out.tweets);
        }
    }
    out
}

/// Write migrant `mi`'s full two-platform timeline into `out`'s arenas,
/// reading its mirror behaviour and never-posted flag from `out`.
fn migrant_content(
    mi: usize,
    user: &TwitterUser,
    account: &MastodonAccount,
    abandon_after: Option<Day>,
    gen: &PostGenerator,
    rng: &mut DetRng,
    out: &mut Corpora,
) {
    let behavior = out.mirror_behavior[mi];
    let never_posted = out.never_posted[mi];
    let tweet_tox = user.toxicity;
    let status_tox = user.toxicity * MASTODON_TOXICITY_FACTOR;
    let status_rate = STATUSES_PER_DAY_MEAN * user.engagement;
    let active_from = account.created.max(Day::STUDY_START);
    let client = user.preferred_client as u16;

    for day in Day::study_days() {
        // -- tweets -----------------------------------------------------
        let n_tweets = rng.poisson(user.tweet_rate.min(12.0)) as usize;
        let mut todays_tweets: Vec<usize> = Vec::with_capacity(n_tweets + 1);
        for _ in 0..n_tweets {
            let topic = tweet_topic(user, day >= account.announced, rng);
            let mut text = gen.compose(topic, Platform::Twitter, 2, rng);
            if rng.chance(tweet_tox) {
                text = gen.toxicify(&text, rng);
            }
            todays_tweets.push(out.tweets.push(user.id, day, &text, client).index());
        }

        // -- the announcement tweet --------------------------------------
        if day == account.announced {
            // A third of handle-bearing announcements are link-only:
            // no migration keyword, no hashtag — the paper's
            // instance-link queries are what catch these (Fig. 2).
            let text = if account.in_tweet && rng.chance(0.33) {
                format!(
                    "{} {}",
                    rng.choose::<&str>(LINK_ONLY_PHRASES),
                    account.first_handle.profile_url()
                )
            } else {
                let phrase = *rng.choose(MIGRATION_PHRASES);
                let mut text = if account.in_tweet {
                    let handle_text = if rng.chance(0.6) {
                        account.first_handle.to_string()
                    } else {
                        account.first_handle.profile_url()
                    };
                    format!("{phrase}! i am now at {handle_text}")
                } else {
                    format!("{phrase}! you know where to find me")
                };
                // Migration hashtags make the tweet searchable (§3.1).
                let tags = Topic::Migration.hashtags(Platform::Twitter);
                text.push(' ');
                text.push_str(rng.choose::<&str>(tags));
                if rng.chance(0.5) {
                    text.push(' ');
                    text.push_str(rng.choose::<&str>(tags));
                }
                text
            };
            out.tweets.push(user.id, day, &text, client);
        }

        // -- statuses -----------------------------------------------------
        if never_posted || day < active_from {
            continue;
        }
        if let Some(quit) = abandon_after {
            if day >= quit {
                continue;
            }
        }
        // Early-adopter accounts idle along pre-announcement; everyone
        // ramps up over ~6 days after they arrive/announce.
        let rate = if day < account.announced {
            0.15 * status_rate
        } else {
            let t = (day - account.announced.max(active_from)) as f64;
            status_rate * (1.0 - (-(t + 1.0) / 6.0).exp())
        };
        let n_statuses = rng.poisson(rate.min(10.0)) as usize;
        for _ in 0..n_statuses {
            // Cross-posting tools mirror identically — and also post a
            // copy on Twitter attributed to the tool (Fig. 12).
            let tools_alive = day.offset() <= CROSSPOSTER_BREAK_DAY || rng.chance(0.25);
            match behavior {
                MirrorBehavior::CrossPoster { source }
                    if day >= account.announced
                        && tools_alive
                        && rng.chance(CROSSPOST_PER_POST) =>
                {
                    let topic = status_topic(user, rng);
                    let mut text = gen.compose(topic, Platform::Mastodon, 2, rng);
                    if rng.chance(status_tox) {
                        text = gen.toxicify(&text, rng);
                    }
                    out.statuses.push(account.id, day, &text);
                    out.tweets.push(user.id, day, &text, source);
                }
                MirrorBehavior::Manual
                    if !todays_tweets.is_empty() && rng.chance(MANUAL_MIRROR_PER_POST) =>
                {
                    // Paraphrase one of today's tweets: similar, not
                    // identical (Fig. 14's middle band).
                    let src = todays_tweets[rng.below_usize(todays_tweets.len())];
                    let text = gen.paraphrase(out.tweets.text(src), rng);
                    out.statuses.push(account.id, day, &text);
                }
                _ => {
                    let topic = status_topic(user, rng);
                    let mut text = gen.compose(topic, Platform::Mastodon, 2, rng);
                    if rng.chance(status_tox) {
                        text = gen.toxicify(&text, rng);
                    }
                    out.statuses.push(account.id, day, &text);
                }
            }
        }
    }
}

/// Write one noise user's migration chatter into the tweet arena.
fn noise_content(
    user: &TwitterUser,
    gen: &PostGenerator,
    rng: &mut DetRng,
    tweets: &mut TweetStore,
) {
    let window_days = (Day::COLLECTION_END.offset() - Day::COLLECTION_START.offset() + 1) as f64;
    let n = rng.poisson(NOISE_TWEET_RATE * window_days) as usize;
    for _ in 0..n {
        // Noise chatter follows the same event-driven intensity.
        let day = crate::migration::sample_migration_day(rng);
        let phrase = *rng.choose(MIGRATION_PHRASES);
        let topic_text = gen.generate(Topic::Migration, rng);
        let tags = Topic::Migration.hashtags(Platform::Twitter);
        let mut text = format!("{topic_text} {phrase} {}", rng.choose(tags));
        if rng.chance(user.toxicity) {
            text = gen.toxicify(&text, rng);
        }
        tweets.push(user.id, day, &text, user.preferred_client as u16);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::INSTANCE_ZIPF_EXPONENT;
    use crate::graph::build_friend_graph;
    use crate::instances::generate_instances;
    use crate::migration::run_migration;
    use crate::users::generate_users;
    use flock_textsim::{extract_hashtags, ToxicityScorer};

    fn build() -> (
        WorldConfig,
        Vec<TwitterUser>,
        Vec<usize>,
        Vec<MastodonAccount>,
        Corpora,
    ) {
        let config = WorldConfig::small().with_seed(41);
        let mut rng = DetRng::new(config.seed);
        let mut users = generate_users(&config, &mut rng.fork("users"));
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
        let accounts = run_migration(
            &users,
            &migrants,
            &graph,
            &instances,
            &config,
            &mut rng.fork("mig"),
        )
        .unwrap();
        let corpora = generate_content(
            &mut users,
            &migrants,
            &accounts,
            &config,
            &mut rng.fork("content"),
        );
        (config, users, migrants, accounts, corpora)
    }

    #[test]
    fn source_constants_point_at_the_tools() {
        assert_eq!(
            SOURCES[SOURCE_CROSSPOSTER as usize].0,
            "Mastodon-Twitter Crossposter"
        );
        assert_eq!(SOURCES[SOURCE_MOA as usize].0, "Moa Bridge");
    }

    #[test]
    fn tweets_and_statuses_are_generated_in_window() {
        let (_config, _users, _migrants, _accounts, corpora) = build();
        assert!(!corpora.tweets.is_empty());
        assert!(!corpora.statuses.is_empty());
        assert!(corpora.tweets.iter().all(|t| t.day.in_study_window()));
        assert!(corpora.statuses.iter().all(|s| s.day.in_study_window()));
        // Ids are dense and ordered.
        for (i, t) in corpora.tweets.iter().enumerate() {
            assert_eq!(t.id.index(), i);
        }
        for (i, s) in corpora.statuses.iter().enumerate() {
            assert_eq!(s.id.index(), i);
        }
    }

    #[test]
    fn statuses_only_after_account_creation() {
        let (_config, _users, _migrants, accounts, corpora) = build();
        for s in &corpora.statuses {
            let acct = &accounts[s.account.index()];
            assert!(
                s.day >= acct.created,
                "status on {} before account creation {}",
                s.day,
                acct.created
            );
        }
    }

    #[test]
    fn never_posted_accounts_have_no_statuses() {
        let (_config, _users, _migrants, _accounts, corpora) = build();
        for (mi, &np) in corpora.never_posted.iter().enumerate() {
            if np {
                assert!(
                    !corpora.statuses.iter().any(|s| s.account.index() == mi),
                    "never-posted migrant {mi} has statuses"
                );
            }
        }
    }

    #[test]
    fn announcement_tweets_carry_handles_when_in_tweet() {
        let (_config, users, migrants, accounts, corpora) = build();
        let mut found_handle = 0;
        for (mi, acct) in accounts.iter().enumerate() {
            if !acct.in_tweet {
                continue;
            }
            let uid = users[migrants[mi]].id;
            let day = acct.announced;
            let has = corpora.tweets.iter().any(|t| {
                t.author == uid
                    && t.day == day
                    && flock_core::handle::extract_handles(t.text)
                        .iter()
                        .any(|h| h == &acct.first_handle)
            });
            assert!(has, "migrant {mi} announced without handle");
            found_handle += 1;
        }
        assert!(found_handle > 0);
    }

    #[test]
    fn bios_updated_for_in_bio_migrants() {
        let (_config, users, migrants, accounts, _corpora) = build();
        for (mi, acct) in accounts.iter().enumerate() {
            let bio = &users[migrants[mi]].bio;
            let extracted = flock_core::handle::extract_handles(bio);
            if acct.in_bio {
                assert!(
                    extracted.iter().any(|h| h == &acct.first_handle),
                    "bio missing handle: {bio}"
                );
            } else {
                assert!(extracted.is_empty(), "unexpected handle in bio: {bio}");
            }
        }
    }

    #[test]
    fn crossposters_produce_identical_pairs_with_tool_source() {
        let (_config, users, migrants, accounts, corpora) = build();
        let mut tool_tweets = 0;
        for (mi, b) in corpora.mirror_behavior.iter().enumerate() {
            if let MirrorBehavior::CrossPoster { source } = b {
                let uid = users[migrants[mi]].id;
                let aid = accounts[mi].id;
                for t in corpora
                    .tweets
                    .iter()
                    .filter(|t| t.author == uid && t.source == *source)
                {
                    tool_tweets += 1;
                    assert!(
                        corpora
                            .statuses
                            .iter()
                            .any(|s| s.account == aid && s.text == t.text && s.day == t.day),
                        "tool tweet without identical status"
                    );
                }
            }
        }
        assert!(tool_tweets > 0, "no cross-posted tweets generated");
    }

    #[test]
    fn toxicity_lower_on_mastodon() {
        // Aggregate across a medium world for stable rates.
        let config = WorldConfig::medium().with_seed(42);
        let mut rng = DetRng::new(config.seed);
        let mut users = generate_users(&config, &mut rng.fork("users"));
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
        let accounts = run_migration(
            &users,
            &migrants,
            &graph,
            &instances,
            &config,
            &mut rng.fork("mig"),
        )
        .unwrap();
        let corpora = generate_content(
            &mut users,
            &migrants,
            &accounts,
            &config,
            &mut rng.fork("content"),
        );
        let scorer = ToxicityScorer::new();
        let sample = |texts: Vec<&str>| {
            let n = texts.len().min(20_000);
            let toxic = texts.iter().take(n).filter(|t| scorer.is_toxic(t)).count();
            toxic as f64 / n as f64
        };
        let tw = sample(corpora.tweets.iter().map(|t| t.text).collect());
        let ms = sample(corpora.statuses.iter().map(|s| s.text).collect());
        assert!(tw > ms, "twitter {tw} should exceed mastodon {ms}");
        assert!((0.01..0.12).contains(&tw), "tweet toxicity {tw}");
    }

    #[test]
    fn posts_carry_platform_hashtags() {
        let (_config, _users, _migrants, _accounts, corpora) = build();
        let tw_tags: usize = corpora
            .tweets
            .iter()
            .map(|t| extract_hashtags(t.text).len())
            .sum();
        let ms_tags: usize = corpora
            .statuses
            .iter()
            .map(|s| extract_hashtags(s.text).len())
            .sum();
        assert!(tw_tags > 0 && ms_tags > 0);
    }

    #[test]
    fn noise_users_tweet_keywords_only_in_collection_window() {
        let (_config, users, _migrants, _accounts, corpora) = build();
        for t in &corpora.tweets {
            if !users[t.author.index()].is_migrant {
                assert!(t.day.in_collection_window());
                let lower = t.text.to_lowercase();
                assert!(
                    MIGRATION_PHRASES.iter().any(|p| lower.contains(p))
                        || lower.contains("#twittermigration"),
                    "noise tweet without keyword: {}",
                    t.text
                );
            }
        }
    }
}

#[cfg(test)]
mod abandonment_tests {
    use super::*;
    use crate::config::INSTANCE_ZIPF_EXPONENT;
    use crate::graph::build_friend_graph;
    use crate::instances::generate_instances;
    use crate::migration::run_migration;
    use crate::users::generate_users;

    fn corpora_with(abandon_rate: f64) -> (Vec<MastodonAccount>, Corpora) {
        let mut config = WorldConfig::small().with_seed(71);
        config.mastodon_abandon_rate = abandon_rate;
        let mut rng = DetRng::new(config.seed);
        let mut users = generate_users(&config, &mut rng.fork("users"));
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
        let corpora = generate_content(
            &mut users,
            &migrants,
            &accounts,
            &config,
            &mut rng.fork("c"),
        );
        (accounts, corpora)
    }

    #[test]
    fn universal_abandonment_silences_the_tail_of_the_window() {
        let (accounts, corpora) = corpora_with(1.0);
        // With everyone quitting shortly after announcing, late-window
        // statuses become rare relative to the no-abandonment world.
        let late = corpora
            .statuses
            .iter()
            .filter(|s| s.day.offset() >= 55)
            .count();
        let (_, keep) = corpora_with(0.0);
        let late_keep = keep
            .statuses
            .iter()
            .filter(|s| s.day.offset() >= 55)
            .count();
        assert!(
            (late as f64) < (late_keep as f64) * 0.35,
            "abandonment must thin late statuses: {late} vs {late_keep}"
        );
        // Twitter posting is unaffected by Mastodon abandonment.
        let late_tweets =
            |c: &Corpora| c.tweets.iter().filter(|t| t.day.offset() >= 55).count() as f64;
        let ratio = late_tweets(&corpora) / late_tweets(&keep);
        assert!((0.8..1.2).contains(&ratio), "tweet ratio {ratio}");
        assert_eq!(accounts.len(), keep.never_posted.len());
    }
}
