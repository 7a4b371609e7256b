//! The §3 collection pipeline, end to end.
//!
//! The crawler only talks to [`ApiServer`]'s public surface. It implements
//! the paper's methodology faithfully:
//!
//! 1. **§3.1** — seed from the instances.social-style list; run every
//!    keyword, hashtag, and instance-link search query over the collection
//!    window; hierarchically map authors to Mastodon handles (bio first,
//!    then tweet text with the username-equality guard); resolve each
//!    handle against its instance, following `moved_to` redirects.
//! 2. **§3.2** — crawl both timelines (Oct 1 – Nov 30) for every matched
//!    user, recording the coverage taxonomy (suspended / deleted /
//!    protected; no statuses / instance down).
//! 3. **§3.3** — crawl followees for a 10% sample stratified around the
//!    median followee count (5% above, 5% below), on both platforms.
//! 4. **Fig. 3 cross-check** — crawl weekly activity for every landing
//!    instance.
//!
//! Rate limits are honoured by advancing the server's virtual clock to
//! each wait's deadline (the crawler's "sleep"); transient errors are
//! retried with backoff, all in one retry loop, `Crawler::request`. The
//! timeline and followee phases fan out per matched user over
//! [`worker_pool`] and merge in matched order, so the dataset is the same
//! at any worker count.

use crate::checkpoint::Checkpoint;
use crate::dataset::{
    CollectedTweet, CrawlStats, Dataset, FolloweeRecord, MastodonCrawlOutcome, MatchSource,
    MatchedUser, QueryKind, TimelineStatus, TimelineTweet, TwitterCrawlOutcome,
};
use flock_apis::server::{attempt_outcome, ApiServer};
use flock_apis::types::TwitterUserObject;
use flock_core::handle::extract_handles;
use flock_core::{durable, worker_pool};
use flock_core::{Day, DetRng, FlockError, MastodonHandle, Result, TweetId, TwitterUserId};
use flock_obs::trace;
use flock_obs::{Counter, Gauge, Histogram, Registry, Tier, WaitCause, SECONDS_BOUNDS};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Crawl tuning.
#[derive(Debug, Clone)]
pub struct CrawlerConfig {
    /// Fraction of matched users whose followees are crawled (paper: 10%).
    // flock-lint: allow(float-in-data-tier) single scalar config knob, never accumulated; its one use is a reason-allowed product below
    pub followee_sample_fraction: f64,
    /// Worker-pool threads for the Twitter timeline, Mastodon timeline and
    /// followee phases; each thread crawls one matched user at a time.
    /// The dataset is byte-identical at any count; only scheduling-tier
    /// telemetry (who waited out which rate limit) differs. Zero is a
    /// typed configuration error, not a silent clamp.
    pub workers: usize,
    /// Also crawl followees for every observed instance-switcher (on top of
    /// the 10% sample). Fig. 10 analyzes switchers' ego networks, which a
    /// plain 10% draw would mostly miss; the paper §5.3 likewise required
    /// followee data for its switcher analysis.
    pub include_switchers: bool,
    /// Fault-injection hook for checkpoint/resume tests: after this many
    /// logical requests the crawler stops cold with
    /// [`FlockError::Interrupted`], simulating a mid-crawl kill. `None`
    /// (the default) never interrupts.
    pub abort_after_requests: Option<u64>,
}

impl Default for CrawlerConfig {
    fn default() -> Self {
        CrawlerConfig {
            // flock-lint: allow(float-in-data-tier) literal default for the reason-allowed config scalar above
            followee_sample_fraction: 0.10,
            workers: 4,
            include_switchers: true,
            abort_after_requests: None,
        }
    }
}

/// Retries of a transient error (an injected error burst, a dead
/// instance) before a request gives up with that error.
const MAX_TRANSIENT_RETRIES: u32 = 5;

/// Virtual seconds a request backs off after a transient error, counted
/// from the failed attempt's start.
const TRANSIENT_BACKOFF_SECS: u64 = 30;

/// Cap on the **cumulative** virtual seconds one logical request may
/// spend waiting out rate limits and outage windows before the crawler
/// gives up with [`FlockError::RetryBudgetExhausted`]. The legitimate
/// waits are large (the follows family allows 15 requests / 15 min,
/// §3.3), so the cap is one generous virtual week — far above anything a
/// healthy policy produces, small enough that a zero-refill or
/// misconfigured bucket fails fast instead of livelocking the crawl.
const MAX_RATE_LIMIT_WAIT_SECS: u64 = 604_800;

/// Seed of the followee-sample draw (§3.3).
pub const FOLLOWEE_SAMPLE_SEED: u64 = 0xC4A41;

/// The six pipeline phases in execution order — the names double as the
/// telemetry span names and as the checkpoint granularity of
/// [`Crawler::run_resumable`].
pub const PHASES: [&str; 6] = [
    "discover.collect_tweets",
    "discover.match_users",
    "expand.twitter_timelines",
    "expand.mastodon_timelines",
    "expand.followees",
    "expand.weekly_activity",
];

/// The §3.1 keyword and hashtag queries, verbatim from the paper.
pub fn migration_queries() -> Vec<(String, QueryKind)> {
    let mut q = vec![
        ("mastodon".to_string(), QueryKind::Keyword),
        ("\"bye bye twitter\"".to_string(), QueryKind::Keyword),
        ("\"good bye twitter\"".to_string(), QueryKind::Keyword),
    ];
    for tag in [
        "#Mastodon",
        "#MastodonMigration",
        "#ByeByeTwitter",
        "#GoodByeTwitter",
        "#TwitterMigration",
        "#MastodonSocial",
        "#RIPTwitter",
    ] {
        q.push((tag.to_string(), QueryKind::Hashtag));
    }
    q
}

/// The crawler's registry handles, under `flock.crawler.<subsystem>.<metric>`.
///
/// The `discover.*` / `expand.*` counters are facts about the dataset and
/// live in the deterministic tier; attempts, rejections, backoffs and the
/// worker-pool queue depth depend on thread scheduling and live in the
/// scheduling tier.
struct CrawlerMetrics {
    attempts: Counter,
    rate_limited: Counter,
    outage_waits: Counter,
    transient_failures: Counter,
    retry_wait_secs: Histogram,
    budget_exhausted: Counter,
    queue_depth: Gauge,
    collected_tweets: Counter,
    matched_users: Counter,
    twitter_timelines: Counter,
    mastodon_timelines: Counter,
    followee_records: Counter,
    weekly_instances: Counter,
    coverage_skipped: Counter,
}

impl CrawlerMetrics {
    fn new(obs: &Registry) -> CrawlerMetrics {
        let data = |n: &str| obs.counter(n, Tier::Data);
        let sched = |n: &str| obs.counter(n, Tier::Sched);
        CrawlerMetrics {
            attempts: sched("flock.crawler.requests.attempts"),
            rate_limited: sched("flock.crawler.requests.rate_limited"),
            outage_waits: sched("flock.crawler.requests.outage_waits"),
            transient_failures: sched("flock.crawler.requests.transient_failures"),
            retry_wait_secs: obs.histogram(
                "flock.crawler.retry.wait_secs",
                Tier::Sched,
                &SECONDS_BOUNDS,
            ),
            budget_exhausted: sched("flock.crawler.retry.budget_exhausted"),
            queue_depth: obs.gauge("flock.crawler.worker_pool.queue_depth", Tier::Sched),
            collected_tweets: data("flock.crawler.discover.collected_tweets"),
            matched_users: data("flock.crawler.discover.matched_users"),
            twitter_timelines: data("flock.crawler.expand.twitter_timelines"),
            mastodon_timelines: data("flock.crawler.expand.mastodon_timelines"),
            followee_records: data("flock.crawler.expand.followee_records"),
            weekly_instances: data("flock.crawler.expand.weekly_instances"),
            coverage_skipped: data("flock.crawler.coverage.skipped"),
        }
    }
}

/// The crawler.
pub struct Crawler<'a> {
    api: &'a ApiServer,
    config: CrawlerConfig,
    obs: Registry,
    m: CrawlerMetrics,
    /// Logical requests issued so far, for `abort_after_requests`.
    requests_made: AtomicU64,
    /// Index into [`PHASES`] of the phase currently running
    /// (`usize::MAX` outside any phase) — the trace id every request
    /// span is filed under.
    phase_idx: AtomicUsize,
}

impl<'a> Crawler<'a> {
    /// Create a crawler over an API server (with a private registry).
    ///
    /// `workers == 0` is [`FlockError::InvalidConfig`], never a silent
    /// clamp to one worker.
    pub fn new(api: &'a ApiServer, config: CrawlerConfig) -> Result<Self> {
        Crawler::with_registry(api, config, Registry::new())
    }

    /// Create a crawler recording into `obs` — pass the same registry to
    /// [`ApiServer::with_obs`] to see both sides of every request. One
    /// crawl per registry: handles are cumulative, so a second crawl on
    /// the same registry adds onto the first crawl's totals.
    pub fn with_registry(api: &'a ApiServer, config: CrawlerConfig, obs: Registry) -> Result<Self> {
        if config.workers == 0 {
            return Err(FlockError::InvalidConfig(
                "crawler needs at least one worker thread (workers = 0)".to_string(),
            ));
        }
        let m = CrawlerMetrics::new(&obs);
        Ok(Crawler {
            api,
            config,
            obs,
            m,
            requests_made: AtomicU64::new(0),
            phase_idx: AtomicUsize::new(usize::MAX),
        })
    }

    /// The trace id for spans opened right now: the running phase's name,
    /// or the `"crawl"` envelope outside any phase.
    fn current_phase(&self) -> &'static str {
        PHASES
            .get(self.phase_idx.load(Ordering::Relaxed))
            .copied()
            .unwrap_or("crawl")
    }

    /// The registry this crawler records into.
    pub fn registry(&self) -> &Registry {
        &self.obs
    }

    /// Run the §3 pipeline and produce the dataset.
    pub fn run(&self) -> Result<Dataset> {
        let start_virtual = self.api.now();
        self.obs.phase_start(start_virtual, "crawl");
        let mut ds = self.base_dataset();
        for name in PHASES {
            self.run_phase(name, &mut ds)?;
        }
        self.finish(&mut ds, start_virtual);
        Ok(ds)
    }

    /// [`Crawler::run`] with phase-level checkpointing: after every
    /// completed phase the dataset-so-far is persisted to
    /// `checkpoint_path`, and a crawl that starts with a checkpoint on
    /// disk skips the phases it records. A crawl killed mid-phase (e.g.
    /// via [`CrawlerConfig::abort_after_requests`], or a real crash)
    /// re-runs that phase from scratch on resume — against a **fresh**
    /// [`ApiServer`], since per-key fault state lives in the server — and
    /// converges to the dataset an uninterrupted run produces.
    ///
    /// The checkpoint is deliberately left on disk after a successful
    /// run; callers own its lifecycle.
    pub fn run_resumable(&self, checkpoint_path: &Path) -> Result<Dataset> {
        let start_virtual = self.api.now();
        self.obs.phase_start(start_virtual, "crawl");
        let resumed: Option<Checkpoint> = durable::load_if_exists(checkpoint_path)?;
        let (mut ds, mut completed) = match resumed {
            Some(cp) => {
                // Waits already paid before the kill stay paid.
                self.api.advance_clock_to(cp.clock_secs);
                (cp.dataset, cp.completed)
            }
            None => (self.base_dataset(), Vec::new()),
        };
        for name in PHASES {
            if completed.iter().any(|p| p == name) {
                continue;
            }
            self.run_phase(name, &mut ds)?;
            completed.push(name.to_string());
            let checkpoint = Checkpoint {
                completed: completed.clone(),
                clock_secs: self.api.now(),
                dataset: ds.clone(),
            };
            durable::save(checkpoint_path, &checkpoint)?;
        }
        self.finish(&mut ds, start_virtual);
        Ok(ds)
    }

    /// The §3.1 discovery phases: tweet collection and hierarchical handle
    /// matching. Serial by nature — every query deduplicates against the
    /// tweets all earlier queries collected.
    pub fn discover(&self) -> Result<Dataset> {
        let mut ds = self.base_dataset();
        for &name in &PHASES[..2] {
            self.run_phase(name, &mut ds)?;
        }
        Ok(ds)
    }

    /// The §3.2–§3.3 crawl phases plus the Fig. 3 activity cross-check:
    /// per-user work fanned out over [`worker_pool`], results merged in
    /// matched-index order. Public (separately from [`Crawler::run`]) so
    /// benches can time the parallel phases against a fixed discovery.
    pub fn expand(&self, ds: &mut Dataset) -> Result<()> {
        for &name in &PHASES[2..] {
            self.run_phase(name, ds)?;
        }
        Ok(())
    }

    /// An empty dataset seeded with the instance list.
    fn base_dataset(&self) -> Dataset {
        Dataset {
            instance_list: self.api.instances_social_list(),
            ..Dataset::default()
        }
    }

    /// Run one named phase: telemetry span, body, dataset-derived counter.
    fn run_phase(&self, name: &'static str, ds: &mut Dataset) -> Result<()> {
        let idx = PHASES.iter().position(|p| *p == name).unwrap_or(usize::MAX);
        self.phase_idx.store(idx, Ordering::Relaxed);
        self.obs.phase_start(self.api.now(), name);
        match name {
            "discover.collect_tweets" => {
                self.collect_tweets(ds)?;
                self.m
                    .collected_tweets
                    .add(ds.collected_tweets.len() as u64);
            }
            "discover.match_users" => {
                self.match_users(ds)?;
                self.m.matched_users.add(ds.matched.len() as u64);
            }
            "expand.twitter_timelines" => {
                self.crawl_twitter_timelines(ds)?;
                self.m
                    .twitter_timelines
                    .add(ds.twitter_timelines.len() as u64);
            }
            "expand.mastodon_timelines" => {
                self.crawl_mastodon_timelines(ds)?;
                self.m
                    .mastodon_timelines
                    .add(ds.mastodon_timelines.len() as u64);
            }
            "expand.followees" => {
                self.crawl_followees(ds)?;
                self.m.followee_records.add(ds.followees.len() as u64);
            }
            "expand.weekly_activity" => {
                self.crawl_weekly_activity(ds)?;
                self.m.weekly_instances.add(ds.weekly_activity.len() as u64);
            }
            other => {
                return Err(FlockError::InvalidConfig(format!(
                    "unknown crawl phase {other:?}"
                )))
            }
        }
        self.phase_idx.store(usize::MAX, Ordering::Relaxed);
        self.obs.phase_end(self.api.now(), name);
        Ok(())
    }

    /// Fill in crawl accounting and close the crawl span.
    fn finish(&self, ds: &mut Dataset, start_virtual: u64) {
        self.m.coverage_skipped.add(ds.coverage.len() as u64);
        ds.stats = CrawlStats {
            requests: self.m.attempts.get(),
            rate_limited: self.m.rate_limited.get(),
            transient_failures: self.m.transient_failures.get(),
            virtual_secs: self.api.now() - start_virtual,
        };
        self.obs.phase_end(self.api.now(), "crawl");
    }

    /// Crawl every item on the worker pool. Results come back in input
    /// order; the first error in that order (an interrupt, in practice)
    /// fails the whole phase.
    fn fan_out<T: Sync, R: Send>(
        &self,
        items: &[T],
        crawl_one: impl Fn(&T) -> Result<R> + Sync,
    ) -> Result<Vec<R>> {
        worker_pool::run_gauged(
            self.config.workers,
            items,
            Some(&self.m.queue_depth),
            |_, item| crawl_one(item),
        )?
        .into_iter()
        .collect()
    }

    /// Rate-limit-aware, transient-retrying request wrapper: the crawl's
    /// one retry loop.
    ///
    /// Every call opens one **logical request span** (trace id = current
    /// phase, label = the caller-supplied request name) and counts every
    /// server attempt on it, with the outcome [`attempt_outcome`] reads
    /// off that attempt's `Result`. Every wait is a deadline from the
    /// attempt's start, reached through [`ApiServer::advance_clock_to`]: a
    /// rate limit or a finite outage window waits its advertised seconds,
    /// and a transient error (an injected error, a dead instance) backs
    /// off [`TRANSIENT_BACKOFF_SECS`], at most [`MAX_TRANSIENT_RETRIES`]
    /// times. Workers parked on one bucket thus move the clock to its
    /// refill point once instead of stacking their waits. The advertised
    /// waits of one request are capped in sum by
    /// [`MAX_RATE_LIMIT_WAIT_SECS`], so a non-refilling bucket surfaces as
    /// a typed error instead of a livelock.
    ///
    /// Every second the loop moves the virtual clock is charged to a
    /// [`WaitCause`] bucket on the span *and* on the phase's wait ledger —
    /// the attribution invariant the profiler and the integration tests
    /// rest on: per-phase buckets sum exactly to the phase's virtual
    /// duration.
    fn request<T>(&self, label: String, mut f: impl FnMut() -> Result<T>) -> Result<T> {
        let phase = self.current_phase();
        let span = self
            .obs
            .span_begin(phase, label, trace::current_worker(), self.api.now());
        let mut transient = 0;
        let mut waited: u64 = 0;
        let result = loop {
            if let Some(cap) = self.config.abort_after_requests {
                if self.requests_made.fetch_add(1, Ordering::Relaxed) >= cap {
                    break Err(FlockError::Interrupted);
                }
            }
            self.m.attempts.inc();
            let before = self.api.now();
            let r = f();
            self.obs.span_attempt(span, attempt_outcome(&r));
            let (wait, cause) = match r {
                Err(FlockError::RateLimited {
                    retry_after_secs,
                    storm,
                }) => {
                    self.m.rate_limited.inc();
                    let cause = if storm {
                        WaitCause::RetryAfterStorm
                    } else {
                        WaitCause::TokenBucket
                    };
                    (retry_after_secs, cause)
                }
                // A finite chaos outage window advertises when the
                // instance is back; wait it out exactly like a rate limit
                // (against the same cumulative budget) so the eventual
                // response — and therefore the dataset — is independent
                // of when the window was hit.
                Err(FlockError::InstanceOutage { retry_after_secs }) => {
                    self.m.outage_waits.inc();
                    (retry_after_secs, WaitCause::Outage)
                }
                Err(e) if e.is_retryable() => {
                    self.m.transient_failures.inc();
                    transient += 1;
                    if transient > MAX_TRANSIENT_RETRIES {
                        break Err(e);
                    }
                    (TRANSIENT_BACKOFF_SECS, WaitCause::TransientBackoff)
                }
                done => break done,
            };
            if cause != WaitCause::TransientBackoff {
                self.m.retry_wait_secs.record(wait);
                waited = waited.saturating_add(wait);
                if waited > MAX_RATE_LIMIT_WAIT_SECS {
                    self.m.budget_exhausted.inc();
                    break Err(FlockError::RetryBudgetExhausted {
                        waited_secs: waited,
                    });
                }
            }
            // Only the seconds the clock actually moved are charged:
            // another worker may already have paid part of the wait.
            let applied = self.api.advance_clock_to(before.saturating_add(wait));
            self.obs.attribute_wait(Some(span), phase, cause, applied);
        };
        self.obs.span_end(span, self.api.now());
        result
    }

    // ---- §3.1 phase A: tweet collection ---------------------------------

    fn collect_tweets(&self, ds: &mut Dataset) -> Result<()> {
        let mut queries = migration_queries();
        for domain in &ds.instance_list {
            queries.push((format!("url:\"{domain}\""), QueryKind::InstanceLink));
        }
        let mut seen: BTreeMap<TweetId, usize> = BTreeMap::new();
        for (q, kind) in queries {
            let mut cursor: Option<String> = None;
            loop {
                let page = match self.request(format!("search:{q}"), || {
                    self.api.twitter_search(
                        &q,
                        Day::COLLECTION_START,
                        Day::COLLECTION_END,
                        cursor.as_deref(),
                    )
                }) {
                    Ok(p) => p,
                    // A single broken query must not sink the collection.
                    Err(FlockError::InvalidQuery(_)) => break,
                    // Retries exhausted on a transient fault: skip the
                    // query's remaining pages, record the gap, move on.
                    Err(e) if e.is_retryable() => {
                        ds.coverage
                            .record_skip(PHASES[0], format!("search {q:?}"), e);
                        break;
                    }
                    Err(e) => return Err(e),
                };
                for t in page.items {
                    if let std::collections::btree_map::Entry::Vacant(e) = seen.entry(t.id) {
                        e.insert(ds.collected_tweets.len());
                        ds.collected_tweets.push(CollectedTweet {
                            id: t.id,
                            author: t.author_id,
                            day: t.day,
                            text: t.text,
                            source: t.source,
                            via: kind,
                        });
                    }
                }
                match page.next {
                    Some(c) => cursor = Some(c),
                    None => break,
                }
            }
        }
        let authors: BTreeSet<TwitterUserId> =
            ds.collected_tweets.iter().map(|t| t.author).collect();
        ds.searched_users = authors.len();
        Ok(())
    }

    // ---- §3.1 phase B: hierarchical handle matching ----------------------

    fn match_users(&self, ds: &mut Dataset) -> Result<()> {
        let instance_set: BTreeSet<&str> = ds.instance_list.iter().map(String::as_str).collect();
        // Collection-time author metadata, batched.
        let mut authors: Vec<TwitterUserId> = ds
            .collected_tweets
            .iter()
            .map(|t| t.author)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        authors.sort();
        let mut metadata: BTreeMap<TwitterUserId, TwitterUserObject> = BTreeMap::new();
        for chunk in authors.chunks(100) {
            let first = chunk.first().map_or(0, |id| id.0);
            let users = match self
                .request(format!("user_expansion:{first}+{}", chunk.len()), || {
                    self.api.twitter_search_user_expansion(chunk)
                }) {
                Ok(users) => users,
                // Authors in a failed chunk keep their tweets but cannot
                // be matched (no metadata); record the gap and move on.
                Err(e) if e.is_retryable() => {
                    ds.coverage.record_skip(
                        PHASES[1],
                        format!("user-expansion chunk of {} from id {first}", chunk.len()),
                        e,
                    );
                    continue;
                }
                Err(e) => return Err(e),
            };
            for u in users {
                metadata.insert(u.id, u);
            }
        }
        // Tweets per author, for the text fallback.
        let mut tweets_by_author: BTreeMap<TwitterUserId, Vec<usize>> = BTreeMap::new();
        for (i, t) in ds.collected_tweets.iter().enumerate() {
            tweets_by_author.entry(t.author).or_default().push(i);
        }

        for author in authors {
            let Some(meta) = metadata.get(&author) else {
                continue;
            };
            // Step 1: profile metadata (any username accepted).
            let mut found: Option<(MastodonHandle, MatchSource)> =
                extract_handles(&meta.description)
                    .into_iter()
                    .find(|h| instance_set.contains(h.instance()))
                    .map(|h| (h, MatchSource::Bio));
            // Step 2: tweet text, only when usernames are identical.
            if found.is_none() {
                'outer: for &ti in tweets_by_author.get(&author).into_iter().flatten() {
                    for h in extract_handles(&ds.collected_tweets[ti].text) {
                        if instance_set.contains(h.instance()) && h.username() == meta.username {
                            found = Some((h, MatchSource::TweetText));
                            break 'outer;
                        }
                    }
                }
            }
            let Some((handle, matched_via)) = found else {
                continue;
            };

            // Resolve the handle on its instance, following moved_to once.
            let (account, first_account, resolved_handle) = match self
                .request(format!("lookup:{handle}"), || {
                    self.api.mastodon_lookup_account(&handle)
                }) {
                Ok(acct) => match &acct.moved_to {
                    Some(target) => {
                        let target = target.clone();
                        match self.request(format!("lookup:{target}"), || {
                            self.api.mastodon_lookup_account(&target)
                        }) {
                            Ok(new_acct) => (Some(new_acct), Some(acct), target.clone()),
                            Err(FlockError::Interrupted) => return Err(FlockError::Interrupted),
                            Err(_) => (None, Some(acct), target.clone()),
                        }
                    }
                    None => (Some(acct), None, handle.clone()),
                },
                // Down instance: keep the match, account data missing.
                Err(FlockError::InstanceUnavailable(_)) => (None, None, handle.clone()),
                // Dangling handle (announced but never created): drop.
                Err(FlockError::NotFound(_)) => continue,
                // Retries exhausted: the mapping cannot be confirmed;
                // record the gap and drop the candidate.
                Err(e) if e.is_retryable() => {
                    ds.coverage.record_skip(
                        PHASES[1],
                        format!("account lookup for author {}", author.0),
                        e,
                    );
                    continue;
                }
                Err(e) => return Err(e),
            };

            let first_seen = tweets_by_author
                .get(&author)
                .into_iter()
                .flatten()
                .map(|&ti| ds.collected_tweets[ti].day)
                .min();
            ds.matched.push(MatchedUser {
                twitter_id: author,
                twitter_username: meta.username.clone(),
                twitter_created: meta.created_at,
                verified: meta.verified,
                twitter_followers: meta.followers_count,
                twitter_followees: meta.following_count,
                handle,
                matched_via,
                first_seen,
                resolved_handle,
                account,
                first_account,
            });
        }
        // Deterministic order for everything downstream.
        ds.matched.sort_by_key(|m| m.twitter_id);
        Ok(())
    }

    // ---- §3.2: timelines --------------------------------------------------

    fn crawl_twitter_timelines(&self, ds: &mut Dataset) -> Result<()> {
        // Nothing merges until every per-user result is in: an interrupt
        // anywhere leaves the dataset untouched, so the phase re-runs
        // cleanly on resume.
        let merged = self.fan_out(&ds.matched, |m| self.crawl_one_twitter_timeline(m))?;
        for (m, (timeline, outcome, skip)) in ds.matched.iter().zip(merged) {
            if outcome == TwitterCrawlOutcome::Ok {
                ds.twitter_timelines.insert(m.twitter_id, timeline);
            }
            if let Some(reason) = skip {
                ds.coverage.record_skip(
                    PHASES[2],
                    format!("twitter timeline of {}", m.twitter_id.0),
                    reason,
                );
            }
            ds.twitter_outcomes.insert(m.twitter_id, outcome);
        }
        Ok(())
    }

    fn crawl_one_twitter_timeline(
        &self,
        m: &MatchedUser,
    ) -> Result<(Vec<TimelineTweet>, TwitterCrawlOutcome, Option<String>)> {
        let mut timeline = Vec::new();
        let mut cursor: Option<String> = None;
        let mut skip = None;
        let outcome = loop {
            match self.request(format!("twitter_timeline:{}", m.twitter_id.0), || {
                self.api.twitter_timeline(
                    m.twitter_id,
                    Day::STUDY_START,
                    Day::STUDY_END,
                    cursor.as_deref(),
                )
            }) {
                Ok(page) => {
                    timeline.extend(page.items.into_iter().map(|t| TimelineTweet {
                        id: t.id,
                        day: t.day,
                        text: t.text,
                        source: t.source,
                    }));
                    match page.next {
                        Some(c) => cursor = Some(c),
                        None => break TwitterCrawlOutcome::Ok,
                    }
                }
                Err(FlockError::Forbidden(msg)) => {
                    break if msg.contains("suspended") {
                        TwitterCrawlOutcome::Suspended
                    } else {
                        TwitterCrawlOutcome::Protected
                    };
                }
                Err(FlockError::NotFound(_)) => break TwitterCrawlOutcome::Deleted,
                Err(FlockError::Interrupted) => return Err(FlockError::Interrupted),
                // Retries exhausted on a transient fault: the account may
                // exist, but its timeline is out of reach this crawl.
                Err(e) if e.is_retryable() => {
                    skip = Some(e.to_string());
                    break TwitterCrawlOutcome::Unreachable;
                }
                Err(_) => break TwitterCrawlOutcome::Deleted,
            }
        };
        Ok((timeline, outcome, skip))
    }

    fn crawl_mastodon_timelines(&self, ds: &mut Dataset) -> Result<()> {
        let merged = self.fan_out(&ds.matched, |m| self.crawl_one_mastodon_timeline(m))?;
        for (m, (statuses, outcome, skip)) in ds.matched.iter().zip(merged) {
            if outcome == MastodonCrawlOutcome::Ok {
                ds.mastodon_timelines
                    .insert(m.resolved_handle.clone(), statuses);
            }
            if let Some(reason) = skip {
                ds.coverage.record_skip(
                    PHASES[3],
                    format!("mastodon timeline of {}", m.twitter_id.0),
                    reason,
                );
            }
            ds.mastodon_outcomes.insert(m.twitter_id, outcome);
        }
        Ok(())
    }

    fn crawl_one_mastodon_timeline(
        &self,
        m: &MatchedUser,
    ) -> Result<(Vec<TimelineStatus>, MastodonCrawlOutcome, Option<String>)> {
        let mut statuses = Vec::new();
        let mut any_down = false;
        let mut skip = None;
        // A switched user's pre-move statuses live on the first instance.
        let mut sources = vec![m.resolved_handle.clone()];
        if m.switched() {
            sources.push(m.handle.clone());
        }
        for src in sources {
            let mut cursor: Option<String> = None;
            loop {
                match self.request(format!("statuses:{src}"), || {
                    self.api.mastodon_account_statuses(&src, cursor.as_deref())
                }) {
                    Ok(page) => {
                        statuses.extend(page.items.into_iter().map(|s| TimelineStatus {
                            day: s.day,
                            text: s.content,
                        }));
                        match page.next {
                            Some(c) => cursor = Some(c),
                            None => break,
                        }
                    }
                    Err(FlockError::InstanceUnavailable(_)) => {
                        any_down = true;
                        break;
                    }
                    Err(FlockError::Interrupted) => return Err(FlockError::Interrupted),
                    Err(e) if e.is_retryable() => {
                        skip = Some(e.to_string());
                        break;
                    }
                    Err(_) => break,
                }
            }
        }
        Ok(if statuses.is_empty() {
            if any_down {
                (statuses, MastodonCrawlOutcome::InstanceDown, None)
            } else if skip.is_some() {
                (statuses, MastodonCrawlOutcome::Unreachable, skip)
            } else {
                (statuses, MastodonCrawlOutcome::NoStatuses, None)
            }
        } else {
            statuses.sort_by_key(|s| s.day);
            (statuses, MastodonCrawlOutcome::Ok, None)
        })
    }

    // ---- §3.3: followees ----------------------------------------------------

    /// Pick the 10% sample: 5% (of all matched users) drawn from above the
    /// median followee count, 5% from below, exactly as §3.3 describes.
    fn sample_for_followees(&self, ds: &Dataset) -> Vec<TwitterUserId> {
        let mut by_count: Vec<(u64, TwitterUserId)> = ds
            .matched
            .iter()
            .map(|m| (m.twitter_followees, m.twitter_id))
            .collect();
        by_count.sort();
        let n = by_count.len();
        if n < 4 {
            return by_count.into_iter().map(|(_, id)| id).collect();
        }
        let half = n / 2;
        // flock-lint: allow(float-in-data-tier) one product of one config scalar computed once on one thread; IEEE-754 multiply+round of these magnitudes is exact and platform-stable, and no cross-worker accumulation exists
        let per_side = ((n as f64) * self.config.followee_sample_fraction / 2.0).round() as usize;
        let mut rng = DetRng::new(FOLLOWEE_SAMPLE_SEED);
        let below: Vec<TwitterUserId> = rng
            .sample(by_count[..half].iter().map(|&(_, id)| id), per_side)
            .into_iter()
            .collect();
        let above: Vec<TwitterUserId> = rng
            .sample(by_count[half..].iter().map(|&(_, id)| id), per_side)
            .into_iter()
            .collect();
        let mut all: Vec<TwitterUserId> = below.into_iter().chain(above).collect();
        if self.config.include_switchers {
            all.extend(
                ds.matched
                    .iter()
                    .filter(|m| m.switched())
                    .map(|m| m.twitter_id),
            );
        }
        all.sort();
        all.dedup();
        all
    }

    fn crawl_followees(&self, ds: &mut Dataset) -> Result<()> {
        let sample = self.sample_for_followees(ds);
        let targets: Vec<MatchedUser> = sample
            .iter()
            .filter_map(|id| ds.matched_by_id(*id).cloned())
            .collect();
        let merged = self.fan_out(&targets, |m| self.crawl_one_followees(m))?;
        for (m, (rec, skip)) in targets.iter().zip(merged) {
            if let Some(reason) = skip {
                // A record that survives a skip lost only its Mastodon side.
                let side = if rec.is_some() {
                    "mastodon followees"
                } else {
                    "followees"
                };
                ds.coverage
                    .record_skip(PHASES[4], format!("{side} of {}", m.twitter_id.0), reason);
            }
            if let Some(rec) = rec {
                ds.followees.insert(m.twitter_id, rec);
            }
        }
        Ok(())
    }

    /// Both followee lists for one sampled user; `(None, reason)` when the
    /// Twitter side (the endpoint the record hinges on) is unavailable, and
    /// `(Some(record), reason)` when only the Mastodon side was cut short:
    /// the record then keeps its Twitter side and an empty Mastodon list.
    fn crawl_one_followees(
        &self,
        m: &MatchedUser,
    ) -> Result<(Option<FolloweeRecord>, Option<String>)> {
        // Twitter side (the brutally rate-limited endpoint).
        let mut twitter = Vec::new();
        let mut cursor: Option<String> = None;
        loop {
            match self.request(format!("twitter_following:{}", m.twitter_id.0), || {
                self.api.twitter_following(m.twitter_id, cursor.as_deref())
            }) {
                Ok(page) => {
                    twitter.extend(page.items);
                    match page.next {
                        Some(c) => cursor = Some(c),
                        None => break,
                    }
                }
                Err(FlockError::Interrupted) => return Err(FlockError::Interrupted),
                // Chaos/transient exhaustion is a coverage gap worth
                // reporting; protected or deleted accounts are expected
                // states and skip silently, as they always have.
                Err(e) if e.is_retryable() => return Ok((None, Some(e.to_string()))),
                Err(_) => return Ok((None, None)),
            }
        }
        // Mastodon side.
        let mut mastodon = Vec::new();
        let mut cursor: Option<String> = None;
        loop {
            match self.request(format!("mastodon_following:{}", m.resolved_handle), || {
                self.api
                    .mastodon_account_following(&m.resolved_handle, cursor.as_deref())
            }) {
                Ok(page) => {
                    mastodon.extend(page.items);
                    match page.next {
                        Some(c) => cursor = Some(c),
                        None => break,
                    }
                }
                Err(FlockError::Interrupted) => return Err(FlockError::Interrupted),
                // A dead instance is an expected state: skip silently.
                Err(FlockError::InstanceUnavailable(_)) => break,
                // Retries exhausted: a list cut short is not kept. The
                // record survives without the Mastodon side, and the gap
                // is reported.
                Err(e) if e.is_retryable() => {
                    let record = FolloweeRecord {
                        twitter,
                        mastodon: Vec::new(),
                    };
                    return Ok((Some(record), Some(e.to_string())));
                }
                Err(_) => break,
            }
        }
        Ok((Some(FolloweeRecord { twitter, mastodon }), None))
    }

    // ---- Fig. 3 cross-check: weekly activity --------------------------------

    fn crawl_weekly_activity(&self, ds: &mut Dataset) -> Result<()> {
        for domain in ds.landing_instances() {
            match self.request(format!("weekly_activity:{domain}"), || {
                self.api.mastodon_instance_activity(&domain)
            }) {
                Ok(rows) => {
                    ds.weekly_activity.insert(domain, rows);
                }
                // Down instances simply stay absent.
                Err(FlockError::InstanceUnavailable(_)) => {}
                Err(e) if e.is_retryable() => {
                    ds.coverage
                        .record_skip(PHASES[5], format!("weekly activity of {domain}"), e);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Convenience: run the crawler with defaults.
pub fn crawl(api: &ApiServer) -> Result<Dataset> {
    Crawler::new(api, CrawlerConfig::default())?.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_chaos::FaultPlan;
    use flock_fedisim::{World, WorldConfig};
    use std::sync::Arc;

    use std::sync::OnceLock;

    /// The standard world + crawl, shared across tests (generating a world
    /// and crawling it is the expensive part; the assertions are cheap).
    fn shared() -> &'static (Arc<World>, Dataset) {
        static CELL: OnceLock<(Arc<World>, Dataset)> = OnceLock::new();
        CELL.get_or_init(|| {
            let world = Arc::new(World::generate(&WorldConfig::small().with_seed(2024)).unwrap());
            let api = ApiServer::with_defaults(world.clone()).unwrap();
            let ds = crawl(&api).unwrap();
            (world, ds)
        })
    }

    #[test]
    fn full_pipeline_identifies_most_announcing_migrants() {
        let (world, ds) = shared();

        // Identified handles must be real ground-truth accounts...
        for m in &ds.matched {
            let truth = world
                .account_by_handle(&m.handle)
                .unwrap_or_else(|| panic!("false positive: {}", m.handle));
            assert_eq!(truth.owner, m.twitter_id, "mis-attributed {}", m.handle);
        }
        // ...and most announcing migrants are found (the method is a lower
        // bound: bio-less different-username announcers are invisible).
        let identifiable = world
            .accounts
            .iter()
            .filter(|a| {
                a.in_bio
                    || (a.in_tweet
                        && a.first_handle.username() == world.users[a.owner.index()].username)
            })
            .count();
        assert!(
            ds.matched.len() as f64 > identifiable as f64 * 0.85,
            "matched {} of {} identifiable",
            ds.matched.len(),
            identifiable
        );
        assert!(
            ds.matched.len() < world.n_migrants(),
            "method must undercount"
        );
        // The search saw many more users than it could map (paper: 1.02M vs
        // 136k).
        assert!(ds.searched_users > ds.matched.len() * 2);
    }

    #[test]
    fn match_sources_follow_hierarchy() {
        let (world, ds) = shared();
        let mut bio = 0;
        let mut text = 0;
        for m in &ds.matched {
            match m.matched_via {
                MatchSource::Bio => {
                    bio += 1;
                    let truth = world.account_by_handle(&m.handle).unwrap();
                    assert!(truth.in_bio);
                }
                MatchSource::TweetText => {
                    text += 1;
                    // Username-equality guard.
                    assert_eq!(m.handle.username(), m.twitter_username);
                }
            }
        }
        assert!(bio > 0 && text > 0, "bio {bio} text {text}");
    }

    #[test]
    fn coverage_taxonomy_is_recorded() {
        let (_world, ds) = shared();
        let ok = ds
            .twitter_outcomes
            .values()
            .filter(|o| **o == TwitterCrawlOutcome::Ok)
            .count();
        assert_eq!(ds.twitter_timelines.len(), ok);
        // The large majority of Twitter timelines crawl fine (paper: 94.88%).
        assert!(ok as f64 / ds.matched.len() as f64 > 0.85);
        // Mastodon outcomes cover every matched user.
        assert_eq!(ds.mastodon_outcomes.len(), ds.matched.len());
        let down = ds
            .mastodon_outcomes
            .values()
            .filter(|o| **o == MastodonCrawlOutcome::InstanceDown)
            .count();
        assert!(down > 0, "downtime injection must be visible");
    }

    #[test]
    fn followee_sample_is_ten_percent_stratified() {
        let (_world, ds) = shared();
        let switchers = ds.matched.iter().filter(|m| m.switched()).count();
        let target = ds.matched.len() / 10 + switchers;
        let got = ds.followees.len();
        assert!(
            (got as i64 - target as i64).abs() <= (target as i64 / 3).max(3),
            "sample {got} vs target {target}"
        );
        // Stratification: both sides of the median are represented.
        let mut counts: Vec<u64> = ds.matched.iter().map(|m| m.twitter_followees).collect();
        counts.sort();
        let median = counts[counts.len() / 2];
        let above = ds
            .followees
            .keys()
            .filter(|id| ds.matched_by_id(**id).unwrap().twitter_followees > median)
            .count();
        assert!(above > 0 && above < got);
    }

    #[test]
    fn followee_lists_round_trip_ground_truth() {
        let (world, ds) = shared();
        for (id, rec) in &ds.followees {
            let truth_account = world.account_of_user(*id).unwrap();
            let truth = &world.twitter_followees[truth_account.id.index()];
            assert_eq!(rec.twitter.len(), truth.len());
        }
    }

    #[test]
    fn switched_users_resolved_through_moved_to() {
        let (world, ds) = shared();
        let mut observed_switchers = 0;
        for m in &ds.matched {
            if m.switched() {
                observed_switchers += 1;
                let truth = world.account_by_handle(&m.handle).unwrap();
                assert!(truth.switch.is_some());
                assert_eq!(&m.resolved_handle, &truth.handle);
            }
        }
        assert!(observed_switchers > 0, "no switchers observed");
    }

    #[test]
    fn weekly_activity_covers_reachable_landing_instances() {
        let (world, ds) = shared();
        for domain in ds.landing_instances() {
            let inst = world.instance_by_domain(&domain).unwrap();
            if !inst.down_at_crawl {
                assert!(
                    ds.weekly_activity.contains_key(&domain),
                    "missing activity for {domain}"
                );
            }
        }
    }

    #[test]
    fn crawl_is_deterministic() {
        let (world, a) = shared();
        let api2 = ApiServer::with_defaults(world.clone()).unwrap();
        let b = crawl(&api2).unwrap();
        assert_eq!(a.matched.len(), b.matched.len());
        assert_eq!(a.collected_tweets.len(), b.collected_tweets.len());
        assert_eq!(a.followees.len(), b.followees.len());
    }

    /// A zero worker count fails loudly at construction.
    #[test]
    fn zero_workers_is_a_typed_error() {
        let (world, _) = shared();
        let api = ApiServer::with_defaults(world.clone()).unwrap();
        let zero_workers = CrawlerConfig {
            workers: 0,
            ..CrawlerConfig::default()
        };
        assert!(matches!(
            Crawler::new(&api, zero_workers).map(|_| ()),
            Err(FlockError::InvalidConfig(_))
        ));
    }

    #[test]
    fn rate_limits_cost_virtual_time() {
        let (_world, ds) = shared();
        assert!(ds.stats.requests > 100);
        // The follows endpoint (15 req/15 min) forces waiting.
        assert!(ds.stats.rate_limited > 0, "no rate limiting observed");
        assert!(ds.stats.virtual_secs > 0);
    }

    /// Error bursts within the retry allowance on every family are
    /// retried to completion: errors are injected, nothing is skipped.
    #[test]
    fn survives_transient_faults() {
        let world = Arc::new(World::generate(&WorldConfig::small().with_seed(3030)).unwrap());
        let obs = Registry::new();
        let api_cfg = flock_apis::ApiConfig {
            chaos: FaultPlan::error_bursts(3030, 0.05, 5),
            ..Default::default()
        };
        let api = ApiServer::with_obs(world, api_cfg, obs.clone()).unwrap();
        let ds = Crawler::with_registry(&api, CrawlerConfig::default(), obs.clone())
            .unwrap()
            .run()
            .unwrap();
        assert!(obs
            .counter_value("flock.apis.search.chaos.injected_errors")
            .is_some_and(|n| n > 0));
        assert!(ds.coverage.is_empty(), "{}", ds.coverage.summary());
        assert!(!ds.matched.is_empty());
    }

    /// Regression (unbounded retry): a zero-refill `RatePolicy` used to
    /// livelock `Crawler::request` forever — `retry_after` saturates, the
    /// loop retried unconditionally. The cumulative virtual wait is now
    /// capped and surfaces as a typed, non-retryable error.
    #[test]
    fn unbounded_rate_limit_wait_is_capped() {
        let world = Arc::new(World::generate(&WorldConfig::small().with_seed(11)).unwrap());
        let api_cfg = flock_apis::ApiConfig {
            search_policy: flock_apis::RatePolicy {
                capacity: 0,
                window_secs: 900,
            },
            ..Default::default()
        };
        let api = ApiServer::new(world, api_cfg).unwrap();
        let crawler = Crawler::new(&api, CrawlerConfig::default()).unwrap();
        match crawler.run() {
            Err(FlockError::RetryBudgetExhausted { waited_secs }) => {
                assert!(waited_secs > MAX_RATE_LIMIT_WAIT_SECS);
            }
            other => panic!("expected RetryBudgetExhausted, got {other:?}"),
        }
    }

    /// The registry sees everything `CrawlStats` reports, plus the
    /// dataset-derived counters and the phase table.
    #[test]
    fn registry_captures_counters_and_phase_spans() {
        let (world, _) = shared();
        let obs = Registry::new();
        let api = ApiServer::with_obs(world.clone(), flock_apis::ApiConfig::default(), obs.clone())
            .unwrap();
        let crawler = Crawler::with_registry(&api, CrawlerConfig::default(), obs.clone()).unwrap();
        let ds = crawler.run().unwrap();
        assert_eq!(
            obs.counter_value("flock.crawler.requests.attempts"),
            Some(ds.stats.requests)
        );
        assert_eq!(
            obs.counter_value("flock.crawler.requests.rate_limited"),
            Some(ds.stats.rate_limited)
        );
        assert_eq!(
            obs.counter_value("flock.crawler.discover.collected_tweets"),
            Some(ds.collected_tweets.len() as u64)
        );
        assert_eq!(
            obs.counter_value("flock.crawler.discover.matched_users"),
            Some(ds.matched.len() as u64)
        );
        // The crawl envelope, then its six phases, each closed.
        let phases: Vec<&str> = obs.phases().iter().map(|p| p.name).collect();
        assert_eq!(phases[0], "crawl");
        assert_eq!(phases[1..], PHASES);
        assert!(obs.phases().iter().all(|p| p.end_secs.is_some()));
        // The API server recorded into the same registry.
        assert!(obs
            .counter_value("flock.apis.search.granted")
            .is_some_and(|v| v > 0));
        // Deterministic-tier snapshot is non-empty and carries both crates.
        let snap = obs.snapshot();
        assert!(snap.contains("flock.crawler.discover.matched_users"));
        assert!(snap.contains("flock.apis.follows.granted"));
    }
}
