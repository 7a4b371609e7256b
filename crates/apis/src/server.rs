//! The simulated API server: every endpoint the paper's crawler hit.
//!
//! One [`ApiServer`] fronts a generated [`World`] and exposes:
//!
//! * **Twitter v2** — full-archive search with the query language of
//!   [`crate::query`], user lookup, user timelines, and the follows
//!   endpoint; each family behind its real rate-limit policy;
//! * **Mastodon** — per-instance account lookup, statuses, following, and
//!   the weekly-activity endpoint; per-instance rate limits; instances that
//!   are down at crawl time answer [`FlockError::InstanceUnavailable`];
//! * the `instances.social`-style global instance list the paper seeded
//!   its crawl with.
//!
//! The server never exposes ground truth: moved accounts answer with
//! `moved_to` and keep only their pre-move statuses (like real servers),
//! suspended/deleted/protected Twitter accounts answer exactly like the
//! real API, and everything is paginated behind opaque cursors.
//!
//! Time is **virtual**: rate-limited callers receive `retry_after_secs`
//! and are expected to call [`ApiServer::advance_clock`] (their "sleep")
//! before retrying.

use crate::index::SearchIndex;
use crate::pagination::{decode, Page};
use crate::query::Query;
use crate::ratelimit::{RatePolicy, TokenBucket};
use crate::types::{
    ActivityRow, MastodonAccountObject, StatusObject, TweetObject, TwitterUserObject,
};
use flock_chaos::{EndpointFamily, FaultPlan, KeyFaults, OutageStatus, ResolvedPlan};
use flock_core::{
    Day, DetRng, FlockError, InstanceId, MastodonHandle, Result, TweetId, TwitterUserId,
};
use flock_fedisim::users::AccountFate;
use flock_fedisim::World;
use flock_obs::trace::{self, FaultKind, SpanOutcome};
use flock_obs::{Counter, Histogram, Registry, Tier, SECONDS_BOUNDS};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ApiConfig {
    /// Tweets per search page (full-archive max is 500).
    pub search_page_size: usize,
    /// Tweets per timeline page.
    pub timeline_page_size: usize,
    /// Ids per follows page (real API: 1000).
    pub follows_page_size: usize,
    /// Statuses per Mastodon page (real API max: 40).
    pub statuses_page_size: usize,
    /// Accounts per Mastodon following page (real API: 80).
    pub following_page_size: usize,
    /// Probability that any request fails transiently (fault injection).
    pub transient_error_rate: f64,
    /// Simulated network latency per granted request, in microseconds
    /// (a real `thread::sleep`, taken **outside** every lock). Zero — the
    /// default — keeps tests instant; throughput benches switch it on to
    /// measure what the worker pool actually buys a network-bound crawl:
    /// overlapping request latency.
    pub request_latency_micros: u64,
    pub search_policy: RatePolicy,
    pub users_policy: RatePolicy,
    pub follows_policy: RatePolicy,
    pub mastodon_policy: RatePolicy,
    /// The chaos fault plan (defaults to [`FaultPlan::calm`]: no faults).
    /// Resolved once at server construction; see `flock-chaos` for the
    /// determinism contract.
    pub chaos: FaultPlan,
}

impl ApiConfig {
    /// Range-check every knob. The scalar `transient_error_rate` is a
    /// probability and must be finite and in `[0, 1]`; the chaos plan
    /// applies the same discipline to each of its own parameters.
    pub fn validate(&self) -> Result<()> {
        let rate = self.transient_error_rate;
        if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
            return Err(FlockError::InvalidConfig(format!(
                "transient_error_rate must be a finite probability in [0, 1], got {rate}"
            )));
        }
        self.chaos.validate()
    }
}

impl Default for ApiConfig {
    fn default() -> Self {
        ApiConfig {
            search_page_size: 500,
            timeline_page_size: 100,
            follows_page_size: 1000,
            statuses_page_size: 40,
            following_page_size: 80,
            transient_error_rate: 0.0,
            request_latency_micros: 0,
            search_policy: RatePolicy::twitter_search(),
            users_policy: RatePolicy::twitter_users(),
            follows_policy: RatePolicy::twitter_follows(),
            mastodon_policy: RatePolicy::mastodon(),
            chaos: FaultPlan::calm(),
        }
    }
}

/// Mutable state of one endpoint family: its token bucket plus its own
/// fault-injection RNG, so the fault sequence a family sees depends only on
/// the order of requests *to that family* — never on how worker threads
/// interleave requests to other families.
struct FamilyState {
    bucket: TokenBucket,
    fault_rng: DetRng,
    /// Chaos faults already injected per logical request key. Only keys
    /// the plan curses are ever inserted; the count saturates at the
    /// key's budget, so the map stays proportional to cursed keys seen.
    chaos_spent: HashMap<String, u32>,
}

impl FamilyState {
    fn new(policy: RatePolicy, rng: &mut DetRng, label: &str) -> Mutex<FamilyState> {
        Mutex::new(FamilyState {
            bucket: TokenBucket::new(policy, 0),
            fault_rng: rng.fork(label),
            chaos_spent: HashMap::new(),
        })
    }
}

/// Observability handles of one endpoint family, under the workspace
/// naming scheme `flock.apis.<family>.<metric>`.
///
/// `granted` counts requests that actually consumed a token — each logical
/// API call is granted exactly once no matter how retries interleave, so
/// it lives in the deterministic tier. Rejections, faults and retry waits
/// depend on thread scheduling and live in the scheduling tier.
struct FamilyMetrics {
    granted: Counter,
    rate_limited: Counter,
    faults: Counter,
    retry_after_secs: Histogram,
    /// Chaos errors injected on this family. Per-key budgets are pure
    /// functions of the plan and the crawler drains each cursed key's
    /// budget exactly once, so the total is worker-count-independent.
    chaos_injected_errors: Counter,
    /// Chaos Retry-After storms injected (deterministic, like errors).
    chaos_storms: Counter,
    /// Pagination scopes whose cursor a chaos plan swallowed.
    chaos_truncated_pages: Counter,
    /// Extra injected latency (µs): wall-clock only, scheduling tier.
    chaos_latency_micros: Counter,
}

impl FamilyMetrics {
    fn new(obs: &Registry, family: &str) -> FamilyMetrics {
        FamilyMetrics {
            granted: obs.counter(&format!("flock.apis.{family}.granted"), Tier::Data),
            rate_limited: obs.counter(&format!("flock.apis.{family}.rate_limited"), Tier::Sched),
            faults: obs.counter(&format!("flock.apis.{family}.faults"), Tier::Sched),
            retry_after_secs: obs.histogram(
                &format!("flock.apis.{family}.retry_after_secs"),
                Tier::Sched,
                &SECONDS_BOUNDS,
            ),
            chaos_injected_errors: obs.counter(
                &format!("flock.apis.{family}.chaos.injected_errors"),
                Tier::Data,
            ),
            chaos_storms: obs.counter(&format!("flock.apis.{family}.chaos.storms"), Tier::Data),
            chaos_truncated_pages: obs.counter(
                &format!("flock.apis.{family}.chaos.truncated_pages"),
                Tier::Data,
            ),
            chaos_latency_micros: obs.counter(
                &format!("flock.apis.{family}.chaos.latency_micros"),
                Tier::Sched,
            ),
        }
    }
}

/// All of the server's metric handles (pure atomics — recording never
/// takes a lock, so instrumentation adds nothing to the lock-order story).
struct ApiMetrics {
    search: FamilyMetrics,
    users: FamilyMetrics,
    follows: FamilyMetrics,
    mastodon: FamilyMetrics,
    stale_cursors: Counter,
    /// Requests rejected because the target instance sat inside a chaos
    /// outage window. How many times a crawler knocks before the window
    /// closes depends on scheduling, hence `Tier::Sched`.
    chaos_outage_rejections: Counter,
}

impl ApiMetrics {
    fn new(obs: &Registry) -> ApiMetrics {
        ApiMetrics {
            search: FamilyMetrics::new(obs, "search"),
            users: FamilyMetrics::new(obs, "users"),
            follows: FamilyMetrics::new(obs, "follows"),
            mastodon: FamilyMetrics::new(obs, "mastodon"),
            stale_cursors: obs.counter("flock.apis.pagination.stale_cursors", Tier::Data),
            chaos_outage_rejections: obs
                .counter("flock.apis.mastodon.chaos.outage_rejections", Tier::Sched),
        }
    }

    fn family(&self, family: EndpointFamily) -> &FamilyMetrics {
        match family {
            EndpointFamily::Search => &self.search,
            EndpointFamily::Users => &self.users,
            EndpointFamily::Follows => &self.follows,
            EndpointFamily::Mastodon => &self.mastodon,
        }
    }
}

/// Number of shards the per-instance Mastodon buckets spread over. Workers
/// crawling different instances then contend only when their instances
/// happen to share a shard.
const MASTODON_SHARDS: usize = 16;

/// One shard of the per-instance Mastodon bucket map.
struct MastodonShard {
    buckets: HashMap<InstanceId, TokenBucket>,
    fault_rng: DetRng,
    /// Chaos faults already injected per logical request key (see
    /// [`FamilyState::chaos_spent`]); instances hash to shards, so a
    /// key's counter always lives under its instance's shard lock.
    chaos_spent: HashMap<String, u32>,
}

/// The API façade over a generated world.
///
/// All mutable state is sharded so concurrent crawler workers only contend
/// where they genuinely share a resource: the virtual clock is a single
/// atomic, each Twitter endpoint family has its own lock, and the
/// per-instance Mastodon buckets spread over [`MASTODON_SHARDS`] locks.
pub struct ApiServer {
    world: Arc<World>,
    config: ApiConfig,
    /// Virtual time in seconds. Advancing is a `fetch_add`; readers never
    /// block a rate-limit decision in another family.
    clock: AtomicU64,
    search: Mutex<FamilyState>,
    users: Mutex<FamilyState>,
    follows: Mutex<FamilyState>,
    mastodon: Vec<Mutex<MastodonShard>>,
    index: SearchIndex,
    metrics: ApiMetrics,
    /// The chaos plan resolved against the world (immutable after build;
    /// consulting it never takes a lock).
    chaos: ResolvedPlan,
    /// Materialized search results keyed by scope (`query:start:end`).
    /// Pagination re-enters `twitter_search` once per page with the same
    /// scope; without this cache every page re-ran the search, making a
    /// crawl of an H-hit query `O(H²/page_size)` — hours, not minutes, at
    /// paper scale. A result is a pure function of the scope and the
    /// immutable world + index, so caching cannot perturb determinism;
    /// the map is only ever probed by key, never iterated. Total footprint
    /// is bounded by the crawl's hit volume, which the crawler pages
    /// through (and therefore holds) anyway.
    search_results: Mutex<HashMap<String, Arc<Vec<u32>>>>,
    /// Federation adjacency behind the peers-list discovery endpoint,
    /// built lazily on first use (crawl-only runs never pay for it). A
    /// pure function of the immutable world, so caching cannot perturb
    /// determinism.
    peers: OnceLock<BTreeMap<String, Vec<String>>>,
}

impl ApiServer {
    /// Build a server (constructs the search index; `O(total tokens)`).
    /// Fails with [`FlockError::InvalidConfig`] when the config — notably
    /// `transient_error_rate` or a chaos plan parameter — is out of range.
    pub fn new(world: Arc<World>, config: ApiConfig) -> Result<Self> {
        ApiServer::with_obs(world, config, Registry::new())
    }

    /// Build a server whose per-family instrumentation records into `obs`
    /// (the plain constructors use a private registry nobody exports).
    pub fn with_obs(world: Arc<World>, config: ApiConfig, obs: Registry) -> Result<Self> {
        config.validate()?;
        let chaos = config.chaos.resolve(&world.outage_candidates())?;
        let index = SearchIndex::build(world.tweets.iter().map(|t| t.text))?;
        let metrics = ApiMetrics::new(&obs);
        let mut rng = DetRng::new(world.config.seed ^ 0xA91);
        let search = FamilyState::new(config.search_policy, &mut rng, "search");
        let users = FamilyState::new(config.users_policy, &mut rng, "users");
        let follows = FamilyState::new(config.follows_policy, &mut rng, "follows");
        let mastodon = (0..MASTODON_SHARDS)
            .map(|i| {
                Mutex::new(MastodonShard {
                    buckets: HashMap::new(),
                    fault_rng: rng.fork(&format!("mastodon-{i}")),
                    chaos_spent: HashMap::new(),
                })
            })
            .collect();
        Ok(ApiServer {
            world,
            config,
            clock: AtomicU64::new(0),
            search,
            users,
            follows,
            mastodon,
            index,
            metrics,
            chaos,
            search_results: Mutex::new(HashMap::new()),
            peers: OnceLock::new(),
        })
    }

    /// Build with default config.
    pub fn with_defaults(world: Arc<World>) -> Result<Self> {
        ApiServer::new(world, ApiConfig::default())
    }

    /// Canonical description of the resolved chaos plan (byte-stable for
    /// a given plan + seed + world; see the `flock-chaos` determinism
    /// contract).
    pub fn chaos_description(&self) -> String {
        self.chaos.describe()
    }

    /// The world behind the server (tests / ground-truth comparisons only —
    /// the crawler must not touch this).
    pub fn ground_truth(&self) -> &World {
        &self.world
    }

    /// Current virtual time in seconds.
    pub fn now(&self) -> u64 {
        self.clock.load(Ordering::SeqCst)
    }

    /// Advance the virtual clock (the caller's "sleep"). The advance is
    /// **additive**: `N` concurrent callers move time forward by the sum
    /// of their sleeps. Right for genuine backoff sleeps; for waiting out
    /// a rate limit use [`Self::advance_clock_to`], which cannot stack
    /// concurrent waits past the refill point.
    ///
    /// Returns the seconds applied (normally `secs` — additive advances
    /// never lose a race), mirroring [`Self::advance_clock_to`] so
    /// tracing callers charge exactly what they moved the clock by. The
    /// addition **saturates**: a pathological backoff near `u64::MAX`
    /// pins the clock at the end of time instead of wrapping it around
    /// (a plain `fetch_add` would silently rewind history), and the
    /// saturated remainder is what gets reported as applied.
    pub fn advance_clock(&self, secs: u64) -> u64 {
        let mut cur = self.clock.load(Ordering::SeqCst);
        loop {
            let next = cur.saturating_add(secs);
            match self
                .clock
                .compare_exchange(cur, next, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return next - cur,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Advance the virtual clock to at least `deadline_secs` (a `max`, not
    /// an add). When several workers are told "retry after X" by the same
    /// bucket, each knows the *deadline* at which a token exists; additive
    /// advances from all of them would overshoot far past that refill
    /// point and silently deflate the virtual crawl duration's meaning.
    ///
    /// Returns the seconds this call actually moved the clock (zero when
    /// another worker already advanced past the deadline) — the exact
    /// amount a tracing caller should charge to its wait bucket.
    pub fn advance_clock_to(&self, deadline_secs: u64) -> u64 {
        let prev = self.clock.fetch_max(deadline_secs, Ordering::SeqCst);
        deadline_secs.saturating_sub(prev)
    }

    /// Which shard of the Mastodon bucket map an instance lives in
    /// (splitmix-style hash of the instance id).
    fn shard_of(inst: InstanceId) -> usize {
        let mut h = inst.index() as u64;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        (h % MASTODON_SHARDS as u64) as usize
    }

    /// Fault-inject and rate-limit one request against an endpoint family,
    /// under that family's lock alone. A fault costs no token (the request
    /// never reached the bucket), matching the pre-sharding behaviour.
    ///
    /// `key` names the *logical request* (scope + cursor / batch digest):
    /// per-key chaos budgets draw on it, so a cursed request fails the
    /// same way no matter when or on which worker it runs.
    fn acquire(&self, which: Endpoint, key: &str) -> Result<()> {
        self.acquire_inner(which, key)?;
        // Simulated network time, spent with no lock held: concurrent
        // requests overlap their latency exactly as real HTTP calls would.
        let extra = self.chaos.extra_latency_micros(which.family(), self.now());
        let latency = self.config.request_latency_micros + extra;
        if latency > 0 {
            std::thread::sleep(std::time::Duration::from_micros(latency));
        }
        if extra > 0 {
            self.metrics
                .family(which.family())
                .chaos_latency_micros
                .add(extra);
        }
        Ok(())
    }

    fn acquire_inner(&self, which: Endpoint, key: &str) -> Result<()> {
        let clock = self.now();
        let rate = self.config.transient_error_rate;
        let family = which.family();
        // The per-key budget is a pure function of the plan — computed
        // outside the family lock; only the spent counter lives inside.
        let kf = if self.chaos.family_has_key_faults(family) {
            self.chaos.key_faults(family, key)
        } else {
            KeyFaults::default()
        };
        let mut injected: Option<Injected> = None;
        let mut check = |bucket: &mut TokenBucket,
                         rng: &mut DetRng,
                         spent: &mut HashMap<String, u32>|
         -> Result<()> {
            // Chaos injection comes first: while a key's budget lasts,
            // neither the legacy fault coin nor the token bucket is ever
            // consulted, so the injected sequence per key is independent
            // of how attempts interleave with other traffic.
            if kf.any() {
                if let Some(kind) = chaos_inject(&kf, spent, key) {
                    injected = Some(kind);
                    return Err(match kind {
                        Injected::Error => FlockError::DeliveryFailed(
                            "chaos: injected transient error".to_string(),
                        ),
                        Injected::Storm => FlockError::RateLimited {
                            retry_after_secs: kf.storm_retry_after_secs,
                        },
                    });
                }
            }
            if rate > 0.0 && rng.chance(rate) {
                return Err(FlockError::InstanceUnavailable(
                    "transient upstream error".to_string(),
                ));
            }
            bucket
                .try_acquire(clock)
                .map_err(|retry_after_secs| FlockError::RateLimited { retry_after_secs })
        };
        let result = match which {
            Endpoint::Search => {
                let mut s = self.search.lock();
                let FamilyState {
                    bucket,
                    fault_rng,
                    chaos_spent,
                } = &mut *s;
                check(bucket, fault_rng, chaos_spent)
            }
            Endpoint::Users => {
                let mut s = self.users.lock();
                let FamilyState {
                    bucket,
                    fault_rng,
                    chaos_spent,
                } = &mut *s;
                check(bucket, fault_rng, chaos_spent)
            }
            Endpoint::Follows => {
                let mut s = self.follows.lock();
                let FamilyState {
                    bucket,
                    fault_rng,
                    chaos_spent,
                } = &mut *s;
                check(bucket, fault_rng, chaos_spent)
            }
            Endpoint::Mastodon(inst) => {
                let mut shard = self.mastodon[Self::shard_of(inst)].lock();
                let MastodonShard {
                    buckets,
                    fault_rng,
                    chaos_spent,
                } = &mut *shard;
                let policy = self.config.mastodon_policy;
                let bucket = buckets
                    .entry(inst)
                    .or_insert_with(|| TokenBucket::new(policy, clock));
                check(bucket, fault_rng, chaos_spent)
            }
        };
        // Recorded after the family lock is released: handles are atomics.
        let fam = self.metrics.family(family);
        match &result {
            Ok(()) => fam.granted.inc(),
            Err(FlockError::RateLimited { retry_after_secs }) => {
                fam.rate_limited.inc();
                fam.retry_after_secs.record(*retry_after_secs);
            }
            Err(_) => fam.faults.inc(),
        }
        match injected {
            Some(Injected::Error) => fam.chaos_injected_errors.inc(),
            Some(Injected::Storm) => fam.chaos_storms.inc(),
            None => {}
        }
        // Thread-local trace context: tell the crawler's span what this
        // attempt really was — callers cannot distinguish a storm
        // rejection from a genuinely empty bucket, or a chaos injection
        // from the transient coin, but the acquire decision can.
        let outcome = match (&result, injected) {
            (Ok(()), _) => SpanOutcome::Granted,
            (Err(_), Some(Injected::Storm)) => SpanOutcome::RateLimited { storm: true },
            (Err(_), Some(Injected::Error)) => SpanOutcome::Fault(FaultKind::Injected),
            (Err(FlockError::RateLimited { .. }), None) => {
                SpanOutcome::RateLimited { storm: false }
            }
            (Err(_), None) => SpanOutcome::Fault(FaultKind::Transient),
        };
        trace::record_attempt(family.label(), outcome);
        result
    }

    /// Swallow the `next` cursor of a cursed pagination scope's first
    /// page (the real API's occasional truncated result set). Applied
    /// per endpoint because only the endpoint knows its family.
    fn maybe_truncate(
        &self,
        family: EndpointFamily,
        scope: &str,
        offset: usize,
        next: Option<String>,
    ) -> Option<String> {
        if offset == 0 && next.is_some() && self.chaos.truncates(family, scope) {
            self.metrics.family(family).chaos_truncated_pages.inc();
            return None;
        }
        next
    }

    /// Page through `all`, counting a stale cursor before surfacing it.
    fn page<T: Clone>(
        &self,
        all: &[T],
        scope: &str,
        offset: usize,
        limit: usize,
    ) -> Result<Page<T>> {
        Page::slice(all, scope, offset, limit).map_err(|e| {
            if matches!(e, FlockError::StaleCursor(_)) {
                self.metrics.stale_cursors.inc();
                // The acquire was granted, then pagination found the
                // cursor pointing past a shrunk result set: upgrade the
                // pending attempt so the span shows what really happened.
                trace::mark_stale_cursor();
            }
            e
        })
    }

    // ------------------------------------------------------------------
    // instances.social
    // ------------------------------------------------------------------

    /// The global instance list (the `instances.social` index the paper
    /// seeded from). Not rate limited.
    pub fn instances_social_list(&self) -> Vec<String> {
        self.world
            .instances
            .iter()
            .map(|i| i.domain.clone())
            .collect()
    }

    // ------------------------------------------------------------------
    // Twitter v2
    // ------------------------------------------------------------------

    /// Full-archive search. `start`/`end` bound the tweet day, inclusive.
    pub fn twitter_search(
        &self,
        query_str: &str,
        start: Day,
        end: Day,
        cursor: Option<&str>,
    ) -> Result<Page<TweetObject>> {
        let scope = format!("search:{query_str}:{}:{}", start.offset(), end.offset());
        self.acquire(Endpoint::Search, &request_key(&scope, cursor))?;
        let query = self.index.query(query_str)?;
        let offset = decode(&scope, cursor)?;

        // Candidate set: smallest posting list among required tokens, or a
        // full scan when the query promises no token. Materialized once
        // per scope — subsequent pages of the same query hit the cache.
        let matches = self.cached_matches(&scope, &query, start, end);
        let page = self.page(&matches, &scope, offset, self.config.search_page_size)?;
        Ok(Page {
            items: page.items.iter().map(|&i| self.tweet_object(i)).collect(),
            next: self.maybe_truncate(EndpointFamily::Search, &scope, offset, page.next),
        })
    }

    /// The index's answer for `query`, through the per-scope result cache.
    fn cached_matches(&self, scope: &str, query: &Query, start: Day, end: Day) -> Arc<Vec<u32>> {
        {
            let cache = self.search_results.lock();
            if let Some(hit) = cache.get(scope) {
                return Arc::clone(hit);
            }
        }
        // Evaluate outside the lock: a slow first page must not block
        // unrelated queries from other workers.
        let matches = Arc::new(self.index.search(&self.world, query, start, end));
        self.search_results
            .lock()
            .entry(scope.to_string())
            .or_insert(matches)
            .clone()
    }

    /// Diagnostic search: the ids of every tweet in `[start, end]` matching
    /// `query_str`, served from the index.
    /// Unpaginated and **not** rate limited — benchmarks and ground-truth
    /// comparisons only; the crawler goes through [`Self::twitter_search`].
    pub fn search_ids_indexed(
        &self,
        query_str: &str,
        start: Day,
        end: Day,
    ) -> Result<Vec<TweetId>> {
        let query = self.index.query(query_str)?;
        Ok(self
            .index
            .search(&self.world, &query, start, end)
            .into_iter()
            .map(|i| TweetId(i as u64))
            .collect())
    }

    /// Diagnostic twin of [`Self::search_ids_indexed`] that answers the way
    /// the server did before the index: scan the whole corpus and
    /// re-tokenize every tweet. Exists so benches can measure what the
    /// posting-list intersection and the token arena buy.
    pub fn search_ids_scan(&self, query_str: &str, start: Day, end: Day) -> Result<Vec<TweetId>> {
        let query = self.index.query(query_str)?;
        Ok(self
            .index
            .scan(&self.world, &query, start, end)
            .into_iter()
            .map(|i| TweetId(i as u64))
            .collect())
    }

    fn tweet_object(&self, idx: u32) -> TweetObject {
        let t = self.world.tweets.get(idx as usize);
        TweetObject {
            id: t.id,
            author_id: t.author,
            day: t.day,
            text: t.text.to_string(),
            source: flock_fedisim::SOURCES[t.source as usize].0.to_string(),
        }
    }

    /// The `includes.users` expansion attached to search results **at
    /// collection time**: the paper collected tweets live during the window,
    /// so author metadata (bio, counts) was captured even for accounts that
    /// were later deleted or suspended. Rate-limited with the search family.
    pub fn twitter_search_user_expansion(
        &self,
        ids: &[TwitterUserId],
    ) -> Result<Vec<TwitterUserObject>> {
        self.acquire(Endpoint::Search, &ids_key("expansion", ids))?;
        if ids.len() > 100 {
            return Err(FlockError::InvalidQuery(format!(
                "at most 100 ids per expansion, got {}",
                ids.len()
            )));
        }
        Ok(ids
            .iter()
            .filter_map(|id| {
                let u = self.world.user(*id)?;
                Some(TwitterUserObject {
                    id: u.id,
                    username: u.username.clone(),
                    name: u.display_name.clone(),
                    description: u.bio.clone(),
                    created_at: u.created,
                    verified: u.verified,
                    protected: u.fate == AccountFate::Protected,
                    followers_count: u.follower_count,
                    following_count: u.followee_count,
                })
            })
            .collect())
    }

    /// Batch user lookup (max 100 ids per request, like the real API).
    pub fn twitter_users_lookup(&self, ids: &[TwitterUserId]) -> Result<Vec<TwitterUserObject>> {
        self.acquire(Endpoint::Users, &ids_key("lookup", ids))?;
        if ids.len() > 100 {
            return Err(FlockError::InvalidQuery(format!(
                "at most 100 ids per lookup, got {}",
                ids.len()
            )));
        }
        Ok(ids.iter().filter_map(|id| self.user_object(*id)).collect())
    }

    fn user_object(&self, id: TwitterUserId) -> Option<TwitterUserObject> {
        let u = self.world.user(id)?;
        // Deleted and suspended accounts do not resolve.
        if matches!(u.fate, AccountFate::Deleted | AccountFate::Suspended) {
            return None;
        }
        Some(TwitterUserObject {
            id: u.id,
            username: u.username.clone(),
            name: u.display_name.clone(),
            description: u.bio.clone(),
            created_at: u.created,
            verified: u.verified,
            protected: u.fate == AccountFate::Protected,
            followers_count: u.follower_count,
            following_count: u.followee_count,
        })
    }

    /// A user's tweets in `[start, end]`, newest-first pages.
    pub fn twitter_timeline(
        &self,
        user: TwitterUserId,
        start: Day,
        end: Day,
        cursor: Option<&str>,
    ) -> Result<Page<TweetObject>> {
        let scope = format!("timeline:{user}:{}:{}", start.offset(), end.offset());
        // Timelines share the search family.
        self.acquire(Endpoint::Search, &request_key(&scope, cursor))?;
        let u = self
            .world
            .user(user)
            .ok_or_else(|| FlockError::NotFound(user.to_string()))?;
        match u.fate {
            AccountFate::Suspended => {
                return Err(FlockError::Forbidden(format!("{user} is suspended")))
            }
            AccountFate::Deleted => {
                return Err(FlockError::NotFound(format!("{user} no longer exists")))
            }
            AccountFate::Protected => {
                return Err(FlockError::Forbidden(format!(
                    "{user} has protected tweets"
                )))
            }
            AccountFate::Active => {}
        }
        let offset = decode(&scope, cursor)?;
        let ids: Vec<TweetId> = self
            .world
            .tweets_of(user)
            .filter(|tid| {
                let d = self.world.tweets.day(tid.index());
                d >= start && d <= end
            })
            .collect();
        let page = self.page(&ids, &scope, offset, self.config.timeline_page_size)?;
        Ok(Page {
            items: page
                .items
                .iter()
                .map(|tid| self.tweet_object(tid.raw() as u32))
                .collect(),
            next: self.maybe_truncate(EndpointFamily::Search, &scope, offset, page.next),
        })
    }

    /// The follows endpoint: who `user` follows.
    pub fn twitter_following(
        &self,
        user: TwitterUserId,
        cursor: Option<&str>,
    ) -> Result<Page<TwitterUserId>> {
        let scope = format!("following:{user}");
        self.acquire(Endpoint::Follows, &request_key(&scope, cursor))?;
        let u = self
            .world
            .user(user)
            .ok_or_else(|| FlockError::NotFound(user.to_string()))?;
        match u.fate {
            AccountFate::Suspended | AccountFate::Deleted => {
                return Err(FlockError::NotFound(format!("{user} unavailable")))
            }
            AccountFate::Protected => {
                return Err(FlockError::Forbidden(format!("{user} is protected")))
            }
            AccountFate::Active => {}
        }
        // Lists are materialized for migrants (all the paper ever asked
        // for); a non-materialized list answers like an empty one.
        let list: &[TwitterUserId] = self
            .world
            .account_of_user(user)
            .map(|a| self.world.twitter_followees[a.id.index()].as_slice())
            .unwrap_or(&[]);
        let offset = decode(&scope, cursor)?;
        let page = self.page(list, &scope, offset, self.config.follows_page_size)?;
        Ok(Page {
            items: page.items,
            next: self.maybe_truncate(EndpointFamily::Follows, &scope, offset, page.next),
        })
    }

    // ------------------------------------------------------------------
    // Mastodon
    // ------------------------------------------------------------------

    fn instance_checked(&self, domain: &str) -> Result<InstanceId> {
        self.instance_checked_at(domain, self.now())
    }

    /// [`Self::instance_checked`] evaluated at an explicit virtual time.
    /// The continuous monitor stamps every check with its *scheduled* tick
    /// and asks "was the instance up at that tick?" — a check that runs
    /// late (because other checks' rate-limit waits already moved the
    /// shared clock) must still observe the outage state of the tick it
    /// was scheduled for, or the alive/dead verdicts would depend on the
    /// thread count.
    fn instance_checked_at(&self, domain: &str, as_of_secs: u64) -> Result<InstanceId> {
        let inst = self
            .world
            .instance_by_domain(domain)
            .ok_or_else(|| FlockError::NotFound(format!("instance {domain}")))?;
        if inst.down_at_crawl {
            trace::record_attempt(
                EndpointFamily::Mastodon.label(),
                SpanOutcome::Fault(FaultKind::Outage),
            );
            return Err(FlockError::InstanceUnavailable(domain.to_string()));
        }
        // Chaos outage windows: a permanent window answers exactly like a
        // dead instance; a finite one reports its reopening deadline so
        // callers can wait it out deterministically.
        match self.chaos.outage(domain, as_of_secs) {
            OutageStatus::Up => {}
            OutageStatus::Permanent => {
                self.metrics.chaos_outage_rejections.inc();
                trace::record_attempt(
                    EndpointFamily::Mastodon.label(),
                    SpanOutcome::Fault(FaultKind::Outage),
                );
                return Err(FlockError::InstanceUnavailable(domain.to_string()));
            }
            OutageStatus::Until { end_secs } => {
                self.metrics.chaos_outage_rejections.inc();
                trace::record_attempt(
                    EndpointFamily::Mastodon.label(),
                    SpanOutcome::Fault(FaultKind::Outage),
                );
                return Err(FlockError::InstanceOutage {
                    retry_after_secs: end_secs.saturating_sub(as_of_secs).max(1),
                });
            }
        }
        Ok(inst.id)
    }

    /// Account lookup on an instance. Works for both pre- and post-move
    /// handles; a moved account reports `moved_to`.
    pub fn mastodon_lookup_account(
        &self,
        handle: &MastodonHandle,
    ) -> Result<MastodonAccountObject> {
        let inst = self.instance_checked(handle.instance())?;
        self.acquire(Endpoint::Mastodon(inst), &format!("lookup:{handle}"))?;
        let account = self
            .world
            .account_by_handle(handle)
            .ok_or_else(|| FlockError::NotFound(handle.to_string()))?;
        let is_old_identity = account.switch.is_some() && *handle == account.first_handle;
        let (followers, following) = if is_old_identity {
            (0, 0) // the Move drained the old account's relationships
        } else {
            (
                self.world.mastodon_followers(account).len() as u64,
                self.world.mastodon_following(account).len() as u64,
            )
        };
        let statuses = self.visible_statuses(account, handle).len() as u64;
        let (created_at, created_tod_secs) = if is_old_identity {
            (account.created, account.created_tod_secs)
        } else if let Some(sw) = &account.switch {
            (sw.day, sw.tod_secs)
        } else {
            (account.created, account.created_tod_secs)
        };
        Ok(MastodonAccountObject {
            handle: handle.clone(),
            created_at,
            created_tod_secs,
            followers_count: followers,
            following_count: following,
            statuses_count: statuses,
            moved_to: if is_old_identity {
                Some(account.handle.clone())
            } else {
                None
            },
        })
    }

    /// Statuses visible on the instance `handle` lives on: a moved account
    /// keeps its pre-move statuses on the old instance.
    fn visible_statuses(
        &self,
        account: &flock_fedisim::MastodonAccount,
        handle: &MastodonHandle,
    ) -> Vec<flock_core::StatusId> {
        let all = self.world.statuses_of(account.id);
        match &account.switch {
            Some(sw) if *handle == account.first_handle => all
                .filter(|sid| self.world.statuses.day(sid.index()) < sw.day)
                .collect(),
            Some(sw) => all
                .filter(|sid| self.world.statuses.day(sid.index()) >= sw.day)
                .collect(),
            None => all.collect(),
        }
    }

    /// An account's statuses (`/api/v1/accounts/:id/statuses`).
    pub fn mastodon_account_statuses(
        &self,
        handle: &MastodonHandle,
        cursor: Option<&str>,
    ) -> Result<Page<StatusObject>> {
        let inst = self.instance_checked(handle.instance())?;
        let scope = format!("statuses:{handle}");
        self.acquire(Endpoint::Mastodon(inst), &request_key(&scope, cursor))?;
        let account = self
            .world
            .account_by_handle(handle)
            .ok_or_else(|| FlockError::NotFound(handle.to_string()))?;
        let ids = self.visible_statuses(account, handle);
        let offset = decode(&scope, cursor)?;
        let page = self.page(&ids, &scope, offset, self.config.statuses_page_size)?;
        Ok(Page {
            items: page
                .items
                .iter()
                .map(|sid| {
                    let s = self.world.statuses.get(sid.index());
                    StatusObject {
                        id: s.id,
                        day: s.day,
                        content: s.text.to_string(),
                    }
                })
                .collect(),
            next: self.maybe_truncate(EndpointFamily::Mastodon, &scope, offset, page.next),
        })
    }

    /// Who an account follows (`/api/v1/accounts/:id/following`).
    pub fn mastodon_account_following(
        &self,
        handle: &MastodonHandle,
        cursor: Option<&str>,
    ) -> Result<Page<MastodonHandle>> {
        let inst = self.instance_checked(handle.instance())?;
        let scope = format!("following:{handle}");
        self.acquire(Endpoint::Mastodon(inst), &request_key(&scope, cursor))?;
        let account = self
            .world
            .account_by_handle(handle)
            .ok_or_else(|| FlockError::NotFound(handle.to_string()))?;
        let handles: Vec<MastodonHandle> =
            if account.switch.is_some() && *handle == account.first_handle {
                Vec::new() // drained by the Move
            } else {
                self.world
                    .mastodon_following(account)
                    .iter()
                    .map(|a| MastodonHandle::new(&a.name, &a.domain))
                    .collect::<Result<_>>()?
            };
        let offset = decode(&scope, cursor)?;
        let page = self.page(&handles, &scope, offset, self.config.following_page_size)?;
        Ok(Page {
            items: page.items,
            next: self.maybe_truncate(EndpointFamily::Mastodon, &scope, offset, page.next),
        })
    }

    /// Public instance metadata (`/api/v1/instance`): registered users and
    /// statuses including the untracked background population.
    pub fn mastodon_instance_info(&self, domain: &str) -> Result<crate::types::InstanceInfoObject> {
        let inst = self.instance_checked(domain)?;
        self.acquire(Endpoint::Mastodon(inst), &format!("instance-info:{domain}"))?;
        let weeks = self
            .world
            .ledger
            .instance_weeks(inst)
            .ok_or_else(|| FlockError::NotFound(domain.to_string()))?;
        let user_count: u64 = weeks.values().map(|a| a.registrations).sum();
        let status_count: u64 = weeks.values().map(|a| a.statuses).sum();
        let topic = self.world.instances[inst.index()]
            .topic
            .map(|t| t.to_string());
        Ok(crate::types::InstanceInfoObject {
            domain: domain.to_string(),
            user_count,
            status_count,
            topic,
        })
    }

    /// Weekly activity (`/api/v1/instance/activity`): the last 12 weeks.
    pub fn mastodon_instance_activity(&self, domain: &str) -> Result<Vec<ActivityRow>> {
        let inst = self.instance_checked(domain)?;
        self.acquire(Endpoint::Mastodon(inst), &format!("activity:{domain}"))?;
        let weeks = self
            .world
            .ledger
            .instance_weeks(inst)
            .ok_or_else(|| FlockError::NotFound(domain.to_string()))?;
        Ok(weeks
            .iter()
            .rev()
            .take(12)
            .map(|(w, a)| ActivityRow {
                week: *w,
                statuses: a.statuses,
                logins: a.logins,
                registrations: a.registrations,
            })
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect())
    }

    /// Peers-list discovery (`/api/v1/instance/peers`): the domains this
    /// instance federates with, sorted. `as_of_secs` is the virtual tick
    /// the caller's check was *scheduled* for — availability is evaluated
    /// there (see [`Self::instance_checked_at`]) and the tick is folded
    /// into the logical request key, so each scheduled check draws its own
    /// per-key chaos budget no matter when or on which worker it runs.
    /// The list is borrowed from the server's peers map, so a check copies
    /// only the domains its caller keeps.
    pub fn mastodon_instance_peers(&self, domain: &str, as_of_secs: u64) -> Result<&[String]> {
        let inst = self.instance_checked_at(domain, as_of_secs)?;
        self.acquire(
            Endpoint::Mastodon(inst),
            &format!("peers:{domain}@{as_of_secs}"),
        )?;
        Ok(self
            .peers
            .get_or_init(|| self.world.fediverse.federation_peers())
            .get(domain)
            .map_or(&[], Vec::as_slice))
    }
}

#[derive(Debug, Clone, Copy)]
enum Endpoint {
    Search,
    Users,
    Follows,
    Mastodon(InstanceId),
}

impl Endpoint {
    fn family(self) -> EndpointFamily {
        match self {
            Endpoint::Search => EndpointFamily::Search,
            Endpoint::Users => EndpointFamily::Users,
            Endpoint::Follows => EndpointFamily::Follows,
            Endpoint::Mastodon(_) => EndpointFamily::Mastodon,
        }
    }
}

/// Which kind of chaos fault an attempt drew (for metric attribution).
#[derive(Debug, Clone, Copy)]
enum Injected {
    Error,
    Storm,
}

/// Spend one unit of a cursed key's fault budget, errors before storms.
/// Returns `None` once the budget is drained — from then on the key
/// behaves normally forever, which is what makes a finite budget yield
/// `min(budget, attempts)` injections regardless of scheduling.
fn chaos_inject(kf: &KeyFaults, spent: &mut HashMap<String, u32>, key: &str) -> Option<Injected> {
    let total = kf.errors + kf.storms;
    let n = spent.entry(key.to_string()).or_insert(0);
    if *n >= total {
        return None;
    }
    *n += 1;
    if *n <= kf.errors {
        Some(Injected::Error)
    } else {
        Some(Injected::Storm)
    }
}

/// Digest of a batch-id request for per-key chaos draws: first id, last
/// id, and length pin the batch without hashing every element.
fn ids_key(prefix: &str, ids: &[TwitterUserId]) -> String {
    match (ids.first(), ids.last()) {
        (Some(first), Some(last)) => format!("{prefix}:{first}:{last}:{}", ids.len()),
        _ => format!("{prefix}:empty"),
    }
}

/// The logical request key of a paginated call: its scope plus the page
/// cursor. Cursors are themselves deterministic (encode(scope, offset)),
/// so the key names the same page in every schedule.
fn request_key(scope: &str, cursor: Option<&str>) -> String {
    format!("{scope}#{}", cursor.unwrap_or(""))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_fedisim::WorldConfig;

    fn server() -> ApiServer {
        let world = Arc::new(World::generate(&WorldConfig::small().with_seed(123)).unwrap());
        ApiServer::with_defaults(world).unwrap()
    }

    fn drain_search(api: &ApiServer, q: &str) -> Vec<TweetObject> {
        let mut out = Vec::new();
        let mut cursor: Option<String> = None;
        loop {
            match api.twitter_search(
                q,
                Day::COLLECTION_START,
                Day::COLLECTION_END,
                cursor.as_deref(),
            ) {
                Ok(page) => {
                    out.extend(page.items);
                    match page.next {
                        Some(c) => cursor = Some(c),
                        None => break,
                    }
                }
                Err(FlockError::RateLimited { retry_after_secs }) => {
                    api.advance_clock(retry_after_secs);
                }
                Err(e) => panic!("{e}"),
            }
        }
        out
    }

    #[test]
    fn search_finds_migration_tweets() {
        let api = server();
        let hits = drain_search(&api, "mastodon");
        assert!(!hits.is_empty());
        for t in &hits {
            assert!(
                t.text
                    .to_lowercase()
                    .split_whitespace()
                    .any(|w| w.trim_matches(|c: char| !c.is_alphanumeric()) == "mastodon")
                    || t.text.to_lowercase().contains("mastodon"),
                "non-matching hit: {}",
                t.text
            );
            assert!(t.day.in_collection_window());
        }
    }

    #[test]
    fn search_respects_date_bounds() {
        let api = server();
        let page = api
            .twitter_search("#twittermigration", Day(27), Day(27), None)
            .unwrap();
        assert!(page.items.iter().all(|t| t.day == Day(27)));
    }

    #[test]
    fn search_rejects_bad_query_without_spending_quota() {
        let api = server();
        assert!(matches!(
            api.twitter_search("\"unterminated", Day(0), Day(60), None),
            Err(FlockError::InvalidQuery(_))
        ));
    }

    #[test]
    fn rate_limit_enforced_and_recoverable() {
        let world = Arc::new(World::generate(&WorldConfig::small().with_seed(7)).unwrap());
        let config = ApiConfig {
            follows_policy: RatePolicy {
                capacity: 2,
                window_secs: 60,
            },
            ..ApiConfig::default()
        };
        let api = ApiServer::new(world.clone(), config).unwrap();
        let migrant = world.users[world.migrant_users[0]].id;
        let mut limited = false;
        for _ in 0..5 {
            match api.twitter_following(migrant, None) {
                Ok(_) => {}
                Err(FlockError::RateLimited { retry_after_secs }) => {
                    limited = true;
                    api.advance_clock(retry_after_secs);
                    api.twitter_following(migrant, None).expect("after backoff");
                    break;
                }
                Err(FlockError::Forbidden(_)) | Err(FlockError::NotFound(_)) => return, // unlucky fate
                Err(e) => panic!("{e}"),
            }
        }
        assert!(limited, "limit never hit");
    }

    #[test]
    fn timeline_respects_account_fate() {
        let api = server();
        let world = api.ground_truth();
        let find = |fate: AccountFate| world.users.iter().find(|u| u.fate == fate).map(|u| u.id);
        if let Some(id) = find(AccountFate::Protected) {
            assert!(matches!(
                api.twitter_timeline(id, Day(0), Day(60), None),
                Err(FlockError::Forbidden(_))
            ));
        }
        if let Some(id) = find(AccountFate::Deleted) {
            assert!(matches!(
                api.twitter_timeline(id, Day(0), Day(60), None),
                Err(FlockError::NotFound(_))
            ));
        }
        let active = find(AccountFate::Active).unwrap();
        loop {
            match api.twitter_timeline(active, Day(0), Day(60), None) {
                Ok(_) => break,
                Err(FlockError::RateLimited { retry_after_secs }) => {
                    api.advance_clock(retry_after_secs);
                }
                Err(e) => panic!("{e}"),
            }
        }
    }

    #[test]
    fn users_lookup_hides_deleted_and_caps_batch() {
        let api = server();
        let world = api.ground_truth();
        let ids: Vec<TwitterUserId> = world.users.iter().take(101).map(|u| u.id).collect();
        assert!(api.twitter_users_lookup(&ids).is_err());
        let got = api.twitter_users_lookup(&ids[..100]).unwrap();
        for u in &got {
            let truth = world.user(u.id).unwrap();
            assert!(!matches!(
                truth.fate,
                AccountFate::Deleted | AccountFate::Suspended
            ));
            assert_eq!(u.username, truth.username);
        }
    }

    #[test]
    fn mastodon_statuses_roundtrip_and_down_instances_fail() {
        let api = server();
        let world = api.ground_truth();
        let mut crawled_one = false;
        for a in &world.accounts {
            let inst = &world.instances[a.instance.index()];
            let r = api.mastodon_account_statuses(&a.handle, None);
            if inst.down_at_crawl {
                assert!(matches!(r, Err(FlockError::InstanceUnavailable(_))));
            } else {
                match r {
                    Ok(page) => {
                        crawled_one = true;
                        for s in &page.items {
                            assert_eq!(world.statuses.account(s.id.index()), a.id);
                        }
                    }
                    Err(FlockError::RateLimited { retry_after_secs }) => {
                        api.advance_clock(retry_after_secs);
                    }
                    Err(e) => panic!("{e}"),
                }
            }
            if crawled_one {
                break;
            }
        }
        assert!(crawled_one);
    }

    #[test]
    fn moved_accounts_expose_moved_to_and_split_statuses() {
        let api = server();
        let world = api.ground_truth();
        let switcher = world
            .accounts
            .iter()
            .find(|a| {
                a.switch.is_some()
                    && !world.instances[a.first_instance.index()].down_at_crawl
                    && !world.instances[a.instance.index()].down_at_crawl
            })
            .expect("some reachable switcher");
        let old = api.mastodon_lookup_account(&switcher.first_handle).unwrap();
        assert_eq!(old.moved_to.as_ref(), Some(&switcher.handle));
        let new = api.mastodon_lookup_account(&switcher.handle).unwrap();
        assert!(new.moved_to.is_none());
        let sw_day = switcher.switch.as_ref().unwrap().day;
        let old_statuses = api
            .mastodon_account_statuses(&switcher.first_handle, None)
            .unwrap();
        assert!(old_statuses.items.iter().all(|s| s.day < sw_day));
        let new_statuses = api
            .mastodon_account_statuses(&switcher.handle, None)
            .unwrap();
        assert!(new_statuses.items.iter().all(|s| s.day >= sw_day));
    }

    #[test]
    fn instance_activity_returns_recent_weeks() {
        let api = server();
        let rows = api.mastodon_instance_activity("mastodon.social").unwrap();
        assert!(!rows.is_empty() && rows.len() <= 12);
        for pair in rows.windows(2) {
            assert!(pair[0].week < pair[1].week, "weeks must ascend");
        }
        assert!(matches!(
            api.mastodon_instance_activity("no-such-instance.example"),
            Err(FlockError::NotFound(_))
        ));
    }

    #[test]
    fn instances_social_list_is_complete() {
        let api = server();
        let list = api.instances_social_list();
        assert_eq!(list.len(), api.ground_truth().instances.len());
        assert!(list.contains(&"mastodon.social".to_string()));
    }

    #[test]
    fn transient_faults_injected_when_configured() {
        let world = Arc::new(World::generate(&WorldConfig::small().with_seed(9)).unwrap());
        let config = ApiConfig {
            transient_error_rate: 0.5,
            ..ApiConfig::default()
        };
        let api = ApiServer::new(world, config).unwrap();
        let mut failures = 0;
        for _ in 0..50 {
            if api.instances_social_list().is_empty() {
                unreachable!()
            }
            match api.twitter_search("mastodon", Day(25), Day(51), None) {
                Err(FlockError::InstanceUnavailable(_)) => failures += 1,
                Err(FlockError::RateLimited { retry_after_secs }) => {
                    api.advance_clock(retry_after_secs);
                }
                _ => {}
            }
        }
        assert!(failures > 5, "only {failures} transient failures");
    }

    /// Regression (clock overshoot): when N workers are all told "retry
    /// after X" by the same bucket, waiting out the limit must move the
    /// clock to the shared deadline once — not add X per worker. The old
    /// additive `advance_clock` stacked to `start + N·X`.
    #[test]
    fn concurrent_waits_advance_to_the_deadline_not_past_it() {
        let api = server();
        api.advance_clock(100);
        let deadline = api.now() + 60;
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| api.advance_clock_to(deadline));
            }
        });
        assert_eq!(
            api.now(),
            deadline,
            "stacked advances overshot the refill point"
        );
        // Later deadlines still win; earlier ones are no-ops.
        api.advance_clock_to(deadline - 10);
        assert_eq!(api.now(), deadline);
        api.advance_clock_to(deadline + 5);
        assert_eq!(api.now(), deadline + 5);
    }

    /// Regression (clock wraparound): `retry_after_secs` near `u64::MAX`
    /// must pin the virtual clock at the end of time, not wrap it back to
    /// the beginning. Both the additive and the deadline advance saturate,
    /// and both report the saturated seconds they actually applied.
    #[test]
    fn clock_advances_saturate_near_u64_max() {
        let api = server();
        api.advance_clock(1000);
        // Additive advance with a pathological backoff: saturates, and the
        // applied seconds reflect the clamp.
        let applied = api.advance_clock(u64::MAX);
        assert_eq!(applied, u64::MAX - 1000);
        assert_eq!(api.now(), u64::MAX);
        // Further advances of either kind are exact no-ops — no wrap, no
        // backwards movement, no infinite catch-up loop.
        assert_eq!(api.advance_clock(u64::MAX), 0);
        assert_eq!(api.advance_clock(5), 0);
        assert_eq!(api.now(), u64::MAX);
        assert_eq!(api.advance_clock_to(u64::MAX), 0);
        assert_eq!(api.advance_clock_to(12), 0);
        assert_eq!(api.now(), u64::MAX);
    }

    #[test]
    fn stale_cursor_is_a_typed_error_and_counted() {
        let obs = Registry::new();
        let world = Arc::new(World::generate(&WorldConfig::small().with_seed(123)).unwrap());
        let api = ApiServer::with_obs(world.clone(), ApiConfig::default(), obs.clone()).unwrap();
        let migrant = world.users[world.migrant_users[0]].id;
        // Forge a well-formed cursor pointing far past the end of the
        // followee list — the shape a crawler sees when the dataset shrank
        // between pages.
        let forged = crate::pagination::encode(&format!("following:{migrant}"), 1_000_000);
        match api.twitter_following(migrant, Some(&forged)) {
            Err(FlockError::StaleCursor(_)) => {}
            Err(FlockError::Forbidden(_)) | Err(FlockError::NotFound(_)) => return, // unlucky fate
            other => panic!("expected StaleCursor, got {other:?}"),
        }
        assert_eq!(
            obs.counter_value("flock.apis.pagination.stale_cursors"),
            Some(1)
        );
    }

    #[test]
    fn per_family_instrumentation_records_grants_and_rejections() {
        let obs = Registry::new();
        let world = Arc::new(World::generate(&WorldConfig::small().with_seed(7)).unwrap());
        let config = ApiConfig {
            search_policy: RatePolicy {
                capacity: 2,
                window_secs: 900,
            },
            ..ApiConfig::default()
        };
        let api = ApiServer::with_obs(world, config, obs.clone()).unwrap();
        for _ in 0..4 {
            let _ = api.twitter_search("mastodon", Day(25), Day(51), None);
        }
        assert_eq!(obs.counter_value("flock.apis.search.granted"), Some(2));
        assert_eq!(obs.counter_value("flock.apis.search.rate_limited"), Some(2));
        assert_eq!(obs.counter_value("flock.apis.users.granted"), Some(0));
        // The deterministic-tier snapshot carries grants but not rejections.
        let snap = obs.snapshot();
        assert!(snap.contains("counter flock.apis.search.granted 2"));
        assert!(!snap.contains("rate_limited"));
    }
}

#[cfg(test)]
mod index_differential_tests {
    use super::*;
    use crate::index::Vocab;
    use crate::query::{Doc, Query};
    use flock_fedisim::WorldConfig;
    use std::sync::Arc;

    /// The inverted index is an optimization: for every query the paper's
    /// collection used, index-assisted search must return exactly the same
    /// tweets as a brute-force scan of the corpus.
    #[test]
    fn index_matches_brute_force_scan() {
        let world = Arc::new(World::generate(&WorldConfig::small().with_seed(888)).unwrap());
        let api = ApiServer::with_defaults(world.clone()).unwrap();
        let mut queries: Vec<String> = vec![
            "mastodon".into(),
            "\"bye bye twitter\"".into(),
            "#TwitterMigration".into(),
            "#RIPTwitter".into(),
            "leaving mastodon".into(),
        ];
        for inst in world.instances.iter().take(10) {
            queries.push(format!("url:\"{}\"", inst.domain));
        }
        // The brute force interns the corpus into a vocabulary of its own:
        // no posting list, token arena or host key is involved.
        let mut vocab = Vocab::default();
        let docs: Vec<Vec<u32>> = world
            .tweets
            .iter()
            .map(|t| {
                let mut ids = Vec::new();
                vocab.intern_text(t.text, &mut ids);
                ids
            })
            .collect();
        for q in queries {
            let mut parsed = Query::parse(&q).unwrap();
            parsed.bind(&vocab);
            let brute: Vec<_> = world
                .tweets
                .iter()
                .zip(&docs)
                .filter(|(t, tokens)| {
                    t.day >= Day::COLLECTION_START
                        && t.day <= Day::COLLECTION_END
                        && parsed.matches(&Doc {
                            text: t.text,
                            author: &world.users[t.author.index()].username,
                            tokens,
                            vocab: &vocab,
                        })
                })
                .map(|(t, _)| t.id)
                .collect();
            let mut indexed = Vec::new();
            let mut cursor: Option<String> = None;
            loop {
                match api.twitter_search(
                    &q,
                    Day::COLLECTION_START,
                    Day::COLLECTION_END,
                    cursor.as_deref(),
                ) {
                    Ok(page) => {
                        indexed.extend(page.items.into_iter().map(|t| t.id));
                        match page.next {
                            Some(c) => cursor = Some(c),
                            None => break,
                        }
                    }
                    Err(FlockError::RateLimited { retry_after_secs }) => {
                        api.advance_clock(retry_after_secs);
                    }
                    Err(e) => panic!("{q}: {e}"),
                }
            }
            let mut brute_sorted = brute.clone();
            brute_sorted.sort();
            let mut indexed_sorted = indexed.clone();
            indexed_sorted.sort();
            assert_eq!(
                indexed_sorted, brute_sorted,
                "index and scan disagree for {q:?}"
            );

            // The diagnostic twins must agree with each other (and with the
            // paginated API) for every query as well.
            let fast = api
                .search_ids_indexed(&q, Day::COLLECTION_START, Day::COLLECTION_END)
                .unwrap();
            let slow = api
                .search_ids_scan(&q, Day::COLLECTION_START, Day::COLLECTION_END)
                .unwrap();
            assert_eq!(fast, slow, "diagnostic paths disagree for {q:?}");
            let mut fast_sorted = fast;
            fast_sorted.sort();
            assert_eq!(
                fast_sorted, brute_sorted,
                "diagnostic vs paginated for {q:?}"
            );
        }
    }
}

#[cfg(test)]
mod instance_info_tests {
    use super::*;
    use flock_fedisim::WorldConfig;
    use std::sync::Arc;

    #[test]
    fn instance_info_reports_public_counts() {
        let world = Arc::new(World::generate(&WorldConfig::small().with_seed(777)).unwrap());
        let api = ApiServer::with_defaults(world.clone()).unwrap();
        let info = api.mastodon_instance_info("mastodon.social").unwrap();
        assert_eq!(info.domain, "mastodon.social");
        // The public count includes the untracked background wave, so it
        // dwarfs the tracked migrant population on the flagship.
        let tracked = world
            .accounts
            .iter()
            .filter(|a| a.instance.index() == 0)
            .count() as u64;
        assert!(
            info.user_count > tracked,
            "public {} vs tracked {tracked}",
            info.user_count
        );
        assert!(info.status_count > 0);
        assert_eq!(info.topic, None, "the flagship is general-purpose");

        // Any reachable topical instance reports its niche.
        let topical = world
            .instances
            .iter()
            .find(|i| i.topic.is_some() && !i.down_at_crawl)
            .expect("some topical instance is up");
        let info = api.mastodon_instance_info(&topical.domain).unwrap();
        assert_eq!(
            info.topic.as_deref(),
            Some(topical.topic.unwrap().to_string().as_str())
        );

        assert!(matches!(
            api.mastodon_instance_info("nope.example"),
            Err(FlockError::NotFound(_))
        ));
        // Down instances answer unavailable, like every Mastodon endpoint.
        if let Some(down) = world.instances.iter().find(|i| i.down_at_crawl) {
            assert!(matches!(
                api.mastodon_instance_info(&down.domain),
                Err(FlockError::InstanceUnavailable(_))
            ));
        }
    }
}
