//! The assembled world: both platforms, fully generated and cross-linked.
//!
//! [`World::generate`] runs the whole pipeline bottom-up:
//!
//! 1. instances, users, and the migrant friend graph;
//! 2. the migration model (who moves when, to which instance);
//! 3. Twitter followee-list realization (what the follows API can return);
//! 4. ActivityPub registration, then Mastodon follows and the `Move`-based
//!    instance switches through the federation substrate
//!    (`flock-activitypub`), each drained to quiescence;
//! 5. content (tweets, statuses, announcements, cross-posts);
//! 6. the weekly activity ledger and the Fig. 1 interest series;
//! 7. crawl-time fault assignment (which instances are down).
//!
//! Every phase draws from its own forked RNG stream, so the world is
//! bit-reproducible from `config.seed` and insensitive to draw-count
//! changes in sibling phases.

use crate::activity::{build_ledger, ActivityLedger};
use crate::config::WorldConfig;
use crate::content::{generate_content, Corpora, MirrorBehavior, StatusStore, TweetStore};
use crate::graph::{build_friend_graph, realize_followees, MigrantFriendGraph};
use crate::instances::{generate_instances, Instance};
use crate::interest::{generate_interest, InterestReport};
use crate::migration::{run_migration, MastodonAccount};
use crate::switching::run_switching;
use crate::users::{generate_users, TwitterUser};
use flock_activitypub::{ActorUri, FediverseNetwork};
use flock_core::{
    DetRng, FlockError, InstanceId, MastodonAccountId, MastodonHandle, Result, SortedVecMap,
    StatusId, TweetId, TwitterUserId,
};
use std::collections::BTreeMap;

/// The fully-generated two-platform world.
#[derive(Debug)]
pub struct World {
    pub config: WorldConfig,
    pub instances: Vec<Instance>,
    pub users: Vec<TwitterUser>,
    /// Migrant index → index into `users`.
    pub migrant_users: Vec<usize>,
    /// Ground-truth Mastodon accounts, in migrant-index order.
    pub accounts: Vec<MastodonAccount>,
    /// Friend graph over migrant indices.
    pub friend_graph: MigrantFriendGraph,
    /// Realized Twitter followee lists, in migrant-index order.
    pub twitter_followees: Vec<Vec<TwitterUserId>>,
    pub tweets: TweetStore,
    pub statuses: StatusStore,
    /// Per-migrant mirroring behaviour.
    pub mirror_behavior: Vec<MirrorBehavior>,
    /// The ActivityPub substrate carrying Mastodon's social graph.
    pub fediverse: FediverseNetwork,
    pub ledger: ActivityLedger,
    pub interest: InterestReport,

    // ---- indexes ---------------------------------------------------------
    instance_by_domain: SortedVecMap<String, InstanceId>,
    user_by_username: SortedVecMap<String, TwitterUserId>,
    account_by_owner: SortedVecMap<TwitterUserId, MastodonAccountId>,
    account_by_handle: SortedVecMap<MastodonHandle, MastodonAccountId>,
    /// Per-user `(start, len)` into the tweet arena. Content generation
    /// emits each user's tweets as one contiguous id run (canonical
    /// chunk order), so the author index is two words per user instead
    /// of a map of id vectors.
    tweets_by_author: Vec<(u64, u32)>,
    /// Per-migrant `(start, len)` into the status arena; same contract.
    statuses_by_account: Vec<(u64, u32)>,
}

impl World {
    /// Generate a world from a validated config.
    pub fn generate(config: &WorldConfig) -> Result<World> {
        config.validate()?;
        let mut root = DetRng::new(config.seed);
        // Phase 1: instances + users + migrant graph.
        let instances = generate_instances(
            config.n_instances,
            config.instance_zipf_exponent,
            &mut root.fork("instances"),
        );
        let mut users = generate_users(config, &mut root.fork("users"));
        let migrant_users: Vec<usize> = users
            .iter()
            .enumerate()
            .filter(|(_, u)| u.is_migrant)
            .map(|(i, _)| i)
            .collect();
        // Friend-graph median stub count calibrated so that the mean
        // migrated-followee *fraction* lands near the configured 5.99%.
        // The modest sigma keeps the median friend count high enough that
        // being the *first* mover of one's ego network stays rare (§5.2's
        // 4.98%).
        let m_median =
            (config.followee_migrant_fraction * config.twitter_followee_median * 0.305).max(2.0);
        let friend_graph = build_friend_graph(
            migrant_users.len(),
            m_median,
            0.55,
            0.045,
            &mut root.fork("friend-graph"),
        );

        // Phase 2: migration decisions.
        let mut accounts = run_migration(
            &users,
            &migrant_users,
            &friend_graph,
            &instances,
            config,
            &mut root.fork("migration"),
        )?;

        // Phase 3: Twitter followee lists (migrants only, like the paper).
        let non_migrant_pool: Vec<TwitterUserId> = users
            .iter()
            .filter(|u| !u.is_migrant)
            .map(|u| u.id)
            .collect();
        let mut followee_rng = root.fork("followees");
        let twitter_followees: Vec<Vec<TwitterUserId>> = migrant_users
            .iter()
            .enumerate()
            .map(|(mi, &ui)| {
                let friend_ids: Vec<TwitterUserId> = friend_graph
                    .friends(mi)
                    .iter()
                    .map(|&f| users[migrant_users[f as usize]].id)
                    .collect();
                realize_followees(
                    users[ui].id,
                    &friend_ids,
                    users[ui].followee_count as usize,
                    &non_migrant_pool,
                    &mut followee_rng,
                )
            })
            .collect();

        // Phase 4: switching (before federation wiring so Move targets are
        // known), then the ActivityPub substrate.
        let switched = run_switching(
            &mut accounts,
            &users,
            &migrant_users,
            &friend_graph,
            &instances,
            config,
            &mut root.fork("switching"),
        )?;
        let fediverse = build_fediverse(
            &instances,
            &users,
            &migrant_users,
            &accounts,
            &friend_graph,
            &switched,
            config,
            &mut root.fork("fediverse"),
        )?;

        // Phase 5: content.
        let Corpora {
            tweets,
            statuses,
            mirror_behavior,
            never_posted: _,
        } = generate_content(
            &mut users,
            &migrant_users,
            &accounts,
            config,
            &mut root.fork("content"),
        );

        // Phase 6: ledger + interest.
        let mut instances = instances;
        let ledger = build_ledger(
            &instances,
            &accounts,
            &statuses,
            config,
            &mut root.fork("ledger"),
        );
        let interest = generate_interest(&mut root.fork("interest"));

        // Phase 7: crawl-time instance downtime. Mark instances down,
        // smallest-first with some randomness, until the share of migrants
        // on down instances reaches the configured rate. The flagship and
        // next few giants stay up (they did in reality).
        assign_downtime(
            &mut instances,
            &accounts,
            config,
            &mut root.fork("downtime"),
        );

        // ---- indexes ----------------------------------------------------
        let instance_by_domain = instances.iter().map(|i| (i.domain.clone(), i.id)).collect();
        let user_by_username = users.iter().map(|u| (u.username.clone(), u.id)).collect();
        let account_by_owner = accounts.iter().map(|a| (a.owner, a.id)).collect();
        // Collected (not inserted one by one): handles arrive in random
        // key order, and FromIterator's collect-then-sort is O(n log n)
        // where an insert loop is O(n²) element moves at paper scale.
        // Later pairs win on duplicate keys, same as the insert loop did.
        let account_by_handle: SortedVecMap<MastodonHandle, MastodonAccountId> = accounts
            .iter()
            .flat_map(|a| [(a.first_handle.clone(), a.id), (a.handle.clone(), a.id)])
            .collect();
        // Each user's tweets occupy one contiguous id run (the content
        // stream emits whole per-user chunks), so the author index is a
        // flat (start, len) table. debug_assert guards the contract.
        let mut tweets_by_author: Vec<(u64, u32)> = vec![(0, 0); users.len()];
        for i in 0..tweets.len() {
            let a = tweets.author(i).index();
            let (start, len) = &mut tweets_by_author[a];
            if *len == 0 {
                *start = i as u64;
            } else {
                debug_assert_eq!(*start + *len as u64, i as u64, "tweet run not contiguous");
            }
            *len += 1;
        }
        let mut statuses_by_account: Vec<(u64, u32)> = vec![(0, 0); accounts.len()];
        for i in 0..statuses.len() {
            let a = statuses.account(i).index();
            let (start, len) = &mut statuses_by_account[a];
            if *len == 0 {
                *start = i as u64;
            } else {
                debug_assert_eq!(*start + *len as u64, i as u64, "status run not contiguous");
            }
            *len += 1;
        }

        Ok(World {
            config: config.clone(),
            instances,
            users,
            migrant_users,
            accounts,
            friend_graph,
            twitter_followees,
            tweets,
            statuses,
            mirror_behavior,
            fediverse,
            ledger,
            interest,
            instance_by_domain,
            user_by_username,
            account_by_owner,
            account_by_handle,
            tweets_by_author,
            statuses_by_account,
        })
    }

    // ---- lookups ----------------------------------------------------------

    /// Instance by domain name.
    pub fn instance_by_domain(&self, domain: &str) -> Option<&Instance> {
        self.instance_by_domain
            .get(domain)
            .map(|id| &self.instances[id.index()])
    }

    /// Twitter user by id.
    pub fn user(&self, id: TwitterUserId) -> Option<&TwitterUser> {
        self.users.get(id.index())
    }

    /// Twitter user by username.
    pub fn user_by_username(&self, username: &str) -> Option<&TwitterUser> {
        self.user_by_username
            .get(username)
            .and_then(|id| self.users.get(id.index()))
    }

    /// Mastodon account by id.
    pub fn account(&self, id: MastodonAccountId) -> Option<&MastodonAccount> {
        self.accounts.get(id.index())
    }

    /// Mastodon account owned by a Twitter user (ground truth).
    pub fn account_of_user(&self, user: TwitterUserId) -> Option<&MastodonAccount> {
        self.account_by_owner
            .get(&user)
            .and_then(|id| self.accounts.get(id.index()))
    }

    /// Mastodon account by handle (first or current).
    pub fn account_by_handle(&self, handle: &MastodonHandle) -> Option<&MastodonAccount> {
        self.account_by_handle
            .get(handle)
            .and_then(|id| self.accounts.get(id.index()))
    }

    /// Tweets of one author (ids in chronological generation order —
    /// one contiguous run of the dense id space).
    pub fn tweets_of(&self, author: TwitterUserId) -> impl Iterator<Item = TweetId> {
        let (start, len) = self
            .tweets_by_author
            .get(author.index())
            .copied()
            .unwrap_or((0, 0));
        (start..start + len as u64).map(TweetId)
    }

    /// Statuses of one account (one contiguous run of the dense id space).
    pub fn statuses_of(&self, account: MastodonAccountId) -> impl Iterator<Item = StatusId> {
        let (start, len) = self
            .statuses_by_account
            .get(account.index())
            .copied()
            .unwrap_or((0, 0));
        (start..start + len as u64).map(StatusId)
    }

    /// The ActivityPub actor URI of an account (its *current* identity).
    pub fn actor_of(&self, account: &MastodonAccount) -> ActorUri {
        ActorUri::from_handle(&account.handle)
    }

    /// Mastodon followees of an account, resolved through the federation
    /// substrate.
    pub fn mastodon_following(&self, account: &MastodonAccount) -> &[ActorUri] {
        self.fediverse
            .following_of(&self.actor_of(account))
            .unwrap_or_default()
    }

    /// Mastodon followers of an account.
    pub fn mastodon_followers(&self, account: &MastodonAccount) -> &[ActorUri] {
        self.fediverse
            .followers_of(&self.actor_of(account))
            .unwrap_or_default()
    }

    /// Ground-truth migrant count.
    pub fn n_migrants(&self) -> usize {
        self.accounts.len()
    }

    /// The flagship instance domains (the paper's `mastodon.social` tier) —
    /// the natural bootstrap set for a continuous monitor, in rank order.
    pub fn flagship_domains(&self) -> Vec<String> {
        self.instances
            .iter()
            .filter(|i| i.flagship)
            .map(|i| i.domain.clone())
            .collect()
    }

    /// Domains eligible for chaos-plan outage injection: instances that
    /// are still reachable at crawl time, minus the flagship (the paper's
    /// `mastodon.social` stayed up throughout the migration, and several
    /// figures depend on it answering). Returned in rank order so a
    /// seeded sample over the list is deterministic.
    pub fn outage_candidates(&self) -> Vec<String> {
        self.instances
            .iter()
            .filter(|i| !i.down_at_crawl && !i.flagship)
            .map(|i| i.domain.clone())
            .collect()
    }

    /// One-paragraph world summary for logs and examples.
    pub fn summary(&self) -> String {
        let switchers = self.accounts.iter().filter(|a| a.switch.is_some()).count();
        let early = self
            .accounts
            .iter()
            .filter(|a| !a.created.is_post_takeover())
            .count();
        let down = self.instances.iter().filter(|i| i.down_at_crawl).count();
        format!(
            "{} searchable users, {} migrants ({} early adopters, {} switchers) across              {} instances ({} down at crawl); {} tweets, {} statuses",
            self.users.len(),
            self.n_migrants(),
            early,
            switchers,
            self.instances.len(),
            down,
            self.tweets.len(),
            self.statuses.len(),
        )
    }
}

/// Wire the Mastodon side of the world through the ActivityPub substrate.
#[allow(clippy::too_many_arguments)]
fn build_fediverse(
    instances: &[Instance],
    users: &[TwitterUser],
    migrant_users: &[usize],
    accounts: &[MastodonAccount],
    graph: &MigrantFriendGraph,
    switched: &[usize],
    config: &WorldConfig,
    rng: &mut DetRng,
) -> Result<FediverseNetwork> {
    // Unused, but dropping it would shift every later draw of the
    // `fediverse` stream, and with them the world's bytes.
    let _ = rng.next_u64();
    let mut net = FediverseNetwork::default();
    for inst in instances {
        net.register_instance(&inst.domain);
    }
    // Register every account at its *first* handle.
    let actors: Vec<ActorUri> = accounts
        .iter()
        .map(|a| net.register_actor(a.first_handle.username(), a.first_handle.instance()))
        .collect::<Result<_>>()?;

    // Group accounts by first instance for local-discovery follows.
    let mut by_instance: BTreeMap<InstanceId, Vec<usize>> = BTreeMap::new();
    for (mi, a) in accounts.iter().enumerate() {
        by_instance.entry(a.first_instance).or_default().push(mi);
    }
    // Visibility classes: "invisible" accounts (no avatar, no posts yet)
    // attract almost no follows — the §5.1 users with zero Mastodon
    // followers; "passive" accounts never follow anyone themselves.
    let invisible: Vec<bool> = (0..accounts.len()).map(|_| rng.chance(0.10)).collect();
    let passive: Vec<bool> = (0..accounts.len()).map(|_| rng.chance(0.04)).collect();

    // Popularity weights for remote discovery: well-followed Twitter
    // accounts attract disproportionate Mastodon follows, which skews the
    // follower distribution below the followee one (Fig. 7's 38 vs 48).
    let cumulative: Vec<f64> = {
        let mut acc = 0.0;
        migrant_users
            .iter()
            .enumerate()
            .map(|(mi, &ui)| {
                if !invisible[mi] {
                    // Twitter fame and Mastodon activeness both attract
                    // discovery follows.
                    acc +=
                        (users[ui].follower_count as f64).sqrt() * users[ui].engagement.powf(1.5);
                }
                acc
            })
            .collect()
    };
    let total_weight = cumulative.last().copied().unwrap_or(0.0);

    // Follows: re-follow migrated Twitter friends + discoveries (local
    // timeline + federated timeline). Everything scales with engagement —
    // the dedicated users who seek out tiny instances are precisely the
    // ones who build big Mastodon networks (the Fig. 6 paradox).
    for mi in 0..accounts.len() {
        if passive[mi] {
            continue;
        }
        let me = &actors[mi];
        let engagement = users[migrant_users[mi]].engagement;
        let refollow_p = (config.mastodon_refollow_rate * (0.55 + 0.45 * engagement)).min(0.98);
        for &f in graph.friends(mi) {
            // Friends find even invisible accounts (they knew the person),
            // but far less reliably.
            let p = if invisible[f as usize] {
                refollow_p * 0.03
            } else {
                refollow_p
            };
            if rng.chance(p) {
                net.follow(me, &actors[f as usize])
                    .map_err(|e| FlockError::DeliveryFailed(e.to_string()))?;
            }
        }
        let n_discover =
            rng.poisson(config.mastodon_local_follow_mean * engagement.powf(0.9)) as usize;
        let locals = &by_instance[&accounts[mi].first_instance];
        for _ in 0..n_discover {
            // Local timeline when there are neighbours, federated timeline
            // (popularity-weighted) otherwise or 40% of the time anyway.
            let target = if locals.len() > 1 && rng.chance(0.45) {
                locals[rng.below_usize(locals.len())]
            } else if total_weight > 0.0 {
                let x = rng.f64() * total_weight;
                cumulative
                    .partition_point(|c| *c < x)
                    .min(accounts.len() - 1)
            } else {
                continue;
            };
            if target != mi && !invisible[target] {
                net.follow(me, &actors[target])
                    .map_err(|e| FlockError::DeliveryFailed(e.to_string()))?;
            }
        }
    }
    net.run_to_quiescence();

    // Instance switches become real ActivityPub Moves.
    for &mi in switched {
        let a = &accounts[mi];
        let old = &actors[mi];
        let new = ActorUri::from_handle(&a.handle);
        net.register_actor(&new.name, &new.domain)
            .map_err(|e| FlockError::DeliveryFailed(format!("switch target: {e}")))?;
        net.set_also_known_as(&new, old)?;
        // The mover re-follows from the new account (Mastodon's follow
        // export/import step), then the Move transfers the followers.
        let following = net
            .following_of(old)
            .map(|s| s.to_vec())
            .unwrap_or_default();
        for f in following {
            net.undo_follow(old, &f)?;
            // A followee may itself be a moved-away identity by now; the
            // import simply skips dead follows, like Mastodon's does.
            match net.follow(&new, &f) {
                Ok(()) | Err(FlockError::Forbidden(_)) => {}
                Err(e) => return Err(e),
            }
        }
        net.move_account(old, &new)?;
        net.run_to_quiescence();
    }
    Ok(net)
}

/// Mark instances as down at crawl time until the share of migrants on
/// down instances reaches `instance_down_rate`. Small instances first (big
/// instances had the resources to stay up).
fn assign_downtime(
    instances: &mut [Instance],
    accounts: &[MastodonAccount],
    config: &WorldConfig,
    rng: &mut DetRng,
) {
    let mut user_count = vec![0usize; instances.len()];
    for a in accounts {
        user_count[a.instance.index()] += 1;
    }
    let total: usize = user_count.iter().sum();
    if total == 0 {
        return;
    }
    // Candidates: every instance but the 5 largest, in uniformly random
    // order — downtime hit servers of all sizes in Nov 2022, only the
    // giants had the resources to reliably stay up.
    let mut order: Vec<usize> = (0..instances.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(user_count[i]));
    let mut candidates: Vec<usize> = order[5.min(order.len())..].to_vec();
    rng.shuffle(&mut candidates);
    // Round to nearest: the old truncating cast quietly shrank the down
    // cohort (at small scales by enough to miss the configured rate).
    let target = (total as f64 * config.instance_down_rate).round() as usize;
    let mut covered = 0usize;
    for idx in candidates {
        if covered >= target {
            break;
        }
        instances[idx].down_at_crawl = true;
        covered += user_count[idx];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> World {
        World::generate(&WorldConfig::small().with_seed(77)).unwrap()
    }

    #[test]
    fn generates_consistent_world() {
        let w = world();
        assert_eq!(w.migrant_users.len(), w.accounts.len());
        assert_eq!(w.twitter_followees.len(), w.accounts.len());
        assert_eq!(w.friend_graph.len(), w.accounts.len());
        assert!(w.n_migrants() > 100, "{} migrants", w.n_migrants());
        assert!(!w.tweets.is_empty() && !w.statuses.is_empty());
    }

    #[test]
    fn indexes_are_consistent() {
        let w = world();
        for a in &w.accounts {
            assert_eq!(w.account_of_user(a.owner).unwrap().id, a.id);
            assert_eq!(w.account_by_handle(&a.first_handle).unwrap().id, a.id);
            assert_eq!(w.account_by_handle(&a.handle).unwrap().id, a.id);
            let inst = &w.instances[a.instance.index()];
            assert_eq!(a.handle.instance(), inst.domain);
        }
        for (i, u) in w.users.iter().enumerate() {
            assert_eq!(u.id.index(), i);
            assert_eq!(w.user_by_username(&u.username).unwrap().id, u.id);
        }
    }

    #[test]
    fn every_account_is_a_registered_actor() {
        let w = world();
        for a in &w.accounts {
            assert!(
                w.fediverse.actor(&w.actor_of(a)).is_some(),
                "unregistered actor {}",
                a.handle
            );
        }
    }

    #[test]
    fn mastodon_follow_graph_exists_and_is_nontrivial() {
        let w = world();
        let mut with_following = 0;
        let mut with_followers = 0;
        for a in &w.accounts {
            if !w.mastodon_following(a).is_empty() {
                with_following += 1;
            }
            if !w.mastodon_followers(a).is_empty() {
                with_followers += 1;
            }
        }
        let n = w.accounts.len();
        assert!(
            with_following > n * 8 / 10,
            "{with_following}/{n} follow someone"
        );
        assert!(
            with_followers > n * 7 / 10,
            "{with_followers}/{n} have followers"
        );
    }

    #[test]
    fn switched_accounts_moved_on_the_network() {
        let w = world();
        let switchers: Vec<&MastodonAccount> =
            w.accounts.iter().filter(|a| a.switch.is_some()).collect();
        assert!(!switchers.is_empty());
        for a in switchers {
            let old = ActorUri::from_handle(&a.first_handle);
            let old_actor = w.fediverse.actor(&old).expect("old actor exists");
            assert!(old_actor.has_moved(), "{} did not move", a.first_handle);
            assert!(
                w.fediverse.followers_of(&old).unwrap().is_empty(),
                "old account retains followers"
            );
            // The new identity exists and carries the social graph.
            let new = ActorUri::from_handle(&a.handle);
            assert!(w.fediverse.actor(&new).is_some());
        }
    }

    #[test]
    fn downtime_share_close_to_config() {
        let w = world();
        let down_users = w
            .accounts
            .iter()
            .filter(|a| w.instances[a.instance.index()].down_at_crawl)
            .count() as f64
            / w.accounts.len() as f64;
        assert!(
            (down_users - w.config.instance_down_rate).abs() < 0.05,
            "down share {down_users}"
        );
        // The flagship stayed up.
        assert!(!w.instances[0].down_at_crawl);
    }

    #[test]
    fn realized_rates_track_configured() {
        // Pin the rate × population computations at small() scale: the old
        // truncating casts systematically undershot the configured rates,
        // which only shows up when realized counts are compared to the
        // configuration rather than to other realized counts.
        let w = world();
        let n = w.users.len() as f64;

        let migrant_share = w.n_migrants() as f64 / n;
        assert!(
            (migrant_share - w.config.migrant_fraction).abs() < 0.02,
            "migrant share {migrant_share} vs {}",
            w.config.migrant_fraction
        );

        let switchers = w.accounts.iter().filter(|a| a.switch.is_some()).count();
        let switch_target = (w.accounts.len() as f64 * w.config.switch_rate).round() as usize;
        assert!(
            switchers.abs_diff(switch_target) <= switch_target / 3 + 2,
            "{switchers} switchers vs target {switch_target}"
        );

        let down_users = w
            .accounts
            .iter()
            .filter(|a| w.instances[a.instance.index()].down_at_crawl)
            .count() as f64;
        // The down cohort must reach the *rounded* target, never stop a
        // truncated-cast short of it (instance granularity can overshoot).
        let down_target = (w.accounts.len() as f64 * w.config.instance_down_rate).round();
        assert!(
            down_users >= down_target,
            "down users {down_users} below rounded target {down_target}"
        );
    }

    #[test]
    fn determinism_same_seed_same_world() {
        let a = World::generate(&WorldConfig::small().with_seed(5)).unwrap();
        let b = World::generate(&WorldConfig::small().with_seed(5)).unwrap();
        assert_eq!(a.n_migrants(), b.n_migrants());
        assert_eq!(a.tweets.len(), b.tweets.len());
        assert_eq!(a.statuses.len(), b.statuses.len());
        assert_eq!(
            a.accounts
                .iter()
                .map(|x| x.handle.to_string())
                .collect::<Vec<_>>(),
            b.accounts
                .iter()
                .map(|x| x.handle.to_string())
                .collect::<Vec<_>>()
        );
        assert_eq!(
            a.tweets
                .iter()
                .map(|t| t.text.to_string())
                .take(500)
                .collect::<Vec<_>>(),
            b.tweets
                .iter()
                .map(|t| t.text.to_string())
                .take(500)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn different_seed_different_world() {
        let a = World::generate(&WorldConfig::small().with_seed(5)).unwrap();
        let b = World::generate(&WorldConfig::small().with_seed(6)).unwrap();
        assert_ne!(
            a.tweets
                .iter()
                .map(|t| t.text.to_string())
                .take(200)
                .collect::<Vec<_>>(),
            b.tweets
                .iter()
                .map(|t| t.text.to_string())
                .take(200)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn summary_mentions_the_scale() {
        let w = world();
        let s = w.summary();
        assert!(s.contains(&w.n_migrants().to_string()));
        assert!(s.contains(&w.instances.len().to_string()));
    }

    #[test]
    fn invalid_config_rejected() {
        let mut c = WorldConfig::small();
        c.migrant_fraction = 2.0;
        assert!(World::generate(&c).is_err());
    }
}
