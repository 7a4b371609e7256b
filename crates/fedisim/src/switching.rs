//! Instance switching (§5.3).
//!
//! 4.09% of migrants move their account from the instance they first joined
//! (almost always after the takeover). The paper finds the pattern is
//! (a) flagship/general-purpose → topic-specific, and (b) strongly driven
//! by the social network: on average 46.98% of a switcher's migrated
//! followees are on the *second* instance (vs 11.4% on the first), and
//! 77.42% of them arrived there before the switcher.
//!
//! The model therefore prefers switchers whose friends cluster on some
//! other instance, moves them there, and otherwise falls back to the
//! topical instance of the user's niche.

use crate::config::{WorldConfig, SWITCH_POST_TAKEOVER_RATE};
use crate::graph::MigrantFriendGraph;
use crate::instances::Instance;
use crate::migration::{MastodonAccount, SwitchRecord};
use crate::users::TwitterUser;
use flock_core::{Day, DetRng, InstanceId, MastodonHandle, Result};
use std::collections::BTreeMap;

/// The friends' modal instance and its share among migrated friends.
fn modal_friend_instance(
    mi: usize,
    graph: &MigrantFriendGraph,
    accounts: &[MastodonAccount],
) -> Option<(InstanceId, f64)> {
    let friends = graph.friends(mi);
    if friends.is_empty() {
        return None;
    }
    let mut counts: BTreeMap<InstanceId, usize> = BTreeMap::new();
    for &f in friends {
        *counts
            .entry(accounts[f as usize].first_instance)
            .or_insert(0) += 1;
    }
    let (inst, c) = counts
        .into_iter()
        .max_by_key(|(id, c)| (*c, std::cmp::Reverse(id.raw())))?;
    Some((inst, c as f64 / friends.len() as f64))
}

/// Pick a switch day for an account: mostly post-takeover (the paper's
/// 97.22%), after the user has had time to gain experience on the first
/// instance, and late enough that most of their friends are already on the
/// destination.
fn switch_day(account: &MastodonAccount, rng: &mut DetRng) -> Day {
    let pre_takeover_possible = account.created.offset() < 24;
    if pre_takeover_possible && !rng.chance(SWITCH_POST_TAKEOVER_RATE) {
        // Rare pre-takeover switch by an early adopter.
        let lo = account.created.offset() + 1;
        return Day(rng.range_i64(i64::from(lo), 25) as i32);
    }
    // Post-takeover: between a few days after joining and the end of the
    // window, biased late (users switch "once they are more experienced").
    let lo = (account.announced.offset() + 3).max(Day::TAKEOVER.offset());
    let hi = 59;
    if lo >= hi {
        return Day(hi);
    }
    // Min of two uniforms: switches skew earlier, so that a realistic
    // share of the destination community arrives after the switcher.
    let a = rng.range_i64(i64::from(lo), i64::from(hi)) as i32;
    let b = rng.range_i64(i64::from(lo), i64::from(hi)) as i32;
    Day(a.min(b))
}

/// Run the switching model over the accounts, in place. Returns the migrant
/// indices that switched.
pub fn run_switching(
    accounts: &mut [MastodonAccount],
    users: &[TwitterUser],
    migrant_users: &[usize],
    graph: &MigrantFriendGraph,
    instances: &[Instance],
    config: &WorldConfig,
    rng: &mut DetRng,
) -> Result<Vec<usize>> {
    let n = accounts.len();
    let target = ((n as f64) * config.switch_rate).round() as usize;
    if target == 0 {
        return Ok(Vec::new());
    }

    // Candidates: users who joined a big general-purpose instance (the
    // paper's switches flow from flagship/general instances to smaller,
    // topic-specific ones) whose friends cluster somewhere else. Drawn at
    // random (not extremity-ranked) so the switcher population mixes strong
    // and moderate pulls, like the Fig. 10 CDFs.
    let general_cutoff = InstanceId::from_index(instances.len().min(12));
    let mut scored: Vec<(usize, InstanceId)> = (0..n)
        .filter_map(|mi| {
            let (inst, share) = modal_friend_instance(mi, graph, accounts)?;
            (accounts[mi].first_instance < general_cutoff
                && inst != accounts[mi].first_instance
                && share >= 0.15)
                .then_some((mi, inst))
        })
        .collect();
    rng.shuffle(&mut scored);

    let mut switchers: Vec<(usize, InstanceId)> = scored.into_iter().take(target).collect();

    // Fill the remainder with topic-driven switches: users on big general
    // instances moving to their niche's server.
    if switchers.len() < target {
        let taken: std::collections::BTreeSet<usize> =
            switchers.iter().map(|&(mi, _)| mi).collect();
        for mi in 0..n {
            if switchers.len() >= target {
                break;
            }
            if taken.contains(&mi) || accounts[mi].first_instance >= general_cutoff {
                continue;
            }
            let user = &users[migrant_users[mi]];
            let dest = if user.primary_topic.has_topical_instance() {
                instances
                    .iter()
                    .find(|i| i.topic == Some(user.primary_topic))
                    .map(|i| i.id)
            } else {
                // Generic restlessness: hop to a mid-popularity instance.
                let hi = instances.len().min(60) as i64;
                Some(instances[rng.range_i64(3, hi - 1) as usize].id)
            };
            if let Some(dest) = dest {
                if dest != accounts[mi].first_instance {
                    switchers.push((mi, dest));
                }
            }
        }
    }

    let mut switched = Vec::with_capacity(switchers.len());
    for (mi, dest) in switchers {
        let day = switch_day(&accounts[mi], rng);
        let new_handle = MastodonHandle::new(
            accounts[mi].first_handle.username(),
            &instances[dest.index()].domain,
        )?;
        let from = accounts[mi].first_instance;
        accounts[mi].switch = Some(SwitchRecord {
            from,
            to: dest,
            day,
            tod_secs: rng.below(86_400) as u32,
        });
        accounts[mi].instance = dest;
        accounts[mi].handle = new_handle;
        switched.push(mi);
    }
    Ok(switched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::INSTANCE_ZIPF_EXPONENT;
    use crate::graph::build_friend_graph;
    use crate::instances::generate_instances;
    use crate::migration::run_migration;
    use crate::users::generate_users;

    fn build() -> (
        WorldConfig,
        Vec<TwitterUser>,
        Vec<usize>,
        MigrantFriendGraph,
        Vec<Instance>,
        Vec<MastodonAccount>,
    ) {
        let config = WorldConfig::medium().with_seed(31);
        let mut rng = DetRng::new(config.seed);
        let users = generate_users(&config, &mut rng.fork("users"));
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
        (config, users, migrants, graph, instances, accounts)
    }

    #[test]
    fn switch_rate_matches_config() {
        let (config, users, migrants, graph, instances, mut accounts) = build();
        let mut rng = DetRng::new(1);
        let switched = run_switching(
            &mut accounts,
            &users,
            &migrants,
            &graph,
            &instances,
            &config,
            &mut rng,
        )
        .unwrap();
        let rate = switched.len() as f64 / accounts.len() as f64;
        assert!(
            (rate - config.switch_rate).abs() < 0.01,
            "switch rate {rate} vs {}",
            config.switch_rate
        );
    }

    #[test]
    fn switches_change_instance_and_update_handle() {
        let (config, users, migrants, graph, instances, mut accounts) = build();
        let mut rng = DetRng::new(2);
        let switched = run_switching(
            &mut accounts,
            &users,
            &migrants,
            &graph,
            &instances,
            &config,
            &mut rng,
        )
        .unwrap();
        assert!(!switched.is_empty());
        for &mi in &switched {
            let a = &accounts[mi];
            let s = a.switch.as_ref().unwrap();
            assert_ne!(s.from, s.to);
            assert_eq!(a.instance, s.to);
            assert_eq!(a.first_instance, s.from);
            assert_eq!(a.handle.instance(), instances[s.to.index()].domain);
            assert_eq!(a.handle.username(), a.first_handle.username());
            assert!(s.day > a.created, "switch before account existed");
            assert!(s.day.offset() <= 59);
        }
    }

    #[test]
    fn switches_are_mostly_post_takeover() {
        let (config, users, migrants, graph, instances, mut accounts) = build();
        let mut rng = DetRng::new(3);
        let switched = run_switching(
            &mut accounts,
            &users,
            &migrants,
            &graph,
            &instances,
            &config,
            &mut rng,
        )
        .unwrap();
        let post = switched
            .iter()
            .filter(|&&mi| accounts[mi].switch.as_ref().unwrap().day.is_post_takeover())
            .count() as f64
            / switched.len() as f64;
        assert!(post > 0.9, "post-takeover share {post}");
    }

    #[test]
    fn switchers_tend_toward_friend_clusters() {
        let (config, users, migrants, graph, instances, mut accounts) = build();
        let mut rng = DetRng::new(4);
        let before = accounts.clone();
        let switched = run_switching(
            &mut accounts,
            &users,
            &migrants,
            &graph,
            &instances,
            &config,
            &mut rng,
        )
        .unwrap();
        // For switchers chosen from the friend-cluster pool, the share of
        // friends at the destination must exceed the share at the origin.
        let mut better = 0;
        let mut total = 0;
        for &mi in &switched {
            let friends = graph.friends(mi);
            if friends.is_empty() {
                continue;
            }
            let s = accounts[mi].switch.as_ref().unwrap();
            let at = |inst: InstanceId| {
                friends
                    .iter()
                    .filter(|&&f| before[f as usize].first_instance == inst)
                    .count() as f64
                    / friends.len() as f64
            };
            total += 1;
            if at(s.to) > at(s.from) {
                better += 1;
            }
        }
        assert!(total > 0);
        assert!(
            better as f64 / total as f64 > 0.5,
            "only {better}/{total} switches moved toward friends"
        );
    }

    #[test]
    fn no_switches_when_rate_zero() {
        let (mut config, users, migrants, graph, instances, mut accounts) = build();
        config.switch_rate = 0.0;
        let mut rng = DetRng::new(5);
        let switched = run_switching(
            &mut accounts,
            &users,
            &migrants,
            &graph,
            &instances,
            &config,
            &mut rng,
        )
        .unwrap();
        assert!(switched.is_empty());
        assert!(accounts.iter().all(|a| a.switch.is_none()));
    }
}
