//! Instance nodes and the federated network.
//!
//! Each Mastodon instance owns its local actors. An instance never edits a
//! remote actor: every cross-instance effect is an activity addressed to
//! the remote instance's inbox, like an inbox POST between real servers.
//! Activities wait in one queue and are processed in send order; the ones
//! a step sends in turn wait for the next step.
//!
//! The semantics implemented here are the ones the paper's mechanics rely
//! on:
//!
//! * **Remote follow** (§2): the follower's instance sends `Follow`; the
//!   followee's instance records the follower and replies `Accept`, or
//!   `Reject` if the followee has moved away. The follower's instance
//!   records the relationship only if its follow intent still stands when
//!   the `Accept` arrives; otherwise it answers `Undo(Follow)` so the
//!   followee's instance drops its half of the edge.
//! * **Account move** (§5.3): the target account must prove ownership via
//!   `alsoKnownAs`; the `Move` is then sent to each follower instance,
//!   which unfollows the old account and re-follows the new one on behalf
//!   of its local users.

use crate::actor::{Actor, ActorUri};
use flock_core::{FlockError, Result};
use std::collections::{BTreeMap, BTreeSet};

/// The activities the two mechanics exchange. Every one but `Move` is
/// addressed to the instance of its `object`.
#[derive(Debug)]
enum Activity {
    /// `actor` asks to follow `object`.
    Follow { actor: ActorUri, object: ActorUri },
    /// `actor`, the followee, accepts `object`'s follow.
    Accept { actor: ActorUri, object: ActorUri },
    /// `actor`, the followee, has moved away and refuses `object`'s follow.
    Reject { actor: ActorUri, object: ActorUri },
    /// `actor` moved to `target`; sent to each follower instance.
    Move { actor: ActorUri, target: ActorUri },
    /// `actor` retracts its follow of `object`.
    UndoFollow { actor: ActorUri, object: ActorUri },
}

/// The whole federated network: instances, their actors, and the
/// activities in flight between them.
#[derive(Debug, Default)]
pub struct FediverseNetwork {
    /// Instance domain → local username → actor.
    nodes: BTreeMap<String, BTreeMap<String, Actor>>,
    /// Sent, unprocessed activities with the inbox domain each is
    /// addressed to, in send order.
    queue: Vec<(String, Activity)>,
}

impl FediverseNetwork {
    /// Register an instance (idempotent).
    pub fn register_instance(&mut self, domain: &str) {
        self.nodes.entry(domain.to_ascii_lowercase()).or_default();
    }

    /// Register a local actor, creating its instance if needed.
    pub fn register_actor(&mut self, name: &str, domain: &str) -> Result<ActorUri> {
        let uri = ActorUri::new(name, domain);
        let node = self.nodes.entry(uri.domain.clone()).or_default();
        if node.contains_key(&uri.name) {
            return Err(FlockError::InvalidConfig(format!(
                "actor {uri} already registered"
            )));
        }
        node.insert(uri.name.clone(), Actor::new(uri.clone()));
        Ok(uri)
    }

    /// Look up an actor.
    pub fn actor(&self, uri: &ActorUri) -> Option<&Actor> {
        self.nodes.get(&uri.domain)?.get(&uri.name)
    }

    fn actor_mut(&mut self, uri: &ActorUri) -> Option<&mut Actor> {
        self.nodes.get_mut(&uri.domain)?.get_mut(&uri.name)
    }

    /// [`Self::actor_mut`], with a missing actor as [`FlockError::NotFound`].
    fn known_actor_mut(&mut self, uri: &ActorUri) -> Result<&mut Actor> {
        self.actor_mut(uri)
            .ok_or_else(|| FlockError::NotFound(uri.to_string()))
    }

    /// `Ok` if `uri` is registered and has not moved away.
    fn check_live(&self, uri: &ActorUri) -> Result<()> {
        match self.actor(uri) {
            None => Err(FlockError::NotFound(uri.to_string())),
            Some(a) if a.has_moved() => Err(FlockError::Forbidden(format!("{uri} has moved away"))),
            Some(_) => Ok(()),
        }
    }

    /// Followers collection of an actor.
    pub fn followers_of(&self, uri: &ActorUri) -> Option<&[ActorUri]> {
        self.actor(uri).map(|a| a.followers.as_slice())
    }

    /// Following collection of an actor.
    pub fn following_of(&self, uri: &ActorUri) -> Option<&[ActorUri]> {
        self.actor(uri).map(|a| a.following.as_slice())
    }

    /// The federation adjacency each instance would expose on its
    /// `/api/v1/instance/peers` endpoint: for every registered domain, the
    /// other domains it shares at least one follow edge with, in either
    /// direction. Edges are symmetric (if `a` lists `b`, `b` lists `a`),
    /// peer lists are sorted and deduplicated, and iteration is over
    /// `BTreeMap`s throughout, so the result is a pure function of the
    /// network's social graph.
    pub fn federation_peers(&self) -> BTreeMap<String, Vec<String>> {
        let mut peers: BTreeMap<String, BTreeSet<String>> = self
            .nodes
            .keys()
            .map(|d| (d.clone(), BTreeSet::new()))
            .collect();
        for (domain, actors) in &self.nodes {
            for actor in actors.values() {
                for other in actor.followers.iter().chain(actor.following.iter()) {
                    if other.domain != *domain {
                        if let Some(set) = peers.get_mut(domain) {
                            set.insert(other.domain.clone());
                        }
                        peers
                            .entry(other.domain.clone())
                            .or_default()
                            .insert(domain.clone());
                    }
                }
            }
        }
        peers
            .into_iter()
            .map(|(d, set)| (d, set.into_iter().collect()))
            .collect()
    }

    /// `actor` follows `object`. Local follows complete synchronously;
    /// remote follows complete when the `Accept` comes back.
    pub fn follow(&mut self, actor: &ActorUri, object: &ActorUri) -> Result<()> {
        self.check_live(actor)?;
        if actor.domain == object.domain {
            // Local: both sides in one instance, applied immediately.
            self.check_live(object)?;
            self.known_actor_mut(object)?.add_follower(actor.clone());
            self.known_actor_mut(actor)?.add_following(object.clone());
            return Ok(());
        }
        // Record the outbound intent; the relationship is established only
        // when the Accept comes back and the intent still stands.
        let a = self.known_actor_mut(actor)?;
        if !a.pending_follows.contains(object) {
            a.pending_follows.push(object.clone());
        }
        let follow = Activity::Follow {
            actor: actor.clone(),
            object: object.clone(),
        };
        self.send(&object.domain, follow);
        Ok(())
    }

    /// `actor` unfollows `object`.
    pub fn undo_follow(&mut self, actor: &ActorUri, object: &ActorUri) -> Result<()> {
        let a = self.known_actor_mut(actor)?;
        a.remove_following(object);
        a.pending_follows.retain(|p| p != object);
        if actor.domain == object.domain {
            if let Some(o) = self.actor_mut(object) {
                o.remove_follower(actor);
            }
            return Ok(());
        }
        let undo = Activity::UndoFollow {
            actor: actor.clone(),
            object: object.clone(),
        };
        self.send(&object.domain, undo);
        Ok(())
    }

    /// Declare that `target` is also known as `old` — the ownership proof
    /// Mastodon requires before honouring a `Move`.
    pub fn set_also_known_as(&mut self, target: &ActorUri, old: &ActorUri) -> Result<()> {
        let t = self.known_actor_mut(target)?;
        if !t.also_known_as.contains(old) {
            t.also_known_as.push(old.clone());
        }
        Ok(())
    }

    /// Move `old` to `new`: requires `new.alsoKnownAs` to contain `old`.
    /// Local followers are rewritten synchronously; remote follower
    /// instances receive a `Move` and re-follow `new` on behalf of their
    /// users.
    pub fn move_account(&mut self, old: &ActorUri, new: &ActorUri) -> Result<()> {
        let proof_ok = self
            .actor(new)
            .ok_or_else(|| FlockError::NotFound(new.to_string()))?
            .also_known_as
            .contains(old);
        if !proof_ok {
            return Err(FlockError::InvalidConfig(format!(
                "{new} does not list {old} in alsoKnownAs; refusing Move"
            )));
        }
        let followers = {
            let o = self.known_actor_mut(old)?;
            if o.has_moved() {
                return Err(FlockError::InvalidConfig(format!("{old} already moved")));
            }
            o.moved_to = Some(new.clone());
            std::mem::take(&mut o.followers)
        };
        // Handle followers on `old`'s own instance directly; send one Move
        // to each remote follower instance, in first-follower order.
        let mut remote_domains: Vec<String> = Vec::new();
        for f in &followers {
            if f.domain == old.domain {
                self.rewrite_follow(f, old, new)?;
            } else if !remote_domains.contains(&f.domain) {
                remote_domains.push(f.domain.clone());
            }
        }
        for d in remote_domains {
            let notice = Activity::Move {
                actor: old.clone(),
                target: new.clone(),
            };
            self.send(&d, notice);
        }
        Ok(())
    }

    /// Rewrite one follower's relationship from `old` to `new` (used on the
    /// follower's own instance).
    fn rewrite_follow(
        &mut self,
        follower: &ActorUri,
        old: &ActorUri,
        new: &ActorUri,
    ) -> Result<()> {
        if let Some(f) = self.actor_mut(follower) {
            f.remove_following(old);
        }
        // Following the new account goes through the normal follow path
        // (synchronous if local, an activity if remote).
        self.follow(follower, new)
    }

    /// Process every activity in flight, in send order. Activities sent
    /// while processing wait for the next step.
    fn step(&mut self) {
        for (domain, act) in std::mem::take(&mut self.queue) {
            // An activity for an unregistered instance has no inbox to
            // land in, and is dropped.
            if self.nodes.contains_key(&domain) {
                self.process_inbound(&domain, act);
            }
        }
    }

    /// Step until nothing is in flight; returns the number of steps taken.
    /// Each step answers the previous one's activities with activities
    /// later in the chain Move → Follow → Accept/Reject → Undo(Follow), so
    /// this takes at most four steps.
    pub fn run_to_quiescence(&mut self) -> usize {
        let mut steps = 0;
        while !self.queue.is_empty() {
            self.step();
            steps += 1;
        }
        steps
    }

    fn send(&mut self, domain: &str, act: Activity) {
        self.queue.push((domain.to_string(), act));
    }

    /// Inbox processing: the instance `domain` receives `act`.
    fn process_inbound(&mut self, domain: &str, act: Activity) {
        match act {
            Activity::Follow { actor, object } => {
                let accepted = match self.actor_mut(&object) {
                    Some(target) if !target.has_moved() => {
                        target.add_follower(actor.clone());
                        true
                    }
                    _ => false,
                };
                let to = actor.domain.clone();
                let reply = if accepted {
                    Activity::Accept {
                        actor: object,
                        object: actor,
                    }
                } else {
                    Activity::Reject {
                        actor: object,
                        object: actor,
                    }
                };
                self.send(&to, reply);
            }
            Activity::Accept { actor, object } => {
                // `object` (local) follows `actor` now if the intent still
                // stands, or already does (a re-follow raced an earlier
                // handshake). An Accept for a follow undone mid-handshake
                // is answered with an Undo, so the remote side drops the
                // half-edge.
                let wanted = self.actor_mut(&object).is_some_and(|f| {
                    if f.pending_follows.contains(&actor) {
                        f.pending_follows.retain(|p| p != &actor);
                        f.add_following(actor.clone());
                        true
                    } else {
                        f.following.contains(&actor)
                    }
                });
                if !wanted {
                    let to = actor.domain.clone();
                    let undo = Activity::UndoFollow {
                        actor: object,
                        object: actor,
                    };
                    self.send(&to, undo);
                }
            }
            Activity::Reject { actor, object } => {
                if let Some(f) = self.actor_mut(&object) {
                    f.remove_following(&actor);
                    f.pending_follows.retain(|p| p != &actor);
                }
            }
            Activity::Move {
                actor: old,
                target: new,
            } => {
                // Rewrite every local follower of `old` to follow `new`.
                let local_followers: Vec<ActorUri> = self
                    .nodes
                    .get(domain)
                    .map(|actors| {
                        actors
                            .values()
                            .filter(|a| a.following.contains(&old))
                            .map(|a| a.id.clone())
                            .collect()
                    })
                    .unwrap_or_default();
                for f in local_followers {
                    // An error (say, a follower that has moved away itself)
                    // skips that follower only.
                    let _ = self.rewrite_follow(&f, &old, &new);
                }
            }
            Activity::UndoFollow { actor, object } => {
                if let Some(t) = self.actor_mut(&object) {
                    t.remove_follower(&actor);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn federation_peers_are_symmetric_sorted_and_cover_islands() {
        let mut n = FediverseNetwork::default();
        let a = n.register_actor("a", "x.example").unwrap();
        let b = n.register_actor("b", "y.example").unwrap();
        let c = n.register_actor("c", "z.example").unwrap();
        n.register_instance("island.example");
        n.follow(&a, &b).unwrap();
        n.follow(&a, &c).unwrap();
        n.run_to_quiescence();
        let peers = n.federation_peers();
        assert_eq!(peers["x.example"], vec!["y.example", "z.example"]);
        assert_eq!(peers["y.example"], vec!["x.example"]);
        assert_eq!(peers["z.example"], vec!["x.example"]);
        // A registered instance with no cross-instance edges still has an
        // entry (the peers endpoint answers with an empty list).
        assert!(peers["island.example"].is_empty());
    }

    #[test]
    fn register_and_look_up() {
        let mut n = FediverseNetwork::default();
        let a = n.register_actor("alice", "one.example").unwrap();
        assert_eq!(
            n.actor(&ActorUri::new("ALICE", "ONE.EXAMPLE")).unwrap().id,
            a
        );
        assert!(n.actor(&ActorUri::new("nobody", "one.example")).is_none());
        assert!(n.register_actor("alice", "one.example").is_err());
    }

    #[test]
    fn local_follow_is_synchronous() {
        let mut n = FediverseNetwork::default();
        let a = n.register_actor("a", "x.example").unwrap();
        let b = n.register_actor("b", "x.example").unwrap();
        n.follow(&a, &b).unwrap();
        assert!(n.followers_of(&b).unwrap().contains(&a));
        assert!(n.following_of(&a).unwrap().contains(&b));
    }

    #[test]
    fn remote_follow_completes_after_round_trip() {
        let mut n = FediverseNetwork::default();
        let a = n.register_actor("a", "x.example").unwrap();
        let b = n.register_actor("b", "y.example").unwrap();
        n.follow(&a, &b).unwrap();
        // Not yet: Follow in flight.
        assert!(n.following_of(&a).unwrap().is_empty());
        n.step(); // Follow arrives, Accept sent
        assert!(n.followers_of(&b).unwrap().contains(&a));
        assert!(n.following_of(&a).unwrap().is_empty());
        n.step(); // Accept arrives
        assert!(n.following_of(&a).unwrap().contains(&b));
        assert!(n.actor(&a).unwrap().pending_follows.is_empty());
        assert_eq!(n.run_to_quiescence(), 0, "nothing left in flight");
    }

    #[test]
    fn follow_unknown_actor_errors() {
        let mut n = FediverseNetwork::default();
        let a = n.register_actor("a", "x.example").unwrap();
        let ghost = ActorUri::new("ghost", "x.example");
        assert!(n.follow(&a, &ghost).is_err());
        assert!(n.follow(&ghost, &a).is_err());
    }

    #[test]
    fn move_requires_also_known_as_proof() {
        let mut n = FediverseNetwork::default();
        let old = n.register_actor("u", "big.example").unwrap();
        let new = n.register_actor("u", "niche.example").unwrap();
        assert!(matches!(
            n.move_account(&old, &new),
            Err(FlockError::InvalidConfig(_))
        ));
        n.set_also_known_as(&new, &old).unwrap();
        n.move_account(&old, &new).unwrap();
        assert_eq!(n.actor(&old).unwrap().moved_to, Some(new));
    }

    #[test]
    fn move_transfers_remote_followers() {
        let mut n = FediverseNetwork::default();
        let old = n.register_actor("u", "big.example").unwrap();
        let new = n.register_actor("u", "niche.example").unwrap();
        let f1 = n.register_actor("f1", "r1.example").unwrap();
        let f2 = n.register_actor("f2", "r2.example").unwrap();
        let local = n.register_actor("pal", "big.example").unwrap();
        for f in [&f1, &f2, &local] {
            n.follow(f, &old).unwrap();
        }
        n.run_to_quiescence();
        assert_eq!(n.followers_of(&old).unwrap().len(), 3);

        n.set_also_known_as(&new, &old).unwrap();
        n.move_account(&old, &new).unwrap();
        n.run_to_quiescence();

        let new_followers = n.followers_of(&new).unwrap();
        assert!(new_followers.contains(&f1), "remote follower 1 moved");
        assert!(new_followers.contains(&f2), "remote follower 2 moved");
        assert!(new_followers.contains(&local), "local follower moved");
        assert!(n.followers_of(&old).unwrap().is_empty());
        // Followers' following lists point at the new account.
        assert!(n.following_of(&f1).unwrap().contains(&new));
        assert!(!n.following_of(&f1).unwrap().contains(&old));
    }

    #[test]
    fn follow_of_moved_account_is_rejected() {
        let mut n = FediverseNetwork::default();
        let old = n.register_actor("u", "big.example").unwrap();
        let new = n.register_actor("u2", "niche.example").unwrap();
        n.set_also_known_as(&new, &old).unwrap();
        n.move_account(&old, &new).unwrap();
        n.run_to_quiescence();

        let late = n.register_actor("late", "r9.example").unwrap();
        n.follow(&late, &old).unwrap();
        n.run_to_quiescence();
        assert!(n.followers_of(&old).unwrap().is_empty());
        assert!(n.following_of(&late).unwrap().is_empty());
        // The Reject withdrew the follow intent.
        assert!(n.actor(&late).unwrap().pending_follows.is_empty());
    }

    #[test]
    fn double_move_is_rejected() {
        let mut n = FediverseNetwork::default();
        let a = n.register_actor("u", "one.example").unwrap();
        let b = n.register_actor("u", "two.example").unwrap();
        let c = n.register_actor("u", "three.example").unwrap();
        n.set_also_known_as(&b, &a).unwrap();
        n.move_account(&a, &b).unwrap();
        n.set_also_known_as(&c, &a).unwrap();
        assert!(n.move_account(&a, &c).is_err());
    }

    #[test]
    fn undo_follow_remote() {
        let mut n = FediverseNetwork::default();
        let a = n.register_actor("a", "x.example").unwrap();
        let b = n.register_actor("b", "y.example").unwrap();
        n.follow(&a, &b).unwrap();
        n.run_to_quiescence();
        assert!(n.followers_of(&b).unwrap().contains(&a));
        n.undo_follow(&a, &b).unwrap();
        n.run_to_quiescence();
        assert!(n.followers_of(&b).unwrap().is_empty());
        assert!(n.following_of(&a).unwrap().is_empty());
    }

    /// Quiescence after a Move to followers on several remote instances,
    /// and after a follow undone mid-handshake, within the four steps of
    /// the chain Move → Follow → Accept/Reject → Undo(Follow).
    #[test]
    fn quiescence_takes_at_most_four_steps() {
        let mut n = FediverseNetwork::default();
        let old = n.register_actor("u", "big.example").unwrap();
        let new = n.register_actor("u", "niche.example").unwrap();
        let fans: Vec<ActorUri> = (0..6)
            .map(|i| {
                n.register_actor(&format!("f{i}"), &format!("r{}.example", i % 3))
                    .unwrap()
            })
            .collect();
        for f in &fans {
            n.follow(f, &old).unwrap();
        }
        assert!(n.run_to_quiescence() <= 4);
        n.set_also_known_as(&new, &old).unwrap();
        n.move_account(&old, &new).unwrap();
        assert!(n.run_to_quiescence() <= 4);
        assert_eq!(n.followers_of(&new).unwrap().len(), fans.len());
        for f in &fans {
            assert_eq!(n.following_of(f).unwrap(), std::slice::from_ref(&new));
        }

        // Undone while its Accept is in flight: the Accept finds the intent
        // withdrawn and is answered with an Undo of its own.
        let a = n.register_actor("a", "x.example").unwrap();
        let b = n.register_actor("b", "y.example").unwrap();
        n.follow(&a, &b).unwrap();
        n.step();
        n.undo_follow(&a, &b).unwrap();
        assert!(n.run_to_quiescence() <= 4);
        assert!(n.followers_of(&b).unwrap().is_empty());
        assert!(n.following_of(&a).unwrap().is_empty());
        assert!(n.actor(&a).unwrap().pending_follows.is_empty());
    }
}
