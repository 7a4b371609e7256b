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
//!   of those of its users who follow the old account when it arrives, in
//!   username order.

use crate::actor::{Actor, ActorId};
use flock_core::rng::fnv1a_salted;
use flock_core::{FlockError, InstanceId, MastodonHandle, Result};
use std::collections::BTreeSet;

/// The activities the two mechanics exchange. Every one but `Move` is
/// addressed to the instance of its `object`.
#[derive(Debug, Clone, Copy)]
enum Activity {
    /// `actor` asks to follow `object`.
    Follow { actor: ActorId, object: ActorId },
    /// `actor`, the followee, accepts `object`'s follow.
    Accept { actor: ActorId, object: ActorId },
    /// `actor`, the followee, has moved away and refuses `object`'s follow.
    Reject { actor: ActorId, object: ActorId },
    /// `actor` moved to `target`; sent to each instance `to` that hosts a
    /// remote follower of `actor`.
    Move {
        actor: ActorId,
        target: ActorId,
        to: InstanceId,
    },
    /// `actor` retracts its follow of `object`.
    UndoFollow { actor: ActorId, object: ActorId },
}

/// The whole federated network: instances, their actors, and the
/// activities in flight between them.
#[derive(Debug, Default)]
pub struct FediverseNetwork {
    /// Instance domains, indexed by [`InstanceId`].
    domains: Vec<String>,
    /// Every actor under a hash of its instance and username: the duplicate
    /// check of [`Self::register_actor`] compares the actors sharing a hash.
    by_handle: BTreeSet<(u64, ActorId)>,
    /// Every actor, indexed by [`ActorId`].
    actors: Vec<Actor>,
    /// Sent, unprocessed activities, in send order.
    queue: Vec<Activity>,
}

impl FediverseNetwork {
    /// Register an instance, once per domain; ids are handed out in
    /// registration order.
    pub fn register_instance(&mut self, domain: &str) -> InstanceId {
        self.domains.push(domain.to_ascii_lowercase());
        InstanceId::from_index(self.domains.len() - 1)
    }

    /// Register a local actor of a registered instance. The handle
    /// `@name@domain` must be valid and not yet taken.
    pub fn register_actor(&mut self, name: &str, instance: InstanceId) -> Result<ActorId> {
        let domain = self
            .domains
            .get(instance.index())
            .ok_or_else(|| FlockError::NotFound(instance.to_string()))?;
        let handle = MastodonHandle::new(name, domain)?;
        let id = u32::try_from(self.actors.len())
            .map(ActorId)
            .map_err(|_| FlockError::InvalidConfig("actor table full".to_string()))?;
        let key = fnv1a_salted(instance.raw(), handle.username());
        let mut same_key = self
            .by_handle
            .range((key, ActorId(0))..=(key, ActorId(u32::MAX)));
        if same_key.any(|(_, a)| {
            let a = &self.actors[a.index()];
            a.instance == instance && a.handle.username() == handle.username()
        }) {
            return Err(FlockError::InvalidConfig(format!(
                "actor {handle} already registered"
            )));
        }
        self.by_handle.insert((key, id));
        self.actors.push(Actor::new(handle, instance));
        Ok(id)
    }

    /// Look up an actor.
    pub fn actor(&self, id: ActorId) -> Option<&Actor> {
        self.actors.get(id.index())
    }

    /// The domain of a registered instance.
    pub fn domain(&self, instance: InstanceId) -> Option<&str> {
        self.domains.get(instance.index()).map(String::as_str)
    }

    /// [`Self::actor`], with a missing actor as [`FlockError::NotFound`].
    fn known(&self, id: ActorId) -> Result<&Actor> {
        self.actor(id)
            .ok_or_else(|| FlockError::NotFound(format!("{id:?}")))
    }

    /// The actor if it is registered and has not moved away.
    fn check_live(&self, id: ActorId) -> Result<&Actor> {
        let a = self.known(id)?;
        if a.has_moved() {
            return Err(FlockError::Forbidden(format!(
                "{} has moved away",
                a.handle
            )));
        }
        Ok(a)
    }

    /// Followers collection of an actor.
    pub fn followers_of(&self, id: ActorId) -> Option<&[ActorId]> {
        self.actor(id).map(|a| a.followers.as_slice())
    }

    /// Following collection of an actor.
    pub fn following_of(&self, id: ActorId) -> Option<&[ActorId]> {
        self.actor(id).map(|a| a.following.as_slice())
    }

    /// The federation adjacency each instance would expose on its
    /// `/api/v1/instance/peers` endpoint, one row per registered instance
    /// in [`InstanceId`] order: the other instances it shares at least one
    /// follow edge with, in either direction. Edges are symmetric (if `a`
    /// lists `b`, `b` lists `a`) and each row is sorted by domain name, so
    /// the result is a pure function of the network's social graph.
    pub fn federation_peers(&self) -> Vec<Vec<InstanceId>> {
        let mut peers: Vec<BTreeSet<InstanceId>> = vec![BTreeSet::new(); self.domains.len()];
        for actor in &self.actors {
            let home = actor.instance;
            for other in actor.followers.iter().chain(&actor.following) {
                let there = self.actors[other.index()].instance;
                if there != home {
                    peers[home.index()].insert(there);
                    peers[there.index()].insert(home);
                }
            }
        }
        peers
            .into_iter()
            .map(|set| {
                let mut row: Vec<InstanceId> = set.into_iter().collect();
                row.sort_by(|a, b| self.domains[a.index()].cmp(&self.domains[b.index()]));
                row
            })
            .collect()
    }

    /// `actor` follows `object`. Local follows complete synchronously;
    /// remote follows complete when the `Accept` comes back.
    pub fn follow(&mut self, actor: ActorId, object: ActorId) -> Result<()> {
        let home = self.check_live(actor)?.instance;
        if self.known(object)?.instance == home {
            // Local: both sides in one instance, applied immediately.
            self.check_live(object)?;
            self.add_follower(object, actor);
            self.add_following(actor, object);
            return Ok(());
        }
        // Record the outbound intent; the relationship is established only
        // when the Accept comes back and the intent still stands.
        let pending = &mut self.actors[actor.index()].pending_follows;
        if !pending.contains(&object) {
            pending.push(object);
        }
        self.queue.push(Activity::Follow { actor, object });
        Ok(())
    }

    /// `actor` unfollows `object`. An `object` no actor holds has nothing
    /// to undo.
    pub fn undo_follow(&mut self, actor: ActorId, object: ActorId) -> Result<()> {
        let home = self.known(actor)?.instance;
        self.remove_following(actor, object);
        self.actors[actor.index()]
            .pending_follows
            .retain(|p| *p != object);
        match self.actor(object) {
            Some(o) if o.instance == home => self.remove_follower(object, actor),
            Some(_) => self.queue.push(Activity::UndoFollow { actor, object }),
            None => {}
        }
        Ok(())
    }

    /// Declare that `target` is also known as `old` — the ownership proof
    /// Mastodon requires before honouring a `Move`.
    pub fn set_also_known_as(&mut self, target: ActorId, old: ActorId) -> Result<()> {
        self.known(target)?;
        let aka = &mut self.actors[target.index()].also_known_as;
        if !aka.contains(&old) {
            aka.push(old);
        }
        Ok(())
    }

    /// Move `old` to `new`: requires `new.alsoKnownAs` to contain `old`.
    /// Local followers are rewritten synchronously; remote follower
    /// instances receive a `Move` and re-follow `new` on behalf of their
    /// users.
    pub fn move_account(&mut self, old: ActorId, new: ActorId) -> Result<()> {
        if !self.known(new)?.also_known_as.contains(&old) {
            return Err(FlockError::InvalidConfig(format!(
                "{new:?} does not list {old:?} in alsoKnownAs; refusing Move"
            )));
        }
        let o = self.known(old)?;
        if o.has_moved() {
            return Err(FlockError::InvalidConfig(format!(
                "{} already moved",
                o.handle
            )));
        }
        let home = o.instance;
        let o = &mut self.actors[old.index()];
        o.moved_to = Some(new);
        let followers = std::mem::take(&mut o.followers);
        // Handle followers on `old`'s own instance directly; send one Move
        // to each remote follower instance, in first-follower order.
        let mut remote: Vec<InstanceId> = Vec::new();
        for f in followers {
            let there = self.actors[f.index()].instance;
            if there == home {
                self.rewrite_follow(f, old, new)?;
            } else if !remote.contains(&there) {
                remote.push(there);
            }
        }
        for to in remote {
            self.queue.push(Activity::Move {
                actor: old,
                target: new,
                to,
            });
        }
        Ok(())
    }

    /// Rewrite one follower's relationship from `old` to `new` (used on the
    /// follower's own instance).
    fn rewrite_follow(&mut self, follower: ActorId, old: ActorId, new: ActorId) -> Result<()> {
        self.remove_following(follower, old);
        // Following the new account goes through the normal follow path
        // (synchronous if local, an activity if remote).
        self.follow(follower, new)
    }

    /// Record `who` as a follower of `of` (idempotent).
    fn add_follower(&mut self, of: ActorId, who: ActorId) {
        let followers = &mut self.actors[of.index()].followers;
        if !followers.contains(&who) {
            followers.push(who);
        }
    }

    fn remove_follower(&mut self, of: ActorId, who: ActorId) {
        self.actors[of.index()].followers.retain(|f| *f != who);
    }

    /// Record that `who` follows `of` (idempotent), and its reverse entry.
    fn add_following(&mut self, who: ActorId, of: ActorId) {
        let following = &mut self.actors[who.index()].following;
        if !following.contains(&of) {
            following.push(of);
            self.actors[of.index()].followed_by.push(who);
        }
    }

    fn remove_following(&mut self, who: ActorId, of: ActorId) {
        let following = &mut self.actors[who.index()].following;
        if let Some(at) = following.iter().position(|f| *f == of) {
            following.remove(at);
            let rev = &mut self.actors[of.index()].followed_by;
            if let Some(at) = rev.iter().position(|f| *f == who) {
                rev.swap_remove(at);
            }
        }
    }

    /// Process every activity in flight, in send order. Activities sent
    /// while processing wait for the next step.
    pub fn step(&mut self) {
        for act in std::mem::take(&mut self.queue) {
            self.process_inbound(act);
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

    /// Inbox processing: the addressed instance receives `act`.
    fn process_inbound(&mut self, act: Activity) {
        match act {
            Activity::Follow { actor, object } => {
                let accepted = !self.actors[object.index()].has_moved();
                let reply = if accepted {
                    self.add_follower(object, actor);
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
                self.queue.push(reply);
            }
            Activity::Accept { actor, object } => {
                // `object` (local) follows `actor` now if the intent still
                // stands, or already does (a re-follow raced an earlier
                // handshake). An Accept for a follow undone mid-handshake
                // is answered with an Undo, so the remote side drops the
                // half-edge.
                let f = &mut self.actors[object.index()];
                let wanted = if let Some(at) = f.pending_follows.iter().position(|p| *p == actor) {
                    f.pending_follows.remove(at);
                    self.add_following(object, actor);
                    true
                } else {
                    f.following.contains(&actor)
                };
                if !wanted {
                    self.queue.push(Activity::UndoFollow {
                        actor: object,
                        object: actor,
                    });
                }
            }
            Activity::Reject { actor, object } => {
                self.remove_following(object, actor);
                self.actors[object.index()]
                    .pending_follows
                    .retain(|p| *p != actor);
            }
            Activity::Move {
                actor: old,
                target: new,
                to,
            } => {
                // Rewrite, in username order, every actor of this instance
                // that follows `old` now.
                let mut local: Vec<ActorId> = self.actors[old.index()]
                    .followed_by
                    .iter()
                    .copied()
                    .filter(|f| self.actors[f.index()].instance == to)
                    .collect();
                local.sort_unstable_by(|a, b| {
                    let name = |id: &ActorId| self.actors[id.index()].handle.username();
                    name(a).cmp(name(b))
                });
                for f in local {
                    // An error (say, a follower that has moved away itself)
                    // skips that follower only.
                    let _ = self.rewrite_follow(f, old, new);
                }
            }
            Activity::UndoFollow { actor, object } => self.remove_follower(object, actor),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A network with the given instances registered in order.
    fn network(domains: &[&str]) -> (FediverseNetwork, Vec<InstanceId>) {
        let mut n = FediverseNetwork::default();
        let ids = domains.iter().map(|d| n.register_instance(d)).collect();
        (n, ids)
    }

    #[test]
    fn federation_peers_are_symmetric_sorted_and_cover_islands() {
        // Registered out of name order: rows sort by domain, not by id.
        let (mut n, i) = network(&["z.example", "x.example", "y.example", "island.example"]);
        let a = n.register_actor("a", i[1]).unwrap();
        let b = n.register_actor("b", i[2]).unwrap();
        let c = n.register_actor("c", i[0]).unwrap();
        n.follow(a, b).unwrap();
        n.follow(a, c).unwrap();
        n.run_to_quiescence();
        let peers = n.federation_peers();
        assert_eq!(peers[i[1].index()], vec![i[2], i[0]]);
        assert_eq!(peers[i[2].index()], vec![i[1]]);
        assert_eq!(peers[i[0].index()], vec![i[1]]);
        // A registered instance with no cross-instance edges still has a
        // row (the peers endpoint answers with an empty list).
        assert!(peers[i[3].index()].is_empty());
    }

    #[test]
    fn register_and_look_up() {
        let (mut n, i) = network(&["One.Example"]);
        let a = n.register_actor("ALICE", i[0]).unwrap();
        assert_eq!(n.actor(a).unwrap().handle.to_string(), "@alice@one.example");
        assert_eq!(n.domain(i[0]), Some("one.example"));
        assert!(n.actor(ActorId(7)).is_none());
        assert!(n.register_actor("alice", i[0]).is_err());
        assert!(n.register_actor("not a name", i[0]).is_err());
        assert!(n.register_actor("bob", InstanceId(9)).is_err());
    }

    #[test]
    fn local_follow_is_synchronous() {
        let (mut n, i) = network(&["x.example"]);
        let a = n.register_actor("a", i[0]).unwrap();
        let b = n.register_actor("b", i[0]).unwrap();
        n.follow(a, b).unwrap();
        assert_eq!(n.followers_of(b).unwrap(), [a]);
        assert_eq!(n.following_of(a).unwrap(), [b]);
    }

    #[test]
    fn remote_follow_completes_after_round_trip() {
        let (mut n, i) = network(&["x.example", "y.example"]);
        let a = n.register_actor("a", i[0]).unwrap();
        let b = n.register_actor("b", i[1]).unwrap();
        n.follow(a, b).unwrap();
        // Not yet: Follow in flight.
        assert!(n.following_of(a).unwrap().is_empty());
        n.step(); // Follow arrives, Accept sent
        assert_eq!(n.followers_of(b).unwrap(), [a]);
        assert!(n.following_of(a).unwrap().is_empty());
        n.step(); // Accept arrives
        assert_eq!(n.following_of(a).unwrap(), [b]);
        assert!(n.actor(a).unwrap().pending_follows.is_empty());
        assert_eq!(n.run_to_quiescence(), 0, "nothing left in flight");
    }

    #[test]
    fn follow_unknown_actor_errors() {
        let (mut n, i) = network(&["x.example"]);
        let a = n.register_actor("a", i[0]).unwrap();
        let ghost = ActorId(5);
        assert!(matches!(n.follow(a, ghost), Err(FlockError::NotFound(_))));
        assert!(matches!(n.follow(ghost, a), Err(FlockError::NotFound(_))));
        // Nothing to undo is not an error.
        n.undo_follow(a, ghost).unwrap();
    }

    #[test]
    fn move_requires_also_known_as_proof() {
        let (mut n, i) = network(&["big.example", "niche.example"]);
        let old = n.register_actor("u", i[0]).unwrap();
        let new = n.register_actor("u", i[1]).unwrap();
        assert!(matches!(
            n.move_account(old, new),
            Err(FlockError::InvalidConfig(_))
        ));
        n.set_also_known_as(new, old).unwrap();
        n.move_account(old, new).unwrap();
        assert_eq!(n.actor(old).unwrap().moved_to, Some(new));
    }

    #[test]
    fn move_transfers_remote_followers() {
        let (mut n, i) = network(&["big.example", "niche.example", "r1.example", "r2.example"]);
        let old = n.register_actor("u", i[0]).unwrap();
        let new = n.register_actor("u", i[1]).unwrap();
        let f1 = n.register_actor("f1", i[2]).unwrap();
        let f2 = n.register_actor("f2", i[3]).unwrap();
        let local = n.register_actor("pal", i[0]).unwrap();
        for f in [f1, f2, local] {
            n.follow(f, old).unwrap();
        }
        n.run_to_quiescence();
        assert_eq!(n.followers_of(old).unwrap().len(), 3);

        n.set_also_known_as(new, old).unwrap();
        n.move_account(old, new).unwrap();
        n.run_to_quiescence();

        let new_followers = n.followers_of(new).unwrap();
        assert!(new_followers.contains(&f1), "remote follower 1 moved");
        assert!(new_followers.contains(&f2), "remote follower 2 moved");
        assert!(new_followers.contains(&local), "local follower moved");
        assert!(n.followers_of(old).unwrap().is_empty());
        // Followers' following lists point at the new account.
        assert_eq!(n.following_of(f1).unwrap(), [new]);
    }

    /// A remote instance rewrites the old identity's followers there in
    /// username order, whatever order they followed in.
    #[test]
    fn move_rewrites_remote_followers_in_username_order() {
        let (mut n, i) = network(&["big.example", "niche.example", "r.example"]);
        let old = n.register_actor("u", i[0]).unwrap();
        let new = n.register_actor("u", i[1]).unwrap();
        let fans: Vec<ActorId> = ["zed", "amy", "kim"]
            .iter()
            .map(|name| n.register_actor(name, i[2]).unwrap())
            .collect();
        for &f in &fans {
            n.follow(f, old).unwrap();
        }
        n.run_to_quiescence();
        assert_eq!(n.followers_of(old).unwrap(), fans);
        n.set_also_known_as(new, old).unwrap();
        n.move_account(old, new).unwrap();
        n.run_to_quiescence();
        assert_eq!(n.followers_of(new).unwrap(), [fans[1], fans[2], fans[0]]);
    }

    #[test]
    fn follow_of_moved_account_is_rejected() {
        let (mut n, i) = network(&["big.example", "niche.example", "r9.example"]);
        let old = n.register_actor("u", i[0]).unwrap();
        let new = n.register_actor("u2", i[1]).unwrap();
        n.set_also_known_as(new, old).unwrap();
        n.move_account(old, new).unwrap();
        n.run_to_quiescence();

        let late = n.register_actor("late", i[2]).unwrap();
        n.follow(late, old).unwrap();
        n.run_to_quiescence();
        assert!(n.followers_of(old).unwrap().is_empty());
        assert!(n.following_of(late).unwrap().is_empty());
        // The Reject withdrew the follow intent.
        assert!(n.actor(late).unwrap().pending_follows.is_empty());
    }

    #[test]
    fn double_move_is_rejected() {
        let (mut n, i) = network(&["one.example", "two.example", "three.example"]);
        let a = n.register_actor("u", i[0]).unwrap();
        let b = n.register_actor("u", i[1]).unwrap();
        let c = n.register_actor("u", i[2]).unwrap();
        n.set_also_known_as(b, a).unwrap();
        n.move_account(a, b).unwrap();
        n.set_also_known_as(c, a).unwrap();
        assert!(n.move_account(a, c).is_err());
    }

    #[test]
    fn undo_follow_remote() {
        let (mut n, i) = network(&["x.example", "y.example"]);
        let a = n.register_actor("a", i[0]).unwrap();
        let b = n.register_actor("b", i[1]).unwrap();
        n.follow(a, b).unwrap();
        n.run_to_quiescence();
        assert_eq!(n.followers_of(b).unwrap(), [a]);
        n.undo_follow(a, b).unwrap();
        n.run_to_quiescence();
        assert!(n.followers_of(b).unwrap().is_empty());
        assert!(n.following_of(a).unwrap().is_empty());
    }

    /// Quiescence after a Move to followers on several remote instances,
    /// and after a follow undone mid-handshake, within the four steps of
    /// the chain Move → Follow → Accept/Reject → Undo(Follow).
    #[test]
    fn quiescence_takes_at_most_four_steps() {
        let (mut n, i) = network(&[
            "big.example",
            "niche.example",
            "r0.example",
            "r1.example",
            "r2.example",
            "x.example",
            "y.example",
        ]);
        let old = n.register_actor("u", i[0]).unwrap();
        let new = n.register_actor("u", i[1]).unwrap();
        let fans: Vec<ActorId> = (0..6)
            .map(|k| n.register_actor(&format!("f{k}"), i[2 + k % 3]).unwrap())
            .collect();
        for &f in &fans {
            n.follow(f, old).unwrap();
        }
        assert!(n.run_to_quiescence() <= 4);
        n.set_also_known_as(new, old).unwrap();
        n.move_account(old, new).unwrap();
        assert!(n.run_to_quiescence() <= 4);
        assert_eq!(n.followers_of(new).unwrap().len(), fans.len());
        for &f in &fans {
            assert_eq!(n.following_of(f).unwrap(), [new]);
        }

        // Undone while its Accept is in flight: the Accept finds the intent
        // withdrawn and is answered with an Undo of its own.
        let a = n.register_actor("a", i[5]).unwrap();
        let b = n.register_actor("b", i[6]).unwrap();
        n.follow(a, b).unwrap();
        n.step();
        n.undo_follow(a, b).unwrap();
        assert!(n.run_to_quiescence() <= 4);
        assert!(n.followers_of(b).unwrap().is_empty());
        assert!(n.following_of(a).unwrap().is_empty());
        assert!(n.actor(a).unwrap().pending_follows.is_empty());
    }
}
