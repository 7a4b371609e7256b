//! Instance nodes and the federated network.
//!
//! Each Mastodon instance is a `Node`: it owns its local actors and an
//! inbox-processing routine. Nodes never touch each other's memory — every
//! cross-instance effect travels through the [`Transport`] as serialized
//! activities, exactly like inbox POSTs between real servers.
//!
//! The semantics implemented here are the ones the paper's mechanics rely
//! on:
//!
//! * **Remote follow** (§2): the follower's instance sends `Follow`; the
//!   followee's instance records the follower and replies `Accept`; only
//!   then does the follower's instance record the relationship.
//! * **Note fan-out** (§2): a `Create` is delivered once per follower
//!   *instance* and lands in that instance's federated timeline.
//! * **Account move** (§5.3): the target account must prove ownership via
//!   `alsoKnownAs`; the `Move` is then fanned out to follower instances,
//!   which unfollow the old account and re-follow the new one on behalf of
//!   their local users.

use crate::activity::{Activity, Note};
use crate::actor::{Actor, ActorUri};
use crate::transport::{Envelope, Transport, TransportConfig, TransportStats};
use flock_core::{Day, FlockError, Result};
use flock_obs::{Counter, Registry, Tier};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Network-wide configuration.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Fault model for inter-instance delivery.
    pub transport: TransportConfig,
}

/// One instance's server state.
#[derive(Debug)]
struct Node {
    actors: BTreeMap<String, Actor>,
    /// Notes received from remote instances (the federated timeline).
    federated_timeline: Vec<Note>,
    /// Boost counts by note id (local bookkeeping of `Announce`s).
    boosts: BTreeMap<u64, u32>,
}

impl Node {
    fn new() -> Self {
        Node {
            actors: BTreeMap::new(),
            federated_timeline: Vec::new(),
            boosts: BTreeMap::new(),
        }
    }
}

/// Outcome of processing an inbound `Accept`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AcceptVerdict {
    /// The pending intent stood; the relationship is now established.
    Established,
    /// The edge already exists (duplicate Accept) — ignore.
    AlreadyFollowing,
    /// No intent and no edge: the follow was undone mid-handshake.
    Unwanted,
}

/// Per-activity-kind processing counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActivityCounts {
    pub follow: u64,
    pub accept: u64,
    pub reject: u64,
    pub create: u64,
    pub announce: u64,
    pub r#move: u64,
    pub undo_follow: u64,
}

/// Registry-backed mirror of [`ActivityCounts`]: one
/// `flock.activitypub.federation.<kind>` counter per activity kind.
/// Processing is single-threaded and seed-deterministic, so these are
/// data-tier.
#[derive(Debug)]
struct FederationMetrics {
    follow: Counter,
    accept: Counter,
    reject: Counter,
    create: Counter,
    announce: Counter,
    r#move: Counter,
    undo_follow: Counter,
}

impl FederationMetrics {
    fn new(obs: &Registry) -> Self {
        let c =
            |kind: &str| obs.counter(&format!("flock.activitypub.federation.{kind}"), Tier::Data);
        FederationMetrics {
            follow: c("follow"),
            accept: c("accept"),
            reject: c("reject"),
            create: c("create"),
            announce: c("announce"),
            r#move: c("move"),
            undo_follow: c("undo_follow"),
        }
    }
}

/// The whole federated network: instances + transport.
#[derive(Debug)]
pub struct FediverseNetwork {
    nodes: BTreeMap<String, Node>,
    transport: Transport,
    next_note_id: u64,
    counts: ActivityCounts,
    m: FederationMetrics,
}

impl FediverseNetwork {
    /// Create an empty network.
    pub fn new(config: NetworkConfig, seed: u64) -> Self {
        Self::with_registry(config, seed, &Registry::new())
    }

    /// [`FediverseNetwork::new`], additionally mirroring activity and
    /// transport counters into `obs`.
    pub fn with_registry(config: NetworkConfig, seed: u64, obs: &Registry) -> Self {
        FediverseNetwork {
            nodes: BTreeMap::new(),
            transport: Transport::with_registry(config.transport, seed, obs),
            next_note_id: 0,
            counts: ActivityCounts::default(),
            m: FederationMetrics::new(obs),
        }
    }

    /// Register an instance (idempotent).
    pub fn register_instance(&mut self, domain: &str) {
        let domain = domain.to_ascii_lowercase();
        self.nodes.entry(domain.clone()).or_insert_with(Node::new);
    }

    /// Register a local actor, creating its instance if needed.
    pub fn register_actor(&mut self, name: &str, domain: &str) -> Result<ActorUri> {
        let uri = ActorUri::new(name, domain);
        self.register_instance(&uri.domain);
        let node = self
            .nodes
            .get_mut(&uri.domain)
            .ok_or_else(|| FlockError::NotFound(uri.domain.clone()))?;
        if node.actors.contains_key(&uri.name) {
            return Err(FlockError::InvalidConfig(format!(
                "actor {uri} already registered"
            )));
        }
        node.actors
            .insert(uri.name.clone(), Actor::new(uri.clone()));
        Ok(uri)
    }

    /// Look up an actor.
    pub fn actor(&self, uri: &ActorUri) -> Option<&Actor> {
        self.nodes.get(&uri.domain)?.actors.get(&uri.name)
    }

    fn actor_mut(&mut self, uri: &ActorUri) -> Option<&mut Actor> {
        self.nodes.get_mut(&uri.domain)?.actors.get_mut(&uri.name)
    }

    /// [`Self::actor_mut`], with a missing actor as [`FlockError::NotFound`].
    fn known_actor_mut(&mut self, uri: &ActorUri) -> Result<&mut Actor> {
        self.actor_mut(uri)
            .ok_or_else(|| FlockError::NotFound(uri.to_string()))
    }

    /// Followers collection of an actor.
    pub fn followers_of(&self, uri: &ActorUri) -> Option<&[ActorUri]> {
        self.actor(uri).map(|a| a.followers.as_slice())
    }

    /// Following collection of an actor.
    pub fn following_of(&self, uri: &ActorUri) -> Option<&[ActorUri]> {
        self.actor(uri).map(|a| a.following.as_slice())
    }

    /// WebFinger-style resolution: does this handle exist on the network?
    pub fn resolve(&self, name: &str, domain: &str) -> Option<ActorUri> {
        let uri = ActorUri::new(name, domain);
        self.actor(&uri).map(|a| a.id.clone())
    }

    /// All registered instance domains.
    pub fn domains(&self) -> impl Iterator<Item = &str> {
        self.nodes.keys().map(String::as_str)
    }

    /// The federation adjacency each instance would expose on its
    /// `/api/v1/instance/peers` endpoint: for every registered domain, the
    /// other domains it shares at least one follow edge with, in either
    /// direction. Edges are symmetric (if `a` lists `b`, `b` lists `a`),
    /// peer lists are sorted and deduplicated, and iteration is over
    /// `BTreeMap`s throughout, so the result is a pure function of the
    /// network's social graph.
    pub fn federation_peers(&self) -> BTreeMap<String, Vec<String>> {
        let mut peers: BTreeMap<String, std::collections::BTreeSet<String>> = self
            .nodes
            .keys()
            .map(|d| (d.clone(), std::collections::BTreeSet::new()))
            .collect();
        for (domain, node) in &self.nodes {
            for actor in node.actors.values() {
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

    /// The federated timeline of an instance (remote notes it received).
    pub fn federated_timeline(&self, domain: &str) -> Option<&[Note]> {
        self.nodes
            .get(domain)
            .map(|n| n.federated_timeline.as_slice())
    }

    /// Activity-processing counters.
    pub fn counts(&self) -> &ActivityCounts {
        &self.counts
    }

    /// Transport statistics (deliveries, losses, dead letters).
    pub fn transport_stats(&self) -> TransportStats {
        self.transport.stats()
    }

    /// `actor` follows `object`. Local follows complete synchronously;
    /// remote follows travel through the transport and complete when the
    /// `Accept` comes back.
    pub fn follow(&mut self, actor: &ActorUri, object: &ActorUri) -> Result<()> {
        match self.actor(actor) {
            None => return Err(FlockError::NotFound(actor.to_string())),
            Some(a) if a.has_moved() => {
                return Err(FlockError::Forbidden(format!("{actor} has moved away")))
            }
            Some(_) => {}
        }
        if actor.domain == object.domain {
            // Local: both sides in one instance, applied immediately.
            match self.actor(object) {
                None => return Err(FlockError::NotFound(object.to_string())),
                Some(o) if o.has_moved() => {
                    return Err(FlockError::Forbidden(format!("{object} has moved away")))
                }
                Some(_) => {}
            }
            self.known_actor_mut(object)?.add_follower(actor.clone());
            self.known_actor_mut(actor)?.add_following(object.clone());
            return Ok(());
        }
        // Record the outbound intent; the relationship is established only
        // when the Accept comes back and the intent still stands.
        {
            let a = self.known_actor_mut(actor)?;
            if !a.pending_follows.contains(object) {
                a.pending_follows.push(object.clone());
            }
        }
        let act = Activity::Follow {
            actor: actor.clone(),
            object: object.clone(),
        };
        self.deliver(&actor.domain.clone(), &object.domain.clone(), &act)
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
        let act = Activity::UndoFollow {
            actor: actor.clone(),
            object: object.clone(),
        };
        self.deliver(&actor.domain.clone(), &object.domain.clone(), &act)
    }

    /// Publish a note; returns its id. The note is fanned out once per
    /// distinct remote follower instance.
    pub fn publish_note(&mut self, author: &ActorUri, content: &str, day: Day) -> Result<u64> {
        let note_id = self.next_note_id;
        let (note, remote_domains) = {
            let a = self
                .actor(author)
                .ok_or_else(|| FlockError::NotFound(author.to_string()))?;
            let note = Note {
                id: note_id,
                attributed_to: author.clone(),
                content: content.to_string(),
                published: day,
            };
            let mut domains: Vec<String> = a
                .followers
                .iter()
                .map(|f| f.domain.clone())
                .filter(|d| *d != author.domain)
                .collect();
            domains.sort();
            domains.dedup();
            (note, domains)
        };
        self.next_note_id += 1;
        self.known_actor_mut(author)?.outbox.push(note_id);
        for d in remote_domains {
            let act = Activity::Create {
                actor: author.clone(),
                note: note.clone(),
            };
            self.deliver(&author.domain.clone(), &d, &act)?;
        }
        Ok(note_id)
    }

    /// Boost a note originating from `origin`.
    pub fn boost(&mut self, actor: &ActorUri, note_id: u64, origin: &ActorUri) -> Result<()> {
        if self.actor(actor).is_none() {
            return Err(FlockError::NotFound(actor.to_string()));
        }
        if actor.domain == origin.domain {
            let node = self
                .nodes
                .get_mut(&origin.domain)
                .ok_or_else(|| FlockError::NotFound(origin.domain.clone()))?;
            *node.boosts.entry(note_id).or_insert(0) += 1;
            self.counts.announce += 1;
            self.m.announce.inc();
            return Ok(());
        }
        let act = Activity::Announce {
            actor: actor.clone(),
            note_id,
            origin: origin.clone(),
        };
        self.deliver(&actor.domain.clone(), &origin.domain.clone(), &act)
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
        self.counts.r#move += 1;
        self.m.r#move.inc();
        // Group remote followers by instance; handle local ones (and
        // followers on `old`'s own instance) directly.
        let mut remote_domains: Vec<String> = Vec::new();
        for f in &followers {
            if f.domain == old.domain {
                self.rewrite_follow(f, old, new)?;
            } else if !remote_domains.contains(&f.domain) {
                remote_domains.push(f.domain.clone());
            }
        }
        for d in remote_domains {
            let act = Activity::Move {
                actor: old.clone(),
                target: new.clone(),
            };
            self.deliver(&old.domain.clone(), &d, &act)?;
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
        // (synchronous if local, via transport if remote).
        self.follow(follower, new)
    }

    /// Advance the network one step: deliver due envelopes and process them.
    /// Returns the number of activities processed.
    pub fn step(&mut self) -> usize {
        let arrived = self.transport.step();
        let mut processed = 0;
        for env in arrived {
            match env.unpack() {
                Ok(act) => {
                    processed += 1;
                    // A node can disappear in adversarial configs; ignore
                    // activities for unknown domains.
                    if self.nodes.contains_key(&env.to) {
                        self.process_inbound(&env.to.clone(), act);
                    }
                }
                Err(_) => {
                    // Malformed payloads are dropped, as a real server would
                    // 400 them.
                }
            }
        }
        processed
    }

    /// Step until no envelopes are in flight or `max_steps` elapse.
    /// Returns the number of steps taken.
    pub fn run_to_quiescence(&mut self, max_steps: usize) -> usize {
        for i in 0..max_steps {
            self.step();
            if self.transport.is_idle() {
                return i + 1;
            }
        }
        max_steps
    }

    fn deliver(&mut self, from: &str, to: &str, act: &Activity) -> Result<()> {
        let env = Envelope::pack(from, to, act)?;
        self.transport.send(env);
        Ok(())
    }

    /// Inbox processing for one node.
    ///
    /// (See `AcceptVerdict` for the Accept-handshake reconciliation rules.)
    fn process_inbound(&mut self, domain: &str, act: Activity) {
        match act {
            Activity::Follow { actor, object } => {
                self.counts.follow += 1;
                self.m.follow.inc();
                let response = match self
                    .nodes
                    .get_mut(domain)
                    .and_then(|n| n.actors.get_mut(&object.name))
                {
                    Some(target) if !target.has_moved() => {
                        target.add_follower(actor.clone());
                        Activity::Accept {
                            actor: object.clone(),
                            object: actor.clone(),
                        }
                    }
                    _ => Activity::Reject {
                        actor: object.clone(),
                        object: actor.clone(),
                    },
                };
                let _ = self.deliver(domain, &actor.domain.clone(), &response);
            }
            Activity::Accept { actor, object } => {
                self.counts.accept += 1;
                self.m.accept.inc();
                // `object` (on this domain) follows `actor` now — but only
                // if the intent still stands. An Accept for an already-
                // undone follow is answered with an Undo so the remote side
                // drops the half-established edge (reconciliation).
                let verdict = self
                    .nodes
                    .get_mut(domain)
                    .and_then(|n| n.actors.get_mut(&object.name))
                    .map(|f| {
                        if f.pending_follows.contains(&actor) {
                            f.pending_follows.retain(|p| p != &actor);
                            f.add_following(actor.clone());
                            AcceptVerdict::Established
                        } else if f.following.contains(&actor) {
                            // Duplicate Accept for an edge that already
                            // stands (re-follow raced an earlier handshake).
                            AcceptVerdict::AlreadyFollowing
                        } else {
                            AcceptVerdict::Unwanted
                        }
                    })
                    .unwrap_or(AcceptVerdict::Unwanted);
                if verdict == AcceptVerdict::Unwanted {
                    // The intent was undone while the handshake was in
                    // flight: tell the remote side to drop the half-edge.
                    let undo = Activity::UndoFollow {
                        actor: object.clone(),
                        object: actor.clone(),
                    };
                    let _ = self.deliver(domain, &actor.domain.clone(), &undo);
                }
            }
            Activity::Reject { actor, object } => {
                self.counts.reject += 1;
                self.m.reject.inc();
                if let Some(f) = self
                    .nodes
                    .get_mut(domain)
                    .and_then(|n| n.actors.get_mut(&object.name))
                {
                    f.remove_following(&actor);
                    f.pending_follows.retain(|p| p != &actor);
                }
            }
            Activity::Create { actor: _, note } => {
                self.counts.create += 1;
                self.m.create.inc();
                if let Some(n) = self.nodes.get_mut(domain) {
                    if !n.federated_timeline.iter().any(|x| x.id == note.id) {
                        n.federated_timeline.push(note);
                    }
                }
            }
            Activity::Announce { note_id, .. } => {
                self.counts.announce += 1;
                self.m.announce.inc();
                if let Some(n) = self.nodes.get_mut(domain) {
                    *n.boosts.entry(note_id).or_insert(0) += 1;
                }
            }
            Activity::Move {
                actor: old,
                target: new,
            } => {
                self.counts.r#move += 1;
                self.m.r#move.inc();
                // Rewrite every local follower of `old` to follow `new`.
                let local_followers: Vec<ActorUri> = self
                    .nodes
                    .get(domain)
                    .map(|n| {
                        n.actors
                            .values()
                            .filter(|a| a.following.contains(&old))
                            .map(|a| a.id.clone())
                            .collect()
                    })
                    .unwrap_or_default();
                for f in local_followers {
                    let _ = self.rewrite_follow(&f, &old, &new);
                }
            }
            Activity::UndoFollow { actor, object } => {
                self.counts.undo_follow += 1;
                self.m.undo_follow.inc();
                if let Some(t) = self
                    .nodes
                    .get_mut(domain)
                    .and_then(|n| n.actors.get_mut(&object.name))
                {
                    t.remove_follower(&actor);
                }
            }
        }
    }

    /// Boost count a node has recorded for a note.
    pub fn boost_count(&self, domain: &str, note_id: u64) -> u32 {
        self.nodes
            .get(domain)
            .and_then(|n| n.boosts.get(&note_id))
            .copied()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> FediverseNetwork {
        FediverseNetwork::new(NetworkConfig::default(), 42)
    }

    #[test]
    fn registry_mirrors_activity_counts() {
        let obs = Registry::new();
        let mut n = FediverseNetwork::with_registry(NetworkConfig::default(), 42, &obs);
        let a = n.register_actor("a", "x.example").unwrap();
        let b = n.register_actor("b", "y.example").unwrap();
        n.follow(&a, &b).unwrap();
        n.run_to_quiescence(10);
        let note = n.publish_note(&b, "hello fediverse", Day(30)).unwrap();
        n.run_to_quiescence(10);
        n.boost(&a, note, &b).unwrap();
        n.run_to_quiescence(10);
        let get = |k: &str| {
            obs.counter_value(&format!("flock.activitypub.federation.{k}"))
                .unwrap_or(0)
        };
        let c = n.counts().clone();
        assert_eq!(get("follow"), c.follow);
        assert_eq!(get("accept"), c.accept);
        assert_eq!(get("create"), c.create);
        assert_eq!(get("announce"), c.announce);
        assert!(c.follow >= 1 && c.create >= 1 && c.announce >= 1);
        // The transport counters share the registry.
        assert!(
            obs.counter_value("flock.activitypub.transport.sent")
                .unwrap_or(0)
                >= 3
        );
    }

    #[test]
    fn federation_peers_are_symmetric_sorted_and_cover_islands() {
        let mut n = net();
        let a = n.register_actor("a", "x.example").unwrap();
        let b = n.register_actor("b", "y.example").unwrap();
        let c = n.register_actor("c", "z.example").unwrap();
        n.register_instance("island.example");
        n.follow(&a, &b).unwrap();
        n.follow(&a, &c).unwrap();
        n.run_to_quiescence(16);
        let peers = n.federation_peers();
        assert_eq!(peers["x.example"], vec!["y.example", "z.example"]);
        assert_eq!(peers["y.example"], vec!["x.example"]);
        assert_eq!(peers["z.example"], vec!["x.example"]);
        // A registered instance with no cross-instance edges still has an
        // entry (the peers endpoint answers with an empty list).
        assert!(peers["island.example"].is_empty());
    }

    #[test]
    fn register_and_resolve() {
        let mut n = net();
        let a = n.register_actor("alice", "one.example").unwrap();
        assert_eq!(n.resolve("alice", "one.example"), Some(a.clone()));
        assert_eq!(n.resolve("ALICE", "ONE.EXAMPLE"), Some(a));
        assert_eq!(n.resolve("nobody", "one.example"), None);
        assert!(n.register_actor("alice", "one.example").is_err());
    }

    #[test]
    fn local_follow_is_synchronous() {
        let mut n = net();
        let a = n.register_actor("a", "x.example").unwrap();
        let b = n.register_actor("b", "x.example").unwrap();
        n.follow(&a, &b).unwrap();
        assert!(n.followers_of(&b).unwrap().contains(&a));
        assert!(n.following_of(&a).unwrap().contains(&b));
    }

    #[test]
    fn remote_follow_completes_after_round_trip() {
        let mut n = net();
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
        assert_eq!(n.counts().follow, 1);
        assert_eq!(n.counts().accept, 1);
    }

    #[test]
    fn follow_unknown_actor_errors() {
        let mut n = net();
        let a = n.register_actor("a", "x.example").unwrap();
        let ghost = ActorUri::new("ghost", "x.example");
        assert!(n.follow(&a, &ghost).is_err());
        assert!(n.follow(&ghost, &a).is_err());
    }

    #[test]
    fn note_fans_out_once_per_remote_instance() {
        let mut n = net();
        let author = n.register_actor("w", "home.example").unwrap();
        // Two followers on the same remote instance, one on another, one local.
        let f1 = n.register_actor("f1", "r1.example").unwrap();
        let f2 = n.register_actor("f2", "r1.example").unwrap();
        let f3 = n.register_actor("f3", "r2.example").unwrap();
        let f4 = n.register_actor("f4", "home.example").unwrap();
        for f in [&f1, &f2, &f3, &f4] {
            n.follow(f, &author).unwrap();
        }
        n.run_to_quiescence(16);
        let id = n.publish_note(&author, "hello fediverse", Day(30)).unwrap();
        n.run_to_quiescence(16);
        // One copy in each remote federated timeline, none locally.
        assert_eq!(n.federated_timeline("r1.example").unwrap().len(), 1);
        assert_eq!(n.federated_timeline("r2.example").unwrap().len(), 1);
        assert_eq!(n.federated_timeline("home.example").unwrap().len(), 0);
        assert_eq!(n.federated_timeline("r1.example").unwrap()[0].id, id);
        // Exactly 2 Create deliveries (one per remote domain).
        assert_eq!(n.counts().create, 2);
        assert_eq!(n.actor(&author).unwrap().outbox, vec![id]);
    }

    #[test]
    fn boost_reaches_origin_instance() {
        let mut n = net();
        let author = n.register_actor("w", "home.example").unwrap();
        let fan = n.register_actor("fan", "r1.example").unwrap();
        n.follow(&fan, &author).unwrap();
        n.run_to_quiescence(16);
        let id = n.publish_note(&author, "boost me", Day(31)).unwrap();
        n.run_to_quiescence(16);
        n.boost(&fan, id, &author).unwrap();
        n.run_to_quiescence(16);
        assert_eq!(n.boost_count("home.example", id), 1);
    }

    #[test]
    fn move_requires_also_known_as_proof() {
        let mut n = net();
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
        let mut n = net();
        let old = n.register_actor("u", "big.example").unwrap();
        let new = n.register_actor("u", "niche.example").unwrap();
        let f1 = n.register_actor("f1", "r1.example").unwrap();
        let f2 = n.register_actor("f2", "r2.example").unwrap();
        let local = n.register_actor("pal", "big.example").unwrap();
        for f in [&f1, &f2, &local] {
            n.follow(f, &old).unwrap();
        }
        n.run_to_quiescence(16);
        assert_eq!(n.followers_of(&old).unwrap().len(), 3);

        n.set_also_known_as(&new, &old).unwrap();
        n.move_account(&old, &new).unwrap();
        n.run_to_quiescence(32);

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
        let mut n = net();
        let old = n.register_actor("u", "big.example").unwrap();
        let new = n.register_actor("u2", "niche.example").unwrap();
        n.set_also_known_as(&new, &old).unwrap();
        n.move_account(&old, &new).unwrap();
        n.run_to_quiescence(16);

        let late = n.register_actor("late", "r9.example").unwrap();
        n.follow(&late, &old).unwrap();
        n.run_to_quiescence(16);
        assert!(n.followers_of(&old).unwrap().is_empty());
        assert!(n.following_of(&late).unwrap().is_empty());
        assert_eq!(n.counts().reject, 1);
    }

    #[test]
    fn double_move_is_rejected() {
        let mut n = net();
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
        let mut n = net();
        let a = n.register_actor("a", "x.example").unwrap();
        let b = n.register_actor("b", "y.example").unwrap();
        n.follow(&a, &b).unwrap();
        n.run_to_quiescence(16);
        assert!(n.followers_of(&b).unwrap().contains(&a));
        n.undo_follow(&a, &b).unwrap();
        n.run_to_quiescence(16);
        assert!(n.followers_of(&b).unwrap().is_empty());
        assert!(n.following_of(&a).unwrap().is_empty());
    }

    #[test]
    fn lossy_transport_still_converges_with_retries() {
        let cfg = NetworkConfig {
            transport: TransportConfig {
                loss_probability: 0.4,
                max_attempts: 32,
                latency_steps: 1,
            },
        };
        let mut n = FediverseNetwork::new(cfg, 9);
        let hub = n.register_actor("hub", "hub.example").unwrap();
        let mut fans = Vec::new();
        for i in 0..20 {
            let f = n
                .register_actor(&format!("f{i}"), &format!("inst{i}.example"))
                .unwrap();
            n.follow(&f, &hub).unwrap();
            fans.push(f);
        }
        n.run_to_quiescence(500);
        assert_eq!(n.followers_of(&hub).unwrap().len(), 20);
        for f in &fans {
            assert!(n.following_of(f).unwrap().contains(&hub));
        }
        assert!(
            n.transport_stats().lost_attempts > 0,
            "faults were injected"
        );
    }

    #[test]
    fn deterministic_network_evolution() {
        let build = |seed| {
            let cfg = NetworkConfig {
                transport: TransportConfig {
                    loss_probability: 0.2,
                    max_attempts: 8,
                    latency_steps: 2,
                },
            };
            let mut n = FediverseNetwork::new(cfg, seed);
            let hub = n.register_actor("hub", "hub.example").unwrap();
            for i in 0..10 {
                let f = n
                    .register_actor(&format!("f{i}"), &format!("i{i}.example"))
                    .unwrap();
                n.follow(&f, &hub).unwrap();
            }
            n.run_to_quiescence(200);
            (n.followers_of(&hub).unwrap().to_vec(), n.transport_stats())
        };
        assert_eq!(build(5), build(5));
    }
}
