//! Reference-model test for the federation substrate.
//!
//! `reference` below is the string-keyed network this crate used before
//! actors became ids, kept verbatim but for two edits: its `actor` import
//! path, and `step`, made public so both networks can be stepped alike.
//! Every actor and activity there is keyed by owned domain and username
//! strings, and a `Move` scans every actor of the instance it reaches.
//!
//! The tests drive the reference and [`FediverseNetwork`] with the same
//! operation sequences. After every operation both must answer with the
//! same `Ok`/`Err` kind, and after every operation and every step each
//! actor's followers, following, pending follows, `alsoKnownAs` and
//! `movedTo` must match in stored order, as must the peers map.

#[allow(dead_code)]
mod reference {
    pub mod actor {
        //! Actors: the federated identities behind Mastodon accounts.

        use flock_core::MastodonHandle;
        use std::fmt;

        /// A globally unique actor identifier, `https://<domain>/users/<name>` in
        /// real ActivityPub; we store the `(domain, name)` pair.
        #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct ActorUri {
            /// Instance domain that hosts the actor.
            pub domain: String,
            /// Local username on that instance.
            pub name: String,
        }

        impl ActorUri {
            /// Build an actor URI from raw parts (assumed pre-validated).
            pub fn new(name: &str, domain: &str) -> Self {
                ActorUri {
                    domain: domain.to_ascii_lowercase(),
                    name: name.to_ascii_lowercase(),
                }
            }

            /// Build from a validated [`MastodonHandle`].
            pub fn from_handle(h: &MastodonHandle) -> Self {
                ActorUri::new(h.username(), h.instance())
            }
        }

        impl fmt::Display for ActorUri {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "@{}@{}", self.name, self.domain)
            }
        }

        /// The state an instance keeps for one of its local actors.
        #[derive(Debug, Clone)]
        pub struct Actor {
            /// This actor's identity.
            pub id: ActorUri,
            /// Actors that follow this one (local or remote).
            pub followers: Vec<ActorUri>,
            /// Actors this one follows (local or remote).
            pub following: Vec<ActorUri>,
            /// Identities this account is also known as (set on the *target* of a
            /// move before the `Move` activity is honoured — Mastodon requires the
            /// back-link as proof of account ownership).
            pub also_known_as: Vec<ActorUri>,
            /// Where the account moved to, if it has been moved.
            pub moved_to: Option<ActorUri>,
            /// Outbound follow intents awaiting the remote `Accept`. An `Accept`
            /// that arrives without a matching intent (the intent was undone while
            /// the handshake was in flight) must not establish the relationship.
            pub pending_follows: Vec<ActorUri>,
        }

        impl Actor {
            /// Fresh actor with empty collections.
            pub fn new(id: ActorUri) -> Self {
                Actor {
                    id,
                    followers: Vec::new(),
                    following: Vec::new(),
                    also_known_as: Vec::new(),
                    moved_to: None,
                    pending_follows: Vec::new(),
                }
            }

            /// Record a follower (idempotent).
            pub fn add_follower(&mut self, who: ActorUri) {
                if !self.followers.contains(&who) {
                    self.followers.push(who);
                }
            }

            /// Remove a follower, if present.
            pub fn remove_follower(&mut self, who: &ActorUri) {
                self.followers.retain(|f| f != who);
            }

            /// Record a followee (idempotent).
            pub fn add_following(&mut self, who: ActorUri) {
                if !self.following.contains(&who) {
                    self.following.push(who);
                }
            }

            /// Remove a followee, if present.
            pub fn remove_following(&mut self, who: &ActorUri) {
                self.following.retain(|f| f != who);
            }

            /// `true` once the account has been moved away.
            pub fn has_moved(&self) -> bool {
                self.moved_to.is_some()
            }
        }
    }

    pub mod federation {
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

        use super::actor::{Actor, ActorUri};
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
                    Some(a) if a.has_moved() => {
                        Err(FlockError::Forbidden(format!("{uri} has moved away")))
                    }
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
            pub fn step(&mut self) {
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
    }
}

use flock_activitypub::{ActorId, FediverseNetwork};
use flock_core::{DetRng, FlockError, InstanceId, Result};
use reference::actor::ActorUri;
use std::collections::BTreeMap;
use std::mem::{discriminant, Discriminant};

const INSTANCES: usize = 7;
const ACTORS: usize = 30;
/// Ids from here up name no actor; see [`Pair::uri`].
const GHOSTS: u32 = 1_000;

/// The two networks side by side, with the reference URI of every id.
struct Pair {
    net: FediverseNetwork,
    reference: reference::federation::FediverseNetwork,
    instances: Vec<InstanceId>,
    uris: Vec<ActorUri>,
}

fn kind(r: &Result<()>) -> Option<Discriminant<FlockError>> {
    r.as_ref().err().map(discriminant)
}

fn domain(k: usize) -> String {
    format!("inst{k}.example")
}

impl Pair {
    fn new() -> Pair {
        let mut pair = Pair {
            net: FediverseNetwork::default(),
            reference: Default::default(),
            instances: Vec::new(),
            uris: Vec::new(),
        };
        for k in 0..INSTANCES {
            pair.instances.push(pair.net.register_instance(&domain(k)));
            pair.reference.register_instance(&domain(k));
        }
        for i in 0..ACTORS {
            pair.register(&format!("u{i}"), i % INSTANCES).unwrap();
        }
        pair
    }

    /// An unregistered id is the ghost `ghost<n>` on instance `n % 7`. A
    /// follow of an unregistered remote actor, which the reference accepts
    /// and then rejects, has no id form, so ghosts are only ever followed
    /// from their own instance, where both networks refuse at once.
    fn uri(&self, id: ActorId) -> ActorUri {
        match self.uris.get(id.index()) {
            Some(uri) => uri.clone(),
            None => {
                let n = id.0 - GHOSTS;
                ActorUri::new(&format!("ghost{n}"), &domain(n as usize % INSTANCES))
            }
        }
    }

    fn uris(&self, ids: &[ActorId]) -> Vec<ActorUri> {
        ids.iter().map(|&id| self.uri(id)).collect()
    }

    fn register(&mut self, name: &str, instance: usize) -> Result<ActorId> {
        let got = self.net.register_actor(name, self.instances[instance]);
        let want = self.reference.register_actor(name, &domain(instance));
        assert_eq!(
            got.is_ok(),
            want.is_ok(),
            "register {name}: {got:?} vs {want:?}"
        );
        if let (Ok(id), Ok(uri)) = (&got, want) {
            assert_eq!(id.index(), self.uris.len());
            self.uris.push(uri);
        }
        got
    }

    /// Apply one operation to both networks; both must agree on its
    /// outcome, and on the whole graph after it.
    fn both(
        &mut self,
        what: &str,
        op: impl Fn(&mut FediverseNetwork) -> Result<()>,
        op_ref: impl Fn(&mut reference::federation::FediverseNetwork) -> Result<()>,
    ) -> Result<()> {
        let got = op(&mut self.net);
        let want = op_ref(&mut self.reference);
        assert_eq!(kind(&got), kind(&want), "{what}: {got:?} vs {want:?}");
        self.assert_same(what);
        got
    }

    fn follow(&mut self, a: ActorId, b: ActorId) -> Result<()> {
        let (ua, ub) = (self.uri(a), self.uri(b));
        self.both(
            &format!("follow {ua} {ub}"),
            |n| n.follow(a, b),
            |r| r.follow(&ua, &ub),
        )
    }

    fn undo_follow(&mut self, a: ActorId, b: ActorId) -> Result<()> {
        let (ua, ub) = (self.uri(a), self.uri(b));
        self.both(
            &format!("undo {ua} {ub}"),
            |n| n.undo_follow(a, b),
            |r| r.undo_follow(&ua, &ub),
        )
    }

    fn set_also_known_as(&mut self, target: ActorId, old: ActorId) -> Result<()> {
        let (ut, uo) = (self.uri(target), self.uri(old));
        self.both(
            &format!("aka {ut} {uo}"),
            |n| n.set_also_known_as(target, old),
            |r| r.set_also_known_as(&ut, &uo),
        )
    }

    fn move_account(&mut self, old: ActorId, new: ActorId) -> Result<()> {
        let (uo, un) = (self.uri(old), self.uri(new));
        self.both(
            &format!("move {uo} {un}"),
            |n| n.move_account(old, new),
            |r| r.move_account(&uo, &un),
        )
    }

    fn step(&mut self) {
        self.net.step();
        self.reference.step();
        self.assert_same("step");
    }

    fn run_to_quiescence(&mut self) {
        self.net.run_to_quiescence();
        self.reference.run_to_quiescence();
        self.assert_same("run_to_quiescence");
    }

    /// Every actor's five collections in stored order, and the peers map.
    fn assert_same(&self, after: &str) {
        for (i, uri) in self.uris.iter().enumerate() {
            let got = self.net.actor(ActorId(i as u32)).unwrap();
            let want = self.reference.actor(uri).unwrap();
            assert_eq!(got.handle.to_string(), uri.to_string());
            assert_eq!(
                self.uris(&got.followers),
                want.followers,
                "{after}: followers of {uri}"
            );
            assert_eq!(
                self.uris(&got.following),
                want.following,
                "{after}: following of {uri}"
            );
            assert_eq!(
                self.uris(&got.pending_follows),
                want.pending_follows,
                "{after}: pending follows of {uri}"
            );
            assert_eq!(
                self.uris(&got.also_known_as),
                want.also_known_as,
                "{after}: alsoKnownAs of {uri}"
            );
            assert_eq!(
                got.moved_to.map(|id| self.uri(id)),
                want.moved_to,
                "{after}: movedTo of {uri}"
            );
        }
        let peers: BTreeMap<String, Vec<String>> = self
            .net
            .federation_peers()
            .iter()
            .enumerate()
            .map(|(k, row)| {
                let name = |i: &InstanceId| self.net.domain(*i).unwrap().to_string();
                (name(&self.instances[k]), row.iter().map(name).collect())
            })
            .collect();
        assert_eq!(peers, self.reference.federation_peers(), "{after}: peers");
    }

    /// A random registered actor, half the time one of the first eight so
    /// that operations meet on the same actors, or now and then a ghost.
    fn pick(&self, rng: &mut DetRng) -> ActorId {
        if rng.chance(0.03) {
            ActorId(GHOSTS + rng.below(14) as u32)
        } else if rng.chance(0.5) {
            ActorId(rng.below_usize(8) as u32)
        } else {
            ActorId(rng.below_usize(self.uris.len()) as u32)
        }
    }

    /// A ghost on `a`'s instance, or a random registered actor.
    fn pick_followee(&self, a: ActorId, rng: &mut DetRng) -> ActorId {
        match self.net.actor(a) {
            Some(actor) if rng.chance(0.03) => {
                let k = actor.instance.index() as u32;
                ActorId(GHOSTS + k + INSTANCES as u32 * rng.below(2) as u32)
            }
            _ if rng.chance(0.5) => ActorId(rng.below_usize(8) as u32),
            _ => ActorId(rng.below_usize(self.uris.len()) as u32),
        }
    }

    /// An instance switch the way `flock-fedisim` makes one: a new actor,
    /// the `alsoKnownAs` proof, perhaps the mover's re-follows, the Move.
    /// Now and then the proof is skipped or the mover has moved already,
    /// and the Move must be refused by both.
    fn switch(&mut self, old: ActorId, serial: usize, rng: &mut DetRng) {
        let new = match self.register(&format!("m{serial}"), rng.below_usize(INSTANCES)) {
            Ok(new) => new,
            Err(_) => return,
        };
        if rng.chance(0.9) {
            let _ = self.set_also_known_as(new, old);
        }
        if rng.chance(0.5) {
            let following = self.net.following_of(old).map(<[_]>::to_vec);
            for f in following.unwrap_or_default() {
                let _ = self.undo_follow(old, f);
                let _ = self.follow(new, f);
            }
        }
        let _ = self.move_account(old, new);
    }
}

/// One random sequence: follows and undos (remote and local, of moved and
/// unknown actors too), re-follows raced against their own Accept, Moves
/// onto existing actors, switches, and single steps or full drains in
/// between, so Moves and undos meet Follow, Accept and Undo activities
/// still in flight.
fn run_seed(seed: u64) {
    let mut rng = DetRng::new(seed);
    let mut pair = Pair::new();
    let mut serial = 0;
    // Recently used (follower, followee) pairs: reusing them makes a
    // follow, its undo and a re-follow meet in flight.
    let mut recent: Vec<(ActorId, ActorId)> = Vec::new();
    for _ in 0..160 {
        let (a, b) = if !recent.is_empty() && rng.chance(0.4) {
            recent[rng.below_usize(recent.len())]
        } else {
            let a = pair.pick(&mut rng);
            (a, pair.pick_followee(a, &mut rng))
        };
        recent.push((a, b));
        if recent.len() > 4 {
            recent.remove(0);
        }
        let roll = rng.f64();
        if roll < 0.40 {
            let _ = pair.follow(a, b);
        } else if roll < 0.50 {
            let _ = pair.undo_follow(a, b);
        } else if roll < 0.55 {
            // A follow undone in flight and made again while its Accept is
            // on the way, then perhaps a Move of the followee before it lands.
            let _ = pair.follow(a, b);
            let _ = pair.undo_follow(a, b);
            pair.step();
            let _ = pair.follow(a, b);
            if rng.chance(0.5) {
                pair.switch(b, serial, &mut rng);
                serial += 1;
            }
        } else if roll < 0.60 {
            let _ = pair.set_also_known_as(a, b);
            let _ = pair.move_account(b, a);
        } else if roll < 0.70 {
            pair.switch(b, serial, &mut rng);
            serial += 1;
        } else if roll < 0.90 {
            pair.step();
        } else {
            pair.run_to_quiescence();
        }
    }
    pair.run_to_quiescence();
}

#[test]
fn random_operation_sequences_match_the_string_keyed_reference() {
    for seed in 0..400 {
        run_seed(seed);
    }
}

/// A re-follow whose Accept is still in flight when the followee moves:
/// the follower is not among the followers the Move takes, yet follows
/// the old identity by the time the Move reaches its instance, which
/// rewrites it like any other follower there.
#[test]
fn a_move_rewrites_a_follower_whose_accept_lands_first() {
    let mut pair = Pair::new();
    // u1 and u8 share instance 1; u0 is on instance 0.
    let (o, a, b) = (ActorId(0), ActorId(1), ActorId(8));
    pair.follow(b, o).unwrap();
    pair.follow(a, o).unwrap();
    pair.undo_follow(a, o).unwrap();
    pair.step(); // o records b, then a, then drops a; Accepts in flight
    pair.follow(a, o).unwrap();
    let new = pair.register("moved", 2).unwrap();
    pair.set_also_known_as(new, o).unwrap();
    pair.move_account(o, new).unwrap();
    pair.step(); // the Accepts land before the Move; a's refollow is refused
    assert_eq!(pair.net.following_of(a).unwrap(), [] as [ActorId; 0]);
    assert_eq!(pair.net.actor(a).unwrap().pending_follows, [new]);
    pair.run_to_quiescence();
    assert_eq!(pair.net.followers_of(new).unwrap(), [a, b]);
}
