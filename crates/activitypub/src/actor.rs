//! Actors: the federated identities behind Mastodon accounts.

use flock_core::{InstanceId, MastodonHandle};

/// An actor's index in its network's actor table, in registration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub u32);

impl ActorId {
    /// Index form, for the dense actor table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The state an instance keeps for one of its local actors.
#[derive(Debug, Clone)]
pub struct Actor {
    /// This actor's identity, `@name@domain`.
    pub handle: MastodonHandle,
    /// The instance that hosts the actor.
    pub instance: InstanceId,
    /// Actors that follow this one (local or remote).
    pub followers: Vec<ActorId>,
    /// Actors this one follows (local or remote).
    pub following: Vec<ActorId>,
    /// Identities this account is also known as (set on the *target* of a
    /// move before the `Move` activity is honoured — Mastodon requires the
    /// back-link as proof of account ownership).
    pub also_known_as: Vec<ActorId>,
    /// Where the account moved to, if it has been moved.
    pub moved_to: Option<ActorId>,
    /// Outbound follow intents awaiting the remote `Accept`. An `Accept`
    /// that arrives without a matching intent (the intent was undone while
    /// the handshake was in flight) must not establish the relationship.
    pub pending_follows: Vec<ActorId>,
    /// Actors whose `following` holds this one, in no particular order:
    /// a `Move` of this actor finds the followers to rewrite here.
    pub(crate) followed_by: Vec<ActorId>,
}

impl Actor {
    pub(crate) fn new(handle: MastodonHandle, instance: InstanceId) -> Self {
        Actor {
            handle,
            instance,
            followers: Vec::new(),
            following: Vec::new(),
            also_known_as: Vec::new(),
            moved_to: None,
            pending_follows: Vec::new(),
            followed_by: Vec::new(),
        }
    }

    /// `true` once the account has been moved away.
    pub fn has_moved(&self) -> bool {
        self.moved_to.is_some()
    }
}
