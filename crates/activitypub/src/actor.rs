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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uri_rendering() {
        let a = ActorUri::new("Alice", "One.Example");
        assert_eq!(a.to_string(), "@alice@one.example");
    }

    #[test]
    fn from_handle() {
        let h: MastodonHandle = "@bob@two.example".parse().unwrap();
        let a = ActorUri::from_handle(&h);
        assert_eq!(a, ActorUri::new("bob", "two.example"));
    }

    #[test]
    fn follower_bookkeeping_is_idempotent() {
        let mut actor = Actor::new(ActorUri::new("a", "x.example"));
        let b = ActorUri::new("b", "y.example");
        actor.add_follower(b.clone());
        actor.add_follower(b.clone());
        assert_eq!(actor.followers.len(), 1);
        actor.remove_follower(&b);
        assert!(actor.followers.is_empty());
        actor.remove_follower(&b); // no-op
    }

    #[test]
    fn move_state() {
        let mut actor = Actor::new(ActorUri::new("a", "x.example"));
        assert!(!actor.has_moved());
        actor.moved_to = Some(ActorUri::new("a", "z.example"));
        assert!(actor.has_moved());
    }
}
