//! # flock-activitypub — a miniature ActivityPub federation substrate
//!
//! Mastodon instances federate through the W3C ActivityPub protocol (§2 of
//! the paper): a user's *local* instance performs follows of *remote* users
//! on their behalf by exchanging activities between server inboxes.
//! Instance switching (§5.3) is likewise an ActivityPub mechanism — the
//! `Move` activity plus the `alsoKnownAs`/`movedTo` actor properties, which
//! cause follower instances to re-follow the new account.
//!
//! This crate implements exactly those two mechanics, deterministically and
//! fully offline:
//!
//! * [`actor`] — actor ids and records (handle, `alsoKnownAs`, `movedTo`,
//!   follower and following collections);
//! * [`federation`] — the [`FediverseNetwork`]: one table of instances and
//!   one of actors, the `Follow` → `Accept`/`Reject` handshake with its
//!   `Undo(Follow)` reconciliation, `Move` with follower transfer, and the
//!   peers map each instance exposes. Activities between instances wait in
//!   one queue and are processed in send order.
//!
//! Instances are [`flock_core::InstanceId`]s and actors [`ActorId`]s,
//! handed out in registration order; every activity and collection holds
//! ids, and each actor's handle is stored once, in its record.
//!
//! The world simulator (`flock-fedisim`) drives this substrate to build
//! the Mastodon follow graph and its instance switches.
//!
//! ```
//! use flock_activitypub::FediverseNetwork;
//!
//! let mut net = FediverseNetwork::default();
//! let one = net.register_instance("one.example");
//! let two = net.register_instance("two.example");
//! let alice = net.register_actor("alice", one).unwrap();
//! let bob = net.register_actor("bob", two).unwrap();
//! net.follow(alice, bob).unwrap();
//! net.run_to_quiescence();
//! assert_eq!(net.followers_of(bob).unwrap(), [alice]);
//! assert_eq!(net.actor(alice).unwrap().handle.to_string(), "@alice@one.example");
//! ```

pub mod actor;
pub mod federation;

pub use actor::{Actor, ActorId};
pub use federation::FediverseNetwork;
