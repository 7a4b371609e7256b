//! A tour of the ActivityPub substrate on its own: remote follows, then a
//! §5.3-style account move with follower transfer.
//!
//! ```sh
//! cargo run --release --example federation_demo
//! ```

use flock::activitypub::{ActorUri, FediverseNetwork};

fn names(uris: &[ActorUri]) -> Vec<String> {
    uris.iter().map(ToString::to_string).collect()
}

fn main() {
    let mut net = FediverseNetwork::default();
    let alice = net.register_actor("alice", "mastodon.social").unwrap();
    let bob = net.register_actor("bob", "hachyderm.io").unwrap();
    let carol = net.register_actor("carol", "sigmoid.social").unwrap();

    println!("== remote follows ==");
    net.follow(&bob, &alice).unwrap();
    net.follow(&carol, &alice).unwrap();
    let steps = net.run_to_quiescence();
    println!(
        "handshakes done in {steps} steps; alice's followers: {:?}\n",
        names(net.followers_of(&alice).unwrap())
    );

    println!("== account move (the §5.3 instance switch) ==");
    let alice_new = net.register_actor("alice", "historians.social").unwrap();
    net.set_also_known_as(&alice_new, &alice).unwrap();
    net.move_account(&alice, &alice_new).unwrap();
    let steps = net.run_to_quiescence();
    println!("move propagated in {steps} steps");
    println!(
        "old account followers: {} (drained), new account followers: {:?}",
        net.followers_of(&alice).unwrap().len(),
        names(net.followers_of(&alice_new).unwrap())
    );
    let dave = net.register_actor("dave", "mas.to").unwrap();
    net.follow(&dave, &alice).unwrap();
    net.run_to_quiescence();
    println!(
        "a late follow of the old identity is rejected: dave follows {:?}",
        names(net.following_of(&dave).unwrap())
    );
}
