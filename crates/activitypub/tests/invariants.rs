//! Randomized operation-sequence tests: whatever mix of follows, unfollows
//! and moves is thrown at the network, the social graph must end in a
//! consistent state.

use flock_activitypub::{ActorUri, FediverseNetwork};
use flock_core::DetRng;

/// After quiescence, following/followers must be perfect mirrors of each
/// other.
fn assert_mirrored(net: &FediverseNetwork, actors: &[ActorUri]) {
    for a in actors {
        for b in net.following_of(a).unwrap() {
            assert!(
                net.followers_of(b).map(|f| f.contains(a)).unwrap_or(false),
                "{a} follows {b} but is not in its followers"
            );
        }
        for f in net.followers_of(a).unwrap() {
            assert!(
                net.following_of(f)
                    .map(|fl| fl.contains(a))
                    .unwrap_or(false),
                "{f} listed as follower of {a} but does not follow it"
            );
        }
    }
}

fn build_actors(net: &mut FediverseNetwork, n: usize) -> Vec<ActorUri> {
    (0..n)
        .map(|i| {
            net.register_actor(&format!("u{i}"), &format!("inst{}.example", i % 7))
                .unwrap()
        })
        .collect()
}

#[test]
fn random_follow_unfollow_sequences_stay_mirrored() {
    for seed in 0..5 {
        let mut net = FediverseNetwork::default();
        let actors = build_actors(&mut net, 30);
        let mut rng = DetRng::new(seed ^ 0xF00);
        for _ in 0..400 {
            let a = &actors[rng.below_usize(actors.len())];
            let b = &actors[rng.below_usize(actors.len())];
            if a == b {
                continue;
            }
            if rng.chance(0.7) {
                net.follow(a, b).unwrap();
            } else {
                net.undo_follow(a, b).unwrap();
            }
            if rng.chance(0.2) {
                net.run_to_quiescence();
            }
        }
        net.run_to_quiescence();
        assert_mirrored(&net, &actors);
    }
}

#[test]
fn random_sequences_with_moves_stay_mirrored() {
    let mut net = FediverseNetwork::default();
    let actors = build_actors(&mut net, 25);
    let mut rng = DetRng::new(0xBEEF);
    // Build a social graph.
    for _ in 0..300 {
        let a = &actors[rng.below_usize(actors.len())];
        let b = &actors[rng.below_usize(actors.len())];
        if a != b {
            net.follow(a, b).unwrap();
        }
    }
    net.run_to_quiescence();

    // Move a handful of accounts, interleaved with more follows.
    let mut all = actors.clone();
    for k in 0..5 {
        let old = actors[k * 3].clone();
        let new = net
            .register_actor(&format!("moved{k}"), "newhome.example")
            .unwrap();
        net.set_also_known_as(&new, &old).unwrap();
        // The mover re-follows from the new identity first.
        for f in net.following_of(&old).unwrap().to_vec() {
            net.undo_follow(&old, &f).unwrap();
            net.follow(&new, &f).unwrap();
        }
        net.move_account(&old, &new).unwrap();
        net.run_to_quiescence();
        all.push(new);
        // Interleave unrelated follows; follows from/of moved accounts are
        // rejected with Forbidden, which is the correct behaviour.
        for _ in 0..20 {
            let a = &actors[rng.below_usize(actors.len())];
            let b = &actors[rng.below_usize(actors.len())];
            if a != b {
                match net.follow(a, b) {
                    Ok(()) => {}
                    Err(flock_core::FlockError::Forbidden(_)) => {}
                    Err(e) => panic!("{e}"),
                }
            }
        }
        net.run_to_quiescence();
    }
    assert_mirrored(&net, &all);
    // Moved accounts hold no relationships.
    for k in 0..5 {
        let old = &actors[k * 3];
        assert!(net.followers_of(old).unwrap().is_empty());
        assert!(net.following_of(old).unwrap().is_empty());
    }
}
