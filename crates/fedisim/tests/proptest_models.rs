//! Property-based tests over the generative models.

use flock_core::Day;
use flock_core::{DetRng, FlockError, TwitterUserId};
use flock_fedisim::graph::{build_friend_graph, FolloweeSampler};
use flock_fedisim::instances::generate_instances;
use flock_fedisim::migration::{migration_intensity, sample_migration_day, InstanceSampler};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Followee realization as it was before the stamp table: rejection draws
/// into a fresh `BTreeSet` per list. Kept as the reference the sampler must
/// reproduce draw for draw.
fn btreeset_followees(
    self_id: TwitterUserId,
    friend_user_ids: &[TwitterUserId],
    target_count: usize,
    pool: &[TwitterUserId],
    rng: &mut DetRng,
) -> Vec<TwitterUserId> {
    let mut out: Vec<TwitterUserId> = friend_user_ids
        .iter()
        .copied()
        .filter(|&u| u != self_id)
        .collect();
    let fill = target_count.saturating_sub(out.len());
    if fill > 0 && !pool.is_empty() {
        let mut seen: BTreeSet<TwitterUserId> = out.iter().copied().collect();
        seen.insert(self_id);
        let mut added = 0;
        let mut attempts = 0;
        let max_attempts = fill * 10 + 100;
        while added < fill && attempts < max_attempts {
            attempts += 1;
            let cand = pool[rng.below_usize(pool.len())];
            if seen.insert(cand) {
                out.push(cand);
                added += 1;
            }
        }
    }
    out
}

/// The lists one sampler realized, and its generator's next draw after them.
type Realized = (Vec<Vec<TwitterUserId>>, u64);

/// Every list `self_id` would get for `targets`, in turn, from one reused
/// sampler and from the reference, each on its own `DetRng::new(seed)`.
fn both_samplers(
    pool: &[TwitterUserId],
    self_id: TwitterUserId,
    friends: &[TwitterUserId],
    targets: &[usize],
    seed: u64,
) -> (Realized, Realized) {
    let mut sampler = FolloweeSampler::new(pool.to_vec()).unwrap();
    let (mut a, mut b) = (DetRng::new(seed), DetRng::new(seed));
    let got = targets
        .iter()
        .map(|&t| sampler.realize(self_id, friends, t, &mut a))
        .collect();
    let want = targets
        .iter()
        .map(|&t| btreeset_followees(self_id, friends, t, pool, &mut b))
        .collect();
    ((got, a.next_u64()), (want, b.next_u64()))
}

/// The edges the random cases may miss: target 0, an empty pool, friends
/// past the target, and a pool smaller than the fill.
#[test]
fn followee_sampler_matches_the_reference_at_the_edges() {
    let pool: Vec<TwitterUserId> = (10..40).map(TwitterUserId).collect();
    let friends = [TwitterUserId(3), TwitterUserId(12), TwitterUserId(3)];
    let cases: [(&[TwitterUserId], &[usize]); 4] = [
        (&pool, &[0, 0, 5]),
        (&[], &[0, 7, 200]),
        (&pool, &[2, 1, 3]),
        (&pool, &[500, 40, 500]),
    ];
    for (pool, targets) in cases {
        for self_id in [TwitterUserId(0), TwitterUserId(15)] {
            let (got, want) = both_samplers(pool, self_id, &friends, targets, 11);
            assert_eq!(got, want, "pool {} targets {targets:?}", pool.len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn friend_graph_invariants_hold_for_any_params(
        seed in any::<u64>(),
        n in 2usize..400,
        m_median in 1.0f64..30.0,
        sigma in 0.1f64..1.5,
        loner in 0.0f64..0.3,
    ) {
        let mut rng = DetRng::new(seed);
        let g = build_friend_graph(n, m_median, sigma, loner, &mut rng);
        prop_assert_eq!(g.len(), n);
        for (i, friends) in (0..n).map(|i| (i, g.friends(i))) {
            let mut sorted = friends.to_vec();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), friends.len(), "duplicate edge at {}", i);
            for &f in friends {
                prop_assert!((f as usize) < n);
                prop_assert_ne!(f as usize, i, "self loop");
                prop_assert!(
                    g.friends(f as usize).contains(&(i as u32)),
                    "asymmetric edge {} -> {}", i, f
                );
            }
        }
    }

    #[test]
    fn realized_followees_are_unique_and_self_free(
        seed in any::<u64>(),
        n_friends in 0usize..40,
        target in 0usize..200,
    ) {
        let mut rng = DetRng::new(seed);
        let me = TwitterUserId(0);
        let friends: Vec<TwitterUserId> = (1..=n_friends as u64).map(TwitterUserId).collect();
        let pool: Vec<TwitterUserId> = (1_000..2_000).map(TwitterUserId).collect();
        let mut sampler = FolloweeSampler::new(pool).unwrap();
        let list = sampler.realize(me, &friends, target, &mut rng);
        let mut unique = list.clone();
        unique.sort();
        unique.dedup();
        prop_assert_eq!(unique.len(), list.len(), "duplicates");
        prop_assert!(!list.contains(&me));
        // All friends present; size at least max(friends, ~target reachable).
        for f in &friends {
            prop_assert!(list.contains(f));
        }
        prop_assert!(list.len() >= n_friends);
    }

    /// One reused sampler draws exactly what a fresh `BTreeSet` per list
    /// drew: the same lists, and the generator left at the same point.
    /// Pools hold up to 399 ids with gaps between them, targets go past
    /// the pool (so the `fill * 10 + 100` cap binds), friends sit in the
    /// pool, in its gaps and outside it, repeat, and include the migrant,
    /// and the migrant's own id is in the pool about half the time.
    #[test]
    fn followee_sampler_draws_what_a_btreeset_draws(
        seed in any::<u64>(),
        pool_len in 0usize..400,
        gap in 1u64..4,
        picks in prop::collection::vec(any::<u64>(), 0..40),
        self_in_pool in any::<bool>(),
        self_pick in any::<u64>(),
        targets in prop::collection::vec(0usize..900, 1..5),
    ) {
        let pool: Vec<TwitterUserId> =
            (0..pool_len as u64).map(|i| TwitterUserId(1_000 + i * gap)).collect();
        let self_id = match pool.len() {
            n if n > 0 && self_in_pool => pool[self_pick as usize % n],
            _ => TwitterUserId(self_pick % 1_000),
        };
        let friends: Vec<TwitterUserId> = picks
            .iter()
            .map(|&p| match (p % 4, pool.len()) {
                (0, _) | (_, 0) => TwitterUserId(1_000 + (p / 4) % (pool_len as u64 * gap + 50)),
                (1, _) => self_id,
                // A handful of slots, so picks repeat.
                (2, n) => pool[(p / 4) as usize % n.min(6)],
                (_, n) => pool[(p / 4) as usize % n],
            })
            .collect();
        let (got, want) = both_samplers(&pool, self_id, &friends, &targets, seed);
        prop_assert_eq!(got, want);
    }

    /// Pools built as running sums (a zero step repeats an id), with one
    /// neighbouring pair swapped when `swap` falls inside the pool.
    #[test]
    fn followee_pool_must_ascend_strictly(
        steps in prop::collection::vec(0u64..4, 0..12),
        swap in 0usize..16,
    ) {
        let mut ids: Vec<u64> = steps
            .iter()
            .scan(0, |sum, &step| {
                *sum += step;
                Some(*sum)
            })
            .collect();
        if swap + 1 < ids.len() {
            ids.swap(swap, swap + 1);
        }
        let ascending = ids.windows(2).all(|w| w[0] < w[1]);
        let pool: Vec<TwitterUserId> = ids.into_iter().map(TwitterUserId).collect();
        let result = FolloweeSampler::new(pool);
        prop_assert_eq!(result.is_ok(), ascending);
        if let Err(e) = result {
            prop_assert!(
                matches!(&e, FlockError::InvalidConfig(m) if m.contains("ascending")),
                "{}",
                e
            );
        }
    }

    #[test]
    fn instance_sampler_never_escapes_bounds(
        n in 1usize..3000,
        s in 0.3f64..3.5,
        seed in any::<u64>(),
    ) {
        let sampler = InstanceSampler::new(n, s);
        let mut rng = DetRng::new(seed);
        for _ in 0..200 {
            let eng = 0.1 + rng.f64() * 4.0;
            prop_assert!(sampler.sample(eng, &mut rng) < n);
        }
    }

    #[test]
    fn instance_generation_scales(n in 10usize..2000, s in 0.5f64..3.0, seed in any::<u64>()) {
        let mut rng = DetRng::new(seed);
        let instances = generate_instances(n, s, &mut rng);
        prop_assert_eq!(instances.len(), n);
        prop_assert!(instances[0].flagship);
        let mut seen = std::collections::HashSet::new();
        for (i, inst) in instances.iter().enumerate() {
            prop_assert_eq!(inst.id.index(), i);
            prop_assert!(seen.insert(inst.domain.clone()), "dup domain {}", inst.domain);
            prop_assert!(inst.created < Day(0));
        }
    }

    #[test]
    fn migration_days_always_in_collection_window(seed in any::<u64>()) {
        let mut rng = DetRng::new(seed);
        for _ in 0..200 {
            let d = sample_migration_day(&mut rng);
            prop_assert!(d.in_collection_window());
            prop_assert!(migration_intensity(d) > 0.0);
        }
    }
}
