//! The Twitter social graph, realized the way the paper could see it.
//!
//! The paper crawls **followee lists of migrated users only** (§3.3 — the
//! Twitter follows API was too rate-limited for more). We mirror that: the
//! simulator realizes full followee lists for ground-truth migrants and
//! keeps scalar degree targets for everyone else.
//!
//! A migrant's followees are a mixture of:
//!
//! * **migrant friends** — edges of a preferential-attachment "friend
//!   graph" drawn among migrants. These are the followees who also migrate,
//!   the quantity RQ2 measures (mean 5.99% of followees, 3.94% of users
//!   with none);
//! * **non-migrant fill** — uniformly sampled non-migrating users, padding
//!   the list up to the user's followee-count target.
//!
//! The friend graph is also what the migration model's herding and the
//! switching model's "friends moved there first" behaviour read.

use flock_core::{DetRng, FlockError, Result, TwitterUserId};

/// Undirected friend graph over the migrant subset, by migrant index
/// (positions in the world's migrant list, *not* raw user ids).
#[derive(Debug, Clone)]
pub struct MigrantFriendGraph {
    /// Adjacency list; `adj[i]` holds migrant indices, sorted, deduped.
    pub adj: Vec<Vec<u32>>,
}

impl MigrantFriendGraph {
    /// Number of migrants.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// `true` if there are no migrants.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Friends of migrant `i`.
    pub fn friends(&self, i: usize) -> &[u32] {
        &self.adj[i]
    }

    /// Mean degree.
    pub fn mean_degree(&self) -> f64 {
        if self.adj.is_empty() {
            return 0.0;
        }
        self.adj.iter().map(Vec::len).sum::<usize>() as f64 / self.adj.len() as f64
    }
}

/// Build the migrant friend graph by preferential attachment.
///
/// Migrants are processed in a random order; each brings
/// `m ~ LogNormal(ln(m_median), sigma)` stubs attached to existing migrants
/// with probability proportional to `degree + 1`. A `loner_fraction` of
/// migrants contribute no stubs of their own (they can still be chosen as
/// targets, but rarely — this yields the ~4% of migrants none of whose
/// followees migrate).
pub fn build_friend_graph(
    n_migrants: usize,
    m_median: f64,
    sigma: f64,
    loner_fraction: f64,
    rng: &mut DetRng,
) -> MigrantFriendGraph {
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n_migrants];
    if n_migrants < 2 {
        return MigrantFriendGraph { adj };
    }
    let mut order: Vec<u32> = (0..n_migrants as u32).collect();
    rng.shuffle(&mut order);

    // Loners contribute no stubs and are never chosen as targets: these are
    // the migrants none of whose followees migrate (§5.2's 3.94%).
    let loner: Vec<bool> = (0..n_migrants)
        .map(|_| rng.chance(loner_fraction))
        .collect();

    // Repeated-nodes trick for preferential attachment: `targets` holds one
    // entry per degree endpoint, so uniform sampling from it is
    // degree-proportional.
    let mut targets: Vec<u32> = Vec::with_capacity(n_migrants * (m_median as usize).max(1) * 2);
    let mut arrived: Vec<u32> = Vec::with_capacity(n_migrants);

    for &node in &order {
        if loner[node as usize] {
            continue;
        }
        if arrived.is_empty() {
            arrived.push(node);
            targets.push(node);
            continue;
        }
        let m = rng.lognormal(m_median.ln(), sigma).round().max(1.0) as usize;
        let m = m.min(arrived.len());
        let mut chosen: Vec<u32> = Vec::with_capacity(m);
        let mut attempts = 0;
        while chosen.len() < m && attempts < m * 20 {
            attempts += 1;
            // Mix degree-proportional and uniform choice (uniform share
            // keeps low-degree nodes reachable, producing a softer tail).
            let t = if rng.chance(0.8) && !targets.is_empty() {
                targets[rng.below_usize(targets.len())]
            } else {
                arrived[rng.below_usize(arrived.len())]
            };
            if t != node && !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        for &t in &chosen {
            adj[node as usize].push(t);
            adj[t as usize].push(node);
            targets.push(node);
            targets.push(t);
        }
        arrived.push(node);
        targets.push(node); // baseline attractiveness
    }

    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }
    MigrantFriendGraph { adj }
}

/// Realizes migrants' full followee lists: their migrated friends (mapped
/// to user ids), then non-migrant fill drawn uniformly from one pool up to
/// each migrant's followee-count target.
///
/// One sampler serves every migrant of a world. The fill is drawn by
/// rejection: `pool[rng.below_usize(pool.len())]`, at most
/// `fill * 10 + 100` draws, each kept unless that id is already in the
/// list or is the migrant. Membership is one `u32` stamp per pool slot
/// rather than a set per list: every call takes a fresh stamp, so a slot
/// holds this call's stamp exactly when its id is already taken, and the
/// test per draw is one load. The pool is strictly ascending (checked at
/// construction), so slots and ids are one-to-one, and a friend is found
/// in it by binary search; an id outside the pool can never be drawn and
/// needs no stamp.
#[derive(Debug, Clone)]
pub struct FolloweeSampler {
    pool: Vec<TwitterUserId>,
    /// `stamps[i] == stamp` while `pool[i]` is taken in the current list.
    stamps: Vec<u32>,
    /// The current call's stamp; the table starts at 0, which no call uses.
    stamp: u32,
}

impl FolloweeSampler {
    /// A sampler over `pool`, which must be strictly ascending (a pool in
    /// any other order is [`FlockError::InvalidConfig`]). It may be empty:
    /// every list is then its friends alone.
    pub fn new(pool: Vec<TwitterUserId>) -> Result<Self> {
        if let Some(w) = pool.windows(2).find(|w| w[0] >= w[1]) {
            return Err(FlockError::InvalidConfig(format!(
                "followee pool must be strictly ascending, found {} then {}",
                w[0], w[1]
            )));
        }
        let stamps = vec![0; pool.len()];
        Ok(FolloweeSampler {
            pool,
            stamps,
            stamp: 0,
        })
    }

    /// The followee list of `self_id`: every entry of `friend_user_ids`
    /// other than `self_id`, in order, then fill drawn from the pool until
    /// the list reaches `target_count` or the draws run out. Drawn ids are
    /// distinct and never `self_id` or a friend. The list is allocated
    /// once, at the longest it can grow to.
    pub fn realize(
        &mut self,
        self_id: TwitterUserId,
        friend_user_ids: &[TwitterUserId],
        target_count: usize,
        rng: &mut DetRng,
    ) -> Vec<TwitterUserId> {
        let friends = friend_user_ids.iter().copied().filter(|&u| u != self_id);
        let n_friends = friends.clone().count();
        let fill = target_count.saturating_sub(n_friends);
        let mut out = Vec::with_capacity(n_friends + fill.min(self.pool.len()));
        out.extend(friends);
        if fill == 0 || self.pool.is_empty() {
            return out;
        }
        let stamp = self.next_stamp();
        for id in out.iter().chain([&self_id]) {
            if let Ok(slot) = self.pool.binary_search(id) {
                self.stamps[slot] = stamp;
            }
        }
        let mut added = 0;
        let mut attempts = 0;
        let max_attempts = fill.saturating_mul(10).saturating_add(100);
        while added < fill && attempts < max_attempts {
            attempts += 1;
            let slot = rng.below_usize(self.pool.len());
            if self.stamps[slot] != stamp {
                self.stamps[slot] = stamp;
                out.push(self.pool[slot]);
                added += 1;
            }
        }
        out
    }

    /// A stamp no slot carries. When the counter wraps, stamps left from
    /// 2^32 calls ago could match again, so the table is cleared first.
    fn next_stamp(&mut self) -> u32 {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.stamps.fill(0);
            self.stamp = 1;
        }
        self.stamp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn friend_graph_is_symmetric_and_loopless() {
        let mut rng = DetRng::new(1);
        let g = build_friend_graph(500, 12.0, 0.9, 0.04, &mut rng);
        for (i, friends) in g.adj.iter().enumerate() {
            for &f in friends {
                assert_ne!(f as usize, i, "self loop at {i}");
                assert!(
                    g.adj[f as usize].contains(&(i as u32)),
                    "asymmetric edge {i} -> {f}"
                );
            }
            let mut d = friends.clone();
            d.dedup();
            assert_eq!(d.len(), friends.len(), "duplicate edges at {i}");
        }
    }

    #[test]
    fn mean_degree_tracks_m_median() {
        let mut rng = DetRng::new(2);
        let g = build_friend_graph(2000, 15.0, 0.9, 0.04, &mut rng);
        let d = g.mean_degree();
        // Each non-loner contributes ~m edges; with the log-normal tail the
        // mean degree lands in the ballpark of 2 × median-ish.
        assert!((15.0..80.0).contains(&d), "mean degree {d}");
    }

    #[test]
    fn loners_exist() {
        let mut rng = DetRng::new(3);
        let g = build_friend_graph(2000, 15.0, 0.9, 0.08, &mut rng);
        let isolated = g.adj.iter().filter(|a| a.is_empty()).count();
        assert!(isolated > 0, "expected some isolated migrants");
        assert!(
            (isolated as f64) < 0.2 * g.len() as f64,
            "too many isolated: {isolated}"
        );
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let mut rng = DetRng::new(4);
        let g = build_friend_graph(3000, 12.0, 1.0, 0.04, &mut rng);
        let mut degrees: Vec<usize> = g.adj.iter().map(Vec::len).collect();
        degrees.sort_unstable();
        let median = degrees[degrees.len() / 2] as f64;
        let max = *degrees.last().unwrap() as f64;
        assert!(
            max > median * 5.0,
            "hub-free graph: median {median}, max {max}"
        );
    }

    #[test]
    fn tiny_graphs() {
        let mut rng = DetRng::new(5);
        assert_eq!(build_friend_graph(0, 10.0, 1.0, 0.0, &mut rng).len(), 0);
        assert_eq!(
            build_friend_graph(1, 10.0, 1.0, 0.0, &mut rng).adj[0].len(),
            0
        );
        let g2 = build_friend_graph(2, 10.0, 1.0, 0.0, &mut rng);
        assert_eq!(g2.len(), 2);
    }

    #[test]
    fn realize_followees_contains_friends_and_hits_target() {
        let mut rng = DetRng::new(6);
        let me = TwitterUserId(0);
        let friends: Vec<TwitterUserId> = (1..=10).map(TwitterUserId).collect();
        let pool: Vec<TwitterUserId> = (100..1100).map(TwitterUserId).collect();
        let mut sampler = FolloweeSampler::new(pool).unwrap();
        let list = sampler.realize(me, &friends, 50, &mut rng);
        assert_eq!(list.len(), 50);
        assert_eq!(list.capacity(), 50, "reserved at the target");
        assert_eq!(&list[..10], &friends[..], "friends lead, in order");
        let unique: std::collections::BTreeSet<_> = list.iter().collect();
        assert_eq!(unique.len(), list.len(), "duplicates in followees");
        assert!(!list.contains(&me));
    }

    #[test]
    fn realize_followees_when_friends_exceed_target() {
        let mut rng = DetRng::new(7);
        let me = TwitterUserId(0);
        let friends: Vec<TwitterUserId> = (1..=30).map(TwitterUserId).collect();
        let pool: Vec<TwitterUserId> = (100..200).map(TwitterUserId).collect();
        let mut sampler = FolloweeSampler::new(pool).unwrap();
        // Target smaller than friend count: all friends still included
        // (the relationship exists regardless of the scalar target).
        let list = sampler.realize(me, &friends, 10, &mut rng);
        assert_eq!(list, friends);
        assert_eq!(list.capacity(), 30);
    }

    /// When the stamp counter wraps, slots still carrying an old stamp
    /// must not read as taken: the table is cleared, and the call draws
    /// exactly what a fresh sampler draws.
    #[test]
    fn a_wrapped_stamp_clears_the_table() {
        let me = TwitterUserId(0);
        let friends = [TwitterUserId(7)];
        let pool: Vec<TwitterUserId> = (1..300).map(TwitterUserId).collect();
        let mut fresh = FolloweeSampler::new(pool.clone()).unwrap();
        let mut worn = FolloweeSampler::new(pool).unwrap();
        worn.stamps.fill(1);
        worn.stamp = u32::MAX;
        for seed in 0..3 {
            let (mut a, mut b) = (DetRng::new(seed), DetRng::new(seed));
            let want = fresh.realize(me, &friends, 120, &mut a);
            assert_eq!(worn.realize(me, &friends, 120, &mut b), want);
            assert_eq!(want.len(), 120);
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_eq!(worn.stamp, 3);
    }

    #[test]
    fn deterministic() {
        let build = |seed| {
            let mut rng = DetRng::new(seed);
            build_friend_graph(400, 10.0, 0.8, 0.05, &mut rng).adj
        };
        assert_eq!(build(9), build(9));
        assert_ne!(build(9), build(10));
    }
}
