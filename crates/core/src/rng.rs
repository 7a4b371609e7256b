//! Deterministic random number generation.
//!
//! The entire reproduction is seeded from a single `u64`: the same seed
//! produces bit-identical worlds, crawls, and figures on every platform.
//! We implement our own small PRNG rather than depending on `rand`'s
//! algorithm choices so that determinism is under our control (the external
//! `rand` crate is still used by property tests, where determinism across
//! versions does not matter).
//!
//! The generator is **xoshiro256\*\***, seeded through **SplitMix64** — the
//! standard pairing recommended by the xoshiro authors. On top of the raw
//! stream we provide the distribution helpers the simulator needs:
//! uniform ranges, Bernoulli, normal/lognormal (Box–Muller), exponential,
//! Poisson, Zipf, bounded Pareto, weighted choice, and Fisher–Yates shuffle.
//!
//! ## Stream forking
//!
//! [`DetRng::fork`] derives an independent child generator from a string
//! label. Subsystems fork their own streams (`world.fork("graph")`,
//! `world.fork("content")`, …) so that adding draws to one subsystem does
//! not perturb another — a property the reproducibility tests rely on.

/// SplitMix64 step; used for seeding and label hashing.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a-style hash of a string: the workspace's one cheap,
/// stable hash. It derives fork seeds here, chaos fault keys, pagination
/// cursor fingerprints, the text embedding's token buckets, and the golden
/// digests of the determinism tests. The offset basis is FNV-1a's, but the
/// multiplier is `0x1000_0000_01b3`, not the published 64-bit FNV prime
/// `0x100_0000_01b3`. Every seeded world, chaos plan and embedding derives
/// from this exact function, so the multiplier stays. Inlined because the
/// embedding calls it once per token and the workspace builds without LTO.
#[inline]
pub fn fnv1a(s: &str) -> u64 {
    fnv1a_salted(0, s)
}

/// [`fnv1a`] with `salt` XORed into its offset basis; the dataset
/// anonymizer keys its pseudonyms this way. A salt of 0 is plain [`fnv1a`].
#[inline]
pub fn fnv1a_salted(salt: u64, s: &str) -> u64 {
    let mut h: u64 = salt ^ 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// A deterministic xoshiro256\*\* generator with distribution helpers.
#[derive(Debug, Clone)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Create a generator from a seed. Any seed (including 0) is valid.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// Derive an independent child generator from a string label.
    ///
    /// Forking consumes one draw from `self`, so sibling forks created in
    /// sequence are independent even when they share a label.
    pub fn fork(&mut self, label: &str) -> DetRng {
        let mix = self.next_u64() ^ fnv1a(label);
        DetRng::new(mix)
    }

    /// The `index`-th member of a family of independent child streams
    /// rooted at `base`.
    ///
    /// Unlike [`DetRng::fork`], deriving a stream consumes nothing and
    /// depends only on `(base, index)` — never on how many streams were
    /// derived before it. That position independence is what lets
    /// per-item generators (one stream per user in content generation)
    /// run eagerly, lazily, or in any order and still produce identical
    /// output. Draw `base` once from the parent generator, then address
    /// children purely by index.
    pub fn stream(base: u64, index: u64) -> DetRng {
        // splitmix64 finalizer: decorrelates neighbouring indexes before
        // they perturb the base seed.
        let mut z = index.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        DetRng::new(base ^ (z ^ (z >> 31)))
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. Panics if `bound == 0`.
    ///
    /// Uses Lemire's multiply-shift with rejection for unbiased output.
    pub fn below(&mut self, bound: u64) -> u64 {
        // flock-lint: allow(panic) documented precondition on a caller-supplied constant; no sane fallback draw
        assert!(bound > 0, "below(0) is meaningless");
        // Lemire's method.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` in `[0, bound)`.
    #[inline]
    pub fn below_usize(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform integer in `[lo, hi]` (inclusive). Panics if `lo > hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        // flock-lint: allow(panic) documented precondition; an empty range has no uniform draw
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let span = (hi - lo) as u64 + 1;
        lo + self.below(span) as i64
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Standard normal via Box–Muller (one value per call; simple over fast).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        // Avoid ln(0).
        let u1 = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Log-normal: `exp(Normal(mu, sigma))`.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Exponential with the given rate (`lambda`). Mean is `1 / lambda`.
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        // flock-lint: allow(panic) documented precondition; the distribution is undefined for lambda <= 0
        assert!(lambda > 0.0);
        let u = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        -u.ln() / lambda
    }

    /// Poisson draw. Uses inversion for small means and a normal
    /// approximation for large ones (fine for workload generation).
    pub fn poisson(&mut self, mean: f64) -> u64 {
        // flock-lint: allow(panic) documented precondition; a negative Poisson mean is a caller bug
        assert!(mean >= 0.0);
        if mean == 0.0 {
            return 0;
        }
        if mean < 30.0 {
            let l = (-mean).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= self.f64();
                if p <= l {
                    return k;
                }
                k += 1;
                if k > 10_000 {
                    return k; // numeric safety valve
                }
            }
        } else {
            let v = self.normal(mean, mean.sqrt());
            if v < 0.0 {
                0
            } else {
                v.round() as u64
            }
        }
    }

    /// Zipf-distributed rank in `[0, n)` with exponent `s` (> 0), via
    /// rejection sampling (Devroye). Rank 0 is the most probable.
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        // flock-lint: allow(panic) documented precondition; Zipf needs a non-empty support and positive exponent
        assert!(n > 0 && s > 0.0);
        if n == 1 {
            return 0;
        }
        let nf = n as f64;
        // Rejection-inversion sampling (Hörmann & Derflinger style, simplified).
        loop {
            let u = self.f64();
            let x = if (s - 1.0).abs() < 1e-9 {
                nf.powf(u)
            } else {
                let t = 1.0 - s;
                ((nf.powf(t) - 1.0) * u + 1.0).powf(1.0 / t)
            };
            let k = x.floor().max(1.0).min(nf) as usize;
            // Accept with probability proportional to the pmf / envelope.
            let ratio = (k as f64 / x).powf(s);
            if self.f64() < ratio {
                return k - 1;
            }
        }
    }

    /// Bounded Pareto draw in `[lo, hi]` with tail exponent `alpha`.
    pub fn pareto(&mut self, lo: f64, hi: f64, alpha: f64) -> f64 {
        // flock-lint: allow(panic) documented precondition; the bounded Pareto is undefined otherwise
        assert!(lo > 0.0 && hi > lo && alpha > 0.0);
        let u = self.f64();
        let la = lo.powf(alpha);
        let ha = hi.powf(alpha);
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha)
    }

    /// Choose a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        // flock-lint: allow(panic) documented precondition; choosing from nothing is a caller bug
        assert!(!items.is_empty());
        &items[self.below_usize(items.len())]
    }

    /// Weighted choice: returns an index drawn proportionally to `weights`.
    /// Zero-weight entries are never chosen. Panics if all weights are zero
    /// or the slice is empty.
    pub fn choose_weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().copied().filter(|w| *w > 0.0).sum();
        // flock-lint: allow(panic) documented precondition; all-zero weights leave nothing to draw
        assert!(total > 0.0, "all weights zero");
        let mut target = self.f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if w <= 0.0 {
                continue;
            }
            if target < w {
                return i;
            }
            target -= w;
        }
        // Floating-point slack: return the last positive-weight index.
        weights
            .iter()
            .rposition(|&w| w > 0.0)
            // flock-lint: allow(panic) the positive-total assert above proves a positive weight exists
            .expect("checked above")
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below_usize(i + 1);
            items.swap(i, j);
        }
    }

    /// Reservoir-sample `k` items from an iterator (order not preserved).
    pub fn sample<T, I: IntoIterator<Item = T>>(&mut self, iter: I, k: usize) -> Vec<T> {
        let mut reservoir: Vec<T> = Vec::with_capacity(k);
        for (i, item) in iter.into_iter().enumerate() {
            if reservoir.len() < k {
                reservoir.push(item);
            } else {
                let j = self.below_usize(i + 1);
                if j < k {
                    reservoir[j] = item;
                }
            }
        }
        reservoir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known answers pin the exact function every seed derives from.
    /// Published FNV-1a maps `"a"` to `0xaf63_dc4c_8601_ec8c`; the
    /// multiplier makes this one differ.
    #[test]
    fn fnv1a_known_answers() {
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf74_d84c_8601_ec8c);
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 5);
    }

    #[test]
    fn forks_are_independent_of_label() {
        let mut root1 = DetRng::new(7);
        let mut root2 = DetRng::new(7);
        let mut f1 = root1.fork("graph");
        let mut f2 = root2.fork("graph");
        assert_eq!(f1.next_u64(), f2.next_u64());
        let mut g1 = DetRng::new(7).fork("graph");
        let mut g2 = DetRng::new(7).fork("content");
        assert_ne!(g1.next_u64(), g2.next_u64());
    }

    #[test]
    fn sequential_same_label_forks_differ() {
        let mut root = DetRng::new(7);
        let mut a = root.fork("x");
        let mut b = root.fork("x");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = DetRng::new(3);
        for _ in 0..10_000 {
            let v = rng.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn below_is_in_bounds_and_roughly_uniform() {
        let mut rng = DetRng::new(9);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[rng.below(10) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c} too skewed");
        }
    }

    #[test]
    fn range_inclusive_hits_endpoints() {
        let mut rng = DetRng::new(10);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            match rng.range_i64(-2, 2) {
                -2 => saw_lo = true,
                2 => saw_hi = true,
                v => assert!((-2..=2).contains(&v)),
            }
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn chance_edge_cases() {
        let mut rng = DetRng::new(11);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
        let hits = (0..100_000).filter(|_| rng.chance(0.25)).count();
        assert!((23_000..27_000).contains(&hits));
    }

    #[test]
    fn normal_moments() {
        let mut rng = DetRng::new(12);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = DetRng::new(13);
        let n = 50_000;
        let mean = (0..n).map(|_| rng.exponential(0.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn poisson_mean_small_and_large() {
        let mut rng = DetRng::new(14);
        for &m in &[0.5, 4.0, 100.0] {
            let n = 20_000;
            let mean = (0..n).map(|_| rng.poisson(m) as f64).sum::<f64>() / n as f64;
            assert!(
                (mean - m).abs() < 0.15 * m.max(1.0),
                "lambda={m} got {mean}"
            );
        }
        assert_eq!(rng.poisson(0.0), 0);
    }

    #[test]
    fn zipf_is_head_heavy_and_bounded() {
        let mut rng = DetRng::new(15);
        let n = 1000;
        let mut counts = vec![0usize; n];
        for _ in 0..100_000 {
            let k = rng.zipf(n, 1.2);
            assert!(k < n);
            counts[k] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[200]);
        // Rank 0 should dominate strongly under s=1.2.
        assert!(counts[0] as f64 / 100_000.0 > 0.1);
    }

    #[test]
    fn zipf_single_element() {
        let mut rng = DetRng::new(16);
        assert_eq!(rng.zipf(1, 1.5), 0);
    }

    #[test]
    fn pareto_bounds() {
        let mut rng = DetRng::new(17);
        for _ in 0..10_000 {
            let v = rng.pareto(1.0, 100.0, 1.1);
            assert!((1.0..=100.0).contains(&v), "out of bounds: {v}");
        }
    }

    #[test]
    fn choose_weighted_respects_weights() {
        let mut rng = DetRng::new(18);
        let weights = [0.0, 1.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[rng.choose_weighted(&weights)] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[2] as f64 / counts[1] as f64;
        assert!((2.5..3.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = DetRng::new(19);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>()); // astronomically unlikely
    }

    #[test]
    fn sample_sizes() {
        let mut rng = DetRng::new(20);
        assert_eq!(rng.sample(0..5, 10).len(), 5);
        let s = rng.sample(0..1000, 10);
        assert_eq!(s.len(), 10);
        for &x in &s {
            assert!((0..1000).contains(&x));
        }
    }

    #[test]
    fn sample_is_roughly_uniform() {
        let mut rng = DetRng::new(21);
        let mut hits = vec![0usize; 100];
        for _ in 0..5_000 {
            for x in rng.sample(0..100, 10) {
                hits[x] += 1;
            }
        }
        let (min, max) = (hits.iter().min().unwrap(), hits.iter().max().unwrap());
        assert!(*min > 350 && *max < 650, "min={min} max={max}");
    }
}
