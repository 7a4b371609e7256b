//! Feature-hashing sentence embeddings — the offline stand-in for SBERT.
//!
//! §6.1 of the paper calls two posts *similar* when the cosine similarity of
//! their SBERT sentence embeddings exceeds 0.7. We reproduce the decision
//! structure with a deterministic bag-of-content-words embedding:
//!
//! * each content token is hashed into a fixed-dimension signed vector
//!   (classic feature hashing / SimHash construction),
//! * stopwords and purely-structural tokens are dropped so two unrelated
//!   posts do not look similar merely by sharing function words,
//! * vectors are L2-normalized; [`cosine`] is then a dot product.
//!
//! The hashing produces integer counts: [`FeatureCounts`] holds a post's
//! signed counts with their exact squared norm, and [`embed`] is those
//! counts as `f32`, normalized. [`similar`] decides the paper's test on the
//! counts (below).
//!
//! Texts that share most of their content words (paraphrases, cross-posts
//! with edited hashtags) land well above 0.7; posts about different topics
//! land near 0. The unit tests pin this behaviour.
//!
//! # Deciding `cosine > 0.7` on integers
//!
//! Every count is an integer, and [`embed`]'s `f32` vector holds it exactly
//! before normalizing. The float [`cosine`] of two embeddings therefore
//! differs from the exact cosine `a·b / (‖a‖·‖b‖)` only by rounding, and
//! stays within 1e-5 of it:
//!
//! * the `f32` sum of squares under each norm rounds at most 127 times by
//!   2⁻²⁴ (relative), 7.6e-6 on the cosine at worst — and not at all while a
//!   squared norm stays below 2²⁴, as it does for every real post;
//! * the square roots, divisions and products add a few 2⁻²⁴ more, and the
//!   `f64` sum next to nothing: under 5e-7 in all.
//!
//! So wherever the exact cosine lies outside `0.7 ± 1e-4`, a band ten times
//! wider than that error, the float test cannot disagree with it, and
//! [`similar`] decides with an exact `i32` dot product, comparing `dot²`
//! with `(0.7 ± 1e-4)²·‖a‖²·‖b‖²` in `f64`. Inside the band, and for any post
//! of more than 8191 content tokens, whose counts may not fit the integer
//! types, the float `cosine(&embed(a), &embed(b))` decides. Every decision
//! is thus the one the float test makes.

use crate::token::for_each_token;
use crate::topic::is_general_word;
use flock_core::rng::fnv1a;

/// Embedding dimensionality. 128 gives a negligible collision rate for
/// post-sized token sets while staying cheap to compare.
pub const DIM: usize = 128;

/// The similarity threshold used throughout the paper (§6.1).
pub const SIMILARITY_THRESHOLD: f64 = 0.7;

/// The most content tokens a post may have for [`similar`] to compare it on
/// integers. Each token moves a count by at most 4, so up to here every
/// count fits an `i16` (4 · 8191 < 2¹⁵) and every dot product of two posts
/// fits an `i32` (16 · 8191² < 2³¹). Longer posts go to the float cosine.
const MAX_EXACT_TOKENS: usize = 8191;

/// Half-width of the band around [`SIMILARITY_THRESHOLD`] inside which
/// [`similar`] leaves the decision to the float cosine: ten times that
/// cosine's worst-case rounding error.
const BAND: f64 = 1e-4;
/// `(0.7 + BAND)²`: above it, `dot² / (‖a‖²·‖b‖²)` is similar.
const ABOVE_BAND: f64 = (SIMILARITY_THRESHOLD + BAND) * (SIMILARITY_THRESHOLD + BAND);
/// `(0.7 − BAND)²`: below it, it is not.
const BELOW_BAND: f64 = (SIMILARITY_THRESHOLD - BAND) * (SIMILARITY_THRESHOLD - BAND);

/// A fixed-dimension, L2-normalized sentence embedding.
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding {
    v: [f32; DIM],
    /// Number of content tokens that contributed (0 for empty text).
    pub token_count: usize,
}

impl Embedding {
    /// The zero embedding (empty text).
    pub fn zero() -> Self {
        Embedding {
            v: [0.0; DIM],
            token_count: 0,
        }
    }

    /// Raw vector access (normalized).
    pub fn as_slice(&self) -> &[f32] {
        &self.v
    }
}

/// The integer form of an [`Embedding`]: a post's signed feature counts,
/// which [`embed`] normalizes, with their exact squared norm.
#[derive(Debug, Clone)]
pub struct FeatureCounts {
    counts: Counts,
    /// Number of content tokens that contributed (0 for empty text).
    token_count: usize,
}

// Every real post takes the narrow variant; boxing it would cost an
// allocation per post to save memory only past MAX_EXACT_TOKENS.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum Counts {
    /// A post of at most [`MAX_EXACT_TOKENS`] content tokens, and `Σ count²`.
    Narrow { counts: [i16; DIM], norm2: i32 },
    /// A longer post, at full width; only the float cosine compares it.
    Wide(Box<[i64; DIM]>),
}

impl FeatureCounts {
    /// Hash `text`'s content tokens into signed feature counts: the one
    /// feature-hashing loop, which [`embed`] builds on too.
    pub fn of(text: &str) -> Self {
        let mut wide = [0i64; DIM];
        let mut token_count = 0usize;
        for_each_token(text, |tok| {
            if is_general_word(tok) {
                return;
            }
            token_count += 1;
            let h = hash_token(tok);
            // Each token contributes to 4 coordinates with ±1 signs, SimHash-style.
            for k in 0..4 {
                let bits = h.rotate_left(16 * k as u32);
                let idx = (bits as usize) % DIM;
                wide[idx] += if (bits >> 63) & 1 == 1 { 1 } else { -1 };
            }
        });
        let counts = if token_count <= MAX_EXACT_TOKENS {
            // Lossless: |count| ≤ 4 · MAX_EXACT_TOKENS < 2¹⁵.
            let counts = wide.map(|c| c as i16);
            let norm2 = counts.iter().map(|&c| i32::from(c) * i32::from(c)).sum();
            Counts::Narrow { counts, norm2 }
        } else {
            Counts::Wide(Box::new(wide))
        };
        FeatureCounts {
            counts,
            token_count,
        }
    }

    /// The counts as `f32`, L2-normalized: the post's [`Embedding`].
    fn embedding(&self) -> Embedding {
        let mut v = match &self.counts {
            Counts::Narrow { counts, .. } => counts.map(f32::from),
            // Exact while |count| ≤ 2²⁴: any post under 2²² content tokens.
            Counts::Wide(counts) => counts.map(|c| c as f32),
        };
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 0.0 {
            for x in &mut v {
                *x /= norm;
            }
        }
        Embedding {
            v,
            token_count: self.token_count,
        }
    }
}

/// The token hash: 64-bit FNV-1a, finalized to spread its low bits.
fn hash_token(t: &str) -> u64 {
    let h = fnv1a(t);
    let h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

/// Embed a post. Deterministic: equal texts produce equal embeddings.
pub fn embed(text: &str) -> Embedding {
    FeatureCounts::of(text).embedding()
}

/// Cosine similarity of two embeddings, in `[-1, 1]`. Zero embeddings have
/// similarity 0 with everything (including themselves), matching how an
/// empty post is treated as incomparable.
pub fn cosine(a: &Embedding, b: &Embedding) -> f64 {
    a.v.iter()
        .zip(b.v.iter())
        .map(|(x, y)| f64::from(x * y))
        .sum()
}

/// Are the two posts these counts come from *similar* per the paper's
/// threshold? Always the decision `cosine(&embed(a), &embed(b)) >
/// SIMILARITY_THRESHOLD` makes on their texts, reached on the integer
/// counts wherever that is exact (see the module docs).
#[inline]
pub fn similar(a: &FeatureCounts, b: &FeatureCounts) -> bool {
    match integer_decision(a, b) {
        Some(decision) => decision,
        None => cosine(&a.embedding(), &b.embedding()) > SIMILARITY_THRESHOLD,
    }
}

/// [`similar`]'s decision from the exact integer dot product, or `None`
/// when the float cosine must decide: the exact cosine lies within
/// [`BAND`] of the threshold, or a post is past [`MAX_EXACT_TOKENS`]
/// content tokens.
#[inline]
fn integer_decision(a: &FeatureCounts, b: &FeatureCounts) -> Option<bool> {
    let (
        Counts::Narrow {
            counts: ca,
            norm2: na,
        },
        Counts::Narrow {
            counts: cb,
            norm2: nb,
        },
    ) = (&a.counts, &b.counts)
    else {
        return None;
    };
    let dot: i32 = ca
        .iter()
        .zip(cb)
        .map(|(&x, &y)| i32::from(x) * i32::from(y))
        .sum();
    if dot <= 0 {
        // The exact cosine is at most 0; this covers empty posts too.
        return Some(false);
    }
    let dot2 = f64::from(dot) * f64::from(dot);
    let norms = f64::from(*na) * f64::from(*nb);
    if dot2 > ABOVE_BAND * norms {
        Some(true)
    } else if dot2 < BELOW_BAND * norms {
        Some(false)
    } else {
        None
    }
}

/// Convenience: are two texts "similar" per the paper's threshold?
pub fn is_similar(a: &str, b: &str) -> bool {
    similar(&FeatureCounts::of(a), &FeatureCounts::of(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::PostGenerator;
    use crate::topic::Topic;
    use flock_core::{DetRng, Platform};
    use proptest::prelude::*;

    /// The float accumulation `embed` ran before the integer counts existed,
    /// kept as the reference the count-derived vector must match bit for bit.
    fn float_embed(text: &str) -> [f32; DIM] {
        let mut v = [0.0f32; DIM];
        for_each_token(text, |tok| {
            if is_general_word(tok) {
                return;
            }
            let h = hash_token(tok);
            for k in 0..4 {
                let bits = h.rotate_left(16 * k as u32);
                let idx = (bits as usize) % DIM;
                v[idx] += if (bits >> 63) & 1 == 1 { 1.0 } else { -1.0 };
            }
        });
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 0.0 {
            for x in &mut v {
                *x /= norm;
            }
        }
        v
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The decision `similar` must always reproduce.
    fn float_decision(a: &str, b: &str) -> bool {
        cosine(&embed(a), &embed(b)) > SIMILARITY_THRESHOLD
    }

    fn narrow(c: &FeatureCounts) -> (&[i16; DIM], i32) {
        match &c.counts {
            Counts::Narrow { counts, norm2 } => (counts, *norm2),
            Counts::Wide(_) => panic!("{} tokens is past MAX_EXACT_TOKENS", c.token_count),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn similar_matches_the_float_decision_on_arbitrary_text(a in ".{0,200}", b in ".{0,200}") {
            let (ca, cb) = (FeatureCounts::of(&a), FeatureCounts::of(&b));
            prop_assert_eq!(similar(&ca, &cb), float_decision(&a, &b));
            prop_assert_eq!(similar(&ca, &ca), float_decision(&a, &a));
            prop_assert_eq!(bits(embed(&a).as_slice()), bits(&float_embed(&a)));
        }

        /// Paraphrase chains drift from well above 0.7 towards it, so they
        /// exercise both sides of the threshold and the band's neighbourhood.
        #[test]
        fn similar_matches_the_float_decision_on_paraphrases(seed in any::<u64>()) {
            let mut rng = DetRng::new(seed);
            let gen = PostGenerator::default();
            let topic = *rng.choose(&Topic::ALL);
            let mut chain = vec![gen.compose(topic, Platform::Mastodon, 2, &mut rng)];
            for _ in 0..4 {
                let next = gen.paraphrase(&chain[chain.len() - 1], &mut rng);
                chain.push(next);
            }
            chain.push(gen.generate(topic, &mut rng));
            for a in &chain {
                for b in &chain {
                    let decision = similar(&FeatureCounts::of(a), &FeatureCounts::of(b));
                    prop_assert_eq!(decision, float_decision(a, b), "{:?} vs {:?}", a, b);
                }
            }
        }
    }

    /// The embedding is the normalized counts, bit for bit the vector the
    /// float accumulation produced, on either side of `MAX_EXACT_TOKENS`.
    #[test]
    fn embedding_is_the_normalized_counts() {
        let long = "sprite shader ".repeat(5000);
        let texts = [
            "",
            "the and with today",
            "Leaving for #Mastodon: shader engine sprite GameJam https://mas.to/@Alice!",
            "sprite sprite sprite engine",
            long.as_str(),
        ];
        for t in texts {
            assert_eq!(bits(embed(t).as_slice()), bits(&float_embed(t)), "{t:.40}");
        }
        let repeated = FeatureCounts::of("sprite sprite sprite engine");
        let (counts, norm2) = narrow(&repeated);
        assert_eq!(
            norm2,
            counts.iter().map(|&c| i32::from(c).pow(2)).sum::<i32>()
        );
        assert!(counts.iter().any(|&c| c.abs() >= 3), "{counts:?}");
    }

    /// A pair whose exact cosine is 0.7 itself: thirteen content words that
    /// share no coordinate, ten per post with seven in common, so
    /// `dot = 7 · 4` and `‖a‖² = ‖b‖² = 10 · 4`. Only the float cosine can
    /// decide it.
    #[test]
    fn in_band_pair_is_decided_by_the_float_cosine() {
        let a = "instance server admin timeline boost activitypub decentralized moderation remote fediverse";
        let b = "instance server admin timeline boost activitypub decentralized webfinger blocklist followers";
        let (ca, cb) = (FeatureCounts::of(a), FeatureCounts::of(b));
        let ((va, na), (vb, nb)) = (narrow(&ca), narrow(&cb));
        let dot: i32 = va
            .iter()
            .zip(vb)
            .map(|(&x, &y)| i32::from(x) * i32::from(y))
            .sum();
        assert_eq!((dot, na, nb), (28, 40, 40));
        assert_eq!(integer_decision(&ca, &cb), None);
        assert_eq!(similar(&ca, &cb), float_decision(a, b));
        // The float cosine rounds 0.7 up here.
        assert!(similar(&ca, &cb));
    }

    /// Pairs outside the band never reach the float cosine.
    #[test]
    fn pairs_outside_the_band_are_decided_on_integers() {
        let cases = [
            (
                "shader engine sprite gamejam",
                "shader engine sprite gamejam",
                true,
            ),
            (
                "shader engine sprite gamejam",
                "recipe sourdough espresso ramen",
                false,
            ),
            ("", "shader engine", false),
            ("", "", false),
        ];
        for (a, b, want) in cases {
            let decision = integer_decision(&FeatureCounts::of(a), &FeatureCounts::of(b));
            assert_eq!(decision, Some(want), "{a:?} vs {b:?}");
            assert_eq!(float_decision(a, b), want, "{a:?} vs {b:?}");
        }
    }

    /// Past `MAX_EXACT_TOKENS` content tokens a count may not fit an `i16`,
    /// so such posts are compared only by the float cosine.
    #[test]
    fn posts_past_the_token_limit_take_the_float_path() {
        let at_limit = "sprite ".repeat(MAX_EXACT_TOKENS);
        let past_limit = "sprite ".repeat(MAX_EXACT_TOKENS + 1);
        let long = "sprite shader ".repeat(5000);
        let (at, past) = (FeatureCounts::of(&at_limit), FeatureCounts::of(&past_limit));
        assert_eq!(at.token_count, MAX_EXACT_TOKENS);
        assert_eq!(past.token_count, MAX_EXACT_TOKENS + 1);
        assert!(matches!(at.counts, Counts::Narrow { .. }));
        assert!(matches!(past.counts, Counts::Wide(_)));
        assert_eq!(integer_decision(&at, &at), Some(true));
        assert_eq!(integer_decision(&past, &at), None);
        let partners = [
            "sprite",
            "shader",
            "sprite shader engine",
            "recipe sourdough",
            "",
        ];
        for b in partners
            .iter()
            .copied()
            .chain([at_limit.as_str(), past_limit.as_str()])
        {
            for a in [past_limit.as_str(), long.as_str()] {
                let decision = similar(&FeatureCounts::of(a), &FeatureCounts::of(b));
                assert_eq!(decision, float_decision(a, b), "{b:?}");
            }
        }
        assert!(is_similar(&long, "sprite shader"));
    }

    #[test]
    fn identical_texts_have_similarity_one() {
        let e1 = embed("the rust compiler is fast #rustlang");
        let e2 = embed("the rust compiler is fast #rustlang");
        assert!((cosine(&e1, &e2) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn embeddings_are_normalized() {
        let e = embed("some words to embed here");
        let norm: f32 = e.as_slice().iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn empty_text_is_zero() {
        let e = embed("");
        assert_eq!(e.token_count, 0);
        assert_eq!(cosine(&e, &e), 0.0);
        let f = embed("actual content words appear");
        assert_eq!(cosine(&e, &f), 0.0);
    }

    #[test]
    fn stopwords_do_not_contribute() {
        let e = embed("the and with today just really");
        assert_eq!(e.token_count, 0);
    }

    #[test]
    fn paraphrase_overlap_is_similar() {
        // ~80% shared content words: this is what a cross-posted status with
        // a retagged hashtag looks like.
        let a = "instance federation server admin timeline boost toot activitypub decentralized moderation";
        let b = "instance federation server admin timeline boost toot activitypub decentralized community";
        assert!(
            is_similar(a, b),
            "cosine = {}",
            cosine(&embed(a), &embed(b))
        );
    }

    #[test]
    fn unrelated_topics_are_dissimilar() {
        let a = "shader engine sprite gamejam indiedev unity godot pixelart";
        let b = "recipe sourdough espresso ramen roast fermented seasonal bakery";
        let sim = cosine(&embed(a), &embed(b));
        assert!(sim < SIMILARITY_THRESHOLD, "cosine = {sim}");
        assert!(
            sim.abs() < 0.5,
            "unrelated posts should be near-orthogonal: {sim}"
        );
    }

    #[test]
    fn similarity_is_symmetric() {
        let pairs = [
            (
                "match goal league transfer",
                "coach penalty fixture stadium",
            ),
            ("model training dataset", "model training dataset neural"),
        ];
        for (a, b) in pairs {
            let (ea, eb) = (embed(a), embed(b));
            assert!((cosine(&ea, &eb) - cosine(&eb, &ea)).abs() < 1e-12);
        }
    }

    #[test]
    fn cosine_bounded() {
        let texts = [
            "election parliament policy minister vote",
            "sketch watercolor gallery exhibition",
            "morning coffee weekend weather",
            "election parliament policy minister vote campaign",
        ];
        for a in &texts {
            for b in &texts {
                let c = cosine(&embed(a), &embed(b));
                assert!((-1.0001..=1.0001).contains(&c), "{a} vs {b}: {c}");
            }
        }
    }

    /// Known answer: the exact vector of a post that exercises case, a
    /// hashtag, punctuation and a URL. A tokenizer change that moves any
    /// token, or its order, moves this vector.
    #[test]
    fn known_answer_vector() {
        let e = embed("Leaving for #Mastodon: shader engine sprite GameJam https://mas.to/@Alice!");
        assert_eq!(e.token_count, 8);
        let (a, b) = (0.158_113_88_f32, 0.316_227_76_f32);
        let nonzero: [(usize, f32); 25] = [
            (0, -a),
            (1, a),
            (3, a),
            (9, -a),
            (10, a),
            (13, -b),
            (16, -a),
            (34, -a),
            (35, b),
            (37, b),
            (43, a),
            (47, -a),
            (48, a),
            (53, a),
            (54, a),
            (59, b),
            (67, a),
            (80, -a),
            (88, a),
            (93, -b),
            (108, a),
            (113, a),
            (120, a),
            (124, a),
            (126, -a),
        ];
        let mut expected = [0.0f32; DIM];
        for (i, x) in nonzero {
            expected[i] = x;
        }
        assert_eq!(e.as_slice(), expected.as_slice());
    }

    #[test]
    fn word_order_is_ignored() {
        // Bag-of-words by construction — like sentence embeddings, shuffling
        // words keeps the meaning vector nearly unchanged.
        let a = embed("quantum telescope genome climate fossil");
        let b = embed("fossil climate genome telescope quantum");
        assert!((cosine(&a, &b) - 1.0).abs() < 1e-6);
    }
}
