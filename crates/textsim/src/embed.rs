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
//! Texts that share most of their content words (paraphrases, cross-posts
//! with edited hashtags) land well above 0.7; posts about different topics
//! land near 0. The unit tests pin this behaviour.

use crate::token::for_each_token;
use crate::topic::GENERAL_WORDS;
use flock_core::rng::fnv1a;

/// Embedding dimensionality. 128 gives a negligible collision rate for
/// post-sized token sets while staying cheap to compare.
pub const DIM: usize = 128;

/// The similarity threshold used throughout the paper (§6.1).
pub const SIMILARITY_THRESHOLD: f64 = 0.7;

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

/// The token hash: 64-bit FNV-1a, finalized to spread its low bits.
fn hash_token(t: &str) -> u64 {
    let h = fnv1a(t);
    let h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

fn is_stopword(t: &str) -> bool {
    GENERAL_WORDS.contains(&t)
}

/// Embed a post. Deterministic: equal texts produce equal embeddings.
pub fn embed(text: &str) -> Embedding {
    let mut v = [0.0f32; DIM];
    let mut token_count = 0usize;
    for_each_token(text, |tok| {
        if is_stopword(tok) {
            return;
        }
        token_count += 1;
        let h = hash_token(tok);
        // Each token contributes to 4 coordinates with ±1 signs, SimHash-style.
        for k in 0..4 {
            let bits = h.rotate_left(16 * k as u32);
            let idx = (bits as usize) % DIM;
            let sign = if (bits >> 63) & 1 == 1 { 1.0 } else { -1.0 };
            v[idx] += sign;
        }
    });
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in &mut v {
            *x /= norm;
        }
    }
    Embedding { v, token_count }
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

/// Convenience: are two texts "similar" per the paper's threshold?
pub fn is_similar(a: &str, b: &str) -> bool {
    cosine(&embed(a), &embed(b)) > SIMILARITY_THRESHOLD
}

#[cfg(test)]
mod tests {
    use super::*;

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
