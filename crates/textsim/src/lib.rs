//! # flock-textsim — the text substrate
//!
//! The paper's RQ3 analyses operate on post *text*: hashtag frequencies
//! (Fig. 15), cross-platform content similarity via SBERT sentence
//! embeddings and cosine similarity (Fig. 14), and toxicity via Google
//! Jigsaw's Perspective API (Fig. 16). Neither SBERT nor Perspective is
//! available offline, so this crate provides deterministic substitutes with
//! the **same interfaces and decision structure**:
//!
//! * a topic-conditioned synthetic post generator ([`gen`]) used by the
//!   world simulator,
//! * a streaming tokenizer and hashtag extractor ([`token`]),
//! * feature-hashing sentence embeddings + cosine similarity ([`mod@embed`]) —
//!   like SBERT, texts that share most content words land above the paper's
//!   0.7 similarity threshold, unrelated texts land below it; [`similar`]
//!   decides that threshold on exact integer feature counts,
//! * a lexicon + logistic toxicity scorer ([`toxicity`]) — like Perspective,
//!   it maps a post to a score in `[0, 1]` that the analysis thresholds
//!   at 0.5.
//!
//! ```
//! use flock_textsim::prelude::*;
//! use flock_core::DetRng;
//!
//! let mut rng = DetRng::new(1);
//! let gen = PostGenerator::default();
//! let post = gen.generate(Topic::Fediverse, &mut rng);
//! let para = gen.paraphrase(&post, &mut rng);
//! let (e1, e2) = (embed(&post), embed(&para));
//! assert!(cosine(&e1, &e2) > 0.7, "paraphrases are 'similar'");
//! ```

/// Declare a word list once, as both the `&[&str]` slice the post
/// generator draws from and a compiled `matches!` lookup the scorers test
/// tokens against, so the two cannot drift apart:
///
/// ```text
/// word_list! {
///     /// Docs for the slice.
///     pub const WORDS, fn is_word = ["alpha", "beta"];
/// }
/// ```
macro_rules! word_list {
    ($(#[$doc:meta])* $vis:vis const $list:ident, fn $lookup:ident = [$($word:literal),+ $(,)?];) => {
        $(#[$doc])*
        $vis const $list: &[&str] = &[$($word),+];

        #[doc = concat!("Is `word` one of [`", stringify!($list), "`]? A compiled match, not a scan.")]
        $vis fn $lookup(word: &str) -> bool {
            matches!(word, $($word)|+)
        }
    };
}

pub mod embed;
pub mod gen;
pub mod token;
pub mod topic;
pub mod toxicity;

pub mod prelude {
    pub use crate::embed::{
        cosine, embed, similar, Embedding, FeatureCounts, SIMILARITY_THRESHOLD,
    };
    pub use crate::gen::PostGenerator;
    pub use crate::token::{extract_hashtags, for_each_token, tokenize};
    pub use crate::topic::Topic;
    pub use crate::toxicity::{ToxicityScorer, TOXICITY_THRESHOLD};
}

pub use prelude::*;
