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
//!   0.7 similarity threshold, unrelated texts land below it,
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

pub mod embed;
pub mod gen;
pub mod token;
pub mod topic;
pub mod toxicity;

pub mod prelude {
    pub use crate::embed::{cosine, embed, Embedding, SIMILARITY_THRESHOLD};
    pub use crate::gen::PostGenerator;
    pub use crate::token::{extract_hashtags, for_each_token, tokenize};
    pub use crate::topic::Topic;
    pub use crate::toxicity::{ToxicityScorer, TOXICITY_THRESHOLD};
}

pub use prelude::*;
