//! Lexicon + logistic toxicity scoring — the offline stand-in for the
//! Perspective API's `TOXICITY` attribute (§6.3).
//!
//! Perspective maps a post to a score in `[0, 1]`; the paper thresholds at
//! 0.5. Our scorer does the same: a post accumulates logit mass for each
//! lexicon hit (strong insults weigh more than mild negativity) and the
//! logit is squashed through a sigmoid. Clean text scores ≈ 0.04, mildly
//! negative text ≈ 0.1–0.3, and text with two or more strong insults —
//! which is what the generator's "toxic" mode produces — scores > 0.5.

use crate::token::for_each_token;

/// The threshold the paper uses to call a post toxic (§6.3: "we use 0.5").
pub const TOXICITY_THRESHOLD: f64 = 0.5;

word_list! {
    /// Strong insult vocabulary. (Deliberately mild placeholder insults — the
    /// *scoring mechanics*, not the lexicon contents, are what the reproduction
    /// exercises.)
    const STRONG, fn is_strong = [
        "idiot", "moron", "idiots", "morons", "pathetic", "scumbag", "garbage", "trash", "clown",
        "clowns", "loser", "losers", "disgusting", "fraud", "liar", "liars", "stupid", "imbecile",
    ];
}

word_list! {
    /// Mild negativity; contributes but does not cross the threshold alone.
    const MILD, fn is_mild = [
        "hate", "awful", "terrible", "worst", "dumb", "shut", "ridiculous", "useless", "nonsense",
        "whining", "annoying", "ugly",
    ];
}

const BASE_LOGIT: f64 = -3.2;
const STRONG_LOGIT: f64 = 2.4;
const MILD_LOGIT: f64 = 0.9;

/// A deterministic toxicity scorer with the Perspective-API interface:
/// text in, score in `[0, 1]` out.
#[derive(Debug, Clone, Default)]
pub struct ToxicityScorer;

impl ToxicityScorer {
    /// Create a scorer.
    pub fn new() -> Self {
        ToxicityScorer
    }

    /// Score a post. 0 = clean, 1 = maximally toxic.
    pub fn score(&self, text: &str) -> f64 {
        let mut logit = BASE_LOGIT;
        for_each_token(text, |tok| {
            let t = tok.strip_prefix('#').unwrap_or(tok);
            if is_strong(t) {
                logit += STRONG_LOGIT;
            } else if is_mild(t) {
                logit += MILD_LOGIT;
            }
        });
        sigmoid(logit)
    }

    /// Perspective-style decision: is the post toxic at the paper's 0.5
    /// threshold?
    pub fn is_toxic(&self, text: &str) -> bool {
        self.score(text) > TOXICITY_THRESHOLD
    }
}

/// The vocabulary the post generator draws from when asked to produce a
/// toxic post. Re-exported so the generator and the scorer cannot drift
/// apart.
pub fn strong_lexicon() -> &'static [&'static str] {
    STRONG
}

/// Mild-negativity lexicon (see [`strong_lexicon`]).
pub fn mild_lexicon() -> &'static [&'static str] {
    MILD
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_text_scores_low() {
        let s = ToxicityScorer::new();
        let score = s.score("lovely sunset over the harbour tonight #photography");
        assert!(score < 0.1, "score = {score}");
        assert!(!s.is_toxic("what a great concert"));
    }

    #[test]
    fn empty_text_scores_base() {
        let s = ToxicityScorer::new();
        assert!(s.score("") < 0.05);
    }

    #[test]
    fn single_strong_insult_is_below_threshold() {
        // One insult reads as heated, not "likely to make people leave".
        let s = ToxicityScorer::new();
        let score = s.score("that referee is an idiot");
        assert!(score > 0.1 && score < TOXICITY_THRESHOLD, "score = {score}");
    }

    #[test]
    fn two_strong_insults_cross_threshold() {
        let s = ToxicityScorer::new();
        let score = s.score("you pathetic clown nobody wants you here");
        assert!(score > TOXICITY_THRESHOLD, "score = {score}");
        assert!(s.is_toxic("stupid pathetic garbage take"));
    }

    #[test]
    fn mild_words_accumulate_but_slowly() {
        let s = ToxicityScorer::new();
        let one = s.score("this is awful");
        let many = s.score("awful terrible worst dumb ridiculous");
        assert!(one < 0.2);
        assert!(many > one);
        // Even five mild words read as negative, borderline toxic.
        assert!(many > 0.5, "score = {many}");
    }

    #[test]
    fn score_is_monotone_in_insult_count() {
        let s = ToxicityScorer::new();
        let mut prev = 0.0;
        let mut text = String::from("take");
        for _ in 0..5 {
            text.push_str(" idiot");
            let score = s.score(&text);
            assert!(score > prev);
            prev = score;
        }
        assert!(prev > 0.9);
    }

    #[test]
    fn scores_bounded() {
        let s = ToxicityScorer::new();
        let big = "idiot ".repeat(500);
        let score = s.score(&big);
        assert!((0.0..=1.0).contains(&score));
    }

    #[test]
    fn hashtags_of_insults_count() {
        let s = ToxicityScorer::new();
        assert!(s.score("#idiot #clown energy") > s.score("neutral words here"));
    }

    /// Known answers: exact scores, so a tokenizer change that drops,
    /// adds or reorders a lexicon hit shows up here.
    #[test]
    fn known_answer_scores() {
        let s = ToxicityScorer::new();
        assert_eq!(
            s.score("You PATHETIC clown, #garbage take!"),
            0.982_013_790_037_908_5
        );
        assert_eq!(s.score("this is awful"), 0.091_122_961_014_856_12);
        assert_eq!(s.score("lovely quiet morning"), 0.039_165_722_796_764_356);
        assert_eq!(s.score(""), s.score("lovely quiet morning"));
    }

    /// The compiled lookups find every listed word, and only those.
    #[test]
    fn lexicon_lookups_match_their_lists() {
        for w in STRONG {
            assert!(is_strong(w) && !is_mild(w), "{w}");
        }
        for w in MILD {
            assert!(is_mild(w) && !is_strong(w), "{w}");
        }
        for near in ["idiotic", "hat", "thee", "idio", "clown ", "Idiot", ""] {
            assert!(!is_strong(near) && !is_mild(near), "{near:?}");
        }
        let s = ToxicityScorer::new();
        assert_eq!(s.score("idiotic hat thee"), s.score(""));
    }

    #[test]
    fn case_insensitive() {
        let s = ToxicityScorer::new();
        assert_eq!(s.score("IDIOT CLOWN"), s.score("idiot clown"));
    }
}
