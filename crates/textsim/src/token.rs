//! Tokenization and hashtag extraction.
//!
//! [`for_each_token`] is the one tokenizer: it streams each token to a
//! callback as a borrowed `&str`, either a slice of the input (when the
//! token has no uppercase ASCII) or one reused lowercase buffer, so a post
//! costs no allocation per token. [`tokenize`] and [`extract_hashtags`]
//! collect its output for callers that want owned tokens.

/// Call `f` on every lowercase word token of `text`, in order. Hashtags
/// are kept *with* their `#` so that downstream consumers can distinguish
/// `#mastodon` (the tag) from `mastodon` (the word); URLs are kept whole;
/// everything else is split on non-alphanumeric boundaries.
///
/// The rules, per whitespace-separated word (`char::is_whitespace`, so
/// Unicode spaces such as U+00A0 and U+3000 separate words too):
///
/// * a word starting `http://` or `https://` is one token, its trailing
///   punctuation trimmed;
/// * a word starting `#` and an ASCII letter, digit or `_` is one hashtag
///   token: `#` plus that run of characters; the rest of the word is
///   dropped;
/// * otherwise every maximal run of ASCII letters, digits, `_` and `'` is
///   a token. Any other character, non-ASCII letters included, separates.
///
/// Lowercasing is ASCII-only; only a URL token can hold non-ASCII text.
pub fn for_each_token(text: &str, mut f: impl FnMut(&str)) {
    let mut buf = String::new();
    let mut emit = |tok: &str| {
        if tok.bytes().any(|b| b.is_ascii_uppercase()) {
            buf.clear();
            buf.push_str(tok);
            buf.make_ascii_lowercase();
            f(&buf);
        } else {
            f(tok);
        }
    };
    for raw in text.split_whitespace() {
        if raw.starts_with("http://") || raw.starts_with("https://") {
            emit(trim_trailing_punct(raw));
            continue;
        }
        if let Some(tag) = raw.strip_prefix('#') {
            let len = tag
                .bytes()
                .take_while(|b| b.is_ascii_alphanumeric() || *b == b'_')
                .count();
            if len > 0 {
                emit(&raw[..1 + len]);
                continue;
            }
        }
        for word in raw.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '\'')) {
            if !word.is_empty() {
                emit(word);
            }
        }
    }
}

/// Split text into owned lowercase word tokens: [`for_each_token`],
/// collected.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    for_each_token(text, |t| tokens.push(t.to_string()));
    tokens
}

/// Extract the hashtags from a post, lowercased, `#` included, in order of
/// appearance with duplicates preserved (frequency analyses count them).
pub fn extract_hashtags(text: &str) -> Vec<String> {
    let mut tags = Vec::new();
    for_each_token(text, |t| {
        if t.starts_with('#') {
            tags.push(t.to_string());
        }
    });
    tags
}

fn trim_trailing_punct(s: &str) -> &str {
    s.trim_end_matches(|c: char| !c.is_ascii_alphanumeric() && c != '/')
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The allocating tokenizer `for_each_token` replaced, kept verbatim
    /// as the reference the streaming one must reproduce token for token.
    fn reference_tokenize(text: &str) -> Vec<String> {
        let mut tokens = Vec::new();
        for raw in text.split_whitespace() {
            if raw.starts_with("http://") || raw.starts_with("https://") {
                tokens.push(trim_trailing_punct(raw).to_ascii_lowercase());
                continue;
            }
            if let Some(tag) = raw.strip_prefix('#') {
                let tag: String = tag
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                if !tag.is_empty() {
                    tokens.push(format!("#{}", tag.to_ascii_lowercase()));
                    continue;
                }
            }
            let mut current = String::new();
            for c in raw.chars() {
                if c.is_ascii_alphanumeric() || c == '_' || c == '\'' {
                    current.extend(c.to_lowercase());
                } else if !current.is_empty() {
                    tokens.push(std::mem::take(&mut current));
                }
            }
            if !current.is_empty() {
                tokens.push(current);
            }
        }
        tokens
    }

    /// Text pieces that exercise every rule: case, non-ASCII letters,
    /// `#`, `_`, `'`, URLs (with trailing punctuation and non-ASCII), and
    /// ASCII and Unicode whitespace.
    const PIECES: &[&str] = &[
        "Hello",
        "WORLD",
        "it's",
        "snake_case",
        "#Mastodon",
        "#",
        "#!",
        "#_x",
        "#Tag-Rest",
        "##double",
        "#Ünïcode",
        "Ünïcode",
        "naïve",
        "Straße",
        "https://Mas.To/@Alice!",
        "http://example.org/Ä.",
        "https://",
        "HTTPS://upper.case",
        "x,y;z",
        "'quoted'",
        "...",
        "42",
        "@bob@mastodon.social",
        " ",
        "\t",
        "\n",
        "\u{000B}",
        "\u{00A0}",
        "\u{3000}",
        "\u{2028}",
    ];

    proptest! {
        #[test]
        fn streaming_matches_the_reference(
            picks in proptest::collection::vec(0..PIECES.len(), 0..24),
            glue in proptest::collection::vec(0..PIECES.len(), 0..24),
        ) {
            let mut text = String::new();
            for (i, p) in picks.iter().enumerate() {
                text.push_str(PIECES[*p]);
                if let Some(g) = glue.get(i) {
                    text.push_str(PIECES[*g]);
                }
            }
            prop_assert_eq!(tokenize(&text), reference_tokenize(&text), "text {:?}", text);
        }

        #[test]
        fn streaming_matches_the_reference_char_by_char(
            text in "[A-Za-z0-9#_'.,!@/: \t\u{000B}\u{00A0}\u{3000}éÄßü]{0,100}",
        ) {
            prop_assert_eq!(tokenize(&text), reference_tokenize(&text));
        }
    }

    #[test]
    fn unicode_whitespace_separates_words() {
        assert_eq!(
            tokenize("a\u{000B}b\u{00A0}c\u{3000}#D"),
            vec!["a", "b", "c", "#d"]
        );
    }

    #[test]
    fn basic_tokenization() {
        assert_eq!(
            tokenize("Hello, World! It's me."),
            vec!["hello", "world", "it's", "me"]
        );
    }

    #[test]
    fn hashtags_kept_intact() {
        assert_eq!(
            tokenize("leaving. #ByeByeTwitter forever"),
            vec!["leaving", "#byebyetwitter", "forever"]
        );
    }

    #[test]
    fn hashtag_trailing_punctuation_stripped() {
        assert_eq!(
            extract_hashtags("so long! #RIPTwitter."),
            vec!["#riptwitter"]
        );
    }

    #[test]
    fn urls_kept_whole() {
        let t = tokenize("find me at https://mas.to/@alice!");
        assert!(t.contains(&"https://mas.to/@alice".to_string()));
    }

    #[test]
    fn extract_hashtags_in_order_with_duplicates() {
        assert_eq!(
            extract_hashtags("#a text #B more #a"),
            vec!["#a", "#b", "#a"]
        );
    }

    #[test]
    fn empty_and_punctuation_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("... !!! ???").is_empty());
        assert!(extract_hashtags("# #!").is_empty());
    }
}
