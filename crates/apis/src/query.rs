//! The Twitter search query language (the subset §3.1 needs).
//!
//! The paper's collection used the full-archive search endpoint with
//! keyword queries (`mastodon`, `"bye bye twitter"`, …), hashtag queries
//! (`#TwitterMigration`, …) and instance-link queries (`url:"mastodon.social"`).
//! This module implements a recursive-descent parser and evaluator for that
//! subset:
//!
//! * bare words — match a token, case-insensitively;
//! * `"quoted phrases"` — substring match;
//! * `#hashtags` — hashtag-token match;
//! * `url:domain` / `url:"domain"` — matches tweets containing a link to
//!   that host or a subdomain of it; a value without a `.` matches links
//!   that contain it;
//! * `from:user` — author filter;
//! * implicit AND, explicit `OR`, `-` negation, and parentheses, nested at
//!   most 128 deep.

use crate::index::Vocab;
use flock_core::{FlockError, Result};
use flock_textsim::tokenize;

/// Deepest nesting of `(` and `-` a query may use. The parser recurses
/// once per level, so deeper input is an error rather than a stack
/// overflow; the JSON reader has the same limit.
const MAX_DEPTH: usize = 128;

/// A parsed query.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    Word(Term),
    Phrase(String),
    Hashtag(Term),
    /// `url:value`, lowercase. A value with a `.` names a host: a link
    /// matches when its host is the value or ends in `.value`, so
    /// `url:mastodon.social` takes `https://a.mastodon.social/@x` but not
    /// `https://notmastodon.social/`, and `url:astodon.social` takes
    /// neither. This is the rule the index's host keys serve, so the
    /// indexed and the scanned search agree. A value without a `.`
    /// matches every link containing it.
    Url(String),
    From(String),
    Not(Box<Query>),
    And(Vec<Query>),
    Or(Vec<Query>),
}

/// A word or hashtag operand: its lowercase token and, once
/// [`Query::bind`] has run, the token's id in the bound vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub struct Term {
    /// The token, lowercase; a hashtag keeps its `#`.
    pub token: String,
    /// `None` until bound, and when the vocabulary lacks the token.
    id: Option<u32>,
}

/// One tweet as [`Query::matches`] reads it: the text and author name as
/// stored, plus the tweet's token ids in `vocab`.
#[derive(Debug, Clone, Copy)]
pub struct Doc<'a> {
    /// The text as posted; phrases match it ASCII case-insensitively.
    pub text: &'a str,
    /// The author's username; `from:` matches it ASCII case-insensitively.
    pub author: &'a str,
    /// The text's distinct token ids in `vocab`, ascending.
    pub tokens: &'a [u32],
    /// The vocabulary `tokens` index; `url:` reads the links through it.
    pub vocab: &'a Vocab,
}

/// Posting-list statistics the query planner consults when choosing which
/// token of a multi-token term to demand from the index.
pub trait TermStats {
    /// Number of indexed documents containing `token` (0 when absent).
    fn doc_frequency(&self, token: &str) -> usize;
}

/// Planner statistics that know nothing: every token looks equally common,
/// so ties resolve to the first token (the pre-statistics behaviour).
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformStats;

impl TermStats for UniformStats {
    fn doc_frequency(&self, _token: &str) -> usize {
        1
    }
}

impl Query {
    /// Parse a query string. Its terms are unbound: call [`Self::bind`]
    /// before matching.
    pub fn parse(input: &str) -> Result<Query> {
        let tokens = lex(input)?;
        let mut p = Parser {
            tokens,
            pos: 0,
            depth: 0,
        };
        let q = p.parse_or()?;
        if p.pos != p.tokens.len() {
            return Err(FlockError::InvalidQuery(format!(
                "trailing input at token {}",
                p.pos
            )));
        }
        Ok(q)
    }

    /// Resolve every word and hashtag term to its id in `vocab`, once per
    /// query, so that matching a document costs a binary search per term.
    /// Only documents whose ids come from `vocab` may be matched after.
    pub fn bind(&mut self, vocab: &Vocab) {
        match self {
            Query::Word(t) | Query::Hashtag(t) => t.id = vocab.id(&t.token),
            Query::Not(q) => q.bind(vocab),
            Query::And(qs) | Query::Or(qs) => qs.iter_mut().for_each(|q| q.bind(vocab)),
            Query::Phrase(_) | Query::Url(_) | Query::From(_) => {}
        }
    }

    /// Evaluate against one document. A term left unbound matches nothing.
    pub fn matches(&self, doc: &Doc<'_>) -> bool {
        match self {
            Query::Word(t) | Query::Hashtag(t) => {
                t.id.is_some_and(|id| doc.tokens.binary_search(&id).is_ok())
            }
            Query::Phrase(p) => contains_lowercased(doc.text, p),
            Query::Url(u) => doc
                .tokens
                .iter()
                .any(|&id| url_matches(doc.vocab.token(id), u)),
            Query::From(a) => eq_lowercased(doc.author.as_bytes(), a.as_bytes()),
            Query::Not(q) => !q.matches(doc),
            Query::And(qs) => qs.iter().all(|q| q.matches(doc)),
            Query::Or(qs) => qs.iter().any(|q| q.matches(doc)),
        }
    }

    /// The positive terms of the query (used by the index to pick posting
    /// lists): every `Word`/`Hashtag` that must be present in *all* matches.
    ///
    /// A `Phrase` contributes exactly one representative token; `stats`
    /// decides which — the token with the smallest posting list prunes the
    /// candidate set hardest (a phrase like `"bye bye twitter"` used to pin
    /// the index to its *first* token, which for common leading words made
    /// the candidate set orders of magnitude larger than necessary).
    pub fn required_tokens(&self, stats: &dyn TermStats) -> Vec<String> {
        match self {
            Query::Word(t) | Query::Hashtag(t) => vec![t.token.clone()],
            Query::Phrase(p) => {
                // Any single token of the phrase is required; demand the
                // rarest one (ties go to the earliest token).
                tokenize(p)
                    .into_iter()
                    .enumerate()
                    .min_by_key(|(i, t)| (stats.doc_frequency(t), *i))
                    .map(|(_, t)| t)
                    .into_iter()
                    .collect()
            }
            Query::And(qs) => qs.iter().flat_map(|q| q.required_tokens(stats)).collect(),
            // OR / NOT / url: / from: give no single required token.
            _ => Vec::new(),
        }
    }
}

/// Whether `token` is a link (the tokenizer keeps URLs whole).
fn is_url(token: &str) -> bool {
    token.starts_with("http://") || token.starts_with("https://")
}

/// Whether the token `token` answers `url:value` (see [`Query::Url`]).
fn url_matches(token: &str, value: &str) -> bool {
    if value.contains('.') {
        url_host(token).is_some_and(|host| host_suffixes(host).any(|s| s == value))
    } else {
        is_url(token) && token.contains(value)
    }
}

/// The host of a link token, if it is one.
pub(crate) fn url_host(token: &str) -> Option<&str> {
    let rest = token
        .strip_prefix("https://")
        .or_else(|| token.strip_prefix("http://"))?;
    let host = rest.split('/').next().unwrap_or(rest);
    (!host.is_empty()).then_some(host)
}

/// The host and every dot-suffix of it that still holds a `.`
/// (`a.b.c` → `a.b.c`, `b.c`): the values `url:` matches the host by.
pub(crate) fn host_suffixes(host: &str) -> impl Iterator<Item = &str> {
    std::iter::successors(Some(host), |h| h.split_once('.').map(|(_, rest)| rest))
        .filter(|h| h.contains('.'))
}

/// `hay.to_ascii_lowercase().contains(lower)`, without the copy.
fn contains_lowercased(hay: &str, lower: &str) -> bool {
    let (hay, lower) = (hay.as_bytes(), lower.as_bytes());
    lower.is_empty() || hay.windows(lower.len()).any(|w| eq_lowercased(w, lower))
}

/// `a.to_ascii_lowercase() == lower`, without the copy.
fn eq_lowercased(a: &[u8], lower: &[u8]) -> bool {
    a.len() == lower.len()
        && a.iter()
            .zip(lower)
            .all(|(x, y)| x.to_ascii_lowercase() == *y)
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Word(String),
    Phrase(String),
    Hashtag(String),
    Op(String, String), // name, value
    Or,
    Not,
    LParen,
    RParen,
}

fn lex(input: &str) -> Result<Vec<Tok>> {
    let mut out = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            c if c.is_whitespace() => {
                chars.next();
            }
            '(' => {
                chars.next();
                out.push(Tok::LParen);
            }
            ')' => {
                chars.next();
                out.push(Tok::RParen);
            }
            '-' => {
                chars.next();
                out.push(Tok::Not);
            }
            '"' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('"') => break,
                        Some(ch) => s.push(ch),
                        None => {
                            return Err(FlockError::InvalidQuery("unterminated quote".to_string()))
                        }
                    }
                }
                out.push(Tok::Phrase(s.to_ascii_lowercase()));
            }
            '#' => {
                chars.next();
                let mut s = String::from("#");
                while let Some(&ch) = chars.peek() {
                    if ch.is_alphanumeric() || ch == '_' {
                        s.push(ch);
                        chars.next();
                    } else {
                        break;
                    }
                }
                if s.len() == 1 {
                    return Err(FlockError::InvalidQuery("empty hashtag".to_string()));
                }
                out.push(Tok::Hashtag(s.to_ascii_lowercase()));
            }
            _ => {
                let mut s = String::new();
                while let Some(&ch) = chars.peek() {
                    if ch.is_whitespace() || ch == '(' || ch == ')' {
                        break;
                    }
                    if ch == '"' {
                        // `url:"value"` — a quoted operator value glued to
                        // the word; consume it into the token.
                        if s.ends_with(':') {
                            chars.next();
                            loop {
                                match chars.next() {
                                    Some('"') => break,
                                    Some(c2) => s.push(c2),
                                    None => {
                                        return Err(FlockError::InvalidQuery(
                                            "unterminated quote".to_string(),
                                        ))
                                    }
                                }
                            }
                        }
                        break;
                    }
                    s.push(ch);
                    chars.next();
                }
                if s.is_empty() {
                    // Defensive: never loop without consuming input.
                    chars.next();
                    continue;
                }
                if s == "OR" {
                    out.push(Tok::Or);
                } else if let Some((name, value)) = s.split_once(':') {
                    if name.is_empty() || value.is_empty() {
                        return Err(FlockError::InvalidQuery(format!("bad operator {s:?}")));
                    }
                    // Allow url:"..." — the quote may follow immediately.
                    let mut value = value.to_string();
                    if value == "\"" || value.is_empty() {
                        return Err(FlockError::InvalidQuery(format!("bad operator {s:?}")));
                    }
                    if value.starts_with('"') {
                        value = value.trim_matches('"').to_string();
                    }
                    out.push(Tok::Op(
                        name.to_ascii_lowercase(),
                        value.to_ascii_lowercase(),
                    ));
                } else {
                    out.push(Tok::Word(s.to_ascii_lowercase()));
                }
            }
        }
    }
    if out.is_empty() {
        return Err(FlockError::InvalidQuery("empty query".to_string()));
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Tok>,
    pos: usize,
    /// `(` and `-` levels open around the current term.
    depth: usize,
}

impl Parser {
    fn parse_or(&mut self) -> Result<Query> {
        let first = self.parse_and()?;
        let mut rest = Vec::new();
        while self.peek() == Some(&Tok::Or) {
            self.pos += 1;
            rest.push(self.parse_and()?);
        }
        Ok(if rest.is_empty() {
            first
        } else {
            let mut parts = vec![first];
            parts.extend(rest);
            Query::Or(parts)
        })
    }

    fn parse_and(&mut self) -> Result<Query> {
        let mut parts = Vec::new();
        while let Some(t) = self.peek() {
            if matches!(t, Tok::Or | Tok::RParen) {
                break;
            }
            parts.push(self.parse_term()?);
        }
        match parts.pop() {
            None => Err(FlockError::InvalidQuery("empty conjunction".to_string())),
            Some(only) if parts.is_empty() => Ok(only),
            Some(last) => {
                parts.push(last);
                Ok(Query::And(parts))
            }
        }
    }

    fn parse_term(&mut self) -> Result<Query> {
        let t = self
            .peek()
            .cloned()
            .ok_or_else(|| FlockError::InvalidQuery("unexpected end".to_string()))?;
        self.pos += 1;
        match t {
            Tok::Word(token) => Ok(Query::Word(Term { token, id: None })),
            Tok::Phrase(p) => Ok(Query::Phrase(p)),
            Tok::Hashtag(token) => Ok(Query::Hashtag(Term { token, id: None })),
            Tok::Op(name, value) => match name.as_str() {
                "url" => Ok(Query::Url(value)),
                "from" => Ok(Query::From(value)),
                other => Err(FlockError::InvalidQuery(format!(
                    "unsupported operator {other}:"
                ))),
            },
            Tok::Not => self.nested(|p| Ok(Query::Not(Box::new(p.parse_term()?)))),
            Tok::LParen => self.nested(|p| {
                let inner = p.parse_or()?;
                if p.peek() != Some(&Tok::RParen) {
                    return Err(FlockError::InvalidQuery("missing )".to_string()));
                }
                p.pos += 1;
                Ok(inner)
            }),
            Tok::RParen => Err(FlockError::InvalidQuery("unexpected )".to_string())),
            Tok::Or => Err(FlockError::InvalidQuery("dangling OR".to_string())),
        }
    }

    /// Run `f` one nesting level deeper, refusing to pass [`MAX_DEPTH`].
    fn nested(&mut self, f: impl FnOnce(&mut Self) -> Result<Query>) -> Result<Query> {
        if self.depth == MAX_DEPTH {
            return Err(FlockError::InvalidQuery(format!(
                "nested deeper than {MAX_DEPTH} levels"
            )));
        }
        self.depth += 1;
        let q = f(self)?;
        self.depth -= 1;
        Ok(q)
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `query` matches a tweet by `author` that has a vocabulary
    /// of its own.
    fn hit_by(query: &Query, text: &str, author: &str) -> bool {
        let mut vocab = Vocab::default();
        let mut tokens = Vec::new();
        vocab.intern_text(text, &mut tokens);
        let mut query = query.clone();
        query.bind(&vocab);
        query.matches(&Doc {
            text,
            author,
            tokens: &tokens,
            vocab: &vocab,
        })
    }

    fn hit(query: &Query, text: &str) -> bool {
        hit_by(query, text, "someone")
    }

    #[test]
    fn word_match_is_token_level() {
        let q = Query::parse("mastodon").unwrap();
        assert!(hit(&q, "joining Mastodon today"));
        assert!(hit(&q, "MASTODON!"));
        // "mastodons" is a different token — word queries are not substring
        // queries (matches Twitter's behaviour).
        assert!(!hit(&q, "mastodons are prehistoric"));
    }

    #[test]
    fn phrase_match() {
        let q = Query::parse("\"bye bye twitter\"").unwrap();
        assert!(hit(&q, "ok bye bye Twitter, it was fun"));
        assert!(!hit(&q, "bye twitter bye"));
    }

    #[test]
    fn hashtag_match() {
        let q = Query::parse("#TwitterMigration").unwrap();
        assert!(hit(&q, "here we go #twittermigration"));
        assert!(!hit(&q, "twittermigration without the tag"));
    }

    #[test]
    fn url_operator() {
        let q = Query::parse("url:mastodon.social").unwrap();
        assert!(hit(&q, "i'm at https://mastodon.social/@alice now"));
        assert!(!hit(&q, "mastodon.social is an instance")); // not a link
        let quoted = Query::parse("url:\"hachyderm.io\"").unwrap();
        assert!(hit(&quoted, "see https://hachyderm.io/@bob"));
    }

    #[test]
    fn dotted_url_values_match_hosts_and_their_subdomains() {
        let q = Query::parse("url:mastodon.social").unwrap();
        assert!(hit(&q, "at https://eu.mastodon.social/@alice"));
        assert!(hit(&q, "at http://MASTODON.social"));
        assert!(!hit(&q, "at https://notmastodon.social/@alice"));
        assert!(!hit(&q, "at https://mastodon.social.example/@alice"));
        for partial in [
            "astodon.social",
            "mastodon.social/@",
            "mastodon.",
            ".social",
        ] {
            let q = Query::parse(&format!("url:\"{partial}\"")).unwrap();
            assert!(!hit(&q, "at https://mastodon.social/@alice"), "{partial}");
        }
        // A value without a `.` still matches any link containing it.
        let q = Query::parse("url:astodon").unwrap();
        assert!(hit(&q, "at https://mastodon.social/@alice"));
        assert!(!hit(&q, "astodon but no link"));
    }

    #[test]
    fn from_operator() {
        let q = Query::parse("from:someone mastodon").unwrap();
        assert!(hit_by(&q, "mastodon time", "someone"));
        assert!(!hit_by(&q, "mastodon time", "other"));
    }

    #[test]
    fn implicit_and() {
        let q = Query::parse("good bye twitter").unwrap();
        assert!(hit(&q, "good bye cruel twitter"));
        assert!(!hit(&q, "good bye cruel world"));
    }

    #[test]
    fn or_and_parens() {
        let q = Query::parse("(mastodon OR koo) migration").unwrap();
        assert!(hit(&q, "koo migration begins"));
        assert!(hit(&q, "mastodon migration begins"));
        assert!(!hit(&q, "hive migration begins"));
    }

    #[test]
    fn negation() {
        let q = Query::parse("mastodon -#ad").unwrap();
        assert!(hit(&q, "mastodon rocks"));
        assert!(!hit(&q, "mastodon rocks #ad"));
    }

    #[test]
    fn exotic_whitespace_terminates() {
        // \u{b} (vertical tab) and friends are whitespace Rust knows but a
        // naive lexer might not: they must not hang the parser.
        for ws in ['\u{b}', '\u{c}', '\u{a0}', '\u{2028}'] {
            let q: String = String::from(ws).repeat(40);
            assert!(Query::parse(&q).is_err());
            let mixed = format!("mastodon{ws}migration");
            let parsed = Query::parse(&mixed).unwrap();
            assert!(hit(&parsed, "mastodon and migration talk"));
        }
    }

    #[test]
    fn phrases_and_authors_match_ascii_case_insensitively() {
        let q = Query::parse("\"Bye BYE\" from:SomeOne").unwrap();
        assert!(hit_by(&q, "ok bYe bye twitter", "someONE"));
        assert!(!hit_by(&q, "ok bye twitter", "someone"));
        assert!(!hit_by(&q, "ok bye bye twitter", "someone2"));
        // Only ASCII folds: `ß` and `É` must match as written.
        let q = Query::parse("\"STRAßE\"").unwrap();
        assert!(hit(&q, "die strasse, die Straße"));
        assert!(!hit(&q, "die STRASSE"));
        assert!(!hit(&Query::parse("\"é\"").unwrap(), "CAFÉ"));
        // The empty phrase is in every text, the empty one included.
        let empty = Query::parse("\"\"").unwrap();
        assert!(hit(&empty, ""));
        assert!(hit(&empty, "anything"));
    }

    #[test]
    fn unbound_terms_match_nothing() {
        let q = Query::parse("mastodon").unwrap();
        let vocab = Vocab::default();
        let doc = Doc {
            text: "mastodon",
            author: "someone",
            tokens: &[],
            vocab: &vocab,
        };
        assert!(!q.matches(&doc));
        assert!(Query::parse("-mastodon").unwrap().matches(&doc));
    }

    #[test]
    fn nesting_deeper_than_max_depth_is_an_error_not_a_stack_overflow() {
        fn parens(n: usize) -> String {
            format!("{}mastodon{}", "(".repeat(n), ")".repeat(n))
        }
        fn negations(n: usize) -> String {
            format!("{}mastodon", "-".repeat(n))
        }
        for nest in [parens, negations] {
            let deepest = Query::parse(&nest(MAX_DEPTH)).unwrap();
            assert!(hit(&deepest, "on mastodon"), "{MAX_DEPTH} levels");
            for n in [MAX_DEPTH + 1, 1_000_000] {
                assert!(
                    matches!(Query::parse(&nest(n)), Err(FlockError::InvalidQuery(_))),
                    "{n} levels parsed"
                );
            }
        }
        // Both kinds count toward one limit.
        let mixed = |n: usize| format!("{}mastodon{}", "-(".repeat(n), ")".repeat(n));
        assert!(Query::parse(&mixed(MAX_DEPTH / 2)).is_ok());
        assert!(Query::parse(&mixed(MAX_DEPTH / 2 + 1)).is_err());
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "",
            "\"unterminated",
            "mastodon OR",
            "(unclosed",
            ")",
            "#",
            "weird:",
        ] {
            assert!(Query::parse(bad).is_err(), "{bad:?} parsed");
        }
        assert!(Query::parse("unknown:value").is_err());
    }

    #[test]
    fn required_tokens_for_index() {
        let stats = UniformStats;
        assert_eq!(
            Query::parse("mastodon migration")
                .unwrap()
                .required_tokens(&stats),
            vec!["mastodon", "migration"]
        );
        assert_eq!(
            Query::parse("#Mastodon").unwrap().required_tokens(&stats),
            vec!["#mastodon"]
        );
        // Without statistics, ties resolve to the phrase's first token.
        assert_eq!(
            Query::parse("\"bye bye twitter\"")
                .unwrap()
                .required_tokens(&stats),
            vec!["bye"]
        );
        // OR queries cannot promise any single token.
        assert!(Query::parse("a OR b")
            .unwrap()
            .required_tokens(&stats)
            .is_empty());
    }

    /// Document frequencies backed by a fixed table (everything absent is 0).
    struct TableStats(Vec<(&'static str, usize)>);

    impl TermStats for TableStats {
        fn doc_frequency(&self, token: &str) -> usize {
            self.0
                .iter()
                .find(|(t, _)| *t == token)
                .map(|(_, n)| *n)
                .unwrap_or(0)
        }
    }

    #[test]
    fn phrase_planner_picks_rarest_token() {
        // "bye" is everywhere, "twitter" is rare: the planner must demand
        // the rare token so the candidate set shrinks from 5000 docs to 40.
        let stats = TableStats(vec![("bye", 5000), ("twitter", 40)]);
        let q = Query::parse("\"bye bye twitter\"").unwrap();
        assert_eq!(q.required_tokens(&stats), vec!["twitter"]);
        // The choice holds inside conjunctions too.
        let q = Query::parse("mastodon \"bye bye twitter\"").unwrap();
        assert_eq!(q.required_tokens(&stats), vec!["mastodon", "twitter"]);
    }

    #[test]
    fn paper_query_set_parses() {
        // Every query the paper's §3.1 collection used must parse.
        let queries = [
            "mastodon",
            "\"bye bye twitter\"",
            "\"good bye twitter\"",
            "#Mastodon",
            "#MastodonMigration",
            "#ByeByeTwitter",
            "#GoodByeTwitter",
            "#TwitterMigration",
            "#MastodonSocial",
            "#RIPTwitter",
            "url:\"mastodon.social\"",
        ];
        for q in queries {
            Query::parse(q).unwrap_or_else(|e| panic!("{q}: {e}"));
        }
    }
}
