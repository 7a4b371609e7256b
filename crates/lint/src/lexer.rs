//! A minimal, line-accurate Rust lexer.
//!
//! The build environment is offline, so `flock-lint` cannot pull in a real
//! parser (`syn`, `ra_ap_syntax`, …). Its line rules are lexical —
//! forbidden call patterns, forbidden type names, `.lock()` nesting — and
//! its call graph is recovered from the same tokens, so a token stream is
//! enough, *provided* the lexer gets the hard parts right: strings, raw
//! strings vs raw identifiers, char literals vs lifetimes, and nested block
//! comments must never leak fake identifiers into the stream or swallow
//! real code, and every token must carry its true line.
//!
//! Alongside the token stream the lexer collects `flock-lint:` control
//! comments (the escape hatch), because rules must be able to consult the
//! directive that suppresses them.

/// One lexed token: an identifier/number word, or a single punctuation char.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub text: String,
    pub line: u32,
    pub is_ident: bool,
}

impl Token {
    /// `true` if this token is the identifier `word`.
    pub fn is(&self, word: &str) -> bool {
        self.is_ident && self.text == word
    }

    /// `true` if this token is the punctuation character `ch`.
    pub fn punct(&self, ch: char) -> bool {
        !self.is_ident && self.text.len() == ch.len_utf8() && self.text.starts_with(ch)
    }
}

/// A parsed `// flock-lint: allow(<rule>) <reason>` control comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Directive {
    pub line: u32,
    pub rule: String,
    /// The justification text after the closing paren; `None` when absent.
    /// Rules treat a missing reason as its own finding.
    pub reason: Option<String>,
}

/// The result of lexing one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub directives: Vec<Directive>,
    /// Comments that *look like* control comments but did not parse
    /// (`flock-lint:` without a well-formed `allow(...)`).
    pub malformed_directives: Vec<u32>,
}

const DIRECTIVE_TAG: &str = "flock-lint:";

/// Lex `src` into identifier/punctuation tokens plus control comments.
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    let n = chars.len();

    let is_ident_start = |c: char| c.is_alphanumeric() || c == '_';

    while i < n {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < n && chars[i + 1] == '/' => {
                let start = i + 2;
                // Doc comments (`///`, `//!`) are rendered prose, not
                // control comments — the tag may appear there as an example.
                let is_doc = matches!(chars.get(start), Some('/') | Some('!'));
                while i < n && chars[i] != '\n' {
                    i += 1;
                }
                if !is_doc {
                    let comment: String = chars[start..i].iter().collect();
                    scan_directive(&comment, line, &mut out);
                }
            }
            '/' if i + 1 < n && chars[i + 1] == '*' => {
                // Block comments nest in Rust.
                let mut depth = 1u32;
                i += 2;
                while i < n && depth > 0 {
                    if chars[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                i += 1;
                skip_string_body(&chars, &mut i, &mut line);
            }
            'r' | 'b' if raw_prefix_len(&chars, i) > 0 => {
                i += raw_prefix_len(&chars, i);
                if i < n && chars[i] == '\'' {
                    // b'x' byte char literal.
                    i += 1;
                    skip_char_body(&chars, &mut i);
                } else if i < n && chars[i] == '"' {
                    // b"...": escaped byte string.
                    i += 1;
                    skip_string_body(&chars, &mut i, &mut line);
                } else {
                    // r"...", r#"..."#, br#"..."#: raw string, no escapes.
                    let mut hashes = 0usize;
                    while i < n && chars[i] == '#' {
                        hashes += 1;
                        i += 1;
                    }
                    i += 1; // opening quote
                    loop {
                        if i >= n {
                            break;
                        }
                        if chars[i] == '\n' {
                            line += 1;
                            i += 1;
                            continue;
                        }
                        if chars[i] == '"' {
                            let mut j = i + 1;
                            let mut h = 0usize;
                            while j < n && chars[j] == '#' && h < hashes {
                                h += 1;
                                j += 1;
                            }
                            if h == hashes {
                                i = j;
                                break;
                            }
                        }
                        i += 1;
                    }
                }
            }
            '\'' => {
                // Char literal or lifetime. A lifetime is `'` + ident with
                // no closing quote; a char literal always closes.
                i += 1;
                if i < n && chars[i] == '\\' {
                    skip_char_body(&chars, &mut i);
                } else if i + 1 < n && chars[i + 1] == '\'' {
                    i += 2; // 'x'
                } else {
                    // Lifetime: consume the identifier and emit nothing.
                    while i < n && is_ident_start(chars[i]) {
                        i += 1;
                    }
                }
            }
            c if is_ident_start(c) => {
                let start = i;
                // `r#move` is a raw identifier: one token, prefix kept.
                if c == 'r'
                    && chars.get(i + 1) == Some(&'#')
                    && chars.get(i + 2).is_some_and(|&c| is_ident_start(c))
                {
                    i += 2;
                }
                while i < n && is_ident_start(chars[i]) {
                    i += 1;
                }
                out.tokens.push(Token {
                    text: chars[start..i].iter().collect(),
                    line,
                    is_ident: true,
                });
            }
            _ => {
                out.tokens.push(Token {
                    text: c.to_string(),
                    line,
                    is_ident: false,
                });
                i += 1;
            }
        }
    }
    out
}

/// `r"`, `r#…"`, `b"`, `b'`, `br"`, `br#…"` — how many chars of prefix
/// before the quote machinery starts (0 if this is an identifier, raw
/// identifiers like `r#move` included).
fn raw_prefix_len(chars: &[char], i: usize) -> usize {
    let peek = |k: usize| chars.get(i + k).copied().unwrap_or('\0');
    // A raw string opens on `"` after any run of `#`s.
    let raw_quote = |mut k: usize| {
        while peek(k) == '#' {
            k += 1;
        }
        peek(k) == '"'
    };
    match chars[i] {
        'r' if raw_quote(1) => 1,
        'b' => match peek(1) {
            '"' | '\'' => 1,
            'r' if raw_quote(2) => 2,
            _ => 0,
        },
        _ => 0,
    }
}

/// Consume an escaped (non-raw) string body; the opening quote is consumed.
fn skip_string_body(chars: &[char], i: &mut usize, line: &mut u32) {
    let n = chars.len();
    while *i < n {
        match chars[*i] {
            '\\' => {
                // A `\`-newline continuation still ends a line.
                if chars.get(*i + 1) == Some(&'\n') {
                    *line += 1;
                }
                *i += 2;
            }
            '\n' => {
                *line += 1;
                *i += 1;
            }
            '"' => {
                *i += 1;
                return;
            }
            _ => *i += 1,
        }
    }
}

/// Consume a char-literal body starting at the escape or content char.
fn skip_char_body(chars: &[char], i: &mut usize) {
    let n = chars.len();
    if *i < n && chars[*i] == '\\' {
        *i += 2; // escape + escaped char
                 // \u{...} and \x.. tails run to the closing quote below.
    }
    while *i < n && chars[*i] != '\'' {
        *i += 1;
    }
    *i += 1; // closing quote
}

/// Parse a line comment into a control directive, if it carries the tag.
fn scan_directive(comment: &str, line: u32, out: &mut Lexed) {
    let Some(pos) = comment.find(DIRECTIVE_TAG) else {
        return;
    };
    let body = comment[pos + DIRECTIVE_TAG.len()..].trim();
    let parsed = body.strip_prefix("allow(").and_then(|rest| {
        let close = rest.find(')')?;
        let rule = rest[..close].trim();
        if rule.is_empty() || rule.contains(char::is_whitespace) {
            return None;
        }
        let reason = rest[close + 1..].trim();
        Some(Directive {
            line,
            rule: rule.to_string(),
            reason: (!reason.is_empty()).then(|| reason.to_string()),
        })
    });
    match parsed {
        Some(d) => out.directives.push(d),
        None => out.malformed_directives.push(line),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.is_ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_emit_no_tokens() {
        let src = r##"
            let s = "unwrap() inside a string";
            let r = r#"HashMap in a raw "string""#;
            // unwrap() in a line comment
            /* nested /* SystemTime */ comment */
            let c = '"'; let esc = '\''; let lt: &'static str = "x";
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"unwrap".to_string()), "{ids:?}");
        assert!(!ids.contains(&"HashMap".to_string()), "{ids:?}");
        assert!(!ids.contains(&"SystemTime".to_string()), "{ids:?}");
        assert!(
            !ids.contains(&"static".to_string()),
            "lifetime leaked: {ids:?}"
        );
    }

    #[test]
    fn lines_are_accurate_across_multiline_constructs() {
        let src = "let a = \"two\nlines\";\nlet b = 1;\n";
        let lexed = lex(src);
        let b = lexed.tokens.iter().find(|t| t.is("b")).expect("b token");
        assert_eq!(b.line, 3);
        // `\`-newline continuations, in a string and a byte string.
        let src = "let a = \"one \\\n two\";\nlet b = b\"x\\\ny\";\nlet c = 1;\n";
        let lexed = lex(src);
        let b = lexed.tokens.iter().find(|t| t.is("b")).expect("b token");
        let c = lexed.tokens.iter().find(|t| t.is("c")).expect("c token");
        assert_eq!((b.line, c.line), (3, 5));
    }

    #[test]
    fn directives_parse_with_and_without_reason() {
        let src = "
            // flock-lint: allow(panic) this index is checked two lines up
            // flock-lint: allow(hash-iter)
            // flock-lint: allow()
        ";
        let lexed = lex(src);
        assert_eq!(lexed.directives.len(), 2);
        assert_eq!(lexed.directives[0].rule, "panic");
        assert!(lexed.directives[0].reason.is_some());
        assert_eq!(lexed.directives[1].rule, "hash-iter");
        assert!(lexed.directives[1].reason.is_none());
        assert_eq!(lexed.malformed_directives.len(), 1);
    }

    #[test]
    fn raw_prefixes_do_not_swallow_identifiers() {
        let ids = idents("let br = b; let rb = r * b; let bytes = b\"x\";");
        assert!(ids.contains(&"br".to_string()));
        assert!(ids.contains(&"rb".to_string()));
        assert!(ids.contains(&"bytes".to_string()));
    }

    #[test]
    fn raw_identifiers_are_not_raw_strings() {
        let src = "pub r#move: u64,\nx.r#type();\nlet s = r#\"a \"quoted\" b\"#;\nlet t = br##\"x\"##;\nfn after() {}\n";
        let lexed = lex(src);
        let ids: Vec<(&str, u32)> = lexed
            .tokens
            .iter()
            .filter(|t| t.is_ident)
            .map(|t| (t.text.as_str(), t.line))
            .collect();
        assert_eq!(
            ids,
            vec![
                ("pub", 1),
                ("r#move", 1),
                ("u64", 1),
                ("x", 2),
                ("r#type", 2),
                ("let", 3),
                ("s", 3),
                ("let", 4),
                ("t", 4),
                ("fn", 5),
                ("after", 5),
            ]
        );
    }
}
