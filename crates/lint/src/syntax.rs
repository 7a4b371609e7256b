//! Token-stream syntax helpers shared by the line rules and the call-graph
//! passes: they read the same token streams, so attribute, item, path and
//! `.lock()` recognition live here once — a construct one pass skipped and
//! another scanned would make their findings disagree about the same line.

use crate::lexer::Token;

/// If an attribute (`#[…]` or `#![…]`) starts at `i`, the index of its `[`.
pub fn attr_open(t: &[Token], i: usize) -> Option<usize> {
    if !t.get(i).is_some_and(|tok| tok.punct('#')) {
        return None;
    }
    let open = if t.get(i + 1).is_some_and(|n| n.punct('!')) {
        i + 2
    } else {
        i + 1
    };
    t.get(open).is_some_and(|n| n.punct('[')).then_some(open)
}

/// `a :: b` starting at token `k`.
pub fn is_path(t: &[Token], k: usize, a: &str, b: &str) -> bool {
    t[k].is(a)
        && t.get(k + 1).is_some_and(|n| n.punct(':'))
        && t.get(k + 2).is_some_and(|n| n.punct(':'))
        && t.get(k + 3).is_some_and(|n| n.is(b))
}

/// `. lock ( )` at the `.` token `k`.
pub fn is_lock_call(t: &[Token], k: usize) -> bool {
    t[k].punct('.')
        && t.get(k + 1).is_some_and(|n| n.is("lock"))
        && t.get(k + 2).is_some_and(|n| n.punct('('))
        && t.get(k + 3).is_some_and(|n| n.punct(')'))
}

/// A `.lock()` guard, held (conservatively) until the block it was taken
/// in closes — the lexical scope of a `let` guard.
pub struct Guard {
    pub name: String,
    pub level: u32,
    pub line: u32,
    depth: u32,
}

/// The lexical held-set both lock-order passes replay: the guards held at
/// the current token of a scan, tracked by brace depth.
#[derive(Default)]
pub struct HeldLocks {
    pub held: Vec<Guard>,
    depth: u32,
}

impl HeldLocks {
    /// Advance over `tok`: a closing brace drops the guards taken inside.
    pub fn step(&mut self, tok: &Token) {
        if tok.punct('{') {
            self.depth += 1;
        } else if tok.punct('}') {
            self.held.retain(|g| g.depth < self.depth);
            self.depth = self.depth.saturating_sub(1);
        }
    }

    /// A guard on `name` (manifest `level`) taken on `line`.
    pub fn acquire(&mut self, name: String, level: u32, line: u32) {
        let depth = self.depth;
        self.held.push(Guard {
            name,
            level,
            line,
            depth,
        });
    }
}

/// Scan an attribute starting at its `[`; returns (marks test-only code,
/// index just past the matching `]`).
pub fn scan_attr(t: &[Token], open: usize) -> (bool, usize) {
    let mut depth = 0u32;
    let mut i = open;
    let mut idents: Vec<&str> = Vec::new();
    while i < t.len() {
        let tok = &t[i];
        if tok.punct('[') {
            depth += 1;
        } else if tok.punct(']') {
            depth -= 1;
            if depth == 0 {
                i += 1;
                break;
            }
        } else if tok.is_ident {
            idents.push(&tok.text);
        }
        i += 1;
    }
    let is_test = match idents.first() {
        Some(&"test") => true,
        // `#[cfg(test)]`, `#[cfg(all(test, …))]` — but not `#[cfg(not(test))]`.
        Some(&"cfg") => idents.contains(&"test") && !idents.contains(&"not"),
        _ => false,
    };
    (is_test, i)
}

/// Skip one item starting at `start` (which may open with further
/// attributes): consume through the matching `}` of its body, or through a
/// top-level `;` for body-less items. Returns the index just past the item.
pub fn skip_item(t: &[Token], start: usize) -> usize {
    let mut i = start;
    // Leading attributes of the item being skipped.
    while let Some(open) = attr_open(t, i) {
        i = scan_attr(t, open).1;
    }
    let mut depth = 0u32;
    while i < t.len() {
        let tok = &t[i];
        if tok.punct('{') {
            depth += 1;
        } else if tok.punct('}') {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        } else if tok.punct(';') && depth == 0 {
            return i + 1;
        }
        i += 1;
    }
    i
}

/// The field identifier a `.lock()` call is made on: walks left from the
/// `.` over an optional `[…]` index (`self.mastodon[shard].lock()`).
pub fn receiver_of(t: &[Token], dot: usize) -> Option<String> {
    let mut j = dot.checked_sub(1)?;
    if t[j].punct(']') {
        let mut depth = 1u32;
        while depth > 0 {
            j = j.checked_sub(1)?;
            if t[j].punct(']') {
                depth += 1;
            } else if t[j].punct('[') {
                depth -= 1;
            }
        }
        j = j.checked_sub(1)?;
    }
    t[j].is_ident.then(|| t[j].text.clone())
}

/// Rust keywords (plus common expression heads) that can precede `(` in
/// expression position without being calls. Call detection in the call
/// graph filters candidate `ident (` pairs through this list.
pub fn is_keyword(word: &str) -> bool {
    matches!(
        word,
        "if" | "else"
            | "while"
            | "for"
            | "in"
            | "loop"
            | "match"
            | "return"
            | "break"
            | "continue"
            | "let"
            | "mut"
            | "ref"
            | "move"
            | "as"
            | "fn"
            | "impl"
            | "dyn"
            | "where"
            | "unsafe"
            | "pub"
            | "use"
            | "mod"
            | "struct"
            | "enum"
            | "union"
            | "trait"
            | "type"
            | "const"
            | "static"
            | "crate"
            | "super"
            | "self"
            | "Self"
            | "await"
            | "async"
            | "yield"
    )
}
