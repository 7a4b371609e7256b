//! The workspace symbol index and call graph.
//!
//! The call-graph passes (tier-taint, interprocedural lock ordering)
//! consume the structure built here from the same lexed [`Source`]s the
//! line rules read: every `fn` defined in non-test workspace code, the
//! call sites inside each body, and the resolved caller→callee edges
//! between them.
//!
//! The analysis is token-based (the build environment is offline — no
//! `syn`), so resolution is necessarily approximate. The policy is
//! asymmetric on purpose:
//!
//! * **Propagation edges** (what taint and lock sets flow along) are added
//!   only when a call name resolves unambiguously: either the callee name
//!   is defined exactly once in the workspace, or a definition exists in
//!   the caller's own file (same-file definitions shadow the rest of the
//!   workspace). An ambiguous name gets *no* edge — a deliberate
//!   under-approximation kept honest by the manifests naming
//!   workspace-unique identifiers (see `tier.manifest`).
//! * **Trigger checks** (is this call a Data-tier sink?) match by *name
//!   alone*, an over-approximation in keeping with deny-by-default: a
//!   call that merely looks like a sink from a tainted context must be
//!   renamed apart or justified with an `allow`.
//!
//! Test code is invisible to the graph, as to every pass: out-of-scope
//! files never become [`Source`]s, and items behind `#[test]` /
//! `#[cfg(test)]` are skipped.

use crate::lexer::Token;
use crate::syntax::{attr_open, is_keyword, scan_attr, skip_item};
use crate::Source;
use std::collections::BTreeMap;

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The called identifier (`foo` in `foo(…)`, `x.foo(…)`, `p::foo(…)`).
    pub callee: String,
    pub line: u32,
    /// Index of the callee identifier in the file's token stream.
    pub tok: usize,
}

/// One `fn` definition found in workspace code.
#[derive(Debug)]
pub struct FnDef {
    /// Index of the defining file in [`Graph::files`].
    pub file: usize,
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Token range of the body, `[open_brace, close_brace]` inclusive.
    pub body: (usize, usize),
    /// Call sites in the body, in token order (nested items excluded).
    pub calls: Vec<CallSite>,
    /// Token indices belonging to this body, excluding nested `fn` items
    /// and attribute spans — the scan surface for the taint/lock passes.
    pub toks: Vec<usize>,
}

/// The assembled call graph for a set of lexed files.
pub struct Graph<'a> {
    /// The files the graph was built from; the passes read their tokens
    /// and directives.
    pub files: &'a [Source],
    pub fns: Vec<FnDef>,
    /// fn name → ids of every definition with that name.
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// Caller id → resolved `(call-site index, callee id)` pairs.
    pub edges: Vec<Vec<(usize, usize)>>,
}

impl Graph<'_> {
    /// The file defining fn `id`.
    pub fn src(&self, id: usize) -> &Source {
        &self.files[self.fns[id].file]
    }
}

/// Build the graph over `files`.
pub fn build(files: &[Source]) -> Graph<'_> {
    let mut g = Graph {
        files,
        fns: Vec::new(),
        by_name: BTreeMap::new(),
        edges: Vec::new(),
    };
    for (file, src) in files.iter().enumerate() {
        scan_file(&mut g, file, &src.lexed.tokens);
    }
    g.edges = resolve_edges(&g);
    g
}

/// Pass 1+2 over one file: find fn definitions (skipping test items),
/// then extract each body's scan surface and call sites.
fn scan_file(g: &mut Graph, file: usize, t: &[Token]) {
    // Pass 1: definition spans. Nested fns are discovered too (the scan
    // continues into bodies); test-marked items are skipped wholesale.
    let mut defs: Vec<(String, u32, (usize, usize))> = Vec::new();
    let mut i = 0usize;
    while i < t.len() {
        if let Some(open) = attr_open(t, i) {
            let (is_test, after) = scan_attr(t, open);
            i = if is_test { skip_item(t, after) } else { after };
            continue;
        }
        if t[i].is("fn") && t.get(i + 1).is_some_and(|n| n.is_ident) {
            let name = t[i + 1].text.clone();
            let line = t[i].line;
            if let Some(body) = body_of(t, i + 2) {
                defs.push((name, line, body));
            }
            i += 2;
            continue;
        }
        i += 1;
    }

    // Pass 2: per definition, the token surface minus nested definitions
    // and attribute spans, and the call sites on that surface.
    for (idx, (name, line, body)) in defs.iter().enumerate() {
        let nested: Vec<(usize, usize)> = defs
            .iter()
            .enumerate()
            .filter(|&(j, d)| j != idx && d.2 .0 > body.0 && d.2 .1 < body.1)
            .map(|(_, d)| d.2)
            .collect();
        let mut toks = Vec::new();
        let mut k = body.0;
        while k <= body.1 {
            if let Some(&(_, end)) = nested.iter().find(|&&(s, _)| s == k) {
                k = end + 1;
                continue;
            }
            if let Some(open) = attr_open(t, k) {
                k = scan_attr(t, open).1;
                continue;
            }
            toks.push(k);
            k += 1;
        }
        let calls = calls_on(t, &toks);
        let id = g.fns.len();
        g.fns.push(FnDef {
            file,
            name: name.clone(),
            line: *line,
            body: *body,
            calls,
            toks,
        });
        g.by_name.entry(name.clone()).or_default().push(id);
    }
}

/// The body brace span of a fn whose signature starts at `sig`: scan to
/// the first `{` (body open) or a top-level `;` (body-less trait method —
/// no span). Parens are tracked so `;` inside default-argument positions
/// or `fn(…)` pointer types do not terminate the signature early.
fn body_of(t: &[Token], sig: usize) -> Option<(usize, usize)> {
    let mut i = sig;
    let mut parens = 0i32;
    while i < t.len() {
        let tok = &t[i];
        if tok.punct('(') || tok.punct('[') {
            parens += 1;
        } else if tok.punct(')') || tok.punct(']') {
            parens -= 1;
        } else if tok.punct(';') && parens == 0 {
            return None;
        } else if tok.punct('{') {
            let open = i;
            let mut depth = 0i32;
            while i < t.len() {
                if t[i].punct('{') {
                    depth += 1;
                } else if t[i].punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        return Some((open, i));
                    }
                }
                i += 1;
            }
            return None;
        }
        i += 1;
    }
    None
}

/// Call sites on a body's token surface: `ident (` adjacency in the
/// original stream, keyword heads and macro bangs filtered out.
fn calls_on(t: &[Token], toks: &[usize]) -> Vec<CallSite> {
    let mut out = Vec::new();
    for &k in toks {
        let tok = &t[k];
        if !tok.is_ident || is_keyword(&tok.text) {
            continue;
        }
        // `foo!(…)` is a macro, `fn foo(` is the definition itself.
        if !t.get(k + 1).is_some_and(|n| n.punct('(')) {
            continue;
        }
        if k > 0 && (t[k - 1].is("fn") || t[k - 1].punct('!')) {
            continue;
        }
        out.push(CallSite {
            callee: tok.text.clone(),
            line: tok.line,
            tok: k,
        });
    }
    out
}

/// Resolve each call site to callee definitions under the asymmetric
/// policy: same-file definitions first, else a workspace-unique name.
fn resolve_edges(g: &Graph) -> Vec<Vec<(usize, usize)>> {
    let mut edges: Vec<Vec<(usize, usize)>> = vec![Vec::new(); g.fns.len()];
    for (caller, def) in g.fns.iter().enumerate() {
        for (site, call) in def.calls.iter().enumerate() {
            let Some(ids) = g.by_name.get(&call.callee) else {
                continue;
            };
            let same_file: Vec<usize> = ids
                .iter()
                .copied()
                .filter(|&id| g.fns[id].file == def.file)
                .collect();
            if !same_file.is_empty() {
                edges[caller].extend(same_file.into_iter().map(|id| (site, id)));
            } else if ids.len() == 1 {
                edges[caller].push((site, ids[0]));
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lex `files` as [`crate::lint`] does: out-of-scope paths dropped.
    fn sources_of(files: &[(&str, &str)]) -> Vec<Source> {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        crate::sources(&owned)
    }

    #[test]
    fn finds_defs_and_same_file_edges() {
        let files = sources_of(&[(
            "crates/x/src/a.rs",
            "pub fn top() { helper(); }\nfn helper() { leaf(3); }\nfn leaf(_n: u32) {}\n",
        )]);
        let g = build(&files);
        assert_eq!(g.fns.len(), 3);
        let top = g.by_name["top"][0];
        let helper = g.by_name["helper"][0];
        let leaf = g.by_name["leaf"][0];
        assert_eq!(g.edges[top], vec![(0, helper)]);
        assert_eq!(g.edges[helper], vec![(0, leaf)]);
        assert!(g.edges[leaf].is_empty());
    }

    #[test]
    fn unique_names_resolve_across_files_and_ambiguous_names_do_not() {
        let files = sources_of(&[
            (
                "crates/x/src/a.rs",
                "pub fn caller() { unique(); dup(); }\n",
            ),
            ("crates/x/src/b.rs", "pub fn unique() {}\npub fn dup() {}\n"),
            ("crates/y/src/c.rs", "pub fn dup() {}\n"),
        ]);
        let g = build(&files);
        let caller = g.by_name["caller"][0];
        let unique = g.by_name["unique"][0];
        assert_eq!(g.edges[caller], vec![(0, unique)]);
    }

    #[test]
    fn test_items_macros_and_fixture_files_are_invisible() {
        let files = sources_of(&[
            (
                "crates/x/src/a.rs",
                "#[cfg(test)]\nmod tests { fn hidden() {} }\npub fn visible() { println!(\"x\"); }\n",
            ),
            ("crates/x/tests/t.rs", "fn test_only() {}\n"),
        ]);
        let g = build(&files);
        assert_eq!(g.fns.len(), 1);
        assert_eq!(g.fns[0].name, "visible");
        assert!(g.fns[0].calls.is_empty(), "macro counted as call");
    }

    #[test]
    fn nested_fn_calls_are_not_attributed_to_the_outer_fn() {
        let files = sources_of(&[(
            "crates/x/src/a.rs",
            "pub fn outer() {\n  fn inner() { secret(); }\n  inner();\n}\nfn secret() {}\n",
        )]);
        let g = build(&files);
        let outer = g.by_name["outer"][0];
        let calls: Vec<&str> = g.fns[outer]
            .calls
            .iter()
            .map(|c| c.callee.as_str())
            .collect();
        assert_eq!(calls, vec!["inner"]);
    }

    #[test]
    fn bodyless_trait_methods_are_skipped() {
        let files = sources_of(&[(
            "crates/x/src/a.rs",
            "pub trait T { fn decl(&self); fn with_body(&self) { self.decl(); } }\n",
        )]);
        let g = build(&files);
        assert_eq!(g.fns.len(), 1);
        assert_eq!(g.fns[0].name, "with_body");
    }
}
