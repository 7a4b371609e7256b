//! `flock-lint`: the workspace's static-analysis tool.
//!
//! The reproduction's claims rest on the pipeline being bit-reproducible
//! (workers=1 and workers=8 must produce byte-identical datasets — see
//! `tests/determinism.rs` at the workspace root). That guarantee is easy to
//! lose one innocuous edit at a time: a `HashMap` iteration that reaches a
//! CSV, an `Instant::now()` in a retry loop, a `.lock()` taken in the wrong
//! order, an `unwrap()` on a path a malformed dataset can reach, a worker
//! id that flows three calls away into a Data-tier writer. This crate
//! machine-checks those conventions as deny-by-default passes over one
//! read and one lex per in-scope file ([`walk::in_scope`]):
//!
//! * the **line rules** ([`rules`]) — one file, one token at a time;
//! * **`tier-taint`** ([`taint`]) — Sched-tier sources must not reach
//!   Data-tier sinks across any number of calls, per `tier.manifest`;
//! * **`call-lock-order`** ([`locks`]) — the lexical lock order, extended
//!   through calls into other files.
//!
//! The last two run on a call graph recovered from the same token streams
//! ([`graph`]). Every pass reports through one emitter, so one
//! `// flock-lint: allow(<rule>) <reason>` escape hatch covers them all.
//!
//! The build environment is offline, so the implementation is a small
//! hand-rolled lexer ([`lexer`]) rather than a real parser — the same
//! trade-off as the vendored shims under `vendor/`.

pub mod graph;
pub mod lexer;
pub mod locks;
pub mod manifest;
pub mod rules;
pub mod syntax;
pub mod taint;
pub mod walk;

pub use manifest::{LockManifest, TierManifest};

use lexer::{lex, Lexed};
use rules::RULE_DIRECTIVE;
use std::collections::BTreeSet;

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub path: String,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// One in-scope file, lexed once; every pass reads this.
pub struct Source {
    /// Workspace-relative path; it selects the line rules that apply.
    pub path: String,
    pub lexed: Lexed,
}

/// Lex the in-scope files among `(workspace-relative path, source)` pairs.
pub fn sources(files: &[(String, String)]) -> Vec<Source> {
    files
        .iter()
        .filter(|(path, _)| walk::in_scope(path))
        .map(|(path, src)| Source {
            path: path.clone(),
            lexed: lex(src),
        })
        .collect()
}

/// Run every pass over `(workspace-relative path, source)` pairs: the line
/// rules per file, then `tier-taint` and `call-lock-order` over the call
/// graph of all of them. Returns the findings, sorted by `(path, line,
/// rule, message)` whatever the input order, and the number of in-scope
/// files analyzed.
pub fn lint(
    files: &[(String, String)],
    lock_manifest: &LockManifest,
    tier_manifest: &TierManifest,
) -> (Vec<Finding>, usize) {
    let sources = sources(files);
    let mut out = Emitter::default();
    for src in &sources {
        rules::check(src, lock_manifest, &mut out);
    }
    let g = graph::build(&sources);
    taint::check(&g, tier_manifest, &mut out);
    locks::check(&g, lock_manifest, &mut out);
    let mut findings = out.findings;
    findings.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });
    (findings, sources.len())
}

/// The finding collector behind the one escape hatch: an `allow(<rule>)`
/// directive on a finding's line or the line above suppresses it when it
/// gives a reason; a reason-less one is itself a `directive` finding,
/// reported once.
#[derive(Default)]
pub(crate) struct Emitter {
    findings: Vec<Finding>,
    flagged: BTreeSet<(String, u32)>,
}

impl Emitter {
    pub(crate) fn emit(&mut self, src: &Source, line: u32, rule: &'static str, message: String) {
        for d in &src.lexed.directives {
            if d.rule == rule && (d.line == line || d.line + 1 == line) {
                if d.reason.is_none() && self.flagged.insert((src.path.clone(), d.line)) {
                    let message = format!("allow({rule}) requires a reason");
                    self.push(src, d.line, RULE_DIRECTIVE, message);
                }
                return;
            }
        }
        self.push(src, line, rule, message);
    }

    /// Record a finding no directive can suppress.
    pub(crate) fn push(&mut self, src: &Source, line: u32, rule: &'static str, message: String) {
        self.findings.push(Finding {
            path: src.path.clone(),
            line,
            rule,
            message,
        });
    }
}
