//! The line rules: walk one file's token stream and emit findings.
//!
//! Six deny-by-default line rules guard the invariants the pipeline's
//! reproducibility rests on (see DESIGN.md §6):
//!
//! * `determinism` — no wall-clock or ambient-randomness calls in pipeline
//!   code; virtual time and seeded `flock_core::DetRng`s only.
//! * `hash-iter` — no `HashMap`/`HashSet` in the crates whose iteration
//!   order can reach output (`activitypub`, `fedisim`, `analysis`,
//!   `repro`, `crawler`, `chaos`, `monitor`); use `BTreeMap`/`BTreeSet` or
//!   an explicit sort.
//! * `lock-order` — `.lock()` receivers in `crates/apis` must be declared
//!   in the lock-hierarchy manifest and acquired strictly downward.
//! * `panic` — no `unwrap()`/`expect()`/`panic!`/bare `assert!` in library
//!   code; errors propagate through `flock_core::error`. (`assert_eq!` and
//!   `debug_assert!` remain permitted.)
//! * `thread-spawn` — no ad-hoc OS-thread creation (`thread::spawn`,
//!   `thread::scope`, `crossbeam::scope`) outside `flock_core`'s
//!   `worker_pool.rs`; parallel work fans out through `worker_pool::run`.
//! * `float-in-data-tier` — no `f32`/`f64` arithmetic in `crates/crawler`,
//!   the code path that assembles the Data-tier dataset from concurrently
//!   produced pieces; float accumulation is sensitive to evaluation order,
//!   which is exactly the nondeterminism the tier contract forbids.
//!
//! Test code is exempt everywhere: out-of-scope files never reach a pass
//! ([`crate::walk::in_scope`]), and items behind `#[cfg(test)]` /
//! `#[test]` are skipped. The escape hatch is
//! `// flock-lint: allow(<rule>) <reason>` on the offending line or the
//! line above; the reason is mandatory.

use crate::manifest::LockManifest;
use crate::syntax::{
    attr_open, is_lock_call, is_path, receiver_of, scan_attr, skip_item, HeldLocks,
};
use crate::{Emitter, Source};
use std::collections::BTreeSet;

pub const RULE_DETERMINISM: &str = "determinism";
pub const RULE_HASH_ITER: &str = "hash-iter";
pub const RULE_LOCK_ORDER: &str = "lock-order";
pub const RULE_PANIC: &str = "panic";
pub const RULE_THREAD_SPAWN: &str = "thread-spawn";
pub const RULE_FLOAT: &str = "float-in-data-tier";
/// The call-graph passes ([`crate::taint`], [`crate::locks`]).
pub const RULE_TIER_TAINT: &str = "tier-taint";
pub const RULE_CALL_LOCK_ORDER: &str = "call-lock-order";
/// Meta-rule for problems with the directives themselves.
pub const RULE_DIRECTIVE: &str = "directive";

/// Every rule name `allow(...)` may reference.
pub const KNOWN_RULES: &[&str] = &[
    RULE_DETERMINISM,
    RULE_HASH_ITER,
    RULE_LOCK_ORDER,
    RULE_PANIC,
    RULE_THREAD_SPAWN,
    RULE_FLOAT,
    RULE_TIER_TAINT,
    RULE_CALL_LOCK_ORDER,
];

/// Which line rules apply to a file, derived from its workspace-relative
/// path.
#[derive(Debug, Clone, Copy)]
pub struct FileClass {
    pub determinism: bool,
    pub hash_iter: bool,
    pub lock_order: bool,
    pub thread_spawn: bool,
    pub float: bool,
}

/// Classify an in-scope workspace-relative path into the line rules that
/// apply to it (`panic` applies to every in-scope file).
pub fn classify(rel_path: &str) -> FileClass {
    let comps: Vec<&str> = rel_path
        .split(['/', '\\'])
        .filter(|c| !c.is_empty())
        .collect();
    let krate = match comps.first() {
        Some(&"crates") => comps.get(1).copied().unwrap_or(""),
        Some(&"src") => "flock",
        _ => "",
    };
    FileClass {
        // `crates/bench` measures wall-clock by design.
        determinism: krate != "bench",
        hash_iter: matches!(
            krate,
            "activitypub" | "fedisim" | "analysis" | "repro" | "crawler" | "chaos" | "monitor"
        ),
        lock_order: krate == "apis",
        // The worker pool is the only sanctioned owner of OS threads.
        thread_spawn: comps != ["crates", "core", "src", "worker_pool.rs"],
        // The crawler assembles the Data-tier dataset from concurrently
        // produced pieces; float accumulation there is order-sensitive.
        float: krate == "crawler",
    }
}

/// Run the line rules over one file; `manifest` backs `lock-order`.
pub(crate) fn check(src: &Source, manifest: &LockManifest, out: &mut Emitter) {
    let mut ctx = Ctx {
        src,
        class: classify(&src.path),
        manifest,
        out,
        hash_lines: BTreeSet::new(),
        float_lines: BTreeSet::new(),
    };
    ctx.check_directives();
    ctx.run();
}

struct Ctx<'a> {
    src: &'a Source,
    class: FileClass,
    manifest: &'a LockManifest,
    out: &'a mut Emitter,
    /// Lines already carrying a `hash-iter` finding (one per line).
    hash_lines: BTreeSet<u32>,
    /// Lines already carrying a `float-in-data-tier` finding (one per line).
    float_lines: BTreeSet<u32>,
}

impl Ctx<'_> {
    fn check_directives(&mut self) {
        let lexed = &self.src.lexed;
        for &line in &lexed.malformed_directives {
            self.out.push(
                self.src,
                line,
                RULE_DIRECTIVE,
                "malformed control comment; expected \
                 `flock-lint: allow(<rule>) <reason>`"
                    .to_string(),
            );
        }
        for d in &lexed.directives {
            if !KNOWN_RULES.contains(&d.rule.as_str()) {
                self.out.push(
                    self.src,
                    d.line,
                    RULE_DIRECTIVE,
                    format!(
                        "allow({}) names an unknown rule (known: {})",
                        d.rule,
                        KNOWN_RULES.join(", ")
                    ),
                );
            }
        }
    }

    fn emit(&mut self, line: u32, rule: &'static str, message: String) {
        self.out.emit(self.src, line, rule, message);
    }

    fn run(&mut self) {
        let t = &self.src.lexed.tokens;
        let mut i = 0usize;
        let mut locks = HeldLocks::default();
        while i < t.len() {
            // Attributes: skip their token span entirely, and skip the whole
            // following item when the attribute marks test-only code.
            if let Some(open) = attr_open(t, i) {
                let (is_test, after) = scan_attr(t, open);
                i = if is_test { skip_item(t, after) } else { after };
                continue;
            }
            let tok = &t[i];
            locks.step(tok);

            if tok.punct('.')
                && t.get(i + 1)
                    .is_some_and(|n| n.is("unwrap") || n.is("expect"))
                && t.get(i + 2).is_some_and(|n| n.punct('('))
            {
                let (line, what) = (t[i + 1].line, t[i + 1].text.clone());
                self.emit(
                    line,
                    RULE_PANIC,
                    format!(
                        ".{what}() in library code; propagate through \
                         flock_core::error instead"
                    ),
                );
            } else if tok.is("panic") && t.get(i + 1).is_some_and(|n| n.punct('!')) {
                self.emit(
                    tok.line,
                    RULE_PANIC,
                    "panic! in library code; return a FlockError instead".to_string(),
                );
            } else if tok.is("assert") && t.get(i + 1).is_some_and(|n| n.punct('!')) {
                // Bare `assert!` only: `assert_eq!`/`debug_assert!` lex
                // as distinct idents and stay permitted (the former is
                // test idiom, the latter compiles out of release).
                self.emit(
                    tok.line,
                    RULE_PANIC,
                    "assert! in library code; return a FlockError (or \
                     Option) instead of panicking on bad input"
                        .to_string(),
                );
            }

            let path2 = |a: &str, b: &str| is_path(t, i, a, b);
            if self.class.determinism {
                let wall_clock = path2("Instant", "now")
                    || path2("Utc", "now")
                    || path2("Local", "now")
                    || tok.is("SystemTime");
                let ambient_rng = tok.is("thread_rng") || path2("rand", "random");
                if wall_clock {
                    self.emit(
                        tok.line,
                        RULE_DETERMINISM,
                        format!(
                            "wall-clock call `{}` in pipeline code; use the \
                             virtual clock (ApiServer::now / flock_core::time)",
                            tok.text
                        ),
                    );
                } else if ambient_rng {
                    self.emit(
                        tok.line,
                        RULE_DETERMINISM,
                        format!(
                            "ambient randomness `{}` in pipeline code; use a \
                             seeded flock_core::DetRng",
                            tok.text
                        ),
                    );
                }
            }

            if self.class.thread_spawn {
                // `std::thread::spawn` ends in the same `thread :: spawn`
                // adjacency, so the two-segment match covers both spellings;
                // `crossbeam::thread::scope` likewise ends in `thread :: scope`.
                if path2("thread", "spawn")
                    || path2("thread", "scope")
                    || path2("crossbeam", "scope")
                {
                    self.emit(
                        tok.line,
                        RULE_THREAD_SPAWN,
                        format!(
                            "OS-thread creation `{}::{}` outside the worker pool; \
                             fan out via flock_core::worker_pool::run",
                            tok.text,
                            t[i + 3].text
                        ),
                    );
                }
            }

            if self.class.float {
                // `f32` / `f64` type mentions and casts, plus decimal float
                // literals (which the lexer splits into `<digits> . <digits>`).
                let float_type = tok.is("f32") || tok.is("f64");
                let float_literal = tok.is_ident
                    && tok.text.bytes().all(|b| b.is_ascii_digit())
                    && t.get(i + 1).is_some_and(|n| n.punct('.'))
                    && t.get(i + 2)
                        .is_some_and(|n| n.is_ident && n.text.bytes().all(|b| b.is_ascii_digit()));
                if (float_type || float_literal) && !self.float_lines.contains(&tok.line) {
                    self.float_lines.insert(tok.line);
                    self.emit(
                        tok.line,
                        RULE_FLOAT,
                        "float arithmetic on the Data-tier assembly path; \
                         accumulation order is nondeterministic across workers — \
                         use integer arithmetic (or justify with an allow)"
                            .to_string(),
                    );
                }
            }

            if self.class.hash_iter
                && (tok.is("HashMap") || tok.is("HashSet"))
                && !self.hash_lines.contains(&tok.line)
            {
                self.hash_lines.insert(tok.line);
                self.emit(
                    tok.line,
                    RULE_HASH_ITER,
                    format!(
                        "{} in an output-affecting crate; iteration order is \
                         nondeterministic — use BTreeMap/BTreeSet or sort \
                         explicitly",
                        tok.text
                    ),
                );
            }

            if self.class.lock_order && is_lock_call(t, i) {
                let line = t[i + 1].line;
                match receiver_of(t, i) {
                    Some(name) => match self.manifest.level_of(&name) {
                        Some(level) => {
                            for h in locks.held.iter().filter(|h| level <= h.level) {
                                self.emit(
                                    line,
                                    RULE_LOCK_ORDER,
                                    format!(
                                        "acquiring `{name}` (level {level}) while \
                                         holding `{}` (level {}, line {}); the \
                                         manifest orders locks strictly downward",
                                        h.name, h.level, h.line
                                    ),
                                );
                            }
                            locks.acquire(name, level, line);
                        }
                        None => self.emit(
                            line,
                            RULE_LOCK_ORDER,
                            format!(
                                "`.lock()` on `{name}`, which is not declared in \
                                 the lock-order manifest ({})",
                                self.manifest.source
                            ),
                        ),
                    },
                    None => self.emit(
                        line,
                        RULE_LOCK_ORDER,
                        "`.lock()` on an unrecognized receiver expression; \
                         name the lock field so the manifest can order it"
                            .to_string(),
                    ),
                }
            }

            i += 1;
        }
    }
}
