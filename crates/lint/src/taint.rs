//! The tier-taint pass: Sched-tier sources must not reach Data-tier sinks.
//!
//! A function is *directly* tainted when its body touches a manifest
//! source — a `source call` with call parentheses, a two-segment
//! `source path`, or a bare `source token`. Taint then propagates from
//! callee to caller along resolved call edges (a caller observes its
//! callee's Sched-derived return value), except out of `boundary fn`s:
//! those consume Sched data by declared contract (e.g. span attribution)
//! and return Data-clean values, so propagation stops there — though a
//! boundary fn is still checked internally for sink calls of its own.
//!
//! Two finding shapes, both carrying the full witness chain:
//!
//! * a **sink fn** (a Data-writer definition) whose body becomes tainted;
//! * a **tainted fn calling a sink** (`sink call` name match at the call
//!   site) — the leak is the call argument/state flowing into the writer.

use crate::graph::Graph;
use crate::manifest::TierManifest;
use crate::rules::RULE_TIER_TAINT;
use crate::syntax::is_path;
use crate::Emitter;
use std::collections::VecDeque;

/// Why a fn is tainted — enough to reconstruct a witness chain.
enum Cause {
    /// The body touches a manifest source directly.
    Direct { line: u32, what: String },
    /// It calls a tainted fn at `line`.
    Via { callee: usize, line: u32 },
}

/// Report every Sched→Data flow in `g` under manifest `m`.
pub(crate) fn check(g: &Graph, m: &TierManifest, out: &mut Emitter) {
    if m.source_calls.is_empty() && m.source_paths.is_empty() && m.source_tokens.is_empty() {
        return;
    }
    let mut cause: Vec<Option<Cause>> = g.fns.iter().map(|_| None).collect();

    // Direct taint: first source hit in token order wins.
    for (id, def) in g.fns.iter().enumerate() {
        let t = &g.src(id).lexed.tokens;
        for &k in &def.toks {
            let tok = &t[k];
            if !tok.is_ident {
                continue;
            }
            let hit = if m.source_calls.iter().any(|s| tok.is(s))
                && t.get(k + 1).is_some_and(|n| n.punct('('))
                && !(k > 0 && t[k - 1].is("fn"))
            {
                Some(format!("`{}(…)`", tok.text))
            } else if m.source_tokens.iter().any(|s| tok.is(s)) {
                Some(format!("`{}`", tok.text))
            } else {
                m.source_paths
                    .iter()
                    .find(|(a, b)| is_path(t, k, a, b))
                    .map(|(a, b)| format!("`{a}::{b}`"))
            };
            if let Some(what) = hit {
                cause[id] = Some(Cause::Direct {
                    line: tok.line,
                    what,
                });
                break;
            }
        }
    }

    // Propagate callee→caller (BFS, so chains are shortest-first and
    // deterministic), stopping at declared boundaries.
    let mut rev: Vec<Vec<(usize, usize)>> = g.fns.iter().map(|_| Vec::new()).collect();
    for (caller, outs) in g.edges.iter().enumerate() {
        for &(site, callee) in outs {
            rev[callee].push((caller, site));
        }
    }
    let mut queue: VecDeque<usize> = (0..g.fns.len()).filter(|&i| cause[i].is_some()).collect();
    while let Some(id) = queue.pop_front() {
        let (def, path) = (&g.fns[id], &g.src(id).path);
        if m.boundary_fns.iter().any(|q| q.matches(path, &def.name)) {
            continue;
        }
        for &(caller, site) in &rev[id] {
            if cause[caller].is_none() {
                cause[caller] = Some(Cause::Via {
                    callee: id,
                    line: g.fns[caller].calls[site].line,
                });
                queue.push_back(caller);
            }
        }
    }

    // Findings.
    for (id, def) in g.fns.iter().enumerate() {
        if cause[id].is_none() {
            continue;
        }
        let src = g.src(id);
        if m.sink_fns.iter().any(|q| q.matches(&src.path, &def.name)) {
            out.emit(
                src,
                def.line,
                RULE_TIER_TAINT,
                format!(
                    "Sched-tier taint reaches Data-tier sink fn `{}`; {}",
                    def.name,
                    chain(g, &cause, id),
                ),
            );
        }
        for call in &def.calls {
            if m.sink_calls.contains(&call.callee) {
                out.emit(
                    src,
                    call.line,
                    RULE_TIER_TAINT,
                    format!(
                        "`{}` is Sched-tainted and calls Data-tier sink `{}(…)`; {}",
                        def.name,
                        call.callee,
                        chain(g, &cause, id),
                    ),
                );
            }
        }
    }
}

/// Render the witness chain from `id` down to the direct source.
fn chain(g: &Graph, cause: &[Option<Cause>], mut id: usize) -> String {
    let mut parts = Vec::new();
    loop {
        let (name, path) = (&g.fns[id].name, &g.src(id).path);
        match &cause[id] {
            Some(Cause::Via { callee, line }) => {
                parts.push(format!("{name} ({path}:{line})"));
                id = *callee;
            }
            Some(Cause::Direct { line, what }) => {
                parts.push(format!("{name} ({path}:{line}) -> {what} [Sched source]"));
                break;
            }
            None => break,
        }
        // A cycle in the cause links is impossible (BFS assigns each fn a
        // cause once, pointing at an earlier-discovered fn), but cap the
        // walk anyway rather than trusting that invariant with a hang.
        if parts.len() > g.fns.len() {
            break;
        }
    }
    format!("taint chain: {}", parts.join(" -> "))
}
