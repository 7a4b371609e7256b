//! The interprocedural lock-order pass.
//!
//! The lexical `lock-order` rule ([`crate::rules`]) sees only one
//! function body: `self.mastodon.lock()` followed by `self.clock.lock()`
//! in the same scope. The deadlock it cannot see is the same acquisition
//! split across a call — a guard held at a call site whose *callee*
//! (possibly in another file, possibly through further helpers) acquires
//! a lock at the same or a lower manifest level.
//!
//! The pass computes each fn's **may-acquire set** (manifest-declared
//! receivers it can lock, directly or transitively through resolved call
//! edges) by fixpoint, replays the lexical rule's held-set scan
//! ([`HeldLocks`]) per body, and flags any call site where
//! `held.level >= callee.may_acquire.level`, printing the acquisition
//! path down to the concrete `.lock()`.

use crate::graph::Graph;
use crate::lexer::Token;
use crate::manifest::LockManifest;
use crate::rules::RULE_CALL_LOCK_ORDER;
use crate::syntax::{is_lock_call, receiver_of, HeldLocks};
use crate::Emitter;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// How a fn may come to hold a lock, for witness paths.
#[derive(Debug, Clone)]
enum Acq {
    Direct { line: u32 },
    Via { callee: usize, line: u32 },
}

/// Report every call made under a held lock that may acquire a lock at
/// the same or a lower manifest level.
pub(crate) fn check(g: &Graph, m: &LockManifest, out: &mut Emitter) {
    if m.is_empty() {
        return;
    }
    // Direct acquisitions per fn: `.lock()` on manifest-declared receivers.
    let mut acquires: Vec<BTreeMap<String, (u32, Acq)>> =
        g.fns.iter().map(|_| BTreeMap::new()).collect();
    for (id, def) in g.fns.iter().enumerate() {
        let t = &g.src(id).lexed.tokens;
        for &k in &def.toks {
            if let Some((name, level)) = declared_lock(t, k, m) {
                let line = t[k + 1].line;
                acquires[id]
                    .entry(name)
                    .or_insert((level, Acq::Direct { line }));
            }
        }
    }

    // Fixpoint: callers inherit callees' may-acquire sets.
    let mut changed = true;
    while changed {
        changed = false;
        for caller in 0..g.fns.len() {
            for &(site, callee) in &g.edges[caller] {
                if caller == callee {
                    continue;
                }
                let line = g.fns[caller].calls[site].line;
                let inherited: Vec<(String, u32)> = acquires[callee]
                    .iter()
                    .map(|(name, (level, _))| (name.clone(), *level))
                    .collect();
                for (name, level) in inherited {
                    if let Entry::Vacant(slot) = acquires[caller].entry(name) {
                        slot.insert((level, Acq::Via { callee, line }));
                        changed = true;
                    }
                }
            }
        }
    }

    // Replay the lexical held-set per body; at each resolved call site,
    // the callee's may-acquire set must sit strictly below every held
    // level.
    for (id, def) in g.fns.iter().enumerate() {
        let src = g.src(id);
        let t = &src.lexed.tokens;
        let mut locks = HeldLocks::default();
        let mut site_at: BTreeMap<usize, usize> = BTreeMap::new();
        for (site, call) in def.calls.iter().enumerate() {
            site_at.insert(call.tok, site);
        }
        let mut resolved: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &(site, callee) in &g.edges[id] {
            resolved.entry(site).or_default().push(callee);
        }
        for &k in &def.toks {
            locks.step(&t[k]);
            if let Some((name, level)) = declared_lock(t, k, m) {
                locks.acquire(name, level, t[k + 1].line);
            }
            let Some(site) = site_at.get(&k) else {
                continue;
            };
            let Some(callees) = resolved.get(site) else {
                continue;
            };
            let call = &def.calls[*site];
            for &callee in callees {
                for (lock, (level, _)) in &acquires[callee] {
                    for h in &locks.held {
                        if *level <= h.level {
                            out.emit(
                                src,
                                call.line,
                                RULE_CALL_LOCK_ORDER,
                                format!(
                                    "call to `{}` may acquire `{lock}` (level {level}) while \
                                     holding `{}` (level {}, line {}); the manifest ({}) orders \
                                     locks strictly downward; {}",
                                    call.callee,
                                    h.name,
                                    h.level,
                                    h.line,
                                    m.source,
                                    path(g, &acquires, callee, lock),
                                ),
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The declared lock a `.lock()` at token `k` takes: `(receiver, level)`.
fn declared_lock(t: &[Token], k: usize, m: &LockManifest) -> Option<(String, u32)> {
    if !is_lock_call(t, k) {
        return None;
    }
    let name = receiver_of(t, k)?;
    let level = m.level_of(&name)?;
    Some((name, level))
}

/// Witness path from `id` down to the concrete `.lock()` on `lock`.
fn path(g: &Graph, acquires: &[BTreeMap<String, (u32, Acq)>], mut id: usize, lock: &str) -> String {
    let mut parts = Vec::new();
    loop {
        let (name, path) = (&g.fns[id].name, &g.src(id).path);
        match acquires[id].get(lock) {
            Some((_, Acq::Direct { line })) => {
                parts.push(format!(
                    "{name} ({path}:{line}) -> `.lock()` on `{lock}` at {path}:{line}"
                ));
                break;
            }
            Some((_, Acq::Via { callee, line })) => {
                parts.push(format!("{name} ({path}:{line})"));
                id = *callee;
            }
            None => break,
        }
        if parts.len() > g.fns.len() {
            break;
        }
    }
    format!("acquisition path: {}", parts.join(" -> "))
}
