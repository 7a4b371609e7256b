//! The two manifests the passes read, and the one way both are loaded.
//!
//! **Lock hierarchy** (`crates/apis/lock-order.manifest`). `crates/apis`
//! declares its lock order in plain text (the environment is offline, so
//! no TOML dependency): one line per level, `<level> <name> [<name>…]`,
//! lower levels must be acquired first. The `lock-order` rule flags any
//! `.lock()` on a receiver that is not declared here (deny-by-default) and
//! any acquisition that does not move strictly down the hierarchy while
//! another lock is held; `call-lock-order` applies the same order through
//! calls.
//!
//! **Tier taint** (`tier.manifest` at the workspace root). The two-tier
//! observability contract (DESIGN.md) says Sched-tier values — worker
//! slots, span ids, attempt counts, anything the OS scheduler influences
//! — must never reach the Data tier, whose bytes are compared across
//! worker counts in CI. The manifest names both ends of that rule so the
//! `tier-taint` pass can enforce it structurally:
//!
//! ```text
//! source call <name>          # calling <name>(…) taints the caller
//! source path <seg>::<seg>    # a qualified path read, e.g. thread::current
//! source token <ident>        # any mention of the identifier
//! sink fn  [<file>::]<name>   # a Data-writer definition: taint must not reach its body
//! sink call <name>            # calling <name>(…) from a tainted fn is a leak
//! boundary fn [<file>::]<name> # consumes Sched data, returns Data-clean values:
//!                              # taint stops here instead of propagating to callers
//! ```
//!
//! In both formats blank lines and `#` comments are ignored. Each tier
//! `boundary` entry is expected to carry a trailing comment justifying
//! *why* its return value is Data-clean — the manifest is the reasoned
//! escape hatch at the whole-program level, like `allow(...)` directives
//! are at line level. The optional `<file>::` qualifier (a path suffix
//! such as `util.rs::par_map`) pins an entry to one definition when the
//! bare name is not workspace-unique.

use std::collections::BTreeMap;
use std::path::Path;

/// Where the lock-order manifest lives, workspace-relative.
pub const LOCK_MANIFEST_PATH: &str = "crates/apis/lock-order.manifest";
/// Where the tier-taint manifest lives, workspace-relative.
pub const TIER_MANIFEST_PATH: &str = "tier.manifest";

/// Load a manifest: from `over` when given (unreadable is an error), else
/// from `default` under `root`. A missing default file is the empty
/// manifest — no declared locks (every in-scope `.lock()` is then an
/// undeclared-lock finding, the deny-by-default we want) or no taint
/// sources (no taint, no findings).
pub fn load<M>(
    root: &Path,
    over: Option<&Path>,
    default: &str,
    parse: fn(&str, &str) -> Result<M, String>,
) -> Result<M, String> {
    match over {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            parse(&text, &path.display().to_string())
        }
        None => parse(
            &std::fs::read_to_string(root.join(default)).unwrap_or_default(),
            default,
        ),
    }
}

/// The non-comment lines of a manifest, with their 1-based numbers.
fn entries(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines().enumerate().filter_map(|(i, raw)| {
        let line = raw.split('#').next().unwrap_or("").trim();
        (!line.is_empty()).then_some((i + 1, line))
    })
}

/// Parsed lock hierarchy: receiver field name → level.
#[derive(Debug, Clone, Default)]
pub struct LockManifest {
    levels: BTreeMap<String, u32>,
    /// Where the manifest came from, for messages.
    pub source: String,
}

impl LockManifest {
    /// Parse the manifest format. Lines: `<level> <name> [<name>…]`.
    pub fn parse(text: &str, source: &str) -> Result<LockManifest, String> {
        let mut levels = BTreeMap::new();
        for (lineno, line) in entries(text) {
            let mut parts = line.split_whitespace();
            let level: u32 = parts
                .next()
                .and_then(|w| w.parse().ok())
                .ok_or_else(|| format!("{source}:{lineno}: expected `<level> <name>…`"))?;
            let mut any = false;
            for name in parts {
                any = true;
                if levels.insert(name.to_string(), level).is_some() {
                    return Err(format!("{source}:{lineno}: lock `{name}` declared twice"));
                }
            }
            if !any {
                return Err(format!(
                    "{source}:{lineno}: level {level} declares no locks"
                ));
            }
        }
        Ok(LockManifest {
            levels,
            source: source.to_string(),
        })
    }

    /// The level of a declared lock receiver, if any.
    pub fn level_of(&self, name: &str) -> Option<u32> {
        self.levels.get(name).copied()
    }

    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }
}

/// A fn name, optionally qualified by a defining-file path suffix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QualifiedName {
    pub file: Option<String>,
    pub name: String,
}

impl QualifiedName {
    fn parse(text: &str) -> QualifiedName {
        match text.rsplit_once("::") {
            Some((file, name)) if file.contains('.') || file.contains('/') => QualifiedName {
                file: Some(file.to_string()),
                name: name.to_string(),
            },
            _ => QualifiedName {
                file: None,
                name: text.to_string(),
            },
        }
    }

    /// Does this entry name the definition `name` in `file`?
    pub fn matches(&self, file: &str, name: &str) -> bool {
        self.name == name
            && self
                .file
                .as_ref()
                .is_none_or(|f| file.ends_with(f.as_str()))
    }
}

/// Parsed tier-taint manifest.
#[derive(Debug, Clone, Default)]
pub struct TierManifest {
    pub source_calls: Vec<String>,
    /// Two-segment qualified paths, e.g. `("thread", "current")`.
    pub source_paths: Vec<(String, String)>,
    pub source_tokens: Vec<String>,
    pub sink_fns: Vec<QualifiedName>,
    pub sink_calls: Vec<String>,
    pub boundary_fns: Vec<QualifiedName>,
}

impl TierManifest {
    /// Parse the manifest format; see the module docs for the grammar.
    pub fn parse(text: &str, source: &str) -> Result<TierManifest, String> {
        let mut m = TierManifest::default();
        for (lineno, line) in entries(text) {
            let err = |what: &str| format!("{source}:{lineno}: {what}");
            let mut parts = line.split_whitespace();
            let (kind, shape, name) = match (parts.next(), parts.next(), parts.next()) {
                (Some(k), Some(s), Some(n)) => (k, s, n),
                _ => return Err(err("expected `<kind> <shape> <name>`")),
            };
            if parts.next().is_some() {
                return Err(err("trailing words after the entry name"));
            }
            match (kind, shape) {
                ("source", "call") => m.source_calls.push(name.to_string()),
                ("source", "path") => match name.split_once("::") {
                    Some((a, b)) if !a.is_empty() && !b.is_empty() && !b.contains("::") => {
                        m.source_paths.push((a.to_string(), b.to_string()));
                    }
                    _ => return Err(err("source path must be `<seg>::<seg>`")),
                },
                ("source", "token") => m.source_tokens.push(name.to_string()),
                ("sink", "fn") => m.sink_fns.push(QualifiedName::parse(name)),
                ("sink", "call") => m.sink_calls.push(name.to_string()),
                ("boundary", "fn") => m.boundary_fns.push(QualifiedName::parse(name)),
                _ => {
                    return Err(err(
                        "unknown entry; expected source call/path/token, sink fn/call, \
                         or boundary fn",
                    ))
                }
            }
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_levels_and_comments() {
        let m = LockManifest::parse(
            "# hierarchy\n1 clock\n2 search users follows\n3 mastodon # shards\n",
            "test",
        )
        .expect("parse");
        assert_eq!(m.level_of("clock"), Some(1));
        assert_eq!(m.level_of("users"), Some(2));
        assert_eq!(m.level_of("mastodon"), Some(3));
        assert_eq!(m.level_of("other"), None);
    }

    #[test]
    fn rejects_duplicates_and_garbage() {
        assert!(LockManifest::parse("1 a\n2 a\n", "t").is_err());
        assert!(LockManifest::parse("x a\n", "t").is_err());
        assert!(LockManifest::parse("3\n", "t").is_err());
    }

    #[test]
    fn parses_every_tier_entry_kind() {
        let m = TierManifest::parse(
            "# sources\n\
             source call current_worker\n\
             source path thread::current\n\
             source token WORKER_SLOT\n\
             sink fn to_json\n\
             sink fn rq3.rs::render\n\
             sink call save\n\
             boundary fn request # span ids feed Sched metrics only\n",
            "test",
        )
        .expect("parse");
        assert_eq!(m.source_calls, vec!["current_worker"]);
        assert_eq!(
            m.source_paths,
            vec![("thread".to_string(), "current".to_string())]
        );
        assert_eq!(m.source_tokens, vec!["WORKER_SLOT"]);
        assert_eq!(m.sink_calls, vec!["save"]);
        assert!(m.sink_fns[0].matches("crates/crawler/src/persist.rs", "to_json"));
        assert!(m.sink_fns[1].matches("crates/analysis/src/rq3.rs", "render"));
        assert!(!m.sink_fns[1].matches("crates/analysis/src/rq2.rs", "render"));
        assert!(m.boundary_fns[0].matches("crates/crawler/src/pipeline.rs", "request"));
    }

    #[test]
    fn rejects_malformed_tier_entries() {
        assert!(TierManifest::parse("source call\n", "t").is_err());
        assert!(TierManifest::parse("source path current\n", "t").is_err());
        assert!(TierManifest::parse("source path a::b::c\n", "t").is_err());
        assert!(TierManifest::parse("sink mod foo\n", "t").is_err());
        assert!(TierManifest::parse("sink call a b\n", "t").is_err());
    }

    #[test]
    fn a_missing_default_manifest_is_empty_and_an_override_must_exist() {
        let nowhere = Path::new("/nonexistent-flock-lint-root");
        let m = load(nowhere, None, LOCK_MANIFEST_PATH, LockManifest::parse).expect("empty");
        assert!(m.is_empty());
        assert_eq!(m.source, LOCK_MANIFEST_PATH);
        let over = nowhere.join("tier.manifest");
        assert!(load(
            nowhere,
            Some(&over),
            TIER_MANIFEST_PATH,
            TierManifest::parse
        )
        .is_err());
    }
}
