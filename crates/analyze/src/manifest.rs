//! The tier-taint manifest (`tier.manifest` at the workspace root).
//!
//! The two-tier observability contract (DESIGN.md) says Sched-tier values
//! — worker slots, span ids, attempt counts, anything the OS scheduler
//! influences — must never reach the Data tier, whose bytes are compared
//! across worker counts in CI. The manifest names both ends of that rule
//! so the taint pass can enforce it structurally:
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
//! Blank lines and `#` comments are ignored; each `boundary` entry is
//! expected to carry a trailing comment justifying *why* its return value
//! is Data-clean — the manifest is the reasoned escape hatch at the
//! whole-program level, like `allow(...)` directives are at line level.
//! The optional `<file>::` qualifier (a path suffix such as
//! `util.rs::par_map`) pins an entry to one definition when the
//! bare name is not workspace-unique.

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
    /// Where the manifest came from, for messages.
    pub source: String,
}

impl TierManifest {
    /// An empty manifest: no sources means no taint and no findings.
    pub fn empty() -> TierManifest {
        TierManifest::default()
    }

    /// Parse the manifest format; see the module docs for the grammar.
    pub fn parse(text: &str, source: &str) -> Result<TierManifest, String> {
        let mut m = TierManifest {
            source: source.to_string(),
            ..TierManifest::default()
        };
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let err = |what: &str| format!("{source}:{}: {what}", lineno + 1);
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
    fn parses_every_entry_kind() {
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
    fn rejects_malformed_entries() {
        assert!(TierManifest::parse("source call\n", "t").is_err());
        assert!(TierManifest::parse("source path current\n", "t").is_err());
        assert!(TierManifest::parse("source path a::b::c\n", "t").is_err());
        assert!(TierManifest::parse("sink mod foo\n", "t").is_err());
        assert!(TierManifest::parse("sink call a b\n", "t").is_err());
    }
}
