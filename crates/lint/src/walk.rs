//! Workspace discovery and the one scope rule: find the root, collect the
//! in-scope `.rs` files in a deterministic order, and read them.

use std::io;
use std::path::{Path, PathBuf};

/// Directories no pass reads: build output, vendored shims, `.git`, lint
/// fixtures (which must be free to contain violations), and test, bench
/// and example code (exempt from every rule). The walker prunes them and
/// [`in_scope`] drops explicit paths under them, so every pass sees the
/// same files.
const OUT_OF_SCOPE: &[&str] = &[
    "target", "vendor", ".git", "fixtures", "tests", "benches", "examples",
];

/// Is this workspace-relative path analyzed at all?
pub fn in_scope(rel_path: &str) -> bool {
    !rel_path
        .split(['/', '\\'])
        .any(|c| OUT_OF_SCOPE.contains(&c))
}

/// Walk up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let cargo = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&cargo) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Every in-scope `.rs` file under `root`, workspace-relative with `/`
/// separators, sorted.
pub fn collect_rs_files(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !OUT_OF_SCOPE.contains(&name.as_ref()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                if let Ok(rel) = path.strip_prefix(root) {
                    out.push(rel.to_string_lossy().replace('\\', "/"));
                }
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Read workspace-relative paths under `root` into `(path, source)` pairs.
pub fn read(root: &Path, rels: Vec<String>) -> Result<Vec<(String, String)>, String> {
    rels.into_iter()
        .map(|rel| match std::fs::read_to_string(root.join(&rel)) {
            Ok(src) => Ok((rel, src)),
            Err(e) => Err(format!("read {rel}: {e}")),
        })
        .collect()
}
