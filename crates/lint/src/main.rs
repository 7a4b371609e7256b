//! The `flock-lint` binary.
//!
//! ```text
//! flock-lint --workspace              # every in-scope .rs file in the workspace
//! flock-lint FILE…                    # specific files, analyzed as one unit
//! flock-lint --lock-manifest PATH …   # override crates/apis/lock-order.manifest
//! flock-lint --tier-manifest PATH …   # override tier.manifest
//! ```
//!
//! Every pass — the line rules, `tier-taint` and `call-lock-order` — runs
//! over one read and one lex of each file, and the findings print as one
//! sorted list. Exit codes: 0 clean, 1 findings, 2 usage/configuration
//! error.

use flock_lint::manifest::{self, LOCK_MANIFEST_PATH, TIER_MANIFEST_PATH};
use flock_lint::{lint, walk, LockManifest, TierManifest};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: flock-lint [--workspace | FILE…] [--lock-manifest PATH] [--tier-manifest PATH]";

#[derive(Default)]
struct Args {
    workspace: bool,
    lock_manifest: Option<PathBuf>,
    tier_manifest: Option<PathBuf>,
    files: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => args.workspace = true,
            "--lock-manifest" | "--tier-manifest" => {
                let path = it.next().ok_or(format!("{arg} requires a path"))?;
                let slot = if arg == "--lock-manifest" {
                    &mut args.lock_manifest
                } else {
                    &mut args.tier_manifest
                };
                *slot = Some(PathBuf::from(path));
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => args.files.push(PathBuf::from(other)),
        }
    }
    if !args.workspace && args.files.is_empty() {
        return Err("nothing to lint: pass --workspace or file paths".to_string());
    }
    Ok(args)
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
    let root = walk::find_workspace_root(&cwd)
        .ok_or("no [workspace] Cargo.toml above the current directory")?;
    let locks = manifest::load(
        &root,
        args.lock_manifest.as_deref(),
        LOCK_MANIFEST_PATH,
        LockManifest::parse,
    )?;
    let tier = manifest::load(
        &root,
        args.tier_manifest.as_deref(),
        TIER_MANIFEST_PATH,
        TierManifest::parse,
    )?;

    let rels = if args.workspace {
        walk::collect_rs_files(&root).map_err(|e| format!("scan: {e}"))?
    } else {
        // Workspace-relative form of each path: rule scoping keys off it.
        let rel = |p: &PathBuf| {
            let abs = cwd.join(p);
            let rel = abs.strip_prefix(&root).unwrap_or(&abs);
            rel.to_string_lossy().replace('\\', "/")
        };
        args.files.iter().map(rel).collect()
    };
    let (findings, scanned) = lint(&walk::read(&root, rels)?, &locks, &tier);

    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        println!("flock-lint: clean ({scanned} files scanned)");
        Ok(ExitCode::SUCCESS)
    } else {
        println!(
            "flock-lint: {} finding(s) in {scanned} files scanned",
            findings.len()
        );
        Ok(ExitCode::from(1))
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("flock-lint: {msg}");
            ExitCode::from(2)
        }
    }
}
