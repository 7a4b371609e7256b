//! The `repro` command line, checked on the built binary.

use std::process::Command;

/// Monitor-only flags on a crawl run are a usage error, never silently
/// dropped (a dropped `--checkpoint` would run an un-checkpointed crawl).
/// The rejection comes before any world is generated, so each case exits
/// at once.
#[test]
fn monitor_only_flags_are_rejected_without_monitor() {
    for flag in [
        &["--checkpoint", "x.ckpt"][..],
        &["--tasks", "64"],
        &["--sim-days", "5"],
        &["--nodes", "nodes.txt"],
        &["--test"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--scale", "small"])
            .args(flag)
            .arg("headline")
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{flag:?} was accepted: {stderr}");
        assert!(
            stderr.contains(&format!("{} only applies with --monitor", flag[0]))
                && stderr.contains("usage: repro"),
            "{flag:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{flag:?} produced output");
    }
}
