//! The `repro` command line, checked on the built binary.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

/// A usage error exits non-zero before any world is generated: nothing on
/// stdout, no generation banner, the usage line on stderr.
fn assert_usage_error(args: &[&str], expected: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} was accepted: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} produced output");
    assert!(
        !stderr.contains("[repro] generating world"),
        "{args:?} generated a world before failing: {stderr}"
    );
    assert!(
        stderr.contains(expected) && stderr.contains("usage: repro"),
        "{args:?}: {stderr}"
    );
}

/// Monitor-only flags on a crawl run are a usage error, never silently
/// dropped (a dropped `--checkpoint` would run an un-checkpointed crawl).
#[test]
fn monitor_only_flags_are_rejected_without_monitor() {
    for flag in [
        &["--checkpoint", "x.ckpt"][..],
        &["--sim-days", "5"],
        &["--nodes", "nodes.txt"],
    ] {
        let args: Vec<&str> = ["--scale", "small"]
            .iter()
            .chain(flag)
            .chain(&["headline"])
            .copied()
            .collect();
        assert_usage_error(&args, &format!("{} only applies with --monitor", flag[0]));
    }
}

/// Unknown flags and artifacts fail before the crawl, not after it.
#[test]
fn bad_arguments_fail_before_anything_runs() {
    assert_usage_error(
        &["--scale", "small", "--bogus", "headline"],
        "unknown flag \"--bogus\"",
    );
    assert_usage_error(
        &["--scale", "small", "headline", "fig99"],
        "unknown figure id \"fig99\"",
    );
    assert_usage_error(
        &["--scale", "small", "csvfoo"],
        "unknown figure id \"csvfoo\"",
    );
    assert_usage_error(
        &["--scale", "small", "headline=out.txt"],
        "artifact \"headline\" takes no path",
    );
    assert_usage_error(
        &["--monitor", "--scale", "small", "--tasks", "64"],
        "unknown flag \"--tasks\"",
    );
    assert_usage_error(
        &["--monitor", "--scale", "small", "--test"],
        "unknown flag \"--test\"",
    );
}
