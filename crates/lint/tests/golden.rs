//! Golden-file self-tests: each rule is run over fixture sources that must
//! fire, stay clean, be suppressed by a justified `allow`, and flag an
//! unjustified one; then the real workspace must come out clean.
//!
//! Fixtures live under `tests/fixtures/` (a directory the workspace walk
//! skips, so the deliberately violating code never trips the real gate)
//! but are linted under *pretend* workspace-relative paths, because the
//! rules that apply to a file, and manifest qualification, key off its
//! location. Every fixture runs through every pass, as `--workspace` does.

use flock_lint::manifest::{self, LOCK_MANIFEST_PATH, TIER_MANIFEST_PATH};
use flock_lint::rules::{
    RULE_CALL_LOCK_ORDER, RULE_DETERMINISM, RULE_DIRECTIVE, RULE_FLOAT, RULE_HASH_ITER,
    RULE_LOCK_ORDER, RULE_PANIC, RULE_THREAD_SPAWN, RULE_TIER_TAINT,
};
use flock_lint::{lexer, lint, walk, Finding, LockManifest, TierManifest};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn lock_manifest() -> LockManifest {
    LockManifest::parse(
        "1 clock\n2 search users follows\n3 mastodon\n",
        "test-locks",
    )
    .expect("test lock manifest parses")
}

fn tier_manifest() -> TierManifest {
    TierManifest::parse(
        "source call current_worker\n\
         sink fn to_json\n\
         sink call save\n\
         boundary fn request_like\n",
        "test-tier",
    )
    .expect("test tier manifest parses")
}

/// Lint `(pretend path, fixture name)` pairs as one unit.
fn run(files: &[(&str, &str)]) -> Vec<Finding> {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(path, name)| (path.to_string(), fixture(name)))
        .collect();
    lint(&owned, &lock_manifest(), &tier_manifest()).0
}

fn lint_fixture(name: &str, pretend_path: &str) -> Vec<Finding> {
    run(&[(pretend_path, name)])
}

/// `(line, rule)` pairs, sorted — the shape golden assertions compare.
fn shape(findings: &[Finding]) -> Vec<(u32, &'static str)> {
    findings.iter().map(|f| (f.line, f.rule)).collect()
}

// --- determinism ---------------------------------------------------------

#[test]
fn determinism_fires_on_wall_clock_and_ambient_rng() {
    let findings = lint_fixture("determinism_fire.rs", "crates/fedisim/src/fixture.rs");
    assert_eq!(
        shape(&findings),
        vec![
            (2, RULE_DETERMINISM),  // SystemTime in the import
            (4, RULE_DETERMINISM),  // SystemTime in the signature
            (5, RULE_DETERMINISM),  // Instant::now
            (6, RULE_DETERMINISM),  // SystemTime::now
            (11, RULE_DETERMINISM), // thread_rng
            (12, RULE_DETERMINISM), // rand::random
            (16, RULE_DETERMINISM), // Utc::now
        ],
        "{findings:#?}"
    );
}

#[test]
fn determinism_clean_source_passes() {
    let findings = lint_fixture("determinism_clean.rs", "crates/fedisim/src/fixture.rs");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn determinism_allow_with_reason_suppresses() {
    let findings = lint_fixture(
        "determinism_allow_reason.rs",
        "crates/fedisim/src/fixture.rs",
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn determinism_allow_without_reason_is_flagged() {
    let findings = lint_fixture(
        "determinism_allow_no_reason.rs",
        "crates/fedisim/src/fixture.rs",
    );
    assert_eq!(shape(&findings), vec![(5, RULE_DIRECTIVE)], "{findings:#?}");
    assert!(findings[0].message.contains("requires a reason"));
}

#[test]
fn determinism_is_waived_for_bench_crate() {
    let findings = lint_fixture("determinism_fire.rs", "crates/bench/src/fixture.rs");
    assert!(
        findings.iter().all(|f| f.rule != RULE_DETERMINISM),
        "{findings:#?}"
    );
}

// --- hash-iter -----------------------------------------------------------

#[test]
fn hash_iter_fires_in_output_affecting_crates() {
    for krate in [
        "activitypub",
        "fedisim",
        "analysis",
        "repro",
        "crawler",
        "chaos",
        "monitor",
    ] {
        let path = format!("crates/{krate}/src/fixture.rs");
        let findings = lint_fixture("hash_iter_fire.rs", &path);
        assert_eq!(
            shape(&findings),
            vec![
                (2, RULE_HASH_ITER),
                (5, RULE_HASH_ITER),
                (9, RULE_HASH_ITER)
            ],
            "{krate}: {findings:#?}"
        );
    }
}

#[test]
fn hash_iter_does_not_apply_outside_scoped_crates() {
    let findings = lint_fixture("hash_iter_fire.rs", "crates/apis/src/fixture.rs");
    assert!(
        findings.iter().all(|f| f.rule != RULE_HASH_ITER),
        "{findings:#?}"
    );
}

#[test]
fn hash_iter_clean_source_passes() {
    let findings = lint_fixture("hash_iter_clean.rs", "crates/analysis/src/fixture.rs");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn hash_iter_allow_with_reason_suppresses() {
    let findings = lint_fixture(
        "hash_iter_allow_reason.rs",
        "crates/analysis/src/fixture.rs",
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn hash_iter_allow_without_reason_is_flagged() {
    let findings = lint_fixture(
        "hash_iter_allow_no_reason.rs",
        "crates/analysis/src/fixture.rs",
    );
    assert_eq!(shape(&findings), vec![(2, RULE_DIRECTIVE)], "{findings:#?}");
}

// --- lock-order ----------------------------------------------------------

#[test]
fn lock_order_fires_on_inversion_and_undeclared_locks() {
    let findings = lint_fixture("lock_order_fire.rs", "crates/apis/src/fixture.rs");
    assert_eq!(
        shape(&findings),
        vec![(4, RULE_LOCK_ORDER), (9, RULE_LOCK_ORDER)],
        "{findings:#?}"
    );
    assert!(findings[0].message.contains("strictly downward"));
    assert!(findings[1].message.contains("not declared"));
}

#[test]
fn lock_order_clean_source_passes() {
    let findings = lint_fixture("lock_order_clean.rs", "crates/apis/src/fixture.rs");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn lock_order_allow_with_reason_suppresses() {
    let findings = lint_fixture("lock_order_allow_reason.rs", "crates/apis/src/fixture.rs");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn lock_order_allow_without_reason_is_flagged() {
    let findings = lint_fixture(
        "lock_order_allow_no_reason.rs",
        "crates/apis/src/fixture.rs",
    );
    assert_eq!(shape(&findings), vec![(4, RULE_DIRECTIVE)], "{findings:#?}");
}

#[test]
fn lock_order_does_not_apply_outside_apis() {
    let findings = lint_fixture("lock_order_fire.rs", "crates/fedisim/src/fixture.rs");
    assert!(
        findings.iter().all(|f| f.rule != RULE_LOCK_ORDER),
        "{findings:#?}"
    );
}

// --- panic ---------------------------------------------------------------

#[test]
fn panic_fires_on_unwrap_expect_and_panic() {
    let findings = lint_fixture("panic_fire.rs", "crates/core/src/fixture.rs");
    assert_eq!(
        shape(&findings),
        vec![(3, RULE_PANIC), (7, RULE_PANIC), (11, RULE_PANIC)],
        "{findings:#?}"
    );
}

#[test]
fn panic_clean_source_passes_and_test_modules_are_exempt() {
    let findings = lint_fixture("panic_clean.rs", "crates/core/src/fixture.rs");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn panic_allow_with_reason_suppresses() {
    let findings = lint_fixture("panic_allow_reason.rs", "crates/core/src/fixture.rs");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn panic_allow_without_reason_is_flagged() {
    let findings = lint_fixture("panic_allow_no_reason.rs", "crates/core/src/fixture.rs");
    assert_eq!(shape(&findings), vec![(3, RULE_DIRECTIVE)], "{findings:#?}");
}

#[test]
fn panic_fires_on_bare_assert_but_not_equality_or_debug_macros() {
    let findings = lint_fixture("panic_assert_fire.rs", "crates/core/src/fixture.rs");
    assert_eq!(
        shape(&findings),
        vec![(3, RULE_PANIC), (4, RULE_PANIC)],
        "{findings:#?}"
    );
}

#[test]
fn panic_assert_option_rewrite_and_test_modules_pass() {
    let findings = lint_fixture("panic_assert_clean.rs", "crates/core/src/fixture.rs");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn panic_assert_allow_with_reason_suppresses() {
    let findings = lint_fixture("panic_assert_allow_reason.rs", "crates/core/src/fixture.rs");
    assert!(findings.is_empty(), "{findings:#?}");
}

// --- thread-spawn --------------------------------------------------------

#[test]
fn thread_spawn_fires_on_every_spawn_entry_point() {
    let findings = lint_fixture("thread_spawn_fire.rs", "crates/analysis/src/fixture.rs");
    assert_eq!(
        shape(&findings),
        vec![
            (3, RULE_THREAD_SPAWN), // std::thread::spawn
            (5, RULE_THREAD_SPAWN), // std::thread::scope
            (8, RULE_THREAD_SPAWN), // crossbeam::scope
        ],
        "{findings:#?}"
    );
    assert!(findings[0]
        .message
        .contains("fan out via flock_core::worker_pool::run"));
}

#[test]
fn thread_spawn_clean_source_passes() {
    let findings = lint_fixture("thread_spawn_clean.rs", "crates/analysis/src/fixture.rs");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn thread_spawn_allow_with_reason_suppresses() {
    let findings = lint_fixture(
        "thread_spawn_allow_reason.rs",
        "crates/analysis/src/fixture.rs",
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn thread_spawn_allow_without_reason_is_flagged() {
    let findings = lint_fixture(
        "thread_spawn_allow_no_reason.rs",
        "crates/analysis/src/fixture.rs",
    );
    assert_eq!(shape(&findings), vec![(3, RULE_DIRECTIVE)], "{findings:#?}");
    assert!(findings[0].message.contains("requires a reason"));
}

#[test]
fn thread_spawn_is_waived_for_the_worker_pool_only() {
    let findings = lint_fixture("thread_spawn_fire.rs", "crates/core/src/worker_pool.rs");
    assert!(
        findings.iter().all(|f| f.rule != RULE_THREAD_SPAWN),
        "{findings:#?}"
    );
    // Every other path fires, whatever its crate or file name.
    for path in [
        "crates/sched/src/lib.rs",
        "crates/crawler/src/worker_pool.rs",
    ] {
        let findings = lint_fixture("thread_spawn_fire.rs", path);
        assert_eq!(
            findings
                .iter()
                .filter(|f| f.rule == RULE_THREAD_SPAWN)
                .count(),
            3,
            "{path}: {findings:#?}"
        );
    }
}

// --- float-in-data-tier --------------------------------------------------

#[test]
fn float_fires_on_types_casts_and_literals_in_crawler() {
    let findings = lint_fixture("float_fire.rs", "crates/crawler/src/fixture.rs");
    assert_eq!(
        shape(&findings),
        vec![
            (2, RULE_FLOAT),  // f64 field
            (5, RULE_FLOAT),  // f64 parameter
            (6, RULE_FLOAT),  // as f64 cast
            (7, RULE_FLOAT),  // 0.5 literal
            (10, RULE_FLOAT), // f32 return type
            (11, RULE_FLOAT), // f32 casts (one finding per line)
        ],
        "{findings:#?}"
    );
    assert!(findings[0].message.contains("accumulation order"));
}

#[test]
fn float_does_not_apply_outside_the_crawler() {
    for path in [
        "crates/analysis/src/fixture.rs",
        "crates/fedisim/src/fixture.rs",
        "crates/apis/src/fixture.rs",
    ] {
        let findings = lint_fixture("float_fire.rs", path);
        assert!(
            findings.iter().all(|f| f.rule != RULE_FLOAT),
            "{path}: {findings:#?}"
        );
    }
}

#[test]
fn float_clean_integer_arithmetic_and_test_modules_pass() {
    let findings = lint_fixture("float_clean.rs", "crates/crawler/src/fixture.rs");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn float_allow_with_reason_suppresses() {
    let findings = lint_fixture("float_allow_reason.rs", "crates/crawler/src/fixture.rs");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn float_allow_without_reason_is_flagged() {
    let findings = lint_fixture("float_allow_no_reason.rs", "crates/crawler/src/fixture.rs");
    assert_eq!(shape(&findings), vec![(2, RULE_DIRECTIVE)], "{findings:#?}");
    assert!(findings[0].message.contains("requires a reason"));
}

// --- directive meta-rule -------------------------------------------------

#[test]
fn unknown_rule_names_and_malformed_directives_are_flagged() {
    let src = "\
// flock-lint: allow(nonsense) no such rule
// flock-lint: disable everything
pub fn f() {}
";
    let files = [("crates/core/src/fixture.rs".to_string(), src.to_string())];
    let (findings, _) = lint(&files, &LockManifest::default(), &TierManifest::default());
    assert_eq!(
        shape(&findings),
        vec![(1, RULE_DIRECTIVE), (2, RULE_DIRECTIVE)],
        "{findings:#?}"
    );
    assert!(findings[0].message.contains("unknown rule"));
    assert!(findings[1].message.contains("malformed"));
}

// --- tier-taint ----------------------------------------------------------

#[test]
fn cross_file_taint_fires_with_the_full_chain() {
    let findings = run(&[
        ("crates/crawler/src/taint_fire_a.rs", "taint_fire_a.rs"),
        ("crates/crawler/src/taint_fire_b.rs", "taint_fire_b.rs"),
    ]);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    let f = &findings[0];
    assert_eq!(f.path, "crates/crawler/src/taint_fire_b.rs");
    assert_eq!(f.line, 6); // the ds.save(path) call
    assert_eq!(f.rule, RULE_TIER_TAINT);
    // The witness chain crosses two call hops and two files down to the
    // concrete source.
    for part in [
        "stamp_and_save",
        "provenance_note",
        "worker_tag",
        "taint_fire_a.rs",
        "`current_worker(…)` [Sched source]",
    ] {
        assert!(
            f.message.contains(part),
            "missing {part:?} in {}",
            f.message
        );
    }
}

#[test]
fn a_tainted_sink_fn_fires_at_its_definition() {
    let findings = run(&[("crates/crawler/src/taint_sink_fn.rs", "taint_sink_fn.rs")]);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    let f = &findings[0];
    assert_eq!((f.line, f.rule), (11, RULE_TIER_TAINT));
    assert!(f.message.contains("sink fn `to_json`"), "{}", f.message);
    assert!(f.message.contains("describe_slot"), "{}", f.message);
    assert!(f.message.contains("slot_id"), "{}", f.message);
}

#[test]
fn a_declared_boundary_stops_propagation() {
    let findings = run(&[("crates/crawler/src/taint_clean.rs", "taint_clean.rs")]);
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn an_allow_with_reason_suppresses_taint() {
    let findings = run(&[(
        "crates/crawler/src/taint_allow_reason.rs",
        "taint_allow_reason.rs",
    )]);
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn an_allow_without_reason_is_itself_flagged() {
    let findings = run(&[(
        "crates/crawler/src/taint_allow_no_reason.rs",
        "taint_allow_no_reason.rs",
    )]);
    assert_eq!(
        shape(&findings),
        vec![(11, RULE_DIRECTIVE)],
        "{findings:#?}"
    );
}

// --- call-lock-order -----------------------------------------------------

#[test]
fn cross_file_nested_locks_fire_with_the_acquisition_path() {
    let findings = run(&[
        ("crates/apis/src/lock_fire_helper.rs", "lock_fire_helper.rs"),
        ("crates/apis/src/lock_fire_main.rs", "lock_fire_main.rs"),
    ]);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    let f = &findings[0];
    assert_eq!(f.path, "crates/apis/src/lock_fire_main.rs");
    assert_eq!(f.line, 8); // the reroute(srv) call under the mastodon guard
    assert_eq!(f.rule, RULE_CALL_LOCK_ORDER);
    for part in [
        "`search` (level 2)",
        "`mastodon` (level 3",
        "reroute",
        "refresh_search",
        "`.lock()` on `search`",
        "lock_fire_helper.rs",
    ] {
        assert!(
            f.message.contains(part),
            "missing {part:?} in {}",
            f.message
        );
    }
}

#[test]
fn downward_lock_order_through_calls_is_clean() {
    let findings = run(&[("crates/apis/src/lock_clean.rs", "lock_clean.rs")]);
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn an_allow_with_reason_suppresses_call_lock_order() {
    let findings = run(&[(
        "crates/apis/src/lock_allow_reason.rs",
        "lock_allow_reason.rs",
    )]);
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn finding_order_does_not_depend_on_input_order() {
    let forward = run(&[
        ("crates/crawler/src/taint_fire_a.rs", "taint_fire_a.rs"),
        ("crates/crawler/src/taint_fire_b.rs", "taint_fire_b.rs"),
        ("crates/apis/src/lock_fire_helper.rs", "lock_fire_helper.rs"),
        ("crates/apis/src/lock_fire_main.rs", "lock_fire_main.rs"),
    ]);
    let reversed = run(&[
        ("crates/apis/src/lock_fire_main.rs", "lock_fire_main.rs"),
        ("crates/apis/src/lock_fire_helper.rs", "lock_fire_helper.rs"),
        ("crates/crawler/src/taint_fire_b.rs", "taint_fire_b.rs"),
        ("crates/crawler/src/taint_fire_a.rs", "taint_fire_a.rs"),
    ]);
    assert_eq!(forward, reversed);
    assert_eq!(forward.len(), 2);
}

// --- the workspace itself ------------------------------------------------

fn workspace_root() -> PathBuf {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    walk::find_workspace_root(here).expect("workspace root above crates/lint")
}

/// Walk and read every in-scope file, as `--workspace` does.
fn workspace_files(root: &Path) -> Vec<(String, String)> {
    let rels = walk::collect_rs_files(root).expect("walk workspace");
    walk::read(root, rels).expect("read workspace")
}

/// The real manifests, which must declare real locks, sources and sinks.
fn real_manifests(root: &Path) -> (LockManifest, TierManifest) {
    let locks = manifest::load(root, None, LOCK_MANIFEST_PATH, LockManifest::parse)
        .expect("lock manifest parses");
    assert!(!locks.is_empty(), "lock-order.manifest must exist");
    let tier = manifest::load(root, None, TIER_MANIFEST_PATH, TierManifest::parse)
        .expect("tier.manifest parses");
    assert!(
        !tier.source_calls.is_empty() && !tier.sink_fns.is_empty(),
        "tier.manifest must declare real sources and sinks"
    );
    (locks, tier)
}

/// The acceptance gate: the real workspace must come out clean under the
/// real manifests, and every `allow` in it must carry a reason
/// (reason-less allows surface as `directive` findings, so one assertion
/// covers both).
#[test]
fn workspace_is_clean() {
    let root = workspace_root();
    let (locks, tier) = real_manifests(&root);
    let (findings, scanned) = lint(&workspace_files(&root), &locks, &tier);
    assert!(scanned > 40, "suspiciously few files scanned: {scanned}");
    assert!(
        findings.is_empty(),
        "workspace has findings:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The real manifest with its boundary declarations stripped.
fn unbounded(tier: TierManifest) -> TierManifest {
    TierManifest {
        boundary_fns: Vec::new(),
        ..tier
    }
}

#[test]
fn the_boundaries_are_load_bearing() {
    // Guard against the manifest rotting into a no-op: stripping the
    // boundary declarations must surface the known Sched→Data flows
    // (span ids in `request`, available_parallelism in the fig14 pool).
    let root = workspace_root();
    let (locks, tier) = real_manifests(&root);
    let (findings, _) = lint(&workspace_files(&root), &locks, &unbounded(tier));
    assert!(
        findings.len() >= 5,
        "stripping boundaries should expose the declared flows, got {findings:#?}"
    );
    assert!(
        findings
            .iter()
            .all(|f| f.rule == RULE_TIER_TAINT && f.message.contains("[Sched source]")),
        "{findings:#?}"
    );
}

#[test]
fn output_is_deterministic_across_runs() {
    // Two full pipelines from disk — walk, read, lex, analyze, render —
    // must agree to the byte. Boundaries are stripped so there is output
    // to compare.
    let root = workspace_root();
    let (locks, tier) = real_manifests(&root);
    let tier = unbounded(tier);
    let render = || {
        let (findings, scanned) = lint(&workspace_files(&root), &locks, &tier);
        let lines: Vec<String> = findings.iter().map(ToString::to_string).collect();
        format!("{}\n{scanned} files scanned", lines.join("\n"))
    };
    let first = render();
    assert_eq!(first, render());
    assert!(first.contains("[tier-taint]"), "{first}");
}

/// A lexer invariant: every walked file lexes to properly nested `{}`,
/// `()` and `[]`. A lexer state that swallows code (a string that never
/// closes, a raw identifier read as a raw string) breaks the nesting.
#[test]
fn every_walked_file_lexes_to_balanced_delimiters() {
    let root = workspace_root();
    let files = workspace_files(&root);
    assert!(files.len() > 40, "walked {} files", files.len());
    let unbalanced: Vec<&str> = files
        .iter()
        .filter(|(_, src)| !balanced(&lexer::lex(src).tokens))
        .map(|(path, _)| path.as_str())
        .collect();
    assert!(
        unbalanced.is_empty(),
        "unbalanced after lexing: {unbalanced:?}"
    );
}

fn balanced(tokens: &[lexer::Token]) -> bool {
    let mut closers = Vec::new();
    for tok in tokens.iter().filter(|t| !t.is_ident) {
        match tok.text.as_str() {
            "{" => closers.push("}"),
            "(" => closers.push(")"),
            "[" => closers.push("]"),
            c @ ("}" | ")" | "]") => {
                let expected = closers.pop();
                if expected != Some(c) {
                    return false;
                }
            }
            _ => {}
        }
    }
    closers.is_empty()
}
