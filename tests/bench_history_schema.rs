//! Schema guard for the committed `BENCH_history.jsonl`: every line must
//! parse with the vendored `serde_json` shim and satisfy the per-shape
//! key requirements the bench trend gates (`scripts/bench_check.sh`) and
//! the run dashboard's trend charts both read. A malformed append fails
//! here — at `cargo test` time — instead of silently skewing gate
//! medians or rendering empty charts.

use flock::obs::dashboard::{parse_history, parse_history_line, trend_series, HistoryShape};
use serde::Value;

fn committed_history() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_history.jsonl");
    std::fs::read_to_string(path).expect("BENCH_history.jsonl must exist at the repo root")
}

#[test]
fn every_committed_line_parses_and_carries_its_shape_keys() {
    let text = committed_history();
    let entries = parse_history(&text).expect("committed history must schema-check");
    assert!(!entries.is_empty(), "history should not be empty");
    assert_eq!(
        entries.len(),
        text.lines().filter(|l| !l.trim().is_empty()).count(),
        "every non-blank line must yield an entry"
    );
    for e in &entries {
        assert!(!e.sha.is_empty(), "sha must be non-empty");
        assert!(!e.label.is_empty(), "label must be non-empty");
        match e.shape {
            HistoryShape::Throughput => {
                assert!(e.search_qps.is_some_and(|v| v > 0.0));
                assert!(e.expand_w1_secs.is_some_and(|v| v > 0.0));
            }
            HistoryShape::Monitor => {
                assert!(e.checks_per_sec.is_some_and(|v| v > 0.0));
            }
            HistoryShape::PaperScale => {}
        }
    }
}

#[test]
fn raw_lines_expose_the_keys_bench_check_greps_for() {
    // bench_check.sh windows its trend gates by grepping for these keys;
    // assert the raw JSON (via the same vendored shim the workspace
    // serializes with) so a key rename breaks loudly here.
    for (i, line) in committed_history()
        .lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
    {
        let v = serde_json::parse_value(line)
            .unwrap_or_else(|e| panic!("history line {}: invalid JSON: {e}", i + 1));
        assert!(
            matches!(v.get("sha"), Some(Value::Str(_))),
            "line {}: sha must be a string",
            i + 1
        );
        assert!(
            matches!(v.get("label"), Some(Value::Str(_))),
            "line {}: label must be a string",
            i + 1
        );
        if let Some(search) = v.get("search") {
            assert!(
                search.get("indexed_qps").is_some(),
                "line {}: throughput shape needs search.indexed_qps",
                i + 1
            );
        }
        if v.get("checks_per_sec").is_some() {
            for key in ["checks", "sim_days"] {
                assert!(
                    v.get(key).is_some(),
                    "line {}: monitor shape needs {key}",
                    i + 1
                );
            }
        }
    }
}

#[test]
fn committed_history_feeds_the_dashboard_trend_series() {
    let entries = parse_history(&committed_history()).expect("committed history parses");
    let series = trend_series(&entries);
    let keys: Vec<&str> = series.iter().map(|s| s.key).collect();
    assert_eq!(
        keys,
        vec!["search-qps", "expand-secs", "monitor-checks", "peak-rss"]
    );
    // Shape filtering: throughput-backed series hold exactly the
    // throughput-shaped entries, the monitor series the monitor ones.
    let throughput = entries
        .iter()
        .filter(|e| e.shape == HistoryShape::Throughput)
        .count();
    let monitor = entries
        .iter()
        .filter(|e| e.shape == HistoryShape::Monitor)
        .count();
    assert_eq!(series[0].values.len(), throughput);
    assert_eq!(series[1].values.len(), throughput);
    assert_eq!(series[2].values.len(), monitor);
    assert!(throughput >= 1 && monitor >= 1, "seed history covers both");
}

#[test]
fn schema_violations_are_rejected_per_line() {
    let good = r#"{"sha":"a","label":"monitor","sim_days":1,"checks":2,"checks_per_sec":3.0}"#;
    let bad = r#"{"sha":"a","label":"monitor","checks_per_sec":3.0}"#;
    let text = format!("{good}\n{bad}\n");
    let err = parse_history(&text).expect_err("missing monitor keys must fail");
    assert!(err.contains("line 2"), "error should name the line: {err}");
    assert!(parse_history_line(good).is_ok());
}
