//! Schema guard for the committed `BENCH_history.jsonl`: every line must
//! parse with the vendored `serde_json` shim and satisfy the per-shape
//! key requirements the trend gate (`flock_obs::dashboard::eval_gate`,
//! run by the throughput bench's smoke and drawn by the run dashboard)
//! reads. A malformed append fails here — at `cargo test` time — instead
//! of silently skewing gate medians or rendering empty charts. The loader
//! itself is fuzzed: whatever the text, it returns the entries or an
//! error naming the offending line, and never panics.

use flock::obs::dashboard::{
    eval_gate, parse_history, parse_history_line, trend_series, GateStatus, HistoryShape,
    GATE_RULES,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

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
fn committed_history_feeds_the_dashboard_trend_series() {
    let entries = parse_history(&committed_history()).expect("committed history parses");
    let series = trend_series(&entries);
    let keys: Vec<&str> = series.iter().map(|s| s.rule.key).collect();
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

/// One more recorded throughput line carrying `mem` leaves peak RSS in
/// bootstrap: a rule's window holds only entries that carry its metric,
/// where the retired awk gate windowed the last three throughput lines.
#[test]
fn one_more_recorded_line_leaves_peak_rss_in_bootstrap() {
    let text = committed_history();
    let newest = text.lines().rfind(|l| l.contains("\"search\""));
    let text = format!("{text}{}\n", newest.expect("a throughput line"));
    let entries = parse_history(&text).expect("history plus one recorded line parses");
    let rss = GATE_RULES.iter().find(|r| r.key == "peak-rss");
    assert_eq!(
        eval_gate(&entries, rss.expect("peak-rss rule")),
        GateStatus::Bootstrap { have: 2 }
    );
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

/// The loader's contract on any text: the entries, or an error naming a
/// line in `lines` (1-based).
fn loads_or_names_a_line(
    text: &str,
    lines: std::ops::RangeInclusive<usize>,
) -> Result<(), TestCaseError> {
    if let Err(e) = parse_history(text) {
        let named = |n: usize| e.starts_with(&format!("history line {n}: "));
        prop_assert!(
            lines.clone().any(named),
            "error names no line in {lines:?}: {e}"
        );
    }
    Ok(())
}

/// `text` with line `i` (0-based) replaced by `line`.
fn with_line(text: &str, i: usize, line: &str) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    lines[i] = line;
    lines.join("\n")
}

#[test]
fn every_truncation_of_a_committed_line_is_an_error_naming_it() {
    let text = committed_history();
    for (i, line) in text.lines().enumerate() {
        for cut in 0..line.len() {
            loads_or_names_a_line(&with_line(&text, i, &line[..cut]), i + 1..=i + 1)
                .unwrap_or_else(|e| panic!("line {} cut at {cut}: {e}", i + 1));
        }
    }
}

/// JSON punctuation, the history's keys and a few hostile values,
/// `|`-separated.
const SOUP: &str = "{|}|[|]|\"|:|,|\n| |0|1|-1|4.5|1e999|null|\"x\"|\"sha\":\"a\"|\"label\":\"b\"|\
    \"world\":|\"host_cpus\":|\"search\":{\"indexed_qps\":|\"crawl\":[|\"workers\":|\
    {\"workers\":1,\"expand_secs\":0.5}|\"expand_secs\":|\"mem\":{\"peak_rss_bytes\":|\
    \"checks_per_sec\":|\"checks\":|\"sim_days\":|\"generate_secs\":";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_text_loads_or_names_a_line(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        tokens in prop::collection::vec(any::<usize>(), 0..120),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        loads_or_names_a_line(&text, 1..=text.lines().count())?;
        let soup: Vec<&str> = SOUP.split('|').collect();
        let soup: String = tokens.iter().map(|&t| soup[t % soup.len()]).collect();
        loads_or_names_a_line(&soup, 1..=soup.lines().count())?;
    }

    #[test]
    fn one_byte_changes_load_or_name_their_line(
        which in any::<u64>(),
        at in any::<u64>(),
        byte in any::<u8>(),
    ) {
        let text = committed_history();
        let lines: Vec<&str> = text.lines().collect();
        let i = (which % lines.len() as u64) as usize;
        let mut bytes = lines[i].as_bytes().to_vec();
        let at = (at % bytes.len() as u64) as usize;
        bytes[at] = byte;
        let changed = with_line(&text, i, &String::from_utf8_lossy(&bytes));
        // The lines before the changed one still parse; a newline byte
        // can split it, so the error may name any line from it on.
        loads_or_names_a_line(&changed, i + 1..=changed.lines().count())?;
    }
}
