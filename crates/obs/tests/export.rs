//! Exporter-correctness tests: everything `export_json` emits must parse
//! with the vendored `serde_json` shim, and `json_escape` must survive a
//! full encode→parse round trip for any string — control characters and
//! non-ASCII included. The exporters are hand-rolled string builders, so
//! these tests are the only thing standing between a stray unescaped byte
//! and a corrupt metrics artifact.

use flock_obs::{json_escape, Registry, SpanOutcome, Tier, WaitCause};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use serde::Value;

/// A metric name made of the characters most likely to break a
/// hand-written JSON encoder.
const HOSTILE: &str = "weird \"name\"\twith\ncontrol chars \\ é 中 🚀 \u{1}";

/// Build a registry exercising every slot kind, the span store, and a
/// hostile metric name.
fn populated_registry() -> Registry {
    let reg = Registry::new();
    reg.counter("flock.test.requests", Tier::Data).add(41);
    let g = reg.gauge("flock.test.queue_depth", Tier::Sched);
    g.set(9);
    g.set(3);
    let h = reg.histogram(
        "flock.test.wait_secs",
        Tier::Data,
        &flock_obs::SECONDS_BOUNDS,
    );
    for v in [0, 1, 5, 40, 900, 3600] {
        h.record(v);
    }
    reg.counter(HOSTILE, Tier::Sched).add(7);
    let span = reg.span_begin("discover", "search:\"quote\"".to_string(), Some(0), 0);
    reg.span_attempt(span, SpanOutcome::RateLimited { storm: false });
    reg.attribute_wait(Some(span), "discover", WaitCause::TokenBucket, 60);
    reg.span_attempt(span, SpanOutcome::Granted);
    reg.span_end(span, 60);
    reg
}

/// Walk a parsed metrics map and return the entry names.
fn metric_names(tier: &Value) -> Vec<String> {
    match tier {
        Value::Map(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("tier section should be a map, got {}", other.kind()),
    }
}

#[test]
fn export_json_parses_with_the_vendored_shim() {
    let reg = populated_registry();
    let doc = serde_json::parse_value(&reg.export_json()).expect("export_json must be valid JSON");

    // Both tier sections exist and hold the metrics we registered.
    let data = doc.get("deterministic").expect("deterministic section");
    assert!(metric_names(data).contains(&"flock.test.requests".to_string()));
    assert!(metric_names(data).contains(&"flock.test.wait_secs".to_string()));
    let sched = doc.get("scheduling").expect("scheduling section");
    assert!(metric_names(sched).contains(&"flock.test.queue_depth".to_string()));

    // Counter value survives the trip.
    let requests = data.get("flock.test.requests").expect("counter entry");
    assert_eq!(requests.get("kind"), Some(&Value::Str("counter".into())));
    assert_eq!(requests.get("value"), Some(&Value::U64(41)));

    // Histogram carries interpolated quantiles alongside raw buckets.
    let hist = data.get("flock.test.wait_secs").expect("histogram entry");
    assert_eq!(hist.get("count"), Some(&Value::U64(6)));
    for q in ["p50", "p95", "p99"] {
        assert!(
            matches!(hist.get(q), Some(Value::F64(v)) if *v >= 0.0),
            "histogram should expose {q}"
        );
    }
    assert!(matches!(hist.get("buckets"), Some(Value::Array(_))));

    // The hostile name survives the encode→parse round trip.
    let hostile = sched.get(HOSTILE).expect("hostile-named counter");
    assert_eq!(hostile.get("value"), Some(&Value::U64(7)));

    // The span accounting section is present and well-typed.
    let spans = doc.get("spans").expect("spans section");
    assert_eq!(spans.get("recorded"), Some(&Value::U64(1)));
    assert_eq!(spans.get("dropped"), Some(&Value::U64(0)));
}

#[test]
fn export_json_of_an_empty_registry_parses_too() {
    let doc = serde_json::parse_value(&Registry::new().export_json()).expect("empty export");
    let spans = doc.get("spans").expect("spans section");
    assert_eq!(spans.get("recorded"), Some(&Value::U64(0)));
}

/// Strategy: printable base text (the shim's `.` palette already mixes in
/// non-ASCII like `é`, `中` and `🚀`) plus explicit splice points for the
/// control characters the palette can never produce.
fn text_with_control_chars() -> impl Strategy<Value = String> {
    (".{0,40}", any::<u8>(), any::<u8>()).prop_map(|(base, a, b)| {
        let mut s = String::new();
        // Splice a control char (U+0000..=U+001F) at the front, one in the
        // middle, and the DEL byte at the end — every escaping branch of
        // json_escape (\n, \t, \uXXXX, backslash, quote) gets exercised.
        s.push(char::from(a % 0x20));
        let mid = base.chars().count() / 2;
        for (i, c) in base.chars().enumerate() {
            if i == mid {
                s.push(char::from(b % 0x20));
                s.push('"');
                s.push('\\');
            }
            s.push(c);
        }
        s.push('\u{7f}');
        s
    })
}

proptest! {
    #[test]
    fn json_escape_round_trips_through_the_parser(s in text_with_control_chars()) {
        let doc = format!("{{\"s\":\"{}\"}}", json_escape(&s));
        let parsed = serde_json::parse_value(&doc)
            .map_err(|e| TestCaseError::fail(format!("escaped doc rejected: {e}")))?;
        prop_assert_eq!(parsed.get("s"), Some(&Value::Str(s)));
    }

    #[test]
    fn json_escape_output_is_ascii_safe_for_control_chars(s in text_with_control_chars()) {
        let escaped = json_escape(&s);
        prop_assert!(
            !escaped.chars().any(|c| c < ' '),
            "raw control char leaked into {escaped:?}"
        );
        // Quotes and backslashes must only appear as escape sequences.
        let mut chars = escaped.chars().peekable();
        while let Some(c) = chars.next() {
            prop_assert_ne!(c, '"');
            if c == '\\' {
                let next = chars.next();
                prop_assert!(next.is_some(), "dangling backslash in {escaped:?}");
            }
        }
    }
}
