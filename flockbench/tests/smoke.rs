//! Smoke test of the benchmark itself: every workload in `--smoke` mode,
//! one job of each kind, untraced and traced. Checks that every metric
//! `BENCHMARK.json` names is printed with its unit, that the output digest
//! check passes, and that the traced run leaves under 5% of `run_s`
//! unattributed to a layer span.
//!
//! Seconds-long in release mode: `cargo test --release` in this directory.

use serde::Value;
use std::path::Path;
use std::process::Command;

/// The stage-profile bar: top-level spans must cover all but this share of
/// the run.
const UNATTRIBUTED_BOUND: f64 = 0.05;

fn parse(text: &str) -> Value {
    serde_json::parse_value(text).unwrap_or_else(|e| panic!("bad JSON {text:?}: {e}"))
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(bench: &Value, list: &str) -> Vec<(String, String)> {
    let Some(Value::Array(items)) = bench.get(list) else {
        panic!("BENCHMARK.json has no {list} list");
    };
    items
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
            _ => panic!("malformed metric in {list}: {m:?}"),
        })
        .collect()
}

fn number(v: Option<&Value>) -> f64 {
    match v {
        Some(Value::F64(x)) => *x,
        Some(Value::U64(x)) => *x as f64,
        Some(Value::I64(x)) => *x as f64,
        other => panic!("not a number: {other:?}"),
    }
}

#[test]
fn every_workload_prints_its_metrics_and_passes_its_checks() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let bench = parse(
        &std::fs::read_to_string(root.join("../BENCHMARK.json")).expect("read BENCHMARK.json"),
    );
    let Some(Value::Array(workloads)) = bench.get("workloads") else {
        panic!("BENCHMARK.json has no workloads");
    };
    for workload in workloads {
        let Some(Value::Str(name)) = workload.get("name") else {
            panic!("workload without a name: {workload:?}");
        };
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_flockbench"))
                .args([
                    "--workload",
                    name,
                    "--seconds",
                    "0",
                    "--trace",
                    trace,
                    "--smoke",
                ])
                .current_dir(root)
                .output()
                .expect("run flockbench");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success(),
                "{name} trace {trace} failed:\n{stderr}"
            );
            let stdout = String::from_utf8_lossy(&out.stdout);
            let result = parse(stdout.lines().last().expect("a result line"));
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{stderr}");
            assert_eq!(number(result.get("failed")), 0.0);
            assert!(number(result.get("attempted")) >= 1.0);

            let Some(Value::Map(metrics)) = result.get("metrics") else {
                panic!("{name}: no metrics in {stdout}");
            };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(n, m)| match m.get("unit") {
                    Some(Value::Str(u)) => (n.clone(), u.clone()),
                    _ => panic!("{name}: metric {n} has no unit"),
                })
                .collect();
            assert_eq!(printed, declared(&bench, list), "{name} trace {trace}");
            for (n, m) in metrics {
                assert!(number(m.get("value")).is_finite(), "{name}: {n} not finite");
            }
            if trace == "1" {
                let frac = number(result.get("metrics").and_then(|m| {
                    m.get("trace.unattributed_frac")
                        .and_then(|v| v.get("value"))
                }));
                assert!(
                    (0.0..UNATTRIBUTED_BOUND).contains(&frac),
                    "{name}: unattributed_frac {frac} not under {UNATTRIBUTED_BOUND}"
                );
            }
        }
    }
}
