//! flockbench — the flock end-to-end benchmark. See `README.md` beside
//! this crate for the workloads, the metrics and how they relate.
//!
//! ```text
//! flockbench --workload <study|monitor_outages>
//!            [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! A run makes one warm-up job, then repeats the workload's batch job —
//! set-up, then the run — until `--seconds` have passed and at least
//! [`MIN_JOBS`] jobs are done, and reports medians over the jobs
//! after the warm-up. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` alternates untraced and traced jobs and prints the
//! per-layer metrics. The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; everything else goes
//! to standard error, and the full record (host, seed, samples, spans) to
//! `.bench_out/`. The exit code is non-zero when a job fails or an output
//! digest mismatches.

mod digest;
mod sys;
mod trace;
mod workload;

use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workload::{Plan, Sample, Workload};

const USAGE: &str = "usage: flockbench --workload <study|monitor_outages> \
                     [--seed N] [--seconds S] [--trace 0|1] [--smoke]";

/// The default seed. README.md names a held-out seed too, kept out of
/// tuning, on which a claimed gain must also hold.
const DEFAULT_SEED: u64 = 1234;

/// Jobs of each kind a run makes at least, however short `--seconds` is.
const MIN_JOBS: usize = 3;
/// The same floor for traced runs, per kind (traced and untraced).
const MIN_TRACED_JOBS: usize = 2;

/// End-to-end metrics, from untraced jobs: name and unit.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("requests_per_cpu_s", "1/s"),
];

/// Per-layer metrics, from traced jobs: name and unit. A layer a workload
/// does not run reads 0.
const PER_LAYER: [(&str, &str); 45] = [
    ("fedisim.generate_s", "s"),
    ("fedisim.generate_alloc_mb", "MB"),
    ("fedisim.generate_rss_delta_mb", "MB"),
    ("apis.build_s", "s"),
    ("apis.build_alloc_mb", "MB"),
    ("apis.granted", "count"),
    ("apis.rate_limited", "count"),
    ("apis.granted_frac", "frac"),
    ("crawler.discover_s", "s"),
    ("crawler.expand_s", "s"),
    ("crawler.cpu_s", "s"),
    ("crawler.alloc_mb", "MB"),
    ("crawler.requests", "count"),
    ("crawler.attempts", "count"),
    ("crawler.useful_frac", "frac"),
    ("crawler.virtual_s", "virtual-s"),
    ("analysis.fig2_s", "s"),
    ("analysis.fig4_s", "s"),
    ("analysis.fig5_s", "s"),
    ("analysis.fig6_s", "s"),
    ("analysis.fig7_s", "s"),
    ("analysis.fig8_s", "s"),
    ("analysis.fig9_s", "s"),
    ("analysis.fig10_s", "s"),
    ("analysis.fig11_s", "s"),
    ("analysis.fig12_s", "s"),
    ("analysis.fig13_s", "s"),
    ("analysis.fig14_s", "s"),
    ("analysis.fig15_s", "s"),
    ("analysis.fig16_s", "s"),
    ("analysis.topics_s", "s"),
    ("analysis.retention_s", "s"),
    ("analysis.headline_s", "s"),
    ("repro.render_all_s", "s"),
    ("repro.export_csv_s", "s"),
    ("persist.anonymize_s", "s"),
    ("persist.save_s", "s"),
    ("persist.load_s", "s"),
    ("persist.bytes", "bytes"),
    ("monitor.run_s", "s"),
    ("monitor.cpu_s", "s"),
    ("monitor.rounds", "count"),
    ("monitor.checks", "count"),
    ("monitor.alloc_mb", "MB"),
    ("trace.unattributed_frac", "frac"),
];

/// Tracing overhead, the one per-layer metric not read off a single job.
const OVERHEAD: (&str, &str) = ("trace.overhead_s", "s");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, DEFAULT_SEED, 40.0, false, false);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| bad("study or monitor_outages"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a non-negative number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("flockbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("flockbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Who ran what, where: recorded with every result, since a baseline from
/// another host or shape is not comparable.
#[derive(Serialize)]
struct Identity {
    workload: String,
    seed: u64,
    scale: String,
    shape: String,
    scenario: String,
    smoke: bool,
    trace: bool,
    host_nproc: usize,
    host_mem_total_kb: u64,
    git_sha: String,
}

#[derive(Serialize)]
struct Record {
    identity: Identity,
    attempted: usize,
    failed: usize,
    failed_frac: f64,
    failure: Option<String>,
    headline_pass_warn_fail: Option<(usize, usize, usize)>,
    metrics: BTreeMap<String, f64>,
    samples: Vec<Sample>,
}

/// Run the workload; `Ok(false)` when a job failed or a digest mismatched.
fn run(args: &Args) -> Result<bool, String> {
    let out_dir = PathBuf::from(".bench_out");
    let work_dir = out_dir.join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("create {}: {e}", work_dir.display()))?;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let plan = Plan {
        workload: args.workload,
        seed: args.seed,
        workers,
        sim_days: if args.smoke {
            workload::SMOKE_SIM_DAYS
        } else {
            workload::MONITOR_SIM_DAYS
        },
        work_dir,
    };
    let identity = Identity {
        workload: args.workload.name().to_string(),
        seed: args.seed,
        scale: workload::SCALE.to_string(),
        shape: plan.shape(),
        scenario: args.workload.scenario().name().to_string(),
        smoke: args.smoke,
        trace: args.trace,
        host_nproc: workers,
        host_mem_total_kb: sys::mem_total_kb(),
        git_sha: git_sha(),
    };
    eprintln!(
        "flockbench: {} seed {} shape {} scenario {} on {} CPUs / {} kB (git {})",
        identity.workload,
        identity.seed,
        identity.shape,
        identity.scenario,
        identity.host_nproc,
        identity.host_mem_total_kb,
        identity.git_sha
    );

    let (samples, failure) = iterate(&plan, args);
    let _ = std::fs::remove_dir_all(&plan.work_dir);

    let attempted = samples.len() + usize::from(failure.is_some());
    let failed = usize::from(failure.is_some());
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        per_layer(&samples)
    } else {
        end_to_end(&samples)
    };
    for (name, unit, value) in &metrics {
        eprintln!("  {name:<32} {value:>16.6} {unit}");
    }
    let headline = samples.iter().find_map(|s| s.headline);
    let failed_frac = failed as f64 / attempted as f64;
    eprintln!(
        "  failed_frac {failed_frac} ({failed} of {attempted} jobs){}",
        match headline {
            Some((p, w, f)) => format!("; headline {p} pass / {w} warn / {f} fail"),
            None => String::new(),
        }
    );
    if let Some(e) = &failure {
        eprintln!("flockbench: FAILED: {e}");
    }

    let record = Record {
        identity,
        attempted,
        failed,
        failed_frac,
        failure,
        headline_pass_warn_fail: headline,
        metrics: metrics
            .iter()
            .map(|(n, _, v)| (n.to_string(), *v))
            .collect(),
        samples,
    };
    write_record(&out_dir, args, &record)?;

    let result = Value::Map(vec![
        ("correct".to_string(), Value::Bool(failed == 0)),
        ("attempted".to_string(), Value::U64(attempted as u64)),
        ("failed".to_string(), Value::U64(failed as u64)),
        (
            "metrics".to_string(),
            Value::Map(
                metrics
                    .iter()
                    .map(|(name, unit, value)| {
                        let metric = Value::Map(vec![
                            ("value".to_string(), Value::F64(*value)),
                            ("unit".to_string(), Value::Str(unit.to_string())),
                        ]);
                        (name.to_string(), metric)
                    })
                    .collect(),
            ),
        ),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(failed == 0)
}

/// Repeat jobs until the time is up and every floor is met, or a job
/// fails. A job's digest must equal the one recorded for its world seed,
/// or else that of the first job on the same world.
///
/// The first job of a full run is a warm-up: its outputs are checked but
/// its times are left out, since it alone grows the heap from nothing and
/// reads consistently slower than the jobs after it.
fn iterate(plan: &Plan, args: &Args) -> (Vec<Sample>, Option<String>) {
    let floor = match (args.smoke, args.trace) {
        (true, _) => 1,
        (false, true) => MIN_TRACED_JOBS,
        (false, false) => MIN_JOBS,
    };
    let mut start = Instant::now();
    let mut samples: Vec<Sample> = Vec::new();
    loop {
        let job = samples.len();
        let warmup = job == 0 && !args.smoke;
        // Traced runs alternate traced and untraced jobs in pairs on the
        // same world, so the tracing overhead compares like with like.
        let traced = args.trace && job % 2 == 1;
        let world = if args.trace { job.div_ceil(2) } else { job };
        let mut sample = match workload::run_job(plan, world, traced) {
            Ok(sample) => sample,
            Err(e) => return (samples, Some(e)),
        };
        sample.warmup = warmup;
        eprintln!(
            "  job {:>2} {:<8} world {:>6} setup {:>8.4}s run {:>8.4}s cpu {:>8.4}s digest {}",
            job + 1,
            match (warmup, traced) {
                (true, _) => "warm-up",
                (false, true) => "traced",
                (false, false) => "untraced",
            },
            sample.world_seed,
            sample.setup_s,
            sample.run_s,
            sample.cpu_s,
            sample.digest
        );
        let expected = digest::recorded(plan.workload.name(), &plan.shape(), sample.world_seed)
            .or_else(|| {
                samples
                    .iter()
                    .find(|s| s.world_seed == sample.world_seed)
                    .map(|s| s.digest.clone())
            });
        if let Some(expected) = expected {
            if sample.digest != expected {
                let e = format!(
                    "world {}: output digest {} != expected {expected}",
                    sample.world_seed, sample.digest
                );
                return (samples, Some(e));
            }
        }
        samples.push(sample);
        if warmup {
            start = Instant::now();
            continue;
        }
        let count = |traced: bool| {
            samples
                .iter()
                .filter(|s| !s.warmup && s.traced == traced)
                .count()
        };
        let floors_met = count(false) >= floor && (!args.trace || count(true) >= floor);
        if floors_met && start.elapsed().as_secs_f64() >= args.seconds {
            return (samples, None);
        }
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Median of `f` over the measured (not warm-up) jobs of one kind.
fn median_of(samples: &[Sample], traced: bool, f: impl Fn(&Sample) -> f64) -> f64 {
    median(
        samples
            .iter()
            .filter(|s| !s.warmup && s.traced == traced)
            .map(f)
            .collect(),
    )
}

fn end_to_end(samples: &[Sample]) -> Vec<(&'static str, &'static str, f64)> {
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "setup_s" => median_of(samples, false, |s| s.setup_s),
                "run_s" => median_of(samples, false, |s| s.run_s),
                "cpu_s" => median_of(samples, false, |s| s.cpu_s),
                "peak_rss_mb" => sys::peak_rss_bytes() as f64 / 1e6,
                "requests_per_cpu_s" => median_of(samples, false, |s| {
                    s.requests as f64 / s.request_cpu_s.max(f64::MIN_POSITIVE)
                }),
                _ => unreachable!("every end-to-end metric has a rule"),
            };
            (name, unit, value)
        })
        .collect()
}

fn per_layer(samples: &[Sample]) -> Vec<(&'static str, &'static str, f64)> {
    let mut out: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = median_of(samples, true, |s| {
                s.layers.get(name).copied().unwrap_or(0.0)
            });
            (name, unit, value)
        })
        .collect();
    let overhead = median_of(samples, true, |s| s.run_s) - median_of(samples, false, |s| s.run_s);
    out.push((OVERHEAD.0, OVERHEAD.1, overhead));
    out
}

fn write_record(out_dir: &Path, args: &Args, record: &Record) -> Result<(), String> {
    let path = out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let json = serde_json::to_string_pretty(record).map_err(|e| e.to_string())?;
    std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("flockbench: record written to {}", path.display());
    Ok(())
}

/// The commit under test, when the checkout is a git repository.
fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}
