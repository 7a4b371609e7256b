//! `repro` — regenerate any figure of the paper from a fresh simulation.
//!
//! ```text
//! repro [--scale small|medium|paper|paper_scale] [--seed N] [--metrics PATH]
//!       [--report PATH] [--chaos SCENARIO] [--workers N] <artifact>...
//! repro --monitor [--sim-days N] [--nodes PATH] [--checkpoint PATH]
//!       [--scale, --seed, --metrics, --report, --dashboard, --chaos,
//!       --workers as above]
//!
//! artifacts: fig1 .. fig16, headline, all, experiments-md, retention,
//!            dump-dataset[=path] (anonymized JSON release, §3.4), verify,
//!            csv[=dir] (per-figure CSV export), stamp[=path]
//!            (determinism stamp: data-tier metrics snapshot + the
//!            stats-zeroed dataset — byte-identical for a given seed,
//!            scale and chaos scenario at any worker count)
//!
//! Every artifact is parsed before anything runs: an unknown artifact,
//! a `csv`/`stamp`/`dump-dataset` spelled other than bare or `=PATH`, or
//! an unknown `-`-flag is a usage error (exit 1, nothing generated).
//!
//! --metrics PATH writes the pipeline's telemetry (counters, gauges,
//! histograms, and the span ring's recorded and dropped counts) after
//! the crawl or the monitor run and prints `[repro] wrote N metrics to
//! PATH`; the format follows the extension: JSON for `.json`,
//! Prometheus text exposition for `.prom`, the plain text format
//! otherwise.
//!
//! --report PATH writes the deterministic run report (phase timeline,
//! wait attribution, chaos impact, coverage gaps, slowest request
//! chains); the format follows the extension — `.html` renders the
//! standalone HTML page, anything else the text format. The report's
//! Data-tier section is byte-identical across worker counts.
//!
//! --dashboard PATH renders the run dashboard: one self-contained HTML
//! file (inline SVG, no external resources) with trend charts over the
//! bench history (`--history PATH`, default BENCH_history.jsonl), the
//! phase-timeline Gantt, per-worker utilization heatmap, wait
//! attribution bars, the run report, and — with `--diff OTHER_REPORT` —
//! a side-by-side Data-tier diff against another run's report file.
//! The dashboard's Data-tier fence is byte-identical across worker
//! counts.
//!
//! --chaos SCENARIO crawls (or monitors) through a canned deterministic
//! fault plan seeded from the world seed: calm, rate-limit-storm,
//! instance-massacre, flaky-federation or rolling-outages.
//!
//! --workers N sets the worker-pool threads of the timeline and followee
//! crawl phases (default 4). Zero is rejected (typed config error), and
//! the dataset — and therefore every figure and the stamp — is
//! byte-identical at any worker count.
//!
//! --monitor runs the continuous-monitoring workload instead of the crawl
//! pipeline: an orchestrator plus per-instance checks on the virtual
//! clock, bootstrapped from the flagship instances and expanding via
//! peers-list discovery over `--sim-days` of simulated uptime; each
//! round's due checks run on one pool thread per 64 checks, at most
//! `--workers`, so a round of fewer than 128 checks runs on the calling
//! thread. `--nodes PATH`
//! writes the deterministic nodes-list artifact (byte-identical across
//! thread counts), and `--checkpoint PATH` enables periodic
//! checkpoint/resume. These three flags only apply with `--monitor`: a
//! crawl run rejects them with the usage line rather than ignoring them.
//! ```

use flock_chaos::Scenario;
use flock_crawler::CrawlerConfig;
use flock_fedisim::{World, WorldConfig};
use flock_monitor::MonitorConfig;
use flock_obs::Registry;
use flock_repro::{FigureId, MigrationStudy};
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> &'static str {
    "usage: repro [--scale small|medium|paper|paper_scale] [--seed N] [--metrics PATH] \
     [--report PATH (.html => HTML, else text)] \
     [--dashboard PATH [--diff OTHER_REPORT] [--history PATH]] \
     [--chaos calm|rate-limit-storm|instance-massacre|flaky-federation|rolling-outages] [--workers N] \
     [--monitor [--sim-days N] [--nodes PATH] [--checkpoint PATH]] \
     <fig1..fig16|headline|all|retention|topics|verify|experiments-md|\
     csv[=dir]|stamp[=path]|dump-dataset[=path]>..."
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = WorldConfig::medium();
    let mut artifacts: Vec<Artifact> = Vec::new();
    let mut metrics_path: Option<String> = None;
    let mut report_path: Option<String> = None;
    let mut dashboard_path: Option<String> = None;
    let mut diff_path: Option<String> = None;
    let mut history_path = "BENCH_history.jsonl".to_string();
    let mut chaos: Option<Scenario> = None;
    let mut crawler_config = CrawlerConfig::default();
    let mut monitor = false;
    let mut mcli = MonitorCli {
        sim_days: 30,
        nodes_path: None,
        checkpoint_path: None,
        threads: 0,
    };
    // The last monitor-only flag seen, so a crawl run can reject it
    // instead of silently ignoring it.
    let mut monitor_flag: Option<&'static str> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--monitor" => monitor = true,
            "--sim-days" => {
                monitor_flag = Some("--sim-days");
                i += 1;
                let Some(v) = args.get(i).and_then(|v| v.parse::<u64>().ok()) else {
                    eprintln!("--sim-days needs an integer; {}", usage());
                    return ExitCode::FAILURE;
                };
                mcli.sim_days = v;
            }
            "--nodes" => {
                monitor_flag = Some("--nodes");
                i += 1;
                let Some(v) = args.get(i) else {
                    eprintln!("--nodes needs a path; {}", usage());
                    return ExitCode::FAILURE;
                };
                mcli.nodes_path = Some(v.clone());
            }
            "--checkpoint" => {
                monitor_flag = Some("--checkpoint");
                i += 1;
                let Some(v) = args.get(i) else {
                    eprintln!("--checkpoint needs a path; {}", usage());
                    return ExitCode::FAILURE;
                };
                mcli.checkpoint_path = Some(v.clone());
            }
            "--chaos" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    eprintln!("--chaos needs a scenario; {}", usage());
                    return ExitCode::FAILURE;
                };
                chaos = match v.parse::<Scenario>() {
                    Ok(s) => Some(s),
                    Err(e) => {
                        eprintln!("{e}; {}", usage());
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--workers" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("--workers needs an integer; {}", usage());
                    return ExitCode::FAILURE;
                };
                crawler_config.workers = v;
            }
            "--scale" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    eprintln!("{}", usage());
                    return ExitCode::FAILURE;
                };
                config = match v.as_str() {
                    "small" => WorldConfig::small(),
                    "medium" => WorldConfig::medium(),
                    "paper" => WorldConfig::paper(),
                    "paper_scale" | "paper-scale" => WorldConfig::paper_scale(),
                    other => {
                        eprintln!("unknown scale {other:?}; {}", usage());
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--seed" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|v| v.parse::<u64>().ok()) else {
                    eprintln!("--seed needs an integer; {}", usage());
                    return ExitCode::FAILURE;
                };
                config.seed = v;
            }
            "--metrics" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    eprintln!("--metrics needs a path; {}", usage());
                    return ExitCode::FAILURE;
                };
                metrics_path = Some(v.clone());
            }
            "--report" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    eprintln!("--report needs a path; {}", usage());
                    return ExitCode::FAILURE;
                };
                report_path = Some(v.clone());
            }
            "--dashboard" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    eprintln!("--dashboard needs a path; {}", usage());
                    return ExitCode::FAILURE;
                };
                dashboard_path = Some(v.clone());
            }
            "--diff" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    eprintln!("--diff needs another run's report path; {}", usage());
                    return ExitCode::FAILURE;
                };
                diff_path = Some(v.clone());
            }
            "--history" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    eprintln!("--history needs a path; {}", usage());
                    return ExitCode::FAILURE;
                };
                history_path = v.clone();
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag {flag:?}; {}", usage());
                return ExitCode::FAILURE;
            }
            other => match Artifact::parse(other) {
                Ok(a) => artifacts.push(a),
                Err(e) => {
                    eprintln!("{e}; {}", usage());
                    return ExitCode::FAILURE;
                }
            },
        }
        i += 1;
    }
    if diff_path.is_some() && dashboard_path.is_none() {
        eprintln!("--diff only applies with --dashboard; {}", usage());
        return ExitCode::FAILURE;
    }
    if let (false, Some(flag)) = (monitor, monitor_flag) {
        eprintln!("{flag} only applies with --monitor; {}", usage());
        return ExitCode::FAILURE;
    }
    let dashboard = dashboard_path.map(|path| DashboardCli {
        path,
        diff_path,
        history_path,
    });
    if monitor {
        if !artifacts.is_empty() {
            eprintln!("--monitor takes no figure artifacts; {}", usage());
            return ExitCode::FAILURE;
        }
        mcli.threads = crawler_config.workers;
        return run_monitor(
            &config,
            chaos,
            &mcli,
            metrics_path.as_deref(),
            report_path.as_deref(),
            dashboard.as_ref(),
        );
    }
    if artifacts.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }

    eprintln!(
        "[repro] generating world (seed {}, {} users, {} instances) and crawling…",
        config.seed, config.n_searchable_users, config.n_instances
    );
    let mut api_config = flock_apis::ApiConfig::default();
    if let Some(scenario) = chaos {
        // Seed the fault plan from the world seed: one seed fixes the
        // world AND the chaos, so reruns are byte-identical.
        api_config.chaos = scenario.plan(config.seed);
        eprintln!("[repro] chaos scenario: {scenario}");
    }
    let obs = Registry::new();
    let workers = crawler_config.workers;
    let study = match MigrationStudy::run_configured(&config, api_config, crawler_config, &obs) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("[repro] pipeline failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "[repro] identified {} migrants on {} instances ({} API requests)",
        study.dataset.matched.len(),
        study.dataset.landing_instances().len(),
        study.dataset.stats.requests
    );
    eprintln!(
        "[repro] coverage: {} items skipped",
        study.dataset.coverage.len()
    );
    if !study.dataset.coverage.is_empty() {
        for line in study.dataset.coverage.summary().lines() {
            eprintln!("[repro]   {line}");
        }
    }
    if let Some(path) = &metrics_path {
        if let Err(e) = write_metrics(path, &obs) {
            eprintln!("[repro] {e}");
            return ExitCode::FAILURE;
        }
    }
    if report_path.is_some() || dashboard.is_some() {
        let report = match study.run_report(&obs, chaos, config.seed, workers) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("[repro] report build failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Some(path) = &report_path {
            if let Err(e) = write_report(path, &report) {
                eprintln!("[repro] {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("[repro] wrote run report to {path}");
        }
        if let Some(dash) = &dashboard {
            // Worker counts stay out of the title: it renders inside the
            // dashboard's Data-tier fence.
            let title = format!(
                "flock run dashboard — crawl · seed {} · scenario {}",
                config.seed,
                scenario_label(chaos)
            );
            if let Err(e) = write_dashboard(dash, title, &obs, &report) {
                eprintln!("[repro] {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("[repro] wrote run dashboard to {}", dash.path);
        }
    }

    // One analysis serves every artifact: a figure several of them read
    // is computed once.
    let analysis = study.analysis();
    for a in &artifacts {
        match a {
            Artifact::All => {
                println!("{}", study.render_all_with(&analysis));
                println!("{}", study.render_retention_with(&analysis));
                println!("{}", study.render_topics_with(&analysis));
            }
            Artifact::Retention => println!("{}", study.render_retention_with(&analysis)),
            Artifact::Topics => println!("{}", study.render_topics_with(&analysis)),
            Artifact::Verify => {
                let r = analysis.headline();
                println!("{}", r.to_verify_table());
                let (_, _, fails) = r.verdict_counts();
                if fails > 0 {
                    eprintln!("[repro] {fails} metrics FAILED reproduction bands");
                }
            }
            Artifact::ExperimentsMd => {
                println!("{}", study.experiments_markdown_with(&analysis, &config))
            }
            Artifact::Csv(dir) => {
                match study.export_csv_with(&analysis, std::path::Path::new(dir)) {
                    Ok(n) => eprintln!("[repro] wrote {n} CSV files to {dir}/"),
                    Err(e) => {
                        eprintln!("[repro] csv export failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            Artifact::Stamp(path) => {
                // Data-tier snapshot + stats-zeroed dataset: everything in
                // the stamp is a function of (seed, scale, chaos plan), so
                // two runs differing only in worker count must produce
                // byte-identical stamp files.
                let mut ds = study.dataset.clone();
                ds.stats = Default::default();
                let dataset_json = match serde_json::to_string(&ds) {
                    Ok(j) => j,
                    Err(e) => {
                        eprintln!("[repro] stamp serialization failed: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let body = format!("{}\n{}\n", obs.snapshot(), dataset_json);
                if let Err(e) = std::fs::write(path, body) {
                    eprintln!("[repro] stamp write failed ({path}): {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("[repro] wrote determinism stamp to {path}");
            }
            Artifact::DumpDataset(path) => {
                let anon = match study.dataset.anonymized(config.seed) {
                    Ok(anon) => anon,
                    Err(e) => {
                        eprintln!("[repro] anonymization failed: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                if let Err(e) = anon.save(std::path::Path::new(path)) {
                    eprintln!("[repro] dump failed: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("[repro] wrote anonymized dataset to {path}");
            }
            Artifact::Figure(id) => println!("{}", study.render_with(&analysis, *id)),
        }
    }
    ExitCode::SUCCESS
}

/// One requested output of a crawl run, parsed from the command line
/// before anything is generated.
enum Artifact {
    All,
    Retention,
    Topics,
    Verify,
    ExperimentsMd,
    /// Per-figure CSV export into this directory.
    Csv(String),
    /// Determinism stamp written to this path.
    Stamp(String),
    /// Anonymized dataset release written to this path.
    DumpDataset(String),
    Figure(FigureId),
}

impl Artifact {
    /// `csv`, `stamp` and `dump-dataset` take an optional `=PATH`; every
    /// other artifact is a bare word.
    fn parse(arg: &str) -> Result<Artifact, String> {
        let (name, path) = match arg.split_once('=') {
            Some((name, path)) if !path.is_empty() => (name, Some(path)),
            Some(_) => return Err(format!("artifact {arg:?} needs a path after '='")),
            None => (arg, None),
        };
        let or_default = |default: &str| path.unwrap_or(default).to_string();
        match (name, path) {
            ("csv", _) => Ok(Artifact::Csv(or_default("figures-csv"))),
            ("stamp", _) => Ok(Artifact::Stamp(or_default("repro.stamp"))),
            ("dump-dataset", _) => Ok(Artifact::DumpDataset(or_default("dataset.anon.json"))),
            (_, Some(_)) => Err(format!("artifact {name:?} takes no path")),
            ("all", None) => Ok(Artifact::All),
            ("retention", None) => Ok(Artifact::Retention),
            ("topics", None) => Ok(Artifact::Topics),
            ("verify", None) => Ok(Artifact::Verify),
            ("experiments-md", None) => Ok(Artifact::ExperimentsMd),
            (other, None) => other.parse::<FigureId>().map(Artifact::Figure),
        }
    }
}

/// Dashboard CLI knobs (`--dashboard`, `--diff`, `--history`), already
/// parsed and defaulted.
struct DashboardCli {
    path: String,
    diff_path: Option<String>,
    history_path: String,
}

/// Stable scenario name for titles and labels (`"none"` without chaos).
fn scenario_label(chaos: Option<Scenario>) -> String {
    chaos
        .map(|s| s.to_string())
        .unwrap_or_else(|| "none".to_string())
}

/// Write the registry's telemetry to `path`, picking the format from the
/// extension: JSON for `.json`, Prometheus text exposition for `.prom`,
/// the plain text format otherwise. Confirms the write on stderr.
fn write_metrics(path: &str, obs: &Registry) -> Result<(), String> {
    let body = if path.ends_with(".json") {
        obs.export_json()
    } else if path.ends_with(".prom") {
        obs.export_prometheus()
    } else {
        obs.export_text()
    };
    std::fs::write(path, body).map_err(|e| format!("metrics write failed ({path}): {e}"))?;
    eprintln!("[repro] wrote {} metrics to {path}", obs.metric_count());
    Ok(())
}

/// Write a run report to `path`, picking the format from the extension:
/// `.html` renders the standalone HTML page, anything else the text
/// format whose Data fence CI byte-compares.
fn write_report(path: &str, report: &flock_obs::report::RunReport) -> Result<(), String> {
    let body = if path.ends_with(".html") {
        report.to_html()
    } else {
        report.to_text()
    };
    std::fs::write(path, body).map_err(|e| format!("report write failed ({path}): {e}"))
}

/// Render and write the run dashboard: parse the bench history (absent
/// file → empty trends, noted in the caption; malformed file → hard
/// error), read the `--diff` report's Data-tier fence when given, and
/// emit the single self-contained HTML file.
fn write_dashboard(
    cli: &DashboardCli,
    title: String,
    obs: &Registry,
    report: &flock_obs::report::RunReport,
) -> Result<(), String> {
    use flock_obs::dashboard as dash;
    let (history, history_note) = match std::fs::read_to_string(&cli.history_path) {
        Ok(text) => {
            let entries =
                dash::parse_history(&text).map_err(|e| format!("{}: {e}", cli.history_path))?;
            let note = format!("{} · {} entries", cli.history_path, entries.len());
            (entries, note)
        }
        Err(_) => (Vec::new(), format!("{} · not found", cli.history_path)),
    };
    let diff = match &cli.diff_path {
        Some(other) => {
            let text = std::fs::read_to_string(other)
                .map_err(|e| format!("diff report read failed ({other}): {e}"))?;
            // Diff Data tier against Data tier; a fence-less file (e.g. a
            // bare section dump) diffs whole.
            let other_data = dash::data_fence_slice(&text).unwrap_or(&text).to_string();
            Some(dash::DiffInput {
                ours_label: "this run".to_string(),
                other_label: other.clone(),
                other_data,
            })
        }
        None => None,
    };
    let meta = dash::DashboardMeta {
        title,
        history_note,
        diff,
    };
    let html = dash::render_dashboard(obs, report, &history, &meta);
    std::fs::write(&cli.path, html)
        .map_err(|e| format!("dashboard write failed ({}): {e}", cli.path))
}

/// Monitor-mode CLI knobs, already parsed and defaulted.
struct MonitorCli {
    sim_days: u64,
    nodes_path: Option<String>,
    checkpoint_path: Option<String>,
    threads: usize,
}

/// The continuous-monitoring workload: generate the world, bootstrap the
/// roster from the flagship instances, and watch the fediverse for
/// `--sim-days` of virtual uptime.
fn run_monitor(
    config: &WorldConfig,
    chaos: Option<Scenario>,
    cli: &MonitorCli,
    metrics_path: Option<&str>,
    report_path: Option<&str>,
    dashboard: Option<&DashboardCli>,
) -> ExitCode {
    eprintln!(
        "[repro] generating world (seed {}, {} users, {} instances) and monitoring…",
        config.seed, config.n_searchable_users, config.n_instances
    );
    let mut api_config = flock_apis::ApiConfig::default();
    if let Some(scenario) = chaos {
        api_config.chaos = scenario.plan(config.seed);
        eprintln!("[repro] chaos scenario: {scenario}");
    }
    let world = match World::generate(config) {
        Ok(w) => Arc::new(w),
        Err(e) => {
            eprintln!("[repro] world generation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let obs = Registry::new();
    let api = match flock_apis::ApiServer::with_obs(world.clone(), api_config, obs.clone()) {
        Ok(api) => api,
        Err(e) => {
            eprintln!("[repro] api server failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mcfg = MonitorConfig {
        sim_days: cli.sim_days,
        threads: cli.threads,
        bootstrap: world.flagship_domains(),
        checkpoint_path: cli.checkpoint_path.as_ref().map(std::path::PathBuf::from),
        ..MonitorConfig::default()
    };
    let out = match flock_monitor::run(&api, &obs, &mcfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("[repro] monitor failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let alive = out
        .records
        .values()
        .filter(|r| r.state == flock_monitor::NodeState::Alive)
        .count();
    eprintln!(
        "[repro] monitored {} simulated days: {} nodes known ({} alive), {} checks in {} rounds{}",
        cli.sim_days,
        out.records.len(),
        alive,
        out.checks_total,
        out.rounds,
        match out.resumed_from_round {
            Some(r) => format!(" (resumed from round {r})"),
            None => String::new(),
        }
    );
    if !out.completed {
        eprintln!("[repro] monitor stopped before the horizon (checkpointed)");
    }

    let scenario_name = scenario_label(chaos);
    if let Some(path) = &cli.nodes_path {
        let body =
            flock_monitor::nodes_list(&out.records, config.seed, &scenario_name, cli.sim_days);
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("[repro] nodes-list write failed ({path}): {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "[repro] wrote nodes list ({} domains) to {path}",
            out.records.len()
        );
    }
    if let Some(path) = metrics_path {
        if let Err(e) = write_metrics(path, &obs) {
            eprintln!("[repro] {e}");
            return ExitCode::FAILURE;
        }
    }
    if report_path.is_some() || dashboard.is_some() {
        let chaos_plan = match chaos {
            Some(s) => match s.plan(config.seed).resolve(&world.outage_candidates()) {
                Ok(plan) => plan.describe(),
                Err(e) => {
                    eprintln!("[repro] report build failed: {e}");
                    return ExitCode::FAILURE;
                }
            },
            None => String::new(),
        };
        let count = |state: flock_monitor::NodeState| {
            out.records.values().filter(|r| r.state == state).count()
        };
        // Facts are Data tier (scheduled-time-derived only); the thread
        // count goes into the Sched context below the fence.
        let meta = flock_obs::report::ReportMeta {
            title: format!("flock monitor report — scenario {scenario_name}"),
            scenario: scenario_name.clone(),
            chaos_plan,
            facts: vec![
                ("seed".to_string(), config.seed.to_string()),
                ("simulated days".to_string(), cli.sim_days.to_string()),
                ("nodes known".to_string(), out.records.len().to_string()),
                (
                    "nodes alive".to_string(),
                    count(flock_monitor::NodeState::Alive).to_string(),
                ),
                (
                    "nodes dead".to_string(),
                    count(flock_monitor::NodeState::Dead).to_string(),
                ),
                (
                    "nodes unreachable".to_string(),
                    count(flock_monitor::NodeState::Unreachable).to_string(),
                ),
                ("checks".to_string(), out.checks_total.to_string()),
                ("rounds".to_string(), out.rounds.to_string()),
                (
                    "deaths".to_string(),
                    out.records
                        .values()
                        .map(|r| r.deaths)
                        .sum::<u64>()
                        .to_string(),
                ),
                (
                    "rebirths".to_string(),
                    out.records
                        .values()
                        .map(|r| r.rebirths)
                        .sum::<u64>()
                        .to_string(),
                ),
            ],
            coverage: Vec::new(),
            sched_context: vec![("threads".to_string(), cli.threads.to_string())],
        };
        let report = flock_obs::report::RunReport::build(&obs, &meta);
        if let Some(path) = report_path {
            if let Err(e) = write_report(path, &report) {
                eprintln!("[repro] {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("[repro] wrote run report to {path}");
        }
        if let Some(dash) = dashboard {
            // The thread count stays out of the title: it renders inside
            // the Data-tier fence.
            let title = format!(
                "flock run dashboard — monitor · seed {} · scenario {scenario_name}",
                config.seed
            );
            if let Err(e) = write_dashboard(dash, title, &obs, &report) {
                eprintln!("[repro] {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("[repro] wrote run dashboard to {}", dash.path);
        }
    }
    ExitCode::SUCCESS
}
