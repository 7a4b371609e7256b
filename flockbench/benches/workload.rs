//! The workloads and one job of each: set up the world and the API server,
//! run the workload's batch job through the layers' public entry points,
//! then check the job's Data-tier outputs.
//!
//! Every config is built from its default; only the seed, the scale, the
//! chaos scenario and the thread counts are set. Request latency stays at
//! its default of 0 µs, so crawl throughput is CPU work.

use crate::digest::Digest;
use crate::sys;
use crate::trace::{self, Span, Tracer};
use flock_analysis::prelude::*;
use flock_apis::{ApiConfig, ApiServer};
use flock_chaos::Scenario;
use flock_crawler::dataset::{CrawlStats, Dataset};
use flock_crawler::pipeline::{Crawler, CrawlerConfig};
use flock_fedisim::{World, WorldConfig};
use flock_monitor::MonitorConfig;
use flock_obs::Registry;
use flock_repro::MigrationStudy;
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// One of the benchmark's batch jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Calm crawl, then headline, figures, CSV export, and the anonymized
    /// dataset saved and reloaded: analysis and repro do most of the run.
    Study,
    /// Long-horizon monitoring under rolling outages: flock-sched, the
    /// peers endpoint and durable checkpoint writes do the work.
    MonitorOutages,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Study, Workload::MonitorOutages];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Study => "study",
            Workload::MonitorOutages => "monitor_outages",
        }
    }

    pub fn scenario(self) -> Scenario {
        match self {
            Workload::Study => Scenario::Calm,
            Workload::MonitorOutages => Scenario::RollingOutages,
        }
    }
}

/// The world preset every job generates, by name.
pub const SCALE: &str = "small";

/// Simulated days the monitor watches: long enough that its run outweighs
/// set-up about fourfold. Smoke runs watch [`SMOKE_SIM_DAYS`].
pub const MONITOR_SIM_DAYS: u64 = 1825;
pub const SMOKE_SIM_DAYS: u64 = 30;

/// Distinct worlds a run cycles through. Job `j` of a run with seed `s`
/// generates world `s * WORLDS + j % WORLDS`: medians over several worlds
/// vary less from seed to seed than one world's cost does, and every world
/// after the first lap is a repeat whose digest must match.
pub const WORLDS: usize = 8;

/// Everything a job needs, fixed for the whole run.
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// OS threads for the crawler, fig14 and the monitor (`nproc`).
    pub workers: usize,
    pub sim_days: u64,
    /// Scratch directory for CSVs, the saved dataset and checkpoints.
    pub work_dir: PathBuf,
}

impl Plan {
    /// What ran, as keyed in the recorded digest table.
    pub fn shape(&self) -> String {
        match self.workload {
            Workload::Study => SCALE.to_string(),
            Workload::MonitorOutages => format!("{SCALE}/{}d", self.sim_days),
        }
    }

    /// The seed of the run's `world`-th world (taken modulo [`WORLDS`]).
    pub fn world_seed(&self, world: usize) -> u64 {
        self.seed
            .wrapping_mul(WORLDS as u64)
            .wrapping_add((world % WORLDS) as u64)
    }
}

/// One job's measurements.
#[derive(Serialize)]
pub struct Sample {
    pub traced: bool,
    /// Checked, but left out of the medians.
    pub warmup: bool,
    pub world_seed: u64,
    pub setup_s: f64,
    pub run_s: f64,
    /// Process CPU over the run.
    pub cpu_s: f64,
    /// API requests the run made: crawl attempts, or monitor checks.
    pub requests: u64,
    /// Process CPU of the layer that made them.
    pub request_cpu_s: f64,
    pub digest: String,
    /// Headline verdicts `(pass, warn, fail)`; `study` only.
    pub headline: Option<(usize, usize, usize)>,
    /// Per-layer values, keyed by metric name. Counts are always filled;
    /// span-derived values only on traced jobs.
    pub layers: BTreeMap<&'static str, f64>,
    pub spans: Vec<Span>,
}

fn ctx<E: Display>(what: &'static str) -> impl FnOnce(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Run one job on the run's `world`-th world: set-up, the timed run, then
/// the output check.
pub fn run_job(plan: &Plan, world: usize, traced: bool) -> Result<Sample, String> {
    let seed = plan.world_seed(world);
    sys::set_counting(traced);
    let tracer = Tracer::new(traced);
    let obs = Registry::new();
    let checkpoint = plan.work_dir.join("monitor.ckpt");
    // A checkpoint left by the previous job would resume it.
    let _ = std::fs::remove_file(&checkpoint);

    let setup_start = Instant::now();
    let (world, api) = tracer.span("setup", || -> Result<_, String> {
        let config = WorldConfig::small().with_seed(seed);
        let world = tracer
            .span("fedisim.generate", || World::generate(&config))
            .map_err(ctx("generate"))?;
        let world = Arc::new(world);
        let config = ApiConfig {
            chaos: plan.workload.scenario().plan(seed),
            ..ApiConfig::default()
        };
        let api = tracer
            .span("apis.build", || {
                ApiServer::with_obs(world.clone(), config, obs.clone())
            })
            .map_err(ctx("api server"))?;
        Ok((world, api))
    })?;
    let setup_s = setup_start.elapsed().as_secs_f64();

    let cpu_start = sys::process_cpu_s();
    let run_start = Instant::now();
    let out = tracer.span("run", || match plan.workload {
        Workload::Study => study(plan, seed, &tracer, world, &api, &obs),
        Workload::MonitorOutages => monitor(plan, seed, &tracer, &world, &api, &obs, &checkpoint),
    })?;
    let run_s = run_start.elapsed().as_secs_f64();
    let cpu_s = sys::process_cpu_s() - cpu_start;

    if traced {
        if let Output::Study { study, .. } = &out {
            analysis_probe(&tracer, &study.dataset);
        }
    }
    sys::set_counting(false);
    let spans = tracer.finish();

    let mut layers = BTreeMap::new();
    api_counts(&obs, &mut layers);
    let (requests, request_cpu_s) = out.counts(&obs, &mut layers);
    if traced {
        span_layers(&spans, &mut layers);
    }
    Ok(Sample {
        traced,
        warmup: false,
        world_seed: seed,
        setup_s,
        run_s,
        cpu_s,
        requests,
        request_cpu_s,
        digest: out.digest()?,
        headline: match &out {
            Output::Study { headline, .. } => Some(headline.verdict_counts()),
            Output::Monitor { .. } => None,
        },
        layers,
        spans,
    })
}

/// What a run hands to the output check. One is built per job and moved
/// once, so the size gap between the variants costs nothing.
#[allow(clippy::large_enum_variant)]
enum Output {
    Study {
        study: MigrationStudy,
        crawl: CrawlCost,
        headline: HeadlineReport,
        figures: String,
        csv_dir: PathBuf,
        saved: PathBuf,
        loaded: Dataset,
    },
    Monitor {
        nodes: String,
        rounds: u64,
        checks: u64,
        cpu_s: f64,
    },
}

struct CrawlCost {
    cpu_s: f64,
    virtual_s: u64,
}

/// §3 crawl: discovery, then expansion over `workers` threads. The
/// dataset comes back with its stats zeroed: attempt counts depend on
/// thread timing and are Sched-tier, as in the crawl stamp `repro --chaos`
/// writes.
fn crawl(
    plan: &Plan,
    tracer: &Tracer,
    api: &ApiServer,
    obs: &Registry,
) -> Result<(Dataset, CrawlCost), String> {
    let config = CrawlerConfig {
        workers: plan.workers,
        ..CrawlerConfig::default()
    };
    let crawler = Crawler::with_registry(api, config, obs.clone()).map_err(ctx("crawler"))?;
    let (virtual_start, cpu_start) = (api.now(), sys::process_cpu_s());
    let mut dataset = tracer
        .span("crawler.discover", || crawler.discover())
        .map_err(ctx("discover"))?;
    tracer
        .span("crawler.expand", || crawler.expand(&mut dataset))
        .map_err(ctx("expand"))?;
    let cost = CrawlCost {
        cpu_s: sys::process_cpu_s() - cpu_start,
        virtual_s: api.now() - virtual_start,
    };
    dataset.stats = CrawlStats::default();
    Ok((dataset, cost))
}

fn study(
    plan: &Plan,
    seed: u64,
    tracer: &Tracer,
    world: Arc<World>,
    api: &ApiServer,
    obs: &Registry,
) -> Result<Output, String> {
    let (dataset, crawl) = crawl(plan, tracer, api, obs)?;
    let study = MigrationStudy { world, dataset };
    let headline = tracer.span("analysis.headline", || study.headline());
    let figures = tracer.span("repro.render_all", || study.render_all());
    let csv_dir = plan.work_dir.join("csv");
    tracer
        .span("repro.export_csv", || study.export_csv(&csv_dir))
        .map_err(ctx("export_csv"))?;
    let anonymized = tracer
        .span("persist.anonymize", || study.dataset.anonymized(seed))
        .map_err(ctx("anonymize"))?;
    let saved = plan.work_dir.join("dataset.anon.json");
    tracer
        .span("persist.save", || anonymized.save(&saved))
        .map_err(ctx("save"))?;
    let loaded = tracer
        .span("persist.load", || Dataset::load(&saved))
        .map_err(ctx("load"))?;
    Ok(Output::Study {
        study,
        crawl,
        headline,
        figures,
        csv_dir,
        saved,
        loaded,
    })
}

fn monitor(
    plan: &Plan,
    seed: u64,
    tracer: &Tracer,
    world: &World,
    api: &ApiServer,
    obs: &Registry,
    checkpoint: &Path,
) -> Result<Output, String> {
    let config = MonitorConfig {
        sim_days: plan.sim_days,
        threads: plan.workers,
        bootstrap: world.flagship_domains(),
        checkpoint_path: Some(checkpoint.to_path_buf()),
        ..MonitorConfig::default()
    };
    let cpu_start = sys::process_cpu_s();
    let out = tracer
        .span("monitor.run", || flock_monitor::run(api, obs, &config))
        .map_err(ctx("monitor"))?;
    let cpu_s = sys::process_cpu_s() - cpu_start;
    if !out.completed {
        return Err("monitor stopped before its horizon".to_string());
    }
    let nodes = tracer.span("monitor.nodes_list", || {
        flock_monitor::nodes_list(
            &out.records,
            seed,
            plan.workload.scenario().name(),
            plan.sim_days,
        )
    });
    Ok(Output::Monitor {
        nodes,
        rounds: out.rounds,
        checks: out.checks_total,
        cpu_s,
    })
}

/// Traced `study` jobs also time each analysis entry point once on the
/// crawled dataset, outside the timed run: `render_all` and `export_csv`
/// call them internally, where the harness cannot see them.
fn analysis_probe(tracer: &Tracer, ds: &Dataset) {
    tracer.span("probe", || {
        tracer.span("analysis.fig2", || black_box(fig2_collection(ds)));
        tracer.span("analysis.fig4", || black_box(fig4_top_instances(ds, 30)));
        tracer.span("analysis.fig5", || black_box(fig5_centralization(ds)));
        tracer.span("analysis.fig6", || black_box(fig6_size_analysis(ds)));
        tracer.span("analysis.fig7", || black_box(fig7_social_networks(ds)));
        tracer.span("analysis.fig8", || black_box(fig8_influence(ds)));
        tracer.span("analysis.fig9", || black_box(fig9_switching(ds)));
        tracer.span("analysis.fig10", || black_box(fig10_switcher_influence(ds)));
        tracer.span("analysis.fig11", || black_box(fig11_activity(ds)));
        tracer.span("analysis.fig12", || black_box(fig12_sources(ds, 30)));
        tracer.span("analysis.fig13", || black_box(fig13_crossposters(ds)));
        tracer.span("analysis.fig14", || black_box(fig14_similarity(ds)));
        tracer.span("analysis.fig15", || black_box(fig15_hashtags(ds, 30)));
        tracer.span("analysis.fig16", || black_box(fig16_toxicity(ds)));
        tracer.span("analysis.topics", || black_box(topic_report(ds, 5)));
        tracer.span("analysis.retention", || black_box(retention(ds)));
    });
}

fn counter(obs: &Registry, name: &str) -> f64 {
    obs.counter_value(name).unwrap_or(0) as f64
}

/// API-layer counters over every endpoint family.
fn api_counts(obs: &Registry, layers: &mut BTreeMap<&'static str, f64>) {
    let families = ["search", "users", "follows", "mastodon"];
    let sum = |metric: &str| -> f64 {
        families
            .iter()
            .map(|f| counter(obs, &format!("flock.apis.{f}.{metric}")))
            .sum()
    };
    let (granted, rate_limited) = (sum("granted"), sum("rate_limited"));
    layers.insert("apis.granted", granted);
    layers.insert("apis.rate_limited", rate_limited);
    layers.insert("apis.granted_frac", ratio(granted, granted + rate_limited));
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Output {
    /// Fill the per-layer counts and return `(requests, request_cpu_s)`.
    fn counts(&self, obs: &Registry, layers: &mut BTreeMap<&'static str, f64>) -> (u64, f64) {
        match self {
            Output::Study { crawl, saved, .. } => {
                let attempts = counter(obs, "flock.crawler.requests.attempts");
                let retried = counter(obs, "flock.crawler.requests.rate_limited")
                    + counter(obs, "flock.crawler.requests.outage_waits")
                    + counter(obs, "flock.crawler.requests.transient_failures");
                layers.insert("crawler.attempts", attempts);
                layers.insert("crawler.requests", attempts - retried);
                layers.insert("crawler.useful_frac", ratio(attempts - retried, attempts));
                layers.insert("crawler.virtual_s", crawl.virtual_s as f64);
                layers.insert("crawler.cpu_s", crawl.cpu_s);
                let bytes = std::fs::metadata(saved).map_or(0, |m| m.len());
                layers.insert("persist.bytes", bytes as f64);
                (attempts as u64, crawl.cpu_s)
            }
            Output::Monitor {
                rounds,
                checks,
                cpu_s,
                ..
            } => {
                layers.insert("monitor.rounds", *rounds as f64);
                layers.insert("monitor.checks", *checks as f64);
                layers.insert("monitor.cpu_s", *cpu_s);
                (*checks, *cpu_s)
            }
        }
    }

    /// Digest of the run's Data-tier outputs; for `study`, also check
    /// that the reloaded dataset is the one that was saved.
    fn digest(&self) -> Result<String, String> {
        let mut d = Digest::new();
        match self {
            Output::Study {
                headline,
                figures,
                csv_dir,
                saved,
                loaded,
                ..
            } => {
                d.part("figures", figures.as_bytes());
                d.part("headline", headline.to_table().as_bytes());
                let mut names: Vec<PathBuf> = std::fs::read_dir(csv_dir)
                    .map_err(ctx("read csv dir"))?
                    .map(|e| e.map(|e| e.path()))
                    .collect::<Result<_, _>>()
                    .map_err(ctx("read csv dir"))?;
                names.sort();
                for path in names {
                    let bytes = std::fs::read(&path).map_err(ctx("read csv"))?;
                    let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
                    d.part(name.as_deref().unwrap_or(""), &bytes);
                }
                let saved = std::fs::read(saved).map_err(ctx("read saved dataset"))?;
                let reloaded = loaded
                    .to_json()
                    .map_err(ctx("serialize reloaded dataset"))?;
                if reloaded.as_bytes() != saved.as_slice() {
                    return Err("reloaded dataset differs from the saved one".to_string());
                }
                d.part("dataset", &saved);
            }
            Output::Monitor { nodes, .. } => {
                d.part("nodes_list", nodes.as_bytes());
            }
        }
        Ok(d.hex())
    }
}

/// Per-layer values read off a traced job's spans.
fn span_layers(spans: &[Span], layers: &mut BTreeMap<&'static str, f64>) {
    const MB: f64 = 1e6;
    for s in spans {
        if let Some(name) = TIMED
            .iter()
            .find(|(span, _)| *span == s.name)
            .map(|(_, m)| *m)
        {
            layers.insert(name, s.wall_s);
        }
    }
    let mut alloc_mb = |metric: &'static str, names: &[&str]| {
        let found: Vec<&Span> = names.iter().filter_map(|n| trace::find(spans, n)).collect();
        if !found.is_empty() {
            let bytes: u64 = found.iter().map(|s| s.alloc_bytes).sum();
            layers.insert(metric, bytes as f64 / MB);
        }
    };
    alloc_mb("fedisim.generate_alloc_mb", &["fedisim.generate"]);
    alloc_mb("apis.build_alloc_mb", &["apis.build"]);
    alloc_mb("crawler.alloc_mb", &["crawler.discover", "crawler.expand"]);
    alloc_mb("monitor.alloc_mb", &["monitor.run"]);
    if let Some(s) = trace::find(spans, "fedisim.generate") {
        layers.insert(
            "fedisim.generate_rss_delta_mb",
            s.rss_delta_bytes as f64 / MB,
        );
    }
    layers.insert(
        "trace.unattributed_frac",
        trace::unattributed_frac(spans, "run"),
    );
}

/// Span name → the wall-time metric it gives.
const TIMED: [(&str, &str); 27] = [
    ("fedisim.generate", "fedisim.generate_s"),
    ("apis.build", "apis.build_s"),
    ("crawler.discover", "crawler.discover_s"),
    ("crawler.expand", "crawler.expand_s"),
    ("analysis.fig2", "analysis.fig2_s"),
    ("analysis.fig4", "analysis.fig4_s"),
    ("analysis.fig5", "analysis.fig5_s"),
    ("analysis.fig6", "analysis.fig6_s"),
    ("analysis.fig7", "analysis.fig7_s"),
    ("analysis.fig8", "analysis.fig8_s"),
    ("analysis.fig9", "analysis.fig9_s"),
    ("analysis.fig10", "analysis.fig10_s"),
    ("analysis.fig11", "analysis.fig11_s"),
    ("analysis.fig12", "analysis.fig12_s"),
    ("analysis.fig13", "analysis.fig13_s"),
    ("analysis.fig14", "analysis.fig14_s"),
    ("analysis.fig15", "analysis.fig15_s"),
    ("analysis.fig16", "analysis.fig16_s"),
    ("analysis.topics", "analysis.topics_s"),
    ("analysis.retention", "analysis.retention_s"),
    ("analysis.headline", "analysis.headline_s"),
    ("repro.render_all", "repro.render_all_s"),
    ("repro.export_csv", "repro.export_csv_s"),
    ("persist.anonymize", "persist.anonymize_s"),
    ("persist.save", "persist.save_s"),
    ("persist.load", "persist.load_s"),
    ("monitor.run", "monitor.run_s"),
];
