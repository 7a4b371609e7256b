//! Pipeline throughput benchmark — the headline numbers of the
//! unserialisation work, appended to `BENCH_history.jsonl` at the repo
//! root (one JSON line per recorded run, keyed by git sha + label, so the
//! regression gate can reason about a *trend* instead of a single
//! overwritten artifact).
//!
//! Unlike the criterion benches next door this is a plain wall-clock
//! harness, because the measurements are *comparisons* that belong in one
//! committed history:
//!
//! * **search** — repeated §3.1 query throughput served from the search
//!   index's posting-list intersection and token arena
//!   (`search_ids_indexed`) versus re-tokenizing the whole corpus per
//!   query (`search_ids_scan`);
//! * **crawl** — wall-clock of the §3.2/§3.3 expansion phases
//!   (`Crawler::expand`) as the worker-pool size grows, against an
//!   identical discovery output, with 500 µs of simulated latency per
//!   granted request (a chaos-plan `LatencyBurst` on every endpoint
//!   family) for the workers to overlap.
//!
//! Older entries also carry a `sched` block, from a retired comparison
//! against a second, scheduler-driven crawl engine; nothing reads it.
//!
//! Every entry also records a memory footprint: peak RSS (`VmHWM` from
//! `/proc/self/status`) and the allocation count/bytes seen by a counting
//! `#[global_allocator]` that lives in this binary only — library crates
//! stay allocator-agnostic.
//!
//! `cargo bench -p flock-bench --bench throughput` appends to the JSONL;
//! `-- --test` runs a seconds-long smoke version that writes nothing: it
//! schema-checks the line it would have appended, judges it against the
//! committed history with `flock_obs::dashboard::eval_gate`, and prints
//! one `gate <rule>: <verdict>` line per rule. A missing or malformed
//! history fails the smoke; a `REGRESSION` verdict does not (that is
//! `scripts/bench_check.sh`'s call). `-- --paper` runs the paper-scale
//! section instead (million-user generation, full crawl, headline
//! analysis) and appends a `paper_scale`-labelled entry; `--paper --test`
//! is the CI smoke of the same path and writes nothing.
//! `FLOCK_BENCH_SHA` overrides the commit key when git is unavailable.

use flock_apis::{ApiConfig, ApiServer};
use flock_chaos::{EndpointFamily, Fault, FaultPlan, Window};
use flock_core::Day;
use flock_crawler::pipeline::{migration_queries, Crawler, CrawlerConfig};
use flock_fedisim::{World, WorldConfig};
use flock_obs::dashboard::{eval_gate, parse_history, parse_history_line, GATE_RULES};
use flock_obs::Registry;
use flock_repro::MigrationStudy;
use serde::Serialize;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// The committed history every recorded run appends to.
const HISTORY_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_history.jsonl");

/// Allocation accounting for the bench process. The counting allocator is
/// deliberately confined to this binary: the library crates must not pay
/// (or even see) the two relaxed atomic increments per allocation, and the
/// numbers only mean anything next to the wall-clocks recorded alongside.
mod mem {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
    pub static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

    pub struct Counting;

    // SAFETY: defers every allocation verbatim to `System`; the counters
    // are relaxed atomics with no effect on the returned memory.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
            // Count only growth: shrinking reuses already-counted bytes.
            ALLOC_BYTES.fetch_add(
                new_size.saturating_sub(layout.size()) as u64,
                Ordering::Relaxed,
            );
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static GLOBAL: Counting = Counting;

    /// Peak resident set size of this process in bytes — `VmHWM` from
    /// `/proc/self/status`, the kernel's high-water mark, which unlike
    /// sampled RSS cannot miss a transient peak between observations.
    /// Returns 0 where procfs is unavailable (non-Linux).
    pub fn peak_rss_bytes() -> u64 {
        let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
            return 0;
        };
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kb: u64 = rest
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .unwrap_or(0);
                return kb * 1024;
            }
        }
        0
    }
}

#[derive(Serialize)]
struct SearchReport {
    queries_per_pass: usize,
    indexed_passes: usize,
    scan_passes: usize,
    indexed_qps: f64,
    scan_qps: f64,
    /// indexed_qps / scan_qps — the acceptance bar is ≥ 3×.
    speedup: f64,
}

#[derive(Serialize)]
struct CrawlPoint {
    workers: usize,
    /// Best-of-N wall-clock for `Crawler::expand` (timelines + followees +
    /// weekly activity) over the same discovery output.
    expand_secs: f64,
}

#[derive(Serialize)]
struct MemReport {
    /// Process-lifetime peak resident set (`VmHWM`), bytes; 0 when procfs
    /// is unavailable.
    peak_rss_bytes: u64,
    /// Heap allocations made by the process up to the snapshot.
    alloc_count: u64,
    /// Bytes requested from the allocator (growth-only for reallocs).
    alloc_bytes: u64,
}

/// Snapshot the process's memory accounting at this instant.
fn mem_snapshot() -> MemReport {
    MemReport {
        peak_rss_bytes: mem::peak_rss_bytes(),
        alloc_count: mem::ALLOC_COUNT.load(Ordering::Relaxed),
        alloc_bytes: mem::ALLOC_BYTES.load(Ordering::Relaxed),
    }
}

#[derive(Serialize)]
struct Report {
    /// Commit this entry was recorded at (`FLOCK_BENCH_SHA` or
    /// `git rev-parse --short HEAD`).
    sha: String,
    /// Entry label (`throughput`).
    label: String,
    world: String,
    host_cpus: usize,
    /// Simulated per-request network latency during the crawl comparison.
    request_latency_micros: u64,
    search: SearchReport,
    crawl: Vec<CrawlPoint>,
    /// expand_secs(workers=1) / expand_secs(workers=4) — the acceptance
    /// bar is ≥ 2×.
    crawl_speedup_at_4: f64,
    mem: MemReport,
}

/// The paper-scale entry (`--paper`): one full pipeline pass — generate
/// the million-user world, crawl it end to end, run the headline analysis
/// — with per-phase wall-clocks and the memory footprint. Written with
/// `label: "paper_scale"` into the same history.
#[derive(Serialize)]
struct PaperReport {
    sha: String,
    label: String,
    world: String,
    host_cpus: usize,
    users: usize,
    instances: usize,
    generate_secs: f64,
    crawl_secs: f64,
    analyze_secs: f64,
    /// Crawl output scale, so a regression in coverage is visible next to
    /// the wall-clocks it would otherwise fake an improvement in.
    matched: usize,
    requests: u64,
    mem: MemReport,
}

/// The §3.1 query mix: every keyword/hashtag query plus instance-link
/// queries for a handful of seed instances.
fn query_mix() -> Vec<String> {
    let mut qs: Vec<String> = migration_queries().into_iter().map(|(q, _)| q).collect();
    for inst in ["mastodon.social", "fosstodon.org", "mstdn.social"] {
        qs.push(format!("url:\"{inst}\""));
    }
    qs
}

fn bench_search(api: &ApiServer, indexed_passes: usize, scan_passes: usize) -> SearchReport {
    let qs = query_mix();
    let (start, end) = (Day::COLLECTION_START, Day::COLLECTION_END);
    // One warm pass, and proof the two paths agree before we time them.
    for q in &qs {
        let a = api.search_ids_indexed(q, start, end).expect("indexed");
        let b = api.search_ids_scan(q, start, end).expect("scan");
        assert_eq!(a, b, "index disagrees with scan for {q:?}");
    }
    let t = Instant::now();
    let mut sink = 0usize;
    for _ in 0..indexed_passes {
        for q in &qs {
            sink += api
                .search_ids_indexed(q, start, end)
                .expect("indexed")
                .len();
        }
    }
    let indexed_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for _ in 0..scan_passes {
        for q in &qs {
            sink += api.search_ids_scan(q, start, end).expect("scan").len();
        }
    }
    let scan_secs = t.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    let indexed_qps = (indexed_passes * qs.len()) as f64 / indexed_secs;
    let scan_qps = (scan_passes * qs.len()) as f64 / scan_secs;
    SearchReport {
        queries_per_pass: qs.len(),
        indexed_passes,
        scan_passes,
        indexed_qps,
        scan_qps,
        speedup: indexed_qps / scan_qps,
    }
}

fn bench_crawl(
    world: &Arc<World>,
    latency_micros: u64,
    worker_counts: &[usize],
    reps: usize,
) -> Vec<CrawlPoint> {
    let latency = FaultPlan {
        seed: 0,
        faults: EndpointFamily::ALL
            .into_iter()
            .map(|family| Fault::LatencyBurst {
                family,
                window: Window::PERMANENT,
                extra_micros: latency_micros,
            })
            .collect(),
    };
    worker_counts
        .iter()
        .map(|&workers| {
            let mut best = f64::INFINITY;
            for _ in 0..reps {
                // Fresh server per rep: expansion drains rate buckets, and a
                // second expansion against drained buckets would spend its
                // wall-clock differently than the first.
                let api = ApiServer::new(
                    world.clone(),
                    ApiConfig {
                        chaos: latency.clone(),
                        ..ApiConfig::default()
                    },
                )
                .expect("valid bench config");
                let crawler = Crawler::new(
                    &api,
                    CrawlerConfig {
                        workers,
                        ..CrawlerConfig::default()
                    },
                )
                .expect("valid crawler config");
                let base = crawler.discover().expect("discover");
                let mut ds = base.clone();
                let t = Instant::now();
                crawler.expand(&mut ds).expect("expand");
                best = best.min(t.elapsed().as_secs_f64());
                std::hint::black_box(ds.twitter_timelines.len());
            }
            CrawlPoint {
                workers,
                expand_secs: best,
            }
        })
        .collect()
}

/// The `--paper` section: generate the paper-scale world (§2.1's 1.02 M
/// searchable users on 15,886 instances), crawl it end to end with the
/// default pipeline, and run the headline analysis — the whole study, one
/// process, per-phase wall-clocks plus the memory footprint. `--test`
/// (smoke) runs the identical path but writes no history entry, so CI can
/// exercise million-user completion without dirtying the artifact.
fn run_paper(smoke: bool) {
    let config = WorldConfig::paper_scale().with_seed(1234);
    eprintln!(
        "paper: generating {} users / {} instances…",
        config.n_searchable_users, config.n_instances
    );
    let t = Instant::now();
    let world = Arc::new(World::generate(&config).expect("world"));
    let generate_secs = t.elapsed().as_secs_f64();
    eprintln!(
        "paper: generate {:.1}s ({} tweets, {} statuses, peak rss {:.2} GiB)",
        generate_secs,
        world.tweets.len(),
        world.statuses.len(),
        mem::peak_rss_bytes() as f64 / f64::from(1u32 << 30)
    );

    let obs = Registry::new();
    let api = ApiServer::with_obs(world.clone(), ApiConfig::default(), obs.clone()).expect("api");
    let t = Instant::now();
    let dataset = Crawler::with_registry(&api, CrawlerConfig::default(), obs)
        .expect("valid crawler config")
        .run()
        .expect("crawl");
    let crawl_secs = t.elapsed().as_secs_f64();
    eprintln!(
        "paper: crawl {:.1}s ({} matched users, {} API requests)",
        crawl_secs,
        dataset.matched.len(),
        dataset.stats.requests
    );

    let study = MigrationStudy { world, dataset };
    let t = Instant::now();
    let analysis = study.analysis();
    let headline = analysis.headline();
    let figures = study.render_all_with(&analysis);
    let analyze_secs = t.elapsed().as_secs_f64();
    std::hint::black_box(figures.len());
    let (_, _, fails) = headline.verdict_counts();
    eprintln!("paper: analyze {analyze_secs:.1}s ({fails} headline metrics outside bands)");

    let mem = mem_snapshot();
    eprintln!(
        "paper: peak rss {} bytes ({:.2} GiB), {} allocations / {:.2} GiB allocated",
        mem.peak_rss_bytes,
        mem.peak_rss_bytes as f64 / f64::from(1u32 << 30),
        mem.alloc_count,
        mem.alloc_bytes as f64 / f64::from(1u32 << 30)
    );

    if smoke {
        eprintln!("smoke mode: not writing BENCH_history.jsonl");
        return;
    }
    let report = PaperReport {
        sha: bench_sha(),
        label: "paper_scale".to_string(),
        world: format!("WorldConfig::paper_scale().with_seed({})", config.seed),
        host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        users: config.n_searchable_users,
        instances: config.n_instances,
        generate_secs,
        crawl_secs,
        analyze_secs,
        matched: study.dataset.matched.len(),
        requests: study.dataset.stats.requests,
        mem,
    };
    append_history(&serde_json::to_string(&report).expect("serialize paper report"));
}

/// Append one compact JSON line to the committed history, newest last.
fn append_history(line: &str) {
    let mut history = std::fs::read_to_string(HISTORY_PATH).unwrap_or_default();
    if !history.is_empty() && !history.ends_with('\n') {
        history.push('\n');
    }
    history.push_str(line);
    history.push('\n');
    std::fs::write(HISTORY_PATH, history).expect("write BENCH_history.jsonl");
    eprintln!("appended to {HISTORY_PATH}");
}

/// Schema-check `line`, append it to the committed history in memory, and
/// print the gate's verdict on it for every rule whose metric it carries.
fn gate_smoke(line: &str) -> Result<(), String> {
    let entry = parse_history_line(line).map_err(|e| format!("the smoke's line: {e}"))?;
    let text =
        std::fs::read_to_string(HISTORY_PATH).map_err(|e| format!("read {HISTORY_PATH}: {e}"))?;
    let mut history = parse_history(&text).map_err(|e| format!("{HISTORY_PATH}: {e}"))?;
    history.push(entry);
    let newest = &history[history.len() - 1];
    for rule in GATE_RULES.iter().filter(|r| (r.metric)(newest).is_some()) {
        eprintln!("gate {}: {}", rule.key, eval_gate(&history, rule));
    }
    Ok(())
}

/// The commit key for the history entry.
fn bench_sha() -> String {
    if let Ok(sha) = std::env::var("FLOCK_BENCH_SHA") {
        return sha;
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> Result<(), String> {
    // Criterion-compatible smoke flag: `cargo bench -- --test` must finish
    // in seconds and must not touch the committed artifact.
    let smoke = std::env::args().any(|a| a == "--test");
    if std::env::args().any(|a| a == "--paper") {
        run_paper(smoke);
        return Ok(());
    }

    let config = WorldConfig::small().with_seed(1234);
    let world = Arc::new(World::generate(&config).expect("world"));
    let api = ApiServer::with_defaults(world.clone()).unwrap();

    // Smoke mode trims what is *expensive* (scan passes, the worker
    // sweep), never what is *gated*: the smoke's indexed qps and expand
    // wall-clocks are judged against the recorded full-run medians, so
    // those must be measured with full-run rigor or the comparison is
    // noise.
    let search = if smoke {
        bench_search(&api, 40, 1)
    } else {
        bench_search(&api, 40, 4)
    };
    eprintln!(
        "search: indexed {:.0} qps vs scan {:.0} qps ({:.1}x)",
        search.indexed_qps, search.scan_qps, search.speedup
    );

    // What a crawl worker pool buys is *overlapped request latency* — the
    // paper's crawl was network-bound, not CPU-bound. The zero-latency
    // simulator finishes the small expansion in milliseconds of pure CPU,
    // which no thread count can improve (and on a single-core host would
    // even regress), so the crawl comparison switches on the simulated
    // per-request latency and measures how well N workers hide it.
    let latency_micros = 500;
    let crawl = if smoke {
        bench_crawl(&world, latency_micros, &[1, 4], 3)
    } else {
        bench_crawl(&world, latency_micros, &[1, 2, 4, 8], 3)
    };
    for p in &crawl {
        eprintln!("expand: workers={} {:.3}s", p.workers, p.expand_secs);
    }
    let secs_at = |w: usize| {
        crawl
            .iter()
            .find(|p| p.workers == w)
            .map(|p| p.expand_secs)
            .unwrap_or(f64::NAN)
    };
    let crawl_speedup_at_4 = secs_at(1) / secs_at(4);
    eprintln!("expand speedup at 4 workers: {crawl_speedup_at_4:.2}x");

    let mem = mem_snapshot();
    eprintln!(
        "mem: peak rss {} bytes, {} allocations",
        mem.peak_rss_bytes, mem.alloc_count
    );
    let report = Report {
        sha: bench_sha(),
        label: "throughput".to_string(),
        world: format!("WorldConfig::small().with_seed({})", config.seed),
        host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        request_latency_micros: latency_micros,
        search,
        crawl,
        crawl_speedup_at_4,
        mem,
    };
    let line = serde_json::to_string(&report).expect("serialize report");
    if !smoke {
        append_history(&line);
        return Ok(());
    }
    eprintln!("smoke mode: not writing BENCH_history.jsonl");
    gate_smoke(&line)
}
