//! Deterministic run dashboard: one self-contained HTML file combining
//! trend charts over the append-only `BENCH_history.jsonl`, phase/worker
//! visuals from the span store, and (optionally) a side-by-side diff of
//! two run reports.
//!
//! Everything renders offline and dependency-free: no external JS, CSS,
//! fonts or images — charts are inline SVG built on [`crate::svg`]. The
//! dashboard inherits the report's two-tier fence model, with literal
//! HTML-comment fences ([`DASH_DATA_FENCE_BEGIN`]…) so CI can
//! `sed`-extract the Data region and byte-compare it across worker
//! counts:
//!
//! * the **Data** region holds the history trend charts (pure functions
//!   of the committed history file), the run report's Data section, and
//!   the run-diff view (a function of two Data sections). Chart geometry
//!   goes through [`crate::svg::fmt_fixed`], so there is no
//!   float-formatting drift to leak scheduling into the pixels.
//! * the **Sched** region holds the phase-timeline Gantt, the per-worker
//!   utilization heatmap, the per-phase wait-attribution stacked bars
//!   (the Σ buckets + work = duration identity, rendered), and the
//!   report's Sched section.
//!
//! The trend charts draw the series of [`GATE_RULES`], and each caption
//! carries that rule's [`eval_gate`] verdict on the newest entry. The
//! throughput bench's smoke (`cargo bench -p flock-bench --bench
//! throughput -- --test`) runs the same rules over the committed history
//! plus the line it would have recorded, so the dashboard and
//! `scripts/bench_check.sh` read one gate.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::profile::{phase_profiles, slot_label, PhaseProfile};
use crate::report::RunReport;
use crate::svg::{
    circle, fmt_fixed, label, rect, spark_geometry, sparkline, svg_root, trend_of, xml_escape,
    SparkSpec,
};
use crate::{Registry, Tier, WaitCause};
use serde::Value;

/// Fence opening the worker-count-invariant dashboard region. Emitted on
/// its own line so `sed -n '/^…/,/^…/p'` can carve the region out.
pub const DASH_DATA_FENCE_BEGIN: &str = "<!--=== BEGIN DASHBOARD DATA TIER ===-->";
/// Fence closing the worker-count-invariant dashboard region.
pub const DASH_DATA_FENCE_END: &str = "<!--=== END DASHBOARD DATA TIER ===-->";
/// Fence opening the scheduling-dependent dashboard region.
pub const DASH_SCHED_FENCE_BEGIN: &str = "<!--=== BEGIN DASHBOARD SCHED TIER ===-->";
/// Fence closing the scheduling-dependent dashboard region.
pub const DASH_SCHED_FENCE_END: &str = "<!--=== END DASHBOARD SCHED TIER ===-->";

// ---------------------------------------------------------------------
// BENCH_history.jsonl parsing
// ---------------------------------------------------------------------

/// The recorded entry shapes `BENCH_history.jsonl` may hold. Each gate
/// rule reads a metric only one shape carries, so differently-shaped
/// entries never enter each other's medians.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HistoryShape {
    /// Recorded throughput bench (`search` + `crawl` blocks; older
    /// entries also carry a `sched` block nothing reads).
    Throughput,
    /// Full-pipeline paper-scale recording (`generate_secs` …).
    PaperScale,
    /// Continuous-monitoring recording (`checks_per_sec` …).
    Monitor,
}

/// One parsed + schema-validated history line: what it measured, on
/// which host shape, and the metrics the gate rules read.
#[derive(Clone, Debug)]
pub struct HistoryEntry {
    /// Recording commit (short sha).
    pub sha: String,
    /// Recording label (`"throughput"`, `"monitor"`, …).
    pub label: String,
    /// Detected entry shape.
    pub shape: HistoryShape,
    /// `world`: the `WorldConfig` (scale and seed) the entry measured.
    pub world: Option<String>,
    /// `host_cpus`: the recording host's available parallelism.
    pub host_cpus: Option<u64>,
    /// `search.indexed_qps` (throughput shape).
    pub search_qps: Option<f64>,
    /// `expand_secs` of the `workers=1` crawl point (throughput shape).
    pub expand_w1_secs: Option<f64>,
    /// `expand_secs` of the `workers=4` crawl point (throughput shape).
    pub expand_w4_secs: Option<f64>,
    /// `checks_per_sec` (monitor shape).
    pub checks_per_sec: Option<f64>,
    /// `mem.peak_rss_bytes` (any shape that recorded memory).
    pub peak_rss_bytes: Option<f64>,
}

impl HistoryEntry {
    /// Same world on the same host shape; an entry that did not record
    /// both matches nothing.
    fn like(&self, other: &HistoryEntry) -> bool {
        self.world.is_some()
            && self.host_cpus.is_some()
            && (&self.world, self.host_cpus) == (&other.world, other.host_cpus)
    }
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::I64(n) => Some(*n as f64),
        Value::U64(n) => Some(*n as f64),
        Value::F64(n) => Some(*n),
        _ => None,
    }
}

fn req_str(v: &Value, key: &str) -> Result<String, String> {
    match v.get(key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        Some(other) => Err(format!(
            "key {key:?} must be a string, got {}",
            other.kind()
        )),
        None => Err(format!("missing required key {key:?} (string)")),
    }
}

fn req_num(v: &Value, key: &str, ctx: &str) -> Result<f64, String> {
    let at = if ctx.is_empty() {
        key.to_string()
    } else {
        format!("{ctx}.{key}")
    };
    match v.get(key) {
        Some(inner) => {
            num(inner).ok_or_else(|| format!("key {at:?} must be a number, got {}", inner.kind()))
        }
        None => Err(format!("missing required key {at:?} (number)")),
    }
}

fn classify(v: &Value) -> Result<HistoryShape, String> {
    if v.get("checks_per_sec").is_some() {
        Ok(HistoryShape::Monitor)
    } else if v.get("search").is_some() {
        Ok(HistoryShape::Throughput)
    } else if v.get("generate_secs").is_some() {
        Ok(HistoryShape::PaperScale)
    } else {
        Err(
            "unknown entry shape: expected a \"search\" block (throughput), \
             \"checks_per_sec\" (monitor) or \"generate_secs\" (paper-scale)"
                .to_string(),
        )
    }
}

/// Parse and schema-check one history line. Every shape requires `sha`
/// and `label`; each shape additionally requires the metric keys its
/// gate rules read, so a malformed append fails loudly here instead of
/// silently skewing gate medians or dashboard trends. `world` and
/// `host_cpus` are optional, but typed when present.
pub fn parse_history_line(line: &str) -> Result<HistoryEntry, String> {
    let v = serde_json::parse_value(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let sha = req_str(&v, "sha")?;
    let label = req_str(&v, "label")?;
    let shape = classify(&v)?;
    let world = v.get("world").map(|_| req_str(&v, "world")).transpose()?;
    let host_cpus = match v.get("host_cpus") {
        None => None,
        Some(Value::U64(n)) => Some(*n),
        Some(other) => {
            return Err(format!(
                "key \"host_cpus\" must be a count, got {}",
                other.kind()
            ))
        }
    };
    let mut entry = HistoryEntry {
        sha,
        label,
        shape,
        world,
        host_cpus,
        search_qps: None,
        expand_w1_secs: None,
        expand_w4_secs: None,
        checks_per_sec: None,
        peak_rss_bytes: None,
    };
    entry.peak_rss_bytes = v
        .get("mem")
        .and_then(|m| m.get("peak_rss_bytes"))
        .and_then(num);
    match shape {
        HistoryShape::Throughput => {
            let search = v
                .get("search")
                .ok_or_else(|| "missing required key \"search\" (map)".to_string())?;
            entry.search_qps = Some(req_num(search, "indexed_qps", "search")?);
            let crawl = match v.get("crawl") {
                Some(Value::Array(items)) if !items.is_empty() => items,
                Some(Value::Array(_)) => return Err("key \"crawl\" must not be empty".to_string()),
                Some(other) => {
                    return Err(format!(
                        "key \"crawl\" must be an array, got {}",
                        other.kind()
                    ))
                }
                None => return Err("missing required key \"crawl\" (array)".to_string()),
            };
            for item in crawl {
                let workers = req_num(item, "workers", "crawl[]")?;
                let secs = req_num(item, "expand_secs", "crawl[]")?;
                if workers == 1.0 {
                    entry.expand_w1_secs = Some(secs);
                } else if workers == 4.0 {
                    entry.expand_w4_secs = Some(secs);
                }
            }
            if entry.expand_w1_secs.is_none() {
                return Err("\"crawl\" has no workers=1 point (the trend gate's anchor)".into());
            }
        }
        HistoryShape::Monitor => {
            entry.checks_per_sec = Some(req_num(&v, "checks_per_sec", "")?);
            req_num(&v, "checks", "")?;
            req_num(&v, "sim_days", "")?;
        }
        HistoryShape::PaperScale => {
            for key in [
                "users",
                "instances",
                "generate_secs",
                "crawl_secs",
                "analyze_secs",
            ] {
                req_num(&v, key, "")?;
            }
        }
    }
    Ok(entry)
}

/// Parse a whole history file (one compact JSON object per line; blank
/// lines skipped). Errors carry the 1-based line number.
pub fn parse_history(text: &str) -> Result<Vec<HistoryEntry>, String> {
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        entries.push(parse_history_line(line).map_err(|e| format!("history line {}: {e}", i + 1))?);
    }
    Ok(entries)
}

// ---------------------------------------------------------------------
// The trend gate
// ---------------------------------------------------------------------

/// Which way a metric must not move, as a factor of its baseline median.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// A rate: the newest value must stay ≥ factor × the median.
    AtLeast(f64),
    /// A cost: the newest value must stay ≤ factor × the median.
    AtMost(f64),
}

/// One trend gate: the metric it reads off each history entry and the
/// band the newest entry must stay inside.
#[derive(Debug)]
pub struct GateRule {
    /// Stable id: `trend-<key>` in the dashboard, the name on the bench's
    /// verdict line.
    pub key: &'static str,
    /// Chart title.
    pub title: &'static str,
    /// Value unit for the caption.
    pub unit: &'static str,
    /// The metric, `None` for an entry that does not carry it.
    pub metric: fn(&HistoryEntry) -> Option<f64>,
    /// The band.
    pub bound: Bound,
    /// Whether the dashboard draws this rule's series.
    pub charted: bool,
}

const MIB: f64 = 1024.0 * 1024.0;

/// Entries a baseline median is taken over.
const WINDOW: usize = 3;

/// Every trend gate, in chart order. The throughput bench's smoke
/// evaluates each rule whose metric its line carries; the dashboard
/// charts the `charted` ones. Nothing records monitor lines yet, so the
/// monitor rule stays in bootstrap until something does.
pub static GATE_RULES: [GateRule; 5] = [
    GateRule {
        key: "search-qps",
        title: "search indexed throughput",
        unit: "qps",
        metric: |e| e.search_qps,
        bound: Bound::AtLeast(0.8),
        charted: true,
    },
    GateRule {
        key: "expand-secs",
        title: "expand wall-clock (workers=1)",
        unit: "s",
        metric: |e| e.expand_w1_secs,
        bound: Bound::AtMost(1.2),
        charted: true,
    },
    GateRule {
        key: "expand-w4-secs",
        title: "expand wall-clock (workers=4)",
        unit: "s",
        metric: |e| e.expand_w4_secs,
        bound: Bound::AtMost(1.2),
        charted: false,
    },
    GateRule {
        key: "monitor-checks",
        title: "monitor throughput",
        unit: "checks/s",
        metric: |e| e.checks_per_sec,
        bound: Bound::AtLeast(0.8),
        charted: true,
    },
    GateRule {
        key: "peak-rss",
        title: "peak RSS (throughput bench)",
        unit: "MiB",
        metric: |e| match e.shape {
            HistoryShape::Throughput => e.peak_rss_bytes.map(|b| b / MIB),
            _ => None,
        },
        bound: Bound::AtMost(1.2),
        charted: true,
    },
];

/// A gate rule's verdict on the newest entry that carries its metric.
#[derive(Clone, Debug, PartialEq)]
pub enum GateStatus {
    /// Fewer than [`WINDOW`] like-for-like entries precede the newest one.
    Bootstrap {
        /// The newest entry plus the like-for-like entries before it, of
        /// the `WINDOW + 1` a verdict needs.
        have: usize,
    },
    /// Inside the rule's band.
    Pass {
        /// The median the newest entry was compared against.
        baseline: f64,
    },
    /// Outside the rule's band.
    Fire {
        /// The newest entry's value.
        last: f64,
        /// The median it was compared against.
        baseline: f64,
        /// The rule's factor.
        factor: f64,
    },
}

/// The verdict as the dashboard caption and the bench's stderr print it.
impl std::fmt::Display for GateStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GateStatus::Bootstrap { have } => {
                write!(f, "bootstrap ({have}/{} entries)", WINDOW + 1)
            }
            GateStatus::Pass { baseline } => write!(f, "ok (median {})", fmt_fixed(*baseline, 2)),
            GateStatus::Fire {
                last,
                baseline,
                factor,
            } => write!(
                f,
                "REGRESSION — last {} vs median {} ({}x gate)",
                fmt_fixed(*last, 2),
                fmt_fixed(*baseline, 2),
                fmt_fixed(*factor, 2)
            ),
        }
    }
}

/// Middle element of the sorted window (its length is [`WINDOW`], odd).
fn median(window: &[f64]) -> f64 {
    let mut sorted = window.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// Judge the newest entry of `history` that carries `rule`'s metric
/// against the median of the [`WINDOW`] entries before it that carry the
/// metric and measured the same world on the same host shape.
pub fn eval_gate(history: &[HistoryEntry], rule: &GateRule) -> GateStatus {
    let mut carrying = history
        .iter()
        .filter_map(|e| (rule.metric)(e).map(|v| (e, v)));
    let Some((newest, last)) = carrying.next_back() else {
        return GateStatus::Bootstrap { have: 0 };
    };
    let like: Vec<f64> = carrying
        .filter(|(e, _)| e.like(newest))
        .map(|(_, v)| v)
        .collect();
    if like.len() < WINDOW {
        return GateStatus::Bootstrap {
            have: like.len() + 1,
        };
    }
    let baseline = median(&like[like.len() - WINDOW..]);
    let (fired, factor) = match rule.bound {
        Bound::AtLeast(factor) => (last < factor * baseline, factor),
        Bound::AtMost(factor) => (last > factor * baseline, factor),
    };
    if fired {
        GateStatus::Fire {
            last,
            baseline,
            factor,
        }
    } else {
        GateStatus::Pass { baseline }
    }
}

/// One chart-ready metric trajectory across the entries that carry it,
/// oldest first.
#[derive(Clone, Debug)]
pub struct TrendSeries {
    /// The gate rule the chart draws.
    pub rule: &'static GateRule,
    /// Metric values, one per entry that carries the metric.
    pub values: Vec<f64>,
    /// The rule's verdict on the newest point.
    pub gate: GateStatus,
}

/// The charted series of [`GATE_RULES`]: search qps, workers=1 expand
/// seconds, monitor checks/sec, and the throughput bench's peak RSS.
pub fn trend_series(history: &[HistoryEntry]) -> Vec<TrendSeries> {
    GATE_RULES
        .iter()
        .filter(|rule| rule.charted)
        .map(|rule| TrendSeries {
            rule,
            values: history.iter().filter_map(rule.metric).collect(),
            gate: eval_gate(history, rule),
        })
        .collect()
}

fn trend_figure(s: &TrendSeries) -> String {
    let spec = SparkSpec::default();
    let mut svg = sparkline(&s.values, &spec);
    let fired = matches!(s.gate, GateStatus::Fire { .. });
    if fired {
        if let Some(&(x, y)) = spark_geometry(&s.values, &spec).last() {
            svg = svg.child(circle(x, y, 3.5, "#dc2626"));
        }
    }
    let stats = if s.values.is_empty() {
        "no shape-matched entries".to_string()
    } else {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for v in &s.values {
            lo = lo.min(*v);
            hi = hi.max(*v);
        }
        let last = s.values[s.values.len() - 1];
        format!(
            "min {} · max {} · last {} {}",
            fmt_fixed(lo, 2),
            fmt_fixed(hi, 2),
            fmt_fixed(last, 2),
            trend_of(&s.values, 0.05).indicator()
        )
    };
    let gate = format!("gate: {}", s.gate);
    format!(
        "<figure class=\"trend{flag}\" id=\"trend-{key}\">{svg}\
         <figcaption><b>{title}</b> ({unit}) · {n} entries — {stats} · {gate}</figcaption></figure>",
        flag = if fired { " fire" } else { "" },
        key = s.rule.key,
        svg = svg.render(),
        title = xml_escape(s.rule.title),
        unit = xml_escape(s.rule.unit),
        n = s.values.len(),
        stats = xml_escape(&stats),
        gate = xml_escape(&gate),
    )
}

// ---------------------------------------------------------------------
// Sched-tier visuals (Gantt, heatmap, stacked wait bars)
// ---------------------------------------------------------------------

const LABEL_W: f64 = 235.0;
const ROW_H: f64 = 18.0;
const CHART_W: f64 = 700.0;
const PAD: f64 = 4.0;

const PHASE_COLORS: [&str; 6] = [
    "#2563eb", "#0d9488", "#7c3aed", "#d97706", "#be185d", "#4d7c0f",
];
const CAUSE_COLORS: [&str; WaitCause::COUNT] = [
    "#3b82f6", // token_bucket
    "#ef4444", // retry_after_storm
    "#7c3aed", // outage
    "#f59e0b", // transient_backoff
    "#94a3b8", // idle
];
const WORK_COLOR: &str = "#10b981";
const HEAT_SHADES: [&str; 5] = ["#f1f5f9", "#cde9d8", "#97d4ae", "#53b67d", "#1f8a50"];

fn placeholder_svg(text: &str) -> String {
    svg_root(CHART_W, 28.0)
        .child(label(CHART_W / 2.0, 18.0, 10.0, "middle", "#6b7280", text))
        .render()
}

/// Phase-timeline Gantt over the profiled phases: one row per phase,
/// bars positioned on the shared virtual clock.
pub fn gantt_svg(profiles: &[PhaseProfile]) -> String {
    let max_end = profiles.iter().map(|p| p.end_secs).max().unwrap_or(0);
    if profiles.is_empty() || max_end == 0 {
        return placeholder_svg("no phases recorded");
    }
    let height = 2.0 * PAD + ROW_H * profiles.len() as f64;
    let span_w = CHART_W - LABEL_W - 70.0;
    let mut root = svg_root(CHART_W, height).attr("class", "gantt");
    for (i, p) in profiles.iter().enumerate() {
        let y = PAD + ROW_H * i as f64;
        let x0 = LABEL_W + span_w * p.start_secs as f64 / max_end as f64;
        let x1 = LABEL_W + span_w * p.end_secs as f64 / max_end as f64;
        root = root
            .child(label(
                LABEL_W - 8.0,
                y + 12.5,
                10.0,
                "end",
                "#111827",
                &p.name,
            ))
            .child(rect(
                x0,
                y + 3.0,
                (x1 - x0).max(1.0),
                ROW_H - 6.0,
                PHASE_COLORS[i % PHASE_COLORS.len()],
            ))
            .child(label(
                x1 + 5.0,
                y + 12.5,
                9.0,
                "start",
                "#374151",
                &format!("{}..{} ({}s)", p.start_secs, p.end_secs, p.duration_secs()),
            ));
    }
    root.render()
}

/// Per-worker utilization heatmap: one row per request-bearing phase,
/// one column per worker slot, cells shaded by each worker's share of
/// the phase's requests (count printed in the cell).
pub fn worker_heatmap_svg(profiles: &[PhaseProfile]) -> String {
    let phases: Vec<&PhaseProfile> = profiles.iter().filter(|p| p.requests > 0).collect();
    let mut slots: BTreeSet<Option<usize>> = BTreeSet::new();
    for p in &phases {
        slots.extend(p.workers.keys().copied());
    }
    if phases.is_empty() || slots.is_empty() {
        return placeholder_svg("no worker activity recorded");
    }
    let slots: Vec<Option<usize>> = slots.into_iter().collect();
    let cell_w: f64 = 46.0;
    let header_h: f64 = 16.0;
    let height = 2.0 * PAD + header_h + ROW_H * phases.len() as f64;
    let width = (LABEL_W + cell_w * slots.len() as f64 + PAD).max(CHART_W);
    let mut root = svg_root(width, height).attr("class", "heatmap");
    for (c, slot) in slots.iter().enumerate() {
        root = root.child(label(
            LABEL_W + cell_w * (c as f64 + 0.5),
            PAD + 11.0,
            10.0,
            "middle",
            "#374151",
            &format!("w{}", slot_label(*slot)),
        ));
    }
    for (r, p) in phases.iter().enumerate() {
        let y = PAD + header_h + ROW_H * r as f64;
        root = root.child(label(
            LABEL_W - 8.0,
            y + 12.5,
            10.0,
            "end",
            "#111827",
            &p.name,
        ));
        let row_max = p.workers.values().map(|l| l.requests).max().unwrap_or(0);
        for (c, slot) in slots.iter().enumerate() {
            let x = LABEL_W + cell_w * c as f64;
            let requests = p.workers.get(slot).map_or(0, |l| l.requests);
            let share = if row_max > 0 {
                requests as f64 / row_max as f64
            } else {
                0.0
            };
            let shade = HEAT_SHADES[((share * 5.0) as usize).min(HEAT_SHADES.len() - 1)];
            root = root
                .child(rect(x + 1.0, y + 1.0, cell_w - 2.0, ROW_H - 2.0, shade))
                .child(label(
                    x + cell_w / 2.0,
                    y + 12.5,
                    9.0,
                    "middle",
                    "#111827",
                    &requests.to_string(),
                ));
        }
    }
    root.render()
}

/// Per-phase wait-attribution stacked bars: each phase's virtual
/// duration decomposed into its [`WaitCause`] buckets plus residual
/// work — the Σ buckets + work = duration identity, rendered.
pub fn wait_bars_svg(profiles: &[PhaseProfile]) -> String {
    let phases: Vec<&PhaseProfile> = profiles
        .iter()
        .filter(|p| p.duration_secs() > 0 && (p.requests > 0 || p.wait_total_secs() > 0))
        .collect();
    let max_dur = phases.iter().map(|p| p.duration_secs()).max().unwrap_or(0);
    if phases.is_empty() || max_dur == 0 {
        return placeholder_svg("no attributed waits recorded");
    }
    let legend_h: f64 = 18.0;
    let height = 2.0 * PAD + legend_h + ROW_H * phases.len() as f64;
    let span_w = CHART_W - LABEL_W - 70.0;
    let mut root = svg_root(CHART_W, height).attr("class", "waits");
    // Legend: one swatch per cause, plus work.
    let mut lx = LABEL_W;
    for cause in WaitCause::ALL {
        root = root
            .child(rect(lx, PAD + 2.0, 9.0, 9.0, CAUSE_COLORS[cause.index()]))
            .child(label(
                lx + 12.0,
                PAD + 10.0,
                9.0,
                "start",
                "#374151",
                cause.label(),
            ));
        lx += 12.0 + 7.0 * cause.label().len() as f64 + 10.0;
    }
    root = root
        .child(rect(lx, PAD + 2.0, 9.0, 9.0, WORK_COLOR))
        .child(label(
            lx + 12.0,
            PAD + 10.0,
            9.0,
            "start",
            "#374151",
            "work",
        ));
    for (r, p) in phases.iter().enumerate() {
        let y = PAD + legend_h + ROW_H * r as f64;
        root = root.child(label(
            LABEL_W - 8.0,
            y + 12.5,
            10.0,
            "end",
            "#111827",
            &p.name,
        ));
        let mut x = LABEL_W;
        for cause in WaitCause::ALL {
            let secs = p.waits[cause.index()];
            if secs == 0 {
                continue;
            }
            let w = span_w * secs as f64 / max_dur as f64;
            root = root.child(rect(
                x,
                y + 3.0,
                w.max(0.5),
                ROW_H - 6.0,
                CAUSE_COLORS[cause.index()],
            ));
            x += w;
        }
        let work = p.work_secs();
        if work > 0 {
            let w = span_w * work as f64 / max_dur as f64;
            root = root.child(rect(x, y + 3.0, w.max(0.5), ROW_H - 6.0, WORK_COLOR));
            x += w;
        }
        root = root.child(label(
            x + 5.0,
            y + 12.5,
            9.0,
            "start",
            "#374151",
            &format!("{}s", p.duration_secs()),
        ));
    }
    root.render()
}

// ---------------------------------------------------------------------
// Run diff
// ---------------------------------------------------------------------

/// Classification of one aligned diff row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiffKind {
    /// Line present and identical on both sides.
    Same,
    /// Both sides have a line here, but the text differs.
    Changed,
    /// Line only on the left side.
    OnlyLeft,
    /// Line only on the right side.
    OnlyRight,
}

/// One aligned row of the side-by-side diff.
#[derive(Clone, Debug)]
pub struct DiffRow {
    /// Row classification.
    pub kind: DiffKind,
    /// Left-side line, if any.
    pub left: Option<String>,
    /// Right-side line, if any.
    pub right: Option<String>,
}

enum DiffOp {
    Same(usize),
    Del(usize),
    Ins(usize),
}

fn lcs_ops(a: &[&str], b: &[&str]) -> Vec<DiffOp> {
    let (n, m) = (a.len(), b.len());
    // dp[i][j] = LCS length of a[i..] vs b[j..], flattened row-major.
    let stride = m + 1;
    let mut dp = vec![0u32; (n + 1) * stride];
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            dp[i * stride + j] = if a[i] == b[j] {
                dp[(i + 1) * stride + j + 1] + 1
            } else {
                dp[(i + 1) * stride + j].max(dp[i * stride + j + 1])
            };
        }
    }
    let mut ops = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < n && j < m {
        if a[i] == b[j] {
            ops.push(DiffOp::Same(i));
            i += 1;
            j += 1;
        } else if dp[(i + 1) * stride + j] >= dp[i * stride + j + 1] {
            ops.push(DiffOp::Del(i));
            i += 1;
        } else {
            ops.push(DiffOp::Ins(j));
            j += 1;
        }
    }
    while i < n {
        ops.push(DiffOp::Del(i));
        i += 1;
    }
    while j < m {
        ops.push(DiffOp::Ins(j));
        j += 1;
    }
    ops
}

/// Positional fallback for pathologically large inputs: align line k
/// with line k.
fn naive_ops(a: &[&str], b: &[&str]) -> Vec<DiffOp> {
    let mut ops = Vec::new();
    for i in 0..a.len().max(b.len()) {
        match (i < a.len(), i < b.len()) {
            (true, true) if a[i] == b[i] => ops.push(DiffOp::Same(i)),
            (true, true) => {
                ops.push(DiffOp::Del(i));
                ops.push(DiffOp::Ins(i));
            }
            (true, false) => ops.push(DiffOp::Del(i)),
            (false, true) => ops.push(DiffOp::Ins(i)),
            (false, false) => {}
        }
    }
    ops
}

/// Line-align two texts (LCS; positional fallback above 4M cells) and
/// fold insert/delete runs into side-by-side [`DiffRow`]s.
pub fn diff_lines(left: &str, right: &str) -> Vec<DiffRow> {
    let a: Vec<&str> = left.lines().collect();
    let b: Vec<&str> = right.lines().collect();
    let ops = if a.len().saturating_mul(b.len()) <= 4_000_000 {
        lcs_ops(&a, &b)
    } else {
        naive_ops(&a, &b)
    };
    let mut rows = Vec::new();
    let mut dels: Vec<String> = Vec::new();
    let mut inss: Vec<String> = Vec::new();
    let flush = |rows: &mut Vec<DiffRow>, dels: &mut Vec<String>, inss: &mut Vec<String>| {
        let pairs = dels.len().max(inss.len());
        for k in 0..pairs {
            let left = dels.get(k).cloned();
            let right = inss.get(k).cloned();
            let kind = match (&left, &right) {
                (Some(_), Some(_)) => DiffKind::Changed,
                (Some(_), None) => DiffKind::OnlyLeft,
                _ => DiffKind::OnlyRight,
            };
            rows.push(DiffRow { kind, left, right });
        }
        dels.clear();
        inss.clear();
    };
    for op in ops {
        match op {
            DiffOp::Same(i) => {
                flush(&mut rows, &mut dels, &mut inss);
                rows.push(DiffRow {
                    kind: DiffKind::Same,
                    left: Some(a[i].to_string()),
                    right: Some(a[i].to_string()),
                });
            }
            DiffOp::Del(i) => dels.push(a[i].to_string()),
            DiffOp::Ins(j) => inss.push(b[j].to_string()),
        }
    }
    flush(&mut rows, &mut dels, &mut inss);
    rows
}

/// Number of rows that are not [`DiffKind::Same`].
pub fn divergent_count(rows: &[DiffRow]) -> usize {
    rows.iter().filter(|r| r.kind != DiffKind::Same).count()
}

/// Extract the Data-tier section body from a rendered *text* report
/// (the bytes between the report fences), or `None` if the fences are
/// absent.
pub fn data_fence_slice(report_text: &str) -> Option<&str> {
    let begin = crate::report::DATA_FENCE_BEGIN;
    let end = crate::report::DATA_FENCE_END;
    let bpos = report_text.find(begin)?;
    let after = &report_text[bpos + begin.len()..];
    let after = after.strip_prefix('\n').unwrap_or(after);
    let epos = after.find(end)?;
    Some(&after[..epos])
}

/// Cap on rendered diff rows — beyond it the table ends with an
/// explicit `(+N more rows)` line, never silently.
const DIFF_ROW_CAP: usize = 400;

fn diff_table(ours_label: &str, other_label: &str, rows: &[DiffRow]) -> String {
    let mut out = String::new();
    let divergent = divergent_count(rows);
    let _ = writeln!(
        out,
        "<p class=\"diff-summary\">{divergent} divergent line{} of {}</p>",
        if divergent == 1 { "" } else { "s" },
        rows.len()
    );
    let _ = writeln!(out, "<table class=\"diff\">");
    let _ = writeln!(
        out,
        "<tr class=\"head\"><th>{}</th><th>{}</th></tr>",
        xml_escape(ours_label),
        xml_escape(other_label)
    );
    for row in rows.iter().take(DIFF_ROW_CAP) {
        let class = if row.kind == DiffKind::Same {
            "same"
        } else {
            "chg"
        };
        let cell = |side: &Option<String>| match side {
            Some(text) => xml_escape(text),
            None => String::new(),
        };
        let _ = writeln!(
            out,
            "<tr class=\"{class}\"><td>{}</td><td>{}</td></tr>",
            cell(&row.left),
            cell(&row.right)
        );
    }
    let elided = rows.len().saturating_sub(DIFF_ROW_CAP);
    if elided > 0 {
        let _ = writeln!(
            out,
            "<tr class=\"chg\"><td colspan=\"2\">(+{elided} more rows)</td></tr>"
        );
    }
    let _ = writeln!(out, "</table>");
    out
}

// ---------------------------------------------------------------------
// Assembly
// ---------------------------------------------------------------------

/// The second run of a `--diff` comparison.
#[derive(Clone, Debug)]
pub struct DiffInput {
    /// Label for the current run's column.
    pub ours_label: String,
    /// Label for the other run's column (typically its report path).
    pub other_label: String,
    /// The other run's Data-tier section body.
    pub other_data: String,
}

/// Caller-supplied dashboard context. Everything here lands in the
/// Data-tier fence and must therefore be worker-count invariant (keep
/// worker counts out of the title and note).
#[derive(Clone, Debug)]
pub struct DashboardMeta {
    /// Dashboard heading.
    pub title: String,
    /// Provenance note for the trend charts (history path + entry count).
    pub history_note: String,
    /// Optional second report to diff against.
    pub diff: Option<DiffInput>,
}

const DASH_CSS: &str = concat!(
    "body{font-family:ui-monospace,monospace;margin:2em;max-width:76em;color:#111827}\n",
    "section{border:1px solid #999;border-radius:4px;margin:1em 0;padding:0.5em 1em}\n",
    "section.data{background:#eef4ee}\n",
    "section.sched{background:#f6f2e8}\n",
    "h1{font-size:1.3em}\n",
    "h2{font-size:1em;margin:1em 0 0.4em}\n",
    "pre{white-space:pre-wrap;margin:0.5em 0;background:#fff;border:1px solid #d1d5db;",
    "border-radius:3px;padding:0.5em}\n",
    "figure.trend{display:inline-block;margin:0.4em 1em 0.4em 0;padding:0.3em;",
    "background:#fff;border:1px solid #d1d5db;border-radius:3px;vertical-align:top}\n",
    "figure.trend.fire{border-color:#dc2626}\n",
    "figcaption{font-size:0.72em;max-width:220px;color:#374151}\n",
    "svg{display:block}\n",
    "table.diff{border-collapse:collapse;width:100%;font-size:0.78em;background:#fff}\n",
    "table.diff td,table.diff th{border:1px solid #d1d5db;padding:0 0.4em;",
    "white-space:pre-wrap;width:50%;text-align:left;vertical-align:top}\n",
    "table.diff tr.chg td{background:#fde8e8}\n",
    ".diff-summary{font-weight:bold}\n",
);

/// The worker-count-invariant dashboard region: history trend charts,
/// the run report's Data section, and the optional run diff. This is a
/// Data-tier sink (see `tier.manifest`): nothing scheduling-dependent
/// may flow in, and CI byte-compares its output across worker counts.
fn render_dash_data(report: &RunReport, history: &[HistoryEntry], meta: &DashboardMeta) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "<section class=\"data\">");
    let _ = writeln!(
        out,
        "<h2>Bench history trends — {}</h2>",
        xml_escape(&meta.history_note)
    );
    let _ = writeln!(out, "<div class=\"trends\">");
    for series in trend_series(history) {
        let _ = writeln!(out, "{}", trend_figure(&series));
    }
    let _ = writeln!(out, "</div>");
    for sec in report.sections().iter().filter(|s| s.tier == Tier::Data) {
        let _ = writeln!(out, "<h2>Run report — {}</h2>", xml_escape(sec.heading));
        let _ = writeln!(out, "<pre>{}</pre>", xml_escape(&sec.body));
    }
    if let Some(diff) = &meta.diff {
        let _ = writeln!(
            out,
            "<h2>Run diff — Data tier ({} vs {})</h2>",
            xml_escape(&diff.ours_label),
            xml_escape(&diff.other_label)
        );
        let rows = diff_lines(report.data_section(), &diff.other_data);
        out.push_str(&diff_table(&diff.ours_label, &diff.other_label, &rows));
    }
    let _ = writeln!(out, "</section>");
    out
}

fn render_dash_sched(report: &RunReport, profiles: &[PhaseProfile]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "<section class=\"sched\">");
    let _ = writeln!(out, "<h2>Phase timeline (virtual seconds)</h2>");
    let _ = writeln!(out, "{}", gantt_svg(profiles));
    let _ = writeln!(out, "<h2>Per-worker utilization (requests per slot)</h2>");
    let _ = writeln!(out, "{}", worker_heatmap_svg(profiles));
    let _ = writeln!(
        out,
        "<h2>Wait attribution (Σ buckets + work = duration)</h2>"
    );
    let _ = writeln!(out, "{}", wait_bars_svg(profiles));
    for sec in report.sections().iter().filter(|s| s.tier == Tier::Sched) {
        let _ = writeln!(out, "<h2>Run report — {}</h2>", xml_escape(sec.heading));
        let _ = writeln!(out, "<pre>{}</pre>", xml_escape(&sec.body));
    }
    let _ = writeln!(out, "</section>");
    out
}

/// Render the full dashboard: one self-contained HTML document (inline
/// CSS + SVG, zero external resources) with the Data and Sched regions
/// between their literal comment fences.
pub fn render_dashboard(
    reg: &Registry,
    report: &RunReport,
    history: &[HistoryEntry],
    meta: &DashboardMeta,
) -> String {
    let profiles = phase_profiles(reg);
    format!(
        concat!(
            "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n",
            "<title>{title}</title>\n",
            "<style>\n{css}</style>\n</head>\n<body>\n<h1>{title}</h1>\n",
            "{data_begin}\n{data}{data_end}\n",
            "{sched_begin}\n{sched}{sched_end}\n",
            "</body>\n</html>\n"
        ),
        title = xml_escape(&meta.title),
        css = DASH_CSS,
        data_begin = DASH_DATA_FENCE_BEGIN,
        data = render_dash_data(report, history, meta),
        data_end = DASH_DATA_FENCE_END,
        sched_begin = DASH_SCHED_FENCE_BEGIN,
        sched = render_dash_sched(report, &profiles),
        sched_end = DASH_SCHED_FENCE_END,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{ReportMeta, RunReport};
    use crate::trace::SpanOutcome;

    const THROUGHPUT_LINE: &str = concat!(
        "{\"sha\":\"abc1234\",\"label\":\"throughput\",\"search\":{\"indexed_qps\":5000.5},",
        "\"crawl\":[{\"workers\":1,\"expand_secs\":0.7},{\"workers\":4,\"expand_secs\":0.12}],",
        "\"sched\":{\"speedup\":20.5},\"mem\":{\"peak_rss_bytes\":353443840}}"
    );
    const MONITOR_LINE: &str = concat!(
        "{\"sha\":\"def5678\",\"label\":\"monitor\",\"sim_days\":30,\"checks\":3567,",
        "\"checks_per_sec\":40591.0,\"mem\":{\"peak_rss_bytes\":98705408}}"
    );
    const PAPER_LINE: &str = concat!(
        "{\"sha\":\"0123abc\",\"label\":\"paper_scale\",\"users\":1024577,\"instances\":15886,",
        "\"generate_secs\":781.4,\"crawl_secs\":63.9,\"analyze_secs\":553.5,",
        "\"mem\":{\"peak_rss_bytes\":43221544960}}"
    );

    #[test]
    fn parses_all_committed_shapes() {
        let text = format!("{THROUGHPUT_LINE}\n{MONITOR_LINE}\n{PAPER_LINE}\n");
        let entries = parse_history(&text).expect("all shapes parse");
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].shape, HistoryShape::Throughput);
        assert_eq!(entries[0].search_qps, Some(5000.5));
        assert_eq!(entries[0].expand_w1_secs, Some(0.7));
        assert_eq!(entries[0].expand_w4_secs, Some(0.12));
        assert_eq!(entries[1].shape, HistoryShape::Monitor);
        assert_eq!(entries[1].checks_per_sec, Some(40591.0));
        assert_eq!(entries[2].shape, HistoryShape::PaperScale);
        assert_eq!(entries[2].peak_rss_bytes, Some(43221544960.0));
    }

    #[test]
    fn malformed_lines_fail_with_the_offending_key() {
        let no_sha = r#"{"label":"throughput","search":{"indexed_qps":1.0}}"#;
        let err = parse_history(no_sha).expect_err("missing sha must fail");
        assert!(err.contains("line 1") && err.contains("\"sha\""), "{err}");

        let no_qps = THROUGHPUT_LINE.replace("\"indexed_qps\"", "\"indexed\"");
        let err = parse_history_line(&no_qps).expect_err("missing search.indexed_qps must fail");
        assert!(err.contains("search.indexed_qps"), "{err}");

        // The retired sched block is optional: lines without it parse.
        let no_sched = THROUGHPUT_LINE.replace(",\"sched\":{\"speedup\":20.5}", "");
        assert!(parse_history_line(&no_sched).is_ok());

        let no_w1 = THROUGHPUT_LINE.replace("\"workers\":1,", "\"workers\":2,");
        let err = parse_history_line(&no_w1).expect_err("missing workers=1 point must fail");
        assert!(err.contains("workers=1"), "{err}");

        let unknown = r#"{"sha":"a","label":"mystery","something":1}"#;
        let err = parse_history_line(unknown).expect_err("unknown shape must fail");
        assert!(err.contains("unknown entry shape"), "{err}");

        let string_qps = THROUGHPUT_LINE.replace("5000.5", "\"5000.5\"");
        let err = parse_history_line(&string_qps).expect_err("string qps must fail");
        assert!(err.contains("must be a number"), "{err}");

        assert!(parse_history_line("not json").is_err());

        // The host shape is optional, and typed when present.
        let shaped = THROUGHPUT_LINE.replacen("{", "{\"world\":\"W\",\"host_cpus\":2,", 1);
        let e = parse_history_line(&shaped).expect("host shape parses");
        assert_eq!((e.world.as_deref(), e.host_cpus), (Some("W"), Some(2)));
        for (key, typo) in [("\"host_cpus\"", ":2,"), ("\"world\"", ":\"W\",")] {
            let err = parse_history_line(&shaped.replacen(typo, ":-2,", 1)).expect_err(key);
            assert!(err.contains(key), "{err}");
        }
    }

    /// A throughput entry on `WorldConfig::small().with_seed(1234)` that
    /// carries every gated metric at `v` (peak RSS in MiB).
    fn entry(host_cpus: u64, v: f64) -> HistoryEntry {
        HistoryEntry {
            sha: "abc1234".to_string(),
            label: "throughput".to_string(),
            shape: HistoryShape::Throughput,
            world: Some("WorldConfig::small().with_seed(1234)".to_string()),
            host_cpus: Some(host_cpus),
            search_qps: Some(v),
            expand_w1_secs: Some(v),
            expand_w4_secs: Some(v),
            checks_per_sec: Some(v),
            peak_rss_bytes: Some(v * MIB),
        }
    }

    /// `rule`'s verdict on `before` (then `newest`), as printed.
    fn verdict(rule: &GateRule, before: &[f64], newest: HistoryEntry) -> String {
        let mut history: Vec<HistoryEntry> = before.iter().map(|&v| entry(1, v)).collect();
        history.push(newest);
        eval_gate(&history, rule).to_string()
    }

    #[test]
    fn gates_bootstrap_then_fire_like_bench_check() {
        for rule in &GATE_RULES {
            let (worse, better, factor) = match rule.bound {
                Bound::AtLeast(f) => (50.0, 150.0, f),
                Bound::AtMost(f) => (150.0, 50.0, f),
            };
            let steady = [100.0; 3];
            let judge = |v: f64| verdict(rule, &steady, entry(1, v));
            assert_eq!(
                verdict(rule, &steady[1..], entry(1, 100.0)),
                "bootstrap (3/4 entries)"
            );
            assert_eq!(judge(100.0), "ok (median 100.00)", "{}", rule.key);
            assert_eq!(judge(better), "ok (median 100.00)", "{}", rule.key);
            assert_eq!(
                judge(worse),
                format!("REGRESSION — last {worse:.2} vs median 100.00 ({factor:.2}x gate)"),
            );
            // The window is the three entries before the newest one: an
            // older outlier does not move the median.
            let outlier = verdict(rule, &[1000.0, 100.0, 100.0, 100.0], entry(1, 100.0));
            assert_eq!(outlier, "ok (median 100.00)", "{}", rule.key);
        }
    }

    #[test]
    fn gates_compare_like_with_like_only() {
        let other_world = HistoryEntry {
            world: Some("WorldConfig::medium().with_seed(1234)".to_string()),
            ..entry(1, 10.0)
        };
        let no_host = HistoryEntry {
            host_cpus: None,
            ..entry(1, 10.0)
        };
        for rule in &GATE_RULES {
            // Another host shape, another world, or none recorded: nothing
            // before the newest entry is its baseline.
            for newest in [entry(2, 10.0), other_world.clone(), no_host.clone()] {
                let v = verdict(rule, &[100.0; 3], newest);
                assert_eq!(v, "bootstrap (1/4 entries)", "{}", rule.key);
            }
            // Such entries neither fill nor break a like-for-like window.
            let mut history: Vec<HistoryEntry> = (0..3).map(|_| entry(1, 100.0)).collect();
            history.splice(2..2, [entry(2, 10.0), other_world.clone(), no_host.clone()]);
            history.push(entry(1, 100.0));
            assert_eq!(
                eval_gate(&history, rule),
                GateStatus::Pass { baseline: 100.0 }
            );
        }
    }

    #[test]
    fn series_are_shape_filtered() {
        let monitor = HistoryEntry {
            shape: HistoryShape::Monitor,
            search_qps: None,
            expand_w1_secs: None,
            expand_w4_secs: None,
            checks_per_sec: Some(40000.0),
            peak_rss_bytes: Some(50.0 * MIB),
            ..entry(1, 0.0)
        };
        let throughput = HistoryEntry {
            checks_per_sec: None,
            ..entry(1, 100.0)
        };
        let series = trend_series(&[throughput, monitor]);
        // Monitor RSS must not leak into the throughput RSS trend.
        assert_eq!(series[3].values, vec![100.0]);
        assert_eq!(series[2].values, vec![40000.0]);
    }

    #[test]
    fn diff_marks_changed_and_one_sided_lines() {
        let left = "a\nchaos.storms = 12\nb\nonly-left\n";
        let right = "a\nchaos.storms = 0\nb\n";
        let rows = diff_lines(left, right);
        assert_eq!(divergent_count(&rows), 2);
        let changed: Vec<&DiffRow> = rows
            .iter()
            .filter(|r| r.kind == DiffKind::Changed)
            .collect();
        assert_eq!(changed.len(), 1);
        assert_eq!(changed[0].left.as_deref(), Some("chaos.storms = 12"));
        assert_eq!(changed[0].right.as_deref(), Some("chaos.storms = 0"));
        assert!(rows.iter().any(|r| r.kind == DiffKind::OnlyLeft));
        // Identical inputs: zero divergence.
        assert_eq!(divergent_count(&diff_lines(left, left)), 0);
    }

    #[test]
    fn data_fence_slice_extracts_the_report_body() {
        let reg = Registry::new();
        let report = RunReport::build(&reg, &ReportMeta::default());
        let text = report.to_text();
        let slice = data_fence_slice(&text).expect("fences present");
        assert_eq!(slice, report.data_section());
        assert!(data_fence_slice("no fences here").is_none());
    }

    fn sample_registry() -> Registry {
        let reg = Registry::new();
        reg.counter("flock.apis.follows.granted", Tier::Data).add(2);
        reg.phase_start(0, "expand.followees");
        let r = reg.span_begin("expand.followees", "following:1", None, Some(0), 0);
        reg.attribute_wait(Some(r), "expand.followees", WaitCause::RetryAfterStorm, 900);
        reg.span_end(r, 900, SpanOutcome::Granted);
        reg.phase_end(900, "expand.followees");
        reg
    }

    fn sample_meta() -> DashboardMeta {
        DashboardMeta {
            title: "flock run dashboard — test".to_string(),
            history_note: "BENCH_history.jsonl · 2 entries".to_string(),
            diff: None,
        }
    }

    #[test]
    fn dashboard_renders_fences_charts_and_is_self_contained() {
        let reg = sample_registry();
        let report = RunReport::build(&reg, &ReportMeta::default());
        let history =
            parse_history(&format!("{THROUGHPUT_LINE}\n{MONITOR_LINE}\n")).expect("sample history");
        let html = render_dashboard(&reg, &report, &history, &sample_meta());
        for fence in [
            DASH_DATA_FENCE_BEGIN,
            DASH_DATA_FENCE_END,
            DASH_SCHED_FENCE_BEGIN,
            DASH_SCHED_FENCE_END,
        ] {
            assert!(
                html.lines().any(|l| l == fence),
                "fence {fence:?} must be its own line"
            );
        }
        for key in [
            "trend-search-qps",
            "trend-expand-secs",
            "trend-monitor-checks",
            "trend-peak-rss",
        ] {
            assert!(html.contains(key), "missing chart {key}");
        }
        assert!(html.contains("<svg"));
        // Self-contained: no external fetches of any kind.
        for needle in ["src=", "href=", "url(", "@import", "<script"] {
            assert!(!html.contains(needle), "external resource leak: {needle}");
        }
        // Deterministic: same inputs, same bytes.
        let again = render_dashboard(&reg, &report, &history, &sample_meta());
        assert_eq!(html, again);
    }

    #[test]
    fn dashboard_diff_flags_divergent_chaos_lines() {
        let reg = sample_registry();
        let report = RunReport::build(&reg, &ReportMeta::default());
        // The "other" run differs in a chaos-impact counter line.
        let other_data = report.data_section().replace(
            "flock.apis.follows.granted 2",
            "flock.apis.follows.granted 7",
        );
        let meta = DashboardMeta {
            diff: Some(DiffInput {
                ours_label: "this run".to_string(),
                other_label: "other.report.txt".to_string(),
                other_data,
            }),
            ..sample_meta()
        };
        let html = render_dashboard(&reg, &report, &[], &meta);
        assert!(html.contains("diff-summary"));
        assert!(
            html.lines()
                .any(|l| l.starts_with("<tr class=\"chg\">") && l.contains("granted")),
            "divergent counter line must be flagged"
        );
    }

    #[test]
    fn sched_visuals_degrade_cleanly_without_spans() {
        let reg = Registry::new();
        let profiles = phase_profiles(&reg);
        assert!(gantt_svg(&profiles).contains("no phases recorded"));
        assert!(worker_heatmap_svg(&profiles).contains("no worker activity recorded"));
        assert!(wait_bars_svg(&profiles).contains("no attributed waits recorded"));
    }
}
