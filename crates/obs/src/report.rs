//! Deterministic run reports: a diffable text artifact (plus an HTML
//! twin) describing what a crawl did and where its virtual time went.
//!
//! The report is split into two explicitly fenced sections mirroring the
//! registry's telemetry tiers:
//!
//! * the **Data tier** section contains only worker-count-invariant
//!   content — the scenario, the resolved chaos plan, dataset facts,
//!   coverage gaps, chaos-impact counters and the deterministic metric
//!   snapshot. CI byte-compares this section across `workers=1` and
//!   `workers=8`.
//! * the **Sched tier** section holds everything scheduling-dependent:
//!   the phase timeline, the per-phase wait-attribution table, worker
//!   utilization, the slowest request chains and the critical path.
//!
//! Rendering is pure string formatting over registry snapshots — no
//! clocks, no RNG, no environment reads — so the same registry state
//! always renders the same bytes.

use std::fmt::Write as _;

use crate::profile::{phase_profiles, slot_label, PhaseProfile};
use crate::svg::xml_escape;
use crate::{Registry, Tier, WaitCause};

/// Fence opening the worker-count-invariant report section.
pub const DATA_FENCE_BEGIN: &str = "=== BEGIN DATA TIER (byte-identical across worker counts) ===";
/// Fence closing the worker-count-invariant report section.
pub const DATA_FENCE_END: &str = "=== END DATA TIER ===";
/// Fence opening the scheduling-dependent report section.
pub const SCHED_FENCE_BEGIN: &str = "=== BEGIN SCHED TIER (scheduling-dependent) ===";
/// Fence closing the scheduling-dependent report section.
pub const SCHED_FENCE_END: &str = "=== END SCHED TIER ===";

/// The text fences delimiting a section of the given tier.
pub fn tier_fences(tier: Tier) -> (&'static str, &'static str) {
    match tier {
        Tier::Data => (DATA_FENCE_BEGIN, DATA_FENCE_END),
        Tier::Sched => (SCHED_FENCE_BEGIN, SCHED_FENCE_END),
    }
}

/// Human heading for a section of the given tier (shared by the HTML
/// report and the dashboard).
pub fn tier_heading(tier: Tier) -> &'static str {
    match tier {
        Tier::Data => "Data tier — byte-identical across worker counts",
        Tier::Sched => "Sched tier — scheduling-dependent",
    }
}

/// One rendered report section. The section model is the unit every
/// renderer shares: `to_text` wraps each body in its tier's literal
/// fences, `to_html` wraps it in a tier-classed `<section>`, and the
/// dashboard embeds the same bodies inside its own fenced regions.
#[derive(Clone, Debug)]
pub struct Section {
    /// Which determinism contract the body lives under.
    pub tier: Tier,
    /// Display heading (derived from the tier).
    pub heading: &'static str,
    /// The rendered body text.
    pub body: String,
}

/// Caller-supplied context for a report. Everything in `title`,
/// `scenario`, `chaos_plan`, `facts` and `coverage` lands in the Data
/// fence and must therefore be worker-count invariant; `sched_context`
/// (worker counts, host notes…) lands in the Sched fence.
#[derive(Clone, Debug)]
pub struct ReportMeta {
    /// Report heading (keep worker counts out of it).
    pub title: String,
    /// Chaos scenario name (`"calm"`, `"rate-limit-storm"`, …).
    pub scenario: String,
    /// Resolved chaos-plan description (multi-line; empty for none).
    pub chaos_plan: String,
    /// Worker-count-invariant key/value facts about the run.
    pub facts: Vec<(String, String)>,
    /// Coverage-gap lines (from `CoverageReport`), already formatted.
    pub coverage: Vec<String>,
    /// Scheduling-dependent key/value context (worker count etc.).
    pub sched_context: Vec<(String, String)>,
}

/// How many slowest chains, and critical-path segments per phase, the
/// Sched section shows before its `(+N more)` line.
const TOP_K: usize = 10;

impl Default for ReportMeta {
    fn default() -> Self {
        ReportMeta {
            title: "flock run report".to_string(),
            scenario: "calm".to_string(),
            chaos_plan: String::new(),
            facts: Vec::new(),
            coverage: Vec::new(),
            sched_context: Vec::new(),
        }
    }
}

/// A fully rendered run report: an ordered list of tier-tagged sections.
#[derive(Clone, Debug)]
pub struct RunReport {
    title: String,
    sections: Vec<Section>,
}

impl RunReport {
    /// Render the registry's current state under the given context.
    pub fn build(reg: &Registry, meta: &ReportMeta) -> RunReport {
        let profiles = phase_profiles(reg);
        RunReport {
            title: meta.title.clone(),
            sections: vec![
                Section {
                    tier: Tier::Data,
                    heading: tier_heading(Tier::Data),
                    body: render_data(reg, meta),
                },
                Section {
                    tier: Tier::Sched,
                    heading: tier_heading(Tier::Sched),
                    body: render_sched(reg, meta, &profiles),
                },
            ],
        }
    }

    /// The report title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Every section, in render order.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    fn section_body(&self, tier: Tier) -> &str {
        self.sections
            .iter()
            .find(|s| s.tier == tier)
            .map_or("", |s| s.body.as_str())
    }

    /// The Data-tier section body (between the fences) — the bytes CI
    /// compares across worker counts.
    pub fn data_section(&self) -> &str {
        self.section_body(Tier::Data)
    }

    /// The Sched-tier section body.
    pub fn sched_section(&self) -> &str {
        self.section_body(Tier::Sched)
    }

    /// Plain-text rendering: every section between its tier's literal
    /// fences.
    pub fn to_text(&self) -> String {
        let mut out = self.title.clone();
        for s in &self.sections {
            let (begin, end) = tier_fences(s.tier);
            let _ = write!(out, "\n\n{begin}\n{body}{end}", body = s.body);
        }
        out.push('\n');
        out
    }

    /// HTML rendering: the same sections inside visually distinct,
    /// tier-classed `<section>` blocks.
    pub fn to_html(&self) -> String {
        let mut body = String::new();
        for s in &self.sections {
            let class = match s.tier {
                Tier::Data => "data",
                Tier::Sched => "sched",
            };
            let _ = write!(
                body,
                "<section class=\"{class}\">\n<h2>{heading}</h2>\n<pre>{pre}</pre>\n</section>\n",
                heading = xml_escape(s.heading),
                pre = xml_escape(&s.body),
            );
        }
        format!(
            concat!(
                "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n",
                "<title>{title}</title>\n",
                "<style>\n",
                "body{{font-family:ui-monospace,monospace;margin:2em;max-width:72em}}\n",
                "section{{border:1px solid #999;border-radius:4px;margin:1em 0;padding:0.5em 1em}}\n",
                "section.data{{background:#eef4ee}}\n",
                "section.sched{{background:#f6f2e8}}\n",
                "h2{{font-size:1em}}\n",
                "pre{{white-space:pre-wrap;margin:0.5em 0}}\n",
                "</style>\n</head>\n<body>\n<h1>{title}</h1>\n",
                "{body}</body>\n</html>\n"
            ),
            title = xml_escape(&self.title),
            body = body,
        )
    }
}

fn render_data(reg: &Registry, meta: &ReportMeta) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "scenario: {}", meta.scenario);
    if meta.chaos_plan.trim().is_empty() {
        let _ = writeln!(out, "chaos plan: (none)");
    } else {
        let _ = writeln!(out, "chaos plan:");
        for line in meta.chaos_plan.trim_end().lines() {
            let _ = writeln!(out, "  {line}");
        }
    }

    if !meta.facts.is_empty() {
        let _ = writeln!(out, "\nrun facts:");
        for (k, v) in &meta.facts {
            let _ = writeln!(out, "  {k}: {v}");
        }
    }

    let _ = writeln!(out, "\ncoverage gaps: {}", meta.coverage.len());
    for line in &meta.coverage {
        let _ = writeln!(out, "  {line}");
    }

    // Chaos impact: the deterministic-tier injected-fault counters. The
    // *rejection*/latency side of chaos is scheduling-dependent and lives
    // in the full exports, not here.
    let chaos: Vec<(String, u64)> = reg
        .counters()
        .into_iter()
        .filter(|(name, tier, _)| *tier == Tier::Data && name.contains(".chaos."))
        .map(|(name, _, v)| (name, v))
        .collect();
    let _ = writeln!(out, "\nchaos impact (deterministic tier):");
    if chaos.is_empty() {
        let _ = writeln!(out, "  (no chaos counters registered)");
    } else {
        for (name, v) in chaos {
            let _ = writeln!(out, "  {name} = {v}");
        }
    }

    let _ = writeln!(out, "\ndeterministic-tier metrics:");
    for line in reg.snapshot().lines() {
        let _ = writeln!(out, "  {line}");
    }
    out
}

fn render_sched(reg: &Registry, meta: &ReportMeta, profiles: &[PhaseProfile]) -> String {
    let mut out = String::new();
    if !meta.sched_context.is_empty() {
        let _ = writeln!(out, "run context:");
        for (k, v) in &meta.sched_context {
            let _ = writeln!(out, "  {k}: {v}");
        }
        out.push('\n');
    }

    let _ = writeln!(out, "phase timeline (virtual seconds):");
    for p in profiles {
        let _ = writeln!(
            out,
            "  {:<28} {:>10} .. {:<10} ({}s)",
            p.name,
            p.start_secs,
            p.end_secs,
            p.duration_secs()
        );
    }

    // Attribution only for phases that actually issued requests or
    // charged waits — the outer "crawl" envelope and empty phases would
    // otherwise read as giant unattributed gaps.
    let _ = writeln!(
        out,
        "\nwait attribution (virtual seconds; buckets + work = duration):"
    );
    let mut totals = [0u64; WaitCause::COUNT];
    for p in profiles
        .iter()
        .filter(|p| p.requests > 0 || p.wait_total_secs() > 0)
    {
        let mut line = format!("  {:<28} duration={:<8}", p.name, p.duration_secs());
        for cause in WaitCause::ALL {
            let secs = p.waits[cause.index()];
            totals[cause.index()] += secs;
            let _ = write!(line, " {}={}", cause.label(), secs);
        }
        let _ = write!(line, " work={}", p.work_secs());
        let _ = writeln!(out, "{line}");
    }
    let mut tline = String::from("  totals:");
    for cause in WaitCause::ALL {
        let _ = write!(tline, " {}={}", cause.label(), totals[cause.index()]);
    }
    let _ = writeln!(out, "{tline}");
    let injected_latency: u64 = reg
        .counters()
        .into_iter()
        .filter(|(name, _, _)| name.ends_with(".chaos.latency_micros"))
        .map(|(_, _, v)| v)
        .sum();
    let _ = writeln!(
        out,
        "  injected latency (wall-clock, outside virtual time): {injected_latency}us"
    );

    let _ = writeln!(out, "\nper-worker utilization:");
    for p in profiles.iter().filter(|p| p.requests > 0) {
        let mut line = format!("  {:<28}", p.name);
        for (slot, load) in &p.workers {
            let slot = slot_label(*slot);
            let _ = write!(
                line,
                " w{slot}[req={} att={} wait={}s]",
                load.requests, load.attempts, load.wait_secs
            );
        }
        let _ = writeln!(out, "{line}");
    }

    let _ = writeln!(out, "\ntop {TOP_K} slowest request chains:");
    let mut chains: Vec<_> = profiles.iter().flat_map(|p| p.slowest.iter()).collect();
    chains.sort_by(|a, b| {
        b.duration_secs()
            .cmp(&a.duration_secs())
            .then(a.span_id.cmp(&b.span_id))
    });
    for (i, c) in chains.iter().take(TOP_K).enumerate() {
        let worker = slot_label(c.worker);
        let _ = writeln!(
            out,
            "  {:>2}. [{}] {} — {}s, {} attempts, {}, worker {}",
            i + 1,
            c.phase,
            c.label,
            c.duration_secs(),
            c.attempts,
            c.outcome,
            worker
        );
    }
    // Truncation is never silent: ranked-but-unshown chains get an
    // explicit elision line, and chains lost to span-ring overflow are
    // surfaced from the flock.obs.spans.dropped counter.
    let chains_elided = chains.len().saturating_sub(TOP_K);
    if chains_elided > 0 {
        let _ = writeln!(out, "  (+{chains_elided} more)");
    }
    let spans_dropped = reg
        .counter_value("flock.obs.spans.dropped")
        .unwrap_or_default();
    if spans_dropped > 0 {
        let _ = writeln!(
            out,
            "  (+{spans_dropped} dropped: span ring overflow, see flock.obs.spans.dropped)"
        );
    }

    let _ = writeln!(out, "\ncritical path (spans that advanced the clock):");
    for p in profiles.iter().filter(|p| !p.critical_path.is_empty()) {
        let shown = p.critical_path.iter().take(TOP_K);
        let elided = p.critical_path.len().saturating_sub(TOP_K);
        for seg in shown {
            let worker = slot_label(seg.worker);
            let _ = writeln!(
                out,
                "  [{}] t={} +{}s {} (worker {})",
                p.name, seg.start_secs, seg.advance_secs, seg.label, worker
            );
        }
        if elided > 0 {
            let _ = writeln!(out, "  [{}] (+{elided} more)", p.name);
        }
    }
    if spans_dropped > 0 {
        let _ = writeln!(
            out,
            "  (+{spans_dropped} dropped: span ring overflow, see flock.obs.spans.dropped)"
        );
    }

    let _ = writeln!(
        out,
        "\naccounting: spans={} (dropped {})",
        reg.span_count(),
        reg.spans_dropped()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SpanOutcome;
    use crate::Tier;

    fn sample_registry() -> Registry {
        let reg = Registry::new();
        reg.counter("flock.apis.follows.granted", Tier::Data).add(2);
        reg.counter("flock.apis.follows.chaos.storms", Tier::Data)
            .add(1);
        reg.counter("flock.apis.chaos.latency_micros", Tier::Sched)
            .add(250);
        reg.phase_start(0, "expand.followees");
        let r = reg.span_begin("expand.followees", "following:1".to_string(), Some(0), 0);
        reg.span_attempt(r, SpanOutcome::RateLimited { storm: true });
        reg.attribute_wait(Some(r), "expand.followees", WaitCause::RetryAfterStorm, 900);
        reg.span_attempt(r, SpanOutcome::Granted);
        reg.span_end(r, 900);
        reg.phase_end(900, "expand.followees");
        reg
    }

    fn sample_meta() -> ReportMeta {
        ReportMeta {
            title: "flock run report — rate-limit-storm".to_string(),
            scenario: "rate-limit-storm".to_string(),
            chaos_plan: "retry-after storm on follows\nrate 0.30".to_string(),
            facts: vec![("matched users".to_string(), "12".to_string())],
            coverage: vec!["expand.followees: 1".to_string()],
            sched_context: vec![("workers".to_string(), "8".to_string())],
        }
    }

    #[test]
    fn text_report_has_both_fences_in_order() {
        let report = RunReport::build(&sample_registry(), &sample_meta());
        let text = report.to_text();
        let db = text.find(DATA_FENCE_BEGIN).unwrap();
        let de = text.find(DATA_FENCE_END).unwrap();
        let sb = text.find(SCHED_FENCE_BEGIN).unwrap();
        let se = text.find(SCHED_FENCE_END).unwrap();
        assert!(db < de && de < sb && sb < se);
    }

    #[test]
    fn data_section_carries_facts_and_chaos_impact_not_workers() {
        let report = RunReport::build(&sample_registry(), &sample_meta());
        let data = report.data_section();
        assert!(data.contains("scenario: rate-limit-storm"));
        assert!(data.contains("retry-after storm on follows"));
        assert!(data.contains("matched users: 12"));
        assert!(data.contains("coverage gaps: 1"));
        assert!(data.contains("flock.apis.follows.chaos.storms = 1"));
        assert!(data.contains("counter flock.apis.follows.granted 2"));
        // Worker context must stay out of the byte-compared section.
        assert!(!data.contains("workers"));
    }

    #[test]
    fn sched_section_attributes_waits_and_ranks_chains() {
        let report = RunReport::build(&sample_registry(), &sample_meta());
        let sched = report.sched_section();
        assert!(sched.contains("workers: 8"));
        assert!(sched.contains("retry_after_storm=900"));
        assert!(sched.contains("work=0"));
        assert!(sched.contains("injected latency (wall-clock, outside virtual time): 250us"));
        assert!(sched.contains("following:1 — 900s, 2 attempts, granted, worker 0"));
        assert!(sched.contains("w0[req=1 att=2 wait=900s]"));
        assert!(sched.contains("t=0 +900s following:1"));
        assert!(sched.contains("accounting: spans=1 (dropped 0)\n"));
    }

    #[test]
    fn truncated_chain_list_prints_an_explicit_elision_line() {
        let reg = sample_registry();
        // Eleven more single-attempt requests: 12 chains, 10 shown.
        for i in 2..13 {
            let r = reg.span_begin("expand.followees", format!("following:{i}"), Some(0), 900);
            reg.span_attempt(r, SpanOutcome::Granted);
            reg.span_end(r, 900);
        }
        let sched = RunReport::build(&reg, &sample_meta())
            .sched_section()
            .to_string();
        assert!(sched.contains("top 10 slowest request chains"));
        assert!(
            sched.contains("  (+2 more)"),
            "missing elision line:\n{sched}"
        );
    }

    #[test]
    fn span_ring_overflow_prints_a_dropped_line_from_the_counter() {
        let reg = Registry::with_span_capacity(2);
        reg.phase_start(0, "expand.followees");
        for i in 0..5 {
            let r = reg.span_begin("expand.followees", format!("following:{i}"), Some(0), 0);
            reg.span_attempt(r, SpanOutcome::Granted);
            reg.span_end(r, 0);
        }
        reg.phase_end(0, "expand.followees");
        assert!(reg.spans_dropped() > 0);
        let sched = RunReport::build(&reg, &sample_meta())
            .sched_section()
            .to_string();
        let expected = format!(
            "(+{} dropped: span ring overflow, see flock.obs.spans.dropped)",
            reg.spans_dropped()
        );
        assert!(sched.contains(&expected), "missing dropped line:\n{sched}");
    }

    #[test]
    fn section_model_mirrors_the_accessors() {
        let report = RunReport::build(&sample_registry(), &sample_meta());
        let sections = report.sections();
        assert_eq!(sections.len(), 2);
        assert_eq!(sections[0].tier, Tier::Data);
        assert_eq!(sections[0].body, report.data_section());
        assert_eq!(sections[1].tier, Tier::Sched);
        assert_eq!(sections[1].body, report.sched_section());
        let (begin, end) = tier_fences(Tier::Data);
        assert_eq!(begin, DATA_FENCE_BEGIN);
        assert_eq!(end, DATA_FENCE_END);
    }

    #[test]
    fn rendering_is_deterministic() {
        let a = RunReport::build(&sample_registry(), &sample_meta()).to_text();
        let b = RunReport::build(&sample_registry(), &sample_meta()).to_text();
        assert_eq!(a, b);
    }

    #[test]
    fn html_escapes_and_mirrors_sections() {
        let mut meta = sample_meta();
        meta.title = "report <&> \"quoted\"".to_string();
        let report = RunReport::build(&sample_registry(), &meta);
        let html = report.to_html();
        assert!(html.contains("report &lt;&amp;&gt; &quot;quoted&quot;"));
        assert!(html.contains("Data tier — byte-identical across worker counts"));
        assert!(html.contains("Sched tier — scheduling-dependent"));
        assert!(html.contains("scenario: rate-limit-storm"));
        assert!(!html.contains("<script"));
    }
}
