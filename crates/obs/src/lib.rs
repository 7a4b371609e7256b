//! # flock-obs — deterministic metrics, tracing & profiling
//!
//! The paper's crawl was an *operational* exercise as much as a scientific
//! one: §3 reports request volumes, rate-limit stalls, dead instances and
//! per-phase coverage, and every follow-on study leans on knowing exactly
//! what the crawl did. This crate is the workspace's observability layer:
//! a [`Registry`] of named counters, gauges and histograms
//! plus lightweight span events, hierarchical request spans ([`Span`]),
//! a per-phase wait-attribution ledger ([`WaitCause`]), a virtual-time
//! profiler ([`profile`]) and a deterministic run-report renderer
//! ([`report`]) — all designed around the same rules as the rest of the
//! pipeline:
//!
//! * **No wall clock.** Every timestamp is caller-supplied virtual time
//!   (the `ApiServer` clock, or a simulated day offset). Exports never
//!   embed ambient time, so they are reproducible byte-for-byte.
//! * **Deterministic iteration.** Metrics live in a `BTreeMap` keyed by
//!   name, so every export walks them in one canonical order.
//! * **Two telemetry tiers.** [`Tier::Data`] metrics are facts about the
//!   data (requests *granted*, items collected) and must be identical
//!   across worker counts; [`Tier::Sched`] metrics are operational
//!   signals (retries, queue depths, backoff waits) that legitimately
//!   depend on thread scheduling. [`Registry::snapshot`] renders only the
//!   deterministic tier — that string is byte-compared in tests across
//!   `workers=1` and `workers=8` — while [`Registry::export_text`] /
//!   [`Registry::export_json`] / [`Registry::export_prometheus`] render
//!   everything.
//! * **Bounded buffers.** The event log and the span store are ring
//!   buffers capped at construction ([`Registry::with_capacities`]);
//!   overflow drops the oldest record and counts the drop in a
//!   scheduling-tier counter, so telemetry can never balloon a long
//!   crawl's memory.
//!
//! Handles are cheap `Arc`-backed atomics: register once at construction
//! time, then `inc()`/`record()` from any thread without touching the
//! registry lock. Metric names follow `flock.<crate>.<subsystem>.<metric>`.

pub mod dashboard;
pub mod profile;
pub mod report;
pub mod svg;
pub mod trace;

pub use trace::{FaultKind, SpanOutcome};

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Lock with poison recovery: a panicking thread elsewhere must not take
/// the telemetry down with it — the registry's state (plain atomics and
/// completed `String` keys) is always valid.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Which determinism contract a metric lives under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// A fact about the data: byte-identical across worker counts and
    /// thread schedules (e.g. requests *granted*, tweets collected).
    Data,
    /// An operational signal that depends on scheduling (e.g. rate-limit
    /// rejections, retry waits, queue depths). Excluded from
    /// [`Registry::snapshot`], present in the full exports.
    Sched,
}

impl Tier {
    fn label(self) -> &'static str {
        match self {
            Tier::Data => "deterministic",
            Tier::Sched => "scheduling",
        }
    }
}

/// Monotonically increasing event count. Cloning shares the underlying
/// atomic, so a handle can be stored per call-site.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct GaugeInner {
    value: AtomicU64,
    high: AtomicU64,
}

/// Last-written value plus a high-watermark (the only aggregate of a
/// sampled quantity that merges deterministically).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<GaugeInner>);

impl Gauge {
    /// Record the current level.
    pub fn set(&self, v: u64) {
        self.0.value.store(v, Ordering::Relaxed);
        self.0.high.fetch_max(v, Ordering::Relaxed);
    }

    /// Most recently written value.
    pub fn get(&self) -> u64 {
        self.0.value.load(Ordering::Relaxed)
    }

    /// Highest value ever written.
    pub fn high_watermark(&self) -> u64 {
        self.0.high.load(Ordering::Relaxed)
    }
}

/// Default bucket bounds for virtual-second latencies/waits: sub-second
/// through one virtual week.
pub const SECONDS_BOUNDS: [u64; 9] = [1, 5, 15, 60, 300, 900, 3600, 86_400, 604_800];

#[derive(Debug)]
struct HistogramInner {
    /// Ascending upper bounds; an implicit `+inf` bucket follows the last.
    bounds: Vec<u64>,
    /// `bounds.len() + 1` cumulative-free bucket counts.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// Fixed-bound histogram. Bucket bounds are set at registration and never
/// change, so concurrent `record()`s from any interleaving produce the
/// same final bucket counts — histogram merges are order-independent.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    fn with_bounds(bounds: &[u64]) -> Self {
        let mut sorted = bounds.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let buckets = (0..=sorted.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramInner {
            bounds: sorted,
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }))
    }

    /// Record one observation.
    pub fn record(&self, v: u64) {
        let idx = self
            .0
            .bounds
            .iter()
            .position(|b| v <= *b)
            .unwrap_or(self.0.bounds.len());
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.min.fetch_min(v, Ordering::Relaxed);
        self.0.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count() == 0 {
            0
        } else {
            self.0.min.load(Ordering::Relaxed)
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    /// Bucket-interpolated quantile estimate (Prometheus-style): walk the
    /// cumulative bucket counts to the bucket holding rank `q·count`,
    /// then interpolate linearly inside that bucket's bounds. The +inf
    /// bucket answers with the observed maximum (the only honest point
    /// estimate an unbounded bucket has). `None` when the histogram is
    /// empty or `q` is outside `[0, 1]`.
    ///
    /// Determinism: a pure function of the bucket counts, which are
    /// themselves order-independent — a data-tier histogram's quantiles
    /// are worker-count invariant.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 || !q.is_finite() || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = q * total as f64;
        let counts = self.bucket_counts();
        let mut cum = 0.0f64;
        for (i, c) in counts.iter().enumerate() {
            if *c == 0 {
                continue;
            }
            let prev = cum;
            cum += *c as f64;
            if cum >= rank {
                if i == self.0.bounds.len() {
                    return Some(self.max() as f64);
                }
                let upper = self.0.bounds[i] as f64;
                let lower = if i == 0 {
                    (self.min() as f64).min(upper)
                } else {
                    self.0.bounds[i - 1] as f64
                };
                let frac = ((rank - prev) / *c as f64).clamp(0.0, 1.0);
                return Some(lower + (upper - lower) * frac);
            }
        }
        Some(self.max() as f64)
    }

    fn bucket_counts(&self) -> Vec<u64> {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// `p50/p95/p99` suffix shared by the text and JSON exporters; empty
    /// for an empty histogram.
    fn quantile_fields(&self, render: impl Fn(&str, f64) -> String) -> String {
        let mut out = String::new();
        for (name, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
            if let Some(v) = self.quantile(q) {
                out.push_str(&render(name, v));
            }
        }
        out
    }
}

/// What a span event marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A named phase began.
    PhaseStart,
    /// A named phase finished.
    PhaseEnd,
    /// A point-in-time annotation (a retry decision, a migration wave…).
    Point,
}

impl EventKind {
    fn label(self) -> &'static str {
        match self {
            EventKind::PhaseStart => "phase_start",
            EventKind::PhaseEnd => "phase_end",
            EventKind::Point => "event",
        }
    }
}

/// One structured trace record, stamped with **virtual** time only.
#[derive(Clone, Debug)]
pub struct SpanEvent {
    /// Virtual-clock timestamp (seconds) supplied by the caller.
    pub ts_secs: u64,
    pub kind: EventKind,
    pub name: String,
    pub detail: String,
}

/// Why the crawler advanced the virtual clock — the wait-attribution
/// taxonomy. Every second the clock moves during a phase is charged to
/// exactly one cause, so the per-phase buckets sum to the phase's
/// duration (asserted in the integration tests). Whatever is *not*
/// charged to a wait bucket is useful work.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum WaitCause {
    /// Parked on a genuinely empty token bucket until its refill point.
    TokenBucket,
    /// Honouring an injected chaos Retry-After storm.
    RetryAfterStorm,
    /// Waiting out a finite instance-outage window.
    Outage,
    /// Fixed backoff between transient-fault retries.
    TransientBackoff,
    /// Nothing was due: a long-horizon workload (the continuous monitor)
    /// slept until its next scheduled event. Idle time is still clock
    /// movement and must be attributed for the Σ buckets + work =
    /// duration identity to hold over days of simulated uptime.
    Idle,
}

impl WaitCause {
    /// Number of causes (the ledger's fixed bucket count).
    pub const COUNT: usize = 5;

    /// Every cause, in ledger-bucket order.
    pub const ALL: [WaitCause; WaitCause::COUNT] = [
        WaitCause::TokenBucket,
        WaitCause::RetryAfterStorm,
        WaitCause::Outage,
        WaitCause::TransientBackoff,
        WaitCause::Idle,
    ];

    /// Stable label used by exports and reports.
    pub fn label(self) -> &'static str {
        match self {
            WaitCause::TokenBucket => "token_bucket",
            WaitCause::RetryAfterStorm => "retry_after_storm",
            WaitCause::Outage => "outage",
            WaitCause::TransientBackoff => "transient_backoff",
            WaitCause::Idle => "idle",
        }
    }

    /// This cause's index into a `[u64; WaitCause::COUNT]` bucket array.
    pub fn index(self) -> usize {
        match self {
            WaitCause::TokenBucket => 0,
            WaitCause::RetryAfterStorm => 1,
            WaitCause::Outage => 2,
            WaitCause::TransientBackoff => 3,
            WaitCause::Idle => 4,
        }
    }
}

/// One hierarchical request span, stamped with **virtual** time.
///
/// The crawler opens a parent span per *logical request* (trace id = the
/// pipeline phase, span id = a global sequence number) and records one
/// child span per *attempt* the server answered — so a request that was
/// rate-limited twice and then granted owns three children. Waits are
/// charged to the parent (`waits`), attempts are instants.
#[derive(Clone, Debug)]
pub struct Span {
    /// Globally unique, monotonically increasing id (1-based).
    pub id: u64,
    /// Parent span id (`None` for logical-request roots).
    pub parent: Option<u64>,
    /// Trace id: the pipeline phase this span belongs to.
    pub trace: String,
    /// Human-readable request label (query, user id, domain…).
    pub label: String,
    /// Worker slot of the thread that ran this span, if inside a pool.
    pub worker: Option<usize>,
    /// Endpoint family label, once an attempt reached the server.
    pub family: Option<&'static str>,
    /// Virtual start time (seconds).
    pub start_secs: u64,
    /// Virtual end time (seconds; == start until the span ends).
    pub end_secs: u64,
    /// Typed outcome (`None` while the span is open).
    pub outcome: Option<SpanOutcome>,
    /// Virtual seconds of clock advance charged to this span, by cause.
    pub waits: [u64; WaitCause::COUNT],
}

impl Span {
    /// Virtual duration in seconds.
    pub fn duration_secs(&self) -> u64 {
        self.end_secs.saturating_sub(self.start_secs)
    }

    /// Total virtual seconds of waiting charged to this span.
    pub fn wait_total_secs(&self) -> u64 {
        self.waits.iter().sum()
    }
}

/// One entry of the phase table: a named phase's virtual extent.
#[derive(Clone, Debug)]
pub struct PhaseSpan {
    pub name: String,
    pub start_secs: u64,
    /// `None` while the phase is still open.
    pub end_secs: Option<u64>,
}

/// Default ring-buffer capacity of the event log.
pub const DEFAULT_EVENT_CAPACITY: usize = 65_536;

/// Default ring-buffer capacity of the span store.
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

/// Hard cap on the phase table (phases are few; this only guards against
/// a pathological caller using `phase_start` as an event stream).
const PHASE_TABLE_CAP: usize = 4_096;

#[derive(Debug)]
enum Slot {
    Counter(Tier, Counter),
    Gauge(Tier, Gauge),
    Histogram(Tier, Histogram),
}

impl Slot {
    fn tier(&self) -> Tier {
        match self {
            Slot::Counter(t, _) | Slot::Gauge(t, _) | Slot::Histogram(t, _) => *t,
        }
    }
}

/// Ring-buffered event log: overflow drops the oldest record and counts.
#[derive(Debug)]
struct EventLog {
    events: VecDeque<SpanEvent>,
    capacity: usize,
    dropped: u64,
}

/// Ring-buffered span store. Ids are assigned sequentially and spans are
/// only ever evicted from the front, so the live window is contiguous and
/// id → index lookup is O(1).
#[derive(Debug)]
struct SpanStore {
    spans: VecDeque<Span>,
    capacity: usize,
    /// Next id to assign (ids are 1-based; 0 never names a span).
    next_id: u64,
    dropped: u64,
}

impl SpanStore {
    fn index_of(&self, id: u64) -> Option<usize> {
        let front = self.spans.front()?.id;
        let idx = id.checked_sub(front)? as usize;
        (idx < self.spans.len()).then_some(idx)
    }
}

#[derive(Debug)]
struct RegistryInner {
    metrics: Mutex<BTreeMap<String, Slot>>,
    events: Mutex<EventLog>,
    spans: Mutex<SpanStore>,
    phases: Mutex<Vec<PhaseSpan>>,
    /// Per-phase wait ledger: phase name → seconds per [`WaitCause`].
    waits: Mutex<BTreeMap<String, [u64; WaitCause::COUNT]>>,
    events_dropped: OnceLock<Counter>,
    spans_dropped: OnceLock<Counter>,
}

impl RegistryInner {
    fn with_capacities(event_capacity: usize, span_capacity: usize) -> Self {
        RegistryInner {
            metrics: Mutex::new(BTreeMap::new()),
            events: Mutex::new(EventLog {
                events: VecDeque::new(),
                capacity: event_capacity,
                dropped: 0,
            }),
            spans: Mutex::new(SpanStore {
                spans: VecDeque::new(),
                capacity: span_capacity,
                next_id: 1,
                dropped: 0,
            }),
            phases: Mutex::new(Vec::new()),
            waits: Mutex::new(BTreeMap::new()),
            events_dropped: OnceLock::new(),
            spans_dropped: OnceLock::new(),
        }
    }
}

impl Default for RegistryInner {
    fn default() -> Self {
        RegistryInner::with_capacities(DEFAULT_EVENT_CAPACITY, DEFAULT_SPAN_CAPACITY)
    }
}

/// The shared metric registry. Cloning is cheap (an `Arc` bump) and all
/// clones observe the same metrics, so one registry can be threaded
/// through `ApiServer`, `Crawler` and the fedisim world side by side.
#[derive(Clone, Debug, Default)]
pub struct Registry(Arc<RegistryInner>);

impl Registry {
    /// Fresh empty registry with the default ring-buffer capacities.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Fresh registry with explicit event-log / span-store capacities.
    /// Overflow evicts the oldest record and increments the scheduling-
    /// tier `flock.obs.events.dropped` / `flock.obs.spans.dropped`
    /// counter.
    pub fn with_capacities(event_capacity: usize, span_capacity: usize) -> Self {
        Registry(Arc::new(RegistryInner::with_capacities(
            event_capacity,
            span_capacity,
        )))
    }

    /// Get-or-register the counter `name`. Registration is idempotent:
    /// the same name always yields handles onto the same atomic. If the
    /// name is already registered as a *different* kind the call returns
    /// a detached handle (safe to use, invisible in exports) rather than
    /// panicking — telemetry must never take the pipeline down.
    pub fn counter(&self, name: &str, tier: Tier) -> Counter {
        let mut m = relock(&self.0.metrics);
        match m
            .entry(name.to_string())
            .or_insert_with(|| Slot::Counter(tier, Counter::default()))
        {
            Slot::Counter(_, c) => c.clone(),
            _ => Counter::default(),
        }
    }

    /// Get-or-register the gauge `name` (same contract as [`Self::counter`]).
    pub fn gauge(&self, name: &str, tier: Tier) -> Gauge {
        let mut m = relock(&self.0.metrics);
        match m
            .entry(name.to_string())
            .or_insert_with(|| Slot::Gauge(tier, Gauge::default()))
        {
            Slot::Gauge(_, g) => g.clone(),
            _ => Gauge::default(),
        }
    }

    /// Get-or-register the histogram `name` with the given bucket upper
    /// bounds (ignored if the name already exists; same contract as
    /// [`Self::counter`]).
    pub fn histogram(&self, name: &str, tier: Tier, bounds: &[u64]) -> Histogram {
        let mut m = relock(&self.0.metrics);
        match m
            .entry(name.to_string())
            .or_insert_with(|| Slot::Histogram(tier, Histogram::with_bounds(bounds)))
        {
            Slot::Histogram(_, h) => h.clone(),
            _ => Histogram::with_bounds(bounds),
        }
    }

    /// Record the start of a named phase at virtual time `ts_secs`.
    pub fn phase_start(&self, ts_secs: u64, name: &str) {
        self.push_event(ts_secs, EventKind::PhaseStart, name, "");
        let mut phases = relock(&self.0.phases);
        if phases.len() < PHASE_TABLE_CAP {
            phases.push(PhaseSpan {
                name: name.to_string(),
                start_secs: ts_secs,
                end_secs: None,
            });
        }
    }

    /// Record the end of a named phase at virtual time `ts_secs`.
    pub fn phase_end(&self, ts_secs: u64, name: &str) {
        self.push_event(ts_secs, EventKind::PhaseEnd, name, "");
        let mut phases = relock(&self.0.phases);
        if let Some(ph) = phases
            .iter_mut()
            .rev()
            .find(|ph| ph.end_secs.is_none() && ph.name == name)
        {
            ph.end_secs = Some(ts_secs);
        }
    }

    /// Record a point-in-time annotation at virtual time `ts_secs`.
    pub fn event(&self, ts_secs: u64, name: &str, detail: &str) {
        self.push_event(ts_secs, EventKind::Point, name, detail);
    }

    fn push_event(&self, ts_secs: u64, kind: EventKind, name: &str, detail: &str) {
        let mut overflow = 0u64;
        {
            let mut log = relock(&self.0.events);
            log.events.push_back(SpanEvent {
                ts_secs,
                kind,
                name: name.to_string(),
                detail: detail.to_string(),
            });
            while log.events.len() > log.capacity {
                log.events.pop_front();
                log.dropped += 1;
                overflow += 1;
            }
        }
        // Counter registration takes the metrics lock — done strictly
        // after the event lock is released.
        if overflow > 0 {
            self.0
                .events_dropped
                .get_or_init(|| self.counter("flock.obs.events.dropped", Tier::Sched))
                .add(overflow);
        }
    }

    // ---- spans ----------------------------------------------------------

    /// Open a span and return its id. `trace_name` is the trace id (the
    /// pipeline phase); `parent` links attempts under their logical
    /// request.
    pub fn span_begin(
        &self,
        trace_name: &str,
        label: &str,
        parent: Option<u64>,
        worker: Option<usize>,
        start_secs: u64,
    ) -> u64 {
        self.push_span(
            trace_name, label, parent, worker, None, None, start_secs, start_secs,
        )
    }

    /// Close span `id` with a typed outcome. A span already evicted by
    /// the ring buffer is silently skipped.
    pub fn span_end(&self, id: u64, end_secs: u64, outcome: SpanOutcome) {
        let mut store = relock(&self.0.spans);
        if let Some(i) = store.index_of(id) {
            let s = &mut store.spans[i];
            s.end_secs = end_secs;
            s.outcome = Some(outcome);
        }
    }

    /// Record one completed *attempt* as a child span of `parent` in a
    /// single call (attempts are instants: the server answered at once
    /// in virtual time; the waits between attempts belong to the parent).
    #[allow(clippy::too_many_arguments)]
    pub fn span_attempt(
        &self,
        parent: u64,
        trace_name: &str,
        label: &str,
        worker: Option<usize>,
        family: Option<&'static str>,
        outcome: SpanOutcome,
        start_secs: u64,
        end_secs: u64,
    ) -> u64 {
        {
            // Stamp the family onto the parent while we know it.
            let mut store = relock(&self.0.spans);
            if let Some(i) = store.index_of(parent) {
                if family.is_some() {
                    store.spans[i].family = family;
                }
            }
        }
        self.push_span(
            trace_name,
            label,
            Some(parent),
            worker,
            family,
            Some(outcome),
            start_secs,
            end_secs,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn push_span(
        &self,
        trace_name: &str,
        label: &str,
        parent: Option<u64>,
        worker: Option<usize>,
        family: Option<&'static str>,
        outcome: Option<SpanOutcome>,
        start_secs: u64,
        end_secs: u64,
    ) -> u64 {
        let mut overflow = 0u64;
        let id;
        {
            let mut store = relock(&self.0.spans);
            id = store.next_id;
            store.next_id += 1;
            store.spans.push_back(Span {
                id,
                parent,
                trace: trace_name.to_string(),
                label: label.to_string(),
                worker,
                family,
                start_secs,
                end_secs,
                outcome,
                waits: [0; WaitCause::COUNT],
            });
            while store.spans.len() > store.capacity {
                store.spans.pop_front();
                store.dropped += 1;
                overflow += 1;
            }
        }
        if overflow > 0 {
            self.0
                .spans_dropped
                .get_or_init(|| self.counter("flock.obs.spans.dropped", Tier::Sched))
                .add(overflow);
        }
        id
    }

    /// Charge `secs` of virtual clock advance to span `id` under `cause`,
    /// and to `phase`'s wait ledger. This is the **only** write path of
    /// the attribution invariant: callers attribute exactly the clock
    /// delta their advance actually applied, so per-phase buckets sum to
    /// the phase's virtual duration. Zero-second advances (another
    /// worker already paid the wait) are skipped.
    pub fn attribute_wait(&self, span_id: u64, phase: &str, cause: WaitCause, secs: u64) {
        if secs == 0 {
            return;
        }
        {
            let mut store = relock(&self.0.spans);
            if let Some(i) = store.index_of(span_id) {
                store.spans[i].waits[cause.index()] += secs;
            }
        }
        let mut ledger = relock(&self.0.waits);
        ledger
            .entry(phase.to_string())
            .or_insert([0; WaitCause::COUNT])[cause.index()] += secs;
    }

    /// Snapshot of every live (non-evicted) span, id order.
    pub fn spans(&self) -> Vec<Span> {
        relock(&self.0.spans).spans.iter().cloned().collect()
    }

    /// Number of live spans.
    pub fn span_count(&self) -> usize {
        relock(&self.0.spans).spans.len()
    }

    /// Spans evicted by the ring buffer so far.
    pub fn spans_dropped(&self) -> u64 {
        relock(&self.0.spans).dropped
    }

    /// Events evicted by the ring buffer so far.
    pub fn events_dropped(&self) -> u64 {
        relock(&self.0.events).dropped
    }

    /// Snapshot of the phase table, start order.
    pub fn phases(&self) -> Vec<PhaseSpan> {
        relock(&self.0.phases).clone()
    }

    /// Snapshot of the per-phase wait ledger (phase → seconds per cause,
    /// indexed by [`WaitCause::index`]).
    pub fn waits(&self) -> BTreeMap<String, [u64; WaitCause::COUNT]> {
        relock(&self.0.waits).clone()
    }

    // ---- introspection --------------------------------------------------

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        relock(&self.0.metrics).is_empty()
    }

    /// Number of registered metrics.
    pub fn metric_count(&self) -> usize {
        relock(&self.0.metrics).len()
    }

    /// Number of recorded (live) span events.
    pub fn event_count(&self) -> usize {
        relock(&self.0.events).events.len()
    }

    /// Current value of the counter `name`, if registered as a counter.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match relock(&self.0.metrics).get(name) {
            Some(Slot::Counter(_, c)) => Some(c.get()),
            _ => None,
        }
    }

    /// Every registered counter as `(name, tier, value)`, name order
    /// (report plumbing).
    pub(crate) fn counters(&self) -> Vec<(String, Tier, u64)> {
        relock(&self.0.metrics)
            .iter()
            .filter_map(|(name, slot)| match slot {
                Slot::Counter(t, c) => Some((name.clone(), *t, c.get())),
                _ => None,
            })
            .collect()
    }

    fn render_metrics(&self, out: &mut String, filter: Option<Tier>) {
        for (name, slot) in relock(&self.0.metrics).iter() {
            if filter.is_some_and(|want| slot.tier() != want) {
                continue;
            }
            match slot {
                Slot::Counter(_, c) => {
                    let _ = writeln!(out, "counter {name} {}", c.get());
                }
                Slot::Gauge(_, g) => {
                    let _ = writeln!(
                        out,
                        "gauge {name} value={} high={}",
                        g.get(),
                        g.high_watermark()
                    );
                }
                Slot::Histogram(_, h) => {
                    let buckets = h
                        .bucket_counts()
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(",");
                    let quantiles = h.quantile_fields(|n, v| format!(" {n}={v:.2}"));
                    let _ = writeln!(
                        out,
                        "histogram {name} count={} sum={} min={} max={}{quantiles} buckets={buckets}",
                        h.count(),
                        h.sum(),
                        h.min(),
                        h.max()
                    );
                }
            }
        }
    }

    /// Canonical rendering of the **deterministic tier only** — the bytes
    /// compared across worker counts in the telemetry-determinism test.
    pub fn snapshot(&self) -> String {
        let mut out = String::new();
        self.render_metrics(&mut out, Some(Tier::Data));
        out
    }

    /// Full text export: both tiers (tagged) plus the event log and the
    /// ring-buffer drop accounting.
    pub fn export_text(&self) -> String {
        let mut out = String::from("# deterministic tier\n");
        self.render_metrics(&mut out, Some(Tier::Data));
        out.push_str("# scheduling tier\n");
        self.render_metrics(&mut out, Some(Tier::Sched));
        {
            let spans = relock(&self.0.spans);
            let _ = writeln!(
                out,
                "# spans recorded={} dropped={}",
                spans.spans.len(),
                spans.dropped
            );
        }
        let events = relock(&self.0.events);
        let _ = writeln!(out, "# events (dropped {})", events.dropped);
        for ev in events.events.iter() {
            let _ = writeln!(
                out,
                "event ts={} kind={} name={} detail={}",
                ev.ts_secs,
                ev.kind.label(),
                ev.name,
                ev.detail.replace('\n', "\\n")
            );
        }
        out
    }

    /// Full JSON export: one map per tier, one object per metric, in
    /// name order.
    pub fn export_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, tier) in [Tier::Data, Tier::Sched].into_iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(out, "  \"{}\": {{", tier.label());
            let metrics = relock(&self.0.metrics);
            let mut first = true;
            for (name, slot) in metrics.iter().filter(|(_, s)| s.tier() == tier) {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "\n    \"{}\": ", json_escape(name));
                match slot {
                    Slot::Counter(_, c) => {
                        let _ = write!(out, "{{\"kind\":\"counter\",\"value\":{}}}", c.get());
                    }
                    Slot::Gauge(_, g) => {
                        let _ = write!(
                            out,
                            "{{\"kind\":\"gauge\",\"value\":{},\"high\":{}}}",
                            g.get(),
                            g.high_watermark()
                        );
                    }
                    Slot::Histogram(_, h) => {
                        let bounds =
                            h.0.bounds
                                .iter()
                                .map(ToString::to_string)
                                .collect::<Vec<_>>()
                                .join(",");
                        let buckets = h
                            .bucket_counts()
                            .iter()
                            .map(ToString::to_string)
                            .collect::<Vec<_>>()
                            .join(",");
                        let quantiles = h.quantile_fields(|n, v| format!(",\"{n}\":{v:.2}"));
                        let _ = write!(
                            out,
                            "{{\"kind\":\"histogram\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{}{quantiles},\"bounds\":[{bounds}],\"buckets\":[{buckets}]}}",
                            h.count(),
                            h.sum(),
                            h.min(),
                            h.max()
                        );
                    }
                }
            }
            if !first {
                out.push_str("\n  ");
            }
            out.push('}');
        }
        {
            let spans = relock(&self.0.spans);
            let _ = write!(
                out,
                ",\n  \"spans\": {{\"recorded\":{},\"dropped\":{}}}",
                spans.spans.len(),
                spans.dropped
            );
        }
        let events = relock(&self.0.events);
        let _ = write!(out, ",\n  \"events_dropped\": {}", events.dropped);
        out.push_str(",\n  \"events\": [");
        for (i, ev) in events.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"ts_secs\":{},\"kind\":\"{}\",\"name\":\"{}\",\"detail\":\"{}\"}}",
                ev.ts_secs,
                ev.kind.label(),
                json_escape(&ev.name),
                json_escape(&ev.detail)
            );
        }
        if !events.events.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Prometheus text exposition format: `# HELP`/`# TYPE` per metric,
    /// the determinism tier as a label, histograms as cumulative
    /// `_bucket{le=…}` series plus `_sum`/`_count`, and a gauge's high
    /// watermark as a companion `_high` gauge. Metric names have every
    /// non-alphanumeric character folded to `_`.
    pub fn export_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, slot) in relock(&self.0.metrics).iter() {
            let prom = prom_name(name);
            let tier = slot.tier().label();
            match slot {
                Slot::Counter(_, c) => {
                    let _ = writeln!(out, "# HELP {prom} {name}");
                    let _ = writeln!(out, "# TYPE {prom} counter");
                    let _ = writeln!(out, "{prom}{{tier=\"{tier}\"}} {}", c.get());
                }
                Slot::Gauge(_, g) => {
                    let _ = writeln!(out, "# HELP {prom} {name}");
                    let _ = writeln!(out, "# TYPE {prom} gauge");
                    let _ = writeln!(out, "{prom}{{tier=\"{tier}\"}} {}", g.get());
                    let _ = writeln!(out, "# HELP {prom}_high {name} high watermark");
                    let _ = writeln!(out, "# TYPE {prom}_high gauge");
                    let _ = writeln!(out, "{prom}_high{{tier=\"{tier}\"}} {}", g.high_watermark());
                }
                Slot::Histogram(_, h) => {
                    let _ = writeln!(out, "# HELP {prom} {name}");
                    let _ = writeln!(out, "# TYPE {prom} histogram");
                    let mut cum = 0u64;
                    for (bound, count) in h.0.bounds.iter().zip(h.bucket_counts()) {
                        cum += count;
                        let _ =
                            writeln!(out, "{prom}_bucket{{tier=\"{tier}\",le=\"{bound}\"}} {cum}");
                    }
                    let _ = writeln!(
                        out,
                        "{prom}_bucket{{tier=\"{tier}\",le=\"+Inf\"}} {}",
                        h.count()
                    );
                    let _ = writeln!(out, "{prom}_sum{{tier=\"{tier}\"}} {}", h.sum());
                    let _ = writeln!(out, "{prom}_count{{tier=\"{tier}\"}} {}", h.count());
                }
            }
        }
        {
            let spans = relock(&self.0.spans);
            let _ = writeln!(
                out,
                "# HELP flock_obs_spans_live live spans in the ring buffer"
            );
            let _ = writeln!(out, "# TYPE flock_obs_spans_live gauge");
            let _ = writeln!(
                out,
                "flock_obs_spans_live{{tier=\"scheduling\"}} {}",
                spans.spans.len()
            );
        }
        out
    }
}

/// Fold a dotted metric name into the Prometheus name charset.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Minimal JSON string escaper (quotes, backslashes, control characters).
/// Public because the exporter-correctness tests round-trip it through
/// the vendored parser.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_across_handles_and_clones() {
        let reg = Registry::new();
        let a = reg.counter("flock.test.hits", Tier::Data);
        let b = reg.clone().counter("flock.test.hits", Tier::Data);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(reg.counter_value("flock.test.hits"), Some(3));
    }

    #[test]
    fn kind_mismatch_yields_detached_handle() {
        let reg = Registry::new();
        let c = reg.counter("flock.test.x", Tier::Data);
        let g = reg.gauge("flock.test.x", Tier::Data);
        g.set(99);
        // The original counter is untouched and the registry still renders
        // the first registration only.
        assert_eq!(c.get(), 0);
        assert_eq!(reg.metric_count(), 1);
        assert!(reg.snapshot().contains("counter flock.test.x 0"));
    }

    #[test]
    fn gauge_tracks_high_watermark() {
        let g = Registry::new().gauge("flock.test.depth", Tier::Sched);
        g.set(3);
        g.set(9);
        g.set(1);
        assert_eq!(g.get(), 1);
        assert_eq!(g.high_watermark(), 9);
    }

    #[test]
    fn histogram_buckets_and_aggregates() {
        let h = Registry::new().histogram("flock.test.wait", Tier::Sched, &[10, 100]);
        for v in [1, 10, 11, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1022);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.bucket_counts(), vec![2, 1, 1]); // ≤10, ≤100, +inf
    }

    #[test]
    fn empty_histogram_reports_zero_min() {
        let h = Registry::new().histogram("flock.test.empty", Tier::Data, &SECONDS_BOUNDS);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Registry::new().histogram("flock.test.q", Tier::Sched, &[10, 100, 1000]);
        // 10 observations in (10, 100]: ranks spread linearly across the
        // bucket, so p50 sits mid-bucket.
        for _ in 0..10 {
            h.record(50);
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!((10.0..=100.0).contains(&p50), "p50={p50}");
        assert!((p50 - 55.0).abs() < 1e-9, "p50={p50}");
        // All mass below the first bound: interpolate from min.
        let h2 = Registry::new().histogram("flock.test.q2", Tier::Sched, &[10]);
        h2.record(4);
        h2.record(4);
        let p = h2.quantile(1.0).unwrap();
        assert!((4.0..=10.0).contains(&p));
        // Mass in the +inf bucket answers the max.
        let h3 = Registry::new().histogram("flock.test.q3", Tier::Sched, &[10]);
        h3.record(5000);
        assert_eq!(h3.quantile(0.99), Some(5000.0));
        // Out-of-range probabilities are a caller error, not a panic.
        assert_eq!(h3.quantile(-0.1), None);
        assert_eq!(h3.quantile(1.5), None);
        assert_eq!(h3.quantile(f64::NAN), None);
    }

    #[test]
    fn quantiles_are_monotone() {
        let h = Registry::new().histogram("flock.test.mono", Tier::Sched, &SECONDS_BOUNDS);
        for v in [0, 1, 3, 30, 30, 900, 4000, 100_000, 1_000_000] {
            h.record(v);
        }
        let mut prev = f64::MIN;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let v = h.quantile(q).unwrap();
            assert!(v >= prev, "quantile({q})={v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn snapshot_is_data_tier_only_and_name_ordered() {
        let reg = Registry::new();
        reg.counter("flock.b.data", Tier::Data).add(2);
        reg.counter("flock.a.data", Tier::Data).add(1);
        reg.counter("flock.c.sched", Tier::Sched).add(7);
        let snap = reg.snapshot();
        assert_eq!(snap, "counter flock.a.data 1\ncounter flock.b.data 2\n");
        let full = reg.export_text();
        assert!(full.contains("counter flock.c.sched 7"));
    }

    #[test]
    fn events_are_recorded_in_order_with_virtual_timestamps() {
        let reg = Registry::new();
        reg.phase_start(0, "discover");
        reg.event(42, "retry", "rate limited, waiting 900s");
        reg.phase_end(100, "discover");
        assert_eq!(reg.event_count(), 3);
        let text = reg.export_text();
        assert!(text.contains("event ts=0 kind=phase_start name=discover"));
        assert!(text.contains("event ts=42 kind=event name=retry"));
        assert!(text.contains("event ts=100 kind=phase_end name=discover"));
    }

    #[test]
    fn phase_table_tracks_extents() {
        let reg = Registry::new();
        reg.phase_start(5, "a");
        reg.phase_start(7, "b");
        reg.phase_end(9, "b");
        let phases = reg.phases();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].name, "a");
        assert_eq!(phases[0].end_secs, None);
        assert_eq!(phases[1].start_secs, 7);
        assert_eq!(phases[1].end_secs, Some(9));
    }

    #[test]
    fn event_log_is_a_ring_buffer_that_counts_drops() {
        let reg = Registry::with_capacities(3, 8);
        for i in 0..5 {
            reg.event(i, "tick", "");
        }
        assert_eq!(reg.event_count(), 3);
        assert_eq!(reg.events_dropped(), 2);
        assert_eq!(reg.counter_value("flock.obs.events.dropped"), Some(2));
        // The oldest events are the ones evicted.
        let text = reg.export_text();
        assert!(!text.contains("event ts=0 "));
        assert!(!text.contains("event ts=1 "));
        assert!(text.contains("event ts=2 "));
        assert!(text.contains("event ts=4 "));
        assert!(text.contains("# events (dropped 2)"));
        let json = reg.export_json();
        assert!(json.contains("\"events_dropped\": 2"));
    }

    #[test]
    fn span_store_is_a_ring_buffer_that_counts_drops() {
        let reg = Registry::with_capacities(8, 2);
        let a = reg.span_begin("phase", "a", None, None, 0);
        let b = reg.span_begin("phase", "b", None, None, 1);
        let c = reg.span_begin("phase", "c", None, None, 2);
        assert_eq!(reg.span_count(), 2);
        assert_eq!(reg.spans_dropped(), 1);
        assert_eq!(reg.counter_value("flock.obs.spans.dropped"), Some(1));
        // Ending an evicted span is a no-op, not a crash.
        reg.span_end(a, 10, SpanOutcome::Granted);
        reg.span_end(b, 10, SpanOutcome::Granted);
        reg.span_end(c, 12, SpanOutcome::Granted);
        let spans = reg.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].id, b);
        assert_eq!(spans[1].end_secs, 12);
    }

    #[test]
    fn spans_link_parents_and_accumulate_waits() {
        let reg = Registry::new();
        let root = reg.span_begin("expand.followees", "following:42", None, Some(1), 100);
        let att = reg.span_attempt(
            root,
            "expand.followees",
            "following:42",
            Some(1),
            Some("follows"),
            SpanOutcome::RateLimited { storm: false },
            100,
            100,
        );
        reg.attribute_wait(root, "expand.followees", WaitCause::TokenBucket, 60);
        reg.attribute_wait(root, "expand.followees", WaitCause::TokenBucket, 0); // no-op
        reg.span_end(root, 160, SpanOutcome::Granted);
        let spans = reg.spans();
        assert_eq!(spans.len(), 2);
        let root_span = spans.iter().find(|s| s.id == root).unwrap();
        let att_span = spans.iter().find(|s| s.id == att).unwrap();
        assert_eq!(att_span.parent, Some(root));
        assert_eq!(att_span.family, Some("follows"));
        assert_eq!(root_span.family, Some("follows")); // inherited
        assert_eq!(root_span.wait_total_secs(), 60);
        assert_eq!(root_span.duration_secs(), 60);
        assert_eq!(root_span.outcome, Some(SpanOutcome::Granted));
        let ledger = reg.waits();
        assert_eq!(
            ledger["expand.followees"][WaitCause::TokenBucket.index()],
            60
        );
    }

    #[test]
    fn json_export_escapes_and_parses_shape() {
        let reg = Registry::new();
        reg.counter("flock.test.count", Tier::Data).inc();
        reg.gauge("flock.test.depth", Tier::Sched).set(4);
        reg.histogram("flock.test.wait", Tier::Sched, &[5])
            .record(7);
        reg.event(3, "note", "line1\nline2 \"quoted\"");
        let json = reg.export_json();
        assert!(json.contains("\"flock.test.count\": {\"kind\":\"counter\",\"value\":1}"));
        assert!(json.contains("\"high\":4"));
        assert!(json.contains("\"bounds\":[5],\"buckets\":[0,1]"));
        assert!(json.contains("line1\\nline2 \\\"quoted\\\""));
        // One observation at 7 (the +inf bucket): quantiles answer the max.
        assert!(json.contains("\"p50\":7.00"), "{json}");
    }

    #[test]
    fn text_export_carries_quantiles() {
        let reg = Registry::new();
        let h = reg.histogram("flock.test.wait", Tier::Sched, &[10, 100]);
        for v in [1, 20, 20, 900] {
            h.record(v);
        }
        let text = reg.export_text();
        assert!(text.contains("p50="), "{text}");
        assert!(text.contains("p95="), "{text}");
        assert!(text.contains("p99="), "{text}");
    }

    #[test]
    fn prometheus_export_is_well_formed() {
        let reg = Registry::new();
        reg.counter("flock.apis.search.granted", Tier::Data).add(3);
        reg.gauge("flock.crawler.worker_pool.queue_depth", Tier::Sched)
            .set(5);
        let h = reg.histogram("flock.crawler.retry.wait_secs", Tier::Sched, &[10, 100]);
        h.record(7);
        h.record(5000);
        let prom = reg.export_prometheus();
        assert!(prom.contains("# TYPE flock_apis_search_granted counter"));
        assert!(prom.contains("flock_apis_search_granted{tier=\"deterministic\"} 3"));
        assert!(prom.contains("flock_crawler_worker_pool_queue_depth{tier=\"scheduling\"} 5"));
        assert!(prom.contains("flock_crawler_worker_pool_queue_depth_high{tier=\"scheduling\"} 5"));
        // Cumulative buckets: ≤10 has 1, ≤100 still 1, +Inf has 2.
        assert!(
            prom.contains("flock_crawler_retry_wait_secs_bucket{tier=\"scheduling\",le=\"10\"} 1")
        );
        assert!(
            prom.contains("flock_crawler_retry_wait_secs_bucket{tier=\"scheduling\",le=\"100\"} 1")
        );
        assert!(prom
            .contains("flock_crawler_retry_wait_secs_bucket{tier=\"scheduling\",le=\"+Inf\"} 2"));
        assert!(prom.contains("flock_crawler_retry_wait_secs_sum{tier=\"scheduling\"} 5007"));
        assert!(prom.contains("flock_crawler_retry_wait_secs_count{tier=\"scheduling\"} 2"));
        // Every HELP line precedes its TYPE line.
        let help_idx = prom.find("# HELP flock_apis_search_granted").unwrap();
        let type_idx = prom.find("# TYPE flock_apis_search_granted").unwrap();
        assert!(help_idx < type_idx);
    }

    #[test]
    fn json_escape_handles_control_chars() {
        assert_eq!(json_escape("a\u{1}b"), "a\\u0001b");
        assert_eq!(json_escape("t\\q\""), "t\\\\q\\\"");
    }

    #[test]
    fn concurrent_increments_from_many_threads_sum_exactly() {
        let reg = Registry::new();
        let c = reg.counter("flock.test.par", Tier::Data);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }
}
