//! Structured tracing and metrics for the measure path — the harness's
//! own "experimental setup disclosure".
//!
//! The paper's thesis is that unreported properties of a measurement
//! procedure are where wrong conclusions hide. By PR 3 this harness had
//! grown a process-wide measurement cache, work-stealing sweeps and a
//! parallel experiment driver whose behaviour — which requests hit the
//! cache, which worker simulated what, where the wall time went — was
//! itself unreported. This module makes that procedure first-class:
//!
//! - **Spans** for the compile → link → load → run → stat phases of every
//!   measurement (emitted by [`crate::harness::Harness`]), for each
//!   measurement request (emitted by [`crate::Orchestrator`], carrying
//!   the worker id, the [`crate::MeasureKey`] digest and the cache
//!   hit/miss outcome), and for each experiment block (emitted by the
//!   `repro` driver).
//! - **Cache events**: one record per cache hit, miss and eviction, so a
//!   trace accounts for every count in
//!   [`crate::orchestrator::OrchestratorStats`] exactly.
//! - **A metrics registry** ([`MetricsRegistry`]): named monotonic
//!   counters. The orchestrator's instrumentation is built on it (its
//!   `OrchestratorStats` is a typed snapshot of registry counters), and
//!   process-wide components (the `repro` driver) register their own
//!   counters in the [`metrics`] global.
//! - **Profiles**: a traced run can attach the simulator's exact
//!   per-function cycle attribution ([`biaslab_uarch::profile::Profile`])
//!   to its run span (see [`profiles_enabled`]).
//! - **JSONL export** ([`export`]) under `results/traces/` with a stable,
//!   versioned schema ([`TRACE_VERSION`], [`schema`]) that
//!   `tests/telemetry.rs` pins as a golden snapshot. `biaslab trace
//!   <file>` renders a report from it (see [`crate::trace_report`]).
//!
//! # Zero cost when off
//!
//! Telemetry is **off by default** and gated on one relaxed atomic load
//! ([`enabled`]). Every instrumented call site checks it first and takes
//! the pre-telemetry code path when it is false: no span structs are
//! built, no clocks read, no buffers touched. Nothing is emitted from
//! inside the simulator's run loop — instrumentation sits at the
//! harness/orchestrator layer, once per measurement, never per
//! instruction — so the PR-2 invariant stands: with telemetry off the
//! hot loop compiles to the existing code paths, and with it on every
//! `Counters` value is still bit-identical (enforced by
//! `tests/telemetry.rs`).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;

use crate::jsonl::{self, Fields};

/// Version stamp written on every trace line. Bump it whenever a field is
/// added, removed or reinterpreted; readers skip lines from foreign
/// versions. (v2: added the `fault` record kind for injected-fault and
/// recovery events from [`crate::faults`].)
pub const TRACE_VERSION: u64 = 2;

/// Field names of a `trace_start` line, in write order.
pub const START_FIELDS: &[&str] = &["v", "ev", "label", "clock_us"];
/// Field names of a `span` line, in write order.
pub const SPAN_FIELDS: &[&str] = &[
    "v", "ev", "id", "parent", "name", "scope", "bench", "worker", "key", "outcome", "start_us",
    "dur_us",
];
/// Field names of a `cache` line, in write order.
pub const CACHE_FIELDS: &[&str] = &[
    "v", "ev", "outcome", "key", "bench", "scope", "worker", "t_us",
];
/// Field names of a `profile` line, in write order.
pub const PROFILE_FIELDS: &[&str] = &["v", "ev", "span", "bench", "scope", "entries"];
/// Field names of a `fault` line, in write order.
pub const FAULT_FIELDS: &[&str] = &["v", "ev", "kind", "site", "scope", "worker", "t_us"];
/// Field names of a `metrics` line, in write order.
pub const METRICS_FIELDS: &[&str] = &["v", "ev", "counters"];

/// Span names the writer emits (phases plus the grouping spans).
pub const SPAN_NAMES: &[&str] = &[
    "measure",
    "compile",
    "link",
    "load",
    "run",
    "stat",
    "sweep",
    "experiment",
];

// ---------------------------------------------------------------------------
// Events

/// How a measurement request interacted with the orchestrator cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the cache (including waiting on an in-flight leader).
    Hit,
    /// Not in the cache; a simulation was (or is being) run.
    Miss,
    /// A cached record was dropped by the capacity policy.
    Evict,
}

impl CacheOutcome {
    /// The stable name written to traces.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Evict => "evict",
        }
    }

    fn parse(s: &str) -> Option<CacheOutcome> {
        match s {
            "hit" => Some(CacheOutcome::Hit),
            "miss" => Some(CacheOutcome::Miss),
            "evict" => Some(CacheOutcome::Evict),
            _ => None,
        }
    }
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Unique id within the trace (1-based; ids are allocation-ordered).
    pub id: u64,
    /// Enclosing span id, `0` for a root span.
    pub parent: u64,
    /// Span name (one of [`SPAN_NAMES`]).
    pub name: &'static str,
    /// Experiment scope (e.g. `"fig3"`), empty outside an experiment.
    pub scope: String,
    /// Benchmark or experiment label the span is about.
    pub bench: String,
    /// Worker id (`0` = the requesting thread itself).
    pub worker: u64,
    /// [`crate::MeasureKey`] digest, `0` when not a measurement request.
    pub key: u64,
    /// Cache outcome for measurement-request spans.
    pub outcome: Option<CacheOutcome>,
    /// Start, microseconds since the trace clock origin.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// One cache interaction (hit, miss or eviction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEvent {
    /// What happened.
    pub outcome: CacheOutcome,
    /// [`crate::MeasureKey`] digest of the record.
    pub key: u64,
    /// Benchmark the record measures.
    pub bench: String,
    /// Experiment scope at the time of the event.
    pub scope: String,
    /// Worker id observing the event.
    pub worker: u64,
    /// Event time, microseconds since the trace clock origin.
    pub t_us: u64,
}

/// A per-function cycle attribution attached to a run span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileEvent {
    /// The `run` span this profile belongs to.
    pub span: u64,
    /// Benchmark profiled.
    pub bench: String,
    /// Experiment scope at the time of the run.
    pub scope: String,
    /// `(function, cycles, instructions)`, hottest first.
    pub entries: Vec<(String, u64, u64)>,
}

/// Whether a `fault` record marks an injection or a recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A failpoint fired (see [`crate::faults::fire`]); `site` names the
    /// failpoint site.
    Injected,
    /// A recovery mechanism handled a fault (see
    /// [`crate::faults::recovered`]); `site` names the mechanism.
    Recovered,
}

impl FaultKind {
    /// The stable name written to traces.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Injected => "injected",
            FaultKind::Recovered => "recovered",
        }
    }

    fn parse(s: &str) -> Option<FaultKind> {
        match s {
            "injected" => Some(FaultKind::Injected),
            "recovered" => Some(FaultKind::Recovered),
            _ => None,
        }
    }
}

/// One fault-layer event: an injected fault or a recovery from one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Injection or recovery.
    pub kind: FaultKind,
    /// Failpoint site (injections) or recovery mechanism (recoveries).
    pub site: String,
    /// Experiment scope at the time of the event.
    pub scope: String,
    /// Worker id observing the event.
    pub worker: u64,
    /// Event time, microseconds since the trace clock origin.
    pub t_us: u64,
}

/// Any buffered trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A completed span.
    Span(SpanEvent),
    /// A cache interaction.
    Cache(CacheEvent),
    /// An attached profile.
    Profile(ProfileEvent),
    /// An injected fault or a recovery.
    Fault(FaultEvent),
}

// ---------------------------------------------------------------------------
// Global collector state

struct Sink {
    origin: Instant,
    events: Mutex<Vec<TraceEvent>>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static PROFILES: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn sink() -> &'static Sink {
    static SINK: OnceLock<Sink> = OnceLock::new();
    SINK.get_or_init(|| Sink {
        origin: Instant::now(),
        events: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static WORKER: Cell<u64> = const { Cell::new(0) };
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    static SCOPE: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Whether tracing is on. One relaxed atomic load — every instrumented
/// call site checks this before doing any telemetry work at all.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns tracing on (events start buffering in the process-wide sink).
pub fn enable() {
    let _ = sink(); // pin the clock origin before the first event
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns tracing off. Buffered events stay buffered until [`drain`]ed or
/// [`export`]ed.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
    PROFILES.store(false, Ordering::Relaxed);
}

/// Whether traced runs should also capture per-function cycle
/// attribution. Off by default even when tracing: profiled runs pay the
/// attribution bookkeeping (counters stay bit-identical either way).
#[inline]
#[must_use]
pub fn profiles_enabled() -> bool {
    PROFILES.load(Ordering::Relaxed)
}

/// Turns on profile capture for traced runs (implies nothing unless
/// tracing is enabled too).
pub fn enable_profiles() {
    PROFILES.store(true, Ordering::Relaxed);
}

/// Tags this thread's subsequent events with a worker id (`0` = untagged;
/// sweep and driver workers use 1-based ids).
pub fn set_worker(id: u64) {
    WORKER.with(|w| w.set(id));
}

/// This thread's worker id.
#[must_use]
pub fn worker() -> u64 {
    WORKER.with(Cell::get)
}

/// Tags this thread's subsequent events with an experiment scope (the
/// `repro` driver sets the experiment id around each block).
pub fn set_scope(scope: &str) {
    SCOPE.with(|s| {
        let mut s = s.borrow_mut();
        s.clear();
        s.push_str(scope);
    });
}

/// Clears this thread's experiment scope.
pub fn clear_scope() {
    SCOPE.with(|s| s.borrow_mut().clear());
}

/// Returns this thread's telemetry state (worker id, innermost open span,
/// experiment scope) to a fresh thread's. A thread that caught a panic
/// calls this, so a span the panic left open parents nothing later.
pub(crate) fn reset_thread() {
    WORKER.with(|w| w.set(0));
    CURRENT.with(|c| c.set(0));
    clear_scope();
}

/// This thread's experiment scope (empty when unset).
#[must_use]
pub fn scope() -> String {
    SCOPE.with(|s| s.borrow().clone())
}

/// The innermost open span id on this thread (`0` when none). The
/// harness uses this to attach phase spans under the orchestrator's
/// measurement-request span instead of opening a duplicate parent.
#[must_use]
pub fn current_span() -> u64 {
    CURRENT.with(Cell::get)
}

/// Microseconds since the trace clock origin.
#[must_use]
pub fn now_us() -> u64 {
    sink().origin.elapsed().as_micros() as u64
}

// ---------------------------------------------------------------------------
// Emission

/// An open span. Callers construct one only when [`enabled`] (the
/// constructor itself is cheap but not free: it reads the clock and a
/// thread-local). Spans close explicitly — [`Span::close`] emits the
/// event — so a span can never record a partially-initialized duration.
#[derive(Debug)]
pub struct Span {
    id: u64,
    prev: u64,
    name: &'static str,
    bench: String,
    key: u64,
    outcome: Option<CacheOutcome>,
    start_us: u64,
}

impl Span {
    /// Opens a span and makes it this thread's current parent.
    #[must_use]
    pub fn open(name: &'static str, bench: &str) -> Span {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let prev = CURRENT.with(|c| c.replace(id));
        Span {
            id,
            prev,
            name,
            bench: bench.to_owned(),
            key: 0,
            outcome: None,
            start_us: now_us(),
        }
    }

    /// Attaches a [`crate::MeasureKey`] digest.
    #[must_use]
    pub fn with_key(mut self, key: u64) -> Span {
        self.key = key;
        self
    }

    /// Attaches a cache outcome.
    #[must_use]
    pub fn with_outcome(mut self, outcome: CacheOutcome) -> Span {
        self.outcome = Some(outcome);
        self
    }

    /// The span's id (for attaching profiles).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Closes the span: restores the previous parent and emits the event.
    pub fn close(self) {
        CURRENT.with(|c| c.set(self.prev));
        let end = now_us();
        let event = SpanEvent {
            id: self.id,
            parent: self.prev,
            name: self.name,
            scope: scope(),
            bench: self.bench,
            worker: worker(),
            key: self.key,
            outcome: self.outcome,
            start_us: self.start_us,
            dur_us: end.saturating_sub(self.start_us),
        };
        sink().events.lock().push(TraceEvent::Span(event));
    }
}

/// Runs `f` inside a span named `name` when tracing is on, passing it the
/// span id. With tracing off `f` runs bare, with id `0`: one relaxed load,
/// and no clock read, allocation or thread-local write.
#[inline]
pub(crate) fn in_span<T>(name: &'static str, bench: &str, f: impl FnOnce(u64) -> T) -> T {
    if !enabled() {
        return f(0);
    }
    let span = Span::open(name, bench);
    let out = f(span.id());
    span.close();
    out
}

/// Records one cache interaction. Callers check [`enabled`] first.
pub fn emit_cache(outcome: CacheOutcome, key: u64, bench: &str) {
    let event = CacheEvent {
        outcome,
        key,
        bench: bench.to_owned(),
        scope: scope(),
        worker: worker(),
        t_us: now_us(),
    };
    sink().events.lock().push(TraceEvent::Cache(event));
}

/// Attaches a per-function profile to a span. Callers check [`enabled`]
/// (and gate the profiled run itself on [`profiles_enabled`]).
pub fn emit_profile(span: u64, bench: &str, profile: &biaslab_uarch::profile::Profile) {
    let event = ProfileEvent {
        span,
        bench: bench.to_owned(),
        scope: scope(),
        entries: profile
            .entries
            .iter()
            .map(|e| (e.name.clone(), e.cycles, e.instructions))
            .collect(),
    };
    sink().events.lock().push(TraceEvent::Profile(event));
}

/// Records one fault-layer event. Callers check [`enabled`] first (the
/// fault layer does; see [`crate::faults::fire`]).
pub fn emit_fault(kind: FaultKind, site: &str) {
    let event = FaultEvent {
        kind,
        site: site.to_owned(),
        scope: scope(),
        worker: worker(),
        t_us: now_us(),
    };
    sink().events.lock().push(TraceEvent::Fault(event));
}

/// Takes every buffered event, leaving the buffer empty. Tests use this
/// directly; `repro --trace` goes through [`export`].
#[must_use]
pub fn drain() -> Vec<TraceEvent> {
    std::mem::take(&mut *sink().events.lock())
}

// ---------------------------------------------------------------------------
// Metrics registry

/// A named monotonic counter handle. Cloning shares the underlying
/// atomic, so hot paths keep a handle instead of re-looking-up by name.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `delta`.
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raises the counter to `value` if larger — a monotonic high-water
    /// mark, for quantities (like a cache's live-block population) where
    /// summing across runs would be meaningless.
    pub fn record_max(&self, value: u64) {
        self.0.fetch_max(value, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A registry of named monotonic counters.
///
/// [`crate::Orchestrator`] owns one (its `OrchestratorStats` is a typed
/// snapshot of it), and [`metrics`] is the process-wide instance other
/// components (the `repro` driver) register into. Snapshots are sorted
/// by name, so exported `metrics` records are deterministic.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Counter>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created at zero on first use. Callers on
    /// hot paths should hold the returned handle.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        let mut counters = self.counters.lock();
        if let Some(c) = counters.get(name) {
            return c.clone();
        }
        let c = Counter::default();
        counters.insert(name.to_owned(), c.clone());
        c
    }

    /// Every counter's `(name, value)`, sorted by name.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        self.counters
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }
}

/// The process-wide metrics registry (counters outside the
/// orchestrator: the `repro` driver's experiment/panic counts live
/// here). Exported traces end with a `metrics` record merging this with
/// whatever snapshot the exporter passes.
#[must_use]
pub fn metrics() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

// ---------------------------------------------------------------------------
// JSONL trace format

fn outcome_str(o: Option<CacheOutcome>) -> &'static str {
    o.map_or("", CacheOutcome::as_str)
}

impl TraceEvent {
    /// The event's JSONL line (no trailing newline). Every line carries
    /// every field of its kind — absent values write as `0` / `""` — so
    /// the schema is fixed per kind, which is what the golden snapshot
    /// test pins.
    #[must_use]
    pub fn to_line(&self) -> String {
        match self {
            TraceEvent::Span(s) => format!(
                concat!(
                    "{{\"v\":{},\"ev\":\"span\",\"id\":{},\"parent\":{},\"name\":\"{}\",",
                    "\"scope\":\"{}\",\"bench\":\"{}\",\"worker\":{},\"key\":{},",
                    "\"outcome\":\"{}\",\"start_us\":{},\"dur_us\":{}}}"
                ),
                TRACE_VERSION,
                s.id,
                s.parent,
                s.name,
                s.scope,
                s.bench,
                s.worker,
                s.key,
                outcome_str(s.outcome),
                s.start_us,
                s.dur_us,
            ),
            TraceEvent::Cache(c) => format!(
                concat!(
                    "{{\"v\":{},\"ev\":\"cache\",\"outcome\":\"{}\",\"key\":{},",
                    "\"bench\":\"{}\",\"scope\":\"{}\",\"worker\":{},\"t_us\":{}}}"
                ),
                TRACE_VERSION,
                c.outcome.as_str(),
                c.key,
                c.bench,
                c.scope,
                c.worker,
                c.t_us,
            ),
            TraceEvent::Profile(p) => {
                let entries = p
                    .entries
                    .iter()
                    .map(|(name, cycles, insts)| format!("[\"{name}\",{cycles},{insts}]"))
                    .collect::<Vec<_>>()
                    .join(",");
                format!(
                    concat!(
                        "{{\"v\":{},\"ev\":\"profile\",\"span\":{},\"bench\":\"{}\",",
                        "\"scope\":\"{}\",\"entries\":[{}]}}"
                    ),
                    TRACE_VERSION, p.span, p.bench, p.scope, entries,
                )
            }
            TraceEvent::Fault(f) => format!(
                concat!(
                    "{{\"v\":{},\"ev\":\"fault\",\"kind\":\"{}\",\"site\":\"{}\",",
                    "\"scope\":\"{}\",\"worker\":{},\"t_us\":{}}}"
                ),
                TRACE_VERSION,
                f.kind.as_str(),
                f.site,
                f.scope,
                f.worker,
                f.t_us,
            ),
        }
    }
}

/// A parsed trace line.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceLine {
    /// The header record.
    Start {
        /// Free-form session label (e.g. `"repro all --effort quick"`).
        label: String,
        /// Trace duration at export time, microseconds.
        clock_us: u64,
    },
    /// An event record.
    Event(TraceEvent),
    /// The trailing metrics snapshot.
    Metrics(Vec<(String, u64)>),
}

impl TraceLine {
    /// The line's JSONL text (no trailing newline); [`parse_line`]
    /// inverts it.
    #[must_use]
    pub fn to_line(&self) -> String {
        match self {
            TraceLine::Start { label, clock_us } => format!(
                "{{\"v\":{TRACE_VERSION},\"ev\":\"trace_start\",\"label\":\"{label}\",\"clock_us\":{clock_us}}}"
            ),
            TraceLine::Event(e) => e.to_line(),
            TraceLine::Metrics(counters) => {
                let counters = counters
                    .iter()
                    .map(|(k, v)| format!("\"{k}\":{v}"))
                    .collect::<Vec<_>>()
                    .join(",");
                format!("{{\"v\":{TRACE_VERSION},\"ev\":\"metrics\",\"counters\":{{{counters}}}}}")
            }
        }
    }
}

/// Parses one trace line. Returns `None` for blank lines, foreign
/// versions and anything else this writer did not produce.
#[must_use]
pub fn parse_line(line: &str) -> Option<TraceLine> {
    let f = Fields::scan(line)?;
    if f.u64("v")? != TRACE_VERSION {
        return None;
    }
    match f.str("ev")? {
        "trace_start" => Some(TraceLine::Start {
            label: f.str("label")?.to_owned(),
            clock_us: f.u64("clock_us")?,
        }),
        "span" => {
            let name = *SPAN_NAMES.iter().find(|n| Some(**n) == f.str("name"))?;
            Some(TraceLine::Event(TraceEvent::Span(SpanEvent {
                id: f.u64("id")?,
                parent: f.u64("parent")?,
                name,
                scope: f.str("scope")?.to_owned(),
                bench: f.str("bench")?.to_owned(),
                worker: f.u64("worker")?,
                key: f.u64("key")?,
                outcome: match f.str("outcome")? {
                    "" => None,
                    s => Some(CacheOutcome::parse(s)?),
                },
                start_us: f.u64("start_us")?,
                dur_us: f.u64("dur_us")?,
            })))
        }
        "cache" => Some(TraceLine::Event(TraceEvent::Cache(CacheEvent {
            outcome: CacheOutcome::parse(f.str("outcome")?)?,
            key: f.u64("key")?,
            bench: f.str("bench")?.to_owned(),
            scope: f.str("scope")?.to_owned(),
            worker: f.u64("worker")?,
            t_us: f.u64("t_us")?,
        }))),
        "profile" => {
            let inner = f.array("entries")?;
            let mut entries = Vec::new();
            if !inner.is_empty() {
                for part in inner.split("],[") {
                    let part = part.trim_start_matches('[').trim_end_matches(']');
                    let mut bits = part.splitn(3, ',');
                    let name = bits.next()?.strip_prefix('"')?.strip_suffix('"')?;
                    let cycles = bits.next()?.parse().ok()?;
                    let insts = bits.next()?.parse().ok()?;
                    entries.push((name.to_owned(), cycles, insts));
                }
            }
            Some(TraceLine::Event(TraceEvent::Profile(ProfileEvent {
                span: f.u64("span")?,
                bench: f.str("bench")?.to_owned(),
                scope: f.str("scope")?.to_owned(),
                entries,
            })))
        }
        "fault" => Some(TraceLine::Event(TraceEvent::Fault(FaultEvent {
            kind: FaultKind::parse(f.str("kind")?)?,
            site: f.str("site")?.to_owned(),
            scope: f.str("scope")?.to_owned(),
            worker: f.u64("worker")?,
            t_us: f.u64("t_us")?,
        }))),
        "metrics" => {
            let counters = f
                .object("counters")?
                .pairs()
                .map(|(name, value)| Some((name.to_owned(), value.parse().ok()?)))
                .collect::<Option<_>>()?;
            Some(TraceLine::Metrics(counters))
        }
        _ => None,
    }
}

/// Checks that a line is schema-valid: parseable, and carrying exactly
/// the fields its kind declares (in declaration order).
///
/// # Errors
///
/// Returns a description of the first deviation.
pub fn validate_line(line: &str) -> Result<(), String> {
    let (Some(fields), Some(parsed)) = (Fields::scan(line), parse_line(line)) else {
        return Err(format!("unparsable line: {line}"));
    };
    let expected: &[&str] = match parsed {
        TraceLine::Start { .. } => START_FIELDS,
        TraceLine::Event(TraceEvent::Span(_)) => SPAN_FIELDS,
        TraceLine::Event(TraceEvent::Cache(_)) => CACHE_FIELDS,
        TraceLine::Event(TraceEvent::Profile(_)) => PROFILE_FIELDS,
        TraceLine::Event(TraceEvent::Fault(_)) => FAULT_FIELDS,
        TraceLine::Metrics(_) => METRICS_FIELDS,
    };
    if !fields.keys_are(expected) {
        return Err(format!("fields do not match schema {expected:?}: {line}"));
    }
    Ok(())
}

/// The trace schema as a stable, human-readable description — the golden
/// snapshot `tests/golden/trace_schema.txt` pins exactly this string, so
/// any field rename/add/remove fails the snapshot until
/// [`TRACE_VERSION`] is bumped and the golden re-blessed.
#[must_use]
pub fn schema() -> String {
    let mut out = format!("TRACE_VERSION={TRACE_VERSION}\n");
    for (kind, fields) in [
        ("trace_start", START_FIELDS),
        ("span", SPAN_FIELDS),
        ("cache", CACHE_FIELDS),
        ("profile", PROFILE_FIELDS),
        ("fault", FAULT_FIELDS),
        ("metrics", METRICS_FIELDS),
    ] {
        out.push_str(kind);
        out.push(':');
        for f in fields {
            out.push(' ');
            out.push_str(f);
        }
        out.push('\n');
    }
    out.push_str("span.name:");
    for n in SPAN_NAMES {
        out.push(' ');
        out.push_str(n);
    }
    out.push('\n');
    out.push_str("cache.outcome: hit miss evict\n");
    out.push_str("fault.kind: injected recovered\n");
    out
}

/// Drains the buffered events and atomically (`jsonl::write_atomic`)
/// writes the trace file: a `trace_start` header, every event, and a
/// `metrics` record merging the [`metrics`] global with `extra_metrics`
/// (the orchestrator's snapshot). Returns the number of event lines.
///
/// # Errors
///
/// Propagates I/O errors from writing or renaming.
pub fn export(path: &Path, label: &str, extra_metrics: &[(String, u64)]) -> std::io::Result<usize> {
    let events = drain();
    jsonl::write_atomic(path, |f| {
        let start = TraceLine::Start {
            label: label.to_owned(),
            clock_us: now_us(),
        };
        writeln!(f, "{}", start.to_line())?;
        for e in &events {
            writeln!(f, "{}", e.to_line())?;
        }
        let mut merged: BTreeMap<String, u64> = metrics().snapshot().into_iter().collect();
        merged.extend(extra_metrics.iter().cloned());
        writeln!(
            f,
            "{}",
            TraceLine::Metrics(merged.into_iter().collect()).to_line()
        )
    })?;
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use proptest::sample::select;

    use super::*;

    #[test]
    fn registry_counters_accumulate_and_snapshot_sorted() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("z.late");
        let b = reg.counter("a.early");
        a.add(3);
        b.add(1);
        reg.counter("z.late").add(4); // same underlying counter
        assert_eq!(
            reg.snapshot(),
            vec![("a.early".to_owned(), 1), ("z.late".to_owned(), 7)]
        );
    }

    #[test]
    fn span_nesting_restores_parent() {
        // Pure thread-local bookkeeping: no need to enable the collector.
        let outer = Span::open("measure", "b");
        let outer_id = outer.id();
        assert_eq!(current_span(), outer_id);
        let inner = Span::open("run", "b");
        assert_eq!(current_span(), inner.id());
        inner.close();
        assert_eq!(current_span(), outer_id);
        outer.close();
        assert_eq!(current_span(), 0);
        let _ = drain();
    }

    #[test]
    fn lines_roundtrip_by_hand() {
        let span = TraceEvent::Span(SpanEvent {
            id: 7,
            parent: 2,
            name: "run",
            scope: "fig3".into(),
            bench: "perlbench".into(),
            worker: 3,
            key: 0xdead,
            outcome: Some(CacheOutcome::Miss),
            start_us: 10,
            dur_us: 99,
        });
        assert_eq!(
            parse_line(&span.to_line()),
            Some(TraceLine::Event(span.clone()))
        );
        validate_line(&span.to_line()).expect("schema-valid");

        let profile = TraceEvent::Profile(ProfileEvent {
            span: 7,
            bench: "hmmer".into(),
            scope: String::new(),
            entries: vec![("main".into(), 100, 10), ("kernel".into(), 50, 5)],
        });
        assert_eq!(
            parse_line(&profile.to_line()),
            Some(TraceLine::Event(profile.clone()))
        );
        validate_line(&profile.to_line()).expect("schema-valid");

        let fault = TraceEvent::Fault(FaultEvent {
            kind: FaultKind::Injected,
            site: "save.io".into(),
            scope: "fig3".into(),
            worker: 2,
            t_us: 17,
        });
        assert_eq!(
            parse_line(&fault.to_line()),
            Some(TraceLine::Event(fault.clone()))
        );
        validate_line(&fault.to_line()).expect("schema-valid");
    }

    #[test]
    fn foreign_lines_do_not_parse() {
        assert_eq!(parse_line(""), None);
        assert_eq!(parse_line("not json"), None);
        assert_eq!(parse_line("{\"v\":99,\"ev\":\"span\"}"), None);
        assert_eq!(parse_line("{\"v\":1,\"ev\":\"mystery\"}"), None);
        assert!(validate_line("{\"v\":1,\"ev\":\"mystery\"}").is_err());
        // A duplicate key makes a line foreign, whichever copy a reader
        // would have picked.
        let cache = TraceEvent::Cache(CacheEvent {
            outcome: CacheOutcome::Hit,
            key: 7,
            bench: "mcf".into(),
            scope: "fig1".into(),
            worker: 1,
            t_us: 5,
        })
        .to_line();
        assert!(parse_line(&cache).is_some());
        let duplicated = cache.replace("\"worker\":1", "\"key\":8,\"worker\":1");
        assert_eq!(parse_line(&duplicated), None, "{duplicated}");
        assert!(validate_line(&duplicated).is_err());
    }

    #[test]
    fn schema_lists_every_kind() {
        let s = schema();
        for kind in [
            "trace_start:",
            "span:",
            "cache:",
            "profile:",
            "fault:",
            "metrics:",
        ] {
            assert!(s.contains(kind), "schema missing {kind}");
        }
        assert!(s.starts_with(&format!("TRACE_VERSION={TRACE_VERSION}\n")));
    }

    proptest! {
        #[test]
        fn span_lines_roundtrip(
            id in 1u64..1_000_000,
            parent in 0u64..1_000_000,
            name in select(SPAN_NAMES.to_vec()),
            scope in "[a-z0-9-]{0,8}",
            bench in "[a-z0-9_]{1,10}",
            worker in 0u64..64,
            key in 0u64..=u64::MAX,
            outcome in select(vec![
                None,
                Some(CacheOutcome::Hit),
                Some(CacheOutcome::Miss),
                Some(CacheOutcome::Evict),
            ]),
            start in 0u64..1_000_000_000,
            dur in 0u64..1_000_000_000,
        ) {
            let e = TraceEvent::Span(SpanEvent {
                id, parent, name, scope, bench, worker, key, outcome,
                start_us: start, dur_us: dur,
            });
            prop_assert_eq!(parse_line(&e.to_line()), Some(TraceLine::Event(e.clone())));
            prop_assert!(validate_line(&e.to_line()).is_ok());
        }

        #[test]
        fn cache_lines_roundtrip(
            outcome in select(vec![CacheOutcome::Hit, CacheOutcome::Miss, CacheOutcome::Evict]),
            key in 0u64..=u64::MAX,
            bench in "[a-z0-9_]{1,10}",
            scope in "[a-z0-9-]{0,8}",
            worker in 0u64..64,
            t in 0u64..1_000_000_000,
        ) {
            let e = TraceEvent::Cache(CacheEvent {
                outcome, key, bench, scope, worker, t_us: t,
            });
            prop_assert_eq!(parse_line(&e.to_line()), Some(TraceLine::Event(e.clone())));
            prop_assert!(validate_line(&e.to_line()).is_ok());
        }

        #[test]
        fn fault_lines_roundtrip(
            kind in select(vec![FaultKind::Injected, FaultKind::Recovered]),
            site in "[a-z][a-z.]{0,14}",
            scope in "[a-z0-9-]{0,8}",
            worker in 0u64..64,
            t in 0u64..1_000_000_000,
        ) {
            let e = TraceEvent::Fault(FaultEvent {
                kind, site, scope, worker, t_us: t,
            });
            prop_assert_eq!(parse_line(&e.to_line()), Some(TraceLine::Event(e.clone())));
            prop_assert!(validate_line(&e.to_line()).is_ok());
        }

        #[test]
        fn profile_lines_roundtrip(
            span in 0u64..1_000_000,
            bench in "[a-z0-9_]{1,10}",
            entries in proptest::collection::vec(
                ("[a-z_][a-z0-9_]{0,12}", 0u64..1_000_000, 0u64..1_000_000),
                0..6,
            ),
        ) {
            let e = TraceEvent::Profile(ProfileEvent {
                span, bench, scope: String::new(),
                entries,
            });
            prop_assert_eq!(parse_line(&e.to_line()), Some(TraceLine::Event(e.clone())));
            prop_assert!(validate_line(&e.to_line()).is_ok());
        }
    }
}
