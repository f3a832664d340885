//! Cross-experiment sweep orchestration: one measurement cache, one worker
//! pool, one place to resume from.
//!
//! Every experiment in the suite boils down to "measure this benchmark under
//! these setups". Before the orchestrator each experiment owned a private
//! [`Harness`] and re-simulated configurations other experiments (or earlier
//! runs of `repro all`) had already measured. The orchestrator measures
//! every experiment's setups through [`Harness::measure`] with:
//!
//! - a **process-wide cache** of verified measurements, keyed by every
//!   timing-relevant setup factor (benchmark, machine configuration,
//!   optimization level, link order, text offset, stack shift, environment,
//!   input size);
//! - **one measurement protocol**: [`Orchestrator::measure`] and every
//!   worker of [`Orchestrator::sweep`] take a key through the same
//!   single-flight leader/waiter loop, so the cache never runs the same
//!   simulation twice, however callers overlap;
//! - **work-stealing parallel execution** over the deduplicated set of
//!   uncached setups;
//! - a **capacity bound**: the cache can be capped (oldest-record-first
//!   eviction) via [`Orchestrator::set_cache_cap`] or, for the global
//!   instance, the `BIASLAB_CACHE_CAP` environment variable — evictions
//!   are counted in the instrumentation, and results never depend on
//!   retention. Records, their FIFO order, the cap and the in-flight
//!   cells sit behind one lock, held only for map bookkeeping, never
//!   across a simulation;
//! - **persistence**: records round-trip through a JSON-lines file under
//!   `results/`, so an interrupted `repro all` resumes instead of
//!   restarting;
//! - **instrumentation**: hit/miss/simulation counts and wall/busy time,
//!   reported per experiment (on stderr — experiment stdout is
//!   byte-identical to the serial path).
//!
//! Caching is sound because the simulator is deterministic and the key
//! covers every factor that can change a run. Machine configuration and
//! environment are folded to FNV-64 digests of a canonical named-field
//! rendering ([`machine_digest`], [`env_digest`]) — not of `Debug` output,
//! whose text can change with derive or formatting churn and silently
//! alias or split cache keys. The renderings destructure every field, so
//! adding a field to [`MachineConfig`] without extending the digest is a
//! compile error. Equal digests from unequal configs are astronomically
//! unlikely, and each cached [`Measurement`] still carries its
//! human-readable setup summary as a cross-check. Warm-cache repetition
//! studies
//! ([`Harness::measure_repeated`] with [`crate::harness::CachePolicy::Warm`])
//! never go through the cache: their later repetitions depend on machine
//! state, not just the setup.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, OnceLock};
use std::time::Instant;

use biaslab_toolchain::load::Environment;
use biaslab_toolchain::OptLevel;
use biaslab_uarch::{Counters, MachineConfig, RunError};
use biaslab_workloads::{benchmark_by_name, InputSize};
use parking_lot::Mutex;

use crate::faults::{self, site};
use crate::harness::{Harness, MeasureError, Measurement};
use crate::jsonl::{self, fnv64};
use crate::setup::{ExperimentSetup, LinkOrder};
use crate::sync::{lock_unpoisoned, wait_timeout_unpoisoned, wait_unpoisoned};
use crate::telemetry::{self, CacheOutcome, Counter, MetricsRegistry};

/// Content-addresses a machine configuration for the cache key: FNV-64
/// over a canonical `field=value` rendering of every timing-relevant
/// field. The destructuring below is exhaustive on purpose — adding a
/// field to [`MachineConfig`] without deciding how it digests is a
/// compile error here, not a silent cache aliasing bug.
#[must_use]
pub fn machine_digest(m: &MachineConfig) -> u64 {
    let cache = |c: &biaslab_uarch::cache::CacheConfig| {
        let biaslab_uarch::cache::CacheConfig {
            size,
            ways,
            line,
            hit_latency,
        } = *c;
        format!("size={size} ways={ways} line={line} hit_latency={hit_latency}")
    };
    let tlb = |t: &biaslab_uarch::tlb::TlbConfig| {
        let biaslab_uarch::tlb::TlbConfig {
            entries,
            ways,
            miss_penalty,
        } = *t;
        format!("entries={entries} ways={ways} miss_penalty={miss_penalty}")
    };
    let MachineConfig {
        name,
        l1i,
        l1d,
        l2,
        memory_latency,
        itlb,
        dtlb,
        branch,
        fetch_bytes,
        mul_latency,
        div_latency,
        l1d_banks,
        bank_conflict_penalty,
        bank_window,
        l1d_next_line_prefetch,
        overlap,
        max_instructions,
    } = m;
    let biaslab_uarch::branch::BranchConfig {
        gshare_bits,
        btb_entries,
        ras_depth,
        mispredict_penalty,
        btb_miss_penalty,
    } = *branch;
    fnv64(&format!(
        "machine name={name} l1i=[{}] l1d=[{}] l2=[{}] memory_latency={memory_latency} \
         itlb=[{}] dtlb=[{}] branch=[gshare_bits={gshare_bits} btb_entries={btb_entries} \
         ras_depth={ras_depth} mispredict_penalty={mispredict_penalty} \
         btb_miss_penalty={btb_miss_penalty}] fetch_bytes={fetch_bytes} \
         mul_latency={mul_latency} div_latency={div_latency} l1d_banks={l1d_banks} \
         bank_conflict_penalty={bank_conflict_penalty} bank_window={bank_window} \
         l1d_next_line_prefetch={l1d_next_line_prefetch} overlap_bits={:016x} \
         max_instructions={max_instructions}",
        cache(l1i),
        cache(l1d),
        cache(l2),
        tlb(itlb),
        tlb(dtlb),
        overlap.to_bits(),
    ))
}

/// Content-addresses a loader environment for the cache key: FNV-64 over
/// its variables (`name=value`, in order) and total stack footprint.
#[must_use]
pub fn env_digest(e: &Environment) -> u64 {
    let mut canon = format!("env stack_bytes={}", e.stack_bytes());
    for v in e.vars() {
        canon.push_str(&format!(" {}={}", v.name, v.value));
    }
    fnv64(&canon)
}

/// The cache key: every factor that can influence a measurement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MeasureKey {
    /// Benchmark name.
    pub bench: String,
    /// [`machine_digest`] of the machine configuration.
    pub machine: u64,
    /// Optimization level.
    pub opt: OptLevel,
    /// Link order of the benchmark's objects.
    pub link_order: LinkOrder,
    /// Linker text-base offset in bytes.
    pub text_offset: u32,
    /// Loader stack shift in bytes.
    pub stack_shift: u32,
    /// [`env_digest`] of the loader environment.
    pub env: u64,
    /// Input size.
    pub size: InputSize,
}

impl MeasureKey {
    /// Builds the key for measuring `bench` under `setup` at `size`.
    #[must_use]
    pub fn new(bench: &str, setup: &ExperimentSetup, size: InputSize) -> MeasureKey {
        MeasureKey {
            bench: bench.to_owned(),
            machine: machine_digest(&setup.machine),
            opt: setup.opt,
            link_order: setup.link_order,
            text_offset: setup.text_offset,
            stack_shift: setup.stack_shift,
            env: env_digest(&setup.env),
            size,
        }
    }

    /// A stable FNV-64 digest of the whole key — the `key` field telemetry
    /// events and spans carry, so a trace can correlate every cache
    /// interaction with the measurement it was about without embedding
    /// eight setup fields per event.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let MeasureKey {
            bench,
            machine,
            opt,
            link_order,
            text_offset,
            stack_shift,
            env,
            size,
        } = self;
        fnv64(&format!(
            "key bench={bench} machine={machine:016x} opt={opt} order={} \
             text_offset={text_offset} stack_shift={stack_shift} env={env:016x} size={}",
            order_str(*link_order),
            size_str(*size),
        ))
    }
}

/// A snapshot of the orchestrator's instrumentation counters.
///
/// Subtract two snapshots ([`OrchestratorStats::delta`]) to report one
/// experiment's share.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OrchestratorStats {
    /// Measurement requests served from the cache.
    pub hits: u64,
    /// Measurement requests that missed the cache.
    pub misses: u64,
    /// Simulations actually run (≤ `misses`: single-flight simulates each
    /// key once, however many requests for it overlap).
    pub simulated: u64,
    /// Records restored from a persisted results file.
    pub loaded: u64,
    /// Stale records dropped while loading a persisted results file:
    /// foreign versions and benchmarks this build does not know.
    pub pruned: u64,
    /// Current-version records dropped while loading because they were
    /// torn or corrupt (truncated line, checksum mismatch) — evidence of a
    /// crashed or interrupted writer, counted separately from ordinary
    /// staleness.
    pub quarantined: u64,
    /// Sweeps executed.
    pub sweeps: u64,
    /// Cached records dropped by the capacity policy.
    pub evictions: u64,
    /// Wall-clock time spent inside sweeps, in microseconds.
    pub sweep_wall_us: u64,
    /// Summed worker busy time across sweeps, in microseconds.
    pub busy_us: u64,
    /// Entries in the cache at snapshot time.
    pub cached: u64,
}

impl OrchestratorStats {
    /// Counter increments since an `earlier` snapshot (`cached` stays
    /// absolute: it is a level, not a counter).
    #[must_use]
    pub fn delta(&self, earlier: &OrchestratorStats) -> OrchestratorStats {
        OrchestratorStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            simulated: self.simulated - earlier.simulated,
            loaded: self.loaded - earlier.loaded,
            pruned: self.pruned - earlier.pruned,
            quarantined: self.quarantined - earlier.quarantined,
            sweeps: self.sweeps - earlier.sweeps,
            evictions: self.evictions - earlier.evictions,
            sweep_wall_us: self.sweep_wall_us - earlier.sweep_wall_us,
            busy_us: self.busy_us - earlier.busy_us,
            cached: self.cached,
        }
    }
}

impl fmt::Display for OrchestratorStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cache {} hit / {} miss ({} simulated, {} in cache, {} evicted, {} pruned, \
             {} quarantined), {} sweep(s) in {:.2}s wall / {:.2}s busy",
            self.hits,
            self.misses,
            self.simulated,
            self.cached,
            self.evictions,
            self.pruned,
            self.quarantined,
            self.sweeps,
            self.sweep_wall_us as f64 / 1e6,
            self.busy_us as f64 / 1e6,
        )
    }
}

/// The process-wide sweep orchestrator (see the module docs).
///
/// # Examples
///
/// ```
/// use biaslab_core::orchestrator::Orchestrator;
/// use biaslab_core::setup::ExperimentSetup;
/// use biaslab_toolchain::OptLevel;
/// use biaslab_uarch::MachineConfig;
/// use biaslab_workloads::InputSize;
///
/// let orch = Orchestrator::new();
/// let h = orch.harness("hmmer").expect("known benchmark");
/// let setup = ExperimentSetup::default_on(MachineConfig::core2(), OptLevel::O2);
/// let first = orch.measure(&h, &setup, InputSize::Test)?;
/// let again = orch.measure(&h, &setup, InputSize::Test)?; // a cache hit
/// assert_eq!(first.counters, again.counters);
/// assert_eq!(orch.stats().hits, 1);
/// # Ok::<(), biaslab_core::harness::MeasureError>(())
/// ```
#[derive(Debug)]
pub struct Orchestrator {
    harnesses: Mutex<HashMap<String, Arc<Harness>>>,
    cache: Mutex<Cache>,
    /// The instrumentation registry. [`OrchestratorStats`] is a typed
    /// snapshot of it; the handles below are the same counters, held so
    /// hot paths skip the by-name lookup. Per-instance on purpose:
    /// tests create private orchestrators with exact-count assertions.
    metrics: MetricsRegistry,
    hits: Counter,
    misses: Counter,
    simulated: Counter,
    loaded: Counter,
    pruned: Counter,
    quarantined: Counter,
    sweeps: Counter,
    evictions: Counter,
    sweep_wall_us: Counter,
    busy_us: Counter,
    watchdog_fired: Counter,
    watchdog_retries: Counter,
    watchdog_quarantined: Counter,
    persist_degraded: Counter,
    /// Set once [`Orchestrator::persist`] gives up on the results file:
    /// later calls skip I/O entirely (in-memory-only operation).
    degraded: AtomicBool,
}

impl Default for Orchestrator {
    fn default() -> Orchestrator {
        let metrics = MetricsRegistry::new();
        Orchestrator {
            harnesses: Mutex::default(),
            cache: Mutex::default(),
            hits: metrics.counter("orch.hits"),
            misses: metrics.counter("orch.misses"),
            simulated: metrics.counter("orch.simulated"),
            loaded: metrics.counter("orch.loaded"),
            pruned: metrics.counter("orch.pruned"),
            quarantined: metrics.counter("orch.quarantined"),
            sweeps: metrics.counter("orch.sweeps"),
            evictions: metrics.counter("orch.evictions"),
            sweep_wall_us: metrics.counter("orch.sweep_wall_us"),
            busy_us: metrics.counter("orch.busy_us"),
            watchdog_fired: metrics.counter("orch.watchdog_fired"),
            watchdog_retries: metrics.counter("orch.watchdog_retries"),
            watchdog_quarantined: metrics.counter("orch.watchdog_quarantined"),
            persist_degraded: metrics.counter("orch.persist_degraded"),
            degraded: AtomicBool::new(false),
            metrics,
        }
    }
}

/// What an in-flight cell holds (std primitives — the offline
/// `parking_lot` stand-in has no condvar).
#[derive(Debug, Default)]
enum CellState {
    /// The leader is simulating; waiters block on `ready`.
    #[default]
    Pending,
    /// The leader published its result (boxed: a cell spends its life as
    /// `Pending`, the result only passes through on the way to the cache).
    Done(Box<Result<Measurement, MeasureError>>),
    /// The leader died without publishing (it panicked). Waiters go back
    /// to [`Orchestrator::measure_request`] and elect a new leader.
    Abandoned,
}

/// One in-flight simulation: the leader moves `state` from `Pending` to
/// `Done` and notifies; waiters block on `ready`. If the leader panics
/// instead, its [`LeaderGuard`] moves the state to `Abandoned` during
/// unwinding, so waiters take over rather than deadlock.
#[derive(Debug, Default)]
struct InflightCell {
    state: StdMutex<CellState>,
    ready: Condvar,
}

/// Panic-safety for the single-flight leader: until disarmed by a
/// successful publish, dropping the guard (normally, or during a panic's
/// unwind) retires the in-flight entry, marks the cell `Abandoned` and
/// wakes every waiter. This is what makes leader takeover work — the old
/// protocol left waiters blocked forever on a poisoned cell.
struct LeaderGuard<'a> {
    orch: &'a Orchestrator,
    key: &'a MeasureKey,
    cell: &'a InflightCell,
    armed: bool,
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        self.orch.cache.lock().inflight.remove(self.key);
        *lock_unpoisoned(&self.cell.state) = CellState::Abandoned;
        self.cell.ready.notify_all();
    }
}

/// A deadline-bounded request ([`Orchestrator::measure_deadline`], or one
/// item of [`Orchestrator::sweep_deadline`]) ran out of wall-clock time
/// before a result was available. Distinct from every
/// [`MeasureError`]: the measurement itself neither ran nor failed, so
/// nothing is cached and a later request can still succeed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineExceeded;

impl fmt::Display for DeadlineExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deadline exceeded before the measurement completed")
    }
}

impl std::error::Error for DeadlineExceeded {}

/// Everything the orchestrator's one cache lock guards: the records,
/// their FIFO insertion order, the capacity bound and the in-flight
/// cells. Keeping them under one lock means a requester sees either a
/// cached record or an in-flight cell for a key, never a gap between
/// them, with no lock order to get wrong. The lock is held only for map
/// bookkeeping, never across a simulation.
///
/// Correctness never depends on retention: [`Orchestrator::measure`] and
/// [`Orchestrator::sweep`] hand results back directly, so an evicted
/// record only costs a re-simulation if it is requested again.
#[derive(Debug, Default)]
struct Cache {
    records: HashMap<MeasureKey, Result<Measurement, MeasureError>>,
    /// Insertion order of every record (the FIFO eviction queue).
    order: VecDeque<MeasureKey>,
    /// Maximum records to retain; `None` is unbounded.
    cap: Option<usize>,
    /// Keys a single-flight leader is currently simulating. Concurrent
    /// requesters of the same key wait on the leader's cell instead of
    /// re-simulating.
    inflight: HashMap<MeasureKey, Arc<InflightCell>>,
}

impl Cache {
    /// Inserts a record, evicting oldest-first while over the cap, and
    /// returns the evicted keys so the caller can account for each one
    /// after releasing the lock. Replacing an existing key keeps its
    /// original insertion-order entry.
    fn insert(
        &mut self,
        key: MeasureKey,
        value: Result<Measurement, MeasureError>,
    ) -> Vec<MeasureKey> {
        use std::collections::hash_map::Entry;
        match self.records.entry(key) {
            Entry::Occupied(mut slot) => {
                let _ = slot.insert(value);
                return Vec::new();
            }
            Entry::Vacant(slot) => {
                self.order.push_back(slot.key().clone());
                slot.insert(value);
            }
        }
        self.evict_over_cap()
    }

    /// Drops oldest records until the cap is respected.
    fn evict_over_cap(&mut self) -> Vec<MeasureKey> {
        let mut victims = Vec::new();
        while self.cap.is_some_and(|cap| self.records.len() > cap) {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            self.records.remove(&oldest);
            victims.push(oldest);
        }
        victims
    }
}

impl Orchestrator {
    /// A fresh orchestrator with an empty cache (tests use this; the
    /// experiment suite shares [`Orchestrator::global`]).
    #[must_use]
    pub fn new() -> Orchestrator {
        Orchestrator::default()
    }

    /// The process-wide orchestrator every experiment shares.
    ///
    /// Its cache cap comes from `BIASLAB_CACHE_CAP` at first use: a
    /// positive integer caps the in-memory record count, anything else
    /// (or the variable being unset) leaves it unbounded.
    #[must_use]
    pub fn global() -> &'static Orchestrator {
        static GLOBAL: OnceLock<Orchestrator> = OnceLock::new();
        GLOBAL.get_or_init(Orchestrator::from_env)
    }

    /// A fresh orchestrator configured from the environment:
    /// `BIASLAB_CACHE_CAP` bounds the cache. [`Orchestrator::global`] and
    /// the serve daemon both start here.
    #[must_use]
    pub fn from_env() -> Orchestrator {
        let orch = Orchestrator::new();
        let cap = std::env::var("BIASLAB_CACHE_CAP")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0);
        orch.set_cache_cap(cap);
        orch
    }

    /// Caps the in-memory measurement cache at `cap` records (`None` is
    /// unbounded, the default). Shrinking below the current size evicts
    /// oldest-first immediately.
    pub fn set_cache_cap(&self, cap: Option<usize>) {
        let evicted = {
            let mut cache = self.cache.lock();
            cache.cap = cap;
            cache.evict_over_cap()
        };
        self.note_evicted(&evicted);
    }

    /// The configured cache cap (`None` is unbounded).
    #[must_use]
    pub fn cache_cap(&self) -> Option<usize> {
        self.cache.lock().cap
    }

    /// The shared harness for a benchmark, or `None` for an unknown name.
    /// One harness per benchmark means compile and link caches are shared
    /// by every experiment in the process.
    #[must_use]
    pub fn harness(&self, name: &str) -> Option<Arc<Harness>> {
        let mut reg = self.harnesses.lock();
        if let Some(h) = reg.get(name) {
            return Some(h.clone());
        }
        let h = Arc::new(Harness::new(benchmark_by_name(name)?));
        reg.insert(name.to_owned(), h.clone());
        Some(h.clone())
    }

    /// Counts (and, when tracing, emits) one cache interaction.
    fn note(&self, outcome: CacheOutcome, key: &MeasureKey) {
        match outcome {
            CacheOutcome::Hit => self.hits.add(1),
            CacheOutcome::Miss => self.misses.add(1),
            CacheOutcome::Evict => self.evictions.add(1),
        }
        if telemetry::enabled() {
            telemetry::emit_cache(outcome, key.digest(), &key.bench);
        }
    }

    /// [`Orchestrator::note`]s an eviction per dropped key.
    fn note_evicted(&self, evicted: &[MeasureKey]) {
        for key in evicted {
            self.note(CacheOutcome::Evict, key);
        }
    }

    /// Takes (or recalls) one verified measurement.
    ///
    /// Concurrent calls for the same key are single-flight: one caller
    /// (the leader) simulates, the rest wait on its result and count as
    /// cache hits — the cache never runs the same simulation twice, no
    /// matter how many threads race to request it.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`MeasureError`] — errors are cached too, so
    /// a failing configuration fails fast on re-request.
    pub fn measure(
        &self,
        harness: &Harness,
        setup: &ExperimentSetup,
        size: InputSize,
    ) -> Result<Measurement, MeasureError> {
        // With no deadline the request can only complete or unwind.
        self.measure_deadline(harness, setup, size, None)
            .unwrap_or_else(|DeadlineExceeded| unreachable!("no deadline"))
    }

    /// [`Orchestrator::measure`] bounded by a wall-clock deadline.
    ///
    /// The deadline is enforced at the protocol's control points — before
    /// leading a simulation, and while waiting on another leader's result
    /// (the single-flight wait becomes a timed wait) — never *inside* a
    /// simulation: the instruction-budget watchdog bounds the simulation
    /// itself, and deriving a budget from wall-clock time would poison the
    /// deterministic cache with timing-dependent results. An expired
    /// leader abandons its in-flight cell (waiters take over), an expired
    /// waiter walks away; neither burns a simulation.
    ///
    /// # Errors
    ///
    /// `Err(DeadlineExceeded)` when the deadline passed first; otherwise
    /// the inner measurement result, exactly as [`Orchestrator::measure`].
    pub fn measure_deadline(
        &self,
        harness: &Harness,
        setup: &ExperimentSetup,
        size: InputSize,
        deadline: Option<Instant>,
    ) -> Result<Result<Measurement, MeasureError>, DeadlineExceeded> {
        let key = MeasureKey::new(harness.benchmark().name(), setup, size);
        let span = telemetry::enabled()
            .then(|| telemetry::Span::open("measure", &key.bench).with_key(key.digest()));
        let (r, outcome) = self.measure_request(harness, setup, size, &key, deadline, true);
        if let Some(span) = span {
            span.with_outcome(outcome).close();
        }
        r
    }

    /// The single-flight measurement protocol behind
    /// [`Orchestrator::measure`] and every [`Orchestrator::sweep`] worker.
    /// With `count` set, the request counts one hit or miss (a sweep
    /// counts its requests in its lookup pass instead).
    ///
    /// The protocol is a loop because a leader can die: a waiter woken on
    /// an `Abandoned` cell goes around again and — finding neither a
    /// cached record nor an in-flight cell — elects itself the new leader.
    /// A leader that panics on an injected *recoverable* fault
    /// ([`site::LEADER_PANIC`]) retries in place; any other leader panic
    /// unwinds out (its [`LeaderGuard`] abandons the cell on the way), so
    /// the panic stays visible to the panicking caller while the waiters
    /// recover. Stats count once per request whatever the number of
    /// takeover rounds.
    fn measure_request(
        &self,
        harness: &Harness,
        setup: &ExperimentSetup,
        size: InputSize,
        key: &MeasureKey,
        deadline: Option<Instant>,
        count: bool,
    ) -> (
        Result<Result<Measurement, MeasureError>, DeadlineExceeded>,
        CacheOutcome,
    ) {
        enum Role {
            Done(Result<Measurement, MeasureError>),
            Wait(Arc<InflightCell>),
            Lead(Arc<InflightCell>),
        }
        let mut noted: Option<CacheOutcome> = None;
        let mut note_once = |outcome: CacheOutcome| {
            *noted.get_or_insert_with(|| {
                if count {
                    self.note(outcome, key);
                }
                outcome
            })
        };
        loop {
            let role = {
                let mut cache = self.cache.lock();
                if let Some(r) = cache.records.get(key) {
                    Role::Done(r.clone())
                } else if let Some(cell) = cache.inflight.get(key) {
                    Role::Wait(cell.clone())
                } else {
                    let cell = Arc::new(InflightCell::default());
                    cache.inflight.insert(key.clone(), cell.clone());
                    Role::Lead(cell)
                }
            };
            match role {
                Role::Done(r) => return (Ok(r), note_once(CacheOutcome::Hit)),
                Role::Wait(cell) => {
                    let outcome = note_once(CacheOutcome::Hit);
                    let mut state = lock_unpoisoned(&cell.state);
                    loop {
                        match &*state {
                            CellState::Done(r) => return (Ok((**r).clone()), outcome),
                            CellState::Abandoned => break, // take over: go around
                            CellState::Pending => match deadline {
                                None => state = wait_unpoisoned(&cell.ready, state),
                                Some(d) => {
                                    // Timed wait: walk away when the
                                    // deadline passes first; the leader's
                                    // result still lands in the cache.
                                    let now = Instant::now();
                                    if now >= d {
                                        return (Err(DeadlineExceeded), outcome);
                                    }
                                    let (g, _) =
                                        wait_timeout_unpoisoned(&cell.ready, state, d - now);
                                    state = g;
                                }
                            },
                        }
                    }
                }
                Role::Lead(cell) => {
                    let outcome = note_once(CacheOutcome::Miss);
                    let mut guard = LeaderGuard {
                        orch: self,
                        key,
                        cell: &cell,
                        armed: true,
                    };
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        // Expired before simulating: don't burn the run.
                        // Returning drops the still-armed guard, which
                        // retires the cell as `Abandoned` so any waiters
                        // take over leadership instead of wedging.
                        drop(guard);
                        return (Err(DeadlineExceeded), outcome);
                    }
                    let r = loop {
                        if !faults::active() {
                            break self.simulate_one(harness, setup, size);
                        }
                        // Injected panics carry a marker payload: a
                        // recoverable one is swallowed and the leader
                        // retries in place; anything else (including the
                        // deliberately unrecoverable hard site) unwinds
                        // out through the guard so waiters take over.
                        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            faults::maybe_panic_leader();
                            self.simulate_one(harness, setup, size)
                        })) {
                            Ok(r) => break r,
                            Err(payload) => {
                                if faults::injected_panic(payload.as_ref())
                                    .is_some_and(|p| p.recoverable)
                                {
                                    faults::recovered("leader.retry");
                                    continue;
                                }
                                std::panic::resume_unwind(payload);
                            }
                        }
                    };
                    // Publish to the cache and retire the in-flight entry
                    // in one critical section: a new requester sees either
                    // the cached record or the in-flight cell, never a gap
                    // between them. This is the only place a measured
                    // result enters the cache.
                    let evicted = {
                        let mut cache = self.cache.lock();
                        cache.inflight.remove(key);
                        cache.insert(key.clone(), r.clone())
                    };
                    guard.armed = false;
                    self.note_evicted(&evicted);
                    *lock_unpoisoned(&cell.state) = CellState::Done(Box::new(r.clone()));
                    cell.ready.notify_all();
                    return (Ok(r), outcome);
                }
            }
        }
    }

    /// Runs one simulation with the watchdog and the orchestrator's
    /// simulated/busy accounting. Only the single-flight leader calls it;
    /// each call counts as one simulation.
    ///
    /// The watchdog converts a runaway simulation — the machine's
    /// instruction budget exhausting ([`RunError::Budget`]), or an
    /// injected [`site::MEASURE_RUNAWAY`] fault — into
    /// [`MeasureError::Watchdog`], retries once (the retry never
    /// re-injects, so injected runaways always recover), and on a second
    /// trip quarantines the key: the error is returned, and the caller
    /// caches it like any other, so re-requests fail fast.
    fn simulate_one(
        &self,
        harness: &Harness,
        setup: &ExperimentSetup,
        size: InputSize,
    ) -> Result<Measurement, MeasureError> {
        fn watchdogify(e: MeasureError) -> MeasureError {
            match e {
                MeasureError::Run(RunError::Budget(limit)) => MeasureError::Watchdog { limit },
                e => e,
            }
        }
        let start = Instant::now();
        let mut r = if faults::fire(site::MEASURE_RUNAWAY) {
            Err(MeasureError::Watchdog {
                limit: setup.machine.max_instructions,
            })
        } else {
            harness.measure(setup, size).map_err(watchdogify)
        };
        if matches!(r, Err(MeasureError::Watchdog { .. })) {
            self.watchdog_fired.add(1);
            self.watchdog_retries.add(1);
            r = harness.measure(setup, size).map_err(watchdogify);
            if matches!(r, Err(MeasureError::Watchdog { .. })) {
                self.watchdog_quarantined.add(1);
            } else {
                faults::recovered("watchdog.retry");
            }
        }
        self.simulated.add(1);
        self.busy_us.add(start.elapsed().as_micros() as u64);
        r
    }

    /// Measures many setups, preserving request order.
    ///
    /// Cached setups are recalled; the rest are deduplicated and distributed
    /// over a work-stealing worker pool. Each worker takes its key through
    /// the same single-flight protocol as [`Orchestrator::measure`], so
    /// duplicate requests within one sweep simulate exactly once, and a
    /// key another caller is already simulating is waited for, not
    /// re-simulated. Results are per-setup so one failing setup does not
    /// poison a sweep.
    #[must_use]
    pub fn sweep(
        &self,
        harness: &Harness,
        setups: &[ExperimentSetup],
        size: InputSize,
    ) -> Vec<Result<Measurement, MeasureError>> {
        self.sweep_deadline(harness, setups, size, None)
            .into_iter()
            // With no deadline every item can only complete or unwind.
            .map(|r| r.unwrap_or_else(|DeadlineExceeded| unreachable!("no deadline")))
            .collect()
    }

    /// [`Orchestrator::sweep`] bounded by a wall-clock deadline, which
    /// every worker enforces per item exactly as
    /// [`Orchestrator::measure_deadline`] does for one request: cached
    /// setups come back `Ok` whenever the deadline passed, uncached ones
    /// the deadline beat come back `Err(DeadlineExceeded)` without
    /// simulating, and nothing of them is cached.
    #[must_use]
    pub fn sweep_deadline(
        &self,
        harness: &Harness,
        setups: &[ExperimentSetup],
        size: InputSize,
        deadline: Option<Instant>,
    ) -> Vec<Result<Result<Measurement, MeasureError>, DeadlineExceeded>> {
        let sweep_start = Instant::now();
        self.sweeps.add(1);
        let traced = telemetry::enabled();
        let bench = harness.benchmark().name();
        let sweep_span = traced.then(|| telemetry::Span::open("sweep", bench));
        let keys: Vec<MeasureKey> = setups
            .iter()
            .map(|s| MeasureKey::new(bench, s, size))
            .collect();

        // Lookup pass: one hit or miss per request; the first request of
        // each uncached key becomes work. Results are collected directly,
        // never re-read from the cache, so a capacity bound evicting
        // mid-sweep cannot lose a requested measurement.
        let hits: Vec<Option<Result<Measurement, MeasureError>>> = {
            let cache = self.cache.lock();
            keys.iter().map(|k| cache.records.get(k).cloned()).collect()
        };
        let mut work: Vec<(&MeasureKey, &ExperimentSetup)> = Vec::new();
        let mut claimed: HashSet<&MeasureKey> = HashSet::new();
        for ((key, setup), hit) in keys.iter().zip(setups).zip(&hits) {
            if hit.is_some() {
                self.note(CacheOutcome::Hit, key);
            } else {
                self.note(CacheOutcome::Miss, key);
                if claimed.insert(key) {
                    work.push((key, setup));
                }
            }
        }

        // Pre-warm compilation serially: `Harness::compiled` serializes
        // on a lock anyway, and warming here keeps workers measuring.
        let mut warmed: Vec<OptLevel> = work.iter().map(|(k, _)| k.opt).collect();
        warmed.sort_unstable();
        warmed.dedup();
        for level in warmed {
            let _ = harness.compiled(level);
        }
        // An all-hit sweep spawns no worker and skips the parallelism
        // query, which std documents as potentially expensive (on Linux it
        // consults cgroup quotas).
        let threads = match work.len() {
            0 => 0,
            n => std::thread::available_parallelism()
                .map_or(4, |p| p.get())
                .min(16)
                .min(n),
        };
        let next = AtomicUsize::new(0);
        // Sweep workers are fresh threads: propagate the caller's
        // experiment scope and tag each with a 1-based worker id so trace
        // spans say which worker simulated what.
        let caller_scope = traced.then(telemetry::scope).unwrap_or_default();
        let measured: HashMap<&MeasureKey, _> = crossbeam::scope(|scope| {
            let workers: Vec<_> = (1..=threads as u64)
                .map(|wid| {
                    let (work, next, caller_scope) = (&work, &next, &caller_scope);
                    scope.spawn(move |_| {
                        if traced {
                            telemetry::set_worker(wid);
                            telemetry::set_scope(caller_scope);
                        }
                        let mut done = Vec::new();
                        while let Some(&(key, setup)) =
                            work.get(next.fetch_add(1, Ordering::Relaxed))
                        {
                            if faults::active() {
                                faults::delay(site::WORKER_DELAY);
                            }
                            let span = traced.then(|| {
                                telemetry::Span::open("measure", &key.bench)
                                    .with_key(key.digest())
                                    .with_outcome(CacheOutcome::Miss)
                            });
                            // The lookup pass already counted this request.
                            let (r, _) =
                                self.measure_request(harness, setup, size, key, deadline, false);
                            if let Some(span) = span {
                                span.close();
                            }
                            done.push((key, r));
                        }
                        done
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("sweep worker panicked"))
                .collect()
        })
        .expect("sweep worker panicked");

        let out = keys
            .iter()
            .zip(hits)
            .map(|(key, hit)| hit.map_or_else(|| measured[key].clone(), Ok))
            .collect();
        self.sweep_wall_us
            .add(sweep_start.elapsed().as_micros() as u64);
        if let Some(span) = sweep_span {
            span.close();
        }
        out
    }

    /// A snapshot of the instrumentation counters.
    #[must_use]
    pub fn stats(&self) -> OrchestratorStats {
        OrchestratorStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            simulated: self.simulated.get(),
            loaded: self.loaded.get(),
            pruned: self.pruned.get(),
            quarantined: self.quarantined.get(),
            sweeps: self.sweeps.get(),
            evictions: self.evictions.get(),
            sweep_wall_us: self.sweep_wall_us.get(),
            busy_us: self.busy_us.get(),
            cached: self.cache.lock().records.len() as u64,
        }
    }

    /// Every registry counter plus the cache level, `(name, value)` sorted
    /// by name — the snapshot trace export appends as its `metrics` record.
    #[must_use]
    pub fn metrics(&self) -> Vec<(String, u64)> {
        let mut out = self.metrics.snapshot();
        out.push((
            "orch.cached".to_owned(),
            self.cache.lock().records.len() as u64,
        ));
        out.sort();
        out
    }

    /// Persists every successful cached measurement as one sealed JSON
    /// line (see the module docs), sorted, through
    /// `jsonl::write_atomic`: a crash leaves either the complete old file
    /// or the complete new one, and a failed write leaks no temp file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing or renaming. Callers that want
    /// retry and graceful degradation use [`Orchestrator::persist`].
    pub fn save(&self, path: &Path) -> std::io::Result<usize> {
        // Clone the successful records under the lock and format them
        // outside it; sort by the record line itself for a deterministic
        // file order.
        let records: Vec<(MeasureKey, Measurement)> = {
            let cache = self.cache.lock();
            cache
                .records
                .iter()
                .filter_map(|(k, r)| Some((k.clone(), r.as_ref().ok()?.clone())))
                .collect()
        };
        let mut lines: Vec<String> = records.iter().map(|(k, m)| record_line(k, m)).collect();
        lines.sort_unstable();
        jsonl::write_atomic(path, |f| {
            for line in &lines {
                if faults::active() {
                    if let Some(e) = faults::io_error(site::SAVE_IO) {
                        return Err(e);
                    }
                    if faults::fire(site::SAVE_SHORT) {
                        // A torn write: half a record reaches the temp
                        // file, then the writer dies. The real results
                        // file is untouched; a reader of the torn temp
                        // content quarantines the cut line by checksum.
                        f.write_all(&line.as_bytes()[..line.len() / 2])?;
                        f.flush()?;
                        return Err(std::io::Error::other("injected fault: save.short"));
                    }
                }
                writeln!(f, "{line}")?;
            }
            Ok(lines.len())
        })
    }

    /// [`Orchestrator::save`] with transient-failure handling: up to three
    /// attempts with a short backoff, then graceful degradation — one
    /// warning on stderr, the `orch.persist_degraded` counter, and
    /// in-memory-only operation from then on (later calls return
    /// immediately). Returns the number of records written, `0` when
    /// degraded. Measurements are never lost to a persistence failure:
    /// results flow to callers directly, the file is only a resume
    /// accelerator.
    pub fn persist(&self, path: &Path) -> usize {
        if self.degraded.load(Ordering::Relaxed) {
            return 0;
        }
        match jsonl::retry_io(|| self.save(path)) {
            Ok(n) => n,
            Err(e) => {
                self.degraded.store(true, Ordering::Relaxed);
                self.persist_degraded.add(1);
                faults::recovered("persist.degraded");
                eprintln!(
                    "warning: could not write results file {} ({e}); continuing in-memory only",
                    path.display(),
                );
                0
            }
        }
    }

    /// Whether [`Orchestrator::persist`] has degraded to in-memory-only
    /// operation after repeated write failures.
    #[must_use]
    pub fn persist_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Restores measurements persisted by [`Orchestrator::save`].
    ///
    /// Bad records are dropped, counted, and never fatal, in two classes:
    /// **pruned** ([`OrchestratorStats::pruned`]) — foreign record
    /// versions and benchmarks this build does not know, the ordinary
    /// staleness of a file written by an older build; **quarantined**
    /// ([`OrchestratorStats::quarantined`]) — current-version records
    /// that are torn or corrupt (truncated mid-line, checksum mismatch),
    /// the signature of a crashed writer. Either way the affected key
    /// just re-simulates. Already-cached keys are left untouched.
    /// Returns how many records were restored; a missing file restores
    /// zero. Transient read errors are retried (three attempts, short
    /// backoff) before propagating.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than the file not existing; the caller
    /// degrades to a cold start (re-simulation), never to wrong data.
    pub fn load(&self, path: &Path) -> std::io::Result<usize> {
        let read = jsonl::retry_io(|| match faults::io_error(site::LOAD_IO) {
            Some(e) => Err(e),
            None => match std::fs::read_to_string(path) {
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
                text => text.map(Some),
            },
        })?;
        let Some(text) = read else {
            return Ok(0);
        };
        let mut restored = 0usize;
        let mut pruned = 0u64;
        let mut quarantined = 0u64;
        let mut evicted = Vec::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            match parse_record(line) {
                RecordVerdict::Ok(key, _) if benchmark_by_name(&key.bench).is_none() => {
                    pruned += 1;
                }
                RecordVerdict::Ok(key, m) => {
                    let mut cache = self.cache.lock();
                    if !cache.records.contains_key(&key) {
                        evicted.extend(cache.insert(key, Ok(*m)));
                        restored += 1;
                    }
                }
                RecordVerdict::Foreign => pruned += 1,
                RecordVerdict::Corrupt => quarantined += 1,
            }
        }
        self.note_evicted(&evicted);
        self.loaded.add(restored as u64);
        self.pruned.add(pruned);
        self.quarantined.add(quarantined);
        Ok(restored)
    }
}

// ---------------------------------------------------------------------------
// Persistence format, read and sealed through `crate::jsonl`. One record
// per line:
//
//   {"v":3,"bench":"hmmer","machine":123,"opt":"O2","order":"rand:7",
//    "text_offset":0,"stack_shift":0,"env":456,"size":"test",
//    "setup":"core2/O2/env=0B/order=default","checksum":789,
//    "counters":[...],"crc":101112}
//
// `counters` lists every `Counters` field in declaration order. `crc` is
// the `jsonl::seal`: FNV-64 over everything before its own field, so a
// record torn or flipped anywhere is detected on load.

// Version 2: `machine`/`env` switched from Debug-string digests to the
// canonical named-field digests ([`machine_digest`], [`env_digest`]).
// Version-1 digests are incomparable, so v1 files prune wholesale.
// Version 3: added the per-record `crc` checksum; v2 records carry none
// to verify, so they prune wholesale rather than load unchecked.
const RECORD_VERSION: u64 = 3;

/// The fields of one record line, in order.
pub(crate) const RECORD_FIELDS: &[&str] = &[
    "v",
    "bench",
    "machine",
    "opt",
    "order",
    "text_offset",
    "stack_shift",
    "env",
    "size",
    "setup",
    "checksum",
    "counters",
    "crc",
];

/// What [`parse_record`] concluded about one line.
#[derive(Debug)]
pub(crate) enum RecordVerdict {
    /// A verified current-version record (boxed: the other verdicts are
    /// unit variants, and verdicts are consumed one line at a time).
    Ok(MeasureKey, Box<Measurement>),
    /// Not a record of this version — an older build's output (pruned).
    Foreign,
    /// Claims this version but is torn or corrupt — a crashed writer's
    /// residue (quarantined).
    Corrupt,
}

pub(crate) fn order_str(o: LinkOrder) -> String {
    match o {
        LinkOrder::Default => "default".to_owned(),
        LinkOrder::Reversed => "reversed".to_owned(),
        LinkOrder::Alphabetical => "alpha".to_owned(),
        LinkOrder::Random(seed) => format!("rand:{seed}"),
    }
}

pub(crate) fn parse_order(s: &str) -> Option<LinkOrder> {
    match s {
        "default" => Some(LinkOrder::Default),
        "reversed" => Some(LinkOrder::Reversed),
        "alpha" => Some(LinkOrder::Alphabetical),
        _ => s.strip_prefix("rand:")?.parse().ok().map(LinkOrder::Random),
    }
}

pub(crate) fn size_str(s: InputSize) -> &'static str {
    match s {
        InputSize::Test => "test",
        InputSize::Ref => "ref",
    }
}

pub(crate) fn parse_size(s: &str) -> Option<InputSize> {
    match s {
        "test" => Some(InputSize::Test),
        "ref" => Some(InputSize::Ref),
        _ => None,
    }
}

pub(crate) fn counters_to_vec(c: &Counters) -> Vec<u64> {
    vec![
        c.cycles,
        c.instructions,
        c.fetches,
        c.l1i_misses,
        c.l1d_accesses,
        c.l1d_misses,
        c.l2_misses,
        c.itlb_misses,
        c.dtlb_misses,
        c.branches,
        c.mispredicts,
        c.btb_misses,
        c.ras_mispredicts,
        c.bank_conflicts,
        c.line_splits,
        c.page_splits,
        c.loads,
        c.stores,
        c.stall_frontend,
        c.stall_memory,
        c.stall_branch,
        c.stall_compute,
    ]
}

pub(crate) fn counters_from_vec(v: &[u64]) -> Option<Counters> {
    let [cycles, instructions, fetches, l1i_misses, l1d_accesses, l1d_misses, l2_misses, itlb_misses, dtlb_misses, branches, mispredicts, btb_misses, ras_mispredicts, bank_conflicts, line_splits, page_splits, loads, stores, stall_frontend, stall_memory, stall_branch, stall_compute] =
        *v
    else {
        return None;
    };
    Some(Counters {
        cycles,
        instructions,
        fetches,
        l1i_misses,
        l1d_accesses,
        l1d_misses,
        l2_misses,
        itlb_misses,
        dtlb_misses,
        branches,
        mispredicts,
        btb_misses,
        ras_mispredicts,
        bank_conflicts,
        line_splits,
        page_splits,
        loads,
        stores,
        stall_frontend,
        stall_memory,
        stall_branch,
        stall_compute,
    })
}

pub(crate) fn record_line(k: &MeasureKey, m: &Measurement) -> String {
    jsonl::seal(format!(
        concat!(
            "{{\"v\":{},\"bench\":\"{}\",\"machine\":{},\"opt\":\"{}\",",
            "\"order\":\"{}\",\"text_offset\":{},\"stack_shift\":{},",
            "\"env\":{},\"size\":\"{}\",\"setup\":\"{}\",\"checksum\":{},",
            "\"counters\":[{}]"
        ),
        RECORD_VERSION,
        k.bench,
        k.machine,
        k.opt,
        order_str(k.link_order),
        k.text_offset,
        k.stack_shift,
        k.env,
        size_str(k.size),
        m.setup,
        m.checksum,
        jsonl::csv(&counters_to_vec(&m.counters)),
    ))
}

pub(crate) fn parse_record(line: &str) -> RecordVerdict {
    // A line is "ours" if it opens by declaring the current version; from
    // then on any defect is corruption, not staleness.
    let ours = line.strip_prefix("{\"v\":").is_some_and(|rest| {
        let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
        rest[..digits].parse::<u64>().ok() == Some(RECORD_VERSION)
    });
    if !ours {
        return RecordVerdict::Foreign;
    }
    jsonl::unseal(line)
        .filter(|f| f.keys_are(RECORD_FIELDS))
        .and_then(|f| {
            let key = MeasureKey {
                bench: f.str("bench")?.to_owned(),
                machine: f.u64("machine")?,
                opt: OptLevel::ALL
                    .into_iter()
                    .find(|l| f.str("opt") == Some(l.to_string().as_str()))?,
                link_order: parse_order(f.str("order")?)?,
                text_offset: u32::try_from(f.u64("text_offset")?).ok()?,
                stack_shift: u32::try_from(f.u64("stack_shift")?).ok()?,
                env: f.u64("env")?,
                size: parse_size(f.str("size")?)?,
            };
            let counters: Vec<u64> = f
                .array("counters")?
                .split(',')
                .map(|n| n.parse().ok())
                .collect::<Option<_>>()?;
            let m = Measurement {
                setup: f.str("setup")?.to_owned(),
                counters: counters_from_vec(&counters)?,
                checksum: f.u64("checksum")?,
            };
            Some(RecordVerdict::Ok(key, Box::new(m)))
        })
        .unwrap_or(RecordVerdict::Corrupt)
}

#[cfg(test)]
mod tests {
    use biaslab_toolchain::load::Environment;
    use biaslab_uarch::MachineConfig;

    use super::*;

    fn env_setups(n: usize) -> Vec<ExperimentSetup> {
        let base = ExperimentSetup::default_on(MachineConfig::core2(), OptLevel::O2);
        (0..n)
            .map(|i| base.with_env(Environment::of_total_size(64 * i as u32 + 64)))
            .collect()
    }

    #[test]
    fn parallel_sweep_matches_serial_measurements() {
        let orch = Orchestrator::new();
        let h = orch.harness("hmmer").expect("known benchmark");
        let setups = env_setups(8);
        let swept = orch.sweep(&h, &setups, InputSize::Test);
        for (setup, got) in setups.iter().zip(&swept) {
            let serial = h
                .measure(setup, InputSize::Test)
                .expect("serial measurement");
            let got = got.as_ref().expect("swept measurement");
            assert_eq!(got.counters, serial.counters, "{}", setup.summary());
            assert_eq!(got.checksum, serial.checksum);
            assert_eq!(got.setup, serial.setup);
        }
    }

    #[test]
    fn second_request_hits_the_cache_without_resimulating() {
        let orch = Orchestrator::new();
        let h = orch.harness("milc").expect("known benchmark");
        let setups = env_setups(4);
        let first = orch.sweep(&h, &setups, InputSize::Test);
        let after_first = orch.stats();
        assert_eq!(after_first.simulated, 4);
        assert_eq!(after_first.misses, 4);

        let second = orch.sweep(&h, &setups, InputSize::Test);
        let after_second = orch.stats();
        assert_eq!(
            after_second.simulated, 4,
            "no re-simulation on a warm cache"
        );
        assert_eq!(after_second.hits, 4);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(
                a.as_ref().expect("ok").counters,
                b.as_ref().expect("ok").counters
            );
        }
    }

    #[test]
    fn duplicate_requests_in_one_sweep_simulate_once() {
        let orch = Orchestrator::new();
        let h = orch.harness("hmmer").expect("known benchmark");
        let one = env_setups(1);
        let doubled = vec![one[0].clone(), one[0].clone(), one[0].clone()];
        let results = orch.sweep(&h, &doubled, InputSize::Test);
        assert_eq!(results.len(), 3);
        assert_eq!(orch.stats().simulated, 1);
        assert_eq!(orch.stats().misses, 3);
    }

    #[test]
    fn distinct_factors_get_distinct_keys() {
        let base = ExperimentSetup::default_on(MachineConfig::core2(), OptLevel::O2);
        let k = |s: &ExperimentSetup| MeasureKey::new("b", s, InputSize::Test);
        assert_ne!(k(&base), k(&base.with_opt(OptLevel::O3)));
        assert_ne!(k(&base), k(&base.with_env(Environment::of_total_size(128))));
        assert_ne!(k(&base), k(&base.with_link_order(LinkOrder::Random(1))));
        assert_ne!(
            k(&base),
            MeasureKey::new(
                "b",
                &ExperimentSetup::default_on(MachineConfig::o3cpu(), OptLevel::O2),
                InputSize::Test
            )
        );
        assert_ne!(k(&base), MeasureKey::new("b", &base, InputSize::Ref));
        assert_eq!(k(&base), k(&base.clone()));
    }

    #[test]
    fn records_roundtrip_through_the_results_file() {
        let orch = Orchestrator::new();
        let h = orch.harness("sphinx3").expect("known benchmark");
        let mut setups = env_setups(3);
        setups[1] = setups[1].with_link_order(LinkOrder::Random(7));
        let originals = orch.sweep(&h, &setups, InputSize::Test);

        let dir = std::env::temp_dir().join(format!("biaslab-orch-{}", std::process::id()));
        let path = dir.join("measurements.jsonl");
        let written = orch.save(&path).expect("save");
        assert_eq!(written, 3);

        let fresh = Orchestrator::new();
        assert_eq!(fresh.load(&path).expect("load"), 3);
        let restored = fresh.sweep(&h, &setups, InputSize::Test);
        let stats = fresh.stats();
        assert_eq!(
            stats.simulated, 0,
            "everything served from the restored cache"
        );
        assert_eq!(stats.loaded, 3);
        for (a, b) in originals.iter().zip(&restored) {
            let (a, b) = (a.as_ref().expect("ok"), b.as_ref().expect("ok"));
            assert_eq!(a.counters, b.counters);
            assert_eq!(a.checksum, b.checksum);
            assert_eq!(a.setup, b.setup);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A digest change silently invalidates every persisted results file,
    /// so it must only happen on purpose (with a [`RECORD_VERSION`] bump),
    /// never through formatting or derive churn. These constants were
    /// computed once from the canonical renderings and pinned.
    #[test]
    fn setup_digests_are_pinned() {
        assert_eq!(
            machine_digest(&MachineConfig::pentium4()),
            0x530c_d327_6251_e59a
        );
        assert_eq!(
            machine_digest(&MachineConfig::core2()),
            0x06a7_5a75_25a3_109c
        );
        assert_eq!(
            machine_digest(&MachineConfig::o3cpu()),
            0xc243_5423_dfcd_2663
        );
        assert_eq!(
            env_digest(&Environment::of_total_size(64)),
            0xdd88_1ced_02c5_0561
        );
        assert_eq!(
            env_digest(&Environment::of_total_size(612)),
            0x3535_f8db_a763_3e64
        );
    }

    #[test]
    fn digests_respond_to_every_named_field() {
        let base = MachineConfig::core2();
        let d = machine_digest(&base);
        let mut m = base.clone();
        m.overlap += 0.125;
        assert_ne!(machine_digest(&m), d, "overlap must be digested");
        let mut m = base.clone();
        m.l1d.ways *= 2;
        assert_ne!(
            machine_digest(&m),
            d,
            "nested cache fields must be digested"
        );
        let mut m = base;
        m.l1d_next_line_prefetch = !m.l1d_next_line_prefetch;
        assert_ne!(machine_digest(&m), d, "ablation toggles must be digested");
        assert_ne!(
            env_digest(&Environment::of_total_size(64)),
            env_digest(&Environment::of_total_size(65)),
        );
        assert_eq!(
            env_digest(&Environment::of_total_size(612)),
            env_digest(&Environment::of_total_size(612)),
        );
    }

    #[test]
    fn loading_prunes_stale_records() {
        let orch = Orchestrator::new();
        let h = orch.harness("hmmer").expect("known benchmark");
        let _ = orch.sweep(&h, &env_setups(2), InputSize::Test);

        let dir = std::env::temp_dir().join(format!("biaslab-prune-{}", std::process::id()));
        let path = dir.join("measurements.jsonl");
        assert_eq!(orch.save(&path).expect("save"), 2);

        // Damage the file every way a crashed or foreign writer would: a
        // previous record version (stale), a benchmark this build doesn't
        // know (stale — note the bench rename invalidates the crc too, so
        // re-stamp it), a truncated line (torn), and a flipped counter
        // under a stale crc (corrupt). Blank lines are not records at all.
        let mut text = std::fs::read_to_string(&path).expect("read back");
        let valid = text.lines().next().expect("has records").to_owned();
        text.push_str(&valid.replace("\"v\":3", "\"v\":1"));
        text.push('\n');
        let renamed = valid.replace("\"bench\":\"hmmer\"", "\"bench\":\"nonesuch\"");
        let body = renamed.rsplit_once(",\"crc\":").expect("has crc").0;
        text.push_str(&jsonl::seal(body.to_owned()));
        text.push('\n');
        text.push_str(&valid[..valid.len() / 2]);
        text.push('\n');
        text.push_str(&valid.replacen("\"counters\":[", "\"counters\":[9", 1));
        text.push_str("\n\n");
        std::fs::write(&path, text).expect("rewrite");

        let fresh = Orchestrator::new();
        assert_eq!(fresh.load(&path).expect("load"), 2);
        let stats = fresh.stats();
        assert_eq!(stats.loaded, 2);
        assert_eq!(stats.pruned, 2, "v1 + unknown bench");
        assert_eq!(stats.quarantined, 2, "truncated + crc mismatch");
        assert!(format!("{stats}").contains("2 pruned, 2 quarantined"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loading_a_missing_file_restores_nothing() {
        let orch = Orchestrator::new();
        let n = orch
            .load(Path::new("/nonexistent/biaslab/results.jsonl"))
            .expect("ok");
        assert_eq!(n, 0);
        assert_eq!(orch.stats().loaded, 0);
    }

    #[test]
    fn corrupt_lines_are_skipped() {
        // Foreign or non-record lines are stale, not corrupt…
        assert!(matches!(
            parse_record("{\"v\":99,\"bench\":\"x\"}"),
            RecordVerdict::Foreign
        ));
        assert!(matches!(
            parse_record("not json at all"),
            RecordVerdict::Foreign
        ));
        assert!(matches!(parse_record(""), RecordVerdict::Foreign));
        // …while a current-version line without a verifiable crc is torn.
        assert!(matches!(
            parse_record("{\"v\":3,\"bench\":\"x\"}"),
            RecordVerdict::Corrupt
        ));
        assert!(matches!(
            parse_record("{\"v\":3,\"bench\":\"x\",\"crc\":12}"),
            RecordVerdict::Corrupt
        ));
        // A correctly sealed record whose offset does not fit the key's
        // `u32` is corrupt, never narrowed into another setup's key.
        let key = MeasureKey {
            bench: "hmmer".to_owned(),
            machine: 1,
            opt: OptLevel::O2,
            link_order: LinkOrder::Default,
            text_offset: 0,
            stack_shift: 0,
            env: 2,
            size: InputSize::Test,
        };
        let m = Measurement {
            setup: "core2/O2".to_owned(),
            counters: Counters::default(),
            checksum: 3,
        };
        let line = record_line(&key, &m);
        assert!(matches!(parse_record(&line), RecordVerdict::Ok(..)));
        for (field, wide) in [
            ("\"text_offset\":0", "\"text_offset\":4294967296"),
            ("\"stack_shift\":0", "\"stack_shift\":4294967296"),
        ] {
            let body = line.rsplit_once(",\"crc\":").expect("sealed").0;
            let resealed = jsonl::seal(body.replacen(field, wide, 1));
            assert!(jsonl::verify_sealed(&resealed));
            assert!(
                matches!(parse_record(&resealed), RecordVerdict::Corrupt),
                "{resealed}"
            );
        }
    }

    #[test]
    fn record_lines_parse_back_exactly() {
        let key = MeasureKey {
            bench: "hmmer".to_owned(),
            machine: 0xdead_beef,
            opt: OptLevel::O3,
            link_order: LinkOrder::Random(42),
            text_offset: 64,
            stack_shift: 128,
            env: u64::MAX,
            size: InputSize::Ref,
        };
        let m = Measurement {
            setup: "core2/O3/env=612B/order=rand(42)".to_owned(),
            counters: Counters {
                cycles: 123,
                instructions: 45,
                ..Counters::default()
            },
            checksum: u64::MAX - 1,
        };
        let line = record_line(&key, &m);
        let RecordVerdict::Ok(k2, m2) = parse_record(&line) else {
            panic!("roundtrip failed for {line}");
        };
        assert_eq!(key, k2);
        assert_eq!(m.counters, m2.counters);
        assert_eq!(m.checksum, m2.checksum);
        assert_eq!(m.setup, m2.setup);
        // Any single-byte damage to the body is caught by the crc.
        let flipped = line.replacen("\"counters\":[", "\"counters\":[1", 1);
        assert!(matches!(parse_record(&flipped), RecordVerdict::Corrupt));
        assert!(matches!(
            parse_record(&line[..line.len() - 10]),
            RecordVerdict::Corrupt
        ));
    }

    #[test]
    fn cache_cap_evicts_oldest_first() {
        let orch = Orchestrator::new();
        orch.set_cache_cap(Some(2));
        assert_eq!(orch.cache_cap(), Some(2));
        let h = orch.harness("hmmer").expect("known benchmark");
        let setups = env_setups(3);
        for s in &setups {
            let _ = orch.measure(&h, s, InputSize::Test);
        }
        let stats = orch.stats();
        assert_eq!(stats.cached, 2);
        assert_eq!(stats.evictions, 1);
        // The newest record is retained…
        let _ = orch.measure(&h, &setups[2], InputSize::Test);
        assert_eq!(orch.stats().simulated, 3);
        // …the oldest was evicted, so it re-simulates.
        let _ = orch.measure(&h, &setups[0], InputSize::Test);
        assert_eq!(orch.stats().simulated, 4);
    }

    #[test]
    fn capped_sweep_still_returns_every_measurement() {
        let capped = Orchestrator::new();
        capped.set_cache_cap(Some(2));
        let unbounded = Orchestrator::new();
        let setups = env_setups(6);
        let a = capped.sweep(
            &capped.harness("hmmer").expect("known"),
            &setups,
            InputSize::Test,
        );
        let b = unbounded.sweep(
            &unbounded.harness("hmmer").expect("known"),
            &setups,
            InputSize::Test,
        );
        assert_eq!(a.len(), 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.as_ref().expect("ok").counters,
                y.as_ref().expect("ok").counters
            );
        }
        let stats = capped.stats();
        assert_eq!(stats.cached, 2, "cap respected");
        assert_eq!(stats.evictions, 4);
        assert_eq!(unbounded.stats().evictions, 0);
    }

    #[test]
    fn shrinking_the_cap_evicts_immediately() {
        let orch = Orchestrator::new();
        let h = orch.harness("milc").expect("known benchmark");
        let setups = env_setups(4);
        let _ = orch.sweep(&h, &setups, InputSize::Test);
        assert_eq!(orch.stats().cached, 4);
        orch.set_cache_cap(Some(1));
        let stats = orch.stats();
        assert_eq!(stats.cached, 1);
        assert_eq!(stats.evictions, 3);
        // Back to unbounded: nothing further evicts.
        orch.set_cache_cap(None);
        let _ = orch.sweep(&h, &setups, InputSize::Test);
        assert_eq!(orch.stats().evictions, 3);
    }

    /// Sweeps and `measure` share one single-flight protocol: two sweeps
    /// racing over the same keys, plus a `measure` of one of them, run
    /// each simulation exactly once and agree on every result.
    #[test]
    fn overlapping_sweeps_and_measure_simulate_each_key_once() {
        let orch = Orchestrator::new();
        let h = orch.harness("hmmer").expect("known benchmark");
        let setups = env_setups(4);
        let barrier = std::sync::Barrier::new(3);
        let (a, b) = std::thread::scope(|s| {
            let sweep = || {
                barrier.wait();
                orch.sweep(&h, &setups, InputSize::Test)
            };
            let a = s.spawn(sweep);
            let b = s.spawn(sweep);
            barrier.wait();
            orch.measure(&h, &setups[2], InputSize::Test)
                .expect("measures");
            (a.join().expect("sweep a"), b.join().expect("sweep b"))
        });
        let stats = orch.stats();
        assert_eq!(stats.simulated, 4, "one simulation per key");
        assert_eq!(stats.hits + stats.misses, 9, "one count per request");
        let counters = |rs: &[Result<Measurement, MeasureError>]| -> Vec<Counters> {
            rs.iter()
                .map(|r| r.as_ref().expect("ok").counters)
                .collect()
        };
        assert_eq!(counters(&a), counters(&b));
    }

    #[test]
    fn expired_sweep_deadline_recalls_cached_items_and_simulates_nothing() {
        let orch = Orchestrator::new();
        let h = orch.harness("hmmer").expect("known benchmark");
        let setups = env_setups(4);
        let cached = orch
            .measure(&h, &setups[1], InputSize::Test)
            .expect("measures");
        let results = orch.sweep_deadline(&h, &setups, InputSize::Test, Some(Instant::now()));
        assert_eq!(results.len(), 4);
        for (i, r) in results.iter().enumerate() {
            match r {
                Ok(m) if i == 1 => assert_eq!(m.as_ref().expect("ok").counters, cached.counters),
                Err(DeadlineExceeded) if i != 1 => {}
                other => panic!("item {i}: {other:?}"),
            }
        }
        assert_eq!(
            orch.stats().simulated,
            1,
            "an expired deadline burns nothing"
        );
        assert!(
            orch.cache.lock().inflight.is_empty(),
            "no in-flight cell is left behind"
        );
        // The abandoned keys are free for the next request.
        assert!(orch
            .sweep(&h, &setups, InputSize::Test)
            .iter()
            .all(Result::is_ok));
        assert_eq!(orch.stats().simulated, 4, "each remaining key once");
    }

    #[test]
    fn global_is_a_singleton_and_shares_harnesses() {
        let a = Orchestrator::global();
        let b = Orchestrator::global();
        assert!(std::ptr::eq(a, b));
        let h1 = a.harness("hmmer").expect("known");
        let h2 = b.harness("hmmer").expect("known");
        assert!(Arc::ptr_eq(&h1, &h2));
        assert!(a.harness("no-such-benchmark").is_none());
    }
}
