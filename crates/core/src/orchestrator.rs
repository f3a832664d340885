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
//!   input size, warm-up runs, symbol layout);
//! - **one measurement protocol**: [`Orchestrator::measure`] and every
//!   worker of [`Orchestrator::sweep`] take their keys through the same
//!   single-flight leader/waiter loop, so the cache never runs the same
//!   simulation twice, however callers overlap;
//! - **work-stealing parallel execution** over the deduplicated set of
//!   uncached setups, in lockstep groups: setups that differ only in
//!   their machines share one simulated functional pass
//!   ([`Harness::measure_group`]);
//! - a **capacity bound**: the cache can be capped (oldest-record-first
//!   eviction) via [`Orchestrator::set_cache_cap`] or, for the global
//!   instance, the `BIASLAB_CACHE_CAP` environment variable — evictions
//!   are counted in the instrumentation, and results never depend on
//!   retention. Records, their FIFO order, the cap and the in-flight
//!   cells sit behind one lock, held only for map bookkeeping, never
//!   across a simulation;
//! - **persistence**: [`Orchestrator::attach`] makes a JSON-lines file
//!   under `results/` the one durable log. Each single-flight leader
//!   logs its record before publishing it, and
//!   [`Orchestrator::persist`] is a group commit, so an interrupted
//!   `repro all` or a killed `biaslab serve` resumes instead of
//!   restarting. The same file holds one line per reference outcome a
//!   run interpreted, keyed by benchmark, input size and a digest of the
//!   module and arguments it was computed from, and each new harness is
//!   seeded from them, so a resumed run neither simulates nor interprets
//!   what an earlier run already did;
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
//! human-readable setup summary as a cross-check. Warm-up runs and symbol
//! layouts are setup factors like the others: a warm measurement runs its
//! warm-up runs on the measured run's machine, so it too is a
//! deterministic function of its key.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::fs::File;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, OnceLock};
use std::time::Instant;

use biaslab_toolchain::load::Environment;
use biaslab_toolchain::OptLevel;
use biaslab_uarch::{Counters, MachineConfig, RunError, MAX_GROUP};
use biaslab_workloads::{benchmark_by_name, benchmark_names, Expected, InputSize};
use parking_lot::Mutex;

use crate::faults::{self, site};
use crate::harness::{Harness, MeasureError, Measurement};
use crate::jsonl::{self, fnv64};
use crate::setup::{ExperimentSetup, LinkOrder, SymbolLayout};
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

/// Content-addresses a symbol-layout remedy for the cache key: FNV-64 over
/// a canonical rendering of the remedy, or 0 for none.
#[must_use]
pub fn layout_digest(l: Option<&SymbolLayout>) -> u64 {
    match l {
        None => 0,
        Some(SymbolLayout::Pad { symbol, bytes }) => {
            fnv64(&format!("layout pad symbol={symbol} bytes={bytes}"))
        }
        Some(SymbolLayout::Align { symbol, align }) => {
            fnv64(&format!("layout align symbol={symbol} align={align}"))
        }
    }
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
    /// Warm-up runs before the measured run.
    pub warmup_runs: u32,
    /// [`layout_digest`] of the symbol-layout remedy (0 for none).
    pub symbol_layout: u64,
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
            warmup_runs: setup.warmup_runs,
            symbol_layout: layout_digest(setup.symbol_layout.as_ref()),
        }
    }

    /// A stable FNV-64 digest of the whole key — the `key` field telemetry
    /// events and spans carry, so a trace can correlate every cache
    /// interaction with the measurement it was about without embedding
    /// ten setup fields per event. Warm-up runs and a symbol layout extend
    /// the digested text only when set, so a key without them digests as
    /// it did before they existed.
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
            warmup_runs,
            symbol_layout,
        } = self;
        let mut canon = format!(
            "key bench={bench} machine={machine:016x} opt={opt} order={} \
             text_offset={text_offset} stack_shift={stack_shift} env={env:016x} size={}",
            order_str(*link_order),
            size_str(*size),
        );
        if *warmup_runs != 0 {
            canon.push_str(&format!(" warmup={warmup_runs}"));
        }
        if *symbol_layout != 0 {
            canon.push_str(&format!(" layout={symbol_layout:016x}"));
        }
        fnv64(&canon)
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

/// The results directory: `BIASLAB_RESULTS_DIR`, or `results` when unset.
#[must_use]
pub fn results_dir() -> PathBuf {
    std::env::var_os("BIASLAB_RESULTS_DIR").map_or_else(|| PathBuf::from("results"), PathBuf::from)
}

/// The results file: `measurements.jsonl` under [`results_dir`].
#[must_use]
pub fn results_path() -> PathBuf {
    results_dir().join("measurements.jsonl")
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
    /// The results file the cache last matched: the path last saved or
    /// cleanly loaded, with the cache's change count and the number of
    /// reference outcomes held at that moment. Held across each whole
    /// save, so saves never interleave.
    persisted: Mutex<Option<Persisted>>,
    /// The attached results file ([`Orchestrator::attach`]); unset, the
    /// orchestrator logs nothing, at the cost of one atomic load.
    log: OnceLock<Mutex<Log>>,
    /// Lines for the attached log that no caller has written yet.
    queued: Mutex<Vec<String>>,
}

/// The attached results file. Its mutex is never taken while another
/// orchestrator lock is held; a compaction takes those inside it.
#[derive(Debug)]
struct Log {
    path: PathBuf,
    /// Open for append; `None` once the log closed, after which it writes
    /// nothing.
    file: Option<File>,
    /// Holds the exclusive lock on the sidecar `measurements.jsonl.lock`
    /// (the path with its extension replaced by `jsonl.lock`).
    lock: Option<File>,
    /// Lines were appended since the last fsync.
    pending: bool,
    /// The reference outcomes the file holds.
    references: References,
}

impl Log {
    /// Opens the file for append.
    fn open(&mut self) -> io::Result<()> {
        self.file = Some(File::options().create(true).append(true).open(&self.path)?);
        Ok(())
    }

    /// Appends one line in one `write_all`, where `save.io`, `save.short`
    /// and `save.crash` (half the line, close, unrecoverable panic: what a
    /// `kill -9` mid-append leaves) fire.
    fn append(&mut self, line: &str) -> io::Result<()> {
        let Some(file) = self.file.as_mut() else {
            return Ok(());
        };
        self.pending = true;
        if faults::active() {
            if let Some(e) = faults::io_error(site::SAVE_IO) {
                return Err(e);
            }
            let half = &line.as_bytes()[..line.len() / 2];
            if faults::fire(site::SAVE_SHORT) {
                file.write_all(half)?;
                return Err(io::Error::other("injected fault: save.short"));
            }
            if faults::fire(site::SAVE_CRASH) {
                let _ = file.write_all(half);
                (self.file, self.lock) = (None, None);
                std::panic::panic_any(faults::InjectedPanic { recoverable: false });
            }
        }
        file.write_all(format!("{line}\n").as_bytes())
    }
}

/// What [`Orchestrator::persist`] compares to skip an unchanged write.
#[derive(Debug)]
struct Persisted {
    path: PathBuf,
    changes: u64,
    references: usize,
}

/// A reference outcome keyed by benchmark and input size, with the
/// [`Harness::reference_digest`] it was computed under.
type References = HashMap<(String, InputSize), (u64, Expected)>;

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
            persisted: Mutex::default(),
            log: OnceLock::new(),
            queued: Mutex::default(),
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
    /// to [`Orchestrator::group_request`] and elect a new leader.
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

/// A deadline-bounded request's answer: the measurement's result, or
/// [`DeadlineExceeded`] when the deadline passed before one was available.
type Answer = Result<Result<Measurement, MeasureError>, DeadlineExceeded>;

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
    /// Reference outcomes read from a results file and not yet found
    /// stale; a new harness is seeded from them.
    references: References,
    /// Records added, replaced or evicted and loaded references dropped so
    /// far: with the count of reference outcomes held (which otherwise
    /// only grows), equal counts mean equal contents, which is how
    /// [`Orchestrator::persist`] skips a rewrite.
    changes: u64,
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
        self.changes += 1;
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
            self.changes += 1;
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
    /// by every experiment in the process. The first request for a name
    /// builds that one benchmark and seeds it with the reference outcomes
    /// [`Orchestrator::load`] read for it; an unknown name builds nothing
    /// and caches nothing.
    #[must_use]
    pub fn harness(&self, name: &str) -> Option<Arc<Harness>> {
        let mut reg = self.harnesses.lock();
        if let Some(h) = reg.get(name) {
            return Some(h.clone());
        }
        let h = Arc::new(Harness::new(benchmark_by_name(name)?));
        self.seed(&h);
        reg.insert(name.to_owned(), h.clone());
        Some(h)
    }

    /// Seeds `h`'s benchmark with the loaded reference outcomes for it. A
    /// loaded outcome whose digest is not the harness's own was computed
    /// from another kernel or input: it is dropped and counted as pruned,
    /// and the benchmark interprets again when asked.
    fn seed(&self, h: &Harness) {
        for size in [InputSize::Test, InputSize::Ref] {
            let key = (h.benchmark().name().to_owned(), size);
            let Some((digest, e)) = self.cache.lock().references.get(&key).copied() else {
                continue;
            };
            if h.seed_reference(size, digest, e) {
                continue;
            }
            let mut cache = self.cache.lock();
            if cache
                .references
                .get(&key)
                .is_some_and(|&(d, _)| d == digest)
            {
                cache.references.remove(&key);
                cache.changes += 1;
                self.pruned.add(1);
            }
        }
    }

    /// Every reference outcome the process holds: those loaded and not
    /// found stale, and those each registered harness holds, seeded or
    /// interpreted.
    fn held_references(&self) -> References {
        let harnesses: Vec<Arc<Harness>> = self.harnesses.lock().values().cloned().collect();
        let mut held = self.cache.lock().references.clone();
        for h in harnesses {
            for (size, digest, e) in h.references() {
                held.insert((h.benchmark().name().to_owned(), size), (digest, e));
            }
        }
        held
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
        let (r, outcome) = self
            .group_request(harness, &[(&key, setup)], size, deadline, true)
            .pop()
            .expect("one answer per member");
        if let Some(span) = span {
            span.with_outcome(outcome).close();
        }
        r
    }

    /// The single-flight measurement protocol behind
    /// [`Orchestrator::measure`] (a group of one) and every
    /// [`Orchestrator::sweep`] worker, for the keys of one lockstep group:
    /// setups that share a functional pass
    /// ([`ExperimentSetup::shares_functional_pass`]). Each key is recalled
    /// when cached, waited for when another request leads it, and led
    /// otherwise; the keys this request leads run as one group
    /// ([`Orchestrator::simulate_group`]), and each is logged and
    /// published on its own. With `count` set, each key counts one hit or
    /// miss (a sweep counts its requests in its lookup pass instead).
    /// Results come back in member order.
    ///
    /// The protocol is a loop because a leader can die: a key whose
    /// leader abandoned it goes around again and — finding neither a
    /// cached record nor an in-flight cell — is led by this request. A
    /// leader that panics on an injected *recoverable* fault
    /// ([`site::LEADER_PANIC`]) retries its whole group in place; any
    /// other leader panic unwinds out (each key's [`LeaderGuard`] abandons
    /// its cell on the way), so the panic stays visible to the panicking
    /// caller while the waiters recover. Stats count once per key whatever
    /// the number of takeover rounds.
    fn group_request(
        &self,
        harness: &Harness,
        members: &[(&MeasureKey, &ExperimentSetup)],
        size: InputSize,
        deadline: Option<Instant>,
        count: bool,
    ) -> Vec<(Answer, CacheOutcome)> {
        let mut answers: Vec<Option<Answer>> = vec![None; members.len()];
        let mut noted: Vec<Option<CacheOutcome>> = vec![None; members.len()];
        let mut note_once = |i: usize, outcome: CacheOutcome| {
            *noted[i].get_or_insert_with(|| {
                if count {
                    self.note(outcome, members[i].0);
                }
                outcome
            })
        };
        let mut pending: Vec<usize> = (0..members.len()).collect();
        while !pending.is_empty() {
            let (mut cached, mut waits, mut leads) = (Vec::new(), Vec::new(), Vec::new());
            {
                let mut cache = self.cache.lock();
                for i in pending.drain(..) {
                    let key = members[i].0;
                    if let Some(r) = cache.records.get(key) {
                        cached.push((i, r.clone()));
                    } else if let Some(cell) = cache.inflight.get(key) {
                        waits.push((i, cell.clone()));
                    } else {
                        let cell = Arc::new(InflightCell::default());
                        cache.inflight.insert(key.clone(), cell.clone());
                        leads.push((i, cell));
                    }
                }
            }
            for (i, r) in cached {
                note_once(i, CacheOutcome::Hit);
                answers[i] = Some(Ok(r));
            }
            if !leads.is_empty() {
                for &(i, _) in &leads {
                    note_once(i, CacheOutcome::Miss);
                }
                for (i, r) in self.lead(harness, members, &leads, size, deadline) {
                    answers[i] = Some(r);
                }
            }
            // Wait only once this request's own keys are published, so a
            // waiter on them never waits on this request's waits.
            for (i, cell) in waits {
                note_once(i, CacheOutcome::Hit);
                match Self::wait(&cell, deadline) {
                    Some(answer) => answers[i] = Some(answer),
                    None => pending.push(i), // abandoned: take over
                }
            }
        }
        answers
            .into_iter()
            .zip(noted)
            .map(|(answer, outcome)| {
                (
                    answer.expect("every key is answered"),
                    outcome.expect("every key is noted"),
                )
            })
            .collect()
    }

    /// Waits on another leader's in-flight cell: its result, or
    /// `DeadlineExceeded` once the deadline passes first (the leader's
    /// result still lands in the cache), or `None` if the leader abandoned
    /// the cell and the key must be led again.
    fn wait(cell: &InflightCell, deadline: Option<Instant>) -> Option<Answer> {
        let mut state = lock_unpoisoned(&cell.state);
        loop {
            match &*state {
                CellState::Done(r) => return Some(Ok((**r).clone())),
                CellState::Abandoned => return None,
                CellState::Pending => match deadline {
                    None => state = wait_unpoisoned(&cell.ready, state),
                    Some(d) => {
                        let now = Instant::now();
                        if now >= d {
                            return Some(Err(DeadlineExceeded));
                        }
                        let (g, _) = wait_timeout_unpoisoned(&cell.ready, state, d - now);
                        state = g;
                    }
                },
            }
        }
    }

    /// Leads the keys `leads` (indices into `members`, each with the
    /// in-flight cell this request registered for it) through one group
    /// simulation, then logs and publishes each key's result.
    fn lead(
        &self,
        harness: &Harness,
        members: &[(&MeasureKey, &ExperimentSetup)],
        leads: &[(usize, Arc<InflightCell>)],
        size: InputSize,
        deadline: Option<Instant>,
    ) -> Vec<(usize, Answer)> {
        let mut guards: Vec<LeaderGuard<'_>> = leads
            .iter()
            .map(|(i, cell)| LeaderGuard {
                orch: self,
                key: members[*i].0,
                cell,
                armed: true,
            })
            .collect();
        if deadline.is_some_and(|d| Instant::now() >= d) {
            // Expired before simulating: don't burn the run. Dropping the
            // still-armed guards retires each cell as `Abandoned`, so any
            // waiters take over leadership instead of wedging.
            drop(guards);
            return leads
                .iter()
                .map(|&(i, _)| (i, Err(DeadlineExceeded)))
                .collect();
        }
        let setups: Vec<&ExperimentSetup> = leads.iter().map(|&(i, _)| members[i].1).collect();
        let results = loop {
            if !faults::active() {
                break self.simulate_group(harness, &setups, size);
            }
            // Injected panics carry a marker payload: a recoverable one is
            // swallowed and the leader retries the whole group in place;
            // anything else (including the deliberately unrecoverable hard
            // site) unwinds out through the guards so waiters take over.
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                faults::maybe_panic_leader();
                self.simulate_group(harness, &setups, size)
            })) {
                Ok(r) => break r,
                Err(payload) => {
                    if faults::injected_panic(payload.as_ref()).is_some_and(|p| p.recoverable) {
                        faults::recovered("leader.retry");
                        continue;
                    }
                    std::panic::resume_unwind(payload);
                }
            }
        };
        leads
            .iter()
            .zip(&mut guards)
            .zip(results)
            .map(|((&(i, ref cell), guard), r)| {
                let key = members[i].0;
                // Log a successful record before publishing it: every
                // record another request can see is then written or
                // queued, so any caller's sync covers it.
                if let (Some(log), Ok(m)) = (self.log.get(), &r) {
                    self.queued.lock().push(record_line(key, m));
                    self.write_queued(log);
                }
                // Publish to the cache and retire the in-flight entry in
                // one critical section: a new requester sees either the
                // cached record or the in-flight cell, never a gap between
                // them. This is the only place a measured result enters
                // the cache.
                let evicted = {
                    let mut cache = self.cache.lock();
                    cache.inflight.remove(key);
                    cache.insert(key.clone(), r.clone())
                };
                guard.armed = false;
                self.note_evicted(&evicted);
                *lock_unpoisoned(&cell.state) = CellState::Done(Box::new(r.clone()));
                cell.ready.notify_all();
                (i, Ok(r))
            })
            .collect()
    }

    /// Runs one lockstep group's simulation with the watchdog and the
    /// orchestrator's simulated/busy accounting, returning one result per
    /// setup. Only a single-flight leader calls it; each setup counts as
    /// one simulation, and the group's time counts once as busy time.
    ///
    /// The watchdog works per setup. An injected [`site::MEASURE_RUNAWAY`]
    /// fault fires per setup, and a setup it fires on is answered without
    /// joining the group. A runaway — the instruction budget exhausting
    /// ([`RunError::Budget`]), or the injected fault — becomes
    /// [`MeasureError::Watchdog`], and the setup is retried once on its
    /// own (the retry never re-injects, so injected runaways always
    /// recover); on a second trip the key is quarantined: the error is
    /// returned, and the caller caches it like any other, so re-requests
    /// fail fast.
    fn simulate_group(
        &self,
        harness: &Harness,
        setups: &[&ExperimentSetup],
        size: InputSize,
    ) -> Vec<Result<Measurement, MeasureError>> {
        fn watchdogify(e: MeasureError) -> MeasureError {
            match e {
                MeasureError::Run(RunError::Budget(limit)) => MeasureError::Watchdog { limit },
                e => e,
            }
        }
        let start = Instant::now();
        let runaway: Vec<bool> = setups
            .iter()
            .map(|_| faults::fire(site::MEASURE_RUNAWAY))
            .collect();
        let joined: Vec<&ExperimentSetup> = setups
            .iter()
            .zip(&runaway)
            .filter(|&(_, &fired)| !fired)
            .map(|(&s, _)| s)
            .collect();
        let mut grouped = if joined.is_empty() {
            Vec::new()
        } else {
            harness.measure_group(&joined, size)
        }
        .into_iter();
        let results = setups
            .iter()
            .zip(runaway)
            .map(|(setup, fired)| {
                let mut r = if fired {
                    Err(MeasureError::Watchdog {
                        limit: setup.machine.max_instructions,
                    })
                } else {
                    grouped
                        .next()
                        .expect("one result per joined setup")
                        .map_err(watchdogify)
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
                r
            })
            .collect();
        self.busy_us.add(start.elapsed().as_micros() as u64);
        results
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

        // Pre-warm compilation serially: `Harness::compiled` makes
        // concurrent callers wait for one compile of a level anyway, and
        // warming here keeps workers measuring.
        let mut warmed: Vec<OptLevel> = work.iter().map(|(k, _)| k.opt).collect();
        warmed.sort_unstable();
        warmed.dedup();
        for level in warmed {
            let _ = harness.compiled(level);
        }
        // Uncached keys that share a functional pass run as lockstep
        // groups, one work item each. Profiled runs are single-machine, so
        // with profiles on every group has one member.
        let cap = if telemetry::profiles_enabled() {
            1
        } else {
            MAX_GROUP
        };
        let work = lockstep_groups(&work, cap);
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
                        while let Some(group) = work.get(next.fetch_add(1, Ordering::Relaxed)) {
                            if faults::active() {
                                faults::delay(site::WORKER_DELAY);
                            }
                            // The group's stages nest under its first key's
                            // `measure` span; each other key gets its own
                            // `measure` span right after.
                            let span = |(key, _): &(&MeasureKey, _)| {
                                telemetry::Span::open("measure", &key.bench)
                                    .with_key(key.digest())
                                    .with_outcome(CacheOutcome::Miss)
                            };
                            let first = traced.then(|| span(&group[0]));
                            // The lookup pass already counted these requests.
                            let rs = self.group_request(harness, group, size, deadline, false);
                            if let Some(first) = first {
                                first.close();
                                for member in &group[1..] {
                                    span(member).close();
                                }
                            }
                            done.extend(group.iter().zip(rs).map(|(&(key, _), (r, _))| (key, r)));
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

    /// Persists every successful cached measurement, and every reference
    /// outcome the process holds, as one sealed JSON line each (see the
    /// module docs), sorted, through `jsonl::write_atomic`: a crash leaves
    /// either the complete old file or the complete new one, and a failed
    /// write leaks no temp file. Returns the number of measurement records
    /// written.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing or renaming. Callers that want
    /// retry and graceful degradation use [`Orchestrator::persist`].
    pub fn save(&self, path: &Path) -> std::io::Result<usize> {
        let mut persisted = self.persisted.lock();
        // Clone the successful records under the lock and format them
        // outside it; sort by the record line itself for a deterministic
        // file order.
        let (records, changes): (Vec<(MeasureKey, Measurement)>, u64) = {
            let cache = self.cache.lock();
            let records = cache
                .records
                .iter()
                .filter_map(|(k, r)| Some((k.clone(), r.as_ref().ok()?.clone())))
                .collect();
            (records, cache.changes)
        };
        let references = self.held_references();
        let mut lines: Vec<String> = records.iter().map(|(k, m)| record_line(k, m)).collect();
        lines.extend(
            references
                .iter()
                .map(|((bench, size), (digest, e))| reference_line(bench, *size, *digest, e)),
        );
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
            Ok(())
        })?;
        *persisted = Some(Persisted {
            path: path.to_owned(),
            changes,
            references: references.len(),
        });
        Ok(records.len())
    }

    /// [`Orchestrator::save`] with transient-failure handling: up to three
    /// attempts with a short backoff, then graceful degradation — one
    /// warning on stderr, the `orch.persist_degraded` counter, and
    /// in-memory-only operation from then on (later calls return
    /// immediately). Returns the number of records written, `0` when
    /// degraded. Measurements are never lost to a persistence failure:
    /// results flow to callers directly, the file is only a resume
    /// accelerator.
    ///
    /// An unchanged cache is not rewritten: when `path` is the file last
    /// saved or cleanly loaded, it still exists, no record has been
    /// added, replaced or evicted since and no reference outcome has been
    /// interpreted or dropped, the call writes nothing and returns the
    /// count a write would have.
    /// On the attached results file the call is [`Orchestrator::sync`].
    pub fn persist(&self, path: &Path) -> usize {
        if self.degraded.load(Ordering::Relaxed) {
            return 0;
        }
        if self.log.get().is_some_and(|log| log.lock().path == path) {
            self.sync();
            let cache = self.cache.lock();
            return cache.records.values().filter(|r| r.is_ok()).count();
        }
        if let Some(n) = self.unchanged_on_disk(path) {
            return n;
        }
        jsonl::retry_io(|| self.save(path)).unwrap_or_else(|e| {
            self.degrade(path, &e);
            0
        })
    }

    /// Gives up on the results file: one warning, `orch.persist_degraded`,
    /// and no more I/O from [`Orchestrator::persist`].
    fn degrade(&self, path: &Path, why: &dyn fmt::Display) {
        if !self.degraded.swap(true, Ordering::Relaxed) {
            self.persist_degraded.add(1);
            faults::recovered("persist.degraded");
            eprintln!(
                "warning: could not write results file {} ({why}); continuing in-memory only",
                path.display(),
            );
        }
    }

    /// The number of records a save would write, if `path` already holds
    /// exactly them (see [`Orchestrator::persist`]).
    fn unchanged_on_disk(&self, path: &Path) -> Option<usize> {
        let persisted = self.persisted.lock();
        let saved = persisted.as_ref()?;
        if saved.path != path || !path.exists() {
            return None;
        }
        if self.held_references().len() != saved.references {
            return None;
        }
        let cache = self.cache.lock();
        (cache.changes == saved.changes)
            .then(|| cache.records.values().filter(|r| r.is_ok()).count())
    }

    /// Makes the results file at `path` this orchestrator's one durable
    /// log: takes an exclusive lock on a sidecar lock file, `load`s
    /// the file, compacts it through `save` unless it matched what was
    /// loaded and ends in a newline (so no append lands on half a line),
    /// and opens it for append. From then on each leader logs its
    /// successful record before publishing it, and [`Orchestrator::sync`]
    /// commits. When another process holds the lock, the file is loaded
    /// and never written, with one warning, as if persistence degraded.
    /// Attach once. Returns how many records were restored.
    ///
    /// # Errors
    ///
    /// Errors from `load`, which leave the orchestrator unattached.
    pub fn attach(&self, path: &Path) -> io::Result<usize> {
        let lock_path = path.with_extension("jsonl.lock");
        let locked = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| File::create(&lock_path))
            .and_then(|lock| lock.try_lock().map(|()| lock).map_err(io::Error::from));
        let lock = match locked {
            Ok(lock) => lock,
            Err(e) => {
                let why = format!(
                    "{} is held by another writer or unwritable: {e}",
                    lock_path.display()
                );
                self.degrade(path, &why);
                return self.load(path);
            }
        };
        let (restored, whole) = self.load_lines(path)?;
        let clean = whole && self.unchanged_on_disk(path).is_some();
        let mut log = Log {
            path: path.to_owned(),
            file: None,
            lock: Some(lock),
            pending: false,
            references: self.held_references(),
        };
        self.log_io(&mut log, !clean, Log::open);
        let _ = self.log.set(Mutex::new(log));
        Ok(restored)
    }

    /// The attached log's group commit: appends the reference outcomes
    /// the file lacks, then one fsync, unless nothing was written since
    /// the last sync. A no-op when no log is attached.
    pub fn sync(&self) {
        if let Some(log) = self.log.get() {
            let lines = std::mem::take(&mut *self.queued.lock());
            self.log_io(&mut log.lock(), false, |log| {
                lines.iter().try_for_each(|line| log.append(line))?;
                for (key, (digest, e)) in self.held_references() {
                    if log.references.get(&key) != Some(&(digest, e)) {
                        log.append(&reference_line(&key.0, key.1, digest, &e))?;
                        log.references.insert(key, (digest, e));
                    }
                }
                if let Some(file) = log.file.as_ref().filter(|_| log.pending) {
                    file.sync_data()?;
                }
                log.pending = false;
                Ok(())
            });
            self.write_queued(log);
        }
    }

    /// Writes the queued lines, unless another caller holds the log: that
    /// caller writes the queue before it lets go. So a stalled write holds
    /// up only the caller making it.
    fn write_queued(&self, log: &Mutex<Log>) {
        while let Some(mut held) = log.try_lock() {
            let lines = std::mem::take(&mut *self.queued.lock());
            self.log_io(&mut held, false, |log| {
                lines.iter().try_for_each(|line| log.append(line))
            });
            drop(held);
            if self.queued.lock().is_empty() {
                return;
            }
        }
    }

    /// Runs `op` on the log through `jsonl::retry_io`; each retry (and the
    /// first try, with `compact`) first rewrites the file through `save`,
    /// dropping any torn line. Repeated failure closes the log and
    /// degrades.
    fn log_io(
        &self,
        log: &mut Log,
        mut compact: bool,
        mut op: impl FnMut(&mut Log) -> io::Result<()>,
    ) {
        let done = jsonl::retry_io(|| {
            if std::mem::replace(&mut compact, true) {
                let references = self.held_references();
                self.save(&log.path)?;
                log.references = references;
                log.pending = false;
                log.open()?;
            }
            op(log)
        });
        if let Err(e) = done {
            (log.file, log.lock) = (None, None);
            self.degrade(&log.path, &e);
        }
    }

    /// Whether [`Orchestrator::persist`] has degraded to in-memory-only
    /// operation after repeated write failures.
    #[must_use]
    pub fn persist_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Restores measurements and reference outcomes persisted by
    /// [`Orchestrator::save`]. Reference outcomes seed each harness built
    /// from then on (and any already built) whose module and arguments
    /// they were computed from.
    ///
    /// Bad lines are dropped, counted, and never fatal, in two classes:
    /// **pruned** ([`OrchestratorStats::pruned`]) — foreign record
    /// versions, benchmarks this build does not know, and reference
    /// outcomes whose digest a harness does not match, the ordinary
    /// staleness of a file written by an older build; **quarantined**
    /// ([`OrchestratorStats::quarantined`]) — current-version lines that
    /// are torn or corrupt (truncated mid-line, checksum mismatch), the
    /// signature of a crashed writer. Either way the affected key just
    /// re-simulates, or the outcome is interpreted again. Already-cached
    /// keys and outcomes are left untouched. Returns how many measurement
    /// records were restored (reference lines are not counted); a missing
    /// file restores zero. Transient read errors are retried (three
    /// attempts, short backoff) before propagating.
    ///
    /// Loading into an empty orchestrator a file whose every line restores
    /// a record or an outcome leaves it matching the file, so the next
    /// [`Orchestrator::persist`] to it writes nothing. A file with any
    /// pruned, quarantined or duplicate line is rewritten clean at the
    /// next persist.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than the file not existing; the caller
    /// degrades to a cold start (re-simulation), never to wrong data.
    pub fn load(&self, path: &Path) -> std::io::Result<usize> {
        self.load_lines(path).map(|(restored, _)| restored)
    }

    /// [`Orchestrator::load`], and whether the file ends in a newline (or
    /// is empty or missing).
    fn load_lines(&self, path: &Path) -> io::Result<(usize, bool)> {
        let read = jsonl::retry_io(|| match faults::io_error(site::LOAD_IO) {
            Some(e) => Err(e),
            None => match std::fs::read_to_string(path) {
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
                text => text.map(Some),
            },
        })?;
        let Some(text) = read else {
            return Ok((0, true));
        };
        let mut pruned = 0u64;
        let mut quarantined = 0u64;
        let mut lines = 0usize;
        let mut parsed = Vec::new();
        // The last outcome per benchmark and size wins: an appended line
        // supersedes one an earlier build wrote.
        let mut references = References::new();
        let known = |bench: &str| benchmark_names().any(|b| b == bench);
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            lines += 1;
            match parse_record(line) {
                RecordVerdict::Ok(key, m) if known(&key.bench) => parsed.push((key, m)),
                RecordVerdict::Reference(r) if known(&r.bench) => {
                    references.insert((r.bench, r.size), (r.digest, r.expected));
                }
                RecordVerdict::Ok(..) | RecordVerdict::Reference(_) | RecordVerdict::Foreign => {
                    pruned += 1;
                }
                RecordVerdict::Corrupt => quarantined += 1,
            }
        }
        let mut restored = 0usize;
        let mut seeded = 0usize;
        let mut evicted = Vec::new();
        let matches_file = {
            let mut cache = self.cache.lock();
            let was_empty = cache.records.is_empty() && cache.references.is_empty();
            for (key, m) in parsed {
                if !cache.records.contains_key(&key) {
                    evicted.extend(cache.insert(key, Ok(*m)));
                    restored += 1;
                }
            }
            for (key, outcome) in references {
                if let Entry::Vacant(slot) = cache.references.entry(key) {
                    slot.insert(outcome);
                    seeded += 1;
                }
            }
            (was_empty && restored + seeded == lines && evicted.is_empty()).then_some(cache.changes)
        };
        let harnesses: Vec<Arc<Harness>> = self.harnesses.lock().values().cloned().collect();
        for h in &harnesses {
            self.seed(h);
        }
        let held = self.held_references().len();
        if let Some(changes) = matches_file.filter(|_| held == seeded) {
            *self.persisted.lock() = Some(Persisted {
                path: path.to_owned(),
                changes,
                references: held,
            });
        }
        self.note_evicted(&evicted);
        self.loaded.add(restored as u64);
        self.pruned.add(pruned);
        self.quarantined.add(quarantined);
        Ok((restored, text.is_empty() || text.ends_with('\n')))
    }
}

// ---------------------------------------------------------------------------
// Persistence format, read and sealed through `crate::jsonl`. One record
// per line:
//
//   {"v":4,"bench":"hmmer","machine":123,"opt":"O2","order":"rand:7",
//    "text_offset":0,"stack_shift":0,"env":456,"size":"test","warmup":0,
//    "layout":0,"setup":"core2/O2/env=0B/order=default",
//    "checksum":789,"counters":[...],"crc":101112}
//
// `layout` is the [`layout_digest`], 0 for none. `counters` lists every `Counters` field in declaration order. `crc` is
// the `jsonl::seal`: FNV-64 over everything before its own field, so a
// record torn or flipped anywhere is detected on load. One reference
// outcome per line, in the same file:
//
//   {"v":4,"reference":"hmmer","size":"ref","digest":123,"checksum":456,
//    "return_value":0,"ir_ops":789,"crc":101112}
//
// where `digest` is the `Harness::reference_digest` it was computed under.

// Version 2: `machine`/`env` switched from Debug-string digests to the
// canonical named-field digests ([`machine_digest`], [`env_digest`]).
// Version-1 digests are incomparable, so v1 files prune wholesale.
// Version 3: added the per-record `crc` checksum; v2 records carry none
// to verify, so they prune wholesale rather than load unchecked.
// Version 4: added the `warmup` and `layout` key factors and the
// reference-outcome lines; a v3 record does not say which setup it
// measured in those terms, so v3 files prune wholesale.
/// Partitions a sweep's uncached work into lockstep groups of at most
/// `cap` keys: in request order, each key joins the open group whose
/// setups share its functional pass
/// ([`ExperimentSetup::shares_functional_pass`]; a sweep's keys share
/// their benchmark and input size), or opens one, and a full group
/// closes.
fn lockstep_groups<'a>(
    work: &[(&'a MeasureKey, &'a ExperimentSetup)],
    cap: usize,
) -> Vec<Vec<(&'a MeasureKey, &'a ExperimentSetup)>> {
    let mut groups: Vec<Vec<(&MeasureKey, &ExperimentSetup)>> = Vec::new();
    let mut open: Vec<usize> = Vec::new();
    for &(key, setup) in work {
        match open
            .iter()
            .position(|&g| groups[g][0].1.shares_functional_pass(setup))
        {
            Some(at) => {
                let g = open[at];
                groups[g].push((key, setup));
                if groups[g].len() == cap {
                    open.remove(at);
                }
            }
            None => {
                if cap > 1 {
                    open.push(groups.len());
                }
                groups.push(vec![(key, setup)]);
            }
        }
    }
    groups
}

const RECORD_VERSION: u64 = 4;

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
    "warmup",
    "layout",
    "setup",
    "checksum",
    "counters",
    "crc",
];

/// The fields of one reference-outcome line, in order.
pub(crate) const REFERENCE_FIELDS: &[&str] = &[
    "v",
    "reference",
    "size",
    "digest",
    "checksum",
    "return_value",
    "ir_ops",
    "crc",
];

/// One persisted reference outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ReferenceRecord {
    pub(crate) bench: String,
    pub(crate) size: InputSize,
    /// The [`Harness::reference_digest`] it was computed under.
    pub(crate) digest: u64,
    pub(crate) expected: Expected,
}

/// What [`parse_record`] concluded about one line.
#[derive(Debug)]
pub(crate) enum RecordVerdict {
    /// A verified current-version record (boxed: the other verdicts are
    /// small, and verdicts are consumed one line at a time).
    Ok(MeasureKey, Box<Measurement>),
    /// A verified current-version reference outcome.
    Reference(ReferenceRecord),
    /// Not a line of this version — an older build's output (pruned).
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
            "\"env\":{},\"size\":\"{}\",\"warmup\":{},\"layout\":{},",
            "\"setup\":\"{}\",\"checksum\":{},\"counters\":[{}]"
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
        k.warmup_runs,
        k.symbol_layout,
        m.setup,
        m.checksum,
        jsonl::csv(&counters_to_vec(&m.counters)),
    ))
}

pub(crate) fn reference_line(bench: &str, size: InputSize, digest: u64, e: &Expected) -> String {
    jsonl::seal(format!(
        concat!(
            "{{\"v\":{},\"reference\":\"{}\",\"size\":\"{}\",\"digest\":{},",
            "\"checksum\":{},\"return_value\":{},\"ir_ops\":{}"
        ),
        RECORD_VERSION,
        bench,
        size_str(size),
        digest,
        e.checksum,
        e.return_value,
        e.ir_ops,
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
    let parsed = jsonl::unseal(line).and_then(|f| {
        if f.keys_are(REFERENCE_FIELDS) {
            parse_reference(&f)
        } else if f.keys_are(RECORD_FIELDS) {
            parse_measurement(&f)
        } else {
            None
        }
    });
    parsed.unwrap_or(RecordVerdict::Corrupt)
}

/// The measurement record an unsealed [`RECORD_FIELDS`] line holds.
fn parse_measurement(f: &jsonl::Fields<'_>) -> Option<RecordVerdict> {
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
        warmup_runs: u32::try_from(f.u64("warmup")?).ok()?,
        symbol_layout: f.u64("layout")?,
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
}

/// The reference outcome an unsealed [`REFERENCE_FIELDS`] line holds.
fn parse_reference(f: &jsonl::Fields<'_>) -> Option<RecordVerdict> {
    Some(RecordVerdict::Reference(ReferenceRecord {
        bench: f.str("reference")?.to_owned(),
        size: parse_size(f.str("size")?)?,
        digest: f.u64("digest")?,
        expected: Expected {
            checksum: f.u64("checksum")?,
            return_value: f.u64("return_value")?,
            ir_ops: f.u64("ir_ops")?,
        },
    }))
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
        assert_ne!(k(&base), k(&base.with_warmup_runs(2)));
        let pad = |bytes| SymbolLayout::Pad {
            symbol: "main".to_owned(),
            bytes,
        };
        assert_ne!(k(&base), k(&base.with_symbol_layout(pad(8))));
        assert_ne!(
            k(&base.with_symbol_layout(pad(8))),
            k(&base.with_symbol_layout(pad(12)))
        );
        assert_ne!(
            k(&base.with_symbol_layout(pad(8))),
            k(&base.with_symbol_layout(SymbolLayout::Align {
                symbol: "main".to_owned(),
                align: 8,
            }))
        );
        assert_eq!(k(&base), k(&base.clone()));
        // Digests of keys without the new factors are unchanged by them.
        assert_eq!(
            k(&base).digest(),
            fnv64(&format!(
                "key bench=b machine={:016x} opt=O2 order=default text_offset=0 \
                 stack_shift=0 env={:016x} size=test",
                machine_digest(&base.machine),
                env_digest(&base.env)
            ))
        );
        assert_ne!(k(&base).digest(), k(&base.with_warmup_runs(1)).digest());
        assert_ne!(
            k(&base).digest(),
            k(&base.with_symbol_layout(pad(8))).digest()
        );
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
        assert_eq!(layout_digest(None), 0);
        assert_eq!(
            layout_digest(Some(&SymbolLayout::Pad {
                symbol: "main".to_owned(),
                bytes: 8,
            })),
            0x3171_72d0_b0f9_df42
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
        text.push_str(&valid.replace("\"v\":4", "\"v\":1"));
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
    fn an_unknown_benchmark_gets_no_harness_and_caches_nothing() {
        let orch = Orchestrator::new();
        assert!(orch.harness("nonesuch").is_none());
        assert!(orch.harnesses.lock().is_empty());
        let h = orch.harness("hmmer").expect("known benchmark");
        assert!(Arc::ptr_eq(&h, &orch.harness("hmmer").expect("cached")));
        assert_eq!(orch.harnesses.lock().len(), 1);
    }

    /// The file's identity: a rewrite renames a fresh temp file over it,
    /// so the inode changes even when the bytes and mtime do not.
    fn file_state(path: &Path) -> (Vec<u8>, std::time::SystemTime, u64) {
        use std::os::unix::fs::MetadataExt as _;
        let meta = std::fs::metadata(path).expect("results file exists");
        let bytes = std::fs::read(path).expect("read back");
        (bytes, meta.modified().expect("mtime"), meta.ino())
    }

    #[test]
    fn persisting_an_unchanged_cache_writes_nothing() {
        let dir = std::env::temp_dir().join(format!("biaslab-unchanged-{}", std::process::id()));
        let path = dir.join("measurements.jsonl");
        let orch = Orchestrator::new();
        let h = orch.harness("hmmer").expect("known benchmark");
        let setups = env_setups(3);
        let _ = orch.sweep(&h, &setups[..2], InputSize::Test);
        assert_eq!(orch.persist(&path), 2);
        let saved = file_state(&path);
        assert_eq!(orch.persist(&path), 2, "nothing changed since the save");
        assert_eq!(file_state(&path), saved);

        // A resumed run: load, serve every request from the cache, persist.
        let resumed = Orchestrator::new();
        assert_eq!(resumed.load(&path).expect("load"), 2);
        let _ = resumed.sweep(&h, &setups[..2], InputSize::Test);
        assert_eq!(resumed.stats().simulated, 0);
        assert_eq!(resumed.persist(&path), 2, "the count a write would return");
        assert_eq!(file_state(&path), saved, "bytes, mtime and inode untouched");

        // A new record makes the next persist write.
        let _ = resumed.sweep(&h, &setups, InputSize::Test);
        assert_eq!(resumed.persist(&path), 3);
        assert_ne!(file_state(&path).2, saved.2, "rewritten");
        // So does an eviction.
        resumed.set_cache_cap(Some(1));
        assert_eq!(resumed.persist(&path), 1);
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(
            text.lines().filter(|l| l.contains("\"counters\"")).count(),
            1
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_torn_file_is_rewritten_clean_and_other_paths_still_write() {
        let dir = std::env::temp_dir().join(format!("biaslab-rewrite-{}", std::process::id()));
        let path = dir.join("measurements.jsonl");
        let orch = Orchestrator::new();
        let h = orch.harness("milc").expect("known benchmark");
        let _ = orch.sweep(&h, &env_setups(2), InputSize::Test);
        assert_eq!(orch.save(&path).expect("save"), 2);
        let clean = std::fs::read(&path).expect("read back");

        // A crashed writer's torn tail: quarantined on load, and the next
        // persist compacts the file even though no record changed.
        let mut torn = clean.clone();
        torn.extend_from_slice(&clean[..clean.len() / 3]);
        std::fs::write(&path, &torn).expect("tear");
        let fresh = Orchestrator::new();
        assert_eq!(fresh.load(&path).expect("load"), 2);
        assert_eq!(fresh.stats().quarantined, 1);
        assert_eq!(fresh.persist(&path), 2);
        assert_eq!(std::fs::read(&path).expect("read back"), clean);

        // Another path is written even though the cache matches `path`…
        let other = dir.join("other.jsonl");
        assert_eq!(fresh.persist(&other), 2);
        assert_eq!(std::fs::read(&other).expect("read other"), clean);
        // …and so is a matched file that has since disappeared.
        std::fs::remove_file(&other).expect("remove");
        assert_eq!(fresh.persist(&other), 2);
        assert_eq!(std::fs::read(&other).expect("read other"), clean);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The lines of a results file, and the index of its one reference
    /// line for `size`.
    fn reference_at(path: &Path, size: InputSize) -> (Vec<String>, usize) {
        let text = std::fs::read_to_string(path).expect("read back");
        let lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let tag = format!("\"size\":\"{}\"", size_str(size));
        let at = lines
            .iter()
            .position(|l| l.contains("\"reference\"") && l.contains(&tag))
            .expect("a reference line");
        (lines, at)
    }

    #[test]
    fn reference_outcomes_persist_and_seed_new_harnesses() {
        let dir = std::env::temp_dir().join(format!("biaslab-refs-{}", std::process::id()));
        let path = dir.join("measurements.jsonl");
        let orch = Orchestrator::new();
        let h = orch.harness("hmmer").expect("known benchmark");
        let _ = orch.sweep(&h, &env_setups(2), InputSize::Test);
        let expected = h.benchmark().expected(InputSize::Test);
        assert_eq!(orch.persist(&path), 2, "references are not counted");
        let (lines, at) = reference_at(&path, InputSize::Test);
        assert_eq!(lines.len(), 3);
        assert!(matches!(
            parse_record(&lines[at]),
            RecordVerdict::Reference(ReferenceRecord { ref bench, digest, .. })
                if bench == "hmmer" && digest == h.reference_digest(InputSize::Test)
        ));
        // An outcome interpreted after the last save is a change.
        let saved = file_state(&path);
        let _ = h.benchmark().expected(InputSize::Ref);
        assert_eq!(orch.persist(&path), 2);
        assert_ne!(file_state(&path).2, saved.2, "rewritten");
        let (lines, _) = reference_at(&path, InputSize::Ref);
        assert_eq!(lines.len(), 4, "two records, two references");

        // A fresh process seeds its harness instead of interpreting, and
        // an unchanged resume writes nothing.
        let saved = file_state(&path);
        let fresh = Orchestrator::new();
        assert_eq!(fresh.load(&path).expect("load"), 2);
        let seeded = fresh.harness("hmmer").expect("known benchmark");
        assert_eq!(
            seeded.benchmark().held_expected(InputSize::Test),
            Some(expected)
        );
        assert!(seeded.benchmark().held_expected(InputSize::Ref).is_some());
        assert_eq!(fresh.stats().pruned, 0);
        assert_eq!(fresh.persist(&path), 2);
        assert_eq!(file_state(&path), saved, "bytes, mtime and inode untouched");
        // Harnesses built before the load are seeded by it.
        let early = Orchestrator::new();
        let built = early.harness("hmmer").expect("known benchmark");
        assert_eq!(early.load(&path).expect("load"), 2);
        assert_eq!(
            built.benchmark().held_expected(InputSize::Test),
            Some(expected)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_reference_line_with_a_wrong_digest_prunes_and_is_interpreted_again() {
        let dir = std::env::temp_dir().join(format!("biaslab-refdigest-{}", std::process::id()));
        let path = dir.join("measurements.jsonl");
        let orch = Orchestrator::new();
        let h = orch.harness("milc").expect("known benchmark");
        let _ = orch.sweep(&h, &env_setups(1), InputSize::Test);
        let expected = h.benchmark().expected(InputSize::Test);
        assert_eq!(orch.save(&path).expect("save"), 1);
        let clean = std::fs::read(&path).expect("read back");

        // Another build's kernel: same benchmark and size, another digest,
        // and a stale outcome a seed would wrongly trust.
        let (mut lines, at) = reference_at(&path, InputSize::Test);
        let digest = h.reference_digest(InputSize::Test);
        let body = lines[at].rsplit_once(",\"crc\":").expect("sealed").0;
        let stale = body
            .replacen(
                &format!("\"digest\":{digest}"),
                &format!("\"digest\":{}", digest ^ 1),
                1,
            )
            .replacen(
                &format!("\"checksum\":{}", expected.checksum),
                &format!("\"checksum\":{}", expected.checksum ^ 1),
                1,
            );
        lines[at] = jsonl::seal(stale);
        std::fs::write(&path, lines.join("\n") + "\n").expect("rewrite");

        let fresh = Orchestrator::new();
        assert_eq!(fresh.load(&path).expect("load"), 1);
        assert_eq!(
            fresh.stats().pruned,
            0,
            "staleness shows when a harness is built"
        );
        let rebuilt = fresh.harness("milc").expect("known benchmark");
        assert_eq!(fresh.stats().pruned, 1);
        assert_eq!(rebuilt.benchmark().held_expected(InputSize::Test), None);
        assert_eq!(rebuilt.benchmark().expected(InputSize::Test), expected);
        // The measurement still verifies, and the next persist writes the
        // interpreted outcome under the right digest.
        let m = fresh
            .measure(&rebuilt, &env_setups(1)[0], InputSize::Test)
            .expect("cached");
        assert_eq!(fresh.stats().simulated, 0);
        assert_eq!(m.checksum, expected.checksum);
        assert_eq!(fresh.persist(&path), 1);
        assert_eq!(std::fs::read(&path).expect("read back"), clean);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The attached log appends an outcome interpreted again after its
    /// stale line was pruned; on reload the later line wins, so the
    /// outcome is seeded rather than pruned and interpreted once more.
    #[test]
    fn an_appended_reference_outcome_supersedes_a_stale_one() {
        let dir = std::env::temp_dir().join(format!("biaslab-refappend-{}", std::process::id()));
        let path = dir.join("measurements.jsonl");
        let _ = std::fs::remove_dir_all(&dir);
        let setup = &env_setups(1)[0];
        let stale = Orchestrator::new();
        let h = stale.harness("milc").expect("known benchmark");
        let expected = h.benchmark().expected(InputSize::Test);
        let digest = h.reference_digest(InputSize::Test);
        let line = reference_line("milc", InputSize::Test, digest ^ 1, &expected);
        std::fs::create_dir_all(&dir).expect("results dir");
        std::fs::write(&path, line + "\n").expect("a stale outcome");

        let orch = Orchestrator::new();
        assert_eq!(orch.attach(&path).expect("attach"), 0);
        let h = orch.harness("milc").expect("known benchmark");
        assert_eq!(orch.stats().pruned, 1);
        orch.measure(&h, setup, InputSize::Test).expect("measures");
        assert_eq!(orch.persist(&path), 1);
        let (lines, _) = reference_at(&path, InputSize::Test);
        assert_eq!(lines.len(), 3, "the stale outcome, a record, the fresh one");

        let again = Orchestrator::new();
        assert_eq!(again.load(&path).expect("load"), 1);
        let seeded = again.harness("milc").expect("known benchmark");
        assert_eq!(again.stats().pruned, 0, "the later line won");
        assert_eq!(
            seeded.benchmark().held_expected(InputSize::Test),
            Some(expected)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_torn_reference_line_is_quarantined_and_compacted() {
        let dir = std::env::temp_dir().join(format!("biaslab-reftorn-{}", std::process::id()));
        let path = dir.join("measurements.jsonl");
        let orch = Orchestrator::new();
        let h = orch.harness("mcf").expect("known benchmark");
        let _ = orch.sweep(&h, &env_setups(1), InputSize::Test);
        assert_eq!(orch.save(&path).expect("save"), 1);
        let clean = std::fs::read(&path).expect("read back");
        let (lines, at) = reference_at(&path, InputSize::Test);
        let mut torn = clean.clone();
        torn.extend_from_slice(&lines[at].as_bytes()[..lines[at].len() / 2]);
        std::fs::write(&path, &torn).expect("tear");

        let fresh = Orchestrator::new();
        assert_eq!(fresh.load(&path).expect("load"), 1);
        assert_eq!(fresh.stats().quarantined, 1);
        let seeded = fresh.harness("mcf").expect("known benchmark");
        assert!(seeded.benchmark().held_expected(InputSize::Test).is_some());
        assert_eq!(fresh.persist(&path), 1);
        assert_eq!(std::fs::read(&path).expect("read back"), clean, "compacted");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_v3_file_prunes_wholesale_and_is_rewritten_as_v4() {
        let dir = std::env::temp_dir().join(format!("biaslab-v3-{}", std::process::id()));
        let path = dir.join("measurements.jsonl");
        let orch = Orchestrator::new();
        let h = orch.harness("sphinx3").expect("known benchmark");
        let setups = env_setups(2);
        let _ = orch.sweep(&h, &setups, InputSize::Test);
        assert_eq!(orch.save(&path).expect("save"), 2);
        let v4 = std::fs::read(&path).expect("read back");

        // What the previous build wrote: records without the two new
        // factors, sealed as version 3, and no reference lines.
        let text = std::fs::read_to_string(&path).expect("read back");
        let v3: String = text
            .lines()
            .filter(|l| !l.contains("\"reference\""))
            .map(|l| {
                let body = l.rsplit_once(",\"crc\":").expect("sealed").0;
                let body = body.replacen("\"v\":4", "\"v\":3", 1).replacen(
                    ",\"warmup\":0,\"layout\":\"none\"",
                    "",
                    1,
                );
                jsonl::seal(body) + "\n"
            })
            .collect();
        std::fs::write(&path, &v3).expect("write v3");

        let fresh = Orchestrator::new();
        assert_eq!(fresh.load(&path).expect("load"), 0);
        assert_eq!(fresh.stats().pruned, 2);
        assert_eq!(fresh.stats().quarantined, 0, "stale, not corrupt");
        assert_eq!(fresh.persist(&path), 0);
        assert_eq!(
            std::fs::read_to_string(&path).expect("read back"),
            "",
            "no v3 line survives the next persist"
        );
        let rebuilt = fresh.harness("sphinx3").expect("known benchmark");
        let _ = fresh.sweep(&rebuilt, &setups, InputSize::Test);
        assert_eq!(fresh.stats().simulated, 2);
        assert_eq!(fresh.persist(&path), 2);
        assert_eq!(std::fs::read(&path).expect("read back"), v4);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A resume that only hits the cache neither writes nor syncs the
    /// attached log: its bytes, mtime and inode stay as they were. The
    /// log's handle is swapped for `/dev/null`, whose fsync fails, so a
    /// sync with nothing pending would show as a retry that compacts.
    #[test]
    fn resuming_a_clean_log_writes_and_syncs_nothing() {
        let dir = std::env::temp_dir().join(format!("biaslab-resume-{}", std::process::id()));
        let path = dir.join("measurements.jsonl");
        let _ = std::fs::remove_dir_all(&dir);
        let setups = env_setups(2);
        {
            let orch = Orchestrator::new();
            assert_eq!(orch.attach(&path).expect("attach"), 0);
            let h = orch.harness("hmmer").expect("known benchmark");
            let _ = orch.sweep(&h, &setups, InputSize::Test);
            assert_eq!(orch.persist(&path), 2);
        }
        let saved = file_state(&path);
        let resumed = Orchestrator::new();
        assert_eq!(resumed.attach(&path).expect("attach"), 2);
        assert_eq!(file_state(&path), saved, "a clean log is not compacted");
        let devnull = File::options().append(true).open("/dev/null");
        resumed.log.get().expect("attached").lock().file = Some(devnull.expect("/dev/null"));
        let h = resumed.harness("hmmer").expect("known benchmark");
        let _ = resumed.sweep(&h, &setups, InputSize::Test);
        assert_eq!(resumed.stats().simulated, 0);
        assert_eq!(resumed.persist(&path), 2);
        assert!(!resumed.persist_degraded());
        assert_eq!(file_state(&path), saved, "bytes, mtime and inode untouched");
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
            parse_record("{\"v\":4,\"bench\":\"x\"}"),
            RecordVerdict::Corrupt
        ));
        assert!(matches!(
            parse_record("{\"v\":4,\"bench\":\"x\",\"crc\":12}"),
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
            warmup_runs: 0,
            symbol_layout: 0,
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
            warmup_runs: 3,
            symbol_layout: layout_digest(Some(&SymbolLayout::Align {
                symbol: "main".to_owned(),
                align: 64,
            })),
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

    /// The three paper machines at each of `envs` environment sizes, at
    /// O2: one functional identity per environment.
    fn machine_setups(envs: &[u32]) -> Vec<ExperimentSetup> {
        envs.iter()
            .flat_map(|&bytes| {
                MachineConfig::all().into_iter().map(move |m| {
                    ExperimentSetup::default_on(m, OptLevel::O2)
                        .with_env(Environment::of_total_size(bytes))
                })
            })
            .collect()
    }

    #[test]
    fn sweeps_partition_their_work_into_lockstep_groups() {
        let mut setups = machine_setups(&[64, 128]);
        // Two more core2 setups at 64 bytes: a fourth member for the first
        // identity (which opens a second group) and a warm one (another
        // identity).
        let mut core2 = setups[1].clone();
        core2.machine.l1d_next_line_prefetch = true;
        setups.push(core2);
        setups.push(setups[1].with_warmup_runs(1));
        let keys: Vec<MeasureKey> = setups
            .iter()
            .map(|s| MeasureKey::new("hmmer", s, InputSize::Test))
            .collect();
        let work: Vec<(&MeasureKey, &ExperimentSetup)> = keys.iter().zip(&setups).collect();
        let shape = |cap| -> Vec<Vec<usize>> {
            lockstep_groups(&work, cap)
                .iter()
                .map(|g| {
                    g.iter()
                        .map(|(k, _)| keys.iter().position(|x| x == *k).expect("a key"))
                        .collect()
                })
                .collect()
        };
        assert_eq!(
            shape(MAX_GROUP),
            vec![vec![0, 1, 2], vec![3, 4, 5], vec![6], vec![7]]
        );
        assert_eq!(shape(1), (0..8).map(|i| vec![i]).collect::<Vec<_>>());
        for group in lockstep_groups(&work, MAX_GROUP) {
            assert!(group
                .iter()
                .all(|(_, s)| s.shares_functional_pass(group[0].1)));
        }
    }

    #[test]
    fn a_grouped_sweep_equals_per_setup_measurement_and_simulates_each_key_once() {
        let orch = Orchestrator::new();
        let h = orch.harness("milc").expect("known benchmark");
        let mut setups = machine_setups(&[64, 640]);
        setups.extend(machine_setups(&[64]).iter().map(|s| s.with_warmup_runs(2)));
        setups.push(setups[0].clone());
        let swept = orch.sweep(&h, &setups, InputSize::Test);
        let solo = Harness::new(benchmark_by_name("milc").expect("known benchmark"));
        for (setup, r) in setups.iter().zip(&swept) {
            let want = solo.measure(setup, InputSize::Test).expect("measures");
            let got = r.as_ref().expect("measures");
            assert_eq!(got.counters, want.counters, "{}", setup.summary());
            assert_eq!(got.checksum, want.checksum);
            assert_eq!(got.setup, want.setup);
        }
        let stats = orch.stats();
        assert_eq!(stats.simulated, 9, "one simulation per distinct key");
        assert_eq!(stats.misses, 10, "one count per request");
        assert_eq!(stats.cached, 9);
    }

    #[test]
    fn a_concurrent_measure_of_a_group_member_simulates_it_once() {
        for member in 0..3 {
            let orch = Orchestrator::new();
            let h = orch.harness("hmmer").expect("known benchmark");
            let setups = machine_setups(&[256]);
            let barrier = std::sync::Barrier::new(2);
            let (swept, measured) = std::thread::scope(|s| {
                let sweep = s.spawn(|| {
                    barrier.wait();
                    orch.sweep(&h, &setups, InputSize::Test)
                });
                barrier.wait();
                let measured = orch
                    .measure(&h, &setups[member], InputSize::Test)
                    .expect("measures");
                (sweep.join().expect("sweep"), measured)
            });
            assert_eq!(orch.stats().simulated, 3, "member {member}: once per key");
            assert_eq!(
                swept[member].as_ref().expect("ok").counters,
                measured.counters
            );
            assert!(orch.cache.lock().inflight.is_empty());
        }
    }

    #[test]
    fn an_expired_deadline_simulates_no_group() {
        let orch = Orchestrator::new();
        let h = orch.harness("hmmer").expect("known benchmark");
        let setups = machine_setups(&[64, 128]);
        let results = orch.sweep_deadline(&h, &setups, InputSize::Test, Some(Instant::now()));
        assert!(results.iter().all(|r| matches!(r, Err(DeadlineExceeded))));
        assert_eq!(orch.stats().simulated, 0);
        assert!(orch.cache.lock().inflight.is_empty());
        assert!(orch
            .sweep(&h, &setups, InputSize::Test)
            .iter()
            .all(Result::is_ok));
        assert_eq!(orch.stats().simulated, 6);
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
