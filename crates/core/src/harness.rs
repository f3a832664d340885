//! The measurement harness: compile → link → load → simulate, with result
//! verification and caching.
//!
//! Every measurement is **verified**: the run's checksum and return value
//! must match the IR interpreter's reference outcome, so an experiment can
//! never silently measure a miscompiled program. Compilation is cached per
//! optimization level (and so is the optimized IR, with whatever a static
//! analyzer derives from it, once an analyzer asks for it), and linking per
//! (level, order, offset, symbol layout), since sweeps re-measure the same
//! binary under hundreds of environments. The cached layouts of a level
//! share one data image. Every cache is a set of once-cells: a map lock, if
//! any, is held only to fetch a cell, never while its value is computed.
//!
//! A setup's warm-up runs ([`ExperimentSetup::warmup_runs`]) run on the
//! measured run's machine, each verified, so a warm measurement is one
//! deterministic function of its setup like any other and the orchestrator
//! caches it under its key. Setups that differ only in their machines
//! share one functional pass and can be measured as one lockstep group
//! ([`Harness::measure_group`]): one link and one load per pass, one run
//! driving every member's machine. Reference outcomes are identified by a digest
//! of the module and arguments they were computed from, which is how the
//! orchestrator seeds a new harness with a persisted outcome instead of
//! interpreting it again.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use biaslab_toolchain::codegen;
use biaslab_toolchain::link::{Executable, LinkError, Linker};
use biaslab_toolchain::load::{LoadError, Loader, Process};
use biaslab_toolchain::obj::CompiledModule;
use biaslab_toolchain::opt;
use biaslab_toolchain::{Module, OptLevel};
use biaslab_uarch::profile::Profile;
use biaslab_uarch::{Counters, Machine, RunError, RunResult};
use biaslab_workloads::{Benchmark, Expected, InputSize};
use parking_lot::Mutex;

use crate::jsonl::{fnv64, fnv64_extend};
use crate::setup::{ExperimentSetup, SymbolLayout};
use crate::telemetry;

/// One verified measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Human-readable setup summary (see [`ExperimentSetup::summary`]).
    pub setup: String,
    /// Event counters from the run.
    pub counters: Counters,
    /// The run's checksum (already verified against the reference).
    pub checksum: u64,
}

impl Measurement {
    /// Simulated cycles — the headline metric.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.counters.cycles
    }
}

/// Measurement failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MeasureError {
    /// Linking failed (bad order, oversized segment, …).
    Link(LinkError),
    /// Loading failed (oversized environment, …).
    Load(LoadError),
    /// The simulation aborted.
    Run(RunError),
    /// The run finished but its checksum or return value disagreed with
    /// the reference interpreter — a toolchain bug, never a valid result.
    WrongResult {
        /// Expected (reference) checksum.
        expected: u64,
        /// Actual checksum.
        actual: u64,
    },
    /// The per-measurement watchdog tripped: the simulation exhausted its
    /// instruction budget (a runaway — an infinite loop in generated code,
    /// or an injected `measure.runaway` fault). The orchestrator retries a
    /// tripped measurement once, then quarantines the key (the error is
    /// cached, so re-requests fail fast instead of running away again).
    Watchdog {
        /// The exhausted instruction budget.
        limit: u64,
    },
}

impl fmt::Display for MeasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeasureError::Link(e) => write!(f, "link: {e}"),
            MeasureError::Load(e) => write!(f, "load: {e}"),
            MeasureError::Run(e) => write!(f, "run: {e}"),
            MeasureError::WrongResult { expected, actual } => write!(
                f,
                "verification failed: checksum {actual:#x}, reference {expected:#x}"
            ),
            MeasureError::Watchdog { limit } => write!(
                f,
                "watchdog: simulation exceeded its {limit}-instruction budget"
            ),
        }
    }
}

impl std::error::Error for MeasureError {}

impl From<LinkError> for MeasureError {
    fn from(e: LinkError) -> Self {
        MeasureError::Link(e)
    }
}

impl From<LoadError> for MeasureError {
    fn from(e: LoadError) -> Self {
        MeasureError::Load(e)
    }
}

impl From<RunError> for MeasureError {
    fn from(e: RunError) -> Self {
        MeasureError::Run(e)
    }
}

type LinkKey = (OptLevel, Vec<usize>, u32, Option<SymbolLayout>);
/// A once-initialized link outcome; see the `linked` field.
type LinkCell = Arc<OnceLock<Result<Arc<Executable>, LinkError>>>;
/// One once-cell per optimization level, indexed by `level as usize`.
type PerLevel<T> = [OnceLock<T>; OptLevel::ALL.len()];
/// A once-initialized value derived from the optimized IR; see the
/// `derived` field.
type DerivedCell = Arc<OnceLock<Arc<dyn Any + Send + Sync>>>;

/// A measurement harness for one benchmark.
///
/// # Examples
///
/// ```
/// use biaslab_core::harness::Harness;
/// use biaslab_core::setup::ExperimentSetup;
/// use biaslab_toolchain::OptLevel;
/// use biaslab_uarch::MachineConfig;
/// use biaslab_workloads::{benchmark_by_name, InputSize};
///
/// let harness = Harness::new(benchmark_by_name("hmmer").expect("known benchmark"));
/// let setup = ExperimentSetup::default_on(MachineConfig::core2(), OptLevel::O2);
/// let m = harness.measure(&setup, InputSize::Test)?;
/// assert!(m.cycles() > 0);
/// # Ok::<(), biaslab_core::harness::MeasureError>(())
/// ```
#[derive(Debug)]
pub struct Harness {
    bench: Benchmark,
    compiled: PerLevel<Arc<CompiledModule>>,
    // Kept only once a static analyzer asks for it: a measurement needs
    // the compiled module alone, and the IR holds a copy of every
    // global's initial data.
    optimized: PerLevel<Arc<Module>>,
    // What static analyzers derive from `optimized`, one cell per (level,
    // type): this crate cannot name the analyzers' types.
    derived: Mutex<HashMap<(OptLevel, TypeId), DerivedCell>>,
    // Each entry is a once-cell so concurrent first requests for the same
    // (level, order, offset, layout) link exactly once: the map lock is held
    // only to fetch the cell, never across the link itself.
    linked: Mutex<HashMap<LinkKey, LinkCell>>,
    // FNV-64 of the module's text and initial data, once asked for.
    module_digest: OnceLock<u64>,
}

impl Harness {
    /// Creates a harness around a benchmark.
    #[must_use]
    pub fn new(bench: Benchmark) -> Harness {
        Harness {
            bench,
            compiled: Default::default(),
            optimized: Default::default(),
            derived: Mutex::new(HashMap::new()),
            linked: Mutex::new(HashMap::new()),
            module_digest: OnceLock::new(),
        }
    }

    /// The benchmark under measurement.
    #[must_use]
    pub fn benchmark(&self) -> &Benchmark {
        &self.bench
    }

    /// The (cached) compiled module at an optimization level, compiled
    /// from [`Harness::optimized`]'s IR when that is already cached.
    #[must_use]
    pub fn compiled(&self, level: OptLevel) -> Arc<CompiledModule> {
        self.compiled[level as usize]
            .get_or_init(|| {
                let cached = self.optimized[level as usize].get().cloned();
                let optimized =
                    cached.unwrap_or_else(|| Arc::new(opt::optimize(self.bench.module(), level)));
                Arc::new(codegen::compile(&optimized, level))
            })
            .clone()
    }

    /// The (cached) optimized IR at an optimization level, equal to
    /// `opt::optimize(self.benchmark().module(), level)`: the static
    /// analyzers read it for every machine, and a later
    /// [`Harness::compiled`] compiles it.
    #[must_use]
    pub fn optimized(&self, level: OptLevel) -> Arc<Module> {
        self.optimized[level as usize]
            .get_or_init(|| Arc::new(opt::optimize(self.bench.module(), level)))
            .clone()
    }

    /// The value `derive` computes from [`Harness::optimized`]'s IR at
    /// `level`, computed once per level and type `T` and shared by every
    /// caller on every thread: the slot a static analyzer keeps its
    /// machine-independent facts in. Concurrent first callers wait for
    /// the one that computes; no lock is held while it does.
    #[must_use]
    pub fn derived<T: Any + Send + Sync>(
        &self,
        level: OptLevel,
        derive: impl FnOnce(Arc<Module>) -> T,
    ) -> Arc<T> {
        let key = (level, TypeId::of::<T>());
        let cell = self.derived.lock().entry(key).or_default().clone();
        let value = cell.get_or_init(|| Arc::new(derive(self.optimized(level))));
        Arc::clone(value)
            .downcast()
            .expect("the cell is keyed by its type")
    }

    /// The object symbol names, in declaration order (what
    /// [`crate::setup::LinkOrder::resolve`] permutes).
    #[must_use]
    pub fn object_names(&self) -> Vec<String> {
        self.bench
            .module()
            .functions
            .iter()
            .map(|f| f.name.clone())
            .collect()
    }

    /// The (cached) executable for a level, explicit object order and text
    /// offset.
    ///
    /// # Errors
    ///
    /// Propagates [`LinkError`]s.
    pub fn executable(
        &self,
        level: OptLevel,
        order: &[usize],
        text_offset: u32,
    ) -> Result<Arc<Executable>, LinkError> {
        self.layout(level, order, text_offset, None)
    }

    /// [`Harness::executable`] with an optional symbol-layout remedy
    /// applied through [`Linker::pad_symbol`] or [`Linker::align_symbol`].
    fn layout(
        &self,
        level: OptLevel,
        order: &[usize],
        text_offset: u32,
        symbol_layout: Option<&SymbolLayout>,
    ) -> Result<Arc<Executable>, LinkError> {
        let key = (level, order.to_vec(), text_offset, symbol_layout.cloned());
        let cell = self.linked.lock().entry(key).or_default().clone();
        cell.get_or_init(|| {
            let cm = self.compiled(level);
            let linker = Linker::new()
                .object_order(order.to_vec())
                .text_offset(text_offset);
            let linker = match symbol_layout {
                None => linker,
                Some(SymbolLayout::Pad { symbol, bytes }) => linker.pad_symbol(symbol, *bytes),
                Some(SymbolLayout::Align { symbol, align }) => linker.align_symbol(symbol, *align),
            };
            // Layouts differ in text only: every cached layout at a level
            // shares the compiled module's one data image.
            Ok(Arc::new(linker.link(&cm, self.bench.entry())?))
        })
        .clone()
    }

    /// The digest a reference outcome at `size` is persisted under: FNV-64
    /// over the module's text, every global's initial data and the entry
    /// arguments, so an outcome computed from another build's kernel or
    /// inputs never passes for this one. The module part is computed once.
    #[must_use]
    pub(crate) fn reference_digest(&self, size: InputSize) -> u64 {
        let module = *self.module_digest.get_or_init(|| {
            let module = self.bench.module();
            // The text names each global but omits its initial data.
            module
                .globals
                .iter()
                .fold(fnv64(&module.to_string()), |h, g| {
                    let h = fnv64_extend(h, &(g.init.len() as u64).to_le_bytes());
                    fnv64_extend(h, &g.init)
                })
        });
        fnv64(&format!(
            "reference module={module:016x} entry={} args={:?}",
            self.bench.entry(),
            self.bench.args(size)
        ))
    }

    /// Seeds the benchmark's reference outcome at `size` with one computed
    /// earlier, if `digest` is this harness's [`Harness::reference_digest`];
    /// returns whether it matched. A later verification then reads the
    /// seeded outcome instead of interpreting.
    pub(crate) fn seed_reference(&self, size: InputSize, digest: u64, expected: Expected) -> bool {
        let matches = digest == self.reference_digest(size);
        if matches {
            self.bench.seed_expected(size, expected);
        }
        matches
    }

    /// The reference outcomes the benchmark holds, seeded or interpreted,
    /// each with its [`Harness::reference_digest`].
    #[must_use]
    pub(crate) fn references(&self) -> Vec<(InputSize, u64, Expected)> {
        [InputSize::Test, InputSize::Ref]
            .into_iter()
            .filter_map(|size| {
                let e = self.bench.held_expected(size)?;
                Some((size, self.reference_digest(size), e))
            })
            .collect()
    }

    /// Takes one verified measurement under `setup`: compile → link → load
    /// → run → stat, on a fresh (cold) machine — or, with
    /// [`ExperimentSetup::warmup_runs`] set, on one that has already run
    /// that many verified runs of the same executable, each on a freshly
    /// loaded process. A lockstep group of one ([`Harness::measure_group`]).
    ///
    /// With [`telemetry`] enabled every stage runs inside a phase span,
    /// under the span already open on this thread (the orchestrator's
    /// request span) or else under a `measure` span of its own; with
    /// profiles enabled as well, the measured run is profiled and its
    /// per-function attribution attached to the `run` span. With telemetry
    /// off each stage costs one relaxed atomic load. Counters are
    /// bit-identical either way.
    ///
    /// # Errors
    ///
    /// Returns a [`MeasureError`] if any stage fails or the result of any
    /// run does not match the reference outcome.
    pub fn measure(
        &self,
        setup: &ExperimentSetup,
        size: InputSize,
    ) -> Result<Measurement, MeasureError> {
        self.measure_group(&[setup], size)
            .pop()
            .expect("one result per member")
    }

    /// Takes one verified measurement per setup of a lockstep group: setups
    /// that [share a functional pass](ExperimentSetup::shares_functional_pass)
    /// and differ only in their machines. The group links and loads once
    /// per pass, and one run ([`Machine::run_group`]) drives every member's
    /// machine; each member's counters are bit-identical to its own
    /// [`Harness::measure`], and each member is verified. With warm-up runs
    /// the group makes that many verified lockstep passes first, on the
    /// same machines. Results come back in member order.
    ///
    /// In a trace the group's stages are one `link` span and one `load`,
    /// `run` and `stat` span per pass, like a single measurement's. Only a
    /// group of one is profiled.
    ///
    /// A failure before or during the run (link, load, run, or a warm-up
    /// run's verification) is every member's error: all of them are
    /// properties of the shared functional pass.
    ///
    /// # Panics
    ///
    /// Panics if `setups` is empty, holds more than
    /// [`biaslab_uarch::MAX_GROUP`] setups, or holds two that do not share
    /// a functional pass.
    pub fn measure_group(
        &self,
        setups: &[&ExperimentSetup],
        size: InputSize,
    ) -> Vec<Result<Measurement, MeasureError>> {
        let first = *setups.first().expect("a lockstep group has a member");
        assert!(
            setups.iter().all(|s| s.shares_functional_pass(first)),
            "a lockstep group shares one functional pass"
        );
        if crate::faults::active() {
            crate::faults::delay(crate::faults::site::MEASURE_DELAY);
        }
        let bench = self.bench.name();
        let stages = || -> Result<Vec<Result<Measurement, MeasureError>>, MeasureError> {
            telemetry::in_span("compile", bench, |_| self.compiled(first.opt));
            let exe = telemetry::in_span("link", bench, |_| self.link(first))?;
            let new_machines = || -> Vec<Machine> {
                setups
                    .iter()
                    .map(|s| Machine::new(s.machine.clone()))
                    .collect()
            };
            let mut machines: Option<Vec<Machine>> = None;
            for _ in 0..first.warmup_runs {
                let process = telemetry::in_span("load", bench, |_| self.load(&exe, first, size))?;
                let results = telemetry::in_span("run", bench, |_| {
                    let machines = machines.get_or_insert_with(new_machines);
                    Machine::run_group(machines, &exe, process)
                })?;
                telemetry::in_span("stat", bench, |_| {
                    setups
                        .iter()
                        .zip(&results)
                        .try_for_each(|(s, r)| self.verify(s, size, r).map(drop))
                })?;
            }
            let process = telemetry::in_span("load", bench, |_| self.load(&exe, first, size))?;
            let (machines, results) = telemetry::in_span("run", bench, |span| {
                let mut machines = machines.unwrap_or_else(new_machines);
                // `span` is 0 unless tracing is on: profiles need both.
                let results = match machines.as_mut_slice() {
                    [machine] if span != 0 && telemetry::profiles_enabled() => machine
                        .run_profiled(&exe, process)
                        .map(|(result, profile)| {
                            telemetry::emit_profile(span, bench, &profile);
                            vec![result]
                        }),
                    members => Machine::run_group(members, &exe, process),
                };
                (machines, results)
            });
            let results = results?;
            // The machines (and so their block caches) live across the
            // warm-up runs; one export each covers them all.
            for machine in &machines {
                Self::export_block_stats(machine);
            }
            Ok(telemetry::in_span("stat", bench, |_| {
                setups
                    .iter()
                    .zip(&results)
                    .map(|(s, r)| self.verify(s, size, r))
                    .collect()
            }))
        };
        let outcome = if telemetry::enabled() && telemetry::current_span() == 0 {
            telemetry::in_span("measure", bench, |_| stages())
        } else {
            stages()
        };
        outcome.unwrap_or_else(|e| vec![Err(e); setups.len()])
    }

    /// [`Harness::measure`] with the measured run's per-function cycle
    /// attribution: the same link, load and verification, warm-up runs
    /// included, on one machine. Counters are bit-identical to the
    /// unprofiled measurement's.
    ///
    /// # Errors
    ///
    /// As [`Harness::measure`].
    pub fn measure_profiled(
        &self,
        setup: &ExperimentSetup,
        size: InputSize,
    ) -> Result<(Measurement, Profile), MeasureError> {
        let exe = self.link(setup)?;
        let mut machine = Machine::new(setup.machine.clone());
        for _ in 0..setup.warmup_runs {
            let result = machine.run(&exe, self.load(&exe, setup, size)?)?;
            self.verify(setup, size, &result)?;
        }
        let (result, profile) = machine.run_profiled(&exe, self.load(&exe, setup, size)?)?;
        Ok((self.verify(setup, size, &result)?, profile))
    }

    /// The (cached) executable for `setup`'s level, link order, text
    /// offset and symbol layout: the image [`Harness::measure`] runs
    /// under `setup`, linked once per layout whatever the machine.
    ///
    /// # Errors
    ///
    /// Propagates [`LinkError`]s.
    pub fn link(&self, setup: &ExperimentSetup) -> Result<Arc<Executable>, LinkError> {
        let names = self.object_names();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let order = setup.link_order.resolve(&name_refs);
        self.layout(
            setup.opt,
            &order,
            setup.text_offset,
            setup.symbol_layout.as_ref(),
        )
    }

    /// Loads a fresh process for `exe` under `setup`'s environment and
    /// stack shift.
    fn load(
        &self,
        exe: &Executable,
        setup: &ExperimentSetup,
        size: InputSize,
    ) -> Result<Process, LoadError> {
        Loader::new()
            .stack_shift(setup.stack_shift)
            .load(exe, &setup.env, self.bench.args(size))
    }

    /// Checks a run against the reference interpreter's outcome.
    fn verify(
        &self,
        setup: &ExperimentSetup,
        size: InputSize,
        result: &RunResult,
    ) -> Result<Measurement, MeasureError> {
        let expected = self.bench.expected(size);
        if result.checksum != expected.checksum || result.return_value != expected.return_value {
            return Err(MeasureError::WrongResult {
                expected: expected.checksum,
                actual: result.checksum,
            });
        }
        Ok(Measurement {
            setup: setup.summary(),
            counters: result.counters,
            checksum: result.checksum,
        })
    }

    /// Accumulates one machine's block-cache stats into the process-wide
    /// [`telemetry::metrics`] registry (`uarch.blockcache.*`). A machine
    /// that never dispatched a block contributes nothing, so the metrics
    /// only appear when block dispatch actually ran. A handful of relaxed
    /// atomics per *measurement* (not per instruction), so the hot path
    /// never sees it.
    fn export_block_stats(machine: &Machine) {
        let stats = machine.block_stats();
        if stats.hits + stats.misses == 0 {
            return;
        }
        let m = telemetry::metrics();
        m.counter("uarch.blockcache.hit").add(stats.hits);
        m.counter("uarch.blockcache.miss").add(stats.misses);
        m.counter("uarch.blockcache.invalidate")
            .add(stats.invalidations);
        m.counter("uarch.blockcache.blocks_live")
            .record_max(machine.blocks_live() as u64);
    }
}

#[cfg(test)]
mod tests {
    use biaslab_toolchain::load::Environment;
    use biaslab_uarch::MachineConfig;
    use biaslab_workloads::benchmark_by_name;

    use super::*;
    use crate::setup::LinkOrder;

    fn harness(name: &str) -> Harness {
        Harness::new(benchmark_by_name(name).expect("known benchmark"))
    }

    #[test]
    fn measurement_verifies_against_reference() {
        let h = harness("hmmer");
        for level in OptLevel::ALL {
            let setup = ExperimentSetup::default_on(MachineConfig::core2(), level);
            let m = h
                .measure(&setup, InputSize::Test)
                .unwrap_or_else(|e| panic!("{level}: {e}"));
            assert!(m.cycles() > 0);
        }
    }

    #[test]
    fn a_profiled_measurement_verifies_like_an_unprofiled_one() {
        let setup = ExperimentSetup::default_on(MachineConfig::core2(), OptLevel::O2);
        let h = harness("hmmer");
        let m = h.measure(&setup, InputSize::Test).unwrap();
        let (profiled, profile) = h.measure_profiled(&setup, InputSize::Test).unwrap();
        assert_eq!(profiled.counters, m.counters);
        assert_eq!(profiled.setup, m.setup);
        assert!(!profile.entries.is_empty());
        // The true checksum with a wrong return value: both paths refuse.
        let truth = h.benchmark().expected(InputSize::Test);
        let lying = harness("hmmer");
        lying.benchmark().seed_expected(
            InputSize::Test,
            Expected {
                return_value: truth.return_value ^ 1,
                ..truth
            },
        );
        let wrong = MeasureError::WrongResult {
            expected: truth.checksum,
            actual: truth.checksum,
        };
        assert_eq!(lying.measure(&setup, InputSize::Test).unwrap_err(), wrong);
        assert_eq!(
            lying
                .measure_profiled(&setup, InputSize::Test)
                .map(|(m, _)| m.checksum)
                .unwrap_err(),
            wrong
        );
    }

    #[test]
    fn caches_are_reused() {
        let h = harness("milc");
        let a = h.compiled(OptLevel::O2);
        let b = h.compiled(OptLevel::O2);
        assert!(Arc::ptr_eq(&a, &b));
        let order: Vec<usize> = (0..h.object_names().len()).collect();
        let e1 = h.executable(OptLevel::O2, &order, 0).unwrap();
        let e2 = h.executable(OptLevel::O2, &order, 0).unwrap();
        assert!(Arc::ptr_eq(&e1, &e2));
    }

    #[test]
    fn optimized_ir_is_what_optimize_returns_and_is_shared() {
        for name in biaslab_workloads::benchmark_names() {
            let h = harness(name);
            for level in [OptLevel::O2, OptLevel::O3] {
                let ir = h.optimized(level);
                assert_eq!(
                    *ir,
                    opt::optimize(h.benchmark().module(), level),
                    "{name} at {level}"
                );
                assert!(Arc::ptr_eq(&ir, &h.optimized(level)));
            }
        }
    }

    #[test]
    fn derived_facts_are_computed_once_per_level_and_type_across_threads() {
        let h = harness("mcf");
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let derive = |module: Arc<Module>| {
            calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            module.functions.len()
        };
        // Released together, the threads race for the first request.
        let start = std::sync::Barrier::new(4);
        let shared: Vec<Arc<usize>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        h.derived(OptLevel::O2, derive)
                    })
                })
                .collect();
            handles.into_iter().map(|j| j.join().unwrap()).collect()
        });
        assert!(shared.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
        assert_eq!(*shared[0], h.optimized(OptLevel::O2).functions.len());
        assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), 1);
        // Another level or another type is another cell.
        let _ = h.derived(OptLevel::O3, derive);
        let name = h.derived(OptLevel::O2, |m| m.functions[0].name.clone());
        assert_eq!(*name, h.optimized(OptLevel::O2).functions[0].name);
        assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), 2);
    }

    #[test]
    fn cached_layouts_share_one_data_image_per_level() {
        let h = harness("lbm");
        let declared: Vec<usize> = (0..h.object_names().len()).collect();
        let reversed: Vec<usize> = declared.iter().rev().copied().collect();
        for level in [OptLevel::O2, OptLevel::O3] {
            let base = h.executable(level, &declared, 0).unwrap();
            for (order, offset) in [(&reversed, 0), (&declared, 40), (&reversed, 12)] {
                let exe = h.executable(level, order, offset).unwrap();
                assert!(
                    std::ptr::eq(exe.data(), base.data()),
                    "{level} {order:?}+{offset}"
                );
            }
        }
    }

    #[test]
    fn concurrent_executable_requests_link_once_and_share() {
        let h = harness("hmmer");
        let order: Vec<usize> = (0..h.object_names().len()).collect();
        let exes: Vec<Arc<Executable>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| h.executable(OptLevel::O2, &order, 0).unwrap()))
                .collect();
            handles.into_iter().map(|j| j.join().unwrap()).collect()
        });
        // With the old check-then-link cache, racing requests each linked a
        // private executable; the once-cell guarantees a single shared one.
        assert!(exes.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
    }

    #[test]
    fn environment_does_not_change_the_verified_result() {
        let h = harness("sphinx3");
        let base = ExperimentSetup::default_on(MachineConfig::o3cpu(), OptLevel::O2);
        let m1 = h.measure(&base, InputSize::Test).unwrap();
        let m2 = h
            .measure(
                &base.with_env(Environment::of_total_size(1000)),
                InputSize::Test,
            )
            .unwrap();
        assert_eq!(m1.checksum, m2.checksum);
        assert_eq!(m1.counters.instructions, m2.counters.instructions);
    }

    #[test]
    fn link_order_does_not_change_the_verified_result() {
        let h = harness("milc");
        let base = ExperimentSetup::default_on(MachineConfig::core2(), OptLevel::O3);
        let m1 = h.measure(&base, InputSize::Test).unwrap();
        let m2 = h
            .measure(
                &base.with_link_order(LinkOrder::Random(11)),
                InputSize::Test,
            )
            .unwrap();
        assert_eq!(m1.checksum, m2.checksum);
    }

    #[test]
    fn cold_repetitions_are_identical_and_warm_ones_are_faster() {
        let h = harness("milc");
        let setup = ExperimentSetup::default_on(MachineConfig::core2(), OptLevel::O2);
        let cold: Vec<Measurement> = (0..3)
            .map(|_| h.measure(&setup, InputSize::Test).unwrap())
            .collect();
        assert!(cold.windows(2).all(|w| w[0].counters == w[1].counters));
        let warm: Vec<Measurement> = (0..3)
            .map(|k| {
                h.measure(&setup.with_warmup_runs(k), InputSize::Test)
                    .unwrap()
            })
            .collect();
        assert_eq!(
            warm[0].counters, cold[0].counters,
            "no warm-up runs is a cold run"
        );
        assert!(
            warm[1].counters.cycles < warm[0].counters.cycles,
            "warm caches must help: {} vs {}",
            warm[1].counters.cycles,
            warm[0].counters.cycles
        );
        assert_eq!(
            warm[1].checksum, warm[0].checksum,
            "warmth never changes results"
        );
    }

    #[test]
    fn symbol_layouts_link_their_own_executable() {
        let h = harness("hmmer");
        let base = ExperimentSetup::default_on(MachineConfig::o3cpu(), OptLevel::O2);
        let padded = base.with_symbol_layout(SymbolLayout::Pad {
            symbol: "main".to_owned(),
            bytes: 12,
        });
        let a = h.link(&base).unwrap();
        let b = h.link(&padded).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&b, &h.link(&padded).unwrap()));
        assert!(std::ptr::eq(a.data(), b.data()), "one data image per level");
        assert_eq!(
            b.symbol("main").unwrap().addr,
            a.symbol("main").unwrap().addr + 12
        );
        let m = h.measure(&padded, InputSize::Test).unwrap();
        assert_eq!(
            m.checksum,
            h.measure(&base, InputSize::Test).unwrap().checksum
        );
    }

    #[test]
    fn reference_digests_tell_sizes_and_modules_apart_and_seed_only_on_a_match() {
        let h = harness("mcf");
        let test = h.reference_digest(InputSize::Test);
        assert_eq!(test, h.reference_digest(InputSize::Test));
        assert_ne!(test, h.reference_digest(InputSize::Ref));
        assert_ne!(test, harness("milc").reference_digest(InputSize::Test));
        let bogus = Expected {
            checksum: 1,
            return_value: 2,
            ir_ops: 3,
        };
        assert!(h.references().is_empty());
        assert!(!h.seed_reference(InputSize::Test, test ^ 1, bogus));
        assert!(h.references().is_empty(), "a foreign digest seeds nothing");
        assert!(h.seed_reference(InputSize::Test, test, bogus));
        assert_eq!(h.references(), vec![(InputSize::Test, test, bogus)]);
        assert_eq!(h.benchmark().expected(InputSize::Test), bogus);
    }
}
