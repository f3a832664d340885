//! The measurement harness: compile → link → load → simulate, with result
//! verification and caching.
//!
//! Every measurement is **verified**: the run's checksum and return value
//! must match the IR interpreter's reference outcome, so an experiment can
//! never silently measure a miscompiled program. Compilation is cached per
//! optimization level (and so is the optimized IR, once a static analyzer
//! asks for it), and linking per (level, order, offset), since sweeps
//! re-measure the same binary under hundreds of environments. The cached
//! layouts of a level share one data image.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use biaslab_toolchain::codegen;
use biaslab_toolchain::link::{Executable, LinkError, Linker};
use biaslab_toolchain::load::{LoadError, Loader, Process};
use biaslab_toolchain::obj::CompiledModule;
use biaslab_toolchain::opt;
use biaslab_toolchain::{Module, OptLevel};
use biaslab_uarch::{Counters, Machine, RunError, RunResult};
use biaslab_workloads::{Benchmark, InputSize};
use parking_lot::Mutex;

use crate::setup::ExperimentSetup;
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

/// Whether repeated measurements reuse microarchitectural state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePolicy {
    /// Every repetition starts on a cold machine (the harness default):
    /// repetitions are bit-identical, because the simulator is
    /// deterministic.
    Cold,
    /// Repetitions share one machine: the first run warms the caches and
    /// predictors for the rest — the "discard the first iteration"
    /// methodology debate, reproducible on demand.
    Warm,
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

type LinkKey = (OptLevel, Vec<usize>, u32);
/// A once-initialized link outcome; see the `linked` field.
type LinkCell = Arc<OnceLock<Result<Arc<Executable>, LinkError>>>;

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
    compiled: Mutex<HashMap<OptLevel, Arc<CompiledModule>>>,
    // Kept only once a static analyzer asks for it: a measurement needs
    // the compiled module alone, and the IR holds a copy of every
    // global's initial data.
    optimized: Mutex<HashMap<OptLevel, Arc<Module>>>,
    // Each entry is a once-cell so concurrent first requests for the same
    // (level, order, offset) link exactly once: the map lock is held only to
    // fetch the cell, never across the link itself.
    linked: Mutex<HashMap<LinkKey, LinkCell>>,
}

impl Harness {
    /// Creates a harness around a benchmark.
    #[must_use]
    pub fn new(bench: Benchmark) -> Harness {
        Harness {
            bench,
            compiled: Mutex::new(HashMap::new()),
            optimized: Mutex::new(HashMap::new()),
            linked: Mutex::new(HashMap::new()),
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
        self.compiled
            .lock()
            .entry(level)
            .or_insert_with(|| {
                let cached = self.optimized.lock().get(&level).cloned();
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
        self.optimized
            .lock()
            .entry(level)
            .or_insert_with(|| Arc::new(opt::optimize(self.bench.module(), level)))
            .clone()
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
        let key = (level, order.to_vec(), text_offset);
        let cell = self.linked.lock().entry(key).or_default().clone();
        cell.get_or_init(|| {
            let cm = self.compiled(level);
            let mut exe = Linker::new()
                .object_order(order.to_vec())
                .text_offset(text_offset)
                .link(&cm, self.bench.entry())?;
            // Layouts differ in text only, so every cached layout at a
            // level shares the declaration-order executable's data image.
            let declared: Vec<usize> = (0..cm.objects.len()).collect();
            if (order, text_offset) != (declared.as_slice(), 0) {
                if let Ok(base) = self.executable(level, &declared, 0) {
                    exe.share_data_with(&base);
                }
            }
            Ok(Arc::new(exe))
        })
        .clone()
    }

    /// Takes one verified measurement under `setup`: compile → link → load
    /// → run → stat, on a fresh (cold) machine.
    ///
    /// With [`telemetry`] enabled every stage runs inside a phase span,
    /// under the span already open on this thread (the orchestrator's
    /// request span) or else under a `measure` span of its own; with
    /// profiles enabled as well, the run is profiled and its per-function
    /// attribution attached to the `run` span. With telemetry off each
    /// stage costs one relaxed atomic load. Counters are bit-identical
    /// either way.
    ///
    /// # Errors
    ///
    /// Returns a [`MeasureError`] if any stage fails or the result does not
    /// match the reference outcome.
    pub fn measure(
        &self,
        setup: &ExperimentSetup,
        size: InputSize,
    ) -> Result<Measurement, MeasureError> {
        if crate::faults::active() {
            crate::faults::delay(crate::faults::site::MEASURE_DELAY);
        }
        let bench = self.bench.name();
        let stages = || {
            telemetry::in_span("compile", bench, |_| self.compiled(setup.opt));
            let exe = telemetry::in_span("link", bench, |_| self.link(setup))?;
            let process = telemetry::in_span("load", bench, |_| self.load(&exe, setup, size))?;
            let (machine, result) = telemetry::in_span("run", bench, |span| {
                let mut machine = Machine::new(setup.machine.clone());
                // `span` is 0 unless tracing is on: profiles need both.
                let result = if span != 0 && telemetry::profiles_enabled() {
                    machine
                        .run_profiled(&exe, process)
                        .map(|(result, profile)| {
                            telemetry::emit_profile(span, bench, &profile);
                            result
                        })
                } else {
                    machine.run(&exe, process)
                };
                (machine, result)
            });
            let result = result?;
            Self::export_block_stats(&machine);
            telemetry::in_span("stat", bench, |_| self.verify(setup, size, &result))
        };
        if telemetry::enabled() && telemetry::current_span() == 0 {
            return telemetry::in_span("measure", bench, |_| stages());
        }
        stages()
    }

    /// Takes `reps` measurements under one setup, cold or warm (see
    /// [`CachePolicy`]). Every repetition is verified.
    ///
    /// # Errors
    ///
    /// Returns the first [`MeasureError`] encountered.
    ///
    /// # Panics
    ///
    /// Panics if `reps == 0`.
    pub fn measure_repeated(
        &self,
        setup: &ExperimentSetup,
        size: InputSize,
        reps: usize,
        policy: CachePolicy,
    ) -> Result<Vec<Measurement>, MeasureError> {
        assert!(reps > 0, "at least one repetition");
        let exe = self.link(setup)?;
        let mut machine = Machine::new(setup.machine.clone());
        let mut out = Vec::with_capacity(reps);
        for _ in 0..reps {
            if policy == CachePolicy::Cold {
                machine.reset();
            }
            let result = machine.run(&exe, self.load(&exe, setup, size)?)?;
            out.push(self.verify(setup, size, &result)?);
        }
        // The machine (and so its block cache) lives across repetitions;
        // one export covers the whole series.
        Self::export_block_stats(&machine);
        Ok(out)
    }

    /// The (cached) executable for `setup`'s level, link order and text
    /// offset.
    fn link(&self, setup: &ExperimentSetup) -> Result<Arc<Executable>, LinkError> {
        let names = self.object_names();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let order = setup.link_order.resolve(&name_refs);
        self.executable(setup.opt, &order, setup.text_offset)
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
        let exes: Vec<Arc<Executable>> = crossbeam::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|_| h.executable(OptLevel::O2, &order, 0).unwrap()))
                .collect();
            handles.into_iter().map(|j| j.join().unwrap()).collect()
        })
        .unwrap();
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
        let cold = h
            .measure_repeated(&setup, InputSize::Test, 3, CachePolicy::Cold)
            .unwrap();
        assert!(cold.windows(2).all(|w| w[0].counters == w[1].counters));
        let warm = h
            .measure_repeated(&setup, InputSize::Test, 3, CachePolicy::Warm)
            .unwrap();
        assert_eq!(
            warm[0].counters, cold[0].counters,
            "first warm rep is a cold run"
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
}
