//! The static-analysis pass manager.
//!
//! `biaslint` (and any future diagnostic) wants several per-function
//! analyses — control flow, liveness, reaching definitions, value
//! ranges — over the *same* optimized module, and different lints want
//! different subsets. The [`PassManager`] memoizes each analysis per
//! function so a pass runs at most once no matter how many lints, reports
//! or threads ask: it is `Sync`, and one manager per benchmark and level
//! serves every machine (see [`crate::driver::LevelFacts`]).
//!
//! ## Contract
//!
//! * A *pass* is a pure function of one IR [`Function`] (the dataflow
//!   passes live in `biaslab_toolchain::dataflow`; the CFG pass is this
//!   crate's [`CfgAnalysis`]). Passes never see addresses — address
//!   facts come from `crate::image` and are layered on top by the lints.
//! * Results are computed lazily on first request and cached for the
//!   lifetime of the manager.
//! * Results are asked for through a [`PassSession`], one per client
//!   (a lint report opens one per level). [`PassSession::passes_run`]
//!   counts the distinct `(pass, function)` pairs that client used,
//!   whether or not another client had already computed them, and
//!   [`PassSession::functions_analyzed`] the functions it used at least
//!   one pass of; the lint driver exports these as
//!   `analyze.lint.{passes_run,functions_analyzed}`. So a report's counts
//!   do not depend on what ran before it.
//!
//! Adding a pass is mechanical: add a `OnceLock` slot, a bit, and an
//! accessor on [`PassSession`] that goes through [`PassSession::memo`],
//! and (if a lint needs it) use it — nothing else in the crate has to
//! change.

use std::cell::Cell;
use std::sync::{Arc, OnceLock};

use biaslab_toolchain::dataflow::{Liveness, ReachingDefs, ValueRanges};
use biaslab_toolchain::ir::{Function, Module};
use biaslab_toolchain::opt::OptLevel;

use crate::cfg::CfgAnalysis;

/// Per-function memoization slots, one `OnceLock` per registered pass.
#[derive(Default)]
struct FunctionSlot {
    cfg: OnceLock<CfgAnalysis>,
    liveness: OnceLock<Liveness>,
    reaching: OnceLock<ReachingDefs>,
    ranges: OnceLock<ValueRanges>,
}

/// A session's record bit for each pass.
const CFG: u8 = 1;
const LIVENESS: u8 = 2;
const REACHING: u8 = 4;
const RANGES: u8 = 8;

/// Lazily-memoized per-function analyses over one optimized module,
/// shared by every [`PassSession`] on every thread.
pub struct PassManager {
    module: Arc<Module>,
    level: OptLevel,
    slots: Vec<FunctionSlot>,
}

impl PassManager {
    /// Wraps an (already optimized) module. `level` is carried as
    /// context for diagnostics; the passes themselves are level-blind.
    #[must_use]
    pub fn new(module: Arc<Module>, level: OptLevel) -> PassManager {
        let slots = module
            .functions
            .iter()
            .map(|_| FunctionSlot::default())
            .collect();
        PassManager {
            module,
            level,
            slots,
        }
    }

    /// Opens a session: the accessors, counting what this client uses.
    #[must_use]
    pub fn session(&self) -> PassSession<'_> {
        PassSession {
            pm: self,
            used: vec![Cell::new(0); self.slots.len()],
        }
    }

    /// The module under analysis.
    #[must_use]
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The optimization level the module was optimized at.
    #[must_use]
    pub fn level(&self) -> OptLevel {
        self.level
    }

    /// The IR function at `func` (index into the module's declaration
    /// order).
    ///
    /// # Panics
    ///
    /// Panics if `func` is out of range.
    #[must_use]
    pub fn function(&self, func: usize) -> &Function {
        &self.module.functions[func]
    }

    /// Index of the function named `name`, if it exists.
    #[must_use]
    pub fn find(&self, name: &str) -> Option<usize> {
        self.module.functions.iter().position(|f| f.name == name)
    }
}

/// One client's view of a [`PassManager`]: the pass accessors, recording
/// which `(pass, function)` pairs this client asked for.
pub struct PassSession<'p> {
    pm: &'p PassManager,
    /// Per function, the bits of the passes asked for.
    used: Vec<Cell<u8>>,
}

impl<'p> PassSession<'p> {
    /// The shared manager (module, level, function lookup).
    #[must_use]
    pub fn manager(&self) -> &'p PassManager {
        self.pm
    }

    fn memo<T>(
        &self,
        func: usize,
        pass: u8,
        cell: impl FnOnce(&'p FunctionSlot) -> &'p OnceLock<T>,
        run: impl FnOnce(&Function) -> T,
    ) -> &'p T {
        let used = &self.used[func];
        used.set(used.get() | pass);
        cell(&self.pm.slots[func]).get_or_init(|| run(self.pm.function(func)))
    }

    /// Control-flow analysis (dominators, natural loops, frequencies).
    ///
    /// # Panics
    ///
    /// Panics if `func` is out of range.
    #[must_use]
    pub fn cfg(&self, func: usize) -> &'p CfgAnalysis {
        self.memo(func, CFG, |s| &s.cfg, CfgAnalysis::of)
    }

    /// Backward liveness of local-slot cells.
    ///
    /// # Panics
    ///
    /// Panics if `func` is out of range.
    #[must_use]
    pub fn liveness(&self, func: usize) -> &'p Liveness {
        self.memo(func, LIVENESS, |s| &s.liveness, Liveness::of)
    }

    /// Forward reaching definitions of local-slot cells.
    ///
    /// # Panics
    ///
    /// Panics if `func` is out of range.
    #[must_use]
    pub fn reaching(&self, func: usize) -> &'p ReachingDefs {
        self.memo(func, REACHING, |s| &s.reaching, ReachingDefs::of)
    }

    /// Constant/value-range propagation.
    ///
    /// # Panics
    ///
    /// Panics if `func` is out of range.
    #[must_use]
    pub fn ranges(&self, func: usize) -> &'p ValueRanges {
        self.memo(func, RANGES, |s| &s.ranges, ValueRanges::of)
    }

    /// Distinct `(pass, function)` pairs this session asked for.
    #[must_use]
    pub fn passes_run(&self) -> u64 {
        self.used
            .iter()
            .map(|u| u64::from(u.get().count_ones()))
            .sum()
    }

    /// Functions this session asked at least one pass of.
    #[must_use]
    pub fn functions_analyzed(&self) -> u64 {
        self.used.iter().filter(|u| u.get() != 0).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use biaslab_toolchain::opt::optimize;
    use biaslab_workloads::suite;

    use super::*;

    #[test]
    fn passes_are_memoized_and_counted_per_session() {
        let b = &suite()[0];
        let pm = PassManager::new(Arc::new(optimize(b.module(), OptLevel::O2)), OptLevel::O2);
        let s = pm.session();
        assert_eq!(s.passes_run(), 0);
        assert_eq!(s.functions_analyzed(), 0);

        let l1 = s.liveness(0) as *const Liveness;
        let l2 = s.liveness(0) as *const Liveness;
        assert_eq!(l1, l2, "second request must hit the cache");
        assert_eq!(s.passes_run(), 1);
        assert_eq!(s.functions_analyzed(), 1);

        let _ = s.reaching(0);
        let _ = s.ranges(0);
        let _ = s.cfg(0);
        assert_eq!(s.passes_run(), 4);
        assert_eq!(s.functions_analyzed(), 1);

        let _ = s.liveness(1);
        assert_eq!(s.passes_run(), 5);
        assert_eq!(s.functions_analyzed(), 2);

        // A second session shares the results but counts only its own use.
        let t = pm.session();
        assert_eq!(t.liveness(0) as *const Liveness, l1);
        assert_eq!(t.passes_run(), 1);
        assert_eq!(t.functions_analyzed(), 1);
        assert_eq!(s.passes_run(), 5);
    }

    #[test]
    fn sessions_on_two_threads_share_one_result() {
        fn assert_sync<T: Sync>(_: &T) {}
        let b = &suite()[2];
        let pm = PassManager::new(Arc::new(optimize(b.module(), OptLevel::O3)), OptLevel::O3);
        assert_sync(&pm);
        let n = pm.module().functions.len();
        let start = std::sync::Barrier::new(2);
        let seen: Vec<Vec<usize>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        let s = pm.session();
                        let ptrs = (0..n)
                            .map(|f| s.ranges(f) as *const ValueRanges as usize)
                            .collect();
                        assert_eq!(s.passes_run(), n as u64);
                        ptrs
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(seen[0], seen[1]);
    }

    #[test]
    fn results_match_direct_computation() {
        let b = &suite()[1];
        let pm = PassManager::new(Arc::new(optimize(b.module(), OptLevel::O3)), OptLevel::O3);
        let s = pm.session();
        let f = pm.function(0);
        let direct = Liveness::of(f);
        let managed = s.liveness(0);
        for bi in 0..f.blocks.len() {
            for c in 0..direct.cells.len() {
                assert_eq!(managed.is_live_in(bi, c), direct.is_live_in(bi, c));
                assert_eq!(managed.is_live_out(bi, c), direct.is_live_out(bi, c));
            }
        }
        assert_eq!(pm.level(), OptLevel::O3);
        assert_eq!(pm.find(&f.name), Some(0));
        assert_eq!(pm.find("nonesuch"), None);
    }
}
