//! Optimization levels and the pass pipeline.
//!
//! The pipeline mirrors the structure of a real compiler's `-O` ladder, and
//! the `O2`→`O3` step is the "optimization under test" in the paper's
//! running experiment:
//!
//! | Level | Passes |
//! |-------|--------|
//! | `O0`  | none (all locals in memory, naive code) |
//! | `O1`  | constant folding + algebraic simplification, dead-code elimination |
//! | `O2`  | `O1` + local value numbering (CSE), strength reduction, dead-store elimination, and register promotion of locals at code generation; functions aligned to 16 bytes |
//! | `O3`  | `O2` + inlining, loop unrolling (×4), loop-header alignment; functions aligned to 32 bytes |
//!
//! All passes preserve the reference semantics defined by
//! [`crate::interp::Interpreter`]; the workload test suite checks this
//! differentially for every benchmark at every level.

mod cse;
mod dce;
mod dse;
mod inline;
mod simplify;
mod unroll;

use crate::ir::Module;

pub use inline::inline_functions;
pub use unroll::unroll_loops;

/// A compiler optimization level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OptLevel {
    /// No optimization.
    O0,
    /// Basic clean-up: constant folding and dead-code elimination.
    O1,
    /// `O1` plus CSE, strength reduction and register-promoted locals.
    O2,
    /// `O2` plus inlining, ×4 loop unrolling and loop alignment.
    O3,
}

impl OptLevel {
    /// All levels, lowest first.
    pub const ALL: [OptLevel; 4] = [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3];

    /// Whether the code generator may keep eligible locals in registers.
    #[must_use]
    pub fn promote_locals(self) -> bool {
        self >= OptLevel::O2
    }

    /// Code alignment (bytes) applied to every function by the linker.
    /// Mirrors gcc's growing `-falign-functions` defaults.
    #[must_use]
    pub fn function_align(self) -> u32 {
        match self {
            OptLevel::O0 | OptLevel::O1 => 4,
            OptLevel::O2 => 16,
            OptLevel::O3 => 32,
        }
    }

    /// Whether loop-header blocks are padded to a 16-byte fetch boundary.
    #[must_use]
    pub fn align_loops(self) -> bool {
        self == OptLevel::O3
    }

    /// The unroll factor applied to eligible counted loops, if any.
    #[must_use]
    pub fn unroll_factor(self) -> Option<u32> {
        (self == OptLevel::O3).then_some(4)
    }

    /// Maximum callee size (in IR ops) eligible for inlining, if any.
    #[must_use]
    pub fn inline_threshold(self) -> Option<usize> {
        (self == OptLevel::O3).then_some(180)
    }

    /// The conventional flag spelling, e.g. `"O2"`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            OptLevel::O0 => "O0",
            OptLevel::O1 => "O1",
            OptLevel::O2 => "O2",
            OptLevel::O3 => "O3",
        }
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Runs the pass pipeline for `level` over a copy of `module`.
///
/// The input module is left untouched; the returned module is verified by
/// construction (each pass preserves the IR invariants).
#[must_use]
pub fn optimize(module: &Module, level: OptLevel) -> Module {
    let mut m = module.clone();
    if level == OptLevel::O0 {
        return m;
    }

    // Unroll before inlining: unrolling needs the single-block loop bodies
    // the builder recorded, and inlining splits blocks at call sites.
    if let Some(factor) = level.unroll_factor() {
        unroll::unroll_loops(&mut m, factor);
    }
    if let Some(threshold) = level.inline_threshold() {
        inline::inline_functions(&mut m, threshold);
    }

    let strength = level >= OptLevel::O2;
    for f in &mut m.functions {
        simplify::simplify_function(f, strength);
        if level >= OptLevel::O2 {
            cse::cse_function(f);
            simplify::simplify_function(f, strength);
            dse::dse_function(f);
        }
        dce::dce_function(f);
        dce::remove_unreachable_blocks(f);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::interp::Interpreter;

    /// Build a module exercising all pass machinery, then check that every
    /// optimization level preserves its semantics.
    fn representative_module() -> Module {
        let mut mb = ModuleBuilder::new();
        let helper = mb.function("double", 1, true, |fb| {
            let x = fb.param(0);
            let v = fb.get(x);
            let two = fb.const_(2);
            let d = fb.mul(v, two);
            fb.ret(Some(d));
        });
        mb.function("main", 1, true, |fb| {
            let n = fb.param(0);
            let acc = fb.local_scalar();
            let z = fb.const_(0);
            fb.set(acc, z);
            let i = fb.local_scalar();
            fb.counted_loop(i, 0, n, 1, |fb, iv| {
                let a = fb.get(acc);
                let d = fb.call(helper, &[iv]);
                let s = fb.add(a, d);
                fb.set(acc, s);
                let s2 = fb.get(acc);
                fb.chk(s2);
            });
            let r = fb.get(acc);
            fb.ret(Some(r));
        });
        mb.finish().unwrap()
    }

    #[test]
    fn all_levels_preserve_semantics() {
        let m = representative_module();
        let baseline = Interpreter::new(&m).call_by_name("main", &[37]).unwrap();
        for level in OptLevel::ALL {
            let opt = optimize(&m, level);
            crate::verify::verify_module(&opt).unwrap_or_else(|e| panic!("{level}: {e}"));
            let out = Interpreter::new(&opt).call_by_name("main", &[37]).unwrap();
            assert_eq!(out.return_value, baseline.return_value, "{level}");
            assert_eq!(out.checksum, baseline.checksum, "{level}");
        }
    }

    #[test]
    fn o3_reduces_dynamic_op_count_for_compute_loops() {
        // IR op count captures the unrolling win; the inlining win (call
        // overhead) only appears at the machine level, so measure on a
        // call-free loop.
        let mut mb = ModuleBuilder::new();
        mb.function("main", 1, true, |fb| {
            let n = fb.param(0);
            let acc = fb.local_scalar();
            let z = fb.const_(0);
            fb.set(acc, z);
            let i = fb.local_scalar();
            fb.counted_loop(i, 0, n, 1, |fb, iv| {
                let a = fb.get(acc);
                let t = fb.mul_imm(iv, 8);
                let s = fb.add(a, t);
                fb.set(acc, s);
            });
            let r = fb.get(acc);
            fb.ret(Some(r));
        });
        let m = mb.finish().unwrap();
        let base = Interpreter::new(&optimize(&m, OptLevel::O0))
            .call_by_name("main", &[200])
            .unwrap();
        let o3 = Interpreter::new(&optimize(&m, OptLevel::O3))
            .call_by_name("main", &[200])
            .unwrap();
        assert_eq!(o3.return_value, base.return_value);
        assert!(
            o3.ops_executed < base.ops_executed,
            "O3 ({}) should execute fewer IR ops than O0 ({})",
            o3.ops_executed,
            base.ops_executed
        );
    }

    #[test]
    fn level_properties_are_monotone() {
        assert!(!OptLevel::O1.promote_locals());
        assert!(OptLevel::O2.promote_locals());
        assert_eq!(OptLevel::O3.unroll_factor(), Some(4));
        assert_eq!(OptLevel::O2.unroll_factor(), None);
        assert!(OptLevel::O0.function_align() <= OptLevel::O2.function_align());
        assert!(OptLevel::O2.function_align() <= OptLevel::O3.function_align());
        assert_eq!(OptLevel::O2.to_string(), "O2");
    }

    #[test]
    fn optimize_does_not_mutate_input() {
        let m = representative_module();
        let before = m.clone();
        let _ = optimize(&m, OptLevel::O3);
        assert_eq!(m, before);
    }
}
