//! Static hotness: which functions, branches and memory operations are
//! expected to execute often, derived from loop nesting and the call
//! graph — never from a run.
//!
//! Per-block frequencies come from [`crate::cfg`]; function-level weights
//! propagate those frequencies through the call graph by fixpoint
//! iteration (`weight(g) += weight(f) · freq(call site)`), damped and
//! clamped so recursion converges. The output is a per-function weight
//! normalized to the hottest function, plus hotness-weighted counts of
//! the IR features the address-space layer cares about: stack traffic
//! (locals), pointer traffic (loads/stores), call executions (implicit
//! frame push/pop traffic), and conditional branches.

use std::collections::HashMap;

use biaslab_toolchain::codegen::frame_plan;
use biaslab_toolchain::ir::{Module, Op, Terminator};
use biaslab_toolchain::opt::OptLevel;

use crate::cfg::CfgAnalysis;

/// Fixpoint iterations for call-graph weight propagation. The call
/// graphs in this suite are shallow (depth ≤ 5, occasional recursion);
/// a couple dozen damped rounds is plenty for a static estimate.
const CALL_ITERATIONS: usize = 24;

/// Weight clamp: keeps recursive cycles from overflowing to infinity.
const WEIGHT_CLAMP: f64 = 1e18;

/// Static hotness of one function.
#[derive(Debug, Clone)]
pub struct FunctionHotness {
    /// Function name (matches the linker symbol).
    pub name: String,
    /// Call-graph weight, normalized so the hottest function is 1.0.
    pub weight: f64,
    /// Frequency-weighted count of stack memory operations: accesses to
    /// *memory-resident* locals (register-promoted locals produce none —
    /// the codegen's own [`frame_plan`] decides which is which) plus the
    /// prologue/epilogue save-restore traffic executed once per entry.
    pub stack_ops: f64,
    /// Frame size in bytes the codegen will allocate, from the same
    /// [`frame_plan`]. Together with the name this identifies the frame:
    /// two levels whose hot traffic sits in identically-shaped frames
    /// respond to a stack shift in lockstep.
    pub frame: u32,
    /// Frequency-weighted count of pointer memory operations
    /// (`Load`/`Store`).
    pub mem_ops: f64,
    /// Frequency-weighted count of call sites: every execution pushes
    /// and pops a frame (ra/fp save + restore), stack traffic the IR
    /// does not spell out as local operations.
    pub call_ops: f64,
    /// Frequency-weighted count of conditional branches.
    pub branches: f64,
    /// Frequency-weighted count of all operations.
    pub total_ops: f64,
}

/// Static hotness of every function in a module.
#[derive(Debug, Clone)]
pub struct ModuleHotness {
    /// Per-function hotness, in the module's declaration order.
    pub functions: Vec<FunctionHotness>,
    by_name: HashMap<String, usize>,
}

impl ModuleHotness {
    /// Analyzes `module`, treating `entry` as the program entry point
    /// (weight 1 before propagation). An unknown entry name falls back
    /// to the first function. `level` selects the codegen frame plan the
    /// stack-traffic accounting mirrors (register promotion, frame
    /// sizes, prologue saves).
    ///
    /// # Panics
    ///
    /// Panics if the module has no functions or a function does not
    /// verify (empty blocks / out-of-range successors).
    #[must_use]
    pub fn of(module: &Module, entry: &str, level: OptLevel) -> ModuleHotness {
        assert!(!module.functions.is_empty(), "module has no functions");
        let n = module.functions.len();
        let cfgs: Vec<CfgAnalysis> = module.functions.iter().map(CfgAnalysis::of).collect();

        // Frequency-weighted call-site multiplier per (caller, callee).
        let mut call_weight = vec![vec![0.0f64; n]; n];
        for (ci, f) in module.functions.iter().enumerate() {
            for (bi, b) in f.blocks.iter().enumerate() {
                let freq = cfgs[ci].freq[bi];
                if freq == 0.0 {
                    continue;
                }
                for op in &b.ops {
                    if let Op::Call { func, .. } = op {
                        call_weight[ci][func.0 as usize] += freq;
                    }
                }
            }
        }

        let entry_idx = module
            .functions
            .iter()
            .position(|f| f.name == entry)
            .unwrap_or(0);
        let mut weight = vec![0.0f64; n];
        weight[entry_idx] = 1.0;
        for _ in 0..CALL_ITERATIONS {
            let mut next = vec![0.0f64; n];
            next[entry_idx] = 1.0;
            for caller in 0..n {
                if weight[caller] == 0.0 {
                    continue;
                }
                for callee in 0..n {
                    let w = call_weight[caller][callee];
                    if w > 0.0 {
                        next[callee] = (next[callee] + weight[caller] * w).min(WEIGHT_CLAMP);
                    }
                }
            }
            weight = next;
        }
        let max = weight.iter().copied().fold(0.0f64, f64::max).max(1.0);

        let functions: Vec<FunctionHotness> = module
            .functions
            .iter()
            .zip(cfgs)
            .zip(&weight)
            .map(|((f, cfg), &w)| {
                let plan = frame_plan(f, level);
                // One prologue + epilogue per entry (the entry block runs
                // exactly once per call, at frequency 1).
                let mut stack_ops = f64::from(plan.entry_stack_ops());
                let mut mem_ops = 0.0;
                let mut call_ops = 0.0;
                let mut branches = 0.0;
                let mut total_ops = 0.0;
                for (bi, b) in f.blocks.iter().enumerate() {
                    let freq = cfg.freq[bi];
                    if freq == 0.0 {
                        continue;
                    }
                    for op in &b.ops {
                        total_ops += freq;
                        match op {
                            Op::LoadLocal { local, .. } | Op::StoreLocal { local, .. }
                                if plan.in_memory(local.0 as usize) =>
                            {
                                stack_ops += freq;
                            }
                            Op::AddrLocal { .. } => stack_ops += freq,
                            Op::Load { .. } | Op::Store { .. } => mem_ops += freq,
                            Op::Call { .. } => call_ops += freq,
                            _ => {}
                        }
                    }
                    if matches!(b.term, Terminator::Branch { .. }) {
                        branches += freq;
                    }
                }
                FunctionHotness {
                    name: f.name.clone(),
                    weight: w / max,
                    stack_ops,
                    frame: plan.frame,
                    mem_ops,
                    call_ops,
                    branches,
                    total_ops,
                }
            })
            .collect();
        let by_name = functions
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.clone(), i))
            .collect();
        ModuleHotness { functions, by_name }
    }

    /// The hotness entry for `name`, if the function exists.
    #[must_use]
    pub fn function(&self, name: &str) -> Option<&FunctionHotness> {
        self.by_name.get(name).map(|&i| &self.functions[i])
    }

    /// Compressed image weight of function `name` in `[0, 1]`:
    /// logarithmic in the raw call-graph weight, so a 4096× hotter inner
    /// loop dominates without erasing everything else from the set
    /// pressure. Unknown names (e.g. the linker's `__start` shim)
    /// weigh zero.
    #[must_use]
    pub fn image_weight(&self, name: &str) -> f64 {
        self.function(name)
            .map(|f| compress(f.weight))
            .unwrap_or(0.0)
    }

    /// Weighted totals over all functions:
    /// `(stack_ops, mem_ops, call_ops, branches, total_ops)`, each
    /// scaled by the owning function's call-graph weight.
    #[must_use]
    pub fn traffic(&self) -> (f64, f64, f64, f64, f64) {
        let mut t = (0.0, 0.0, 0.0, 0.0, 0.0);
        for f in &self.functions {
            t.0 += f.weight * f.stack_ops;
            t.1 += f.weight * f.mem_ops;
            t.2 += f.weight * f.call_ops;
            t.3 += f.weight * f.branches;
            t.4 += f.weight * f.total_ops;
        }
        t
    }
}

/// Logarithmic compression of a normalized weight into `[0, 1]`.
#[must_use]
pub fn compress(w: f64) -> f64 {
    if w <= 0.0 {
        0.0
    } else {
        (1.0 + w * 65535.0).log2() / 16.0
    }
}

#[cfg(test)]
mod tests {
    use biaslab_workloads::suite;

    use super::*;

    #[test]
    fn entry_is_hot_and_weights_are_normalized() {
        let b = &suite()[0];
        let h = ModuleHotness::of(b.module(), b.entry(), OptLevel::O2);
        let main = h.function("main").expect("main exists");
        assert!(main.weight > 0.0);
        for f in &h.functions {
            assert!((0.0..=1.0).contains(&f.weight), "{} weight", f.name);
        }
        assert!(h.functions.iter().any(|f| f.weight == 1.0));
    }

    #[test]
    fn loop_nesting_outweighs_entry() {
        // Every suite benchmark drives its kernels from loops in main, so
        // some callee must outweigh main itself.
        let b = &suite()[0];
        let h = ModuleHotness::of(b.module(), b.entry(), OptLevel::O2);
        let main_w = h.function("main").unwrap().weight;
        assert!(
            h.functions.iter().any(|f| f.weight > main_w),
            "a loop-called kernel should be hotter than main"
        );
    }

    #[test]
    fn compress_is_monotone_and_bounded() {
        assert_eq!(compress(0.0), 0.0);
        assert!(compress(1.0) <= 1.0);
        assert!(compress(0.5) < compress(1.0));
        assert!(compress(1e-4) > 0.0);
    }

    #[test]
    fn unknown_symbol_weighs_zero() {
        let b = &suite()[0];
        let h = ModuleHotness::of(b.module(), b.entry(), OptLevel::O2);
        assert_eq!(h.image_weight("__start"), 0.0);
    }
}
