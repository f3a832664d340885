//! Hardware event counters.

use std::fmt;
use std::ops::{Add, AddAssign};

/// Event counts collected during a simulated run — the analogue of the
/// hardware performance counters the paper reads on real machines, except
/// complete and deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Retired instructions (padding `nop`s included).
    pub instructions: u64,
    /// Instruction-fetch window accesses.
    pub fetches: u64,
    /// L1 instruction-cache misses.
    pub l1i_misses: u64,
    /// L1 data-cache accesses.
    pub l1d_accesses: u64,
    /// L1 data-cache misses.
    pub l1d_misses: u64,
    /// Unified L2 misses (from either L1).
    pub l2_misses: u64,
    /// Instruction-TLB misses.
    pub itlb_misses: u64,
    /// Data-TLB misses.
    pub dtlb_misses: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Conditional branches whose predicted direction was wrong.
    pub mispredicts: u64,
    /// Taken control transfers whose target missed in the BTB.
    pub btb_misses: u64,
    /// Returns mispredicted by the return-address stack.
    pub ras_mispredicts: u64,
    /// Same-bank L1D conflicts between back-to-back accesses.
    pub bank_conflicts: u64,
    /// Data accesses that straddled a cache-line boundary.
    pub line_splits: u64,
    /// Data accesses that straddled a page boundary.
    pub page_splits: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Stall cycles attributed to the front end (I-cache, I-TLB, BTB).
    pub stall_frontend: u64,
    /// Stall cycles attributed to data memory (D-cache, D-TLB, banks).
    pub stall_memory: u64,
    /// Stall cycles attributed to branch mispredictions (direction + RAS).
    pub stall_branch: u64,
    /// Extra cycles attributed to long-latency ALU ops (mul/div).
    pub stall_compute: u64,
}

impl Counters {
    /// Cycles per instruction; `NaN` if no instructions retired.
    ///
    /// # Examples
    ///
    /// ```
    /// use biaslab_uarch::Counters;
    ///
    /// let c = Counters { cycles: 150, instructions: 100, ..Counters::default() };
    /// assert!((c.cpi() - 1.5).abs() < 1e-12);
    /// ```
    #[must_use]
    pub fn cpi(&self) -> f64 {
        self.cycles as f64 / self.instructions as f64
    }

    /// L1D miss rate over L1D accesses; 0 if there were none.
    #[must_use]
    pub fn l1d_miss_rate(&self) -> f64 {
        if self.l1d_accesses == 0 {
            0.0
        } else {
            self.l1d_misses as f64 / self.l1d_accesses as f64
        }
    }

    /// Total attributed stall cycles (frontend + memory + branch +
    /// compute); the remainder of `cycles` is base issue.
    #[must_use]
    pub fn stall_total(&self) -> u64 {
        self.stall_frontend + self.stall_memory + self.stall_branch + self.stall_compute
    }

    /// Branch misprediction rate; 0 if there were no branches.
    #[must_use]
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }
}

impl Add for Counters {
    type Output = Counters;

    fn add(mut self, rhs: Counters) -> Counters {
        self += rhs;
        self
    }
}

impl AddAssign for Counters {
    fn add_assign(&mut self, rhs: Counters) {
        self.cycles += rhs.cycles;
        self.instructions += rhs.instructions;
        self.fetches += rhs.fetches;
        self.l1i_misses += rhs.l1i_misses;
        self.l1d_accesses += rhs.l1d_accesses;
        self.l1d_misses += rhs.l1d_misses;
        self.l2_misses += rhs.l2_misses;
        self.itlb_misses += rhs.itlb_misses;
        self.dtlb_misses += rhs.dtlb_misses;
        self.branches += rhs.branches;
        self.mispredicts += rhs.mispredicts;
        self.btb_misses += rhs.btb_misses;
        self.ras_mispredicts += rhs.ras_mispredicts;
        self.bank_conflicts += rhs.bank_conflicts;
        self.line_splits += rhs.line_splits;
        self.page_splits += rhs.page_splits;
        self.loads += rhs.loads;
        self.stores += rhs.stores;
        self.stall_frontend += rhs.stall_frontend;
        self.stall_memory += rhs.stall_memory;
        self.stall_branch += rhs.stall_branch;
        self.stall_compute += rhs.stall_compute;
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "cycles            {:>14}", self.cycles)?;
        writeln!(f, "instructions      {:>14}", self.instructions)?;
        writeln!(f, "cpi               {:>14.3}", self.cpi())?;
        writeln!(f, "l1d accesses      {:>14}", self.l1d_accesses)?;
        writeln!(f, "l1d misses        {:>14}", self.l1d_misses)?;
        writeln!(f, "l1i misses        {:>14}", self.l1i_misses)?;
        writeln!(f, "l2 misses         {:>14}", self.l2_misses)?;
        writeln!(f, "dtlb misses       {:>14}", self.dtlb_misses)?;
        writeln!(f, "itlb misses       {:>14}", self.itlb_misses)?;
        writeln!(f, "branches          {:>14}", self.branches)?;
        writeln!(f, "mispredicts       {:>14}", self.mispredicts)?;
        writeln!(f, "btb misses        {:>14}", self.btb_misses)?;
        writeln!(f, "bank conflicts    {:>14}", self.bank_conflicts)?;
        writeln!(f, "line splits       {:>14}", self.line_splits)?;
        writeln!(f, "page splits       {:>14}", self.page_splits)?;
        writeln!(f, "stall: frontend   {:>14}", self.stall_frontend)?;
        writeln!(f, "stall: memory     {:>14}", self.stall_memory)?;
        writeln!(f, "stall: branch     {:>14}", self.stall_branch)?;
        write!(f, "stall: compute    {:>14}", self.stall_compute)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates() {
        let c = Counters {
            cycles: 100,
            instructions: 50,
            l1d_accesses: 10,
            l1d_misses: 2,
            branches: 8,
            mispredicts: 4,
            ..Counters::default()
        };
        assert!((c.cpi() - 2.0).abs() < 1e-12);
        assert!((c.l1d_miss_rate() - 0.2).abs() < 1e-12);
        assert!((c.mispredict_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_denominators_do_not_panic() {
        let c = Counters::default();
        assert_eq!(c.l1d_miss_rate(), 0.0);
        assert_eq!(c.mispredict_rate(), 0.0);
        assert!(c.cpi().is_nan());
    }

    #[test]
    fn addition_accumulates_fieldwise() {
        let a = Counters {
            cycles: 1,
            loads: 2,
            ..Counters::default()
        };
        let b = Counters {
            cycles: 10,
            stores: 3,
            ..Counters::default()
        };
        let s = a + b;
        assert_eq!(s.cycles, 11);
        assert_eq!(s.loads, 2);
        assert_eq!(s.stores, 3);
    }

    #[test]
    fn display_mentions_key_counters() {
        let text = Counters::default().to_string();
        assert!(text.contains("cycles"));
        assert!(text.contains("mispredicts"));
    }
}
