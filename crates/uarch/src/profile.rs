//! Per-function cycle attribution — the simulator's built-in profiler.
//!
//! Attribution is exact, not sampled: every retired instruction's cycle
//! cost (including the stalls it caused) is charged to the function whose
//! text range contains its pc. The paper's workflow starts from exactly
//! this kind of profile ("where do the cycles go?") before asking whether
//! the answer can be trusted.
//!
//! The attributor observes the core at instruction-retire boundaries (per
//! block on the block path, per instruction on the reference loop; see
//! [`crate::KernelMode`]): it only *reads* the cycle counter, so profiled
//! and unprofiled runs stay bit-identical, an invariant the differential
//! tests pin.

use std::fmt;

use biaslab_toolchain::link::Executable;

/// One function's share of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileEntry {
    /// Function symbol name.
    pub name: String,
    /// Cycles attributed to instructions inside the function.
    pub cycles: u64,
    /// Instructions retired inside the function.
    pub instructions: u64,
}

/// A completed profile, sorted by descending cycle share.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    /// Entries, hottest first. Functions that never executed are omitted.
    pub entries: Vec<ProfileEntry>,
}

impl Profile {
    /// Total attributed cycles.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.entries.iter().map(|e| e.cycles).sum()
    }

    /// The entry for a function, if it executed.
    #[must_use]
    pub fn entry(&self, name: &str) -> Option<&ProfileEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// The hottest function's name, if anything executed.
    #[must_use]
    pub fn hottest(&self) -> Option<&str> {
        self.entries.first().map(|e| e.name.as_str())
    }

    /// The profile in folded-stacks form — `function cycles`, one line per
    /// function — the format flamegraph tooling consumes and what
    /// `biaslab trace --flame` renders. Attribution here is flat (exact
    /// per-pc charging, no call stacks), so every line is a single frame.
    #[must_use]
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&e.name);
            out.push(' ');
            out.push_str(&e.cycles.to_string());
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total_cycles().max(1);
        writeln!(
            f,
            "{:<24} {:>12} {:>12} {:>7}",
            "function", "cycles", "instructions", "share"
        )?;
        for e in &self.entries {
            writeln!(
                f,
                "{:<24} {:>12} {:>12} {:>6.2}%",
                e.name,
                e.cycles,
                e.instructions,
                100.0 * e.cycles as f64 / total as f64
            )?;
        }
        Ok(())
    }
}

/// Streams (pc, cycle-delta) records into per-function buckets.
#[derive(Debug)]
pub(crate) struct Attributor {
    /// (start, end, name) per text symbol, sorted by start.
    ranges: Vec<(u32, u32, String)>,
    cycles: Vec<u64>,
    instructions: Vec<u64>,
    /// Cache of the last hit range (instruction locality makes this hit
    /// almost always).
    last: usize,
}

impl Attributor {
    pub(crate) fn new(exe: &Executable) -> Attributor {
        let text_end = exe.text_base() + exe.text_size();
        let mut ranges: Vec<(u32, u32, String)> = exe
            .symbols()
            .iter()
            .filter(|s| s.addr >= exe.text_base() && s.addr < text_end)
            .map(|s| (s.addr, s.addr + s.size, s.name.clone()))
            .collect();
        ranges.sort_by_key(|r| r.0);
        let n = ranges.len();
        Attributor {
            ranges,
            cycles: vec![0; n],
            instructions: vec![0; n],
            last: 0,
        }
    }

    pub(crate) fn record(&mut self, pc: u32, cycles: u64) {
        let idx = self.lookup(pc);
        if let Some(i) = idx {
            self.cycles[i] += cycles;
            self.instructions[i] += 1;
        }
    }

    /// Records a whole basic block's span in one call: `instructions`
    /// retired and `cycles` elapsed, all charged to the bucket containing
    /// `pc` (the block entry). Exactly equivalent to per-instruction
    /// [`Attributor::record`] calls because block formation never crosses
    /// a function-symbol start, so every pc in the block resolves to the
    /// entry's bucket and the per-instruction deltas telescope.
    pub(crate) fn record_span(&mut self, pc: u32, cycles: u64, instructions: u64) {
        if instructions == 0 && cycles == 0 {
            return;
        }
        if let Some(i) = self.lookup(pc) {
            self.cycles[i] += cycles;
            self.instructions[i] += instructions;
        }
    }

    fn lookup(&mut self, pc: u32) -> Option<usize> {
        let (s, e, _) = self.ranges.get(self.last)?;
        if *s <= pc && pc < *e {
            return Some(self.last);
        }
        let i = match self.ranges.binary_search_by(|r| r.0.cmp(&pc)) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        let (s, e, _) = &self.ranges[i];
        if *s <= pc && pc < *e {
            self.last = i;
            Some(i)
        } else {
            // Alignment padding between functions: attribute to the
            // preceding function (it is its padding).
            self.last = i;
            Some(i)
        }
    }

    pub(crate) fn finish(self) -> Profile {
        let mut entries: Vec<ProfileEntry> = self
            .ranges
            .into_iter()
            .zip(self.cycles)
            .zip(self.instructions)
            .filter(|(_, instructions)| *instructions > 0)
            .map(|(((_, _, name), cycles), instructions)| ProfileEntry {
                name,
                cycles,
                instructions,
            })
            .collect();
        entries.sort_by_key(|e| std::cmp::Reverse(e.cycles));
        Profile { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_shares() {
        let p = Profile {
            entries: vec![
                ProfileEntry {
                    name: "hot".into(),
                    cycles: 75,
                    instructions: 10,
                },
                ProfileEntry {
                    name: "cold".into(),
                    cycles: 25,
                    instructions: 5,
                },
            ],
        };
        let text = p.to_string();
        assert!(text.contains("hot"));
        assert!(text.contains("75.00%"));
        assert_eq!(p.total_cycles(), 100);
        assert_eq!(p.hottest(), Some("hot"));
        assert!(p.entry("cold").is_some());
        assert!(p.entry("missing").is_none());
    }
}
