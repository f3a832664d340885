//! Experimental setups and the factors that (should not, but do) matter.
//!
//! An [`ExperimentSetup`] captures everything about how a measurement is
//! taken: the machine model, the optimization level, and — the paper's
//! subjects — the **link order** and the **UNIX environment**, plus two
//! loader/linker interventions used by the causal-analysis experiments,
//! the warm-up runs taken before the measured one, and a link-time
//! symbol-layout remedy.

use biaslab_toolchain::load::Environment;
use biaslab_toolchain::OptLevel;
use biaslab_uarch::MachineConfig;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// How the benchmark's object files are ordered at link time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkOrder {
    /// Declaration order (what a Makefile author happened to write).
    Default,
    /// Reverse declaration order.
    Reversed,
    /// Objects sorted by symbol name (what `ls` would give you).
    Alphabetical,
    /// A seeded random permutation.
    Random(u64),
}

impl LinkOrder {
    /// Resolves the order to a permutation of `0..names.len()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use biaslab_core::setup::LinkOrder;
    ///
    /// let names = ["zeta", "alpha", "mid"];
    /// assert_eq!(LinkOrder::Default.resolve(&names), vec![0, 1, 2]);
    /// assert_eq!(LinkOrder::Reversed.resolve(&names), vec![2, 1, 0]);
    /// assert_eq!(LinkOrder::Alphabetical.resolve(&names), vec![1, 2, 0]);
    /// ```
    #[must_use]
    pub fn resolve(&self, names: &[&str]) -> Vec<usize> {
        let n = names.len();
        match self {
            LinkOrder::Default => (0..n).collect(),
            LinkOrder::Reversed => (0..n).rev().collect(),
            LinkOrder::Alphabetical => {
                let mut idx: Vec<usize> = (0..n).collect();
                idx.sort_by_key(|&i| names[i]);
                idx
            }
            LinkOrder::Random(seed) => {
                let mut idx: Vec<usize> = (0..n).collect();
                idx.shuffle(&mut StdRng::seed_from_u64(*seed));
                idx
            }
        }
    }
}

/// A link-time layout change to one symbol: the padding and
/// alignment-directive remedies `biaslint` findings pre-register, applied
/// through [`biaslab_toolchain::link::Linker::pad_symbol`] and
/// [`biaslab_toolchain::link::Linker::align_symbol`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SymbolLayout {
    /// Insert `bytes` of never-executed padding before `symbol`.
    Pad {
        /// The symbol to pad.
        symbol: String,
        /// Padding in bytes.
        bytes: u32,
    },
    /// Raise `symbol`'s placement alignment to `align` bytes.
    Align {
        /// The symbol to align.
        symbol: String,
        /// Alignment in bytes.
        align: u32,
    },
}

/// A complete experimental setup.
#[derive(Debug, Clone)]
pub struct ExperimentSetup {
    /// The machine model to run on.
    pub machine: MachineConfig,
    /// The optimization level under measurement.
    pub opt: OptLevel,
    /// Link order of the benchmark's objects.
    pub link_order: LinkOrder,
    /// The process environment (its *size* is the paper's factor).
    pub env: Environment,
    /// Extra loader-level stack shift in bytes (causal-analysis
    /// intervention; 0 in ordinary experiments).
    pub stack_shift: u32,
    /// Extra linker-level text-base offset in bytes (causal-analysis
    /// intervention; 0 in ordinary experiments).
    pub text_offset: u32,
    /// Verified runs on the same machine, each on a freshly loaded
    /// process, before the measured run (0: the measured run starts on a
    /// cold machine). Whether to discard warm-up iterations is one more
    /// setup decision, so it is a factor like the others.
    pub warmup_runs: u32,
    /// A symbol-layout remedy applied at link time (`None` in ordinary
    /// experiments).
    pub symbol_layout: Option<SymbolLayout>,
}

impl ExperimentSetup {
    /// The setup a careless experimenter gets by default: Core 2, default
    /// link order, empty environment.
    #[must_use]
    pub fn default_on(machine: MachineConfig, opt: OptLevel) -> ExperimentSetup {
        ExperimentSetup {
            machine,
            opt,
            link_order: LinkOrder::Default,
            env: Environment::new(),
            stack_shift: 0,
            text_offset: 0,
            warmup_runs: 0,
            symbol_layout: None,
        }
    }

    /// Returns this setup with a different optimization level — the
    /// comparison the O2-vs-O3 experiments make.
    #[must_use]
    pub fn with_opt(&self, opt: OptLevel) -> ExperimentSetup {
        ExperimentSetup {
            opt,
            ..self.clone()
        }
    }

    /// Returns this setup with the environment replaced.
    #[must_use]
    pub fn with_env(&self, env: Environment) -> ExperimentSetup {
        ExperimentSetup {
            env,
            ..self.clone()
        }
    }

    /// Returns this setup with the link order replaced.
    #[must_use]
    pub fn with_link_order(&self, link_order: LinkOrder) -> ExperimentSetup {
        ExperimentSetup {
            link_order,
            ..self.clone()
        }
    }

    /// Returns this setup with `runs` warm-up runs before the measured
    /// one.
    #[must_use]
    pub fn with_warmup_runs(&self, runs: u32) -> ExperimentSetup {
        ExperimentSetup {
            warmup_runs: runs,
            ..self.clone()
        }
    }

    /// Returns this setup with a symbol-layout remedy applied at link
    /// time.
    #[must_use]
    pub fn with_symbol_layout(&self, layout: SymbolLayout) -> ExperimentSetup {
        ExperimentSetup {
            symbol_layout: Some(layout),
            ..self.clone()
        }
    }

    /// Whether `self` and `other` run the same functional pass: the same
    /// executable, the same process image and the same instruction budget,
    /// so one pass of the program's instructions, values, addresses and
    /// branch outcomes serves both and only their machines' timing differs.
    /// Such setups can be measured in one lockstep group
    /// ([`crate::harness::Harness::measure_group`]).
    #[must_use]
    pub fn shares_functional_pass(&self, other: &ExperimentSetup) -> bool {
        // Exhaustive on purpose: a new setup factor must decide here
        // whether it changes the functional pass.
        let ExperimentSetup {
            machine,
            opt,
            link_order,
            env,
            stack_shift,
            text_offset,
            warmup_runs,
            symbol_layout,
        } = self;
        machine.max_instructions == other.machine.max_instructions
            && *opt == other.opt
            && *link_order == other.link_order
            && *env == other.env
            && *stack_shift == other.stack_shift
            && *text_offset == other.text_offset
            && *warmup_runs == other.warmup_runs
            && *symbol_layout == other.symbol_layout
    }

    /// A short human-readable summary, e.g. `core2/O3/env=612B/order=rand(7)`.
    /// Warm-up runs and a symbol layout add `/warmup=2` and
    /// `/layout=pad(main,8)` or `/layout=align(main,64)`; a setup without
    /// them reads as it always has.
    #[must_use]
    pub fn summary(&self) -> String {
        let order = match self.link_order {
            LinkOrder::Default => "default".to_owned(),
            LinkOrder::Reversed => "reversed".to_owned(),
            LinkOrder::Alphabetical => "alpha".to_owned(),
            LinkOrder::Random(s) => format!("rand({s})"),
        };
        let mut out = format!(
            "{}/{}/env={}B/order={}",
            self.machine.name,
            self.opt,
            self.env.stack_bytes(),
            order
        );
        if self.warmup_runs != 0 {
            out.push_str(&format!("/warmup={}", self.warmup_runs));
        }
        match &self.symbol_layout {
            None => {}
            Some(SymbolLayout::Pad { symbol, bytes }) => {
                out.push_str(&format!("/layout=pad({symbol},{bytes})"));
            }
            Some(SymbolLayout::Align { symbol, align }) => {
                out.push_str(&format!("/layout=align({symbol},{align})"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_are_permutations() {
        let names = ["f", "a", "q", "b", "z"];
        for order in [
            LinkOrder::Default,
            LinkOrder::Reversed,
            LinkOrder::Alphabetical,
            LinkOrder::Random(3),
            LinkOrder::Random(99),
        ] {
            let mut p = order.resolve(&names);
            p.sort_unstable();
            assert_eq!(p, vec![0, 1, 2, 3, 4], "{order:?}");
        }
    }

    #[test]
    fn random_orders_differ_by_seed_and_repeat_by_seed() {
        let names = ["a", "b", "c", "d", "e", "f", "g"];
        assert_eq!(
            LinkOrder::Random(5).resolve(&names),
            LinkOrder::Random(5).resolve(&names)
        );
        let distinct = (0..20)
            .map(|s| LinkOrder::Random(s).resolve(&names))
            .collect::<std::collections::HashSet<_>>();
        assert!(distinct.len() > 10, "most seeds give distinct orders");
    }

    #[test]
    fn summary_mentions_the_factors() {
        let s = ExperimentSetup::default_on(MachineConfig::core2(), OptLevel::O3)
            .with_env(Environment::of_total_size(612))
            .with_link_order(LinkOrder::Random(7));
        let text = s.summary();
        assert!(text.contains("core2"));
        assert!(text.contains("O3"));
        assert!(text.contains("612"));
        assert!(text.contains("rand(7)"));
        assert_eq!(text, "core2/O3/env=612B/order=rand(7)");
        let warm = s.with_warmup_runs(2).with_symbol_layout(SymbolLayout::Pad {
            symbol: "main".to_owned(),
            bytes: 8,
        });
        assert_eq!(
            warm.summary(),
            format!("{text}/warmup=2/layout=pad(main,8)")
        );
        let aligned = s.with_symbol_layout(SymbolLayout::Align {
            symbol: "main".to_owned(),
            align: 64,
        });
        assert_eq!(aligned.summary(), format!("{text}/layout=align(main,64)"));
    }
}
