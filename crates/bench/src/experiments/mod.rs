//! The experiment registry and shared sweep helpers.

mod ablations;
mod causal_figs;
mod env_figs;
mod ext_analyze;
mod ext_lint;
mod link_figs;
mod random_fig;
mod tables;

pub(crate) use link_figs::orders as link_figs_orders;

use biaslab_core::bias::{sweep_factors, BiasReport};
use biaslab_core::harness::Harness;
use biaslab_core::setup::ExperimentSetup;
use biaslab_toolchain::load::Environment;
use biaslab_toolchain::OptLevel;
use biaslab_uarch::MachineConfig;
use biaslab_workloads::InputSize;

/// How much work to spend: `Full` regenerates the figure at measurement
/// size; `Quick` shrinks inputs and sweeps for CI, the tests and
/// perfbench's quick-suite workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Reduced input size and sweep density.
    Quick,
    /// Paper-scale sweep.
    Full,
}

impl Effort {
    /// The benchmark input size for this effort.
    #[must_use]
    pub fn input(self) -> InputSize {
        match self {
            Effort::Quick => InputSize::Test,
            Effort::Full => InputSize::Ref,
        }
    }

    /// Scales a sweep-point count.
    #[must_use]
    pub fn points(self, full: usize) -> usize {
        match self {
            Effort::Quick => (full / 4).max(3),
            Effort::Full => full,
        }
    }
}

/// A registered experiment.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentInfo {
    /// Experiment id, e.g. `"fig3"`.
    pub id: &'static str,
    /// One-line description (matches DESIGN.md's index).
    pub title: &'static str,
    /// The generator.
    pub run: fn(Effort) -> String,
}

/// Every reproducible table and figure, in the paper's order, followed by
/// the ablations this reproduction adds.
pub static EXPERIMENTS: &[ExperimentInfo] = &[
    ExperimentInfo {
        id: "table1",
        title: "experimental setup inventory",
        run: tables::table1,
    },
    ExperimentInfo {
        id: "fig1",
        title: "perlbench cycles (O2/O3) vs environment size, core2",
        run: env_figs::fig1,
    },
    ExperimentInfo {
        id: "fig2",
        title: "O3 speedup vs environment size on all three machines",
        run: env_figs::fig2,
    },
    ExperimentInfo {
        id: "fig3",
        title: "effect of UNIX environment size on the speedup of O3 on Core 2",
        run: env_figs::fig3,
    },
    ExperimentInfo {
        id: "fig4",
        title: "violin of O3 speedup across environment sizes, all benchmarks",
        run: env_figs::fig4,
    },
    ExperimentInfo {
        id: "fig5",
        title: "perlbench cycles across link orders (O2 and O3)",
        run: link_figs::fig5,
    },
    ExperimentInfo {
        id: "fig6",
        title: "violin of O3 speedup across link orders, all benchmarks",
        run: link_figs::fig6,
    },
    ExperimentInfo {
        id: "fig7",
        title: "cause of env-size bias: stack-shift dose response",
        run: causal_figs::fig7,
    },
    ExperimentInfo {
        id: "fig8",
        title: "cause of link-order bias: code-shift dose response",
        run: causal_figs::fig8,
    },
    ExperimentInfo {
        id: "table2",
        title: "literature survey of 133 papers",
        run: tables::table2,
    },
    ExperimentInfo {
        id: "fig9",
        title: "setup randomization: CI behaviour vs number of setups",
        run: random_fig::fig9,
    },
    ExperimentInfo {
        id: "fig10",
        title: "causal workflow: intervention vs placebo",
        run: causal_figs::fig10,
    },
    ExperimentInfo {
        id: "abl-align",
        title: "ablation: link-order bias vs optimization level (alignment)",
        run: ablations::abl_align,
    },
    ExperimentInfo {
        id: "abl-aslr",
        title: "ablation: ASLR-style text offset vs environment size",
        run: ablations::abl_aslr,
    },
    ExperimentInfo {
        id: "abl-machine",
        title: "ablation: bias magnitude vs L1D associativity",
        run: ablations::abl_machine,
    },
    ExperimentInfo {
        id: "abl-warmup",
        title: "ablation: cold-start vs steady-state measurement",
        run: ablations::abl_warmup,
    },
    ExperimentInfo {
        id: "abl-prefetch",
        title: "ablation: next-line prefetch vs the bias channels",
        run: ablations::abl_prefetch,
    },
    ExperimentInfo {
        id: "ext-analyze",
        title: "extension: static sensitivity ranking vs measured O3/O2 spread",
        run: ext_analyze::ext_analyze,
    },
    ExperimentInfo {
        id: "ext-lint",
        title: "extension: causal validation of biaslint findings (per-class precision)",
        run: ext_lint::ext_lint,
    },
];

/// Runs the experiment with the given id, if it exists.
#[must_use]
pub fn run_experiment(id: &str, effort: Effort) -> Option<String> {
    EXPERIMENTS
        .iter()
        .find(|e| e.id == id)
        .map(|e| (e.run)(effort))
}

// ---- shared helpers --------------------------------------------------------

/// The shared harness for a named suite benchmark: experiments draw from
/// the global orchestrator's registry, so compile/link caches and the
/// measurement cache carry across experiments in one `repro all` run.
///
/// # Panics
///
/// Panics on an unknown name (experiment code, not user input).
#[must_use]
pub(crate) fn harness(name: &str) -> std::sync::Arc<Harness> {
    biaslab_core::Orchestrator::global()
        .harness(name)
        .unwrap_or_else(|| panic!("unknown benchmark {name}"))
}

/// Environment sizes `0, step, 2·step, …` with `n` points.
#[must_use]
pub(crate) fn env_points(n: usize, step: u32) -> Vec<Environment> {
    (0..n as u32)
        .map(|i| {
            let bytes = i * step;
            if bytes < 23 {
                Environment::new()
            } else {
                Environment::of_total_size(bytes)
            }
        })
        .collect()
}

/// The default base setup for a machine at an optimization level.
#[must_use]
pub(crate) fn base_setup(machine: MachineConfig, opt: OptLevel) -> ExperimentSetup {
    ExperimentSetup::default_on(machine, opt)
}

/// The O3-over-O2 environment-size bias of `bench` on each machine, in
/// machine order. One sweep covers every machine, so a setup's runs on
/// all of them share one functional pass and run as one lockstep group.
///
/// # Panics
///
/// Panics on an unknown benchmark or a failed measurement (experiment
/// code, not user input).
#[must_use]
pub(crate) fn env_bias(
    bench: &str,
    machines: &[MachineConfig],
    envs: &[Environment],
    effort: Effort,
) -> Vec<BiasReport> {
    let arms: Vec<Vec<ExperimentSetup>> = machines
        .iter()
        .map(|machine| {
            let base = base_setup(machine.clone(), OptLevel::O2);
            envs.iter().map(|e| base.with_env(e.clone())).collect()
        })
        .collect();
    sweep_factors(
        &harness(bench),
        "environment size",
        &arms,
        OptLevel::O2,
        OptLevel::O3,
        effort.input(),
    )
    .expect("sweep succeeds")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_complete() {
        let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate experiment ids");
        for required in ["table1", "table2"].iter().chain(
            [
                "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
            ]
            .iter(),
        ) {
            assert!(ids.contains(required), "missing {required}");
        }
    }

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run_experiment("fig99", Effort::Quick).is_none());
    }

    #[test]
    fn effort_scaling() {
        assert_eq!(Effort::Full.points(64), 64);
        assert_eq!(Effort::Quick.points(64), 16);
        assert_eq!(Effort::Quick.points(8), 3);
        assert_eq!(Effort::Quick.input(), InputSize::Test);
    }

    #[test]
    fn env_points_start_empty_and_grow() {
        let envs = env_points(5, 100);
        assert_eq!(envs[0].stack_bytes(), Environment::new().stack_bytes());
        assert_eq!(envs[2].stack_bytes(), 200);
        assert!(envs[4].stack_bytes() > envs[2].stack_bytes());
    }
}
