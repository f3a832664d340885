//! `ext-analyze`: static-vs-dynamic validation of the bias analyzer.
//!
//! An extension, not a paper figure: the paper demonstrates bias by
//! sweeping real machines; `biaslab-analyze` claims the same sensitivity
//! is decidable from the linked image alone. This experiment runs the
//! static ranking (zero simulations, checked against the orchestrator's
//! instrumentation), then measures the O3/O2 speedup spread over a
//! setup grid for every benchmark, in one sweep per benchmark across the
//! machines, and reports the Spearman rank correlation per machine model.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use biaslab_analyze::rank_suite;
use biaslab_core::bias::sweep_factors;
use biaslab_core::report::Table;
use biaslab_core::setup::LinkOrder;
use biaslab_core::stats::spearman;
use biaslab_core::ExperimentSetup;
use biaslab_toolchain::load::Environment;
use biaslab_toolchain::OptLevel;
use biaslab_uarch::MachineConfig;
use biaslab_workloads::benchmark_names;

use super::{harness, Effort};

/// The "careless experimenter" grid the measured side wanders over.
const ENV_SIZES: [u32; 4] = [0, 528, 1056, 1584];
const ORDERS: [LinkOrder; 2] = [LinkOrder::Default, LinkOrder::Reversed];

/// Measured sensitivity on each machine, in machine order: the range of
/// the O3/O2 speedup over the env-size × link-order grid. One sweep covers
/// every machine.
fn measured_spreads(bench: &str, machines: &[MachineConfig], effort: Effort) -> Vec<f64> {
    let envs = &ENV_SIZES[..effort.points(ENV_SIZES.len()).min(ENV_SIZES.len())];
    let arms: Vec<Vec<ExperimentSetup>> = machines
        .iter()
        .map(|machine| {
            let mut grid = Vec::new();
            for &env in envs {
                for order in ORDERS {
                    let mut s = ExperimentSetup::default_on(machine.clone(), OptLevel::O2);
                    s.link_order = order;
                    if env > 0 {
                        s.env = Environment::of_total_size(env);
                    }
                    grid.push(s);
                }
            }
            grid
        })
        .collect();
    sweep_factors(
        &harness(bench),
        "setup grid",
        &arms,
        OptLevel::O2,
        OptLevel::O3,
        effort.input(),
    )
    .expect("measurable")
    .iter()
    .map(|r| r.violin.max() - r.violin.min())
    .collect()
}

/// `ext-analyze`: predicted vs measured layout sensitivity per machine.
pub(crate) fn ext_analyze(effort: Effort) -> String {
    let machines = match effort {
        Effort::Quick => vec![MachineConfig::core2()],
        Effort::Full => MachineConfig::all(),
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ext-analyze: static sensitivity ranking vs measured O3/O2 spread\n\
         (extension beyond the paper; the static side runs zero simulations)\n"
    );
    // The static side's zero-simulation property is asserted by
    // `tests/static_vs_dynamic.rs` and the CLI `analyze` test, both on
    // serial orchestrators. It cannot be re-asserted here from global
    // orchestrator stats: under `repro all --jobs N` other experiments
    // simulate concurrently, so the counter moves for unrelated reasons.
    let rankings: Vec<_> = machines
        .iter()
        .map(|machine| rank_suite(machine).expect("suite analyzes"))
        .collect();
    let measured: BTreeMap<&str, Vec<f64>> = benchmark_names()
        .map(|bench| (bench, measured_spreads(bench, &machines, effort)))
        .collect();
    for (at, (machine, ranking)) in machines.iter().zip(&rankings).enumerate() {
        let mut table = Table::new(vec!["rank", "benchmark", "predicted", "measured-spread"]);
        let (mut predicted, mut spreads) = (Vec::new(), Vec::new());
        for (i, r) in ranking.iter().enumerate() {
            let m = measured[r.bench.as_str()][at];
            predicted.push(r.predicted_spread);
            spreads.push(m);
            table.row(vec![
                format!("{}", i + 1),
                r.bench.clone(),
                format!("{:.4}", r.predicted_spread),
                format!("{m:.4}"),
            ]);
        }
        let rho = spearman(&predicted, &spreads);
        let _ = writeln!(out, "machine {}:", machine.name);
        let _ = write!(out, "{table}");
        let _ = writeln!(out, "spearman(predicted, measured) = {rho:.3}\n");
    }
    let _ = writeln!(
        out,
        "Reading: a positive rho on every machine means the linked image \
         alone predicts which benchmarks the paper's setup factors can bias."
    );
    out
}
