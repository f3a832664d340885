//! Warm-up runs and symbol layouts are setup factors measured through the
//! harness and cached by the orchestrator. These tests check both against
//! code they do not share: each builds its executable with `Linker`, loads
//! it with `Loader` and runs it on a `Machine` directly, the way an
//! experimenter would by hand.

use biaslab_analyze::{lint_suite, Remedy};
use biaslab_core::{ExperimentSetup, Harness, Orchestrator, SymbolLayout};
use biaslab_toolchain::link::{Executable, Linker};
use biaslab_toolchain::load::{Environment, Loader};
use biaslab_toolchain::OptLevel;
use biaslab_uarch::{Counters, Machine, MachineConfig};
use biaslab_workloads::InputSize;

/// Runs `exe` `n` times on one machine, each run on a freshly loaded
/// process under the empty environment, and returns each run's counters
/// after checking its result against the reference outcome.
fn runs_on_one_machine(
    h: &Harness,
    exe: &Executable,
    machine: &MachineConfig,
    n: usize,
) -> Vec<Counters> {
    let expected = h.benchmark().expected(InputSize::Test);
    let mut m = Machine::new(machine.clone());
    (0..n)
        .map(|_| {
            let process = Loader::new()
                .load(
                    exe,
                    &Environment::new(),
                    h.benchmark().args(InputSize::Test),
                )
                .expect("loads");
            let r = m.run(exe, process).expect("runs");
            assert_eq!(r.checksum, expected.checksum);
            assert_eq!(r.return_value, expected.return_value);
            r.counters
        })
        .collect()
}

#[test]
fn warmup_runs_equal_the_later_runs_of_one_machine() {
    let orch = Orchestrator::new();
    let machine = MachineConfig::core2();
    for name in ["perlbench", "milc", "mcf"] {
        let h = orch.harness(name).expect("known benchmark");
        for level in [OptLevel::O2, OptLevel::O3] {
            let exe = Linker::new()
                .link(&h.compiled(level), h.benchmark().entry())
                .expect("links");
            let series = runs_on_one_machine(&h, &exe, &machine, 3);
            let base = ExperimentSetup::default_on(machine.clone(), level);
            for (k, by_hand) in series.iter().enumerate() {
                let setup = base.with_warmup_runs(k as u32);
                let measured = h.measure(&setup, InputSize::Test).expect("measures");
                assert_eq!(measured.counters, *by_hand, "{name} {}", setup.summary());
                let cached = orch.measure(&h, &setup, InputSize::Test).expect("measures");
                assert_eq!(cached.counters, *by_hand, "{name} {}", setup.summary());
            }
            let default = orch.measure(&h, &base, InputSize::Test).expect("measures");
            assert_eq!(default.counters, series[0], "{name} {level}: k = 0 is cold");
            assert!(series[2].cycles < series[0].cycles, "{name} {level}");
        }
    }
}

#[test]
fn layout_remedies_equal_a_hand_linked_run() {
    let orch = Orchestrator::new();
    let mut checked = 0;
    for machine in MachineConfig::all() {
        for report in lint_suite(&machine).expect("suite lints") {
            let h = orch.harness(&report.bench).expect("suite benchmark");
            for finding in &report.findings {
                let Remedy::Layout(layout) = &finding.remedy else {
                    continue;
                };
                let linker = match layout {
                    SymbolLayout::Pad { symbol, bytes } => Linker::new().pad_symbol(symbol, *bytes),
                    SymbolLayout::Align { symbol, align } => {
                        Linker::new().align_symbol(symbol, *align)
                    }
                };
                let exe = linker
                    .link(&h.compiled(finding.level), h.benchmark().entry())
                    .expect("remedied link");
                let by_hand = runs_on_one_machine(&h, &exe, &machine, 1);
                let setup = ExperimentSetup::default_on(machine.clone(), finding.level)
                    .with_symbol_layout(layout.clone());
                let measured = orch.measure(&h, &setup, InputSize::Test).expect("measures");
                assert_eq!(measured.counters, by_hand[0], "{}", setup.summary());
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 20, "the suite's pad and align findings");
    assert_eq!(orch.stats().simulated, 20, "one simulation per remedy");
}
