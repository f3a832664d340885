//! Golden-counter regression test: every benchmark, at O2 and O3, on all
//! three machine models, must reproduce the exact `Counters` struct checked
//! in under `tests/golden/counters.tsv`.
//!
//! The simulator's figures rest on the invariant that a given setup always
//! produces bit-identical counters; any "optimization" of the execution
//! engine that perturbs timing semantics — a reordered penalty, a
//! miscomputed stall, a cache indexed differently — fails this test loudly
//! rather than silently moving every figure.
//!
//! The same rows must come out of lockstep sweeps, where one functional
//! pass drives all three machines at a level.
//!
//! To regenerate after an *intentional* timing-model change:
//!
//! ```text
//! BIASLAB_BLESS=1 cargo test --test golden_counters
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use biaslab_core::harness::Harness;
use biaslab_core::orchestrator::Orchestrator;
use biaslab_core::setup::ExperimentSetup;
use biaslab_toolchain::OptLevel;
use biaslab_uarch::{Counters, MachineConfig};
use biaslab_workloads::{suite, InputSize};

/// Every `Counters` field, in declaration order.
fn counter_fields(c: &Counters) -> [u64; 22] {
    [
        c.cycles,
        c.instructions,
        c.fetches,
        c.l1i_misses,
        c.l1d_accesses,
        c.l1d_misses,
        c.l2_misses,
        c.itlb_misses,
        c.dtlb_misses,
        c.branches,
        c.mispredicts,
        c.btb_misses,
        c.ras_mispredicts,
        c.bank_conflicts,
        c.line_splits,
        c.page_splits,
        c.loads,
        c.stores,
        c.stall_frontend,
        c.stall_memory,
        c.stall_branch,
        c.stall_compute,
    ]
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/counters.tsv")
}

#[test]
fn counters_match_golden_values() {
    let mut actual = String::new();
    for bench in suite() {
        let h = Harness::new(bench);
        for machine in MachineConfig::all() {
            for opt in [OptLevel::O2, OptLevel::O3] {
                let setup = ExperimentSetup::default_on(machine.clone(), opt);
                let m = h.measure(&setup, InputSize::Test).unwrap_or_else(|e| {
                    panic!("{}/{}/{opt}: {e}", h.benchmark().name(), machine.name)
                });
                let c = &m.counters;
                assert_eq!(
                    c.cycles,
                    c.instructions
                        + c.stall_frontend
                        + c.stall_memory
                        + c.stall_branch
                        + c.stall_compute,
                    "{}/{}/{opt}: stall classes must sum to cycles - instructions",
                    h.benchmark().name(),
                    machine.name
                );
                actual.push_str(&row(h.benchmark().name(), &machine, opt, c));
            }
        }
    }

    let path = golden_path();
    if std::env::var_os("BIASLAB_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("has parent")).expect("mkdir");
        std::fs::write(&path, &actual).expect("write golden file");
        eprintln!(
            "blessed {} ({} entries)",
            path.display(),
            actual.lines().count()
        );
        return;
    }
    check(&actual);
}

/// One golden line: benchmark, machine, level and every counter.
fn row(bench: &str, machine: &MachineConfig, opt: OptLevel, c: &Counters) -> String {
    let fields = counter_fields(c).map(|v| v.to_string()).join(",");
    let mut line = String::new();
    writeln!(line, "{bench}\t{}\t{opt}\t{fields}", machine.name).expect("write to String");
    line
}

/// Compares rendered rows with the golden file, naming the first that
/// moved.
fn check(actual: &str) {
    let path = golden_path();
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run `BIASLAB_BLESS=1 cargo test --test golden_counters` \
             to create it",
            path.display()
        )
    });
    // Line-by-line first, so a drift names the exact setup that moved.
    for (want, got) in expected.lines().zip(actual.lines()) {
        assert_eq!(
            got, want,
            "counters drifted — timing semantics changed; if intentional, re-bless with \
             BIASLAB_BLESS=1"
        );
    }
    assert_eq!(actual, expected, "entry count changed");
}

#[test]
fn lockstep_sweeps_reproduce_the_golden_rows() {
    // One sweep per benchmark over the three machines at O2 and O3: each
    // level's three machines share one functional pass, so every sweep
    // runs two lockstep groups of three, and each member must match its
    // golden row.
    let orch = Orchestrator::new();
    let machines = MachineConfig::all();
    let mut actual = String::new();
    for bench in suite() {
        let h = orch.harness(bench.name()).expect("suite benchmark");
        let setups: Vec<(MachineConfig, OptLevel)> = machines
            .iter()
            .flat_map(|m| [OptLevel::O2, OptLevel::O3].map(|opt| (m.clone(), opt)))
            .collect();
        let sweep: Vec<ExperimentSetup> = setups
            .iter()
            .map(|(m, opt)| ExperimentSetup::default_on(m.clone(), *opt))
            .collect();
        for ((machine, opt), r) in setups.iter().zip(orch.sweep(&h, &sweep, InputSize::Test)) {
            let m = r.unwrap_or_else(|e| panic!("{}/{}/{opt}: {e}", bench.name(), machine.name));
            actual.push_str(&row(bench.name(), machine, *opt, &m.counters));
        }
    }
    assert_eq!(orch.stats().simulated, 72, "one simulation per key");
    check(&actual);
}
