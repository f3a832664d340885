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
//! To regenerate after an *intentional* timing-model change:
//!
//! ```text
//! BIASLAB_BLESS=1 cargo test --test golden_counters
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use biaslab_core::harness::Harness;
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
                let fields = counter_fields(&m.counters).map(|v| v.to_string()).join(",");
                writeln!(
                    actual,
                    "{}\t{}\t{opt}\t{}",
                    h.benchmark().name(),
                    machine.name,
                    fields
                )
                .expect("write to String");
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
