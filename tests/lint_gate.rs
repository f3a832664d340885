//! The biaslint contract, pinned at the workspace level.
//!
//! Linting is static: it reads the IR, the linked default layout and
//! the layouts its findings pre-register, and the stack-layout facts,
//! but it never *runs* anything. This gate brackets
//! a full-suite lint on every machine model with the orchestrator's
//! simulation counter and requires the delta to be zero — the same
//! discipline `tests/static_vs_dynamic.rs` applies to the bias ranking.
//! It also re-validates every machine-readable finding line against the
//! published schema, so downstream consumers (ci.sh, `--json` users)
//! can parse the stream without defensive code.

use biaslab_analyze::{lint_suite, lint_suite_jsonl, validate_lint_line, FindingClass};
use biaslab_core::Orchestrator;
use biaslab_uarch::MachineConfig;

fn machines() -> [MachineConfig; 3] {
    [
        MachineConfig::core2(),
        MachineConfig::pentium4(),
        MachineConfig::o3cpu(),
    ]
}

#[test]
fn lint_runs_zero_simulations() {
    let orch = Orchestrator::global();
    let before = orch.stats().simulated;
    for machine in machines() {
        let reports = lint_suite(&machine).expect("suite lints");
        assert!(
            !reports.is_empty(),
            "lint_suite returned no reports on {}",
            machine.name
        );
    }
    let after = orch.stats().simulated;
    assert_eq!(
        before, after,
        "lint is a static analysis; it must not trigger simulation"
    );
}

#[test]
fn lint_jsonl_is_schema_clean_and_classes_are_known() {
    for machine in machines() {
        let stream = lint_suite_jsonl(&machine).expect("suite lints");
        let mut findings = 0usize;
        for line in stream.lines() {
            validate_lint_line(line)
                .unwrap_or_else(|e| panic!("bad lint line on {}: {e}\n{line}", machine.name));
            if line.contains("\"ev\":\"finding\"") {
                findings += 1;
                assert!(
                    FindingClass::ALL
                        .iter()
                        .any(|c| line.contains(&format!("\"class\":\"{}\"", c.name()))),
                    "finding line names an unknown class on {}: {line}",
                    machine.name
                );
            }
        }
        assert!(
            findings > 0,
            "the suite should surface at least one layout hazard on {}",
            machine.name
        );
    }
}
