//! Golden snapshots of the suite's biaslint findings, one JSONL stream
//! per machine model. Lint is a pure function of the IR, the linked
//! image grid, and the machine configuration, so its machine-readable
//! output must be byte-stable; drift means a detector or the hotness
//! model changed and `ext-lint`'s causal precision should be re-checked.
//!
//! To regenerate after an *intentional* detector change:
//!
//! ```text
//! BIASLAB_BLESS=1 cargo test -p biaslab-analyze --test golden_lint
//! ```
//!
//! (`scripts/ci.sh` diffs `biaslab lint all --json` against these same
//! files, so the CLI and the library stay in lockstep.)

use std::path::PathBuf;

use biaslab_analyze::{lint_suite_jsonl, validate_lint_line};
use biaslab_uarch::MachineConfig;

fn golden_path(machine: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/lint_{machine}.jsonl"))
}

fn golden(machine: &MachineConfig) -> String {
    let path = golden_path(&machine.name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run `BIASLAB_BLESS=1 cargo test -p biaslab-analyze \
             --test golden_lint` to create it",
            path.display()
        )
    })
}

fn check(machine: &MachineConfig) {
    let actual = lint_suite_jsonl(machine).expect("suite lints");
    for line in actual.lines() {
        validate_lint_line(line).expect("golden stream is schema-clean");
    }
    if std::env::var_os("BIASLAB_BLESS").is_some() {
        let path = golden_path(&machine.name);
        std::fs::create_dir_all(path.parent().expect("has parent")).expect("mkdir");
        std::fs::write(&path, &actual).expect("write golden file");
        eprintln!("blessed {}", path.display());
        return;
    }
    assert_eq!(
        actual,
        golden(machine),
        "lint findings on {} drifted — if the detector change is intentional, \
         re-bless with BIASLAB_BLESS=1 and re-run ext-lint to confirm precision",
        machine.name
    );
}

#[test]
fn lint_findings_are_stable_on_pentium4() {
    check(&MachineConfig::pentium4());
}

#[test]
fn lint_findings_are_stable_on_core2() {
    check(&MachineConfig::core2());
}

#[test]
fn lint_findings_are_stable_on_o3cpu() {
    check(&MachineConfig::o3cpu());
}

/// The machines share one hotness model and one pass memo per benchmark
/// and level, while each report counts the passes it used. Whichever
/// machine computes a pass first, and whichever thread, every stream
/// (its `passes_run` and `functions_analyzed` included) stays the golden.
#[test]
fn lint_streams_do_not_depend_on_machine_order_or_threads() {
    if std::env::var_os("BIASLAB_BLESS").is_some() {
        return; // the per-machine tests are rewriting the goldens
    }
    let forward = MachineConfig::all();
    let backward: Vec<MachineConfig> = forward.iter().rev().cloned().collect();
    let stream = |machine: &MachineConfig| {
        let actual = lint_suite_jsonl(machine).expect("suite lints");
        assert!(
            actual == golden(machine),
            "lint stream on {} differs from its golden",
            machine.name
        );
    };
    for machine in forward.iter().chain(&backward) {
        stream(machine);
    }
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        for order in [&forward, &backward] {
            let start = &start;
            s.spawn(move || {
                start.wait();
                order.iter().for_each(stream);
            });
        }
    });
}
