//! The cross-experiment parallel driver's two contracts: stdout is
//! byte-identical to running the experiments one after another, at any
//! worker count, and one panicking experiment is confined to its own
//! output block.

use std::time::Duration;

use biaslab_bench::experiments::{Effort, ExperimentInfo};
use biaslab_bench::parallel::{run_all, write_banner};
use biaslab_bench::EXPERIMENTS;

fn tortoise(_: Effort) -> String {
    // Finishes last when scheduled first, so in-order flushing is exercised.
    std::thread::sleep(Duration::from_millis(60));
    "tortoise: slow and steady\nsecond line".to_owned()
}

fn hare(_: Effort) -> String {
    "hare: done immediately".to_owned()
}

fn achilles(_: Effort) -> String {
    std::thread::sleep(Duration::from_millis(20));
    "achilles: finishes mid-pack".to_owned()
}

fn boom(_: Effort) -> String {
    panic!("injected failure")
}

type RunFn = fn(Effort) -> String;

fn registry(entries: &[(&'static str, RunFn)]) -> Vec<ExperimentInfo> {
    entries
        .iter()
        .map(|&(id, run)| ExperimentInfo {
            id,
            title: "driver test experiment",
            run,
        })
        .collect()
}

/// The serial reference: banner + output + newline per experiment, in
/// registry order, each experiment run after the last — what `repro all`
/// must write to stdout at any `--jobs`.
fn serial_reference(experiments: &[ExperimentInfo], effort: Effort) -> Vec<u8> {
    let mut out = Vec::new();
    for e in experiments {
        write_banner(&mut out, e.id, e.title).expect("write");
        let output = (e.run)(effort);
        out.extend_from_slice(output.as_bytes());
        out.push(b'\n');
    }
    out
}

#[test]
fn parallel_stdout_is_byte_identical_to_serial() {
    let exps = registry(&[
        ("tortoise", tortoise),
        ("hare", hare),
        ("achilles", achilles),
        ("hare2", hare),
    ]);
    let reference = serial_reference(&exps, Effort::Quick);
    for jobs in [1, 2, 8] {
        let mut out = Vec::new();
        let mut flushed: Vec<&str> = Vec::new();
        let failures = run_all(&exps, Effort::Quick, jobs, &mut out, |r| flushed.push(r.id))
            .expect("write to Vec");
        assert_eq!(failures, 0);
        assert_eq!(out, reference, "jobs={jobs}");
        assert_eq!(
            flushed,
            ["tortoise", "hare", "achilles", "hare2"],
            "flush order is registry order at jobs={jobs}"
        );
    }
}

#[test]
fn real_experiment_output_matches_serial_path() {
    // A cheap real experiment through the driver equals the serial path.
    let exps: Vec<ExperimentInfo> = EXPERIMENTS
        .iter()
        .filter(|e| e.id == "table1")
        .copied()
        .collect();
    assert_eq!(exps.len(), 1);
    let reference = serial_reference(&exps, Effort::Quick);
    let mut out = Vec::new();
    let failures = run_all(&exps, Effort::Quick, 4, &mut out, |_| {}).expect("write to Vec");
    assert_eq!(failures, 0);
    assert_eq!(out, reference);
}

#[test]
fn panicking_experiment_does_not_wedge_the_others() {
    let exps = registry(&[
        ("tortoise", tortoise),
        ("boom", boom),
        ("hare", hare),
        ("achilles", achilles),
    ]);
    let mut out = Vec::new();
    let mut flushed: Vec<&str> = Vec::new();
    let failures =
        run_all(&exps, Effort::Quick, 2, &mut out, |r| flushed.push(r.id)).expect("write to Vec");
    assert_eq!(failures, 1, "exactly the injected panic is reported");
    assert_eq!(
        flushed,
        ["tortoise", "boom", "hare", "achilles"],
        "every experiment still flushes, in order"
    );
    let text = String::from_utf8(out).expect("utf8");
    assert!(
        text.contains("!! boom panicked: injected failure"),
        "{text}"
    );
    assert!(text.contains("tortoise: slow and steady"), "{text}");
    assert!(
        text.contains("achilles: finishes mid-pack"),
        "experiments after the panic still run: {text}"
    );
}
