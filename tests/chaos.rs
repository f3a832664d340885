//! Chaos suite: the measure path under deterministic fault schedules.
//!
//! Every test installs a seeded [`biaslab_core::faults`] schedule and
//! asserts the robustness contract: injected I/O errors, short writes,
//! leader panics, runaway simulations and scheduling delays may cost
//! retries and stderr warnings, but they can never change a figure —
//! counters and `repro all` stdout stay byte-identical to a fault-free
//! run — never wedge a lock, and never leak a half-written `.tmp` file.
//!
//! Fault state is process-global, so every test holds the
//! [`faults::scoped`] guard for its entire body (the baseline phases run
//! under a sites-free spec: the layer is active but nothing can fire);
//! schedules then swap via [`faults::install`] under the same guard.

use std::fs;
use std::path::{Path, PathBuf};

use biaslab_bench::experiments::{Effort, ExperimentInfo};
use biaslab_bench::parallel::run_all;
use biaslab_bench::EXPERIMENTS;
use biaslab_core::faults::{self, FaultSpec};
use biaslab_core::setup::{ExperimentSetup, LinkOrder};
use biaslab_core::{telemetry, Orchestrator};
use biaslab_toolchain::load::Environment;
use biaslab_toolchain::OptLevel;
use biaslab_uarch::{Counters, MachineConfig};
use biaslab_workloads::InputSize;

/// The seeded schedules under test. Together they cover every injection
/// site except the deliberately unrecoverable hard leader panic (which
/// gets its own takeover regression in `tests/error_paths.rs`).
const SCHEDULES: &[(&str, &str)] = &[
    ("io-errors", "seed=11,save.io=0.5,load.io=0.5"),
    ("torn-writes", "seed=22,save.short=0.6,save.io=0.2"),
    ("leader-panics", "seed=33,leader.panic=@1,measure.delay=0.4"),
    (
        "runaway-and-jitter",
        "seed=44,measure.runaway=0.5,worker.delay=0.5,measure.delay=0.2",
    ),
];

fn spec(s: &str) -> FaultSpec {
    FaultSpec::parse(s).expect("test specs parse")
}

fn setups() -> Vec<ExperimentSetup> {
    let base = ExperimentSetup::default_on(MachineConfig::core2(), OptLevel::O2);
    (0..4u32)
        .map(|i| {
            base.with_env(Environment::of_total_size(112 * i + 112))
                .with_link_order(LinkOrder::Random(u64::from(i)))
        })
        .collect()
}

/// Counters via the single-flight `measure` path (exercises the leader
/// protocol and the watchdog).
fn measured_counters(orch: &Orchestrator) -> Vec<Counters> {
    let h = orch.harness("perlbench").expect("known benchmark");
    setups()
        .iter()
        .map(|s| {
            orch.measure(&h, s, InputSize::Test)
                .expect("measurement")
                .counters
        })
        .collect()
}

/// Counters via the parallel `sweep` path (exercises the worker pool).
fn swept_counters(orch: &Orchestrator) -> Vec<Counters> {
    let h = orch.harness("perlbench").expect("known benchmark");
    orch.sweep(&h, &setups(), InputSize::Test)
        .into_iter()
        .map(|r| r.expect("measurement").counters)
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("biaslab-chaos-{tag}-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn assert_no_tmp_leaked(dir: &Path) {
    let leaked: Vec<PathBuf> = fs::read_dir(dir)
        .expect("read temp dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "tmp"))
        .collect();
    assert!(leaked.is_empty(), "leaked tmp files: {leaked:?}");
}

#[test]
fn counters_are_identical_under_every_fault_schedule() {
    let _guard = faults::scoped(&spec("seed=1"));
    let reference = measured_counters(&Orchestrator::new());
    for (name, s) in SCHEDULES {
        faults::install(&spec(s));
        let orch = Orchestrator::new();
        assert_eq!(measured_counters(&orch), reference, "measure under {name}");
        // A fresh orchestrator per path so both actually simulate.
        let orch = Orchestrator::new();
        assert_eq!(swept_counters(&orch), reference, "sweep under {name}");
        // And the cached second pass, still under faults.
        assert_eq!(
            swept_counters(&orch),
            reference,
            "cached sweep under {name}"
        );
    }
}

/// How many faults the process has injected at `sites`.
fn injected(sites: &[&str]) -> u64 {
    sites
        .iter()
        .map(|site| {
            telemetry::metrics()
                .counter(&format!("fault.injected.{site}"))
                .get()
        })
        .sum()
}

#[test]
fn repro_all_stdout_is_byte_identical_under_faults() {
    let _guard = faults::scoped(&spec("seed=1"));
    // `table1` interprets reference outcomes; `abl-aslr` measures records.
    let exps: Vec<ExperimentInfo> = EXPERIMENTS
        .iter()
        .filter(|e| ["table1", "abl-aslr"].contains(&e.id))
        .copied()
        .collect();
    assert_eq!(exps.len(), 2);
    let mut reference = Vec::new();
    run_all(&exps, Effort::Quick, 2, &mut reference, |_| {}).expect("write to Vec");
    // The global orchestrator attaches once, as `repro all` does, so every
    // schedule logs to the same results file until one degrades it.
    let global = Orchestrator::global();
    let dir = temp_dir("stdout");
    global
        .attach(&dir.join("measurements.jsonl"))
        .expect("attach");
    for (name, s) in SCHEDULES {
        let schedule = spec(s);
        faults::install(&schedule);
        let sites: Vec<&str> = schedule.entries().iter().map(|(site, _)| *site).collect();
        let saves: Vec<&str> = sites
            .iter()
            .copied()
            .filter(|site| site.starts_with("save."))
            .collect();
        let before = (injected(&sites), injected(&saves));
        // Evicting every record makes each one simulate again, so the
        // schedule's faults hit leaders and the appends of real records.
        global.set_cache_cap(Some(0));
        global.set_cache_cap(None);
        let snapshot = dir.join(format!("{name}.jsonl"));
        let mut out = Vec::new();
        // Sync after each block like `repro all` does. A degraded log
        // writes nothing more, so each block also saves a snapshot of the
        // cache, and every schedule's save faults meet a whole-file write.
        let failures = run_all(&exps, Effort::Quick, 2, &mut out, |_| {
            global.sync();
            let _ = global.save(&snapshot);
        })
        .expect("write to Vec");
        assert_eq!(failures, 0, "no experiment may panic under {name}");
        assert_eq!(out, reference, "stdout under {name}");
        assert_no_tmp_leaked(&dir);
        assert!(injected(&sites) > before.0, "no fault fired under {name}");
        assert!(
            saves.is_empty() || injected(&saves) > before.1,
            "no save fault reached a results file under {name}"
        );
    }
    // p=0.5 per line fails every compaction of the log, so its retries
    // give up and it degrades under the first schedule.
    assert!(
        global.persist_degraded(),
        "the attached log met no save fault it could not retry"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn persist_and_load_retry_through_one_shot_io_faults() {
    let _guard = faults::scoped(&spec("seed=5"));
    let dir = temp_dir("oneshot");
    let path = dir.join("measurements.jsonl");
    let orch = Orchestrator::new();
    orch.attach(&path).expect("attach");
    let h = orch.harness("hmmer").expect("known benchmark");
    let setup = ExperimentSetup::default_on(MachineConfig::core2(), OptLevel::O2);
    // The record's append hits the injected error; the bounded retry
    // compacts the file and lands the record without degrading or leaving
    // the temp file behind.
    faults::install(&spec("seed=5,save.io=@1,load.io=@1"));
    let m = orch
        .measure(&h, &setup, InputSize::Test)
        .expect("measurement");
    orch.sync();
    assert!(!orch.persist_degraded());
    assert_no_tmp_leaked(&dir);
    // Same on the read side: first read fails, the retry restores it.
    let fresh = Orchestrator::new();
    assert_eq!(
        fresh.load(&path).expect("load retries through the fault"),
        1
    );
    let again = fresh.measure(&h, &setup, InputSize::Test).expect("cached");
    assert_eq!(again.counters, m.counters);
    assert_eq!(fresh.stats().hits, 1, "restored record serves from cache");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn persist_degrades_to_in_memory_when_the_disk_keeps_failing() {
    let _guard = faults::scoped(&spec("seed=6,save.io=1.0"));
    let orch = Orchestrator::new();
    let h = orch.harness("hmmer").expect("known benchmark");
    let setup = ExperimentSetup::default_on(MachineConfig::core2(), OptLevel::O2);
    let m = orch
        .measure(&h, &setup, InputSize::Test)
        .expect("measurement");
    let dir = temp_dir("degraded");
    let path = dir.join("measurements.jsonl");
    // Attach writes the cached record through a compaction of the missing
    // file, and every attempt fails at p=1.
    orch.attach(&path)
        .expect("a write failure is not an attach error");
    assert!(orch.persist_degraded());
    assert!(!path.exists(), "no partial results file");
    assert_no_tmp_leaked(&dir);
    // Degradation is sticky (no further I/O) but purely about persistence:
    // the orchestrator keeps measuring and serving from memory.
    orch.measure(
        &h,
        &setup.with_env(Environment::of_total_size(64)),
        InputSize::Test,
    )
    .expect("measurement");
    orch.sync();
    assert!(!path.exists(), "the closed log writes nothing");
    let again = orch.measure(&h, &setup, InputSize::Test).expect("cached");
    assert_eq!(again.counters, m.counters);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_runaway_fired_on_one_group_member_leaves_the_others_unchanged() {
    // The three machines at one level are one lockstep group. The second
    // member's `measure.runaway` fires, so the watchdog answers it with a
    // solo retry while the other two run as a group of two: every
    // member's counters must still be its own solo measurement's.
    let _guard = faults::scoped(&spec("seed=3,measure.runaway=@2"));
    let orch = Orchestrator::new();
    let h = orch.harness("mcf").expect("known benchmark");
    let setups: Vec<ExperimentSetup> = MachineConfig::all()
        .into_iter()
        .map(|m| ExperimentSetup::default_on(m, OptLevel::O2))
        .collect();
    let swept = orch.sweep(&h, &setups, InputSize::Test);
    let solo = biaslab_core::harness::Harness::new(
        biaslab_workloads::benchmark_by_name("mcf").expect("known benchmark"),
    );
    for (setup, r) in setups.iter().zip(&swept) {
        let want = solo.measure(setup, InputSize::Test).expect("measures");
        assert_eq!(
            r.as_ref().expect("recovered").counters,
            want.counters,
            "{}",
            setup.summary()
        );
    }
    let metric = |name: &str| {
        orch.metrics()
            .into_iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| v)
    };
    assert_eq!(metric("orch.watchdog_fired"), 1, "one member fired");
    assert_eq!(metric("orch.watchdog_retries"), 1);
    assert_eq!(metric("orch.watchdog_quarantined"), 0);
    assert_eq!(orch.stats().simulated, 3, "one simulation per key");
}
