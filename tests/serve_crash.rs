//! Crash-recovery battery for the daemon's results file: a daemon killed
//! mid-sweep (the `save.crash` fault tears the record line being appended,
//! closes the log and panics the worker) resumes on restart from the
//! records it logged, simulating only what it had not, and converges to
//! the exact bytes a never-crashed sweep produces.
//!
//! Each phase is a fresh daemon over a fresh orchestrator attached to one
//! temp results file; the test keeps an `Arc` to the orchestrator to read
//! its own counts. Fault state is process-global, so each test holds the
//! [`faults::scoped`] guard for its whole body.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use biaslab_core::faults::{self, FaultSpec};
use biaslab_core::serve::{
    self, encode_sweep, encode_sweep_done, encode_sweep_item, sweep_setups, validate_response_line,
    Addr, Client, MeasureSpec, Server, ServerConfig,
};
use biaslab_core::setup::LinkOrder;
use biaslab_core::{Orchestrator, OrchestratorStats};
use biaslab_toolchain::OptLevel;
use biaslab_workloads::InputSize;

fn spec(s: &str) -> FaultSpec {
    FaultSpec::parse(s).expect("test specs parse")
}

fn temp_sock(tag: &str) -> Addr {
    let dir = std::env::temp_dir();
    Addr::Unix(dir.join(format!("biaslab-scrash-{tag}-{}.sock", std::process::id())))
}

/// A fresh results directory for one test, and the results file in it.
fn results_file(tag: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("biaslab-scrash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("measurements.jsonl");
    (dir, path)
}

fn sweep_spec() -> MeasureSpec {
    MeasureSpec {
        bench: "hmmer".to_owned(),
        machine: "core2".to_owned(),
        opt: OptLevel::O2,
        order: LinkOrder::Default,
        text_offset: 0,
        stack_shift: 0,
        env: 0,
        size: InputSize::Test,
        budget: 0,
    }
}

/// One daemon lifetime: a fresh orchestrator attached to `path` serves one
/// sweep request and shuts down. Returns the response lines and the
/// orchestrator's counts.
fn phase(
    tag: &str,
    path: &Path,
    request: &str,
    schedule: &str,
) -> (Vec<String>, OrchestratorStats) {
    faults::install(&spec(schedule));
    let orch = Arc::new(Orchestrator::default());
    orch.attach(path).expect("the results file attaches");
    let addr = temp_sock(tag);
    let server =
        Server::start(&ServerConfig::new(addr.clone()), Arc::clone(&orch)).expect("server starts");
    let ex = Client::new(addr)
        .request(request)
        .expect("a terminal always arrives, never a hang");
    server.shutdown();
    faults::install(&spec("seed=1"));
    let stats = orch.stats();
    (ex.lines, stats)
}

/// The lines a never-crashed direct sweep answers.
fn direct_lines(s: &MeasureSpec, envs: &[u64], id: u64) -> Vec<String> {
    let direct = Orchestrator::default();
    let harness = direct.harness(&s.bench).expect("known benchmark");
    let setups = sweep_setups(&s.setup().expect("known machine"), envs);
    let mut expected: Vec<String> = (0u64..)
        .zip(&setups)
        .map(|(seq, setup)| encode_sweep_item(id, seq, &direct.measure(&harness, setup, s.size)))
        .collect();
    expected.push(encode_sweep_done(id, envs.len() as u64));
    expected
}

fn is_record(line: &str) -> bool {
    line.contains("\"counters\"")
}

/// The kill-and-restart differential: crash a daemon on its third append
/// into a five-item sweep, restart it over the same results file, and the
/// resumed sweep must (a) answer byte-identically to a never-crashed
/// direct sweep, (b) restore the two records logged before the crash and
/// simulate exactly the other three, and (c) leave a file in which every
/// line verifies and no `.tmp` file behind.
#[test]
fn killed_mid_sweep_resumes_byte_identical() {
    let _guard = faults::scoped(&spec("seed=1"));
    let (dir, path) = results_file("killed");
    let s = sweep_spec();
    let envs: Vec<u64> = vec![0, 64, 128, 256, 612];

    // Phase 1: the third append tears the file and kills the worker — the
    // in-process stand-in for `kill -9` mid-append.
    let (lines, _) = phase(
        "phase1",
        &path,
        &encode_sweep(9, &s, &envs),
        "seed=707,save.crash=@3",
    );
    let terminal = lines.last().expect("a terminal line");
    assert_eq!(
        serve::line_status(terminal),
        Some("err"),
        "crashed sweep ends in a typed error: {terminal}"
    );
    assert!(
        terminal.contains("\"code\":\"panic\""),
        "crash surfaces as the worker-panic error: {terminal}"
    );

    // The crash leaves two sealed records and the torn half of the third.
    let raw = std::fs::read_to_string(&path).expect("the results file survives the crash");
    let logged: Vec<&str> = raw.lines().collect();
    assert_eq!(
        logged.len(),
        3,
        "two sealed lines plus the torn tail: {raw}"
    );
    assert!(logged[..2]
        .iter()
        .all(|l| serve::verify_sealed(l) && is_record(l)));
    assert!(
        !serve::verify_sealed(logged[2]),
        "the torn tail must not verify: {}",
        logged[2]
    );

    // Phase 2: restart (fresh daemon, fresh orchestrator) over the same
    // file, faults cleared.
    let (lines, stats) = phase("phase2", &path, &encode_sweep(77, &s, &envs), "seed=1");
    for line in &lines {
        validate_response_line(line).expect("resumed lines are sealed and schema-valid");
    }
    assert_eq!(
        lines,
        direct_lines(&s, &envs, 77),
        "resumed sweep diverged from the never-crashed sweep"
    );
    assert_eq!(stats.loaded, 2, "both logged records restored");
    assert_eq!(stats.quarantined, 1, "the torn line quarantined");
    assert_eq!(
        stats.simulated,
        envs.len() as u64 - 2,
        "only the items the crash lost are simulated again"
    );

    // The file was compacted before the first append: every line verifies
    // and it holds all five records.
    let raw = std::fs::read_to_string(&path).expect("results file readable");
    assert!(raw.lines().all(serve::verify_sealed), "{raw}");
    assert_eq!(raw.lines().filter(|l| is_record(l)).count(), envs.len());
    let leftovers: Vec<String> = std::fs::read_dir(&dir)
        .expect("results dir readable")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| name.ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "leaked temp files: {leftovers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Back-to-back crashes accumulate: a second kill later in the same sweep
/// extends the log rather than restarting it, and the third run simulates
/// only the one item neither crashed run logged.
#[test]
fn repeated_crashes_accumulate_journal_progress() {
    let _guard = faults::scoped(&spec("seed=1"));
    let (dir, path) = results_file("repeated");
    let mut s = sweep_spec();
    s.bench = "mcf".to_owned();
    let envs: Vec<u64> = vec![0, 64, 128, 256];
    let request = encode_sweep(5, &s, &envs);

    // Crash on the 2nd append (one record logged), then on the 3rd (two
    // more), then run clean.
    for (tag, schedule) in [
        ("acc0", "seed=808,save.crash=@2"),
        ("acc1", "seed=808,save.crash=@3"),
    ] {
        let (lines, _) = phase(tag, &path, &request, schedule);
        let terminal = lines.last().expect("a terminal line");
        assert_eq!(serve::line_status(terminal), Some("err"), "{terminal}");
    }
    let (lines, stats) = phase("acc2", &path, &request, "seed=1");
    assert_eq!(
        lines,
        direct_lines(&s, &envs, 5),
        "twice-crashed sweep still converges byte-identically"
    );
    assert_eq!(stats.loaded, 3, "both crashed runs' records restored");
    assert_eq!(
        stats.simulated, 1,
        "only the item never logged is simulated"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Failed items are not logged: a sweep whose every item trips the
/// watchdog answers the same bytes after a restart, simulating every item
/// again. A watchdog outcome is a function of the instruction budget, which
/// is part of the machine digest, so the re-run answers the same bytes.
#[test]
fn failed_items_are_simulated_again_after_a_restart() {
    let _guard = faults::scoped(&spec("seed=1"));
    let (dir, path) = results_file("failed");
    let mut s = sweep_spec();
    s.budget = 1_000;
    let envs: Vec<u64> = vec![0, 64, 128];
    let request = encode_sweep(3, &s, &envs);

    let (first, stats) = phase("failed0", &path, &request, "seed=1");
    assert_eq!(first.len(), envs.len() + 1);
    assert!(
        first[..envs.len()]
            .iter()
            .all(|l| l.contains("\"code\":\"watchdog\"")),
        "{first:?}"
    );
    assert_eq!(stats.simulated, envs.len() as u64);
    let raw = std::fs::read_to_string(&path).unwrap_or_default();
    assert_eq!(raw.lines().filter(|l| is_record(l)).count(), 0, "{raw}");

    let (again, stats) = phase("failed1", &path, &request, "seed=1");
    assert_eq!(again, first, "the restarted daemon answers the same bytes");
    assert_eq!(stats.loaded, 0);
    assert_eq!(
        stats.simulated,
        envs.len() as u64,
        "every item simulated again"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
