//! The results file as the one durable log (`Orchestrator::attach`): its
//! own failure modes. A torn tail at any byte, injected append faults and
//! a second process over the same file must each leave a file in which
//! every line verifies and a reload returns every record.
//!
//! Fault state is process-global, so every test holds the
//! [`faults::scoped`] guard for its whole body.

use std::os::unix::fs::MetadataExt as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use biaslab_core::faults::{self, FaultSpec};
use biaslab_core::jsonl::verify_sealed;
use biaslab_core::setup::ExperimentSetup;
use biaslab_core::{Harness, Orchestrator};
use biaslab_toolchain::load::Environment;
use biaslab_toolchain::OptLevel;
use biaslab_uarch::MachineConfig;
use biaslab_workloads::InputSize;

fn spec(s: &str) -> FaultSpec {
    FaultSpec::parse(s).expect("test specs parse")
}

/// A fresh results directory for one test, and the results file in it.
fn results_file(tag: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("biaslab-log-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("measurements.jsonl");
    (dir, path)
}

fn setups(n: u32) -> Vec<ExperimentSetup> {
    let base = ExperimentSetup::default_on(MachineConfig::core2(), OptLevel::O2);
    (0..n)
        .map(|i| base.with_env(Environment::of_total_size(64 * i + 64)))
        .collect()
}

/// The file's bytes, mtime and inode (a compaction renames a new inode
/// over the path).
fn file_state(path: &Path) -> (Vec<u8>, std::time::SystemTime, u64) {
    let meta = std::fs::metadata(path).expect("results file exists");
    let bytes = std::fs::read(path).expect("read back");
    (bytes, meta.modified().expect("mtime"), meta.ino())
}

/// Asserts that every line of the file verifies and that the file ends in
/// a newline, and returns how many records a fresh load restores.
fn verified_reload(path: &Path) -> usize {
    let text = std::fs::read_to_string(path).expect("read back");
    assert!(
        text.is_empty() || text.ends_with('\n'),
        "unterminated: {text}"
    );
    for line in text.lines() {
        assert!(verify_sealed(line), "a line fails its seal: {line}");
    }
    let fresh = Orchestrator::new();
    let n = fresh.load(path).expect("reload");
    assert_eq!(fresh.stats().quarantined, 0);
    n
}

fn assert_no_tmp(dir: &Path) {
    let leaked: Vec<_> = std::fs::read_dir(dir)
        .expect("results dir readable")
        .filter_map(|e| {
            let name = e.expect("dir entry").file_name();
            name.to_string_lossy().ends_with(".tmp").then_some(name)
        })
        .collect();
    assert!(leaked.is_empty(), "leaked temp files: {leaked:?}");
}

/// A log cut at every byte offset of its last line — from the cut that
/// drops the whole line to the one that drops only its newline. Attach
/// restores every whole line and compacts exactly when the file does not
/// end in a newline, so the next append never lands on half a line: one
/// more measurement and a sync leave a file in which every line verifies
/// and a reload returns every record.
#[test]
fn attach_compacts_a_log_torn_at_any_byte_of_its_last_line() {
    let _guard = faults::scoped(&spec("seed=1"));
    let (dir, path) = results_file("torn");
    let setups = setups(4);
    let harness: Arc<Harness>;
    {
        let orch = Orchestrator::new();
        orch.attach(&path).expect("attach");
        harness = orch.harness("hmmer").expect("known benchmark");
        for s in &setups[..2] {
            orch.measure(&harness, s, InputSize::Test)
                .expect("measures");
        }
        orch.sync();
        // The last line is a record, appended after the commit.
        orch.measure(&harness, &setups[2], InputSize::Test)
            .expect("measures");
        orch.sync();
    }
    let full = std::fs::read(&path).expect("read back");
    let start = full[..full.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .expect("several lines")
        + 1;
    assert!(String::from_utf8_lossy(&full[start..]).contains("\"counters\""));

    for cut in start..full.len() {
        std::fs::write(&path, &full[..cut]).expect("cut the log");
        let before = file_state(&path);
        let orch = Orchestrator::new();
        let whole_last = cut == full.len() - 1;
        let restored = orch.attach(&path).expect("attach");
        assert_eq!(restored, if whole_last { 3 } else { 2 }, "cut at {cut}");
        let compacted = file_state(&path).2 != before.2;
        assert_eq!(compacted, cut != start, "cut at {cut}");
        orch.measure(&harness, &setups[3], InputSize::Test)
            .expect("measures");
        orch.sync();
        assert_eq!(verified_reload(&path), restored + 1, "cut at {cut}");
    }
    assert_no_tmp(&dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A short write and an I/O error on two appends: each is retried through
/// a compaction, so the log recovers without degrading, no torn line and
/// no temp file remain, and a reload returns every record.
#[test]
fn append_faults_are_retried_through_a_compaction() {
    let _guard = faults::scoped(&spec("seed=1"));
    let (dir, path) = results_file("faults");
    let setups = setups(2);
    let orch = Orchestrator::new();
    orch.attach(&path).expect("attach");
    let h = orch.harness("milc").expect("known benchmark");
    faults::install(&spec("seed=3,save.short=@1"));
    orch.measure(&h, &setups[0], InputSize::Test)
        .expect("measures");
    faults::install(&spec("seed=3,save.io=@1"));
    orch.measure(&h, &setups[1], InputSize::Test)
        .expect("measures");
    faults::install(&spec("seed=1"));
    orch.sync();
    assert!(!orch.persist_degraded());
    assert_eq!(verified_reload(&path), 2);
    assert_no_tmp(&dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One writer per file: a second orchestrator attaching the same path
/// while the first holds it reads the file and writes nothing, even after
/// it measures and syncs; the first one's later appends survive. The
/// first attach compacts away a torn line, renaming a new file over the
/// path, so this also checks that the lock guards the path, not only the
/// file it replaced.
#[test]
fn a_second_attach_of_a_held_file_writes_nothing() {
    let _guard = faults::scoped(&spec("seed=1"));
    let (dir, path) = results_file("lock");
    let setups = setups(3);
    std::fs::create_dir_all(&dir).expect("results dir");
    std::fs::write(&path, "{\"v\":4,\"bench\":\"mcf\"").expect("a torn line");
    let first = Orchestrator::new();
    assert_eq!(first.attach(&path).expect("attach"), 0);
    assert_eq!(first.stats().quarantined, 1);
    let h = first.harness("mcf").expect("known benchmark");
    first
        .measure(&h, &setups[0], InputSize::Test)
        .expect("measures");
    first.sync();
    let held = file_state(&path);

    let second = Orchestrator::new();
    assert_eq!(second.attach(&path).expect("reads the file"), 1);
    assert!(second.persist_degraded(), "the second writer stands down");
    second
        .measure(&h, &setups[1], InputSize::Test)
        .expect("measures");
    second.sync();
    assert_eq!(file_state(&path), held, "bytes, mtime and inode untouched");

    first
        .measure(&h, &setups[2], InputSize::Test)
        .expect("measures");
    first.sync();
    assert_eq!(verified_reload(&path), 2, "the first writer's records");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Attach once: a second attach, to another file or to the same one, is
/// refused before it opens any file. The other file keeps its bytes,
/// mtime and inode and gets no lock file, nothing degrades, and the first
/// log keeps appending.
#[test]
fn a_second_attach_is_refused_and_the_first_log_keeps_writing() {
    let _guard = faults::scoped(&spec("seed=1"));
    let (dir, path) = results_file("twice");
    let other = dir.join("other.jsonl");
    let setups = setups(3);
    let orch = Orchestrator::new();
    assert_eq!(orch.attach(&path).expect("attach"), 0);
    let h = orch.harness("milc").expect("known benchmark");
    orch.measure(&h, &setups[0], InputSize::Test)
        .expect("measures");
    orch.sync();
    // Another results file, holding a record the first log lacks.
    let writer = Orchestrator::new();
    let wh = writer.harness("milc").expect("known benchmark");
    writer
        .measure(&wh, &setups[1], InputSize::Test)
        .expect("measures");
    assert_eq!(writer.save(&other).expect("save"), 1);
    let untouched = (file_state(&path), file_state(&other));

    for again in [&other, &path] {
        let err = orch.attach(again).expect_err("attach once");
        assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists, "{err}");
    }
    assert_eq!((file_state(&path), file_state(&other)), untouched);
    assert!(
        !other.with_extension("jsonl.lock").exists(),
        "no file opened"
    );
    assert!(!orch.persist_degraded());
    assert_eq!(orch.stats().loaded, 0, "the other file was not read");

    for s in &setups[1..] {
        orch.measure(&h, s, InputSize::Test).expect("measures");
    }
    orch.sync();
    assert_eq!(verified_reload(&path), 3, "the first log appended both");
    assert_eq!(verified_reload(&other), 1);
    let _ = std::fs::remove_dir_all(&dir);
}
