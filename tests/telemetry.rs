//! Telemetry integration tests: the properties `--trace` promises.
//!
//! 1. **Bit-identity** — tracing a measurement never changes it: a
//!    golden-counters subset measured with telemetry on (with and without
//!    profiles) is byte-identical to the same subset measured with
//!    telemetry off; the untraced pass emits nothing, and each traced
//!    measurement has exactly the five phase spans.
//! 2. **Schema stability** — the trace JSONL schema (field names and
//!    `TRACE_VERSION`) is pinned by a golden snapshot, so accidental
//!    drift fails loudly. Re-bless with
//!    `BIASLAB_BLESS=1 cargo test --test telemetry`.
//! 3. **Accounting** — every cache hit, miss and eviction counted by
//!    [`biaslab_core::orchestrator::OrchestratorStats`] has a matching
//!    cache event in the trace, and vice versa.
//! 4. **Single-flight** — concurrent `measure` calls for one key produce
//!    exactly one simulation and N−1 cache hits, observable both in the
//!    stats and in the trace events.
//!
//! Telemetry state (the enable flag, the event sink) is process-global,
//! so every test that toggles it serializes on [`telemetry_lock`].

use std::path::PathBuf;
use std::sync::{Barrier, Mutex, MutexGuard, OnceLock};

use biaslab_core::harness::Harness;
use biaslab_core::orchestrator::MeasureKey;
use biaslab_core::setup::ExperimentSetup;
use biaslab_core::telemetry::{self, CacheOutcome, SpanEvent, TraceEvent};
use biaslab_core::Orchestrator;
use biaslab_toolchain::load::Environment;
use biaslab_toolchain::OptLevel;
use biaslab_uarch::{Counters, MachineConfig};
use biaslab_workloads::{benchmark_by_name, suite, InputSize};

fn telemetry_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Holds the telemetry lock with tracing enabled; disables tracing and
/// empties the sink again on drop, whatever the test outcome.
struct Traced(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for Traced {
    fn drop(&mut self) {
        telemetry::disable();
        let _ = telemetry::drain();
    }
}

fn traced() -> Traced {
    let guard = telemetry_lock().lock().unwrap_or_else(|e| e.into_inner());
    let _ = telemetry::drain();
    telemetry::enable();
    Traced(guard)
}

/// A canonical byte rendering of one measurement, for identity checks.
fn render(bench: &str, opt: OptLevel, counters: &Counters, checksum: u64) -> String {
    format!("{bench}\t{opt}\t{checksum:#x}\n{counters}\n")
}

/// The span events among `events`.
fn spans(events: &[TraceEvent]) -> Vec<&SpanEvent> {
    events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Span(s) => Some(s),
            _ => None,
        })
        .collect()
}

#[test]
fn tracing_never_changes_measurements() {
    // A golden-counters subset: three benchmarks at two opt levels. Run it
    // from fresh harnesses — untraced, with profiles requested but tracing
    // off, traced, and traced with profiles — and require the rendered
    // measurements to be byte-identical every time.
    let names: Vec<&str> = suite().iter().take(3).map(|b| b.name()).collect();
    let machine = MachineConfig::core2();
    let measure_all = || -> String {
        let mut out = String::new();
        for name in &names {
            let h = Harness::new(benchmark_by_name(name).expect("known benchmark"));
            for opt in [OptLevel::O2, OptLevel::O3] {
                let setup = ExperimentSetup::default_on(machine.clone(), opt);
                let m = h.measure(&setup, InputSize::Test).expect("measures");
                out.push_str(&render(name, opt, &m.counters, m.checksum));
            }
        }
        out
    };

    let guard = telemetry_lock().lock().unwrap_or_else(|e| e.into_inner());
    telemetry::disable();
    let _ = telemetry::drain();
    let untraced = measure_all();
    let untraced_events = telemetry::drain();
    // Profiles alone do nothing: a profiled run also needs tracing on.
    telemetry::enable_profiles();
    let profiles_only = measure_all();
    let profiles_only_events = telemetry::drain();
    telemetry::disable();
    drop(guard);
    assert!(
        untraced_events.is_empty(),
        "the untraced path must emit nothing, got {untraced_events:?}"
    );
    assert!(
        profiles_only_events.is_empty(),
        "profiles without tracing must emit nothing, got {profiles_only_events:?}"
    );
    assert_eq!(untraced, profiles_only, "profiles alone changed counters");

    let guard = traced();
    let traced_out = measure_all();
    let events = telemetry::drain();
    drop(guard);
    assert_eq!(
        untraced, traced_out,
        "telemetry must not perturb measurements"
    );
    // Each measurement records one `measure` span whose children are the
    // five phases, in start order (span ids are allocated at open).
    let phase_spans = spans(&events);
    let measures: Vec<_> = phase_spans.iter().filter(|s| s.name == "measure").collect();
    assert_eq!(
        measures.len(),
        names.len() * 2,
        "one measure span per measurement"
    );
    for m in measures {
        let mut children: Vec<_> = phase_spans.iter().filter(|s| s.parent == m.id).collect();
        children.sort_by_key(|s| s.id);
        let phases: Vec<&str> = children.iter().map(|s| s.name).collect();
        assert_eq!(phases, ["compile", "link", "load", "run", "stat"]);
    }
    assert!(
        !events.iter().any(|e| matches!(e, TraceEvent::Profile(_))),
        "tracing alone must not profile"
    );

    let guard = traced();
    telemetry::enable_profiles();
    let profiled_out = measure_all();
    let events = telemetry::drain();
    drop(guard);
    assert_eq!(untraced, profiled_out, "profiling changed counters");
    // Exactly one profile per run span, carrying that span's id.
    let mut run_ids: Vec<u64> = spans(&events)
        .iter()
        .filter(|s| s.name == "run")
        .map(|s| s.id)
        .collect();
    let mut profiled: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Profile(p) => Some(p.span),
            _ => None,
        })
        .collect();
    run_ids.sort_unstable();
    profiled.sort_unstable();
    assert_eq!(
        run_ids.len(),
        names.len() * 2,
        "one run span per measurement"
    );
    assert_eq!(profiled, run_ids, "every run span gets exactly one profile");
}

#[test]
fn trace_schema_is_pinned_by_golden_snapshot() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trace_schema.txt");
    let actual = telemetry::schema();
    if std::env::var_os("BIASLAB_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("has parent")).expect("mkdir");
        std::fs::write(&path, &actual).expect("write golden schema");
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run `BIASLAB_BLESS=1 cargo test --test telemetry` to create it",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "trace schema drifted — consumers parse these exact field names; \
         bump TRACE_VERSION and re-bless only for an intentional format change"
    );
}

/// Counts the drained cache events by outcome.
fn cache_counts(events: &[TraceEvent]) -> (u64, u64, u64) {
    let mut hits = 0;
    let mut misses = 0;
    let mut evictions = 0;
    for e in events {
        if let TraceEvent::Cache(c) = e {
            match c.outcome {
                CacheOutcome::Hit => hits += 1,
                CacheOutcome::Miss => misses += 1,
                CacheOutcome::Evict => evictions += 1,
            }
        }
    }
    (hits, misses, evictions)
}

#[test]
fn every_stats_increment_has_a_matching_trace_event() {
    let guard = traced();
    let orch = Orchestrator::new();
    let h = orch.harness("hmmer").expect("known benchmark");
    let base = ExperimentSetup::default_on(MachineConfig::core2(), OptLevel::O2);
    let setups: Vec<_> = (0..4)
        .map(|i| base.with_env(Environment::of_total_size(64 * i + 64)))
        .collect();

    // 4 distinct misses; a cap of 2 forces 2 evictions along the way …
    orch.set_cache_cap(Some(2));
    for setup in &setups {
        orch.measure(&h, setup, InputSize::Test).expect("measures");
    }
    // … and the newest two are still cached: one hit, one more eviction
    // cycle never happens.
    orch.measure(&h, &setups[3], InputSize::Test)
        .expect("measures");

    let stats = orch.stats();
    let events = telemetry::drain();
    drop(guard);

    assert_eq!(stats.misses, 4);
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.evictions, 2);

    let (hits, misses, evictions) = cache_counts(&events);
    assert_eq!(hits, stats.hits, "hit events must match hit stats");
    assert_eq!(misses, stats.misses, "miss events must match miss stats");
    assert_eq!(
        evictions, stats.evictions,
        "evict events must match eviction stats"
    );
}

#[test]
fn exported_traces_are_schema_valid_end_to_end() {
    let guard = traced();
    let orch = Orchestrator::new();
    let h = orch.harness("gobmk").expect("known benchmark");
    let setup = ExperimentSetup::default_on(MachineConfig::core2(), OptLevel::O2);
    orch.measure(&h, &setup, InputSize::Test).expect("measures");
    orch.measure(&h, &setup, InputSize::Test).expect("measures");

    let dir = std::env::temp_dir().join(format!("biaslab-trace-export-{}", std::process::id()));
    let path = dir.join("trace.jsonl");
    let written = telemetry::export(&path, "integration test", &orch.metrics()).expect("exports");
    drop(guard);

    let text = std::fs::read_to_string(&path).expect("trace file exists");
    std::fs::remove_dir_all(&dir).ok();
    let lines: Vec<&str> = text.lines().collect();
    // Header, the events, one closing metrics snapshot.
    assert_eq!(lines.len(), written + 2);
    for line in &lines {
        telemetry::validate_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert!(
            telemetry::parse_line(line).is_some(),
            "validated line must also parse: {line}"
        );
    }
    assert!(matches!(
        telemetry::parse_line(lines[0]),
        Some(telemetry::TraceLine::Start { .. })
    ));
    let Some(telemetry::TraceLine::Metrics(counters)) =
        telemetry::parse_line(lines.last().expect("nonempty"))
    else {
        panic!("last line must be the metrics snapshot")
    };
    // The orchestrator's stats ride along in the metrics record.
    let get = |name: &str| counters.iter().find(|(k, _)| k == name).map(|&(_, v)| v);
    assert_eq!(get("orch.misses"), Some(1));
    assert_eq!(get("orch.hits"), Some(1));
    assert_eq!(get("orch.simulated"), Some(1));
}

#[test]
fn concurrent_measures_of_one_key_simulate_once() {
    const THREADS: usize = 4;
    let guard = traced();
    let orch = Orchestrator::new();
    let h = orch.harness("milc").expect("known benchmark");
    let setup = ExperimentSetup::default_on(MachineConfig::core2(), OptLevel::O2);
    let key = MeasureKey::new("milc", &setup, InputSize::Test).digest();

    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                barrier.wait();
                orch.measure(&h, &setup, InputSize::Test).expect("measures");
            });
        }
    });

    let stats = orch.stats();
    let events = telemetry::drain();
    drop(guard);

    // Single-flight: one leader simulates, the rest wait and count as hits.
    assert_eq!(stats.simulated, 1, "exactly one simulation");
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, THREADS as u64 - 1);

    // The same story must be reconstructible from the trace alone.
    let (hits, misses, _) = cache_counts(&events);
    assert_eq!(misses, 1);
    assert_eq!(hits, THREADS as u64 - 1);
    let measure_spans: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Span(s) if s.name == "measure" && s.key == key => Some(s),
            _ => None,
        })
        .collect();
    assert_eq!(
        measure_spans.len(),
        THREADS,
        "every requester records a measure span for the key"
    );
    let miss_spans = measure_spans
        .iter()
        .filter(|s| s.outcome == Some(CacheOutcome::Miss))
        .count();
    assert_eq!(miss_spans, 1, "exactly one span carries the miss outcome");
    assert!(measure_spans
        .iter()
        .all(|s| s.outcome == Some(CacheOutcome::Hit) || s.outcome == Some(CacheOutcome::Miss)));
}

#[test]
fn a_lockstep_group_traces_one_run_and_profiles_force_groups_of_one() {
    // Three machines at one level: one lockstep group. Its stages nest
    // under the first key's `measure` span, every key has a `measure`
    // span with the miss, and the group runs once.
    let setups: Vec<ExperimentSetup> = MachineConfig::all()
        .into_iter()
        .map(|m| ExperimentSetup::default_on(m, OptLevel::O2))
        .collect();
    let keys: Vec<u64> = setups
        .iter()
        .map(|s| MeasureKey::new("hmmer", s, InputSize::Test).digest())
        .collect();
    let sweep = || {
        let orch = Orchestrator::new();
        let h = orch.harness("hmmer").expect("known benchmark");
        let counters: Vec<Counters> = orch
            .sweep(&h, &setups, InputSize::Test)
            .into_iter()
            .map(|r| r.expect("measures").counters)
            .collect();
        (counters, orch.stats().simulated)
    };

    let guard = traced();
    let (grouped, simulated) = sweep();
    let events = telemetry::drain();
    drop(guard);
    assert_eq!(simulated, 3, "one simulation per key");
    let all = spans(&events);
    let measures: Vec<_> = all.iter().filter(|s| s.name == "measure").collect();
    assert_eq!(
        measures.iter().map(|s| s.key).collect::<Vec<_>>(),
        keys,
        "one measure span per key, in request order"
    );
    assert!(measures
        .iter()
        .all(|s| s.outcome == Some(CacheOutcome::Miss)));
    let runs: Vec<_> = all.iter().filter(|s| s.name == "run").collect();
    assert_eq!(runs.len(), 1, "the group runs once");
    assert_eq!(runs[0].parent, measures[0].id, "under the first key's span");

    let guard = traced();
    telemetry::enable_profiles();
    let (profiled, simulated) = sweep();
    let events = telemetry::drain();
    drop(guard);
    assert_eq!(simulated, 3);
    assert_eq!(
        profiled, grouped,
        "groups and profiles never change counters"
    );
    let runs = spans(&events).iter().filter(|s| s.name == "run").count();
    let profiles = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Profile(_)))
        .count();
    assert_eq!((runs, profiles), (3, 3), "profiled runs are groups of one");
}
