//! Failure-injection tests: every error path a user can reach must produce
//! a typed, descriptive error rather than a panic or a silent wrong answer.

use biaslab_core::faults::{self, FaultSpec};
use biaslab_core::harness::{Harness, MeasureError};
use biaslab_core::setup::ExperimentSetup;
use biaslab_core::Orchestrator;
use biaslab_toolchain::codegen::compile;
use biaslab_toolchain::link::{LinkError, Linker};
use biaslab_toolchain::load::{Environment, LoadError, Loader};
use biaslab_toolchain::opt::{optimize, OptLevel};
use biaslab_toolchain::ModuleBuilder;
use biaslab_uarch::{Machine, MachineConfig, RunError};
use biaslab_workloads::{benchmark_by_name, InputSize};

#[test]
fn linker_rejects_non_permutation_orders() {
    let h = Harness::new(benchmark_by_name("milc").expect("known"));
    let n = h.object_names().len();
    let err = h.executable(OptLevel::O2, &vec![0; n], 0).unwrap_err();
    assert_eq!(err, LinkError::BadOrder);
    let err = h.executable(OptLevel::O2, &[0], 0).unwrap_err();
    assert_eq!(err, LinkError::BadOrder);
}

#[test]
fn linker_rejects_unknown_entry_and_symbols() {
    let mut mb = ModuleBuilder::new();
    mb.function("main", 0, false, |fb| fb.ret(None));
    let m = mb.finish().unwrap();
    let cm = compile(&optimize(&m, OptLevel::O0), OptLevel::O0);
    let err = Linker::new().link(&cm, "start").unwrap_err();
    assert!(matches!(err, LinkError::UnknownEntry(ref s) if s == "start"));
    assert!(err.to_string().contains("start"));

    // A dangling call relocation must name the missing symbol.
    let mut broken = cm.clone();
    broken.objects[0]
        .relocs
        .push(biaslab_toolchain::obj::Reloc {
            at: 0,
            kind: biaslab_toolchain::obj::RelocKind::Call {
                symbol: "ghost".into(),
            },
        });
    // Make the patch target a jal so the reloc is structurally valid.
    broken.objects[0].code[0] = biaslab_isa::Inst::Jal {
        rd: biaslab_isa::Reg::RA,
        offset: 0,
    };
    let err = Linker::new().link(&broken, "main").unwrap_err();
    assert!(matches!(err, LinkError::UnknownSymbol(ref s) if s == "ghost"));
}

#[test]
fn loader_errors_are_typed() {
    let mut mb = ModuleBuilder::new();
    mb.function("main", 0, false, |fb| fb.ret(None));
    let m = mb.finish().unwrap();
    let exe = Linker::new()
        .link(&compile(&optimize(&m, OptLevel::O0), OptLevel::O0), "main")
        .unwrap();
    let err = Loader::new()
        .load(&exe, &Environment::new(), &[0; 7])
        .unwrap_err();
    assert_eq!(err, LoadError::TooManyArgs(7));
    let err = Loader::new()
        .load(&exe, &Environment::of_total_size(600_000), &[])
        .unwrap_err();
    assert!(matches!(err, LoadError::EnvTooLarge(_)));
    assert!(err.to_string().contains("environment"));
}

#[test]
fn runaway_programs_hit_the_budget_not_a_hang() {
    let mut mb = ModuleBuilder::new();
    mb.function("spin", 0, false, |fb| {
        let b = fb.new_block();
        fb.jump(b);
        fb.switch_to(b);
        fb.jump(b);
    });
    let m = mb.finish().unwrap();
    let exe = Linker::new()
        .link(&compile(&optimize(&m, OptLevel::O2), OptLevel::O2), "spin")
        .unwrap();
    let mut config = MachineConfig::o3cpu();
    config.max_instructions = 5_000;
    let process = Loader::new().load(&exe, &Environment::new(), &[]).unwrap();
    let err = Machine::new(config).run(&exe, process).unwrap_err();
    assert_eq!(err, RunError::Budget(5_000));
    assert!(err.to_string().contains("budget"));
}

#[test]
fn harness_propagates_stage_errors() {
    let h = Harness::new(benchmark_by_name("hmmer").expect("known"));
    let mut setup = ExperimentSetup::default_on(MachineConfig::core2(), OptLevel::O2);
    setup.env = Environment::of_total_size(600_000);
    let err = h.measure(&setup, InputSize::Test).unwrap_err();
    assert!(matches!(err, MeasureError::Load(_)), "{err}");
    assert!(err.to_string().starts_with("load:"));
}

#[test]
fn harness_detects_wrong_results() {
    // Simulate a "toolchain bug" by lying about the arguments: measure with
    // the Test binary but a setup that runs different work than `expected`
    // was computed for cannot happen through the public API, so instead
    // check the error type is constructible and displayed usefully.
    let err = MeasureError::WrongResult {
        expected: 0xAB,
        actual: 0xCD,
    };
    let text = err.to_string();
    assert!(text.contains("0xcd") && text.contains("0xab"), "{text}");
}

/// Regression for the poisoned-leader deadlock: a single-flight leader
/// dying mid-simulation used to poison the cell mutex and wedge every
/// waiter on an `expect`. Now the waiters elect a new leader and finish.
#[test]
fn hard_leader_panic_is_confined_and_waiters_take_over() {
    let _guard = faults::scoped(&FaultSpec::parse("seed=9,leader.panic.hard=@1").expect("parses"));
    let orch = Orchestrator::new();
    let h = orch.harness("hmmer").expect("known benchmark");
    let setup = ExperimentSetup::default_on(MachineConfig::core2(), OptLevel::O2);
    let barrier = std::sync::Barrier::new(4);
    let outcomes: Vec<std::thread::Result<_>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    orch.measure(&h, &setup, InputSize::Test)
                })
            })
            .collect();
        handles.into_iter().map(|j| j.join()).collect()
    });
    // Exactly the first-elected leader dies on the injected unrecoverable
    // panic; the surviving racers take over and agree on one measurement.
    let (dead, alive): (Vec<_>, Vec<_>) = outcomes.into_iter().partition(Result::is_err);
    assert_eq!(dead.len(), 1, "exactly the first leader dies");
    let counters: Vec<_> = alive
        .into_iter()
        .map(|r| r.expect("joined").expect("measurement").counters)
        .collect();
    assert_eq!(counters.len(), 3);
    assert!(counters.windows(2).all(|w| w[0] == w[1]));
    // No lock is poisoned and no cell is wedged: the same key now serves
    // from cache, and the takeover round simulated exactly once.
    let again = orch.measure(&h, &setup, InputSize::Test).expect("cached");
    assert_eq!(again.counters, counters[0]);
    assert_eq!(
        orch.stats().simulated,
        1,
        "one simulation despite the takeover"
    );
}

/// A sweep worker that dies on the injected unrecoverable leader panic
/// takes the sweep down: the panic reaches the caller once the other
/// workers finish, instead of hanging or turning into a result. What the
/// other workers published stays cached, so sweeping again simulates only
/// the rest and returns what a fresh orchestrator measures.
#[test]
fn a_sweep_worker_panic_reaches_the_caller_and_a_second_sweep_finishes() {
    let _guard = faults::scoped(&FaultSpec::parse("seed=9,leader.panic.hard=@1").expect("parses"));
    let base = ExperimentSetup::default_on(MachineConfig::core2(), OptLevel::O2);
    let setups: Vec<ExperimentSetup> = (0..4u32)
        .map(|i| base.with_env(Environment::of_total_size(64 * i + 64)))
        .collect();
    let orch = Orchestrator::new();
    let h = orch.harness("hmmer").expect("known benchmark");
    let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        orch.sweep(&h, &setups, InputSize::Test)
    }));
    assert!(died.is_err(), "the worker's panic reaches the caller");
    let (published, simulated) = (orch.stats().cached, orch.stats().simulated);
    assert_eq!(simulated, published, "every simulated key was published");
    assert!(
        published < setups.len() as u64,
        "the dead leader's key was not"
    );

    let counters = |o: &Orchestrator, h: &Harness| -> Vec<_> {
        o.sweep(h, &setups, InputSize::Test)
            .into_iter()
            .map(|r| r.expect("measurement").counters)
            .collect()
    };
    let again = counters(&orch, &h);
    assert_eq!(
        orch.stats().simulated - simulated,
        setups.len() as u64 - published,
        "only the keys the first sweep did not publish simulate"
    );
    let fresh = Orchestrator::new();
    let fh = fresh.harness("hmmer").expect("known benchmark");
    assert_eq!(again, counters(&fresh, &fh));
}

/// A crashed writer's results file — torn tail line, bit-flipped record,
/// foreign junk — loads what survives and quarantines the rest.
#[test]
fn torn_and_corrupt_result_lines_are_quarantined_not_fatal() {
    let orch = Orchestrator::new();
    let h = orch.harness("mcf").expect("known benchmark");
    let setup = ExperimentSetup::default_on(MachineConfig::core2(), OptLevel::O2);
    let m = orch
        .measure(&h, &setup, InputSize::Test)
        .expect("measurement");
    let dir = std::env::temp_dir().join(format!("biaslab-quarantine-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("measurements.jsonl");
    assert_eq!(orch.save(&path).expect("save"), 1);
    let good = std::fs::read_to_string(&path)
        .expect("read back")
        .trim_end()
        .to_string();
    // One intact record, a torn half-line (interrupted writer), a record
    // whose body was flipped after the checksum was stamped, and junk.
    let flipped = good.replacen("\"counters\":[", "\"counters\":[9", 1);
    let mangled = format!(
        "{good}\n{}\n{flipped}\nnot json at all\n",
        &good[..good.len() / 2]
    );
    std::fs::write(&path, mangled).expect("write mangled file");
    let fresh = Orchestrator::new();
    assert_eq!(fresh.load(&path).expect("quarantine is not fatal"), 1);
    let stats = fresh.stats();
    assert_eq!(stats.loaded, 1);
    assert_eq!(stats.quarantined, 2, "torn line and checksum mismatch");
    assert_eq!(stats.pruned, 1, "junk line is ordinary staleness");
    let again = fresh.measure(&h, &setup, InputSize::Test).expect("cached");
    assert_eq!(again.counters, m.counters);
    std::fs::remove_dir_all(&dir).ok();
}

/// A simulation that exhausts its instruction budget surfaces as the
/// typed watchdog error, is retried once, then quarantined via the error
/// cache — re-requests fail fast without re-simulating.
#[test]
fn watchdog_converts_budget_exhaustion_into_a_typed_error() {
    let orch = Orchestrator::new();
    let h = orch.harness("hmmer").expect("known benchmark");
    let mut config = MachineConfig::core2();
    config.max_instructions = 5_000;
    let setup = ExperimentSetup::default_on(config, OptLevel::O2);
    let err = orch.measure(&h, &setup, InputSize::Test).unwrap_err();
    assert!(
        matches!(err, MeasureError::Watchdog { limit: 5_000 }),
        "{err}"
    );
    assert!(err.to_string().contains("watchdog"), "{err}");
    let again = orch.measure(&h, &setup, InputSize::Test).unwrap_err();
    assert!(matches!(again, MeasureError::Watchdog { .. }));
    assert_eq!(orch.stats().simulated, 1, "quarantined error fails fast");
}

#[test]
fn interpreter_depth_limit_is_an_error_not_a_stack_overflow() {
    use biaslab_toolchain::interp::{InterpError, Interpreter};
    // The interpreter recurses natively up to its depth limit; unoptimized
    // frames at 2048 deep need more than the test harness's default thread
    // stack, so give the limit room to fire before the native stack runs out.
    let err = std::thread::Builder::new()
        .stack_size(64 * 1024 * 1024)
        .spawn(|| {
            let mut mb = ModuleBuilder::new();
            let f = mb.declare("forever", 1, true);
            mb.define(f, |fb| {
                let x = fb.param(0);
                let v = fb.get(x);
                let r = fb.call(f, &[v]);
                fb.ret(Some(r));
            });
            let m = mb.finish().unwrap();
            Interpreter::new(&m)
                .call_by_name("forever", &[1])
                .unwrap_err()
        })
        .expect("spawn")
        .join()
        .expect("no stack overflow");
    assert_eq!(err, InterpError::DepthExceeded);
}
