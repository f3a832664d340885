//! Command implementations.

use biaslab_core::harness::Harness;
use biaslab_core::report::Table;
use biaslab_core::setup::ExperimentSetup;
use biaslab_core::{orchestrator, Orchestrator};
use biaslab_toolchain::load::{Environment, Loader};
use biaslab_toolchain::OptLevel;
use biaslab_uarch::{Machine, MachineConfig};
use biaslab_workloads::{benchmark_by_name, suite, InputSize};

use biaslab_core::serve;

use crate::args::{parse_machine, ClientArgs, Command, RunArgs};

/// Executes a parsed command.
pub fn run(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::List => list(),
        Command::Machines => machines(),
        Command::Survey => survey(),
        Command::Run(args) => run_bench(&args),
        Command::Disasm { bench, opt } => disasm(&bench, opt),
        Command::Ir { bench, opt } => print_ir(&bench, opt),
        Command::Audit {
            bench,
            machine,
            size,
        } => audit(&bench, &machine, size),
        Command::Analyze {
            bench,
            machine,
            explain,
        } => analyze(&bench, &machine, explain),
        Command::Lint {
            bench,
            machine,
            json,
            deny,
        } => lint(&bench, &machine, json, deny),
        Command::Trace { file, flame } => trace(&file, flame),
        Command::Serve {
            addr,
            workers,
            queue_depth,
            drain_timeout_ms,
        } => serve_cmd(&addr, workers, queue_depth, drain_timeout_ms),
        Command::Client(args) => client_cmd(&args),
    }
}

fn serve_cmd(
    addr: &str,
    workers: usize,
    queue_depth: usize,
    drain_timeout_ms: u64,
) -> Result<(), String> {
    let addr = serve::Addr::parse(addr)?;
    let mut cfg = serve::ServerConfig::new(addr);
    cfg.workers = workers;
    cfg.queue_depth = queue_depth;
    cfg.drain_timeout_ms = drain_timeout_ms;
    // The daemon keeps what it measures in the results file, as `repro`
    // does: records it loads are cache hits, and every record it measures
    // is logged before any client sees it.
    let orch = std::sync::Arc::new(Orchestrator::from_env());
    let log = orchestrator::results_path();
    if let Err(e) = orch.attach(&log) {
        eprintln!("warning: could not read {}: {e}", log.display());
    }
    let server = serve::Server::start(&cfg, std::sync::Arc::clone(&orch))?;
    println!(
        "biaslab serve listening on {} workers={workers} queue={queue_depth}",
        server.addr()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    crate::signals::install_sigterm();
    server.run_until_shutdown_or(crate::signals::term_requested);
    orch.sync();
    Ok(())
}

fn client_cmd(a: &ClientArgs) -> Result<(), String> {
    let addr = serve::Addr::parse(&a.addr)?;
    let line = match a.op.as_str() {
        "ping" | "stats" => serve::encode_control(a.id, &a.op),
        "shutdown" => serve::encode_shutdown(a.id, a.drain),
        _ => {
            let spec = serve::MeasureSpec {
                bench: a.bench.clone(),
                machine: a.machine.clone(),
                opt: a.opt,
                order: a.order,
                text_offset: 0,
                stack_shift: 0,
                env: a.env_bytes,
                size: a.size,
                budget: a.budget,
            };
            if a.op == "measure" {
                serve::encode_measure_deadline(a.id, &spec, a.deadline_ms)
            } else {
                serve::encode_sweep_deadline(a.id, &spec, &a.envs, a.deadline_ms)
            }
        }
    };
    let mut client = serve::Client::new(addr).with_attempts(a.attempts);
    let ex = client.request(&line).map_err(|e| format!("client: {e}"))?;
    for l in &ex.lines {
        println!("{l}");
    }
    Ok(())
}

fn list() -> Result<(), String> {
    let mut table = Table::new(vec!["benchmark", "behaviour", "functions"]);
    for b in suite() {
        table.row(vec![
            b.name().to_owned(),
            b.description().to_owned(),
            format!("{}", b.module().functions.len()),
        ]);
    }
    println!("{table}");
    Ok(())
}

fn machines() -> Result<(), String> {
    let mut table = Table::new(vec![
        "machine",
        "L1D",
        "ways",
        "L2",
        "BTB",
        "mispredict",
        "banks",
    ]);
    for m in MachineConfig::all() {
        table.row(vec![
            m.name.clone(),
            format!("{}K", m.l1d.size >> 10),
            format!("{}", m.l1d.ways),
            format!("{}K", m.l2.size >> 10),
            format!("{}", m.branch.btb_entries),
            format!("{}", m.branch.mispredict_penalty),
            format!("{}", m.l1d_banks),
        ]);
    }
    println!("{table}");
    Ok(())
}

fn survey() -> Result<(), String> {
    let table = biaslab_survey::tabulate(&biaslab_survey::corpus(2009));
    println!("{table}");
    Ok(())
}

fn lookup(bench: &str) -> Result<biaslab_workloads::Benchmark, String> {
    benchmark_by_name(bench)
        .ok_or_else(|| format!("unknown benchmark `{bench}` — `biaslab list` shows the suite"))
}

/// The orchestrator-registry harness for a benchmark, so repeated CLI
/// invocations within one process (and the audit sweeps) share caches.
fn shared_harness(bench: &str) -> Result<std::sync::Arc<Harness>, String> {
    Orchestrator::global()
        .harness(bench)
        .ok_or_else(|| format!("unknown benchmark `{bench}` — `biaslab list` shows the suite"))
}

fn run_bench(args: &RunArgs) -> Result<(), String> {
    let harness = shared_harness(&args.bench)?;
    let machine_config = parse_machine(&args.machine)?;
    let mut setup = ExperimentSetup::default_on(machine_config.clone(), args.opt);
    setup.link_order = args.order;
    if args.env_bytes != 0 {
        setup.env = Environment::of_total_size(args.env_bytes);
    }

    if args.profile {
        // Profiled path: drive the stages directly so the profiler sees
        // the same verified binary the harness measures.
        let exe = harness.link(&setup).map_err(|e| e.to_string())?;
        let process = Loader::new()
            .load(&exe, &setup.env, harness.benchmark().args(args.size))
            .map_err(|e| e.to_string())?;
        let (result, profile) = Machine::new(machine_config)
            .run_profiled(&exe, process)
            .map_err(|e| e.to_string())?;
        let expected = harness.benchmark().expected(args.size);
        if result.checksum != expected.checksum {
            return Err(format!(
                "verification failed: checksum {:#x} != reference {:#x}",
                result.checksum, expected.checksum
            ));
        }
        println!(
            "{} @ {} on {} [{}]",
            args.bench,
            args.opt,
            args.machine,
            setup.summary()
        );
        println!("{}\n", result.counters);
        println!("{profile}");
    } else {
        let m = Orchestrator::global()
            .measure(&harness, &setup, args.size)
            .map_err(|e| e.to_string())?;
        println!(
            "{} @ {} on {} [{}]",
            args.bench, args.opt, args.machine, m.setup
        );
        println!("{}", m.counters);
    }
    Ok(())
}

fn disasm(bench: &str, opt: OptLevel) -> Result<(), String> {
    let harness = shared_harness(bench)?;
    let names = harness.object_names();
    let order: Vec<usize> = (0..names.len()).collect();
    let exe = harness
        .executable(opt, &order, 0)
        .map_err(|e| e.to_string())?;
    print!("{}", exe.disassemble());
    Ok(())
}

fn print_ir(bench: &str, opt: OptLevel) -> Result<(), String> {
    let b = lookup(bench)?;
    let optimized = biaslab_toolchain::opt::optimize(b.module(), opt);
    print!("{optimized}");
    Ok(())
}

fn audit(bench: &str, machine: &str, size: InputSize) -> Result<(), String> {
    let harness = shared_harness(bench)?;
    let machine_config = parse_machine(machine)?;
    let config = biaslab_core::audit::AuditConfig {
        machines: vec![machine_config],
        size,
        ..biaslab_core::audit::AuditConfig::default()
    };
    let report = biaslab_core::audit::full_audit(&harness, &config).map_err(|e| e.to_string())?;
    println!("{report}");
    Ok(())
}

fn trace(file: &str, flame: bool) -> Result<(), String> {
    let text =
        std::fs::read_to_string(file).map_err(|e| format!("could not read `{file}`: {e}"))?;
    let trace = biaslab_core::trace_report::parse(&text);
    if flame {
        print!("{}", biaslab_core::trace_report::flame(&trace));
    } else {
        println!("{}", biaslab_core::trace_report::summary(&trace));
    }
    Ok(())
}

fn analyze(bench: &str, machine: &str, explain: bool) -> Result<(), String> {
    let machine_config = parse_machine(machine)?;
    if bench == "all" {
        let ranked = biaslab_analyze::rank_suite(&machine_config)?;
        let mut table = Table::new(vec!["rank", "benchmark", "predicted-spread", "top factor"]);
        for (i, r) in ranked.iter().enumerate() {
            let top = r
                .factors
                .iter()
                .max_by(|a, b| a.score.partial_cmp(&b.score).expect("finite scores"))
                .expect("three factors");
            table.row(vec![
                format!("{}", i + 1),
                r.bench.clone(),
                format!("{:.4}", r.predicted_spread),
                top.factor.to_string(),
            ]);
        }
        println!(
            "suite ranked by predicted O3/O2 spread on {}:\n",
            machine_config.name
        );
        println!("{table}");
        return Ok(());
    }
    let report = biaslab_analyze::analyze_benchmark(bench, &machine_config)?;
    if explain {
        println!("{}", report.explain());
    } else {
        println!("{report}");
    }
    Ok(())
}

fn lint(
    bench: &str,
    machine: &str,
    json: bool,
    deny: Option<biaslab_analyze::FindingClass>,
) -> Result<(), String> {
    let machine_config = parse_machine(machine)?;
    let reports = if bench == "all" {
        biaslab_analyze::lint_suite(&machine_config)?
    } else {
        vec![biaslab_analyze::lint_benchmark(bench, &machine_config)?]
    };
    for (i, report) in reports.iter().enumerate() {
        if json {
            print!("{}", report.to_jsonl());
        } else {
            if i > 0 {
                println!();
            }
            println!("{}", report.render());
        }
    }
    if let Some(class) = deny {
        let hits: Vec<&str> = reports
            .iter()
            .filter(|r| r.has_class(class))
            .map(|r| r.bench.as_str())
            .collect();
        if !hits.is_empty() {
            return Err(format!(
                "--deny {}: findings reported in {}",
                class.name(),
                hits.join(", ")
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    /// Serializes the tests that simulate through, or count the
    /// simulations of, the process-wide orchestrator: tests run in
    /// parallel threads of one process, so an unserialized `run` would
    /// land inside another test's zero-simulations window.
    fn global_orchestrator() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn informational_commands_succeed() {
        for cmd in ["list", "machines", "survey"] {
            run(parse(&argv(cmd)).unwrap()).unwrap_or_else(|e| panic!("{cmd}: {e}"));
        }
    }

    #[test]
    fn run_command_measures_and_verifies() {
        let _global = global_orchestrator();
        run(parse(&argv("run hmmer --opt O2 --machine o3cpu --env 100")).unwrap()).unwrap();
    }

    #[test]
    fn run_with_profile_succeeds() {
        run(parse(&argv("run milc --profile")).unwrap()).unwrap();
    }

    #[test]
    fn disasm_and_ir_succeed() {
        run(parse(&argv("disasm gobmk --opt O1")).unwrap()).unwrap();
        run(parse(&argv("ir gobmk --opt O3")).unwrap()).unwrap();
    }

    #[test]
    fn analyze_succeeds_without_simulating() {
        let _global = global_orchestrator();
        let before = Orchestrator::global().stats().simulated;
        run(parse(&argv("analyze perlbench --machine o3cpu")).unwrap()).unwrap();
        run(parse(&argv("analyze mcf --explain")).unwrap()).unwrap();
        run(parse(&argv("analyze all --machine pentium4")).unwrap()).unwrap();
        assert_eq!(
            Orchestrator::global().stats().simulated,
            before,
            "analyze must not invoke the simulator"
        );
    }

    #[test]
    fn lint_succeeds_without_simulating() {
        let _global = global_orchestrator();
        let before = Orchestrator::global().stats().simulated;
        run(parse(&argv("lint perlbench --machine pentium4")).unwrap()).unwrap();
        run(parse(&argv("lint libquantum --json")).unwrap()).unwrap();
        assert_eq!(
            Orchestrator::global().stats().simulated,
            before,
            "lint must not invoke the simulator"
        );
    }

    #[test]
    fn lint_deny_gates_on_present_class() {
        // libquantum on core2 reports loop-fetch-straddle findings;
        // denying an absent class passes, denying a present one fails.
        run(parse(&argv("lint libquantum --deny uninit-read")).unwrap()).unwrap();
        let err =
            run(parse(&argv("lint libquantum --deny loop-fetch-straddle")).unwrap()).unwrap_err();
        assert!(err.contains("--deny loop-fetch-straddle"));
        assert!(err.contains("libquantum"));
    }

    #[test]
    fn unknown_benchmark_is_a_clean_error() {
        let err = run(parse(&argv("run nonesuch")).unwrap()).unwrap_err();
        assert!(err.contains("nonesuch"));
        assert!(err.contains("biaslab list"));
    }

    #[test]
    fn trace_command_renders_a_file() {
        use biaslab_core::telemetry::{CacheEvent, CacheOutcome, SpanEvent, TraceEvent};
        let span = TraceEvent::Span(SpanEvent {
            id: 1,
            parent: 0,
            name: "measure",
            scope: "fig1".into(),
            bench: "mcf".into(),
            worker: 0,
            key: 7,
            outcome: Some(CacheOutcome::Miss),
            start_us: 0,
            dur_us: 42,
        });
        let cache = TraceEvent::Cache(CacheEvent {
            outcome: CacheOutcome::Miss,
            key: 7,
            bench: "mcf".into(),
            scope: "fig1".into(),
            worker: 0,
            t_us: 1,
        });
        let text = format!(
            "{{\"v\":1,\"ev\":\"trace_start\",\"label\":\"test run\",\"clock_us\":50}}\n{}\n{}\n",
            span.to_line(),
            cache.to_line()
        );
        let path =
            std::env::temp_dir().join(format!("biaslab-trace-cmd-{}.jsonl", std::process::id()));
        std::fs::write(&path, text).unwrap();
        let file = path.to_str().unwrap().to_owned();
        run(Command::Trace {
            file: file.clone(),
            flame: false,
        })
        .unwrap();
        run(Command::Trace { file, flame: true }).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_on_a_missing_file_is_a_clean_error() {
        let err = run(Command::Trace {
            file: "results/traces/nonesuch.jsonl".into(),
            flame: false,
        })
        .unwrap_err();
        assert!(err.contains("nonesuch.jsonl"));
        assert!(err.contains("could not read"));
    }
}
