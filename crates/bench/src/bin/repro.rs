//! `repro` — regenerate any table or figure of the paper.
//!
//! ```text
//! repro list                    # available experiment ids
//! repro fig3                    # regenerate one experiment at full size
//! repro fig3 --effort quick     # reduced size (CI-friendly); --quick works too
//! repro all [--effort quick]    # everything, in paper order
//! repro all --jobs 4            # run experiments concurrently
//! repro all --serial            # one at a time, in-process
//! repro fig1 --trace            # also export a telemetry trace
//! repro fig1 --trace-profile    # trace + per-function cycle attribution
//! repro all --faults seed=7,save.io=0.5   # deterministic fault injection
//! ```
//!
//! Measurements persist under `results/measurements.jsonl` (set
//! `BIASLAB_RESULTS_DIR` to relocate): an interrupted `repro all` resumes
//! from what it already measured. `--no-resume` makes a run ephemeral — it
//! neither reads nor rewrites the results file. Cache and timing
//! instrumentation is reported per experiment on stderr; experiment output
//! on stdout is byte-identical with or without the cache.
//!
//! `repro all` runs experiments concurrently on the shared orchestrator
//! cache (`--jobs N` to pick the worker count, default the machine's
//! parallelism). Output is buffered per experiment and flushed in paper
//! order, so stdout is byte-identical to `--serial` at any worker count.
//!
//! `--faults <spec>` (or the `BIASLAB_FAULTS` environment variable; the
//! flag wins) installs a deterministic fault schedule — seeded I/O errors,
//! short writes, leader panics, and delays — to exercise the recovery
//! paths. Experiment output on stdout stays byte-identical under any
//! schedule; only stderr instrumentation and `fault.*` counters differ.
//!
//! `--trace` records the whole measurement procedure — phase spans, cache
//! hits/misses/evictions, worker attribution — and exports it as JSONL
//! under `results/traces/` (render it with `biaslab trace <file>`).
//! `--trace-profile` additionally attaches per-function cycle attribution
//! to every simulated run. Tracing never changes measurements: counters
//! and stdout are bit-identical with or without it.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use biaslab_bench::{parallel, run_experiment, Effort, EXPERIMENTS};
use biaslab_core::{faults, telemetry, Orchestrator};

fn usage() -> ExitCode {
    eprintln!(
        "usage: repro <experiment-id | all | list> [--effort quick|full] [--no-resume] \
         [--jobs N | --serial] [--trace | --trace-profile] [--faults <spec>]"
    );
    eprintln!(
        "env: BIASLAB_FAULTS=<spec> installs a fault schedule like --faults \
         (e.g. seed=7,save.io=0.5,leader.panic=@1)"
    );
    eprintln!("experiments:");
    for e in EXPERIMENTS {
        eprintln!("  {:12} {}", e.id, e.title);
    }
    ExitCode::FAILURE
}

/// Parses `--quick` / `--effort quick|full` (the last one given wins).
fn parse_effort(args: &[String]) -> Option<Effort> {
    let mut effort = Effort::Full;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => effort = Effort::Quick,
            "--effort" => match it.next().map(String::as_str) {
                Some("quick") => effort = Effort::Quick,
                Some("full") => effort = Effort::Full,
                other => {
                    eprintln!("--effort takes `quick` or `full`, got {other:?}");
                    return None;
                }
            },
            _ => {}
        }
    }
    Some(effort)
}

/// Installs the fault schedule from `--faults <spec>` (the last one given
/// wins), falling back to `BIASLAB_FAULTS` when the flag is absent.
fn install_faults(args: &[String]) -> Result<(), String> {
    let mut flag_spec = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--faults" {
            match it.next() {
                Some(s) => flag_spec = Some(s.clone()),
                None => {
                    return Err("--faults takes a spec, e.g. seed=7,save.io=0.5".to_string());
                }
            }
        }
    }
    match flag_spec {
        Some(s) => {
            faults::install(&faults::FaultSpec::parse(&s)?);
            Ok(())
        }
        None => faults::install_from_env().map(|_| ()),
    }
}

/// How `repro all` schedules experiments.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// One at a time, in-process — the reference for stdout byte-identity.
    Serial,
    /// Concurrent on this many workers, output flushed in paper order.
    Parallel(usize),
}

/// Parses `--serial` / `--jobs N` (the last one given wins; the default is
/// one worker per available core).
fn parse_mode(args: &[String]) -> Option<Mode> {
    let mut mode = Mode::Parallel(std::thread::available_parallelism().map_or(1, |n| n.get()));
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--serial" => mode = Mode::Serial,
            "--jobs" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => mode = Mode::Parallel(n),
                _ => {
                    eprintln!("--jobs takes a positive integer");
                    return None;
                }
            },
            _ => {}
        }
    }
    Some(mode)
}

fn results_dir() -> PathBuf {
    std::env::var_os("BIASLAB_RESULTS_DIR").map_or_else(|| PathBuf::from("results"), PathBuf::from)
}

fn results_path() -> PathBuf {
    results_dir().join("measurements.jsonl")
}

fn effort_str(effort: Effort) -> &'static str {
    match effort {
        Effort::Quick => "quick",
        Effort::Full => "full",
    }
}

/// Exports the buffered trace (when tracing) and reports where it went.
fn export_trace(target: &str, effort: Effort) {
    if !telemetry::enabled() {
        return;
    }
    let path = results_dir()
        .join("traces")
        .join(format!("repro-{target}-{}.jsonl", effort_str(effort)));
    let label = format!("repro {target} --effort {}", effort_str(effort));
    match telemetry::export(&path, &label, &Orchestrator::global().metrics()) {
        Ok(n) => eprintln!("[repro] trace: {n} event(s) -> {}", path.display()),
        Err(e) => eprintln!("warning: could not write trace to {}: {e}", path.display()),
    }
}

fn run_one(id: &str, title: &str, effort: Effort, persist: bool) {
    let orch = Orchestrator::global();
    let before = orch.stats();
    let start = std::time::Instant::now();
    let span = telemetry::enabled().then(|| {
        telemetry::set_scope(id);
        telemetry::metrics().counter("repro.experiments").add(1);
        telemetry::Span::open("experiment", id)
    });
    let output = run_experiment(id, effort).expect("registered experiment");
    if let Some(span) = span {
        span.close();
        telemetry::clear_scope();
    }
    println!("{output}");
    let spent = start.elapsed();
    if persist {
        orch.persist(&results_path());
    }
    eprintln!(
        "[repro] {id} ({title}): {:.2}s, {}",
        spent.as_secs_f64(),
        orch.stats().delta(&before)
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(effort) = parse_effort(&args) else {
        return usage();
    };
    let Some(mode) = parse_mode(&args) else {
        return usage();
    };
    let resume = !args.iter().any(|a| a == "--no-resume");
    if let Err(e) = install_faults(&args) {
        eprintln!("invalid fault spec: {e}\n");
        return usage();
    }
    let trace_profiles = args.iter().any(|a| a == "--trace-profile");
    if trace_profiles || args.iter().any(|a| a == "--trace") {
        telemetry::enable();
        if trace_profiles {
            telemetry::enable_profiles();
        }
    }
    let mut flag_value_next = false;
    let targets: Vec<&String> = args
        .iter()
        .filter(|a| {
            let is_flag_value = std::mem::replace(
                &mut flag_value_next,
                **a == "--effort" || **a == "--jobs" || **a == "--faults",
            );
            !a.starts_with("--") && !is_flag_value
        })
        .collect();

    let Some(&target) = targets.first() else {
        return usage();
    };

    if target != "list" && resume {
        let path = results_path();
        match Orchestrator::global().load(&path) {
            Ok(0) => {}
            Ok(n) => eprintln!("[repro] resumed {n} measurement(s) from {}", path.display()),
            Err(e) => eprintln!("warning: could not read {}: {e}", path.display()),
        }
    }

    match target.as_str() {
        "list" => {
            for e in EXPERIMENTS {
                println!("{:12} {}", e.id, e.title);
            }
            ExitCode::SUCCESS
        }
        "all" => {
            let code = match mode {
                Mode::Serial => {
                    for e in EXPERIMENTS {
                        parallel::write_banner(&mut std::io::stdout(), e.id, e.title)
                            .expect("write to stdout");
                        run_one(e.id, e.title, effort, resume);
                    }
                    ExitCode::SUCCESS
                }
                Mode::Parallel(jobs) => {
                    let orch = Orchestrator::global();
                    let path = results_path();
                    let mut out = std::io::stdout().lock();
                    let failures = parallel::run_all(EXPERIMENTS, effort, jobs, &mut out, |run| {
                        if telemetry::enabled() {
                            telemetry::metrics().counter("repro.experiments").add(1);
                        }
                        match &run.outcome {
                            Ok(_) => {
                                eprintln!("[repro] {} ({}): {:.2}s", run.id, run.title, run.seconds)
                            }
                            Err(msg) => {
                                if telemetry::enabled() {
                                    telemetry::metrics().counter("repro.panics").add(1);
                                }
                                eprintln!(
                                    "[repro] {} ({}): PANICKED after {:.2}s: {msg}",
                                    run.id, run.title, run.seconds
                                );
                            }
                        }
                        if resume {
                            orch.persist(&path);
                        }
                    })
                    .expect("write to stdout");
                    out.flush().expect("flush stdout");
                    drop(out);
                    if failures > 0 {
                        eprintln!("[repro] {failures} experiment(s) panicked");
                        ExitCode::FAILURE
                    } else {
                        ExitCode::SUCCESS
                    }
                }
            };
            eprintln!("[repro] totals: {}", Orchestrator::global().stats());
            export_trace("all", effort);
            code
        }
        id => {
            if !EXPERIMENTS.iter().any(|e| e.id == id) {
                eprintln!("unknown experiment `{id}`\n");
                return usage();
            }
            let title = EXPERIMENTS
                .iter()
                .find(|e| e.id == id)
                .expect("checked")
                .title;
            run_one(id, title, effort, resume);
            export_trace(id, effort);
            ExitCode::SUCCESS
        }
    }
}
