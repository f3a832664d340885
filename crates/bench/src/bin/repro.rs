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
//! `BIASLAB_RESULTS_DIR` to relocate): each is appended as it is measured
//! and synced after each experiment, so an interrupted `repro all` resumes
//! from what it already measured. `--no-resume` makes a run ephemeral — it
//! neither reads nor writes the results file. Cache and timing
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
use std::process::ExitCode;

use biaslab_bench::{parallel, run_experiment, Effort, EXPERIMENTS};
use biaslab_core::orchestrator::{results_dir, results_path};
use biaslab_core::{faults, telemetry, Orchestrator};

/// Usage text shown on parse errors, before the experiment list.
const USAGE: &str = "\
usage: repro <experiment-id | all | list> [--effort quick|full | --quick] [--no-resume]
             [--jobs N | --serial] [--trace | --trace-profile] [--faults <spec>]
env: BIASLAB_FAULTS=<spec> installs a fault schedule like --faults
     (e.g. seed=7,save.io=0.5,leader.panic=@1)";

/// Every flag `repro` accepts, and whether it takes a value. Anything else
/// on the command line is a usage error, so a misspelled flag never runs
/// with a silent default.
const FLAGS: &[(&str, bool)] = &[
    ("--effort", true),
    ("--quick", false),
    ("--no-resume", false),
    ("--jobs", true),
    ("--serial", false),
    ("--trace", false),
    ("--trace-profile", false),
    ("--faults", true),
];

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    eprintln!("experiments:");
    for e in EXPERIMENTS {
        eprintln!("  {:12} {}", e.id, e.title);
    }
    ExitCode::FAILURE
}

/// How `repro all` schedules experiments.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// One at a time, in-process — the reference for stdout byte-identity.
    Serial,
    /// Concurrent on this many workers, output flushed in paper order.
    Parallel(usize),
}

/// A parsed command line. Where flags conflict (`--quick` and `--effort`,
/// `--serial` and `--jobs`, a repeated flag) the last one given wins.
struct Options {
    /// An experiment id, `all` or `list`.
    target: String,
    effort: Effort,
    /// One worker per available core unless `--jobs` or `--serial` says
    /// otherwise.
    mode: Mode,
    resume: bool,
    trace: bool,
    trace_profiles: bool,
    /// `--faults <spec>`; without it `BIASLAB_FAULTS` applies.
    faults: Option<String>,
}

/// Scans the arguments once against [`FLAGS`].
fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        target: String::new(),
        effort: Effort::Full,
        mode: Mode::Parallel(std::thread::available_parallelism().map_or(1, |n| n.get())),
        resume: true,
        trace: false,
        trace_profiles: false,
        faults: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            if !o.target.is_empty() {
                return Err(format!("unexpected argument `{arg}` after `{}`", o.target));
            }
            o.target = arg.clone();
            continue;
        }
        let &(flag, takes_value) = FLAGS
            .iter()
            .find(|(flag, _)| flag == arg)
            .ok_or_else(|| format!("unknown option `{arg}`"))?;
        let value = if takes_value {
            it.next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{flag} takes a value"))?
                .as_str()
        } else {
            ""
        };
        match flag {
            "--effort" => {
                o.effort = match value {
                    "quick" => Effort::Quick,
                    "full" => Effort::Full,
                    other => {
                        return Err(format!("--effort takes `quick` or `full`, got `{other}`"))
                    }
                }
            }
            "--quick" => o.effort = Effort::Quick,
            "--no-resume" => o.resume = false,
            "--jobs" => match value.parse::<usize>() {
                Ok(n) if n >= 1 => o.mode = Mode::Parallel(n),
                _ => return Err("--jobs takes a positive integer".to_owned()),
            },
            "--serial" => o.mode = Mode::Serial,
            "--trace" => o.trace = true,
            "--trace-profile" => o.trace_profiles = true,
            _ => o.faults = Some(value.to_owned()),
        }
    }
    if o.target.is_empty() {
        return Err("missing experiment id, `all` or `list`".to_owned());
    }
    Ok(o)
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

fn run_one(id: &str, title: &str, effort: Effort) {
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
    orch.sync();
    eprintln!(
        "[repro] {id} ({title}): {:.2}s, {}",
        spent.as_secs_f64(),
        orch.stats().delta(&before)
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n");
            return usage();
        }
    };
    let installed = match &o.faults {
        Some(spec) => faults::FaultSpec::parse(spec).map(|spec| faults::install(&spec)),
        None => faults::install_from_env().map(|_| ()),
    };
    if let Err(e) = installed {
        eprintln!("invalid fault spec: {e}\n");
        return usage();
    }
    if o.trace || o.trace_profiles {
        telemetry::enable();
        if o.trace_profiles {
            telemetry::enable_profiles();
        }
    }
    let (target, effort, resume) = (o.target.as_str(), o.effort, o.resume);

    if target != "list" && resume {
        let path = results_path();
        match Orchestrator::global().attach(&path) {
            Ok(0) => {}
            Ok(n) => eprintln!("[repro] resumed {n} measurement(s) from {}", path.display()),
            Err(e) => eprintln!("warning: could not read {}: {e}", path.display()),
        }
    }

    match target {
        "list" => {
            for e in EXPERIMENTS {
                println!("{:12} {}", e.id, e.title);
            }
            ExitCode::SUCCESS
        }
        "all" => {
            let code = match o.mode {
                Mode::Serial => {
                    for e in EXPERIMENTS {
                        parallel::write_banner(&mut std::io::stdout(), e.id, e.title)
                            .expect("write to stdout");
                        run_one(e.id, e.title, effort);
                    }
                    ExitCode::SUCCESS
                }
                Mode::Parallel(jobs) => {
                    let orch = Orchestrator::global();
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
                        orch.sync();
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
            eprintln!(
                "[repro] totals: {}, {} reference interpretation(s)",
                Orchestrator::global().stats(),
                biaslab_workloads::reference_interpretations()
            );
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
            run_one(id, title, effort);
            export_trace(id, effort);
            ExitCode::SUCCESS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_flag_is_in_the_usage_and_every_usage_flag_is_parsed() {
        let parsed: std::collections::BTreeSet<&str> =
            FLAGS.iter().map(|&(flag, _)| flag).collect();
        let listed: std::collections::BTreeSet<&str> = USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|word| word.starts_with("--"))
            .collect();
        assert_eq!(parsed, listed);
    }
}
