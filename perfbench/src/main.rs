//! biaslab's benchmark: four workloads, repeated-run medians with their
//! quartiles, and a per-layer breakdown (see README.md).
//!
//! ```text
//! perfbench --workload <quick-cold|quick-resumed|sweep-ref|serve-open>
//!           --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//! ```
//!
//! `run.sh` builds the program and this benchmark from source and runs it
//! from the repository root. With `--trace 0` a run reports the end-to-end
//! metrics with tracing off; with `--trace 1` it reports the per-layer
//! metrics. One line per metric (name, unit, median, q1, q3, n) goes to
//! stdout, and the last stdout line is the JSON result. `--out` also writes
//! every metric with its quartiles and the detail lines as JSON.

mod calib;
mod metrics;
mod pins;
mod probes;
mod procs;
mod quick;
mod serve_open;
mod spans;
mod stats;
mod sweep;
mod util;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use metrics::{Outcome, END_TO_END};

const WORKLOADS: &[&str] = &["quick-cold", "quick-resumed", "sweep-ref", "serve-open"];

/// What every workload needs to run.
pub struct Ctx {
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: f64,
    pub trace: bool,
    /// Where `repro` and `biaslab` were built (next to this binary).
    pub bin_dir: PathBuf,
    /// Scratch space inside the checkout, removed when the run ends.
    pub work: PathBuf,
}

/// `Command` for one of the program's binaries, with no `BIASLAB_*`
/// settings inherited, so fault schedules or cache caps in the caller's
/// environment cannot leak into a measurement.
pub fn program(bin_dir: &Path, name: &str) -> Command {
    let mut cmd = Command::new(bin_dir.join(name));
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("BIASLAB_") {
            cmd.env_remove(k);
        }
    }
    cmd
}

/// Hardware threads available, as the orchestrator's sweeps size their
/// worker pools.
pub fn threads() -> f64 {
    std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    /// Internal: run as a sweep or persistence-probe child in this
    /// directory.
    child: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        out: None,
        child: None,
    };
    let mut child = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} takes a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(a.seconds > 0.0 && a.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_owned());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--child" => {
                child = true;
                a.workload = value()?.clone();
            }
            "--work" => a.child = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if child != a.child.is_some()
        || (child && !["sweep-ref", "persist"].contains(&a.workload.as_str()))
    {
        return Err("internal child modes are `--child sweep-ref|persist --work <dir>`".to_owned());
    }
    if !child && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(a)
}

/// Removes the scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out <file>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Some(work) = &a.child {
        let ran = if a.workload == "persist" {
            probes::persist_child(work)
        } else {
            sweep::child(a.seed, work, a.trace)
        };
        return match ran {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {} child: {e}", a.workload);
                ExitCode::FAILURE
            }
        };
    }

    let bin_dir = match std::env::current_exe() {
        Ok(p) => p.parent().map(Path::to_path_buf).unwrap_or_default(),
        Err(e) => {
            eprintln!("perfbench: cannot locate this binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    for bin in ["repro", "biaslab"] {
        if !bin_dir.join(bin).is_file() {
            eprintln!(
                "perfbench: {} is missing; build with run.sh",
                bin_dir.join(bin).display()
            );
            return ExitCode::FAILURE;
        }
    }
    let work = PathBuf::from(".bench_run").join(format!("{}-{}", a.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let _cleanup = WorkDir(work.clone());
    let ctx = Ctx {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        bin_dir,
        work,
    };

    let mut o = Outcome::default();
    let ran = match a.workload.as_str() {
        "quick-cold" => quick::run(&ctx, false, &mut o),
        "quick-resumed" => quick::run(&ctx, true, &mut o),
        "sweep-ref" => sweep::run(&ctx, &mut o),
        _ => serve_open::run(&ctx, &mut o),
    };
    if let Err(e) = ran {
        eprintln!("perfbench: {} failed: {e}", a.workload);
        return ExitCode::FAILURE;
    }

    let catalog: Vec<(String, &str)> = if a.trace {
        metrics::per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };
    print!("{}", o.lines(&a.workload, &catalog));
    for d in &o.details {
        println!("# {d}");
    }
    if let Some(out) = &a.out {
        if let Err(e) = std::fs::write(out, o.full_json(&a.workload, a.seed, a.trace)) {
            eprintln!("perfbench: cannot write {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", o.json_line(&catalog));
    if o.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
