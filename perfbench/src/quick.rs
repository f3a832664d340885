//! `quick-cold` and `quick-resumed`: `repro all --effort quick`, the command
//! users run to regenerate the paper, as a child process.
//!
//! Cold runs start from an empty results directory, so they pay compile,
//! simulation, analysis, reference interpretation and every results-file
//! write. Resumed runs reuse the results file a set-up run left (993
//! records), so they simulate nothing: their time is results-file load and
//! save plus the experiments' uncached work, and a simulator-only change
//! must read no change there.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use biaslab_core::trace_report;

use crate::calib::Calibration;
use crate::metrics::{Outcome, EXPERIMENT_IDS};
use crate::procs::{self, Exit};
use crate::spans::Breakdown;
use crate::stats::median;
use crate::util::fnv64;
use crate::Ctx;

/// Set-up runs per benchmark run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest measured runs, even when `--seconds` is short.
const MIN_RUNS: usize = 3;

struct Run {
    exit: Exit,
    stdout: Vec<u8>,
}

/// One `repro all --effort quick` with its results under `dir/results`.
fn repro(ctx: &Ctx, dir: &Path, traced: bool) -> io::Result<Run> {
    std::fs::create_dir_all(dir)?;
    let mut cmd = crate::program(&ctx.bin_dir, "repro");
    cmd.args(["all", "--effort", "quick"]);
    if traced {
        cmd.arg("--trace");
    }
    cmd.env("BIASLAB_RESULTS_DIR", dir.join("results"))
        .stdout(std::fs::File::create(dir.join("stdout.txt"))?)
        .stderr(std::fs::File::create(dir.join("stderr.txt"))?);
    let exit = procs::run(&mut cmd)?;
    Ok(Run {
        exit,
        stdout: std::fs::read(dir.join("stdout.txt"))?,
    })
}

/// Whether a run succeeded with the reference stdout (the first set-up
/// run's, itself checked against the pinned digest).
fn check(o: &mut Outcome, run: &Run, reference: &mut Option<Vec<u8>>, what: &str) -> bool {
    if !run.exit.success {
        o.problem(format!("{what}: repro exited with failure"));
        return false;
    }
    match reference {
        None => {
            crate::pins::check(o, "quick-suite", 0, fnv64(&run.stdout));
            *reference = Some(run.stdout.clone());
            true
        }
        Some(r) if *r == run.stdout => true,
        Some(_) => {
            o.problem(format!("{what}: stdout differs from the set-up run's"));
            false
        }
    }
}

pub fn run(ctx: &Ctx, resumed: bool, o: &mut Outcome) -> io::Result<()> {
    // Every set-up and measured run sits between two calibration timings;
    // `*_at` holds the index of the one before it.
    let mut cal = Calibration::new();
    let mut reference = None;
    let (mut setup_s, mut setup_at) = (Vec::new(), Vec::new());
    for i in 0..SETUPS {
        setup_at.push(cal.sample());
        let run = repro(ctx, &ctx.work.join(format!("setup-{i}")), false)?;
        setup_s.push(run.exit.wall.as_secs_f64());
        check(o, &run, &mut reference, "set-up run");
    }
    let resume_dir = ctx.work.join(format!("setup-{}", SETUPS - 1));

    // Measured runs; a traced benchmark run alternates untraced and traced
    // ones, so tracing overhead is measured on the same host state.
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let (mut wall, mut cpu, mut rss, mut at) = (vec![], vec![], vec![], vec![]);
    let mut traced_wall = Vec::new();
    let mut spans = Breakdown::default();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut k = 0;
    while k < MIN_RUNS || Instant::now() < deadline {
        let traced = ctx.trace && k % 2 == 1;
        let dir = if resumed {
            resume_dir.clone()
        } else {
            ctx.work.join(format!("run-{k}"))
        };
        let c = cal.sample();
        let run = repro(ctx, &dir, traced)?;
        k += 1;
        o.attempted += 1;
        if !check(o, &run, &mut reference, &format!("run {k}")) {
            o.failed += 1;
        }
        let ms = run.exit.wall.as_secs_f64() * 1e3;
        if traced {
            let path = dir.join("results/traces/repro-all-quick.jsonl");
            let trace = trace_report::parse(&std::fs::read_to_string(&path)?);
            std::fs::remove_dir_all(dir.join("results/traces"))?;
            spans.add(&Breakdown::of(&trace.spans));
            for (name, v) in trace.metrics {
                *counters.entry(name).or_default() += v;
            }
            traced_wall.push(ms);
        } else {
            wall.push(ms);
            cpu.push(run.exit.cpu.as_secs_f64() * 1e3);
            rss.push(run.exit.max_rss_kb as f64 / 1024.0);
            at.push(c);
        }
        if !resumed {
            std::fs::remove_dir_all(&dir)?;
        }
    }
    cal.sample();
    o.details.push(cal.describe());
    if !ctx.trace {
        let f = cal.factors(&at);
        o.put_scaled("wall_ms", &wall, &f);
        o.put_scaled("cpu_ms", &cpu, &f);
        o.put_scaled("setup_s", &setup_s, &cal.factors(&setup_at));
        o.put("peak_rss_mb", &rss);
        return Ok(());
    }

    let traced_runs = traced_wall.len() as f64;
    let traced_us: f64 = traced_wall.iter().sum::<f64>() * 1e3;
    o.put_span_shares(&spans, traced_us);
    o.put_counters(&counters, traced_runs, crate::threads());
    o.put_value(
        "telemetry.overhead_pct",
        100.0 * (median(&traced_wall) / median(&wall) - 1.0),
    );
    crate::probes::toolchain_and_uarch(ctx.seed, o);
    crate::probes::persistence(&resume_dir.join("results"), o)?;
    // A cold run's load finds no file; a resumed run loads all records.
    // Every run saves once per experiment (cold runs save smaller files,
    // so for them the share is an upper bound).
    let op_ms = traced_us / 1e3 / traced_runs;
    let load_ms = if resumed {
        o.metrics["orchestrator.load_ms"].median
    } else {
        0.0
    };
    let save_ms = EXPERIMENT_IDS.len() as f64 * o.metrics["orchestrator.save_ms"].median;
    o.put_value("persist.load_pct", 100.0 * load_ms / op_ms);
    o.put_value("persist.save_pct", 100.0 * save_ms / op_ms);
    // Saves run on the main thread while later experiments still run,
    // so only the load is known to fall outside every experiment span.
    let in_experiments_ms = spans.experiments_covered_us as f64 / 1e3 / traced_runs;
    o.put_value(
        "unattributed_pct",
        100.0 * (1.0 - (in_experiments_ms + load_ms) / op_ms),
    );
    o.put_serve_bypassed();
    Ok(())
}
