//! `sweep-ref`: fresh processes each running `Orchestrator::sweep` over the
//! whole suite at Ref size, the workload where simulator and sweep
//! scheduling dominate.
//!
//! Each child warms `Harness::compiled` and the Ref reference outcomes
//! first (its set-up, reported as `setup_s`), so the timed part is almost
//! all simulation on the sweep's worker threads, with little link or load
//! and no compile. Ref inputs have larger working sets than the Test
//! inputs every other workload runs.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use biaslab_core::setup::ExperimentSetup;
use biaslab_core::{serve, telemetry, Orchestrator};
use biaslab_toolchain::load::Environment;
use biaslab_toolchain::OptLevel;
use biaslab_uarch::MachineConfig;
use biaslab_workloads::{suite, InputSize};

use crate::calib::Calibration;
use crate::metrics::Outcome;
use crate::procs;
use crate::spans::Breakdown;
use crate::stats::median;
use crate::util::{distinct_sizes, fnv64, Rng};
use crate::Ctx;

/// Seeded environment sizes per setup grid.
const ENVS: usize = 6;
/// Fewest children per benchmark run, even when `--seconds` is short.
const MIN_CHILDREN: usize = 3;

/// The grid every benchmark is swept over: machines × {O2, O3} × seeded
/// environment sizes in 23..=4096 (36 setups; 432 over the suite).
fn grid(seed: u64) -> Vec<ExperimentSetup> {
    let envs = distinct_sizes(&mut Rng::new(seed, "sweep-envs"), ENVS, 23, 4096);
    let mut out = Vec::new();
    for machine in [
        MachineConfig::core2(),
        MachineConfig::pentium4(),
        MachineConfig::o3cpu(),
    ] {
        for opt in [OptLevel::O2, OptLevel::O3] {
            let base = ExperimentSetup::default_on(machine.clone(), opt);
            out.extend(
                envs.iter()
                    .map(|&b| base.with_env(Environment::of_total_size(b as u32))),
            );
        }
    }
    out
}

/// The child process: set up, sweep, and print `key value` lines.
pub fn child(seed: u64, work: &Path, traced: bool) -> io::Result<()> {
    let t = Instant::now();
    let orch = Orchestrator::new();
    let harnesses: Vec<_> = suite()
        .iter()
        .map(|b| orch.harness(b.name()).expect("suite benchmarks are known"))
        .collect();
    for h in &harnesses {
        let _ = h.compiled(OptLevel::O2);
        let _ = h.compiled(OptLevel::O3);
        let _ = h.benchmark().expected(InputSize::Ref);
    }
    let setup = t.elapsed();
    let setups = grid(seed);

    if traced {
        telemetry::enable();
    }
    let cpu0 = procs::self_cpu();
    let t = Instant::now();
    let results: Vec<_> = harnesses
        .iter()
        .map(|h| orch.sweep(h, &setups, InputSize::Ref))
        .collect();
    let wall = t.elapsed();
    let cpu = procs::self_cpu() - cpu0;
    telemetry::disable();

    let mut lines = String::new();
    let (mut errors, mut instructions) = (0u64, 0u64);
    for (seq, r) in results.iter().flatten().enumerate() {
        lines.push_str(&serve::encode_response(seq as u64, r));
        lines.push('\n');
        match r {
            Ok(m) => instructions += m.counters.instructions,
            Err(_) => errors += 1,
        }
    }
    let mut out = format!(
        "setup_us {}\nwall_us {}\ncpu_us {}\nitems {}\nerrors {errors}\ninstructions {instructions}\n\
         digest {}\n",
        setup.as_micros(),
        wall.as_micros(),
        cpu.as_micros(),
        results.iter().map(Vec::len).sum::<usize>(),
        fnv64(lines.as_bytes()),
    );
    if traced {
        let spans: Vec<_> = telemetry::drain()
            .into_iter()
            .filter_map(|e| match e {
                telemetry::TraceEvent::Span(s) => Some(s),
                _ => None,
            })
            .collect();
        let b = Breakdown::of(&spans);
        for (name, us) in &b.self_us {
            out.push_str(&format!("self.{name} {us}\n"));
        }
        out.push_str(&format!("covered_us {}\n", b.covered_us));
        for (name, v) in orch
            .metrics()
            .into_iter()
            .chain(telemetry::metrics().snapshot())
        {
            out.push_str(&format!("c.{name} {v}\n"));
        }
        orch.save(&work.join("measurements.jsonl"))?;
    }
    io::stdout().write_all(out.as_bytes())
}

pub fn run(ctx: &Ctx, o: &mut Outcome) -> io::Result<()> {
    let mut cal = Calibration::new();
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let (mut setup, mut wall, mut cpu, mut rss, mut mips) =
        (vec![], vec![], vec![], vec![], vec![]);
    // The index of the calibration timing before each untraced child.
    let mut at = Vec::new();
    let mut traced_wall = Vec::new();
    let mut digests = Vec::new();
    let mut spans = Breakdown::default();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    // A traced child leaves its measurements for the persistence probe.
    let mut records_dir = None;
    let mut k = 0;
    while k < MIN_CHILDREN || Instant::now() < deadline {
        let traced = ctx.trace && k % 2 == 1;
        let dir = ctx.work.join(format!("child-{k}"));
        std::fs::create_dir_all(&dir)?;
        let mut cmd = std::process::Command::new(std::env::current_exe()?);
        cmd.args(["--child", "sweep-ref", "--seed", &ctx.seed.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }, "--work"])
            .arg(&dir)
            .stdout(std::fs::File::create(dir.join("stdout.txt"))?);
        let c = cal.sample();
        let exit = procs::run(&mut cmd)?;
        k += 1;
        let text = std::fs::read_to_string(dir.join("stdout.txt"))?;
        let kv: BTreeMap<&str, &str> = text.lines().filter_map(|l| l.split_once(' ')).collect();
        let num = |key: &str| kv.get(key).and_then(|v| v.parse::<f64>().ok());
        let (Some(items), Some(errors), true) = (num("items"), num("errors"), exit.success) else {
            o.problem(format!("sweep child {k} failed"));
            o.failed += grid(ctx.seed).len() as u64 * suite().len() as u64;
            continue;
        };
        o.attempted += items as u64;
        o.failed += errors as u64;
        let digest = kv.get("digest").copied().unwrap_or_default().to_owned();
        if digests.first().is_some_and(|d| *d != digest) {
            o.problem(format!(
                "sweep child {k}: counters digest {digest} differs from child 1's"
            ));
            o.failed += items as u64;
        }
        digests.push(digest);
        let us = |key| num(key).unwrap_or(0.0);
        if traced {
            traced_wall.push(us("wall_us") / 1e3);
            for (key, v) in &kv {
                if let Some(name) = key.strip_prefix("self.") {
                    let name = crate::spans::name(name);
                    *spans.self_us.entry(name).or_default() += v.parse::<u64>().unwrap_or(0);
                } else if let Some(name) = key.strip_prefix("c.") {
                    *counters.entry(name.to_owned()).or_default() += v.parse::<u64>().unwrap_or(0);
                }
            }
            spans.covered_us += us("covered_us") as u64;
            records_dir = Some(dir);
        } else {
            setup.push(us("setup_us") / 1e6);
            wall.push(us("wall_us") / 1e3);
            cpu.push(us("cpu_us") / 1e3);
            rss.push(exit.max_rss_kb as f64 / 1024.0);
            mips.push(us("instructions") / us("wall_us"));
            at.push(c);
            std::fs::remove_dir_all(&dir)?;
        }
    }
    cal.sample();
    if let Some(d) = digests.first() {
        crate::pins::check(o, "sweep-ref", ctx.seed, d.parse().unwrap_or(0));
    }
    o.details
        .push(format!("sweep-ref sim_mips median={:.3}", median(&mips)));
    o.details.push(cal.describe());
    if !ctx.trace {
        let f = cal.factors(&at);
        o.put_scaled("wall_ms", &wall, &f);
        o.put_scaled("cpu_ms", &cpu, &f);
        o.put_scaled("setup_s", &setup, &f);
        o.put("peak_rss_mb", &rss);
        return Ok(());
    }

    let traced_us: f64 = traced_wall.iter().sum::<f64>() * 1e3;
    o.put_span_shares(&spans, traced_us);
    // Threads overlap here: what no measurement span covers is the share
    // of the sweep workers' capacity (threads × wall) spent outside them.
    let in_measurements: f64 = ["compile", "link", "load", "run", "stat", "measure"]
        .iter()
        .map(|s| o.metrics[&format!("span.{s}_pct")].median)
        .sum();
    o.put_value(
        "unattributed_pct",
        100.0 - in_measurements / crate::threads(),
    );
    o.put_counters(&counters, traced_wall.len() as f64, crate::threads());
    o.put_value(
        "telemetry.overhead_pct",
        100.0 * (median(&traced_wall) / median(&wall) - 1.0),
    );
    let records_dir = records_dir.ok_or_else(|| io::Error::other("no traced child completed"))?;
    crate::probes::persistence(&records_dir, o)?;
    for m in ["persist.load_pct", "persist.save_pct"] {
        o.put_value(m, 0.0);
    }
    crate::probes::toolchain_and_uarch(ctx.seed, o);
    o.put_serve_bypassed();
    Ok(())
}
