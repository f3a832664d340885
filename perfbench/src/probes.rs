//! Layer probes: timed calls into each layer's public functions on fixed,
//! seed-derived inputs. Every traced run takes them, so a layer's speed is
//! tracked on every workload, including the ones that bypass the layer.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use biaslab_core::harness::Measurement;
use biaslab_core::serve;
use biaslab_core::Orchestrator;
use biaslab_toolchain::link::{Executable, Linker};
use biaslab_toolchain::load::{Environment, Loader};
use biaslab_toolchain::{codegen, opt, OptLevel};
use biaslab_uarch::{Machine, MachineConfig};
use biaslab_workloads::{benchmark_by_name, suite, InputSize};

use crate::metrics::Outcome;
use crate::util::{distinct_sizes, Rng};

/// Repetitions of each probe; every probe reports the median.
const REPS: usize = 5;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Times `f` once.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed())
}

/// Toolchain, simulator, reference-interpreter and suite-lookup probes.
pub fn toolchain_and_uarch(seed: u64, o: &mut Outcome) {
    let benches = suite();
    let envs: Vec<Environment> = distinct_sizes(&mut Rng::new(seed, "probe-env"), 3, 23, 4096)
        .into_iter()
        .map(|b| Environment::of_total_size(b as u32))
        .collect();
    let (mut optimize, mut codegen_t, mut link, mut run) = (vec![], vec![], vec![], vec![]);
    let mut load_us = Vec::new();
    let mut mips = Vec::new();
    let mut runs: Vec<Measurement> = Vec::new();
    for _ in 0..REPS {
        let (mut t_opt, mut t_cg, mut t_link, mut t_run) = Default::default();
        let mut insts = 0u64;
        runs.clear();
        for b in &benches {
            for level in [OptLevel::O2, OptLevel::O3] {
                let (m, d) = timed(|| opt::optimize(b.module(), level));
                t_opt += d;
                let (cm, d) = timed(|| codegen::compile(&m, level));
                t_cg += d;
                let (exe, d) = timed(|| Linker::new().link(&cm, b.entry()));
                t_link += d;
                let exe: Executable = exe.expect("every suite benchmark links in default order");
                for env in &envs {
                    let (p, d) = timed(|| Loader::new().load(&exe, env, b.args(InputSize::Test)));
                    black_box(p.expect("probe environments fit the stack"));
                    load_us.push(us(d));
                }
                if level == OptLevel::O2 {
                    let process = Loader::new()
                        .load(&exe, &Environment::new(), b.args(InputSize::Test))
                        .expect("empty environment loads");
                    let mut machine = Machine::new(MachineConfig::core2());
                    let (r, d) = timed(|| machine.run(&exe, process));
                    let r = r.expect("probe runs finish within the budget");
                    t_run += d;
                    insts += r.counters.instructions;
                    runs.push(Measurement {
                        setup: format!("core2/O2/{}", b.name()),
                        counters: r.counters,
                        checksum: r.checksum,
                    });
                }
            }
        }
        optimize.push(ms(t_opt));
        codegen_t.push(ms(t_cg));
        link.push(ms(t_link));
        run.push(ms(t_run));
        mips.push(insts as f64 / t_run.as_secs_f64() / 1e6);
    }
    o.put("toolchain.optimize_ms", &optimize);
    o.put("toolchain.codegen_ms", &codegen_t);
    o.put("toolchain.link_ms", &link);
    o.put("toolchain.load_us", &load_us);
    o.put("uarch.run_ms", &run);
    o.put("uarch.run_mips", &mips);

    // Reference outcomes are cached per Benchmark instance: time fresh ones.
    let expected = |size: InputSize, reps: usize| -> Vec<f64> {
        (0..reps)
            .map(|_| {
                let fresh = suite();
                let (_, d) = timed(|| {
                    for b in &fresh {
                        black_box(b.expected(size));
                    }
                });
                ms(d)
            })
            .collect()
    };
    o.put("workloads.expected_ms", &expected(InputSize::Test, REPS));
    o.put("workloads.expected_ref_ms", &expected(InputSize::Ref, REPS));
    let lookups: Vec<f64> = (0..REPS)
        .flat_map(|_| {
            benches
                .iter()
                .map(|b| us(timed(|| black_box(benchmark_by_name(b.name()))).1))
        })
        .collect();
    o.put("workloads.lookup_us", &lookups);

    codec(seed, &runs, o);
}

/// Serve codec probes: per-line cost of parsing the workload's own request
/// lines, encoding responses and verifying their seals.
fn codec(seed: u64, runs: &[Measurement], o: &mut Outcome) {
    let lines: Vec<String> = crate::serve_open::Gen::new(seed)
        .phase(1000.0, 2000)
        .into_iter()
        .map(|r| r.line)
        .collect();
    let per_line = |d: Duration, n: usize| us(d) / n as f64;
    let mut parse = Vec::new();
    let mut encode = Vec::new();
    let mut verify = Vec::new();
    for _ in 0..REPS {
        let (_, d) = timed(|| {
            for l in &lines {
                black_box(serve::parse_request(l).expect("generated lines parse"));
            }
        });
        parse.push(per_line(d, lines.len()));
        let (encoded, d) = timed(|| {
            (0..100u64)
                .flat_map(|i| {
                    runs.iter()
                        .map(move |m| serve::encode_response(i, &Ok(m.clone())))
                })
                .collect::<Vec<String>>()
        });
        encode.push(per_line(d, encoded.len()));
        let (_, d) = timed(|| {
            for l in &encoded {
                assert!(black_box(serve::verify_sealed(l)), "fresh encodings verify");
            }
        });
        verify.push(per_line(d, encoded.len()));
    }
    o.put("serve.parse_us", &parse);
    o.put("serve.encode_us", &encode);
    o.put("serve.verify_us", &verify);
}

/// The persistence probe's child process: one `Orchestrator::load` of
/// `dir/measurements.jsonl` and one `Orchestrator::save` of what it read,
/// in a fresh process as `repro` pays them (the first load in a process
/// costs more than later ones).
pub fn persist_child(dir: &Path) -> std::io::Result<()> {
    let orch = Orchestrator::new();
    let (records, load) = timed(|| orch.load(&dir.join("measurements.jsonl")));
    let (saved, save) = timed(|| orch.save(&dir.join("saved.jsonl")));
    saved?;
    println!(
        "records {}\nload_us {}\nsave_us {}",
        records?,
        us(load),
        us(save)
    );
    Ok(())
}

/// Times `Orchestrator::load` and `Orchestrator::save` of the results file
/// `dir/measurements.jsonl`, each in fresh child processes; reports the
/// medians and the record count.
pub fn persistence(dir: &Path, o: &mut Outcome) -> std::io::Result<()> {
    let (mut load, mut save) = (Vec::new(), Vec::new());
    let mut records = 0.0;
    for _ in 0..REPS {
        let out = Command::new(std::env::current_exe()?)
            .args(["--child", "persist", "--work"])
            .arg(dir)
            .output()?;
        let text = String::from_utf8_lossy(&out.stdout);
        let kv: BTreeMap<&str, f64> = text
            .lines()
            .filter_map(|l| l.split_once(' '))
            .filter_map(|(k, v)| Some((k, v.parse().ok()?)))
            .collect();
        let (Some(r), Some(l), Some(s), true) = (
            kv.get("records"),
            kv.get("load_us"),
            kv.get("save_us"),
            out.status.success(),
        ) else {
            return Err(std::io::Error::other("persistence probe child failed"));
        };
        records = *r;
        load.push(l / 1e3);
        save.push(s / 1e3);
    }
    o.put("orchestrator.load_ms", &load);
    o.put("orchestrator.save_ms", &save);
    o.put_value("orchestrator.records", records);
    Ok(())
}
