//! Micro-benchmarks of the simulator's hot loops: simulated-memory access,
//! cache way scans, and the simulator with and without attribution, as a
//! lockstep group of the three paper machines, and on the per-instruction
//! oracle. `scripts/bench.sh` runs this executable for
//! the parent commit and the change in alternating rounds and guards
//! `simulate-unprofiled`, the number every simulated measurement's time
//! hangs on.

use biaslab_toolchain::codegen::compile;
use biaslab_toolchain::layout::{DATA_BASE, DATA_MAX, STACK_TOP};
use biaslab_toolchain::link::{Executable, Linker};
use biaslab_toolchain::load::{Environment, Loader};
use biaslab_toolchain::mem::{PagedMem, RegionMem};
use biaslab_toolchain::opt::{optimize, OptLevel};
use biaslab_uarch::cache::{Cache, CacheConfig};
use biaslab_uarch::{KernelMode, Machine, MachineConfig};
use biaslab_workloads::benchmark_by_name;
use criterion::{criterion_group, criterion_main, Criterion};

fn configured() -> Criterion {
    // The harness reports the fastest of `sample_size` iterations; 150
    // samples keep that minimum stable against interference bursts on a
    // shared host while the whole suite stays under a second.
    Criterion::default().sample_size(150)
}

/// hmmer at O2, linked in declaration order: the image every simulator
/// bench runs.
fn hmmer() -> Executable {
    let module = benchmark_by_name("hmmer").expect("known").module().clone();
    let cm = compile(&optimize(&module, OptLevel::O2), OptLevel::O2);
    Linker::new().link(&cm, "main").expect("links")
}

fn bench_mem(c: &mut Criterion) {
    // Block dispatch's memory, built from a loaded process's pages the
    // way `Machine::run` builds it.
    let exe = hmmer();
    let region_mem = || {
        let process = Loader::new()
            .load(&exe, &Environment::new(), &[2])
            .expect("loads");
        RegionMem::from(process.mem)
    };

    // Sequential word traffic on one page of the data region.
    c.bench_function("mem-seq-u32-rw", |b| {
        let mut mem = region_mem();
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..1024u32 {
                mem.write_le(DATA_BASE + i * 4, 4, u64::from(i));
                acc = acc.wrapping_add(mem.read_le(DATA_BASE + i * 4, 4));
            }
            std::hint::black_box(acc)
        })
    });

    // Strided traffic across the data segment's pages and the stack: each
    // access touches another page, and the first round grows both regions.
    c.bench_function("mem-page-stride-rw", |b| {
        let mut mem = region_mem();
        let stride = DATA_MAX / 256;
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..256u32 {
                let addr = DATA_BASE + i * stride;
                mem.write_le(addr, 8, u64::from(i));
                acc = acc.wrapping_add(mem.read_le(addr, 8));
                acc = acc.wrapping_add(mem.read_le(STACK_TOP - 0x1_0000 + i * 8, 8));
            }
            std::hint::black_box(acc)
        })
    });

    // Fresh process image at stack height: the loader's page mapping must
    // stay cheap.
    c.bench_function("mem-fresh-image", |b| {
        b.iter(|| {
            let mut mem = PagedMem::new();
            mem.write_u64(0x7FFE_FFF0, 1);
            mem.write_u64(0x0040_0000, 2);
            std::hint::black_box(mem.mapped_pages())
        })
    });
}

fn bench_cache(c: &mut Criterion) {
    // A conflict-heavy scan: hits and LRU evictions in one loop.
    c.bench_function("cache-way-scan", |b| {
        let mut cache = Cache::new(CacheConfig {
            size: 32 * 1024,
            ways: 8,
            line: 64,
            hit_latency: 3,
        });
        b.iter(|| {
            let mut hits = 0u32;
            for i in 0..4096u32 {
                hits += u32::from(cache.access(i * 64 * 7));
            }
            std::hint::black_box(hits)
        })
    });
}

fn bench_machine(c: &mut Criterion) {
    let exe = hmmer();
    let env = Environment::new();

    // The unprofiled run: attribution bookkeeping compiled out.
    c.bench_function("simulate-unprofiled", |b| {
        b.iter(|| {
            let process = Loader::new().load(&exe, &env, &[2]).expect("loads");
            let mut machine = Machine::new(MachineConfig::core2());
            std::hint::black_box(machine.run(&exe, process).expect("runs"))
        })
    });

    // The three paper machines driven by one functional pass.
    let group = || {
        let process = Loader::new().load(&exe, &env, &[2]).expect("loads");
        let mut machines: Vec<Machine> =
            MachineConfig::all().into_iter().map(Machine::new).collect();
        std::hint::black_box(Machine::run_group(&mut machines, &exe, process).expect("runs"))
    };
    c.bench_function("simulate-group", |b| b.iter(group));

    // The group's speed over its members run one by one: the three solo
    // medians, summed, over the group's median, from 101 alternating
    // rounds of the three solo runs and the group.
    let solo = |config: &MachineConfig| {
        let process = Loader::new().load(&exe, &env, &[2]).expect("loads");
        let mut machine = Machine::new(config.clone());
        std::hint::black_box(machine.run(&exe, process).expect("runs"))
    };
    let configs = MachineConfig::all();
    let mut times = vec![Vec::new(); configs.len() + 1];
    for _ in 0..101 {
        for (side, config) in configs.iter().enumerate() {
            let start = std::time::Instant::now();
            solo(config);
            times[side].push(start.elapsed());
        }
        let start = std::time::Instant::now();
        group();
        times[configs.len()].push(start.elapsed());
    }
    let medians: Vec<f64> = times
        .into_iter()
        .map(|mut t| {
            t.sort_unstable();
            t[t.len() / 2].as_secs_f64()
        })
        .collect();
    let (solos, grouped) = medians.split_at(configs.len());
    println!(
        "stat group-over-solo {:.3}",
        solos.iter().sum::<f64>() / grouped[0]
    );

    // The profiled run pays for one attribution record per block.
    c.bench_function("simulate-profiled", |b| {
        b.iter(|| {
            let process = Loader::new().load(&exe, &env, &[2]).expect("loads");
            let mut machine = Machine::new(MachineConfig::core2());
            std::hint::black_box(machine.run_profiled(&exe, process).expect("runs"))
        })
    });

    // The per-instruction oracle that block dispatch is tested against.
    let run_on = |kernel: KernelMode| {
        let process = Loader::new().load(&exe, &env, &[2]).expect("loads");
        let mut machine = Machine::with_kernel(MachineConfig::core2(), kernel);
        std::hint::black_box(machine.run(&exe, process).expect("runs"))
    };
    c.bench_function("simulate-oracle", |b| {
        b.iter(|| run_on(KernelMode::Collapsed))
    });

    // Block dispatch's speed over the oracle: the oracle's median time
    // over block dispatch's, from 101 alternating pairs of runs.
    let mut times = [Vec::new(), Vec::new()];
    for _ in 0..101 {
        for (side, kernel) in [KernelMode::Block, KernelMode::Collapsed]
            .into_iter()
            .enumerate()
        {
            let start = std::time::Instant::now();
            run_on(kernel);
            times[side].push(start.elapsed());
        }
    }
    let [block, oracle] = times.map(|mut t| {
        t.sort_unstable();
        t[t.len() / 2].as_secs_f64()
    });
    println!("stat block-over-oracle {:.3}", oracle / block);

    // Block-cache behaviour over one run, printed beside the timings
    // (`stat` lines are counts, not microseconds).
    let process = Loader::new().load(&exe, &env, &[2]).expect("loads");
    let mut machine = Machine::new(MachineConfig::core2());
    machine.run(&exe, process).expect("runs");
    let stats = machine.block_stats();
    let dispatches = stats.hits + stats.misses;
    println!("stat blockcache-hits {}", stats.hits);
    println!("stat blockcache-misses {}", stats.misses);
    println!("stat blockcache-blocks-live {}", machine.blocks_live());
    if dispatches > 0 {
        #[allow(clippy::cast_precision_loss)]
        let rate = stats.hits as f64 / dispatches as f64;
        println!("stat blockcache-hit-rate {rate:.4}");
    }
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_mem, bench_cache, bench_machine
}
criterion_main!(benches);
