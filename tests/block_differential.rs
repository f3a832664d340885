//! Differential test for the basic-block dispatch path: block-at-a-time
//! execution must produce bit-identical [`Counters`], checksums and
//! profiles against the per-instruction oracle ([`KernelMode::Collapsed`]),
//! on every machine model, with and without attribution, across warm
//! repetitions and across the layout factors the experiments vary — and
//! so must every member of a lockstep group ([`Machine::run_group`]),
//! where one functional pass drives several machines.
//!
//! The block cache hoists static counter sums to block entry, pre-decodes
//! bodies to uops, replays fetch crossings per I-cache line from a
//! precomputed table and runs on flat data and stack regions — every one
//! of those rewrites is licensed only by this test: if any counter moves,
//! the "optimization" is a measurement-bias generator.

use biaslab_core::harness::Harness;
use biaslab_core::setup::{ExperimentSetup, LinkOrder};
use biaslab_isa::{Cond, Width};
use biaslab_toolchain::codegen::compile;
use biaslab_toolchain::interp::Interpreter;
use biaslab_toolchain::ir::Global;
use biaslab_toolchain::link::{Executable, Linker};
use biaslab_toolchain::load::{Environment, Loader, Process};
use biaslab_toolchain::opt::optimize;
use biaslab_toolchain::{Module, ModuleBuilder, OptLevel};
use biaslab_uarch::{KernelMode, Machine, MachineConfig, RunError, RunResult};
use biaslab_workloads::{benchmark_by_name, suite, InputSize};

/// Runs `setup` at the test input size on a machine pinned to `mode`.
fn run_setup(h: &Harness, setup: &ExperimentSetup, mode: KernelMode) -> RunResult {
    let names = h.object_names();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let order = setup.link_order.resolve(&name_refs);
    let exe = h
        .executable(setup.opt, &order, setup.text_offset)
        .unwrap_or_else(|e| panic!("{}: {e}", h.benchmark().name()));
    let process = Loader::new()
        .stack_shift(setup.stack_shift)
        .load(&exe, &setup.env, h.benchmark().args(InputSize::Test))
        .unwrap_or_else(|e| panic!("{}: {e}", h.benchmark().name()));
    Machine::with_kernel(setup.machine.clone(), mode)
        .run(&exe, process)
        .unwrap_or_else(|e| panic!("{}/{}: {e}", h.benchmark().name(), setup.summary()))
}

fn run_with(h: &Harness, machine: &MachineConfig, mode: KernelMode) -> RunResult {
    run_setup(
        h,
        &ExperimentSetup::default_on(machine.clone(), OptLevel::O2),
        mode,
    )
}

#[test]
fn block_dispatch_reproduces_the_reference_kernel_bit_for_bit() {
    // Every benchmark against a rotating machine model (the full 72-row
    // cross product lives in the golden sweep, which runs the block path
    // already): block dispatch and the per-instruction oracle must agree
    // exactly.
    for (i, bench) in suite().into_iter().enumerate() {
        let h = Harness::new(bench);
        let machines = MachineConfig::all();
        let machine = &machines[i % machines.len()];
        let block = run_with(&h, machine, KernelMode::Block);
        let interp = run_with(&h, machine, KernelMode::Collapsed);
        assert_eq!(
            block.counters,
            interp.counters,
            "{}/{}: block vs interpreted counters disagree",
            h.benchmark().name(),
            machine.name
        );
        assert_eq!(block.checksum, interp.checksum);
        assert_eq!(block.return_value, interp.return_value);
    }
}

#[test]
fn block_dispatch_matches_the_oracle_across_layouts() {
    // fig1's quick grid (perlbench on core2 at O2 and O3, environments of
    // 0, 112, ..., 1232 bytes, built as `env_points` builds them), plus
    // one setup per machine that moves code and stack at once: a random
    // link order, a text offset and a stack shift. `Harness::measure`,
    // the path `repro` takes, must agree with both.
    let h = Harness::new(benchmark_by_name("perlbench").expect("known benchmark"));
    let mut setups = Vec::new();
    for opt in [OptLevel::O2, OptLevel::O3] {
        let base = ExperimentSetup::default_on(MachineConfig::core2(), opt);
        for i in 0..12u32 {
            let bytes = i * 112;
            let env = if bytes < 23 {
                Environment::new()
            } else {
                Environment::of_total_size(bytes)
            };
            setups.push(base.with_env(env));
        }
    }
    for (i, machine) in (1u32..).zip(MachineConfig::all()) {
        setups.push(ExperimentSetup {
            link_order: LinkOrder::Random(u64::from(10 + i)),
            text_offset: 36 * i,
            stack_shift: 40 * i,
            ..ExperimentSetup::default_on(machine, OptLevel::O3)
        });
    }
    for setup in &setups {
        let block = run_setup(&h, setup, KernelMode::Block);
        let oracle = run_setup(&h, setup, KernelMode::Collapsed);
        assert_eq!(block, oracle, "{}: block vs oracle", setup.summary());
        let measured = h.measure(setup, InputSize::Test).expect("measures");
        assert_eq!(
            measured.counters,
            block.counters,
            "{}: Harness::measure disagrees with the direct run",
            setup.summary()
        );
    }
}

#[test]
fn block_dispatch_profiles_identically_to_the_interpreter() {
    // Attribution accrues per block on the block path (one span per
    // block, deltas telescoping over the body) and per instruction on the
    // interpreted path; on every benchmark and machine the resulting
    // profiles must be the same object.
    for bench in suite() {
        let h = Harness::new(bench);
        let name = h.benchmark().name();
        let order: Vec<usize> = (0..h.object_names().len()).collect();
        let exe = h.executable(OptLevel::O2, &order, 0).expect("links");
        let load = || {
            Loader::new()
                .load(
                    &exe,
                    &Environment::new(),
                    h.benchmark().args(InputSize::Test),
                )
                .expect("loads")
        };
        for machine in MachineConfig::all() {
            let mut block = Machine::with_kernel(machine.clone(), KernelMode::Block);
            let (block_result, block_profile) = block.run_profiled(&exe, load()).expect("runs");
            let mut interp = Machine::with_kernel(machine.clone(), KernelMode::Collapsed);
            let (interp_result, interp_profile) = interp.run_profiled(&exe, load()).expect("runs");
            assert_eq!(
                block_result, interp_result,
                "{name}/{}: profiled run results disagree",
                machine.name
            );
            assert_eq!(
                block_profile, interp_profile,
                "{name}/{}: profiles disagree",
                machine.name
            );
            // Profiling itself must not perturb the block path's counters.
            let mut plain = Machine::with_kernel(machine.clone(), KernelMode::Block);
            let plain_result = plain.run(&exe, load()).expect("runs");
            assert_eq!(
                block_result, plain_result,
                "{name}/{}: attribution changed block-path counters",
                machine.name
            );
        }
    }
}

#[test]
fn warm_repetitions_match_the_oracle() {
    // Machine state (caches, predictors, bank history) persists across
    // runs; the decoded-block cache additionally persists on the block
    // path and must stay timing-invisible: every repetition must agree
    // with the per-instruction oracle, warm hits included.
    let bench = suite().into_iter().next().expect("non-empty suite");
    let h = Harness::new(bench);
    let order: Vec<usize> = (0..h.object_names().len()).collect();
    let exe = h.executable(OptLevel::O2, &order, 0).expect("links");
    let reps = 3;
    let mut per_mode = Vec::new();
    for mode in [KernelMode::Block, KernelMode::Collapsed] {
        let mut m = Machine::with_kernel(MachineConfig::o3cpu(), mode);
        let mut runs = Vec::new();
        for _ in 0..reps {
            let process = Loader::new()
                .load(
                    &exe,
                    &Environment::new(),
                    h.benchmark().args(InputSize::Test),
                )
                .expect("loads");
            runs.push(m.run(&exe, process).expect("runs"));
        }
        per_mode.push(runs);
    }
    assert_eq!(
        per_mode[0], per_mode[1],
        "block vs interpreted warm repetitions diverged"
    );
    assert!(
        per_mode[0][1].counters.cycles <= per_mode[0][0].counters.cycles,
        "second repetition should not be colder than the first"
    );
}

/// Runs `passes` processes from `load` on one lockstep group of `configs`
/// and, member by member, on the per-instruction oracle of the same
/// machine, each kept warm across passes like the group: every member's
/// result must equal its oracle's.
fn check_group(
    what: &str,
    exe: &Executable,
    load: &dyn Fn() -> Process,
    configs: &[MachineConfig],
    passes: usize,
) {
    let mut group: Vec<Machine> = configs.iter().cloned().map(Machine::new).collect();
    let mut oracles: Vec<Machine> = configs
        .iter()
        .map(|c| Machine::with_kernel(c.clone(), KernelMode::Collapsed))
        .collect();
    let names: Vec<&str> = configs.iter().map(|c| c.name.as_str()).collect();
    for pass in 0..passes {
        let grouped = Machine::run_group(&mut group, exe, load())
            .unwrap_or_else(|e| panic!("{what}: group {names:?}: {e}"));
        assert_eq!(grouped.len(), configs.len());
        for ((oracle, got), name) in oracles.iter_mut().zip(&grouped).zip(&names) {
            let want = oracle.run(exe, load()).expect("runs");
            assert_eq!(
                got, &want,
                "{what}, pass {pass}: {name} in group {names:?} vs its oracle"
            );
        }
    }
}

/// Loads `setup`'s process for `exe` at the test input size.
fn load_setup(h: &Harness, setup: &ExperimentSetup, exe: &Executable) -> Process {
    Loader::new()
        .stack_shift(setup.stack_shift)
        .load(exe, &setup.env, h.benchmark().args(InputSize::Test))
        .unwrap_or_else(|e| panic!("{}: {e}", h.benchmark().name()))
}

/// Three machines whose I-cache lines and fetch windows all differ, the
/// widest line first (the paper machines share 64-byte lines, so their
/// blocks keep their line crossings at the same instructions, and a
/// narrower line's crossings include a wider one's).
fn unlike_front_ends() -> Vec<MachineConfig> {
    let mut narrow = MachineConfig {
        name: "narrow".into(),
        fetch_bytes: 8,
        ..MachineConfig::o3cpu()
    };
    narrow.l1i.line = 32;
    let mut wide = MachineConfig {
        name: "wide".into(),
        fetch_bytes: 64,
        ..MachineConfig::core2()
    };
    wide.l1i.line = 128;
    vec![wide, MachineConfig::pentium4(), narrow]
}

#[test]
fn lockstep_groups_match_the_oracle_on_every_benchmark() {
    // Every benchmark at O2 and O3 in a group of all three machines, and
    // in one of four more shapes in rotation: two machines, one, one
    // configuration twice, and three whose fetch tables differ. Alternate
    // pairs make a warm second pass on the same machines.
    let all = MachineConfig::all();
    let shapes = [
        vec![all[1].clone(), all[2].clone()],
        vec![all[0].clone()],
        vec![all[2].clone(), all[2].clone()],
        unlike_front_ends(),
    ];
    for (i, bench) in suite().into_iter().enumerate() {
        let h = Harness::new(bench);
        for (j, opt) in [OptLevel::O2, OptLevel::O3].into_iter().enumerate() {
            let setup = ExperimentSetup::default_on(all[0].clone(), opt);
            let exe = h.link(&setup).expect("links");
            let load = || load_setup(&h, &setup, &exe);
            let what = format!("{}/{opt}", h.benchmark().name());
            let passes = 1 + (i + j) % 2;
            check_group(&what, &exe, &load, &all, passes);
            check_group(&what, &exe, &load, &shapes[(i + j) % shapes.len()], passes);
        }
    }
}

#[test]
fn lockstep_groups_match_the_oracle_across_a_moved_layout() {
    // A random link order, a text offset and a stack shift move code and
    // stack at once; the group runs cold, then warm.
    let h = Harness::new(benchmark_by_name("perlbench").expect("known benchmark"));
    let setup = ExperimentSetup {
        link_order: LinkOrder::Random(23),
        text_offset: 76,
        stack_shift: 120,
        ..ExperimentSetup::default_on(MachineConfig::core2(), OptLevel::O3)
    };
    let exe = h.link(&setup).expect("links");
    let load = || load_setup(&h, &setup, &exe);
    check_group("perlbench moved", &exe, &load, &MachineConfig::all(), 2);
    check_group("perlbench moved", &exe, &load, &unlike_front_ends(), 2);
}

#[test]
fn lockstep_groups_match_the_oracle_on_the_ablation_machines() {
    // Two groups the quick suite forms that mix no paper machines:
    // abl-machine's first, o3cpu with 1-, 2- and 4-way L1Ds, and
    // abl-prefetch's, o3cpu with next-line prefetch off and on (no preset
    // enables prefetch).
    let ways: Vec<MachineConfig> = [1, 2, 4]
        .into_iter()
        .map(|ways| {
            let mut machine = MachineConfig {
                name: format!("o3cpu-{ways}way"),
                ..MachineConfig::o3cpu()
            };
            machine.l1d.ways = ways;
            machine
        })
        .collect();
    let prefetch: Vec<MachineConfig> = [false, true]
        .into_iter()
        .map(|on| MachineConfig {
            name: if on { "o3cpu+pf" } else { "o3cpu" }.into(),
            l1d_next_line_prefetch: on,
            ..MachineConfig::o3cpu()
        })
        .collect();
    for name in ["perlbench", "mcf"] {
        let h = Harness::new(benchmark_by_name(name).expect("known benchmark"));
        for opt in [OptLevel::O2, OptLevel::O3] {
            let setup = ExperimentSetup::default_on(MachineConfig::o3cpu(), opt);
            let exe = h.link(&setup).expect("links");
            let load = || load_setup(&h, &setup, &exe);
            let what = format!("{name}/{opt}");
            check_group(&what, &exe, &load, &ways, 1);
            check_group(&what, &exe, &load, &prefetch, 1);
        }
    }
}

/// A module whose `main` loads and sums `loads` words of a 40-word table,
/// `stride` words apart from the first, in one straight line of code, then,
/// when `loop_after`, spins forever.
fn straight_line_program(loads: i32, stride: i32, loop_after: bool) -> Module {
    let words: Vec<u64> = (1..=40).collect();
    let mut mb = ModuleBuilder::new();
    let table = mb.global(Global::from_words("table", &words));
    mb.function("main", 0, true, |fb| {
        let g = fb.addr_global(table);
        let mut acc = fb.load(Width::B8, g, 0);
        for k in 1..loads {
            let v = fb.load(Width::B8, g, 8 * stride * k);
            acc = fb.add(acc, v);
        }
        fb.chk(acc);
        if loop_after {
            let spin = fb.new_block();
            fb.jump(spin);
            fb.switch_to(spin);
            fb.jump(spin);
        } else {
            fb.ret(Some(acc));
        }
    });
    mb.finish().expect("verifies")
}

#[test]
fn a_budget_that_trips_mid_block_leaves_every_member_as_a_solo_run_does() {
    // The first program's entry block is one straight line of 40 loads
    // and adds, across several I-cache lines and all five of the table's
    // 64-byte lines, and every budget from 20 to 84 trips inside it on its
    // first, cold pass, where the executor walks only the instructions
    // before the trip point. The error must be each solo run's, and so
    // must the warm state left behind: a short probe, laid out from the
    // same text and data addresses, halting within every budget and
    // loading one word from each of the table's lines, must give each
    // tripped member the counters it gives a tripped solo machine and the
    // tripped oracle. A load too many or too few before the trip point
    // leaves a line cached or not, and the probe's misses show it.
    let link = |module: &Module| {
        Linker::new()
            .link(
                &compile(&optimize(module, OptLevel::O2), OptLevel::O2),
                "main",
            )
            .expect("links")
    };
    let long = link(&straight_line_program(40, 1, true));
    let probe = link(&straight_line_program(5, 8, false));
    let load = |exe: &Executable| {
        Loader::new()
            .load(exe, &Environment::new(), &[])
            .expect("loads")
    };
    for budget in 20..=84 {
        let configs: Vec<MachineConfig> = MachineConfig::all()
            .into_iter()
            .map(|c| MachineConfig {
                max_instructions: budget,
                ..c
            })
            .collect();
        let mut group: Vec<Machine> = configs.iter().cloned().map(Machine::new).collect();
        let tripped = Machine::run_group(&mut group, &long, load(&long));
        assert_eq!(tripped, Err(RunError::Budget(budget)));
        let warm = Machine::run_group(&mut group, &probe, load(&probe)).expect("halts in budget");
        for (config, got) in configs.iter().zip(&warm) {
            for kernel in [KernelMode::Block, KernelMode::Collapsed] {
                let mut solo = Machine::with_kernel(config.clone(), kernel);
                assert_eq!(solo.run(&long, load(&long)), Err(RunError::Budget(budget)));
                let want = solo.run(&probe, load(&probe)).expect("halts in budget");
                assert_eq!(
                    got, &want,
                    "budget {budget}: {} after the trip vs {kernel:?} alone",
                    config.name
                );
            }
        }
    }
}

/// Runs `main` of `module` through the IR interpreter, then, compiled at
/// `level`, on every machine through the oracle and block dispatch, alone
/// and as one lockstep group. All must agree on the checksum and return
/// value, and block dispatch must match the oracle on every counter.
/// Returns the oracle's runs.
fn run_three_ways(module: &Module, level: OptLevel) -> Vec<RunResult> {
    let reference = Interpreter::new(module)
        .call_by_name("main", &[])
        .expect("interprets");
    let exe = Linker::new()
        .link(&compile(&optimize(module, level), level), "main")
        .expect("links");
    let load = || {
        Loader::new()
            .load(&exe, &Environment::new(), &[])
            .expect("loads")
    };
    check_group(&format!("{level}"), &exe, &load, &MachineConfig::all(), 1);
    let mut oracles = Vec::new();
    for machine in MachineConfig::all() {
        let run = |mode: KernelMode| {
            let process = Loader::new()
                .load(&exe, &Environment::new(), &[])
                .expect("loads");
            Machine::with_kernel(machine.clone(), mode)
                .run(&exe, process)
                .expect("runs")
        };
        let block = run(KernelMode::Block);
        let oracle = run(KernelMode::Collapsed);
        assert_eq!(block, oracle, "{}/{level}: block vs oracle", machine.name);
        assert_eq!(
            oracle.checksum, reference.checksum,
            "{}/{level}: machine vs interpreter checksum",
            machine.name
        );
        assert_eq!(Some(oracle.return_value), reference.return_value);
        oracles.push(oracle);
    }
    oracles
}

#[test]
fn accesses_that_wrap_past_the_top_of_memory_match_the_oracle() {
    // A load, a store and a load of 8 bytes at 0xFFFF_FFFC: each covers
    // the top 4 bytes of the address space and wraps to address 0.
    let mut mb = ModuleBuilder::new();
    mb.function("main", 0, true, |fb| {
        let top = fb.const_(0xFFFF_FFFC);
        let before = fb.load(Width::B8, top, 0);
        fb.chk(before);
        let v = fb.const_(0x0123_4567_89AB_CDEF);
        fb.store(Width::B8, top, 0, v);
        let after = fb.load(Width::B8, top, 0);
        fb.chk(after);
        fb.ret(Some(after));
    });
    let module = mb.finish().expect("verifies");
    for oracle in run_three_ways(&module, OptLevel::O0) {
        // Unoptimized, all three accesses remain, and each one splits a
        // line and a page.
        assert_eq!(oracle.counters.line_splits, 3);
        assert_eq!(oracle.counters.page_splits, 3);
    }
    run_three_ways(&module, OptLevel::O2);
}

#[test]
fn deep_recursion_and_writes_past_the_data_image_match_the_oracle() {
    // `rec` keeps a 512-byte buffer in each of 121 frames, so the stack
    // grows well below the environment's page; `main` writes and reads 8
    // bytes straddling a page boundary past its 32-byte data image, and
    // reads bytes of the data segment nothing wrote.
    let mut mb = ModuleBuilder::new();
    let table = mb.global(Global::from_words("table", &[3, 5, 7, 11]));
    let rec = mb.declare("rec", 1, true);
    mb.define(rec, |fb| {
        let n = fb.param(0);
        let buf = fb.local_buffer(512);
        let result = fb.local_scalar();
        let nv = fb.get(n);
        let base = fb.addr(buf);
        fb.store(Width::B8, base, 504, nv);
        let zero = fb.const_(0);
        fb.if_then_else(
            Cond::Eq,
            nv,
            zero,
            |fb| {
                let z = fb.const_(0);
                fb.set(result, z);
            },
            |fb| {
                let nv = fb.get(n);
                let m = fb.add_imm(nv, -1);
                let below = fb.call(rec, &[m]);
                let base = fb.addr(buf);
                let saved = fb.load(Width::B8, base, 504);
                let sum = fb.add(below, saved);
                fb.set(result, sum);
            },
        );
        let r = fb.get(result);
        fb.ret(Some(r));
    });
    mb.function("main", 0, true, |fb| {
        let g = fb.addr_global(table);
        let v = fb.const_(0xA5A5_5A5A_0102_0304);
        fb.store(Width::B8, g, 3 * 4096 - 4, v);
        let back = fb.load(Width::B8, g, 3 * 4096 - 4);
        fb.chk(back);
        let unwritten = fb.load(Width::B8, g, 64);
        fb.chk(unwritten);
        let depth = fb.const_(120);
        let sum = fb.call(rec, &[depth]);
        fb.chk(sum);
        fb.ret(Some(sum));
    });
    let module = mb.finish().expect("verifies");
    for level in [OptLevel::O0, OptLevel::O2] {
        for oracle in run_three_ways(&module, level) {
            assert_eq!(oracle.return_value, 120 * 121 / 2);
        }
    }
}
