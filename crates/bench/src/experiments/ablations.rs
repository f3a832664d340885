//! Ablations: design-choice studies this reproduction adds on top of the
//! paper's figures (see DESIGN.md §5).

use std::fmt::Write as _;

use biaslab_core::bias::sweep_factor;
use biaslab_core::report::Table;
use biaslab_core::stats::Summary;
use biaslab_toolchain::OptLevel;
use biaslab_uarch::MachineConfig;

use super::{base_setup, env_points, harness, link_figs_orders, Effort};

/// `abl-align`: does the optimization level's code alignment (4/16/32
/// bytes) mask or amplify link-order sensitivity? Measured as the spread
/// of raw cycles across link orders at each level.
pub(crate) fn abl_align(effort: Effort) -> String {
    let h = harness("perlbench");
    let orders = link_figs_orders(effort.points(17));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "abl-align: link-order cycle spread per optimization level (core2)\n"
    );
    let mut table = Table::new(vec![
        "level",
        "align",
        "min-cycles",
        "max-cycles",
        "spread%",
    ]);
    for level in OptLevel::ALL {
        let base = base_setup(MachineConfig::core2(), level);
        let setups: Vec<_> = orders.iter().map(|&o| base.with_link_order(o)).collect();
        let results = biaslab_core::Orchestrator::global().sweep(&h, &setups, effort.input());
        let cycles: Vec<f64> = results
            .into_iter()
            .map(|r| r.expect("verified").cycles() as f64)
            .collect();
        let s = Summary::of(&cycles);
        table.row(vec![
            level.to_string(),
            format!("{}", level.function_align()),
            format!("{:.0}", s.min),
            format!("{:.0}", s.max),
            format!("{:.3}", 100.0 * (s.max / s.min - 1.0)),
        ]);
    }
    let _ = write!(out, "{table}");
    let _ = writeln!(
        out,
        "\nReading: coarser alignment quantizes function placement, changing \
         (not eliminating) which predictor/cache aliasing a link order lands on."
    );
    out
}

/// `abl-aslr`: does a random text-base offset (ASLR for code) behave like
/// an environment-size randomization for the stack? Compares the two
/// factors' bias on the same benchmark.
pub(crate) fn abl_aslr(effort: Effort) -> String {
    let h = harness("perlbench");
    let base = base_setup(MachineConfig::core2(), OptLevel::O2);
    let n = effort.points(24);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "abl-aslr: code-offset vs environment-size bias (perlbench, core2)\n"
    );

    // Environment sweep.
    let envs = env_points(n, 176);
    let env_setups: Vec<_> = envs.iter().map(|e| base.with_env(e.clone())).collect();
    let env_report = sweep_factor(
        &h,
        "environment size",
        &env_setups,
        OptLevel::O2,
        OptLevel::O3,
        effort.input(),
    )
    .expect("sweep succeeds");

    // Text-offset sweep (the linker intervention, in page-fraction steps).
    let text_setups: Vec<_> = (0..n as u32)
        .map(|i| {
            let mut s = base.clone();
            s.text_offset = i * 64;
            s
        })
        .collect();
    let text_report = sweep_factor(
        &h,
        "text offset",
        &text_setups,
        OptLevel::O2,
        OptLevel::O3,
        effort.input(),
    )
    .expect("sweep succeeds");

    let mut table = Table::new(vec!["factor", "min", "max", "bias%", "flips"]);
    for r in [&env_report, &text_report] {
        table.row(vec![
            r.factor.clone(),
            format!("{:.4}", r.violin.min()),
            format!("{:.4}", r.violin.max()),
            format!("{:.3}", 100.0 * r.bias_magnitude),
            format!("{}", r.conclusion_flips),
        ]);
    }
    let _ = write!(out, "{table}");
    let _ = writeln!(
        out,
        "\nReading: randomizing either address-space placement knob exposes \
         bias; a sound evaluation randomizes both (what ASLR does for free, \
         and what setup randomization does deliberately)."
    );
    out
}

/// `abl-machine`: bias magnitude as the L1D associativity shrinks — layout
/// conflicts are absorbed by high associativity and exposed by low.
pub(crate) fn abl_machine(effort: Effort) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "abl-machine: env-size bias vs L1D associativity (perlbench)\n"
    );
    let n = effort.points(16);
    let envs = env_points(n, 256);
    let mut table = Table::new(vec!["l1d-ways", "min", "max", "bias%"]);
    for ways in [1u32, 2, 4, 8] {
        let mut machine = MachineConfig::o3cpu();
        machine.name = format!("o3cpu-{ways}way");
        machine.l1d.ways = ways;
        let h = harness("perlbench");
        let base = base_setup(machine, OptLevel::O2);
        let setups: Vec<_> = envs.iter().map(|e| base.with_env(e.clone())).collect();
        let report = sweep_factor(
            &h,
            "environment size",
            &setups,
            OptLevel::O2,
            OptLevel::O3,
            effort.input(),
        )
        .expect("sweep succeeds");
        table.row(vec![
            format!("{ways}"),
            format!("{:.4}", report.violin.min()),
            format!("{:.4}", report.violin.max()),
            format!("{:.3}", 100.0 * report.bias_magnitude),
        ]);
    }
    let _ = write!(out, "{table}");
    out
}

/// `abl-warmup`: cold-start vs steady-state measurement — how much of a
/// run is warm-up transient, and does warm-up change the O3 conclusion?
pub(crate) fn abl_warmup(effort: Effort) -> String {
    use biaslab_core::harness::CachePolicy;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "abl-warmup: cold vs warm repetitions (core2)
"
    );
    let mut table = Table::new(vec![
        "benchmark",
        "cold-cycles",
        "warm-cycles",
        "warmup%",
        "speedup-cold",
        "speedup-warm",
    ]);
    for name in ["perlbench", "milc", "mcf"] {
        let h = harness(name);
        let mut row = vec![name.to_owned()];
        let mut speedups = Vec::new();
        for level in [OptLevel::O2, OptLevel::O3] {
            let setup = base_setup(MachineConfig::core2(), level);
            let reps = h
                .measure_repeated(&setup, effort.input(), 3, CachePolicy::Warm)
                .expect("repetitions run");
            let cold = reps[0].counters.cycles;
            let warm = reps[2].counters.cycles;
            if level == OptLevel::O2 {
                row.push(format!("{cold}"));
                row.push(format!("{warm}"));
                row.push(format!("{:.3}", 100.0 * (cold as f64 / warm as f64 - 1.0)));
            }
            speedups.push((cold, warm));
        }
        let (o2c, o2w) = speedups[0];
        let (o3c, o3w) = speedups[1];
        row.push(format!("{:.4}", o2c as f64 / o3c as f64));
        row.push(format!("{:.4}", o2w as f64 / o3w as f64));
        table.row(row);
    }
    let _ = write!(out, "{table}");
    let _ = writeln!(
        out,
        "
Reading: warm-up is a few percent here; cold/warm choice is one          more setup decision that belongs in the methodology section."
    );
    out
}

/// `abl-prefetch`: does a next-line L1D prefetcher (absent from the
/// recorded paper-machine presets) shrink the layout-conflict channel?
pub(crate) fn abl_prefetch(effort: Effort) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "abl-prefetch: env-size bias with and without next-line prefetch (o3cpu)
"
    );
    let n = effort.points(16);
    let envs = env_points(n, 176);
    let mut table = Table::new(vec!["prefetch", "benchmark", "min", "max", "bias%"]);
    for prefetch in [false, true] {
        let mut machine = MachineConfig::o3cpu();
        machine.name = if prefetch {
            "o3cpu+pf".into()
        } else {
            "o3cpu".into()
        };
        machine.l1d_next_line_prefetch = prefetch;
        for name in ["perlbench", "mcf"] {
            let h = harness(name);
            let base = base_setup(machine.clone(), OptLevel::O2);
            let setups: Vec<_> = envs.iter().map(|e| base.with_env(e.clone())).collect();
            let report = sweep_factor(
                &h,
                "environment size",
                &setups,
                OptLevel::O2,
                OptLevel::O3,
                effort.input(),
            )
            .expect("sweep succeeds");
            table.row(vec![
                if prefetch { "on".into() } else { "off".into() },
                name.to_owned(),
                format!("{:.4}", report.violin.min()),
                format!("{:.4}", report.violin.max()),
                format!("{:.3}", 100.0 * report.bias_magnitude),
            ]);
        }
    }
    let _ = write!(out, "{table}");
    let _ = writeln!(
        out,
        "
Reading: the dominant env-bias channel here is bank conflicts, which next-line prefetching cannot absorb — the bias survives a better memory system. (Prefetching does shift absolute cycle counts, which is why it is held fixed across the recorded figures.)"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abl_align_covers_all_levels() {
        let out = abl_align(Effort::Quick);
        for l in ["O0", "O1", "O2", "O3"] {
            assert!(out.contains(l));
        }
    }

    #[test]
    fn abl_warmup_reports_both_policies() {
        let out = abl_warmup(Effort::Quick);
        assert!(out.contains("warmup%"));
        assert!(out.contains("perlbench"));
    }

    #[test]
    fn abl_prefetch_compares_both_modes() {
        let out = abl_prefetch(Effort::Quick);
        assert!(out.contains("off"));
        assert!(out.contains("on"));
    }

    #[test]
    fn abl_machine_sweeps_associativity() {
        let out = abl_machine(Effort::Quick);
        assert!(out.contains("l1d-ways"));
        assert!(out.lines().count() > 5);
    }
}
