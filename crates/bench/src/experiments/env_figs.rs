//! Figures 1–4: the environment-size studies.

use std::fmt::Write as _;

use biaslab_core::report::{render_series, sparkline, Table};
use biaslab_core::stats::ViolinSummary;
use biaslab_toolchain::OptLevel;
use biaslab_uarch::MachineConfig;
use biaslab_workloads::benchmark_names;

use super::{base_setup, env_bias, env_points, harness, Effort};

/// Fig. 1 ®: raw perlbench cycle counts at O2 and O3 as the environment
/// grows — the plot that first reveals that an "inert" variable moves the
/// measurement.
pub(crate) fn fig1(effort: Effort) -> String {
    let h = harness("perlbench");
    let n = effort.points(48);
    let envs = env_points(n, 112);
    let mut out = String::new();
    let _ = writeln!(out, "fig1: perlbench cycles vs environment size (core2)\n");
    for opt in [OptLevel::O2, OptLevel::O3] {
        let base = base_setup(MachineConfig::core2(), opt);
        let setups: Vec<_> = envs.iter().map(|e| base.with_env(e.clone())).collect();
        let results = biaslab_core::Orchestrator::global().sweep(&h, &setups, effort.input());
        let mut points = Vec::with_capacity(n);
        for (env, r) in envs.iter().zip(results) {
            let m = r.expect("measurement verified");
            points.push((f64::from(env.stack_bytes()), m.cycles() as f64));
        }
        let cycles: Vec<f64> = points.iter().map(|p| p.1).collect();
        let min = cycles.iter().copied().fold(f64::INFINITY, f64::min);
        let max = cycles.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let _ = writeln!(
            out,
            "{opt}: cycles in [{min:.0}, {max:.0}]  spread {:.3}%  {}",
            100.0 * (max / min - 1.0),
            sparkline(&cycles)
        );
        out.push_str(&render_series(&format!("perlbench-{opt}-cycles"), &points));
    }
    out
}

/// Fig. 2 ®: the same sweep as Fig. 3 on every machine model — bias is not
/// a property of one microarchitecture. One sweep covers all three
/// machines, so each setup's runs on them share one functional pass.
pub(crate) fn fig2(effort: Effort) -> String {
    let n = effort.points(32);
    let envs = env_points(n, 176);
    let machines = MachineConfig::all();
    let reports = env_bias("perlbench", &machines, &envs, effort);
    let mut out = String::new();
    let _ = writeln!(out, "fig2: O3 speedup vs environment size, per machine\n");
    for (machine, report) in machines.iter().zip(&reports) {
        let speedups = report.speedups();
        let _ = writeln!(
            out,
            "{:9} speedup in [{:.4}, {:.4}]  bias {:.3}%  flips: {}  {}",
            machine.name,
            report.violin.min(),
            report.violin.max(),
            100.0 * report.bias_magnitude,
            report.conclusion_flips,
            sparkline(&speedups),
        );
        let points: Vec<(f64, f64)> = envs
            .iter()
            .map(|e| f64::from(e.stack_bytes()))
            .zip(speedups.iter().copied())
            .collect();
        out.push_str(&render_series(
            &format!("speedup-{}", machine.name),
            &points,
        ));
    }
    out
}

/// **Fig. 3** (the caption quoted in the source text): "The effect of UNIX
/// environment size on the speedup of O3 on Core 2."
pub(crate) fn fig3(effort: Effort) -> String {
    let n = effort.points(64);
    let envs = env_points(n, 56);
    let report = env_bias("perlbench", &[MachineConfig::core2()], &envs, effort).remove(0);

    let speedups = report.speedups();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fig3: the effect of UNIX environment size on the speedup of O3 on Core 2\n"
    );
    let _ = writeln!(
        out,
        "speedup range [{:.4}, {:.4}], bias magnitude {:.3}%, conclusion flips: {}",
        report.violin.min(),
        report.violin.max(),
        100.0 * report.bias_magnitude,
        report.conclusion_flips,
    );
    let _ = writeln!(out, "shape: {}\n", sparkline(&speedups));
    let points: Vec<(f64, f64)> = envs
        .iter()
        .map(|e| f64::from(e.stack_bytes()))
        .zip(speedups.iter().copied())
        .collect();
    out.push_str(&render_series("fig3-speedup-vs-env", &points));
    out
}

/// Fig. 4 ®: per-benchmark violins of the O3 speedup across environment
/// sizes — measurement bias is commonplace, not a perlbench quirk.
pub(crate) fn fig4(effort: Effort) -> String {
    let n = effort.points(24);
    let envs = env_points(n, 176);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fig4: O3 speedup across environment sizes, all benchmarks (core2)\n"
    );
    let mut table = Table::new(vec![
        "benchmark",
        "min",
        "p25",
        "median",
        "p75",
        "max",
        "bias%",
        "flips",
    ]);
    for name in benchmark_names() {
        let report = env_bias(name, &[MachineConfig::core2()], &envs, effort).remove(0);
        let v: &ViolinSummary = &report.violin;
        table.row(vec![
            name.to_owned(),
            format!("{:.4}", v.min()),
            format!("{:.4}", v.values[2]),
            format!("{:.4}", v.median()),
            format!("{:.4}", v.values[4]),
            format!("{:.4}", v.max()),
            format!("{:.3}", 100.0 * report.bias_magnitude),
            format!("{}", report.conclusion_flips),
        ]);
    }
    let _ = write!(out, "{table}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_quick_produces_series_and_stats() {
        let out = fig3(Effort::Quick);
        assert!(out.contains("fig3"));
        assert!(out.contains("speedup range"));
        assert!(out.contains("# series: fig3-speedup-vs-env"));
        // At least 3 sweep points serialized.
        assert!(out.lines().filter(|l| l.contains(',')).count() >= 3);
    }

    #[test]
    fn fig2_quick_covers_all_machines() {
        let out = fig2(Effort::Quick);
        for m in ["pentium4", "core2", "o3cpu"] {
            assert!(out.contains(m), "{m} missing:\n{out}");
        }
    }
}
