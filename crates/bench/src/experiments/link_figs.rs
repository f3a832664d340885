//! Figures 5–6: the link-order studies.

use std::fmt::Write as _;

use biaslab_core::bias::sweep_factor;
use biaslab_core::report::{sparkline, Table};
use biaslab_core::setup::LinkOrder;
use biaslab_core::stats::Summary;
use biaslab_toolchain::OptLevel;
use biaslab_uarch::MachineConfig;
use biaslab_workloads::benchmark_names;

use super::{base_setup, harness, Effort};

/// The link orders a sweep visits: the three "somebody's Makefile" orders
/// plus seeded random permutations.
pub(crate) fn orders(n_random: usize) -> Vec<LinkOrder> {
    let mut v = vec![
        LinkOrder::Default,
        LinkOrder::Reversed,
        LinkOrder::Alphabetical,
    ];
    v.extend((0..n_random as u64).map(LinkOrder::Random));
    v
}

/// Fig. 5 ®: perlbench cycle counts across link orders at O2 and O3 — the
/// spread within one level rivals the gap between levels.
pub(crate) fn fig5(effort: Effort) -> String {
    let h = harness("perlbench");
    let all_orders = orders(effort.points(29));
    let mut out = String::new();
    let _ = writeln!(out, "fig5: perlbench cycles across link orders (core2)\n");
    let mut per_level: Vec<(OptLevel, Summary)> = Vec::new();
    for opt in [OptLevel::O2, OptLevel::O3] {
        let base = base_setup(MachineConfig::core2(), opt);
        let setups: Vec<_> = all_orders
            .iter()
            .map(|&o| base.with_link_order(o))
            .collect();
        let results = biaslab_core::Orchestrator::global().sweep(&h, &setups, effort.input());
        let cycles: Vec<f64> = results
            .into_iter()
            .map(|r| r.expect("verified").cycles() as f64)
            .collect();
        let s = Summary::of(&cycles);
        let _ = writeln!(
            out,
            "{opt}: cycles [{:.0}, {:.0}]  spread {:.3}%  {}",
            s.min,
            s.max,
            100.0 * (s.max / s.min - 1.0),
            sparkline(&cycles)
        );
        per_level.push((opt, s));
    }
    let gap = (per_level[0].1.mean - per_level[1].1.mean).abs();
    let spread = per_level[0].1.max - per_level[0].1.min;
    let _ = writeln!(
        out,
        "\nO2→O3 mean gap: {gap:.0} cycles; O2 link-order spread: {spread:.0} cycles \
         (ratio {:.2})",
        spread / gap.max(1.0)
    );
    out
}

/// Fig. 6 ®: per-benchmark violins of the O3 speedup across link orders.
pub(crate) fn fig6(effort: Effort) -> String {
    let all_orders = orders(effort.points(29));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fig6: O3 speedup across link orders, all benchmarks (core2)\n"
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
        let h = harness(name);
        let base = base_setup(MachineConfig::core2(), OptLevel::O2);
        let setups: Vec<_> = all_orders
            .iter()
            .map(|&o| base.with_link_order(o))
            .collect();
        let report = sweep_factor(
            &h,
            "link order",
            &setups,
            OptLevel::O2,
            OptLevel::O3,
            effort.input(),
        )
        .expect("sweep succeeds");
        let v = &report.violin;
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
    fn orders_include_named_and_random() {
        let o = orders(4);
        assert_eq!(o.len(), 7);
        assert!(matches!(o[0], LinkOrder::Default));
        assert!(matches!(o[3], LinkOrder::Random(0)));
    }

    #[test]
    fn fig5_quick_reports_both_levels() {
        let out = fig5(Effort::Quick);
        assert!(out.contains("O2:"));
        assert!(out.contains("O3:"));
        assert!(out.contains("spread"));
    }
}
