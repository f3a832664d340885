//! Tables 1 and 2.

use std::fmt::Write as _;

use biaslab_core::report::Table;
use biaslab_survey::{corpus, tabulate};
use biaslab_toolchain::OptLevel;
use biaslab_uarch::MachineConfig;
use biaslab_workloads::{benchmark_names, InputSize};

use super::{harness, Effort};

/// Table 1 ®: the experimental setup — machines, optimization levels and
/// benchmarks — generated from the registries rather than hard-coded.
pub(crate) fn table1(_effort: Effort) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "table1: experimental setup\n");

    let mut machines = Table::new(vec![
        "machine",
        "L1D",
        "ways",
        "L2",
        "DTLB",
        "BTB",
        "mispredict",
        "banks",
    ]);
    for m in MachineConfig::all() {
        machines.row(vec![
            m.name.clone(),
            format!("{}K", m.l1d.size >> 10),
            format!("{}", m.l1d.ways),
            format!("{}K", m.l2.size >> 10),
            format!("{}", m.dtlb.entries),
            format!("{}", m.branch.btb_entries),
            format!("{}", m.branch.mispredict_penalty),
            format!("{}", m.l1d_banks),
        ]);
    }
    let _ = writeln!(out, "{machines}");

    let _ = writeln!(
        out,
        "compiler: biaslab-toolchain at {}\n",
        OptLevel::ALL.map(|l| l.name()).join("/")
    );

    let mut benches = Table::new(vec!["benchmark", "behaviour", "functions", "ref-IR-ops"]);
    for name in benchmark_names() {
        let h = harness(name);
        let b = h.benchmark();
        let expected = b.expected(InputSize::Ref);
        benches.row(vec![
            b.name().to_owned(),
            b.description().to_owned(),
            format!("{}", b.module().functions.len()),
            format!("{}", expected.ir_ops),
        ]);
    }
    let _ = write!(out, "{benches}");
    out
}

/// Table 2 ®: the 133-paper literature survey, regenerated from the
/// record-level corpus (synthesized to the paper's aggregates — see
/// DESIGN.md).
pub(crate) fn table2(_effort: Effort) -> String {
    let records = corpus(2009);
    let table = tabulate(&records);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "table2: survey of {} papers (ASPLOS, PACT, PLDI, CGO)\n",
        records.len()
    );
    let _ = writeln!(out, "{table}");
    let _ = writeln!(
        out,
        "Headline rows: environment size and link order are reported by \
         ZERO of the surveyed papers, although either can bias a speedup \
         measurement by more than the effect under study."
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_machines_and_benchmarks() {
        let out = table1(Effort::Quick);
        for s in [
            "pentium4",
            "core2",
            "o3cpu",
            "perlbench",
            "sphinx3",
            "O0/O1/O2/O3",
        ] {
            assert!(out.contains(s), "{s} missing");
        }
    }

    #[test]
    fn table2_has_zero_rows_for_the_headline_aspects() {
        let out = table2(Effort::Quick);
        assert!(out.contains("environment size"));
        assert!(out.contains("link order"));
        assert!(out.contains("133"));
    }
}
