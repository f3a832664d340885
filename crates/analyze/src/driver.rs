//! Convenience drivers: run the whole static pipeline for a benchmark.
//!
//! Everything here goes through `Harness::derived` and
//! `Harness::executable`, which optimize, compile and link (once per
//! harness and level) but never load or run — the orchestrator's
//! `simulated` counter is untouched by construction, and the
//! zero-simulation test in `tests/static_vs_dynamic.rs` pins that.

use std::sync::Arc;

use biaslab_core::{Harness, LinkOrder, Orchestrator};
use biaslab_toolchain::opt::OptLevel;
use biaslab_uarch::MachineConfig;

use crate::hotness::ModuleHotness;
use crate::image::{image_facts, StackFacts};
use crate::passes::PassManager;
use crate::predict::{predict, LevelAnalysis, SensitivityReport};

/// The optimization levels whose spread the analyzer predicts.
pub const LEVELS: [OptLevel; 2] = [OptLevel::O2, OptLevel::O3];

/// Alternative link orders re-linked statically per level.
pub const ORDERS: [LinkOrder; 4] = [
    LinkOrder::Reversed,
    LinkOrder::Alphabetical,
    LinkOrder::Random(1),
    LinkOrder::Random(2),
];

/// Alternative whole-text offsets re-linked statically per level.
pub const OFFSETS: [u32; 4] = [16, 28, 40, 52];

/// The environment-size grid used for stack residue classes: the same
/// 176-byte stride `core::audit` sweeps dynamically.
#[must_use]
pub fn env_grid() -> Vec<u32> {
    (0..16).map(|i| i * 176).collect()
}

/// The static facts of one benchmark's optimized IR at one level that
/// no machine changes: its hotness and its dataflow passes. Computed once
/// per harness and level, beside the harness's optimized IR, and shared
/// by [`analyze_harness`] and [`crate::lint::lint_harness`] on every
/// machine and thread.
pub struct LevelFacts {
    /// Static hotness, from the benchmark's entry point.
    pub hot: ModuleHotness,
    /// The memoized dataflow passes over the same IR.
    pub passes: PassManager,
}

impl LevelFacts {
    /// The harness's facts at `level`, computed on first request.
    #[must_use]
    pub fn of(harness: &Harness, level: OptLevel) -> Arc<LevelFacts> {
        harness.derived(level, |module| LevelFacts {
            hot: ModuleHotness::of(&module, harness.benchmark().entry(), level),
            passes: PassManager::new(module, level),
        })
    }
}

/// Analyzes one benchmark (via its measurement harness) on `machine`.
/// Pure compile + link: no process is loaded, no instruction executes.
///
/// # Errors
///
/// Returns a message if any of the static links fails.
pub fn analyze_harness(
    harness: &Harness,
    machine: &MachineConfig,
) -> Result<SensitivityReport, String> {
    let bench = harness.benchmark();
    let names = harness.object_names();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let default_order = LinkOrder::Default.resolve(&name_refs);
    let grid = env_grid();

    let mut levels = Vec::with_capacity(LEVELS.len());
    for level in LEVELS {
        let facts = LevelFacts::of(harness, level);
        let hot = &facts.hot;

        let link = |order: &[usize], offset: u32| {
            harness
                .executable(level, order, offset)
                .map_err(|e| format!("{}/{}: link failed: {e:?}", bench.name(), level.name()))
        };
        let base_exe = link(&default_order, 0)?;
        let base = image_facts(&base_exe, hot, machine);
        let mut order_variants = Vec::with_capacity(ORDERS.len());
        for order in ORDERS {
            let exe = link(&order.resolve(&name_refs), 0)?;
            order_variants.push(image_facts(&exe, hot, machine));
        }
        let mut offset_variants = Vec::with_capacity(OFFSETS.len());
        for offset in OFFSETS {
            let exe = link(&default_order, offset)?;
            offset_variants.push(image_facts(&exe, hot, machine));
        }

        let stack = StackFacts::of(hot, machine, &grid);
        let mut hot_functions: Vec<(String, f64)> = hot
            .functions
            .iter()
            .map(|f| (f.name.clone(), f.weight))
            .collect();
        hot_functions.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("weights are finite")
                .then(a.0.cmp(&b.0))
        });
        hot_functions.truncate(5);

        levels.push(LevelAnalysis {
            level,
            base,
            order_variants,
            offset_variants,
            stack,
            hot_functions,
        });
    }
    Ok(predict(bench.name(), machine, levels))
}

/// Analyzes a benchmark by name, sharing the process-wide harness (and
/// its compile cache) with the rest of the laboratory.
///
/// # Errors
///
/// Returns a message for unknown benchmarks or failed links.
pub fn analyze_benchmark(
    bench: &str,
    machine: &MachineConfig,
) -> Result<SensitivityReport, String> {
    let harness = Orchestrator::global()
        .harness(bench)
        .ok_or_else(|| format!("unknown benchmark `{bench}` — `biaslab list` shows the suite"))?;
    analyze_harness(&harness, machine)
}

/// Analyzes the whole suite on `machine` and returns the reports ranked
/// by predicted spread, most sensitive first.
///
/// The suite is analyzed from its last benchmark to its first: lint walks
/// it first to last, so when `repro all` runs `ext-analyze` beside
/// `ext-lint` the two fill the shared [`LevelFacts`] (and the harnesses'
/// optimized and compiled modules) from opposite ends instead of queueing
/// on the same cells. The ranking does not depend on the order.
///
/// # Errors
///
/// Returns the first analysis failure in that order.
pub fn rank_suite(machine: &MachineConfig) -> Result<Vec<SensitivityReport>, String> {
    let names: Vec<&str> = biaslab_workloads::benchmark_names().collect();
    let mut reports: Vec<SensitivityReport> = names
        .into_iter()
        .rev()
        .map(|name| analyze_benchmark(name, machine))
        .collect::<Result<_, _>>()?;
    reports.sort_by(|a, b| {
        b.predicted_spread
            .partial_cmp(&a.predicted_spread)
            .expect("scores are finite")
            .then(a.bench.cmp(&b.bench))
    });
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyzes_without_simulating() {
        let before = Orchestrator::global().stats().simulated;
        let r = analyze_benchmark("perlbench", &MachineConfig::core2()).expect("analyzes");
        assert_eq!(r.bench, "perlbench");
        assert_eq!(r.machine, "core2");
        assert_eq!(r.levels.len(), 2);
        assert!(r.predicted_spread.is_finite() && r.predicted_spread >= 0.0);
        assert_eq!(
            Orchestrator::global().stats().simulated,
            before,
            "static analysis must not simulate"
        );
    }

    #[test]
    fn unknown_benchmark_is_an_error() {
        let err = analyze_benchmark("nonesuch", &MachineConfig::core2()).unwrap_err();
        assert!(err.contains("unknown benchmark"));
    }

    #[test]
    fn ranking_is_sorted_and_complete() {
        let ranked = rank_suite(&MachineConfig::o3cpu()).expect("ranks");
        assert_eq!(ranked.len(), biaslab_workloads::benchmark_names().count());
        for w in ranked.windows(2) {
            assert!(w[0].predicted_spread >= w[1].predicted_spread);
        }
    }
}
