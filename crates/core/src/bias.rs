//! Bias detection: quantifying how much an "innocuous" setup factor moves
//! a measured effect, and whether it can flip the experiment's conclusion.
//!
//! The paper's operational definition: measure the effect (here, the
//! speedup of one optimization level over another) under many values of a
//! setup factor that *should not matter* (environment size, link order).
//! The factor introduces **measurement bias** when the effect's spread
//! across factor values is comparable to the effect itself, and a
//! **conclusion flip** when the spread straddles 1.0 — the same experiment
//! says "optimization helps" in one setup and "optimization hurts" in
//! another.

use crate::harness::{Harness, MeasureError, Measurement};
use crate::setup::ExperimentSetup;
use crate::stats::{Summary, ViolinSummary};
use biaslab_toolchain::OptLevel;
use biaslab_workloads::InputSize;

/// The speedup of `test` over `base` given their cycle counts: `> 1` means
/// `test` is faster.
///
/// # Examples
///
/// ```
/// use biaslab_core::bias::speedup;
///
/// assert_eq!(speedup(1200, 1000), 1.2);
/// ```
#[must_use]
pub fn speedup(base_cycles: u64, test_cycles: u64) -> f64 {
    base_cycles as f64 / test_cycles as f64
}

/// One (setup, speedup) observation.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupObservation {
    /// Human-readable setup description.
    pub setup: String,
    /// Cycles at the base level.
    pub base_cycles: u64,
    /// Cycles at the test level.
    pub test_cycles: u64,
    /// `base_cycles / test_cycles`.
    pub speedup: f64,
}

/// The bias a factor introduced into a speedup measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BiasReport {
    /// What was varied (e.g. `"environment size"`).
    pub factor: String,
    /// The individual observations, in sweep order.
    pub observations: Vec<SpeedupObservation>,
    /// Distribution summary of the speedups.
    pub violin: ViolinSummary,
    /// `max/min − 1`: the relative spread the factor alone induces.
    pub bias_magnitude: f64,
    /// Whether the sweep contains speedups on both sides of 1.0 — i.e.
    /// the factor can flip the experiment's conclusion.
    pub conclusion_flips: bool,
}

impl BiasReport {
    /// Builds a report from a factor name and observations.
    ///
    /// # Panics
    ///
    /// Panics if `observations` is empty.
    #[must_use]
    pub fn from_observations(
        factor: impl Into<String>,
        observations: Vec<SpeedupObservation>,
    ) -> BiasReport {
        assert!(!observations.is_empty(), "bias report needs observations");
        let speedups: Vec<f64> = observations.iter().map(|o| o.speedup).collect();
        let violin = ViolinSummary::of(&speedups);
        BiasReport {
            factor: factor.into(),
            bias_magnitude: violin.max() / violin.min() - 1.0,
            conclusion_flips: violin.straddles(1.0),
            observations,
            violin,
        }
    }

    /// The speedups, in sweep order.
    #[must_use]
    pub fn speedups(&self) -> Vec<f64> {
        self.observations.iter().map(|o| o.speedup).collect()
    }

    /// Descriptive summary of the speedups.
    #[must_use]
    pub fn summary(&self) -> Summary {
        Summary::of(&self.speedups())
    }
}

/// Sweeps a factor: measures `base_opt` and `test_opt` under each setup
/// (which should differ only in the factor under study) and reports the
/// induced bias. The one-arm case of [`sweep_factors`].
///
/// # Errors
///
/// Propagates the first [`MeasureError`] encountered.
pub fn sweep_factor(
    harness: &Harness,
    factor: impl Into<String>,
    setups: &[ExperimentSetup],
    base_opt: OptLevel,
    test_opt: OptLevel,
    size: InputSize,
) -> Result<BiasReport, MeasureError> {
    let mut reports = sweep_factors(harness, &factor.into(), &[setups], base_opt, test_opt, size)?;
    Ok(reports.pop().expect("one report per arm"))
}

/// Sweeps a factor in several arms at once, typically one arm per machine:
/// every arm's setups at `base_opt` and `test_opt` go into one
/// [`Orchestrator::sweep`](crate::orchestrator::Orchestrator::sweep), so
/// setups of different arms that share a functional pass run as one
/// lockstep group. Returns one report per arm, in arm order, each the one
/// [`sweep_factor`] gives for that arm alone.
///
/// # Errors
///
/// Propagates the first [`MeasureError`] encountered, in arm order.
pub fn sweep_factors<A: AsRef<[ExperimentSetup]>>(
    harness: &Harness,
    factor: &str,
    arms: &[A],
    base_opt: OptLevel,
    test_opt: OptLevel,
    size: InputSize,
) -> Result<Vec<BiasReport>, MeasureError> {
    let all: Vec<ExperimentSetup> = arms
        .iter()
        .flat_map(AsRef::as_ref)
        .flat_map(|s| [s.with_opt(base_opt), s.with_opt(test_opt)])
        .collect();
    let mut results = crate::orchestrator::Orchestrator::global()
        .sweep(harness, &all, size)
        .into_iter();
    arms.iter()
        .map(|arm| {
            let observations = arm
                .as_ref()
                .iter()
                .map(|s| {
                    let base: Measurement = results.next().expect("paired result")?;
                    let test: Measurement = results.next().expect("paired result")?;
                    Ok(SpeedupObservation {
                        setup: s.summary(),
                        base_cycles: base.cycles(),
                        test_cycles: test.cycles(),
                        speedup: speedup(base.cycles(), test.cycles()),
                    })
                })
                .collect::<Result<Vec<_>, MeasureError>>()?;
            Ok(BiasReport::from_observations(factor, observations))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use biaslab_toolchain::load::Environment;
    use biaslab_uarch::MachineConfig;
    use biaslab_workloads::benchmark_by_name;

    use super::*;
    use crate::setup::LinkOrder;

    fn obs(speedups: &[f64]) -> Vec<SpeedupObservation> {
        speedups
            .iter()
            .map(|&s| SpeedupObservation {
                setup: "t".into(),
                base_cycles: 1000,
                test_cycles: (1000.0 / s) as u64,
                speedup: s,
            })
            .collect()
    }

    #[test]
    fn detects_flips_and_magnitude() {
        let r = BiasReport::from_observations("env", obs(&[0.98, 1.00, 1.05]));
        assert!(r.conclusion_flips);
        assert!((r.bias_magnitude - (1.05 / 0.98 - 1.0)).abs() < 1e-12);

        let r = BiasReport::from_observations("env", obs(&[1.01, 1.02, 1.05]));
        assert!(!r.conclusion_flips);
    }

    #[test]
    fn speedup_orientation() {
        assert!(speedup(2000, 1000) > 1.0, "faster test = speedup above 1");
        assert!(speedup(1000, 2000) < 1.0);
    }

    #[test]
    fn sweep_factor_end_to_end_env() {
        let h = Harness::new(benchmark_by_name("hmmer").expect("known"));
        let base = ExperimentSetup::default_on(MachineConfig::o3cpu(), OptLevel::O2);
        let setups: Vec<_> = (0..4)
            .map(|i| base.with_env(Environment::of_total_size(64 + 256 * i)))
            .collect();
        let report = sweep_factor(
            &h,
            "environment size",
            &setups,
            OptLevel::O2,
            OptLevel::O3,
            InputSize::Test,
        )
        .unwrap();
        assert_eq!(report.observations.len(), 4);
        assert!(report.bias_magnitude >= 0.0);
        for o in &report.observations {
            assert!(
                o.speedup > 0.5 && o.speedup < 2.0,
                "plausible speedup, got {}",
                o.speedup
            );
        }
    }

    #[test]
    fn sweep_factors_over_machine_arms_equals_one_sweep_factor_per_arm() {
        let h = Harness::new(benchmark_by_name("mcf").expect("known"));
        let arms: Vec<Vec<ExperimentSetup>> = MachineConfig::all()
            .into_iter()
            .map(|machine| {
                let base = ExperimentSetup::default_on(machine, OptLevel::O2);
                (0..3)
                    .map(|i| base.with_env(Environment::of_total_size(64 + 176 * i)))
                    .collect()
            })
            .collect();
        let (o2, o3, size) = (OptLevel::O2, OptLevel::O3, InputSize::Test);
        let together = sweep_factors(&h, "environment size", &arms, o2, o3, size).unwrap();
        let apart: Vec<BiasReport> = arms
            .iter()
            .map(|arm| sweep_factor(&h, "environment size", arm, o2, o3, size).unwrap())
            .collect();
        assert_eq!(together, apart);
        assert_eq!(together.len(), 3);
    }

    #[test]
    fn sweep_factor_end_to_end_link_order() {
        let h = Harness::new(benchmark_by_name("milc").expect("known"));
        let base = ExperimentSetup::default_on(MachineConfig::core2(), OptLevel::O2);
        let setups: Vec<_> = (0..3)
            .map(|i| base.with_link_order(LinkOrder::Random(i)))
            .collect();
        let report = sweep_factor(
            &h,
            "link order",
            &setups,
            OptLevel::O2,
            OptLevel::O3,
            InputSize::Test,
        )
        .unwrap();
        assert_eq!(report.speedups().len(), 3);
    }
}
