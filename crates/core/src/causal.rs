//! Causal analysis — the paper's second remedy.
//!
//! Correlation ("performance varies with environment size") is not an
//! explanation. The paper recommends *intervening* on the suspected
//! mechanism directly and checking three things:
//!
//! 1. **Dose response** — manipulating the mechanism (e.g. shifting the
//!    stack directly in the loader, bypassing the environment entirely)
//!    reproduces the effect;
//! 2. **Placebo control** — manipulating everything *except* the mechanism
//!    (e.g. changing the environment's contents but not its size) produces
//!    no effect;
//! 3. **Mediator movement** — a hardware counter implementing the proposed
//!    mechanism (here, L1D bank conflicts or cache misses) moves with the
//!    effect.
//!
//! [`CausalExperiment::run`] packages all three.

use biaslab_toolchain::load::Environment;
use biaslab_uarch::Counters;
use biaslab_workloads::InputSize;

use crate::harness::{Harness, MeasureError};
use crate::setup::ExperimentSetup;

/// An intervention: a family of setups indexed by a dose in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intervention {
    /// Shift the initial stack pointer down by the dose, directly in the
    /// loader (no environment involved): the suspected *mechanism* of the
    /// environment-size bias.
    StackShift,
    /// Grow the environment to the dose (the observable the experimenter
    /// originally varied).
    EnvironmentSize,
    /// Shift the text segment base by the dose: the suspected mechanism
    /// of the link-order bias (moving code addresses).
    CodeShift,
    /// Placebo: keep a fixed-size environment and vary only its *content*
    /// with the dose. Stack placement is unchanged, so a mechanism based
    /// on stack placement predicts **no** effect.
    EnvironmentContent,
}

impl Intervention {
    /// Human-readable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Intervention::StackShift => "stack shift",
            Intervention::EnvironmentSize => "environment size",
            Intervention::CodeShift => "code shift",
            Intervention::EnvironmentContent => "environment content (placebo)",
        }
    }

    /// Applies a dose to a base setup.
    #[must_use]
    pub fn apply(self, base: &ExperimentSetup, dose: u32) -> ExperimentSetup {
        let mut s = base.clone();
        match self {
            Intervention::StackShift => s.stack_shift = dose,
            Intervention::EnvironmentSize => {
                s.env = if dose < 23 {
                    Environment::new()
                } else {
                    Environment::of_total_size(dose)
                };
            }
            Intervention::CodeShift => s.text_offset = dose & !3,
            Intervention::EnvironmentContent => {
                let fill = char::from(b'a' + (dose % 26) as u8);
                s.env = Environment::of_total_size_with_fill(512, fill);
            }
        }
        s
    }
}

/// One point of a dose-response curve.
#[derive(Debug, Clone, PartialEq)]
pub struct DosePoint {
    /// The dose in bytes.
    pub dose: u32,
    /// Cycles measured at this dose.
    pub cycles: u64,
    /// Full counters at this dose (for mediator analysis).
    pub counters: Counters,
}

/// The outcome of a causal experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct CausalReport {
    /// The intervention tested.
    pub intervention_name: String,
    /// The dose-response curve.
    pub curve: Vec<DosePoint>,
    /// Relative cycle spread across doses: `max/min − 1`.
    pub effect: f64,
    /// Same spread under the placebo intervention.
    pub placebo_effect: f64,
    /// Pearson correlation between the chosen mediator counter and cycles
    /// across doses (`None` when either series is constant).
    pub mediator_correlation: Option<f64>,
    /// The verdict: the intervention's effect exceeds the placebo's by at
    /// least the required ratio.
    pub confirmed: bool,
}

/// A hardware counter proposed as the mechanism's mediator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mediator {
    /// L1D bank conflicts.
    BankConflicts,
    /// L1D misses.
    L1dMisses,
    /// Branch mispredictions.
    Mispredicts,
    /// BTB misses.
    BtbMisses,
    /// Instruction-fetch window count.
    Fetches,
}

impl Mediator {
    /// Reads the mediator from a counter set.
    #[must_use]
    pub fn read(self, c: &Counters) -> u64 {
        match self {
            Mediator::BankConflicts => c.bank_conflicts,
            Mediator::L1dMisses => c.l1d_misses,
            Mediator::Mispredicts => c.mispredicts,
            Mediator::BtbMisses => c.btb_misses,
            Mediator::Fetches => c.fetches,
        }
    }

    /// Human-readable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Mediator::BankConflicts => "L1D bank conflicts",
            Mediator::L1dMisses => "L1D misses",
            Mediator::Mispredicts => "branch mispredicts",
            Mediator::BtbMisses => "BTB misses",
            Mediator::Fetches => "fetch windows",
        }
    }
}

/// A causal experiment: an intervention, its doses, and a mediator.
#[derive(Debug, Clone)]
pub struct CausalExperiment {
    /// The setup everything else is held fixed at.
    pub base: ExperimentSetup,
    /// The intervention under test.
    pub intervention: Intervention,
    /// Doses to apply.
    pub doses: Vec<u32>,
    /// The counter proposed as the mechanism.
    pub mediator: Mediator,
    /// How many times larger than the placebo the effect must be.
    pub required_ratio: f64,
}

impl CausalExperiment {
    /// A conventional experiment: doses `0..max` in `steps` steps,
    /// mediator and ratio defaulted.
    #[must_use]
    pub fn new(
        base: ExperimentSetup,
        intervention: Intervention,
        max_dose: u32,
        steps: u32,
    ) -> Self {
        let doses = (0..=steps).map(|i| i * max_dose / steps.max(1)).collect();
        CausalExperiment {
            base,
            intervention,
            doses,
            mediator: Mediator::BankConflicts,
            required_ratio: 3.0,
        }
    }

    /// Runs the experiment (and the placebo alongside).
    ///
    /// # Errors
    ///
    /// Propagates the first [`MeasureError`].
    pub fn run(&self, harness: &Harness, size: InputSize) -> Result<CausalReport, MeasureError> {
        let curve = self.dose_response(harness, self.intervention, size)?;
        let placebo = self.dose_response(harness, Intervention::EnvironmentContent, size)?;

        let effect = relative_spread(&curve);
        let placebo_effect = relative_spread(&placebo);

        let med: Vec<f64> = curve
            .iter()
            .map(|p| self.mediator.read(&p.counters) as f64)
            .collect();
        let cyc: Vec<f64> = curve.iter().map(|p| p.cycles as f64).collect();
        let mediator_correlation = pearson(&med, &cyc);

        let confirmed = effect > self.required_ratio * placebo_effect.max(1e-9) && effect > 1e-4;
        Ok(CausalReport {
            intervention_name: self.intervention.name().to_owned(),
            curve,
            effect,
            placebo_effect,
            mediator_correlation,
            confirmed,
        })
    }

    fn dose_response(
        &self,
        harness: &Harness,
        intervention: Intervention,
        size: InputSize,
    ) -> Result<Vec<DosePoint>, MeasureError> {
        let setups: Vec<ExperimentSetup> = self
            .doses
            .iter()
            .map(|&d| intervention.apply(&self.base, d))
            .collect();
        let results = crate::orchestrator::Orchestrator::global().sweep(harness, &setups, size);
        let mut curve = Vec::with_capacity(self.doses.len());
        for (dose, result) in self.doses.iter().zip(results) {
            let m = result?;
            curve.push(DosePoint {
                dose: *dose,
                cycles: m.counters.cycles,
                counters: m.counters,
            });
        }
        Ok(curve)
    }
}

fn relative_spread(curve: &[DosePoint]) -> f64 {
    let min = curve.iter().map(|p| p.cycles).min().unwrap_or(1);
    let max = curve.iter().map(|p| p.cycles).max().unwrap_or(1);
    max as f64 / min as f64 - 1.0
}

/// Pearson correlation; `None` when a series is (numerically) constant.
///
/// # Examples
///
/// ```
/// use biaslab_core::causal::pearson;
///
/// let r = pearson(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]).expect("varies");
/// assert!((r - 1.0).abs() < 1e-9);
/// assert_eq!(pearson(&[1.0, 1.0], &[1.0, 2.0]), None);
/// ```
#[must_use]
pub fn pearson(x: &[f64], y: &[f64]) -> Option<f64> {
    assert_eq!(x.len(), y.len());
    let n = x.len() as f64;
    if x.is_empty() {
        return None;
    }
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let cov: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum();
    let vx: f64 = x.iter().map(|a| (a - mx).powi(2)).sum();
    let vy: f64 = y.iter().map(|b| (b - my).powi(2)).sum();
    if vx < 1e-12 || vy < 1e-12 {
        return None;
    }
    Some(cov / (vx.sqrt() * vy.sqrt()))
}

#[cfg(test)]
mod tests {
    use biaslab_toolchain::OptLevel;
    use biaslab_uarch::MachineConfig;
    use biaslab_workloads::benchmark_by_name;

    use super::*;

    #[test]
    fn interventions_modify_the_right_knob() {
        let base = ExperimentSetup::default_on(MachineConfig::core2(), OptLevel::O2);
        let s = Intervention::StackShift.apply(&base, 64);
        assert_eq!(s.stack_shift, 64);
        let s = Intervention::EnvironmentSize.apply(&base, 512);
        assert_eq!(s.env.stack_bytes(), 512);
        let s = Intervention::CodeShift.apply(&base, 66);
        assert_eq!(s.text_offset, 64, "code shifts are instruction-aligned");
        let a = Intervention::EnvironmentContent.apply(&base, 0);
        let b = Intervention::EnvironmentContent.apply(&base, 1);
        assert_eq!(a.env.stack_bytes(), b.env.stack_bytes());
        assert_ne!(a.env.vars()[0].value, b.env.vars()[0].value);
    }

    #[test]
    fn pearson_limits() {
        assert!(pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]).unwrap() > 0.999);
        assert!(pearson(&[1.0, 2.0, 3.0], &[6.0, 4.0, 2.0]).unwrap() < -0.999);
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn placebo_has_no_effect_on_cycles() {
        // The placebo intervention changes only environment bytes' values;
        // the loader writes them to the same addresses, so the simulated
        // machine must produce identical timing.
        let h = Harness::new(benchmark_by_name("hmmer").expect("known"));
        let base = ExperimentSetup::default_on(MachineConfig::o3cpu(), OptLevel::O2);
        let exp = CausalExperiment {
            base,
            intervention: Intervention::EnvironmentContent,
            doses: vec![0, 1, 2, 3],
            mediator: Mediator::BankConflicts,
            required_ratio: 3.0,
        };
        let curve = exp
            .dose_response(&h, Intervention::EnvironmentContent, InputSize::Test)
            .unwrap();
        let cycles: Vec<u64> = curve.iter().map(|p| p.cycles).collect();
        assert!(cycles.windows(2).all(|w| w[0] == w[1]), "{cycles:?}");
    }

    #[test]
    fn stack_shift_experiment_runs_and_reports() {
        let h = Harness::new(benchmark_by_name("sphinx3").expect("known"));
        let base = ExperimentSetup::default_on(MachineConfig::pentium4(), OptLevel::O2);
        let exp = CausalExperiment::new(base, Intervention::StackShift, 128, 8);
        let report = exp.run(&h, InputSize::Test).unwrap();
        assert_eq!(report.curve.len(), 9);
        assert!(report.placebo_effect < 1e-9, "placebo must be silent");
    }
}
