//! Experimental setup randomization — the paper's first remedy.
//!
//! Instead of measuring in one (arbitrary, possibly lucky or unlucky)
//! setup, sample many randomized setups, measure the effect in each, and
//! report the distribution with a confidence interval. A single setup can
//! land anywhere in the bias range; the randomized estimate converges on
//! the setup-population mean and its interval communicates the remaining
//! uncertainty honestly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use biaslab_toolchain::load::Environment;
use biaslab_toolchain::OptLevel;
use biaslab_uarch::MachineConfig;
use biaslab_workloads::InputSize;

use crate::bias::{speedup, SpeedupObservation};
use crate::harness::{Harness, MeasureError};
use crate::setup::{ExperimentSetup, LinkOrder};
use crate::stats::{bootstrap_ci_mean, Ci, Summary};

/// Which factors the sampler randomizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomizedFactors {
    /// Randomize environment size uniformly in `0..=max_env_bytes`.
    pub environment: bool,
    /// Randomize the link order.
    pub link_order: bool,
    /// Randomize the text-segment base offset (what address-space layout
    /// randomization does for code, and what Stabilizer does per run) in
    /// `0..4096`, instruction-aligned.
    pub code_offset: bool,
    /// Upper bound for random environment sizes (the paper sweeps ~4 KiB,
    /// one page of stack shift).
    pub max_env_bytes: u32,
}

impl Default for RandomizedFactors {
    fn default() -> Self {
        RandomizedFactors {
            environment: true,
            link_order: true,
            code_offset: false,
            max_env_bytes: 4096,
        }
    }
}

impl RandomizedFactors {
    /// Every supported factor at once — the Stabilizer-style full
    /// layout randomization.
    #[must_use]
    pub fn all() -> RandomizedFactors {
        RandomizedFactors {
            code_offset: true,
            ..RandomizedFactors::default()
        }
    }
}

/// Draws one random setup.
#[must_use]
pub fn random_setup(
    rng: &mut StdRng,
    machine: MachineConfig,
    opt: OptLevel,
    factors: RandomizedFactors,
) -> ExperimentSetup {
    let mut setup = ExperimentSetup::default_on(machine, opt);
    if factors.environment {
        let bytes = rng.gen_range(0..=factors.max_env_bytes);
        // Sizes below the minimum non-empty footprint collapse to empty.
        setup.env = if bytes < 23 {
            Environment::new()
        } else {
            Environment::of_total_size(bytes)
        };
    }
    if factors.link_order {
        setup.link_order = LinkOrder::Random(rng.gen());
    }
    if factors.code_offset {
        setup.text_offset = rng.gen_range(0..1024u32) * 4;
    }
    setup
}

/// The result of a randomized evaluation of `test_opt` against `base_opt`.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomizedEval {
    /// Per-setup observations.
    pub observations: Vec<SpeedupObservation>,
    /// Mean speedup across setups.
    pub mean_speedup: f64,
    /// Bootstrap confidence interval for the mean speedup.
    pub ci: Ci,
}

impl RandomizedEval {
    /// The evaluation's conclusion: `Some(true)` if the optimization helps
    /// (the whole interval is above 1), `Some(false)` if it hurts, and
    /// `None` if the interval straddles 1 — the honest "cannot tell".
    #[must_use]
    pub fn verdict(&self) -> Option<bool> {
        if self.ci.lo > 1.0 {
            Some(true)
        } else if self.ci.hi < 1.0 {
            Some(false)
        } else {
            None
        }
    }

    /// Descriptive summary of the per-setup speedups.
    #[must_use]
    pub fn summary(&self) -> Summary {
        Summary::of(
            &self
                .observations
                .iter()
                .map(|o| o.speedup)
                .collect::<Vec<_>>(),
        )
    }
}

/// Runs a randomized evaluation: `n_setups` random setups, the effect
/// measured *within* each setup (both levels share the setup), then a
/// bootstrap CI over the per-setup speedups.
///
/// # Errors
///
/// Propagates the first [`MeasureError`].
///
/// # Panics
///
/// Panics if `n_setups == 0`.
#[allow(clippy::too_many_arguments)]
pub fn randomized_eval(
    harness: &Harness,
    machine: &MachineConfig,
    base_opt: OptLevel,
    test_opt: OptLevel,
    factors: RandomizedFactors,
    n_setups: usize,
    seed: u64,
    size: InputSize,
) -> Result<RandomizedEval, MeasureError> {
    assert!(n_setups > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let setups: Vec<ExperimentSetup> = (0..n_setups)
        .map(|_| random_setup(&mut rng, machine.clone(), base_opt, factors))
        .collect();

    let mut all = Vec::with_capacity(n_setups * 2);
    for s in &setups {
        all.push(s.clone());
        all.push(s.with_opt(test_opt));
    }
    let results = crate::orchestrator::Orchestrator::global().sweep(harness, &all, size);
    let mut observations = Vec::with_capacity(n_setups);
    let mut iter = results.into_iter();
    for s in &setups {
        let base = iter.next().expect("paired")?;
        let test = iter.next().expect("paired")?;
        observations.push(SpeedupObservation {
            setup: s.summary(),
            base_cycles: base.cycles(),
            test_cycles: test.cycles(),
            speedup: speedup(base.cycles(), test.cycles()),
        });
    }
    let speedups: Vec<f64> = observations.iter().map(|o| o.speedup).collect();
    let mean_speedup = Summary::of(&speedups).mean;
    let ci = bootstrap_ci_mean(&speedups, 0.95, 2000, seed ^ 0x5EED);
    Ok(RandomizedEval {
        observations,
        mean_speedup,
        ci,
    })
}

/// How often a single-setup experiment reaches a different conclusion than
/// the pooled mean: the paper's "you might conclude the opposite" risk.
///
/// # Panics
///
/// Panics if `speedups` is empty.
#[must_use]
pub fn single_setup_disagreement_rate(speedups: &[f64], pooled_mean: f64) -> f64 {
    assert!(!speedups.is_empty());
    let pooled_helps = pooled_mean > 1.0;
    let disagree = speedups
        .iter()
        .filter(|&&s| (s > 1.0) != pooled_helps)
        .count();
    disagree as f64 / speedups.len() as f64
}

#[cfg(test)]
mod tests {
    use biaslab_workloads::benchmark_by_name;

    use super::*;

    #[test]
    fn random_setups_are_seeded_and_varied() {
        let mut rng1 = StdRng::seed_from_u64(9);
        let mut rng2 = StdRng::seed_from_u64(9);
        let f = RandomizedFactors::default();
        let a = random_setup(&mut rng1, MachineConfig::core2(), OptLevel::O2, f);
        let b = random_setup(&mut rng2, MachineConfig::core2(), OptLevel::O2, f);
        assert_eq!(a.summary(), b.summary());
        let c = random_setup(&mut rng1, MachineConfig::core2(), OptLevel::O2, f);
        assert_ne!(a.summary(), c.summary(), "successive draws differ");
    }

    #[test]
    fn factors_can_be_disabled() {
        let mut rng = StdRng::seed_from_u64(1);
        let f = RandomizedFactors {
            environment: false,
            link_order: false,
            code_offset: false,
            max_env_bytes: 4096,
        };
        let s = random_setup(&mut rng, MachineConfig::core2(), OptLevel::O2, f);
        assert_eq!(s.env.stack_bytes(), Environment::new().stack_bytes());
        assert_eq!(s.link_order, LinkOrder::Default);
        assert_eq!(s.text_offset, 0);
    }

    #[test]
    fn full_randomization_includes_code_offsets() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen_nonzero = false;
        for _ in 0..8 {
            let s = random_setup(
                &mut rng,
                MachineConfig::core2(),
                OptLevel::O2,
                RandomizedFactors::all(),
            );
            assert_eq!(s.text_offset % 4, 0);
            seen_nonzero |= s.text_offset != 0;
        }
        assert!(seen_nonzero);
    }

    #[test]
    fn randomized_eval_end_to_end() {
        let h = Harness::new(benchmark_by_name("hmmer").expect("known"));
        let eval = randomized_eval(
            &h,
            &MachineConfig::o3cpu(),
            OptLevel::O2,
            OptLevel::O3,
            RandomizedFactors::default(),
            6,
            11,
            InputSize::Test,
        )
        .unwrap();
        assert_eq!(eval.observations.len(), 6);
        assert!(eval.ci.contains(eval.mean_speedup));
        // Deterministic under the same seed.
        let eval2 = randomized_eval(
            &h,
            &MachineConfig::o3cpu(),
            OptLevel::O2,
            OptLevel::O3,
            RandomizedFactors::default(),
            6,
            11,
            InputSize::Test,
        )
        .unwrap();
        assert_eq!(eval.mean_speedup, eval2.mean_speedup);
    }

    #[test]
    fn disagreement_rate_counts_sign_mismatches() {
        let rate = single_setup_disagreement_rate(&[1.02, 1.01, 0.99, 1.03], 1.01);
        assert!((rate - 0.25).abs() < 1e-12);
        let rate = single_setup_disagreement_rate(&[1.02, 1.01], 1.015);
        assert_eq!(rate, 0.0);
    }

    #[test]
    fn verdicts_follow_the_interval() {
        let mk = |lo: f64, hi: f64| RandomizedEval {
            observations: vec![],
            mean_speedup: (lo + hi) / 2.0,
            ci: Ci {
                lo,
                hi,
                confidence: 0.95,
            },
        };
        assert_eq!(mk(1.01, 1.05).verdict(), Some(true));
        assert_eq!(mk(0.91, 0.95).verdict(), Some(false));
        assert_eq!(mk(0.99, 1.05).verdict(), None);
    }
}
