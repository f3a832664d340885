//! Statistics for performance data: descriptive summaries, bootstrap
//! confidence intervals, permutation tests and violin summaries.
//!
//! Everything takes an explicit seed where randomness is involved, so
//! experiment reports are bit-reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Descriptive summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub stddev: f64,
    /// Minimum.
    pub min: f64,
    /// Median.
    pub median: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarizes a sample.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or contains NaN.
    #[must_use]
    pub fn of(data: &[f64]) -> Summary {
        assert!(!data.is_empty(), "cannot summarize an empty sample");
        assert!(data.iter().all(|x| !x.is_nan()), "sample contains NaN");
        let n = data.len();
        let mean = data.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        Summary {
            n,
            mean,
            stddev: var.sqrt(),
            min: data.iter().copied().fold(f64::INFINITY, f64::min),
            median: quantile(data, 0.5),
            max: data.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// The `p`-quantile of a sample (linear interpolation between order
/// statistics, like numpy's default).
///
/// # Examples
///
/// ```
/// use biaslab_core::stats::quantile;
///
/// let data = [4.0, 1.0, 3.0, 2.0];
/// assert_eq!(quantile(&data, 0.0), 1.0);
/// assert_eq!(quantile(&data, 0.5), 2.5);
/// assert_eq!(quantile(&data, 1.0), 4.0);
/// ```
///
/// # Panics
///
/// Panics if `data` is empty or `p` is outside `[0, 1]`.
#[must_use]
pub fn quantile(data: &[f64], p: f64) -> f64 {
    assert!(!data.is_empty());
    assert!((0.0..=1.0).contains(&p), "quantile {p} outside [0,1]");
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let idx = p * (sorted.len() - 1) as f64;
    let lo = idx.floor() as usize;
    let hi = idx.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = idx - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Geometric mean — the conventional aggregate for speedup ratios.
///
/// # Examples
///
/// ```
/// use biaslab_core::stats::geometric_mean;
///
/// // A 2x speedup and a 2x slowdown cancel exactly.
/// assert!((geometric_mean(&[2.0, 0.5]) - 1.0).abs() < 1e-12);
/// ```
///
/// # Panics
///
/// Panics if `data` is empty or any value is non-positive.
#[must_use]
pub fn geometric_mean(data: &[f64]) -> f64 {
    assert!(!data.is_empty());
    assert!(
        data.iter().all(|&x| x > 0.0),
        "geometric mean needs positive data"
    );
    (data.iter().map(|x| x.ln()).sum::<f64>() / data.len() as f64).exp()
}

/// Ranks a sample (1-based), assigning tied values their average rank.
fn average_ranks(data: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..data.len()).collect();
    idx.sort_by(|&a, &b| data[a].partial_cmp(&data[b]).expect("no NaN"));
    let mut ranks = vec![0.0; data.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && data[idx[j + 1]] == data[idx[i]] {
            j += 1;
        }
        // Positions i..=j (0-based) share the average 1-based rank.
        let rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            ranks[k] = rank;
        }
        i = j + 1;
    }
    ranks
}

/// Spearman rank correlation between two paired samples: Pearson
/// correlation of the (tie-averaged) ranks. Returns a value in
/// `[-1, 1]`; `0.0` when either sample is constant (no ordering to
/// correlate with).
///
/// # Examples
///
/// ```
/// use biaslab_core::stats::spearman;
///
/// let a = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(spearman(&a, &[10.0, 20.0, 30.0, 40.0]), 1.0);
/// assert_eq!(spearman(&a, &[9.0, 6.0, 4.0, 1.0]), -1.0);
/// ```
///
/// # Panics
///
/// Panics if the samples differ in length, have fewer than two
/// elements, or contain NaN.
#[must_use]
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "samples must be paired");
    assert!(a.len() >= 2, "need at least two pairs");
    assert!(
        a.iter().chain(b).all(|x| !x.is_nan()),
        "sample contains NaN"
    );
    let ra = average_ranks(a);
    let rb = average_ranks(b);
    let n = ra.len() as f64;
    let ma = ra.iter().sum::<f64>() / n;
    let mb = rb.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in ra.iter().zip(&rb) {
        cov += (x - ma) * (y - mb);
        va += (x - ma).powi(2);
        vb += (y - mb).powi(2);
    }
    if va == 0.0 || vb == 0.0 {
        return 0.0;
    }
    // `(va * vb).sqrt()`, not `va.sqrt() * vb.sqrt()`: when the rank
    // vectors match exactly the former divides out to exactly ±1.
    cov / (va * vb).sqrt()
}

/// A two-sided confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ci {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// Confidence level, e.g. `0.95`.
    pub confidence: f64,
}

impl Ci {
    /// Whether the interval contains `x`.
    #[must_use]
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// Interval width.
    #[must_use]
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

/// Bootstrap percentile confidence interval for the mean.
///
/// # Examples
///
/// ```
/// use biaslab_core::stats::bootstrap_ci_mean;
///
/// let data: Vec<f64> = (0..40).map(|i| 1.0 + 0.01 * (i % 5) as f64).collect();
/// let ci = bootstrap_ci_mean(&data, 0.95, 1000, 42);
/// assert!(ci.lo <= 1.02 && 1.02 <= ci.hi);
/// ```
///
/// # Panics
///
/// Panics if `data` is empty, `resamples == 0`, or `confidence` is outside
/// `(0, 1)`.
#[must_use]
pub fn bootstrap_ci_mean(data: &[f64], confidence: f64, resamples: usize, seed: u64) -> Ci {
    assert!(!data.is_empty());
    assert!(resamples > 0);
    assert!(confidence > 0.0 && confidence < 1.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let n = data.len();
    let mut means = Vec::with_capacity(resamples);
    for _ in 0..resamples {
        let mut sum = 0.0;
        for _ in 0..n {
            sum += data[rng.gen_range(0..n)];
        }
        means.push(sum / n as f64);
    }
    let alpha = (1.0 - confidence) / 2.0;
    Ci {
        lo: quantile(&means, alpha),
        hi: quantile(&means, 1.0 - alpha),
        confidence,
    }
}

/// Two-sample permutation test for a difference in means. Returns the
/// two-sided p-value estimated from `permutations` random relabelings.
///
/// # Examples
///
/// ```
/// use biaslab_core::stats::permutation_test;
///
/// let fast = [100.0, 101.0, 99.0, 100.5];
/// let slow = [110.0, 111.0, 109.0, 110.5];
/// assert!(permutation_test(&fast, &slow, 200, 7) < 0.05);
/// ```
///
/// # Panics
///
/// Panics if either sample is empty or `permutations == 0`.
#[must_use]
pub fn permutation_test(a: &[f64], b: &[f64], permutations: usize, seed: u64) -> f64 {
    assert!(!a.is_empty() && !b.is_empty());
    assert!(permutations > 0);
    let observed = (Summary::of(a).mean - Summary::of(b).mean).abs();
    let mut pool: Vec<f64> = a.iter().chain(b).copied().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut at_least = 0usize;
    for _ in 0..permutations {
        // Partial Fisher–Yates: shuffle the first |a| into place.
        for i in 0..a.len() {
            let j = rng.gen_range(i..pool.len());
            pool.swap(i, j);
        }
        let ma = pool[..a.len()].iter().sum::<f64>() / a.len() as f64;
        let mb = pool[a.len()..].iter().sum::<f64>() / b.len() as f64;
        if (ma - mb).abs() >= observed {
            at_least += 1;
        }
    }
    (at_least + 1) as f64 / (permutations + 1) as f64
}

/// A violin-plot summary: the quantiles the repro figures print for each
/// benchmark's distribution of speedups across setups.
#[derive(Debug, Clone, PartialEq)]
pub struct ViolinSummary {
    /// Quantile levels, fixed at 0, 5, 25, 50, 75, 95, 100 percent.
    pub levels: [f64; 7],
    /// The sample quantile at each level.
    pub values: [f64; 7],
}

impl ViolinSummary {
    /// The quantile levels used.
    pub const LEVELS: [f64; 7] = [0.0, 0.05, 0.25, 0.50, 0.75, 0.95, 1.0];

    /// Summarizes a sample.
    ///
    /// # Examples
    ///
    /// ```
    /// use biaslab_core::stats::ViolinSummary;
    ///
    /// let v = ViolinSummary::of(&[0.99, 1.00, 1.01, 1.02]);
    /// assert!(v.straddles(1.005));
    /// assert_eq!(v.min(), 0.99);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    #[must_use]
    pub fn of(data: &[f64]) -> ViolinSummary {
        let mut values = [0.0; 7];
        for (v, &p) in values.iter_mut().zip(&Self::LEVELS) {
            *v = quantile(data, p);
        }
        ViolinSummary {
            levels: Self::LEVELS,
            values,
        }
    }

    /// Minimum (0th percentile).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.values[0]
    }

    /// Median.
    #[must_use]
    pub fn median(&self) -> f64 {
        self.values[3]
    }

    /// Maximum (100th percentile).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.values[6]
    }

    /// Whether the distribution straddles `x` (some values below, some
    /// above) — used to detect conclusion flips around a speedup of 1.0.
    #[must_use]
    pub fn straddles(&self, x: f64) -> bool {
        self.min() < x && x < self.max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.median - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.stddev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn single_point_summary() {
        let s = Summary::of(&[7.0]);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.median, 7.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let data = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&data, 0.0), 10.0);
        assert_eq!(quantile(&data, 1.0), 40.0);
        assert!((quantile(&data, 0.5) - 25.0).abs() < 1e-12);
        // Order must not matter.
        assert_eq!(
            quantile(&[40.0, 10.0, 30.0, 20.0], 0.5),
            quantile(&data, 0.5)
        );
    }

    #[test]
    fn geometric_mean_of_reciprocals_is_one() {
        let g = geometric_mean(&[2.0, 0.5, 4.0, 0.25]);
        assert!((g - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bootstrap_ci_covers_mean_and_is_deterministic() {
        let data: Vec<f64> = (0..50).map(|i| 10.0 + (i % 7) as f64).collect();
        let ci = bootstrap_ci_mean(&data, 0.95, 2000, 42);
        let mean = Summary::of(&data).mean;
        assert!(ci.contains(mean), "{ci:?} should contain {mean}");
        assert!(ci.width() > 0.0);
        assert_eq!(ci, bootstrap_ci_mean(&data, 0.95, 2000, 42));
        assert_ne!(ci, bootstrap_ci_mean(&data, 0.95, 2000, 43));
    }

    #[test]
    fn bootstrap_ci_narrows_with_sample_size() {
        let small: Vec<f64> = (0..10).map(|i| (i % 5) as f64).collect();
        let large: Vec<f64> = (0..640).map(|i| (i % 5) as f64).collect();
        let ci_s = bootstrap_ci_mean(&small, 0.95, 1000, 1);
        let ci_l = bootstrap_ci_mean(&large, 0.95, 1000, 1);
        assert!(ci_l.width() < ci_s.width());
    }

    #[test]
    fn permutation_test_detects_a_real_difference() {
        let a: Vec<f64> = (0..30).map(|i| 100.0 + (i % 3) as f64).collect();
        let b: Vec<f64> = (0..30).map(|i| 110.0 + (i % 3) as f64).collect();
        let p = permutation_test(&a, &b, 500, 7);
        assert!(p < 0.01, "clear difference should give small p, got {p}");
    }

    #[test]
    fn permutation_test_accepts_identical_distributions() {
        let a: Vec<f64> = (0..30).map(|i| (i % 10) as f64).collect();
        let b: Vec<f64> = (0..30).map(|i| ((i + 3) % 10) as f64).collect();
        let p = permutation_test(&a, &b, 500, 7);
        assert!(p > 0.05, "same distribution should give large p, got {p}");
    }

    #[test]
    fn violin_summary_orders_quantiles() {
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let v = ViolinSummary::of(&data);
        for w in v.values.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(v.min(), 0.0);
        assert_eq!(v.max(), 99.0);
        assert!(v.straddles(50.0));
        assert!(!v.straddles(1000.0));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_summary_panics() {
        let _ = Summary::of(&[]);
    }

    #[test]
    fn spearman_monotone_but_nonlinear_is_one() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [1.0, 8.0, 27.0, 64.0, 125.0];
        assert!((spearman(&a, &b) - 1.0).abs() < 1e-12);
        assert!((spearman(&a, &[0.0, -1.0, -8.0, -27.0, -64.0]) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_handles_ties_with_average_ranks() {
        // Ties inside one sample: correlation is still defined and
        // symmetric in the arguments.
        let a = [1.0, 1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0, 7.0];
        let r = spearman(&a, &b);
        assert!((r - spearman(&b, &a)).abs() < 1e-12);
        assert!(r > 0.9 && r <= 1.0);
    }

    #[test]
    fn spearman_constant_sample_is_zero() {
        assert_eq!(spearman(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn spearman_matches_hand_computation() {
        // Classic d²-formula check (no ties): ρ = 1 − 6Σd²/(n(n²−1)).
        let a = [
            106.0, 100.0, 86.0, 101.0, 99.0, 103.0, 97.0, 113.0, 112.0, 110.0,
        ];
        let b = [7.0, 27.0, 2.0, 50.0, 28.0, 29.0, 20.0, 12.0, 6.0, 17.0];
        let r = spearman(&a, &b);
        assert!((r - (-29.0 / 165.0)).abs() < 1e-12, "got {r}");
    }

    #[test]
    #[should_panic(expected = "paired")]
    fn spearman_rejects_mismatched_lengths() {
        let _ = spearman(&[1.0, 2.0], &[1.0, 2.0, 3.0]);
    }

    // -----------------------------------------------------------------
    // Statistical self-tests: the routines above back every confidence
    // interval and p-value the repro figures print, so these check their
    // *statistical* behaviour — nominal CI coverage and null p-value
    // uniformity — over many seeded trials, not just single answers.
    // Everything is deterministic from fixed seeds.

    /// Per-trial seed derivation (SplitMix-style) so trials are
    /// decorrelated but reproducible.
    fn trial_seed(base: u64, trial: u64) -> u64 {
        (base ^ trial.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(0x6A09_E667_F3BC_C909)
    }

    /// Fraction of `trials` in which a 95% bootstrap CI for the mean
    /// covers the distribution's true mean.
    fn bootstrap_coverage(
        draw: impl Fn(&mut StdRng, usize) -> Vec<f64>,
        true_mean: f64,
        n: usize,
        trials: usize,
        base_seed: u64,
    ) -> f64 {
        let mut covered = 0usize;
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(trial_seed(base_seed, t as u64));
            let data = draw(&mut rng, n);
            let ci = bootstrap_ci_mean(&data, 0.95, 300, trial_seed(!base_seed, t as u64));
            if ci.contains(true_mean) {
                covered += 1;
            }
        }
        covered as f64 / trials as f64
    }

    fn draw_uniform_ints(rng: &mut StdRng, n: usize) -> Vec<f64> {
        (0..n).map(|_| rng.gen_range(0..10u64) as f64).collect()
    }

    fn draw_exponential(rng: &mut StdRng, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| {
                // Inverse-CDF with rate 1: mean 1, right-skewed.
                let u: f64 = rng.gen();
                -(1.0 - u).ln()
            })
            .collect()
    }

    #[test]
    fn bootstrap_ci_coverage_is_nominal_on_uniform_ints() {
        // Uniform over {0..9}: true mean 4.5. Coverage of the percentile
        // bootstrap at 95% must land within ±3 points of nominal.
        let cov = bootstrap_coverage(draw_uniform_ints, 4.5, 30, 500, 0xB007_5714);
        assert!(
            (cov - 0.95).abs() <= 0.03,
            "uniform-int coverage {cov:.3} outside 0.95 ± 0.03"
        );
    }

    #[test]
    fn bootstrap_ci_coverage_is_nominal_on_exponential() {
        // Exponential(1): true mean 1. The skew stresses the percentile
        // interval harder than any symmetric distribution does, so this
        // needs a larger n than the uniform case to reach nominal.
        let cov = bootstrap_coverage(draw_exponential, 1.0, 150, 500, 0xE4B0_0757);
        assert!(
            (cov - 0.95).abs() <= 0.03,
            "exponential coverage {cov:.3} outside 0.95 ± 0.03"
        );
    }

    #[test]
    fn permutation_p_values_are_uniform_under_the_null() {
        // Both samples from the same distribution: the p-value must be
        // (approximately) uniform on (0, 1]. Check the mean and the
        // empirical CDF at several quantiles over 500 seeded trials.
        const TRIALS: usize = 500;
        const PERMS: usize = 200;
        let mut ps = Vec::with_capacity(TRIALS);
        for t in 0..TRIALS {
            let mut rng = StdRng::seed_from_u64(trial_seed(0x0A11_5AFE, t as u64));
            let a: Vec<f64> = (0..12).map(|_| rng.gen::<f64>()).collect();
            let b: Vec<f64> = (0..12).map(|_| rng.gen::<f64>()).collect();
            ps.push(permutation_test(
                &a,
                &b,
                PERMS,
                trial_seed(0x5EED_CAFE, t as u64),
            ));
        }
        // The (k+1)/(N+1) estimator is supported on {1/(N+1), …, 1}.
        let floor = 1.0 / (PERMS + 1) as f64;
        assert!(ps.iter().all(|&p| (floor..=1.0).contains(&p)));
        let mean = Summary::of(&ps).mean;
        assert!(
            (mean - 0.5).abs() <= 0.04,
            "null p-values should average ~0.5, got {mean:.3}"
        );
        for q in [0.05, 0.10, 0.25, 0.50, 0.75] {
            let frac = ps.iter().filter(|&&p| p <= q).count() as f64 / TRIALS as f64;
            assert!(
                (frac - q).abs() <= 0.05,
                "P(p <= {q}) should be ~{q}, got {frac:.3}"
            );
        }
    }

    #[test]
    fn permutation_test_rejection_rate_matches_its_level() {
        // Complementary view: rejecting at α = 0.05 on null data must
        // happen about 5% of the time (within 3 points over 500 trials —
        // the estimator is slightly conservative by construction).
        const TRIALS: usize = 500;
        let mut rejections = 0usize;
        for t in 0..TRIALS {
            let mut rng = StdRng::seed_from_u64(trial_seed(0xA1FA_0005, t as u64));
            let a = draw_uniform_ints(&mut rng, 15);
            let b = draw_uniform_ints(&mut rng, 15);
            if permutation_test(&a, &b, 200, trial_seed(0x0B57_AC1E, t as u64)) <= 0.05 {
                rejections += 1;
            }
        }
        let rate = rejections as f64 / TRIALS as f64;
        assert!(
            rate <= 0.08,
            "false-positive rate {rate:.3} exceeds α + 3 points"
        );
        assert!(rate >= 0.01, "rejection rate {rate:.3} implausibly low");
    }
}
