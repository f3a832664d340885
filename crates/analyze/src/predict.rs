//! The predictor: turn layer-2 facts into per-factor sensitivity scores
//! and a ranking index, with a human-readable report.
//!
//! Each setup factor gets a dimensionless score in (roughly) `[0, 1]`.
//! The ranked observable is the **O3/O2 speedup — a ratio** — so every
//! score targets the part of the layout response the two optimization
//! levels do *not* share; whatever hits both images identically cancels
//! out of the ratio no matter how many cycles it moves:
//!
//! * **env size** — how much of the hot memory traffic is a paired
//!   stack/other stream (the loader moves only the stack), times the
//!   *divergence* of the two levels' per-function stack profiles: when
//!   inlining re-homes hot stack traffic into different frames, the two
//!   levels respond to the same stack shift differently;
//! * **link order** — the between-level dispersion of the
//!   address-derived metrics (I-cache overflow, BTB/gshare collisions,
//!   fetch straddles) across statically re-linked permutations of the
//!   object files, scaled by the hot code's branch density (straight-line
//!   kernels hide front-end bubbles behind data stalls);
//! * **text offset** — the same construction across whole-text shifts,
//!   which preserve inter-function deltas and so isolate the
//!   alignment-sensitive part.
//!
//! The sum is the benchmark's predicted-spread index, used to rank
//! benchmarks by how far their measured O3/O2 speedup should move when a
//! careless experimenter varies the setup.

use std::fmt;

use biaslab_toolchain::opt::OptLevel;
use biaslab_uarch::MachineConfig;

use crate::image::{ImageFacts, StackFacts};

/// A setup factor the analyzer scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Factor {
    /// Environment size (moves the initial stack pointer).
    EnvSize,
    /// Object-file link order (moves every function).
    LinkOrder,
    /// Whole-text link offset (shifts all code together).
    TextOffset,
}

impl fmt::Display for Factor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Factor::EnvSize => "env size",
            Factor::LinkOrder => "link order",
            Factor::TextOffset => "text offset",
        })
    }
}

/// One factor's predicted sensitivity.
#[derive(Debug, Clone)]
pub struct FactorScore {
    /// The factor.
    pub factor: Factor,
    /// Dimensionless sensitivity index (larger = more biasable).
    pub score: f64,
    /// One-line mechanistic justification.
    pub rationale: String,
}

/// Everything the analyzer computed for one optimization level.
#[derive(Debug, Clone)]
pub struct LevelAnalysis {
    /// The optimization level the image was compiled at.
    pub level: OptLevel,
    /// Facts for the default-order, zero-offset image.
    pub base: ImageFacts,
    /// Facts for alternative link orders (same offset).
    pub order_variants: Vec<ImageFacts>,
    /// Facts for alternative text offsets (same order).
    pub offset_variants: Vec<ImageFacts>,
    /// Stack-placement response and traffic mix.
    pub stack: StackFacts,
    /// The hottest functions `(name, weight)`, heaviest first.
    pub hot_functions: Vec<(String, f64)>,
}

/// The analyzer's verdict for one (benchmark, machine) pair.
#[derive(Debug, Clone)]
pub struct SensitivityReport {
    /// Benchmark name.
    pub bench: String,
    /// Machine model name.
    pub machine: String,
    /// Per-factor scores, in `[env size, link order, text offset]` order.
    pub factors: Vec<FactorScore>,
    /// Summed sensitivity index: the predicted O3/O2-spread ranking key.
    pub predicted_spread: f64,
    /// Per-level detail for `--explain`.
    pub levels: Vec<LevelAnalysis>,
}

/// Metric weights for link-order dispersion: I-cache conflicts dominate,
/// then predictor aliasing, then front-end alignment (entry straddle and
/// loop-body fetch/line footprint).
const ORDER_WEIGHTS: [f64; 7] = [0.30, 0.20, 0.15, 0.05, 0.15, 0.10, 0.05];
/// Metric weights for text-offset dispersion: a uniform shift preserves
/// inter-function deltas, so the alignment metrics carry most of it.
const OFFSET_WEIGHTS: [f64; 7] = [0.15, 0.05, 0.05, 0.15, 0.35, 0.20, 0.05];

fn metrics(f: &ImageFacts) -> [f64; 7] {
    [
        f.l1i.overflow,
        f.btb_conflict,
        f.gshare_conflict,
        f.entry_straddle,
        f.loop_fetch_excess,
        f.loop_line_excess,
        f.itlb.overflow,
    ]
}

/// Weighted range (max − min) of each metric across image variants.
fn dispersion(base: &ImageFacts, variants: &[ImageFacts], weights: &[f64; 7]) -> f64 {
    let mut lo = metrics(base);
    let mut hi = lo;
    for v in variants {
        for (i, m) in metrics(v).iter().enumerate() {
            lo[i] = lo[i].min(*m);
            hi[i] = hi[i].max(*m);
        }
    }
    weights
        .iter()
        .zip(lo.iter().zip(&hi))
        .map(|(w, (l, h))| w * (h - l))
        .sum()
}

/// Weighted range of the **between-level metric difference** across
/// paired image variants.
///
/// The predicted observable is the O3/O2 speedup, a ratio: a setup
/// effect that hits both levels identically cancels out of it. What
/// moves the ratio is the part of the layout response the two images do
/// *not* share, so the dispersion that matters is of
/// `metrics(hi level) − metrics(lo level)` per variant, not of either
/// level's metrics alone.
fn delta_dispersion(
    lo: &LevelAnalysis,
    hi: &LevelAnalysis,
    offsets: bool,
    weights: &[f64; 7],
) -> f64 {
    let series = |l: &LevelAnalysis| -> Vec<[f64; 7]> {
        let variants = if offsets {
            &l.offset_variants
        } else {
            &l.order_variants
        };
        std::iter::once(&l.base)
            .chain(variants)
            .map(metrics)
            .collect()
    };
    let a = series(lo);
    let b = series(hi);
    let mut min_d = [f64::INFINITY; 7];
    let mut max_d = [f64::NEG_INFINITY; 7];
    for (ma, mb) in a.iter().zip(&b) {
        for k in 0..7 {
            let d = mb[k] - ma[k];
            min_d[k] = min_d[k].min(d);
            max_d[k] = max_d[k].max(d);
        }
    }
    if min_d[0] == f64::INFINITY {
        return 0.0;
    }
    weights
        .iter()
        .zip(min_d.iter().zip(&max_d))
        .map(|(w, (l, h))| w * (h - l))
        .sum()
}

/// One level's environment-size response: how much of its hot traffic
/// the moving stack can perturb on this machine.
fn stack_response(m: &MachineConfig, s: &StackFacts) -> f64 {
    s.paired_traffic() * s.memory_intensity() * machine_stack_factor(m, s)
}

/// Total-variation distance between two levels' per-function stack
/// profiles, in `[0, 1]`.
///
/// When the two images put their hot stack traffic in the *same* frames
/// (same functions, same shares — e.g. `O3` only unrolled the loop the
/// traffic lives in), a stack shift moves both levels' bank/set residues
/// in lockstep and the response cancels out of the O3/O2 ratio. Inlining
/// breaks that: callee frames merge into callers, the traffic moves to
/// different frames, and the two levels respond to the same shift
/// differently. The distance measures exactly how much of the traffic
/// moved.
fn stack_divergence(a: &StackFacts, b: &StackFacts) -> f64 {
    let (mut i, mut j) = (0, 0);
    let mut tv = 0.0;
    while i < a.stack_profile.len() || j < b.stack_profile.len() {
        let sa = a.stack_profile.get(i);
        let sb = b.stack_profile.get(j);
        match (sa, sb) {
            (Some((na, va)), Some((nb, vb))) => match na.cmp(nb) {
                std::cmp::Ordering::Equal => {
                    tv += (va - vb).abs();
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => {
                    tv += va;
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    tv += vb;
                    j += 1;
                }
            },
            (Some((_, va)), None) => {
                tv += va;
                i += 1;
            }
            (None, Some((_, vb))) => {
                tv += vb;
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    tv / 2.0
}

/// How strongly this machine converts a moving stack pointer into
/// cycles: banking (if enabled and the grid visits several banks),
/// set-residue spread, and low associativity.
fn machine_stack_factor(m: &MachineConfig, s: &StackFacts) -> f64 {
    let bank = if m.l1d_banks > 1 && m.bank_conflict_penalty > 0 && s.bank_classes > 1 {
        f64::from(m.bank_conflict_penalty).min(4.0) / 4.0
    } else {
        0.0
    };
    let line = if s.line_classes > 1 { 1.0 } else { 0.0 };
    let assoc = 1.0 / f64::from(m.l1d.ways);
    0.5 * bank + 0.3 * line + 0.2 * assoc
}

/// Scores every factor from per-level analyses.
///
/// # Panics
///
/// Panics if `levels` is empty.
#[must_use]
pub fn predict(
    bench: &str,
    machine: &MachineConfig,
    levels: Vec<LevelAnalysis>,
) -> SensitivityReport {
    assert!(!levels.is_empty(), "need at least one analyzed level");

    // The ranked observable is the O3/O2 ratio, so with two levels in
    // hand every factor scores the *between-level difference* of the
    // setup response; a lone level falls back to its own magnitude.
    //
    // * env size: the moving stack perturbs paired stack/memory traffic
    //   (magnitude), but only the part whose frames the levels do *not*
    //   share survives the ratio (stack-profile divergence);
    // * link order / text offset: front-end effects — the between-level
    //   dispersion of the address-derived metrics, scaled by how
    //   branch-bound the hot code is (a straight-line kernel hides a
    //   fetch bubble behind its data stalls; an interpreter does not).
    let (env, link, offset) = if let [lo, .., hi] = levels.as_slice() {
        let interaction = 0.5
            * (lo.stack.paired_traffic() * lo.stack.memory_intensity()
                + hi.stack.paired_traffic() * hi.stack.memory_intensity());
        let density = 0.5 * (lo.stack.branch_density() + hi.stack.branch_density());
        (
            machine_stack_factor(machine, &lo.stack)
                * interaction
                * stack_divergence(&lo.stack, &hi.stack),
            density * delta_dispersion(lo, hi, false, &ORDER_WEIGHTS),
            density * delta_dispersion(lo, hi, true, &OFFSET_WEIGHTS),
        )
    } else {
        let l = &levels[0];
        let density = l.stack.branch_density();
        (
            stack_response(machine, &l.stack),
            density * dispersion(&l.base, &l.order_variants, &ORDER_WEIGHTS),
            density * dispersion(&l.base, &l.offset_variants, &OFFSET_WEIGHTS),
        )
    };

    let s0 = &levels[0].stack;
    let divergence = if let [lo, .., hi] = levels.as_slice() {
        stack_divergence(&lo.stack, &hi.stack)
    } else {
        1.0
    };
    let factors = vec![
        FactorScore {
            factor: Factor::EnvSize,
            score: env,
            rationale: format!(
                "{:.0}% of the hot stack traffic sits in frames the levels do not \
                 share (paired traffic {:.2}); sp visits {} bank / {} line / {} set \
                 classes over the env grid",
                100.0 * divergence,
                s0.paired_traffic(),
                s0.bank_classes,
                s0.line_classes,
                s0.set_classes,
            ),
        },
        FactorScore {
            factor: Factor::LinkOrder,
            score: link,
            rationale: format!(
                "re-linking {} orders moves the between-level L1I / BTB / gshare / \
                 alignment gap; scaled by branch density {:.2} of the hot code",
                levels[0].order_variants.len() + 1,
                s0.branch_density(),
            ),
        },
        FactorScore {
            factor: Factor::TextOffset,
            score: offset,
            rationale: format!(
                "shifting the text over {} offsets moves the between-level \
                 alignment gap; scaled by branch density {:.2} of the hot code",
                levels[0].offset_variants.len() + 1,
                s0.branch_density(),
            ),
        },
    ];
    SensitivityReport {
        bench: bench.to_owned(),
        machine: machine.name.clone(),
        predicted_spread: env + link + offset,
        factors,
        levels,
    }
}

impl SensitivityReport {
    /// The score of one factor.
    ///
    /// # Panics
    ///
    /// Panics if the factor is missing from the report (never happens
    /// for reports built by [`predict`]).
    #[must_use]
    pub fn score(&self, factor: Factor) -> f64 {
        self.factors
            .iter()
            .find(|f| f.factor == factor)
            .expect("factor present")
            .score
    }

    /// The long-form rendering behind `biaslab analyze --explain`:
    /// per-level image facts and hot-function attribution on top of the
    /// factor table.
    #[must_use]
    pub fn explain(&self) -> String {
        use std::fmt::Write as _;
        let mut out = self.to_string();
        for l in &self.levels {
            let _ = writeln!(out, "\n[{}] image facts", l.level.name());
            let _ = writeln!(
                out,
                "  text {} B, {} transfer sites, total hot weight {:.2}",
                l.base.text_bytes,
                l.base.branch_sites.len(),
                l.base.total_weight,
            );
            let _ = writeln!(
                out,
                "  L1I overflow {:.4}  L2 overflow {:.4}  ITLB overflow {:.4}",
                l.base.l1i.overflow, l.base.l2.overflow, l.base.itlb.overflow,
            );
            let _ = writeln!(
                out,
                "  BTB conflict {:.4}  gshare conflict {:.4}  entry straddle {:.4}  page crossers {:.4}",
                l.base.btb_conflict, l.base.gshare_conflict, l.base.entry_straddle, l.base.page_crossers,
            );
            let _ = writeln!(
                out,
                "  loop fetch excess {:.4}  loop line excess {:.4}",
                l.base.loop_fetch_excess, l.base.loop_line_excess,
            );
            let _ = writeln!(
                out,
                "  stack: {} bank / {} line / {} set / {} dtlb classes, paired {:.2}",
                l.stack.bank_classes,
                l.stack.line_classes,
                l.stack.set_classes,
                l.stack.dtlb_classes,
                l.stack.paired_traffic(),
            );
            let hot: Vec<String> = l
                .hot_functions
                .iter()
                .map(|(n, w)| format!("{n} {w:.3}"))
                .collect();
            let _ = writeln!(out, "  hot: {}", hot.join(", "));
        }
        out
    }
}

impl fmt::Display for SensitivityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "sensitivity report: {} on {} (static, no simulation)",
            self.bench, self.machine
        )?;
        for s in &self.factors {
            writeln!(
                f,
                "  {:<11} {:.4}  — {}",
                s.factor.to_string(),
                s.score,
                s.rationale
            )?;
        }
        write!(f, "  predicted-spread index {:.4}", self.predicted_spread)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_facts(x: f64) -> ImageFacts {
        ImageFacts {
            text_bytes: 1024,
            total_weight: 1.0,
            l1i: crate::image::SetPressure { overflow: x },
            l2: crate::image::SetPressure { overflow: 0.0 },
            itlb: crate::image::SetPressure { overflow: 0.0 },
            branch_sites: vec![],
            btb_conflict: x / 2.0,
            gshare_conflict: 0.0,
            entry_straddle: 0.0,
            loop_fetch_excess: 0.0,
            loop_line_excess: 0.0,
            page_crossers: 0.0,
        }
    }

    fn fake_stack() -> StackFacts {
        StackFacts {
            bank_classes: 4,
            line_classes: 4,
            set_classes: 4,
            dtlb_classes: 1,
            stack_traffic: 1.0,
            mem_traffic: 1.0,
            branch_traffic: 0.5,
            total_traffic: 4.0,
            stack_profile: vec![(("main".into(), 32), 1.0)],
        }
    }

    #[test]
    fn dispersion_is_zero_without_variation() {
        let base = fake_facts(0.25);
        assert_eq!(dispersion(&base, &[fake_facts(0.25)], &ORDER_WEIGHTS), 0.0);
        let d = dispersion(&base, &[fake_facts(0.5)], &ORDER_WEIGHTS);
        assert!(d > 0.0);
    }

    #[test]
    fn predict_sums_factors() {
        let machine = MachineConfig::core2();
        let level = LevelAnalysis {
            level: OptLevel::O2,
            base: fake_facts(0.2),
            order_variants: vec![fake_facts(0.4)],
            offset_variants: vec![fake_facts(0.2)],
            stack: fake_stack(),
            hot_functions: vec![("main".into(), 1.0)],
        };
        let r = predict("demo", &machine, vec![level]);
        assert_eq!(r.factors.len(), 3);
        let sum: f64 = r.factors.iter().map(|f| f.score).sum();
        assert!((sum - r.predicted_spread).abs() < 1e-12);
        assert!(r.score(Factor::LinkOrder) > 0.0);
        assert_eq!(r.score(Factor::TextOffset), 0.0);
        let text = r.explain();
        assert!(text.contains("sensitivity report: demo on core2"));
        assert!(text.contains("image facts"));
    }

    #[test]
    fn env_score_needs_paired_traffic() {
        let machine = MachineConfig::core2();
        let mut stack = fake_stack();
        stack.stack_traffic = 0.0;
        let level = LevelAnalysis {
            level: OptLevel::O3,
            base: fake_facts(0.0),
            order_variants: vec![],
            offset_variants: vec![],
            stack,
            hot_functions: vec![],
        };
        let r = predict("demo", &machine, vec![level]);
        assert_eq!(r.score(Factor::EnvSize), 0.0);
    }
}
