//! `biaslint` — layout-hazard diagnostics with named mechanisms.
//!
//! PR 3's analyzer summarizes a benchmark's layout sensitivity in one
//! score; this module takes the same facts to the diagnostic level. Each
//! *finding* names a concrete hazard the paper's bias factors act
//! through — a hot loop back-edge straddling a fetch window, two hot
//! branches aliasing in the BTB, a hot frame changing stack residue
//! class across the environment grid, an alignment-sensitive function
//! entry — plus two pure-dataflow defects (dead stores, possibly
//! uninitialized reads) surfaced by the new `toolchain::dataflow`
//! passes. Severity is ranked by the PR 3 hotness model; every finding
//! carries a remedy from the paper's fig9/fig10 toolkit (alignment
//! directive, padding, link-order pin, setup randomization).
//!
//! Two disciplines keep the output honest:
//!
//! * **Zero simulation.** Everything here is compile + link + address
//!   arithmetic; the orchestrator's `simulated` counter is untouched
//!   (pinned by tests). Lint is allowed on the critical path of an
//!   experiment precisely because it cannot perturb one.
//! * **Pre-registered remedies.** A layout finding is emitted only if
//!   *statically re-linking with its remedy applied* reduces the hazard
//!   metric (Russo & Zou: confirm exploration with a targeted
//!   experiment, decided in advance). The `ext-lint` experiment then
//!   measures each remedy in simulation and reports precision.
//!
//! Findings render as text ([`LintReport::render`]) or as JSONL
//! ([`LintReport::to_jsonl`], schema checked by
//! [`validate_lint_line`]) for the CI gate and golden snapshots.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::Arc;

use biaslab_core::jsonl::Fields;
use biaslab_core::telemetry::metrics;
use biaslab_core::{Harness, LinkOrder, Orchestrator};
use biaslab_toolchain::dataflow::Lattice;
use biaslab_toolchain::ir::{Op, Terminator};
use biaslab_toolchain::link::{Executable, Linker};
use biaslab_toolchain::obj::CompiledModule;
use biaslab_toolchain::opt::{optimize, OptLevel};
use biaslab_uarch::MachineConfig;

use crate::driver::{env_grid, LEVELS, OFFSETS, ORDERS};
use crate::hotness::{compress, ModuleHotness};
use crate::image::{image_facts, BranchSite, ImageFacts, StackFacts};
use crate::passes::PassManager;

/// Compressed image-weight floor below which a site or function is not
/// "hot" enough to lint (the compression maps even 1%-weight helpers
/// near 0.6, so this keeps genuinely cold code out).
const HOT_WEIGHT: f64 = 0.5;

/// A straddle finding requires the value-range pass to *prove* a loop
/// trip bound of at least this many iterations. Below it the padding
/// remedy cannot beat the entry-alignment cost it introduces; and a
/// data-dependent (unproven) bound is where the static hotness model
/// and the dynamic trip counts diverge, which causal validation
/// punishes.
const MIN_TRIPS: u64 = 8;

/// A BTB pair must collide under at least this many of the 9 re-link
/// grid layouts (base + 4 orders + 4 text offsets) to be reported.
/// Whole-text offsets preserve address differences, so any base
/// collision survives all 4 offset re-links; the bar is therefore "and
/// at least one alternative link order too".
const MIN_GRID_HITS: u32 = 6;

/// Strict-improvement slack for the static pre-registration checks.
const EPS: f64 = 1e-9;

/// A straddle finding's padded re-link must cut the global weighted
/// loop fetch excess to at most this fraction of the base — a marginal
/// static win does not survive the dynamic noise of everything else the
/// pad shifts downstream.
const STRADDLE_MARGIN: f64 = 0.9;

/// Findings reported per class per optimization level.
const PER_CLASS_CAP: usize = 2;

/// The finding taxonomy. Every class names one layout (or dataflow)
/// mechanism and predicts which counter its remedy moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingClass {
    /// A hot loop body spans more fetch windows than its size requires.
    LoopFetchStraddle,
    /// A hot function entry lands mid fetch window.
    EntryAlignment,
    /// Two hot branch sites share a BTB slot across most of the re-link
    /// grid.
    BtbCollision,
    /// The hot stack frame changes L1D bank/line residue class as the
    /// environment size varies.
    StackResidue,
    /// A store to a local is dead on every path (liveness).
    DeadStore,
    /// A load of a local may read uninitialized storage (reaching defs).
    UninitRead,
}

impl FindingClass {
    /// Every class, in severity-tie ordering.
    pub const ALL: [FindingClass; 6] = [
        FindingClass::LoopFetchStraddle,
        FindingClass::EntryAlignment,
        FindingClass::BtbCollision,
        FindingClass::StackResidue,
        FindingClass::DeadStore,
        FindingClass::UninitRead,
    ];

    /// Stable machine-readable name (what `--deny` matches).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FindingClass::LoopFetchStraddle => "loop-fetch-straddle",
            FindingClass::EntryAlignment => "entry-alignment",
            FindingClass::BtbCollision => "btb-collision",
            FindingClass::StackResidue => "stack-residue",
            FindingClass::DeadStore => "dead-store",
            FindingClass::UninitRead => "uninit-read",
        }
    }

    /// Parses a class name.
    #[must_use]
    pub fn parse(s: &str) -> Option<FindingClass> {
        FindingClass::ALL.into_iter().find(|c| c.name() == s)
    }

    /// The counter the remedy is predicted to move (down), or the
    /// validation metric for grid classes. `none` for pure dataflow
    /// defects, which have no layout remedy to measure.
    #[must_use]
    pub fn predicted_metric(self) -> &'static str {
        match self {
            FindingClass::LoopFetchStraddle | FindingClass::EntryAlignment => "fetches",
            FindingClass::BtbCollision => "btb_misses",
            FindingClass::StackResidue => "cycle_range",
            FindingClass::DeadStore | FindingClass::UninitRead => "none",
        }
    }
}

/// A suggested intervention from the paper's fig9/fig10 toolkit.
#[derive(Debug, Clone, PartialEq)]
pub enum Remedy {
    /// Raise the link-time alignment of a symbol (alignment directive).
    Align {
        /// Symbol to align.
        symbol: String,
        /// Requested alignment in bytes.
        align: u32,
    },
    /// Insert padding before a symbol's placement.
    Pad {
        /// Symbol to pad.
        symbol: String,
        /// Padding in bytes.
        bytes: u32,
    },
    /// Pin the link order to a specific named permutation.
    LinkOrderPin {
        /// The order whose static hazard metric is lowest.
        order: LinkOrder,
    },
    /// Randomize the experimental setup (environment / stack placement)
    /// across repetitions instead of holding one layout fixed.
    SetupRandomization,
    /// Not layout-correctable: fix the source.
    CodeFix,
}

/// The canonical CLI token for a link order (what `--order` parses).
#[must_use]
pub fn order_token(order: LinkOrder) -> String {
    match order {
        LinkOrder::Default => "default".to_owned(),
        LinkOrder::Reversed => "reversed".to_owned(),
        LinkOrder::Alphabetical => "alphabetical".to_owned(),
        LinkOrder::Random(seed) => format!("rand:{seed}"),
    }
}

impl Remedy {
    /// Stable machine-readable kind.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Remedy::Align { .. } => "align",
            Remedy::Pad { .. } => "pad",
            Remedy::LinkOrderPin { .. } => "link-order-pin",
            Remedy::SetupRandomization => "setup-randomization",
            Remedy::CodeFix => "code-fix",
        }
    }

    /// Machine-readable argument (empty when the kind says it all).
    #[must_use]
    pub fn arg(&self) -> String {
        match self {
            Remedy::Align { symbol, align } => format!("{symbol}:{align}"),
            Remedy::Pad { symbol, bytes } => format!("{symbol}:{bytes}"),
            Remedy::LinkOrderPin { order } => order_token(*order),
            Remedy::SetupRandomization | Remedy::CodeFix => String::new(),
        }
    }

    /// Human-readable description.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            Remedy::Align { symbol, align } => format!("align `{symbol}` to {align} B"),
            Remedy::Pad { symbol, bytes } => format!("pad `{symbol}` by {bytes} B"),
            Remedy::LinkOrderPin { order } => {
                format!("pin link order to `{}`", order_token(*order))
            }
            Remedy::SetupRandomization => "randomize the setup across repetitions".to_owned(),
            Remedy::CodeFix => "fix at the source level".to_owned(),
        }
    }
}

/// One structured finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Hazard class.
    pub class: FindingClass,
    /// Optimization level of the image the hazard was found in.
    pub level: OptLevel,
    /// The function the hazard is attributed to.
    pub function: String,
    /// Hotness-model severity (finite, `>= 0`; higher is worse).
    pub severity: f64,
    /// Human-readable mechanism statement with concrete addresses.
    pub detail: String,
    /// Suggested intervention.
    pub remedy: Remedy,
}

/// Everything one `biaslint` run over a benchmark produced.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Benchmark name.
    pub bench: String,
    /// Machine model name.
    pub machine: String,
    /// Findings, most severe first.
    pub findings: Vec<Finding>,
    /// Distinct `(pass, function)` dataflow computations performed.
    pub passes_run: u64,
    /// Functions with at least one pass run.
    pub functions_analyzed: u64,
}

impl LintReport {
    /// Whether any finding has the given class.
    #[must_use]
    pub fn has_class(&self, class: FindingClass) -> bool {
        self.findings.iter().any(|f| f.class == class)
    }

    /// Renders the report as human-readable text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "biaslint: {} on {} — {} finding{} (passes run {}, functions analyzed {})",
            self.bench,
            self.machine,
            self.findings.len(),
            if self.findings.len() == 1 { "" } else { "s" },
            self.passes_run,
            self.functions_analyzed,
        );
        for (i, f) in self.findings.iter().enumerate() {
            let _ = writeln!(
                out,
                "  {:>2}. [{}] {:<20} sev {:.4}  fn {} — remedy: {}",
                i + 1,
                f.level.name(),
                f.class.name(),
                f.severity,
                f.function,
                f.remedy.describe(),
            );
            let _ = writeln!(out, "      {}", f.detail);
        }
        out
    }

    /// Renders the report as JSONL: one `ev:lint` header line followed
    /// by one `ev:finding` line per finding. Every line satisfies
    /// [`validate_lint_line`].
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"v\":1,\"ev\":\"lint\",\"bench\":\"{}\",\"machine\":\"{}\",\"findings\":{},\"passes_run\":{},\"functions_analyzed\":{}}}",
            self.bench,
            self.machine,
            self.findings.len(),
            self.passes_run,
            self.functions_analyzed,
        );
        for f in &self.findings {
            let _ = writeln!(
                out,
                "{{\"v\":1,\"ev\":\"finding\",\"bench\":\"{}\",\"machine\":\"{}\",\"level\":\"{}\",\"class\":\"{}\",\"function\":\"{}\",\"severity\":{:.4},\"metric\":\"{}\",\"remedy\":\"{}\",\"arg\":\"{}\",\"detail\":\"{}\"}}",
                self.bench,
                self.machine,
                f.level.name(),
                f.class.name(),
                f.function,
                f.severity,
                f.class.predicted_metric(),
                f.remedy.kind(),
                f.remedy.arg(),
                sanitize(&f.detail),
            );
        }
        out
    }
}

/// JSON string bodies stay quote- and backslash-free by construction;
/// this enforces it against future detail-format drift.
fn sanitize(s: &str) -> String {
    s.replace(['"', '\\'], "'")
}

/// Validates one line of [`LintReport::to_jsonl`] output against the
/// findings schema (one well-formed object per [`Fields::scan`]; `v:1`;
/// `ev:lint` headers and `ev:finding` records with exactly their keys in
/// canonical order; known class names; finite non-negative severity).
///
/// # Errors
///
/// Returns a message naming the first violated rule.
pub fn validate_lint_line(line: &str) -> Result<(), String> {
    let f = Fields::scan(line).ok_or("line is not one well-formed JSON object")?;
    if f.raw("v") != Some("1") {
        return Err("missing schema version v:1".to_owned());
    }
    let ev = f.str("ev").ok_or("missing ev")?;
    let keys: &[&str] = match ev {
        "lint" => &[
            "v",
            "ev",
            "bench",
            "machine",
            "findings",
            "passes_run",
            "functions_analyzed",
        ],
        "finding" => &[
            "v", "ev", "bench", "machine", "level", "class", "function", "severity", "metric",
            "remedy", "arg", "detail",
        ],
        other => return Err(format!("unknown event `{other}`")),
    };
    if !f.keys_are(keys) {
        return Err(format!("keys are not the `{ev}` schema {keys:?}"));
    }
    if ev == "finding" {
        let class = f.str("class").ok_or("class is not a string")?;
        if FindingClass::parse(class).is_none() {
            return Err(format!("unknown finding class `{class}`"));
        }
        let sev = f.raw("severity").ok_or("missing severity")?;
        let sev: f64 = sev
            .parse()
            .map_err(|_| format!("severity `{sev}` is not a number"))?;
        if !sev.is_finite() || sev < 0.0 {
            return Err(format!("severity {sev} out of range"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The lint driver
// ---------------------------------------------------------------------------

/// Function symbols in the text with their compressed hotness:
/// `(name, addr, size, weight)`, symbol order.
fn text_functions(exe: &Executable, hot: &ModuleHotness) -> Vec<(String, u32, u32, f64)> {
    let text_end = exe.text_base() + exe.text_size();
    exe.symbols()
        .iter()
        .filter(|s| s.addr >= exe.text_base() && s.addr < text_end && s.size > 0)
        .map(|s| (s.name.clone(), s.addr, s.size, hot.image_weight(&s.name)))
        .collect()
}

fn containing(funcs: &[(String, u32, u32, f64)], pc: u32) -> Option<&(String, u32, u32, f64)> {
    funcs
        .iter()
        .find(|&&(_, addr, size, _)| pc >= addr && pc < addr + size)
}

/// Everything the per-level detectors need: the optimized module's
/// passes and hotness, the base image, and the 8-layout re-link grid.
struct LevelLint<'a> {
    machine: &'a MachineConfig,
    level: OptLevel,
    entry: &'a str,
    hot: &'a ModuleHotness,
    pm: &'a PassManager<'a>,
    base: &'a ImageFacts,
    funcs: &'a [(String, u32, u32, f64)],
    variants: &'a [(Arc<Executable>, ImageFacts)],
    cm: &'a CompiledModule,
    default_order: &'a [usize],
}

impl LevelLint<'_> {
    /// Statically re-links with a layout ablation applied and returns
    /// the resulting image facts (the pre-registration check; compile +
    /// link only).
    fn relink(&self, ablate: impl FnOnce(Linker) -> Linker) -> Result<ImageFacts, String> {
        let linker = ablate(Linker::new().object_order(self.default_order.to_vec()));
        let exe = linker
            .link(self.cm, self.entry)
            .map_err(|e| format!("ablated re-link failed: {e:?}"))?;
        Ok(image_facts(&exe, self.hot, self.machine))
    }

    /// Largest loop trip bound the value-range pass can prove for
    /// `function`, if any loop's bound folds to a constant.
    fn trip_bound(&self, function: &str) -> Option<u64> {
        let fi = self.pm.find(function)?;
        let f = self.pm.function(fi);
        if f.loops.is_empty() {
            return None;
        }
        let ranges = self.pm.ranges(fi);
        f.loops
            .iter()
            .filter_map(|lp| {
                let hb = lp.header.0 as usize;
                let block = f.blocks.get(hb)?;
                let Terminator::Branch { a, b, .. } = &block.term else {
                    return None;
                };
                let ind = block.ops.iter().find_map(|op| match *op {
                    Op::LoadLocal {
                        dst,
                        local,
                        offset: 0,
                    } if local == lp.induction => Some(dst),
                    _ => None,
                })?;
                let bound = if *a == ind {
                    *b
                } else if *b == ind {
                    *a
                } else {
                    return None;
                };
                let vals = ranges.vals_in_block(f, hb);
                let n = vals.get(bound.0 as usize)?.as_const()?;
                let init = match ranges.cell_in(hb, lp.induction, 0) {
                    Lattice::Const(c) => c,
                    Lattice::Range { lo, .. } => lo,
                    _ => 0,
                };
                Some(n.saturating_sub(init).max(1))
            })
            .max()
    }

    /// Class 1: hot loop bodies spanning more fetch windows than their
    /// size requires. Remedy: pad the containing symbol so the loop
    /// header starts a window.
    fn loop_fetch_straddle(&self, out: &mut Vec<Finding>) -> Result<(), String> {
        let fb = self.machine.fetch_bytes;
        // Heaviest-excess straddling back edge per function.
        struct Cand {
            target: u32,
            pc: u32,
            actual: u32,
            best: u32,
            weight: f64,
        }
        let mut cands: BTreeMap<usize, Cand> = BTreeMap::new();
        for s in &self.base.branch_sites {
            if s.target > s.pc || s.weight < HOT_WEIGHT {
                continue;
            }
            let bytes = s.pc + 4 - s.target;
            let actual = s.pc / fb - s.target / fb + 1;
            let best = bytes.div_ceil(fb);
            if actual <= best {
                continue;
            }
            let Some(fi) = self
                .funcs
                .iter()
                .position(|&(_, addr, size, _)| s.pc >= addr && s.pc < addr + size)
            else {
                continue;
            };
            let excess = actual - best;
            let replace = match cands.get(&fi) {
                Some(c) => excess > c.actual - c.best,
                None => true,
            };
            if replace {
                cands.insert(
                    fi,
                    Cand {
                        target: s.target,
                        pc: s.pc,
                        actual,
                        best,
                        weight: s.weight,
                    },
                );
            }
        }
        let mut ranked: Vec<(usize, Cand)> = cands.into_iter().collect();
        ranked.sort_by(|a, b| {
            let sa = a.1.weight * f64::from(a.1.actual - a.1.best);
            let sb = b.1.weight * f64::from(b.1.actual - b.1.best);
            sb.partial_cmp(&sa)
                .expect("weights are finite")
                .then(a.0.cmp(&b.0))
        });

        let mut emitted = 0;
        for (fi, c) in ranked {
            if emitted >= PER_CLASS_CAP {
                break;
            }
            let (name, faddr, _, _) = &self.funcs[fi];
            // Value-range gate: the padding remedy only pays if the loop
            // provably spins, so the constant-propagation pass must fold
            // the trip bound to >= MIN_TRIPS. Data-dependent bounds are
            // exactly where the static hotness model and the dynamic
            // trip counts diverge — findings there refute under causal
            // validation, so they are not findings.
            let Some(trips) = self.trip_bound(name) else {
                continue;
            };
            if trips < MIN_TRIPS {
                continue;
            }
            let delta = (fb - c.target % fb) % fb;
            if delta == 0 {
                continue;
            }
            // Pre-registration: the padded re-link must cut the global
            // weighted loop fetch excess by a real margin without
            // trading it for entry misalignment elsewhere (the pad
            // shifts every downstream symbol), or the finding is not
            // evidence.
            let ablated = self.relink(|l| l.pad_symbol(name, delta))?;
            if ablated.loop_fetch_excess + EPS >= self.base.loop_fetch_excess * STRADDLE_MARGIN
                || ablated.entry_straddle > self.base.entry_straddle + EPS
            {
                continue;
            }
            let excess = c.actual - c.best;
            let trips_note = format!("proven trip bound {trips}");
            out.push(Finding {
                class: FindingClass::LoopFetchStraddle,
                level: self.level,
                function: name.clone(),
                severity: c.weight * (f64::from(excess) / f64::from(c.best)).min(1.0),
                detail: format!(
                    "hot loop back-edge at {name}+{:#x} straddles a fetch line: body \
                     [{:#x},{:#x}) spans {} {fb}-byte windows (best {}), header at offset \
                     {} mod {fb}; {trips_note}",
                    c.pc - faddr,
                    c.target,
                    c.pc + 4,
                    c.actual,
                    c.best,
                    c.target % fb,
                ),
                remedy: Remedy::Pad {
                    symbol: name.clone(),
                    bytes: delta,
                },
            });
            emitted += 1;
        }
        Ok(())
    }

    /// Class 2: hot function entries landing mid fetch window. Remedy:
    /// raise the symbol's alignment to the fetch width.
    fn entry_alignment(&self, out: &mut Vec<Finding>) -> Result<(), String> {
        let fb = self.machine.fetch_bytes;
        let mut cands: Vec<&(String, u32, u32, f64)> = self
            .funcs
            .iter()
            .filter(|&&(_, addr, _, w)| w >= HOT_WEIGHT && addr % fb != 0)
            .collect();
        cands.sort_by(|a, b| b.3.partial_cmp(&a.3).expect("finite").then(a.0.cmp(&b.0)));

        let mut emitted = 0;
        for &(ref name, addr, _, w) in cands {
            if emitted >= PER_CLASS_CAP {
                break;
            }
            let ablated = self.relink(|l| l.align_symbol(name, fb))?;
            // Pre-registration: the alignment directive must reduce the
            // weighted entry straddle without trading it for loop excess
            // (downstream symbols re-snap and can move either way).
            if ablated.entry_straddle + EPS >= self.base.entry_straddle
                || ablated.loop_fetch_excess > self.base.loop_fetch_excess + EPS
            {
                continue;
            }
            let r = addr % fb;
            let dcpi = 100.0 * (self.base.entry_straddle - ablated.entry_straddle);
            out.push(Finding {
                class: FindingClass::EntryAlignment,
                level: self.level,
                function: name.clone(),
                severity: w * f64::from(r) / f64::from(fb),
                detail: format!(
                    "function entry alignment-sensitive: {name} at {addr:#x} enters {r} bytes \
                     into a {fb}-byte fetch window; predicted ΔCPI {dcpi:.2}%",
                ),
                remedy: Remedy::Align {
                    symbol: name.clone(),
                    align: fb,
                },
            });
            emitted += 1;
        }
        Ok(())
    }

    /// Function pairs whose taken-branch sites can dynamically
    /// *alternate*: both run inside one loop's steady state (the
    /// loop-owning function together with every callee invoked from a
    /// loop block). A shared BTB slot only churns when its two sites
    /// interleave; phase-separated executions cost one compulsory miss
    /// each and never again, which no link order can improve.
    fn interleaved(&self) -> BTreeSet<(&str, &str)> {
        let module = self.pm.module();
        let mut set = BTreeSet::new();
        for (fi, f) in module.functions.iter().enumerate() {
            if f.loops.is_empty() {
                continue;
            }
            let cfg = self.pm.cfg(fi);
            let mut group: Vec<&str> = vec![f.name.as_str()];
            for (bi, block) in f.blocks.iter().enumerate() {
                if cfg.freq.get(bi).copied().unwrap_or(1.0) <= 1.0 + EPS {
                    continue;
                }
                for op in &block.ops {
                    if let Op::Call { func, .. } = op {
                        group.push(module.functions[func.0 as usize].name.as_str());
                    }
                }
            }
            group.sort_unstable();
            group.dedup();
            for (i, a) in group.iter().enumerate() {
                for b in &group[i..] {
                    set.insert((*a, *b));
                }
            }
        }
        set
    }

    /// Class 3: hot *interleaved* branch pairs sharing a BTB slot across
    /// most of the re-link grid. Remedy: pin the link order with the
    /// lowest static conflict mass.
    fn btb_collision(&self, out: &mut Vec<Finding>) {
        // Remedy first: the best alternative order, by static BTB
        // conflict. No improving order → nothing to pre-register → no
        // findings of this class.
        let Some((best_order, best_conf)) = ORDERS
            .iter()
            .zip(self.variants.iter().take(ORDERS.len()))
            .map(|(o, (_, f))| (*o, f.btb_conflict))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        else {
            return;
        };
        if best_conf + EPS >= self.base.btb_conflict {
            return;
        }

        let mut buckets: BTreeMap<u32, Vec<&BranchSite>> = BTreeMap::new();
        for s in &self.base.branch_sites {
            if s.weight >= HOT_WEIGHT {
                buckets
                    .entry(self.machine.branch.btb_index(s.pc))
                    .or_default()
                    .push(s);
            }
        }

        struct Pair {
            slot: u32,
            a: (String, u32),
            b: (String, u32),
            hits: u32,
            severity: f64,
        }
        let il = self.interleaved();
        let mut pairs: Vec<Pair> = Vec::new();
        for (&slot, sites) in &buckets {
            if sites.len() < 2 {
                continue;
            }
            let mut sorted: Vec<&&BranchSite> = sites.iter().collect();
            sorted.sort_by(|x, y| {
                y.weight
                    .partial_cmp(&x.weight)
                    .expect("finite")
                    .then(x.pc.cmp(&y.pc))
            });
            // The heaviest pair in the slot that can actually alternate.
            let Some((s1, s2)) = (0..sorted.len())
                .flat_map(|i| (i + 1..sorted.len()).map(move |j| (i, j)))
                .map(|(i, j)| (sorted[i], sorted[j]))
                .find(|(x, y)| {
                    match (containing(self.funcs, x.pc), containing(self.funcs, y.pc)) {
                        (Some((fx, ..)), Some((fy, ..))) => {
                            let key = if fx <= fy {
                                (fx.as_str(), fy.as_str())
                            } else {
                                (fy.as_str(), fx.as_str())
                            };
                            il.contains(&key)
                        }
                        _ => false,
                    }
                })
            else {
                continue;
            };
            let Some((fa, aa, _, _)) = containing(self.funcs, s1.pc) else {
                continue;
            };
            let Some((fb2, ab, _, _)) = containing(self.funcs, s2.pc) else {
                continue;
            };
            let (off_a, off_b) = (s1.pc - aa, s2.pc - ab);
            // Stability: re-locate both logical sites (function + offset)
            // in each grid layout and count preserved collisions.
            let mut hits = 1;
            for (exe, _) in self.variants {
                let (Some(sa), Some(sb)) = (exe.symbol(fa), exe.symbol(fb2)) else {
                    continue;
                };
                if self.machine.branch.btb_index(sa.addr + off_a)
                    == self.machine.branch.btb_index(sb.addr + off_b)
                {
                    hits += 1;
                }
            }
            if hits < MIN_GRID_HITS {
                continue;
            }
            pairs.push(Pair {
                slot,
                a: (fa.clone(), off_a),
                b: (fb2.clone(), off_b),
                hits,
                severity: s2.weight * f64::from(hits) / 9.0,
            });
        }
        pairs.sort_by(|x, y| {
            y.severity
                .partial_cmp(&x.severity)
                .expect("finite")
                .then(x.slot.cmp(&y.slot))
        });
        for p in pairs.into_iter().take(PER_CLASS_CAP) {
            out.push(Finding {
                class: FindingClass::BtbCollision,
                level: self.level,
                function: p.a.0.clone(),
                severity: p.severity,
                detail: format!(
                    "hot interleaved branches {}+{:#x} and {}+{:#x} collide in the BTB \
                     (slot {}) under {}/9 of the re-link grid",
                    p.a.0, p.a.1, p.b.0, p.b.1, p.slot, p.hits,
                ),
                remedy: Remedy::LinkOrderPin { order: best_order },
            });
        }
    }

    /// Class 4: the initial stack placement changes L1D residue class
    /// across the environment grid while hot traffic is stack-paired.
    /// Remedy: setup randomization (the paper's own prescription).
    fn stack_residue(&self, stack: &StackFacts, out: &mut Vec<Finding>) {
        let spread = stack.bank_classes.max(stack.line_classes);
        if spread <= 1 || stack.stack_traffic <= 0.0 {
            return;
        }
        let paired = stack.paired_traffic();
        if paired < 0.1 {
            return;
        }
        let Some(((name, frame), share)) = stack
            .stack_profile
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite").then(b.0.cmp(&a.0)))
        else {
            return;
        };
        out.push(Finding {
            class: FindingClass::StackResidue,
            level: self.level,
            function: name.clone(),
            severity: (paired * stack.memory_intensity()).sqrt()
                * (f64::from(spread) / 16.0).min(1.0),
            detail: format!(
                "frame of hot fn {name} ({frame} B, {:.0}% of hot stack traffic) changes stack \
                 residue class across the env grid: {} bank / {} line-offset / {} set classes; \
                 {:.0}% of hot memory traffic is stack-paired",
                share * 100.0,
                stack.bank_classes,
                stack.line_classes,
                stack.set_classes,
                paired * 100.0,
            ),
            remedy: Remedy::SetupRandomization,
        });
    }

    /// Classes 5 and 6: pure dataflow defects from the liveness and
    /// reaching-definitions passes. Not layout hazards — no causal
    /// remedy to measure — but they ride the same pass manager and make
    /// wrong-data bugs visible next to wrong-measurement ones.
    fn dataflow_defects(&self, out: &mut Vec<Finding>) {
        let (mut dead, mut uninit) = (0usize, 0usize);
        for (fi, fh) in self.hot.functions.iter().enumerate() {
            let w = compress(fh.weight);
            let f = self.pm.function(fi);
            if dead < PER_CLASS_CAP {
                for (bi, oi) in self.pm.liveness(fi).dead_stores(f) {
                    if dead >= PER_CLASS_CAP {
                        break;
                    }
                    let Some(Op::StoreLocal { local, offset, .. }) =
                        f.blocks[bi as usize].ops.get(oi as usize)
                    else {
                        continue;
                    };
                    out.push(Finding {
                        class: FindingClass::DeadStore,
                        level: self.level,
                        function: fh.name.clone(),
                        severity: 0.02 + 0.1 * w,
                        detail: format!(
                            "store to local {}+{} at bb{bi} op {oi} in {} is dead on every \
                             path to exit",
                            local.0, offset, fh.name,
                        ),
                        remedy: Remedy::CodeFix,
                    });
                    dead += 1;
                }
            }
            if uninit < PER_CLASS_CAP {
                for r in self.pm.reaching(fi).maybe_uninit_reads(f) {
                    if uninit >= PER_CLASS_CAP {
                        break;
                    }
                    out.push(Finding {
                        class: FindingClass::UninitRead,
                        level: self.level,
                        function: fh.name.clone(),
                        severity: 0.05 + 0.2 * w,
                        detail: format!(
                            "load of local {}+{} at bb{} op {} in {} may read uninitialized \
                             storage",
                            r.local.0, r.offset, r.block, r.op, fh.name,
                        ),
                        remedy: Remedy::CodeFix,
                    });
                    uninit += 1;
                }
            }
        }
    }
}

/// Lints one benchmark (via its measurement harness) on `machine`.
/// Pure compile + link + dataflow: no process is loaded, no instruction
/// executes (the orchestrator's `simulated` counter is untouched).
///
/// # Errors
///
/// Returns a message if any static link fails.
pub fn lint_harness(harness: &Harness, machine: &MachineConfig) -> Result<LintReport, String> {
    let bench = harness.benchmark();
    let names = harness.object_names();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let default_order = LinkOrder::Default.resolve(&name_refs);
    let grid = env_grid();

    let mut findings = Vec::new();
    let (mut passes_run, mut functions_analyzed) = (0u64, 0u64);
    for level in LEVELS {
        let optimized = optimize(bench.module(), level);
        let hot = ModuleHotness::of(&optimized, bench.entry(), level);
        let pm = PassManager::new(&optimized, level);
        let cm = harness.compiled(level);

        let link = |order: &[usize], offset: u32| {
            harness
                .executable(level, order, offset)
                .map_err(|e| format!("{}/{}: link failed: {e:?}", bench.name(), level.name()))
        };
        let base_exe = link(&default_order, 0)?;
        let base = image_facts(&base_exe, &hot, machine);
        let funcs = text_functions(&base_exe, &hot);
        let mut variants = Vec::with_capacity(ORDERS.len() + OFFSETS.len());
        for order in ORDERS {
            let exe = link(&order.resolve(&name_refs), 0)?;
            let facts = image_facts(&exe, &hot, machine);
            variants.push((exe, facts));
        }
        for offset in OFFSETS {
            let exe = link(&default_order, offset)?;
            let facts = image_facts(&exe, &hot, machine);
            variants.push((exe, facts));
        }
        let stack = StackFacts::of(&hot, machine, &grid);

        let ctx = LevelLint {
            machine,
            level,
            entry: bench.entry(),
            hot: &hot,
            pm: &pm,
            base: &base,
            funcs: &funcs,
            variants: &variants,
            cm: &cm,
            default_order: &default_order,
        };
        ctx.loop_fetch_straddle(&mut findings)?;
        ctx.entry_alignment(&mut findings)?;
        ctx.btb_collision(&mut findings);
        ctx.stack_residue(&stack, &mut findings);
        ctx.dataflow_defects(&mut findings);

        passes_run += pm.passes_run();
        functions_analyzed += pm.functions_analyzed();
    }

    findings.sort_by(|a, b| {
        b.severity
            .partial_cmp(&a.severity)
            .expect("severities are finite")
            .then_with(|| a.class.name().cmp(b.class.name()))
            .then_with(|| a.level.name().cmp(b.level.name()))
            .then_with(|| a.function.cmp(&b.function))
            .then_with(|| a.detail.cmp(&b.detail))
    });

    metrics()
        .counter("analyze.lint.findings")
        .add(findings.len() as u64);
    metrics().counter("analyze.lint.passes_run").add(passes_run);
    metrics()
        .counter("analyze.lint.functions_analyzed")
        .add(functions_analyzed);

    Ok(LintReport {
        bench: bench.name().to_owned(),
        machine: machine.name.clone(),
        findings,
        passes_run,
        functions_analyzed,
    })
}

/// Lints a benchmark by name, sharing the process-wide harness cache.
///
/// # Errors
///
/// Returns a message for unknown benchmarks or failed links.
pub fn lint_benchmark(bench: &str, machine: &MachineConfig) -> Result<LintReport, String> {
    let harness = Orchestrator::global()
        .harness(bench)
        .ok_or_else(|| format!("unknown benchmark `{bench}` — `biaslab list` shows the suite"))?;
    lint_harness(&harness, machine)
}

/// Lints the whole suite on `machine`, in suite order.
///
/// # Errors
///
/// Returns the first lint failure.
pub fn lint_suite(machine: &MachineConfig) -> Result<Vec<LintReport>, String> {
    biaslab_workloads::suite()
        .iter()
        .map(|b| lint_benchmark(b.name(), machine))
        .collect()
}

/// The whole suite's reports as one JSONL stream (the golden-snapshot
/// and CI-gate format).
///
/// # Errors
///
/// Returns the first lint failure.
pub fn lint_suite_jsonl(machine: &MachineConfig) -> Result<String, String> {
    Ok(lint_suite(machine)?
        .iter()
        .map(LintReport::to_jsonl)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lints_without_simulating() {
        let before = Orchestrator::global().stats().simulated;
        let r = lint_benchmark("perlbench", &MachineConfig::core2()).expect("lints");
        assert_eq!(r.bench, "perlbench");
        assert_eq!(r.machine, "core2");
        assert!(r.passes_run > 0, "lint must exercise the pass manager");
        assert!(r.functions_analyzed > 0);
        for f in &r.findings {
            assert!(f.severity.is_finite() && f.severity >= 0.0);
            assert!(!f.detail.is_empty());
        }
        for w in r.findings.windows(2) {
            assert!(
                w[0].severity >= w[1].severity,
                "findings sorted by severity"
            );
        }
        assert_eq!(
            Orchestrator::global().stats().simulated,
            before,
            "biaslint must not simulate"
        );
    }

    #[test]
    fn telemetry_counters_are_exported() {
        let before = metrics().counter("analyze.lint.passes_run").get();
        let r = lint_benchmark("milc", &MachineConfig::core2()).expect("lints");
        let after = metrics().counter("analyze.lint.passes_run").get();
        assert!(
            after - before >= r.passes_run,
            "lint cost must reach the metrics registry"
        );
    }

    #[test]
    fn jsonl_lines_all_validate() {
        let r = lint_benchmark("mcf", &MachineConfig::o3cpu()).expect("lints");
        let jsonl = r.to_jsonl();
        assert!(!jsonl.is_empty());
        for line in jsonl.lines() {
            validate_lint_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        }
        assert!(jsonl.lines().next().unwrap().contains("\"ev\":\"lint\""));
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_lint_line("not json").is_err());
        assert!(validate_lint_line("{\"v\":2,\"ev\":\"lint\"}").is_err());
        assert!(validate_lint_line("{\"v\":1,\"ev\":\"mystery\"}").is_err());
        // Out-of-order keys.
        assert!(validate_lint_line(
            "{\"v\":1,\"ev\":\"lint\",\"machine\":\"core2\",\"bench\":\"x\",\"findings\":0,\
             \"passes_run\":0,\"functions_analyzed\":0}"
        )
        .is_err());
        // Unknown class.
        assert!(validate_lint_line(
            "{\"v\":1,\"ev\":\"finding\",\"bench\":\"x\",\"machine\":\"core2\",\"level\":\"O2\",\
             \"class\":\"bogus\",\"function\":\"f\",\"severity\":0.5,\"metric\":\"none\",\
             \"remedy\":\"code-fix\",\"arg\":\"\",\"detail\":\"d\"}"
        )
        .is_err());
        // Valid header and finding.
        let header = "{\"v\":1,\"ev\":\"lint\",\"bench\":\"x\",\"machine\":\"core2\",\
                      \"findings\":0,\"passes_run\":0,\"functions_analyzed\":0}";
        let finding = format!(
            "{{\"v\":1,\"ev\":\"finding\",\"bench\":\"x\",\"machine\":\"core2\",\"level\":\"O2\",\
             \"class\":\"{}\",\"function\":\"f\",\"severity\":0.5000,\"metric\":\"cycles\",\
             \"remedy\":\"code-fix\",\"arg\":\"\",\"detail\":\"hot loop, 2 lines: [a]\"}}",
            FindingClass::ALL[0].name()
        );
        assert!(validate_lint_line(header).is_ok());
        assert!(validate_lint_line(&finding).is_ok());
        // An extra trailing key, an unknown key between known ones, and
        // trailing braces.
        let trailing_key = header.replace(
            "\"functions_analyzed\":0}",
            "\"functions_analyzed\":0,\"x\":1}",
        );
        let between = header.replace("\"findings\":0,", "\"findings\":0,\"zzz\":0,");
        for bad in [trailing_key, between, format!("{header}}}}}")] {
            assert!(validate_lint_line(&bad).is_err(), "accepted: {bad}");
        }
        for line in [header, finding.as_str()] {
            // Every proper prefix is rejected.
            for cut in 0..line.len() {
                assert!(validate_lint_line(&line[..cut]).is_err(), "prefix at {cut}");
            }
            // Every single-byte mutation is handled without a panic, the
            // same way twice.
            for at in 0..line.len() {
                for byte in [b'"', b'{', b'}', b'[', b',', b':', b' ', b'\\', b'0', b'x'] {
                    let mut bytes = line.as_bytes().to_vec();
                    bytes[at] = byte;
                    let mutated = String::from_utf8_lossy(&bytes);
                    assert_eq!(validate_lint_line(&mutated), validate_lint_line(&mutated));
                }
            }
        }
    }

    #[test]
    fn class_names_round_trip() {
        for c in FindingClass::ALL {
            assert_eq!(FindingClass::parse(c.name()), Some(c));
        }
        assert_eq!(FindingClass::parse("nonesuch"), None);
    }

    #[test]
    fn report_renders_every_finding() {
        let r = lint_benchmark("bzip2", &MachineConfig::core2()).expect("lints");
        let text = r.render();
        assert!(text.contains("biaslint: bzip2 on core2"));
        for f in &r.findings {
            assert!(text.contains(f.class.name()));
        }
    }

    #[test]
    fn suite_jsonl_is_schema_clean() {
        let jsonl = lint_suite_jsonl(&MachineConfig::core2()).expect("suite lints");
        let mut headers = 0;
        for line in jsonl.lines() {
            validate_lint_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            if line.contains("\"ev\":\"lint\"") {
                headers += 1;
            }
        }
        assert_eq!(headers, biaslab_workloads::suite().len());
    }
}
