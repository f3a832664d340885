//! `biaslint` — layout-hazard diagnostics with named mechanisms.
//!
//! The analyzer summarizes a benchmark's layout sensitivity in one
//! score; this module takes the same facts to the diagnostic level. Each
//! *finding* names a concrete hazard the paper's bias factors act
//! through — a hot loop back-edge straddling a fetch window, a hot frame
//! changing stack residue class across the environment grid, an
//! alignment-sensitive function entry — plus two pure-dataflow defects
//! (dead stores, possibly uninitialized reads) surfaced by the
//! `toolchain::dataflow` passes. Severity is ranked by the hotness model;
//! every finding carries a remedy from the paper's fig9/fig10 toolkit
//! (a symbol layout — padding or an alignment directive — setup
//! randomization, or a source fix).
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
//!   experiment, decided in advance). The re-link goes through
//!   [`Harness::link`], the link [`Harness::measure`] runs, so the image
//!   a finding pre-registers is the image the `ext-lint` experiment then
//!   measures in simulation to report precision.
//!
//! Findings render as text ([`LintReport::render`]) or as JSONL
//! ([`LintReport::to_jsonl`], schema checked by
//! [`validate_lint_line`]) for the CI gate and golden snapshots.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use biaslab_core::jsonl::Fields;
use biaslab_core::telemetry::metrics;
use biaslab_core::{ExperimentSetup, Harness, Orchestrator, SymbolLayout};
use biaslab_toolchain::dataflow::Lattice;
use biaslab_toolchain::ir::{Op, Terminator};
use biaslab_toolchain::link::Executable;
use biaslab_toolchain::opt::OptLevel;
use biaslab_uarch::MachineConfig;

use crate::driver::{env_grid, LevelFacts, LEVELS};
use crate::hotness::{compress, ModuleHotness};
use crate::image::{image_facts, ImageFacts, StackFacts};
use crate::passes::PassSession;

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
    pub const ALL: [FindingClass; 5] = [
        FindingClass::LoopFetchStraddle,
        FindingClass::EntryAlignment,
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
            FindingClass::StackResidue => "cycle_range",
            FindingClass::DeadStore | FindingClass::UninitRead => "none",
        }
    }
}

/// A suggested intervention from the paper's fig9/fig10 toolkit.
#[derive(Debug, Clone, PartialEq)]
pub enum Remedy {
    /// Pad or align one symbol at link time: the layout the finding
    /// pre-registered, which `ext-lint` measures as a setup factor.
    Layout(SymbolLayout),
    /// Randomize the experimental setup (environment / stack placement)
    /// across repetitions instead of holding one layout fixed.
    SetupRandomization,
    /// Not layout-correctable: fix the source.
    CodeFix,
}

impl Remedy {
    /// Stable machine-readable kind.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Remedy::Layout(SymbolLayout::Align { .. }) => "align",
            Remedy::Layout(SymbolLayout::Pad { .. }) => "pad",
            Remedy::SetupRandomization => "setup-randomization",
            Remedy::CodeFix => "code-fix",
        }
    }

    /// Machine-readable argument (empty when the kind says it all).
    #[must_use]
    pub fn arg(&self) -> String {
        match self {
            Remedy::Layout(SymbolLayout::Align { symbol, align }) => format!("{symbol}:{align}"),
            Remedy::Layout(SymbolLayout::Pad { symbol, bytes }) => format!("{symbol}:{bytes}"),
            Remedy::SetupRandomization | Remedy::CodeFix => String::new(),
        }
    }

    /// Human-readable description.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            Remedy::Layout(SymbolLayout::Align { symbol, align }) => {
                format!("align `{symbol}` to {align} B")
            }
            Remedy::Layout(SymbolLayout::Pad { symbol, bytes }) => {
                format!("pad `{symbol}` by {bytes} B")
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

/// Everything the per-level detectors need: the optimized module's
/// passes and hotness, and the default layout's image with the setup
/// that links it.
struct LevelLint<'a> {
    harness: &'a Harness,
    setup: &'a ExperimentSetup,
    hot: &'a ModuleHotness,
    passes: &'a PassSession<'a>,
    base: &'a ImageFacts,
    funcs: &'a [(String, u32, u32, f64)],
}

impl LevelLint<'_> {
    /// Links the default layout with `layout` applied, through the
    /// harness's cached [`Harness::link`] that `ext-lint`'s measurement of
    /// the remedy also takes, and returns the image facts (the
    /// pre-registration check; compile + link only).
    fn relink(&self, layout: &SymbolLayout) -> Result<ImageFacts, String> {
        let exe = self
            .harness
            .link(&self.setup.with_symbol_layout(layout.clone()))
            .map_err(|e| format!("ablated re-link failed: {e:?}"))?;
        Ok(image_facts(&exe, self.hot, &self.setup.machine))
    }

    /// Largest loop trip bound the value-range pass can prove for
    /// `function`, if any loop's bound folds to a constant.
    fn trip_bound(&self, function: &str) -> Option<u64> {
        let pm = self.passes.manager();
        let fi = pm.find(function)?;
        let f = pm.function(fi);
        if f.loops.is_empty() {
            return None;
        }
        let ranges = self.passes.ranges(fi);
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
        let fb = self.setup.machine.fetch_bytes;
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
            let layout = SymbolLayout::Pad {
                symbol: name.clone(),
                bytes: delta,
            };
            let ablated = self.relink(&layout)?;
            if ablated.loop_fetch_excess + EPS >= self.base.loop_fetch_excess * STRADDLE_MARGIN
                || ablated.entry_straddle > self.base.entry_straddle + EPS
            {
                continue;
            }
            let excess = c.actual - c.best;
            let trips_note = format!("proven trip bound {trips}");
            out.push(Finding {
                class: FindingClass::LoopFetchStraddle,
                level: self.setup.opt,
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
                remedy: Remedy::Layout(layout),
            });
            emitted += 1;
        }
        Ok(())
    }

    /// Class 2: hot function entries landing mid fetch window. Remedy:
    /// raise the symbol's alignment to the fetch width.
    fn entry_alignment(&self, out: &mut Vec<Finding>) -> Result<(), String> {
        let fb = self.setup.machine.fetch_bytes;
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
            let layout = SymbolLayout::Align {
                symbol: name.clone(),
                align: fb,
            };
            let ablated = self.relink(&layout)?;
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
                level: self.setup.opt,
                function: name.clone(),
                severity: w * f64::from(r) / f64::from(fb),
                detail: format!(
                    "function entry alignment-sensitive: {name} at {addr:#x} enters {r} bytes \
                     into a {fb}-byte fetch window; predicted ΔCPI {dcpi:.2}%",
                ),
                remedy: Remedy::Layout(layout),
            });
            emitted += 1;
        }
        Ok(())
    }

    /// Class 3: the initial stack placement changes L1D residue class
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
            level: self.setup.opt,
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

    /// Classes 4 and 5: pure dataflow defects from the liveness and
    /// reaching-definitions passes. Not layout hazards — no causal
    /// remedy to measure — but they ride the same pass manager and make
    /// wrong-data bugs visible next to wrong-measurement ones.
    fn dataflow_defects(&self, out: &mut Vec<Finding>) {
        let (mut dead, mut uninit) = (0usize, 0usize);
        for (fi, fh) in self.hot.functions.iter().enumerate() {
            let w = compress(fh.weight);
            let f = self.passes.manager().function(fi);
            if dead < PER_CLASS_CAP {
                for (bi, oi) in self.passes.liveness(fi).dead_stores(f) {
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
                        level: self.setup.opt,
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
                for r in self.passes.reaching(fi).maybe_uninit_reads(f) {
                    if uninit >= PER_CLASS_CAP {
                        break;
                    }
                    out.push(Finding {
                        class: FindingClass::UninitRead,
                        level: self.setup.opt,
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
    let grid = env_grid();

    let mut findings = Vec::new();
    let (mut passes_run, mut functions_analyzed) = (0u64, 0u64);
    for level in LEVELS {
        let facts = LevelFacts::of(harness, level);
        let hot = &facts.hot;
        let passes = facts.passes.session();

        let setup = ExperimentSetup::default_on(machine.clone(), level);
        let base_exe = harness
            .link(&setup)
            .map_err(|e| format!("{}/{}: link failed: {e:?}", bench.name(), level.name()))?;
        let base = image_facts(&base_exe, hot, machine);
        let funcs = text_functions(&base_exe, hot);
        let stack = StackFacts::of(hot, machine, &grid);

        let ctx = LevelLint {
            harness,
            setup: &setup,
            hot,
            passes: &passes,
            base: &base,
            funcs: &funcs,
        };
        ctx.loop_fetch_straddle(&mut findings)?;
        ctx.entry_alignment(&mut findings)?;
        ctx.stack_residue(&stack, &mut findings);
        ctx.dataflow_defects(&mut findings);

        passes_run += passes.passes_run();
        functions_analyzed += passes.functions_analyzed();
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
    biaslab_workloads::benchmark_names()
        .map(|name| lint_benchmark(name, machine))
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
        assert_eq!(headers, biaslab_workloads::benchmark_names().count());
    }
}
