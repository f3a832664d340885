//! # biaslab-analyze — the static bias analyzer
//!
//! The paper demonstrates measurement bias by *running* hundreds of
//! setups; this crate predicts it without executing a single
//! instruction. Its thesis is the paper's own: the bias channels are
//! mechanistic functions of addresses — cache-set conflicts, BTB and
//! gshare aliasing, fetch-window straddles, stack placement — so a
//! benchmark's susceptibility is decidable from its linked image and an
//! abstract machine geometry.
//!
//! Three layers:
//!
//! 1. [`cfg`] + [`hotness`] — IR-level analysis over `biaslab-toolchain`:
//!    dominators, natural loops, loop-nesting frequency estimates, and
//!    call-graph-propagated function weights that say *which* code is hot;
//! 2. [`image`] — address-space analyses of the linked `Executable`
//!    against the indexing geometry the `biaslab-uarch` config types
//!    expose: set pressure, index-collision detection,
//!    straddle detection, and stack-residue classes;
//! 3. [`predict`] — per-factor scores (env size, link order, text
//!    offset) and a ranking index, rendered as a [`SensitivityReport`].
//!
//! The [`driver`] module wires the layers to a measurement `Harness`
//! (compile + link only); `biaslab analyze <bench>` is the CLI face.
//! Validation is dynamic-vs-static: `tests/static_vs_dynamic.rs` checks
//! that the static ranking rank-correlates positively with the
//! simulator-measured O3/O2 spread on all three machine models.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cfg;
pub mod driver;
pub mod hotness;
pub mod image;
pub mod lint;
pub mod passes;
pub mod predict;

pub use cfg::{CfgAnalysis, Dominators, NaturalLoop};
pub use driver::{analyze_benchmark, analyze_harness, rank_suite, LevelFacts};
pub use hotness::ModuleHotness;
pub use image::{ImageFacts, StackFacts};
pub use lint::{
    lint_benchmark, lint_harness, lint_suite, lint_suite_jsonl, validate_lint_line, Finding,
    FindingClass, LintReport, Remedy,
};
pub use passes::{PassManager, PassSession};
pub use predict::{Factor, FactorScore, SensitivityReport};
