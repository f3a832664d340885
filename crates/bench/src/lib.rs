//! # biaslab-bench — the reproduction harness
//!
//! One function per table and figure of the paper (as reconstructed in
//! `DESIGN.md`), each regenerating its rows or series from scratch through
//! the public APIs of the other crates. The `repro` binary dispatches on
//! experiment ids (`fig1`…`fig10`, `table1`, `table2`, ablations and
//! extensions) and runs `repro all` through [`parallel::run_all`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod parallel;

pub use experiments::{run_experiment, Effort, EXPERIMENTS};
