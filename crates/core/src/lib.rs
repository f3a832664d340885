//! # biaslab-core — the measurement-bias laboratory
//!
//! The primary contribution of the `biaslab` reproduction of *Producing
//! Wrong Data Without Doing Anything Obviously Wrong!* (Mytkowicz, Diwan,
//! Hauswirth, Sweeney; ASPLOS 2009), as a reusable library:
//!
//! * [`setup`] — experimental setups and the two "innocuous" factors the
//!   paper shows to matter: **UNIX environment size** and **link order**
//!   (plus the loader/linker interventions used for causal analysis);
//! * [`harness`] — verified measurement: compile → link → load → simulate,
//!   with every run checked against the IR interpreter's reference
//!   outcome, plus caching and parallel sweeps;
//! * [`orchestrator`] — cross-experiment sweep orchestration: a
//!   process-wide measurement cache, work-stealing execution, persistence
//!   under `results/` and per-experiment instrumentation;
//! * [`stats`] — bootstrap confidence intervals, permutation tests,
//!   quantiles and violin summaries;
//! * [`bias`] — factor sweeps, bias magnitude, and conclusion-flip
//!   detection; [`audit`] packages the whole check as one call;
//! * [`randomize`] — the paper's first remedy: evaluate over many
//!   randomized setups and report a confidence interval;
//! * [`causal`] — the paper's second remedy: intervene on the suspected
//!   mechanism (dose response + placebo control + counter mediation);
//! * [`report`] — plain-text tables, series and sparklines used by the
//!   `repro` binary to regenerate every figure and table;
//! * [`jsonl`] — the one JSON-lines codec every persisted or served line
//!   goes through: strict key scanner, crc seal, atomic file write and
//!   bounded I/O retry.
//!
//! # Examples
//!
//! Measure the O2→O3 speedup of one benchmark under two environment sizes
//! and see the bias:
//!
//! ```
//! use biaslab_core::bias::sweep_factor;
//! use biaslab_core::harness::Harness;
//! use biaslab_core::setup::ExperimentSetup;
//! use biaslab_toolchain::load::Environment;
//! use biaslab_toolchain::OptLevel;
//! use biaslab_uarch::MachineConfig;
//! use biaslab_workloads::{benchmark_by_name, InputSize};
//!
//! let harness = Harness::new(benchmark_by_name("hmmer").expect("known benchmark"));
//! let base = ExperimentSetup::default_on(MachineConfig::o3cpu(), OptLevel::O2);
//! let setups = vec![
//!     base.with_env(Environment::new()),
//!     base.with_env(Environment::of_total_size(1000)),
//! ];
//! let report = sweep_factor(&harness, "environment size", &setups,
//!                           OptLevel::O2, OptLevel::O3, InputSize::Test)?;
//! println!("speedups: {:?} (bias {:.2}%)",
//!          report.speedups(), 100.0 * report.bias_magnitude);
//! # Ok::<(), biaslab_core::harness::MeasureError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod bias;
pub mod causal;
pub mod faults;
pub mod harness;
pub mod jsonl;
pub mod orchestrator;
pub mod randomize;
pub mod report;
pub mod serve;
pub mod setup;
pub mod stats;
pub(crate) mod sync;
pub mod telemetry;
pub mod trace_report;

pub use bias::BiasReport;
pub use harness::{Harness, MeasureError, Measurement};
pub use orchestrator::{MeasureKey, Orchestrator, OrchestratorStats};
pub use setup::{ExperimentSetup, LinkOrder, SymbolLayout};
