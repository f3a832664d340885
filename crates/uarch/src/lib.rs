//! # biaslab-uarch — a deterministic micro-architectural simulator
//!
//! The machine substrate of the `biaslab` reproduction of *Producing Wrong
//! Data Without Doing Anything Obviously Wrong!* (ASPLOS 2009). It stands
//! in for the paper's Pentium 4, Core 2 and m5 O3CPU testbeds with three
//! corresponding [`MachineConfig`] presets.
//!
//! The simulator is *mechanistic rather than cycle-exact*: it models the
//! structures through which memory-layout changes become performance
//! changes — set-associative caches ([`cache::Cache`]), TLBs (caches
//! over pages, [`tlb::TlbConfig`]), an address-indexed branch predictor
//! and BTB ([`branch::BranchPredictor`]), aligned fetch windows and
//! line/page-split penalties — and charges simple latencies for each event. That is
//! exactly the class of mechanism the paper identifies as the source of
//! measurement bias, so the bias phenomenology (sensitivity to environment
//! size and link order, with magnitudes comparable to the O2→O3 effect)
//! reproduces even though absolute cycle counts are model numbers, not
//! silicon measurements.
//!
//! Structurally, a [`Machine`] is a core driving a front end
//! ([`front::FrontEnd`]) and a memory hierarchy ([`dmem::MemSystem`]) over
//! explicit ports ([`ports`]), with a shared unified L2 between them. It
//! dispatches whole basic blocks through a decoded trace cache
//! ([`block::BlockCache`], [`KernelMode::Block`]), and one functional pass
//! can drive up to [`MAX_GROUP`] machines at once ([`Machine::run_group`]);
//! [`KernelMode::Collapsed`] keeps the per-instruction loop as the test
//! oracle, and differential tests pin both paths to bit-identical
//! counters.
//!
//! # Examples
//!
//! ```
//! use biaslab_toolchain::{codegen, link::Linker, load::{Environment, Loader},
//!                         opt, ModuleBuilder, OptLevel};
//! use biaslab_uarch::{Machine, MachineConfig};
//!
//! let mut mb = ModuleBuilder::new();
//! mb.function("main", 0, true, |fb| {
//!     let v = fb.const_(21);
//!     let w = fb.mul_imm(v, 2);
//!     fb.ret(Some(w));
//! });
//! let m = mb.finish()?;
//! let exe = Linker::new()
//!     .link(&codegen::compile(&opt::optimize(&m, OptLevel::O2), OptLevel::O2), "main")?;
//! let process = Loader::new().load(&exe, &Environment::new(), &[])?;
//! let result = Machine::new(MachineConfig::core2()).run(&exe, process)?;
//! assert_eq!(result.return_value, 42);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod branch;
pub mod cache;
pub mod counters;
pub mod dmem;
pub mod front;
pub mod geometry;
pub mod machine;
pub mod ports;
pub mod profile;
pub mod tlb;

pub use block::{BlockCache, BlockCacheStats, DecodedBlock};
pub use counters::Counters;
pub use geometry::{ConfigError, GeometryError};
pub use machine::{KernelMode, Machine, MachineConfig, RunError, RunResult, MAX_GROUP};
pub use profile::{Profile, ProfileEntry};
