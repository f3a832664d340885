//! # biaslab-workloads — a miniature SPEC CPU2006 C suite
//!
//! Twelve benchmarks, one per SPEC CPU2006 C program, written in the
//! `biaslab` IR. Each miniature imitates its namesake's dominant behaviour
//! (the paper evaluates on the real suite, which is proprietary and — more
//! importantly — would be compiled by the *native* toolchain rather than
//! the simulated one this reproduction measures):
//!
//! | name | behaviour |
//! |------|-----------|
//! | `perlbench`  | hash table + bytecode-dispatch interpreter |
//! | `bzip2`      | counting sort + move-to-front transform |
//! | `gcc`        | expression-tree construction and constant folding |
//! | `mcf`        | pointer-chasing cost relaxation over a network |
//! | `milc`       | fixed-point lattice arithmetic (mul-heavy loops) |
//! | `gobmk`      | board scanning with recursive flood fill |
//! | `hmmer`      | dynamic-programming matrix fill on stack rows |
//! | `sjeng`      | recursive game search + transposition table |
//! | `libquantum` | streaming bit manipulation over a register file |
//! | `h264ref`    | sum-of-absolute-differences motion search |
//! | `lbm`        | double-buffered stencil relaxation |
//! | `sphinx3`    | dot-product scoring against an active list |
//!
//! Every benchmark checksums its observable results with the `chk`
//! instruction; [`Benchmark::expected`] computes the reference outcome with
//! the IR interpreter, and the suite's differential tests assert that every
//! optimization level on every machine reproduces it exactly.
//!
//! The suite is a static registry: each entry holds a name, a description,
//! a kernel constructor and the Test and Ref inputs. Building a
//! [`Benchmark`] runs its constructor, so the three entry points cost in
//! proportion to what they return: [`benchmark_names`] builds nothing,
//! [`benchmark_by_name`] builds one benchmark and [`suite`] builds all
//! twelve.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod kernels;
mod suite;
pub mod util;

pub use suite::{
    benchmark_by_name, benchmark_names, reference_interpretations, suite, Benchmark, Expected,
    InputSize,
};
