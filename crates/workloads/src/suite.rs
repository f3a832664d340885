//! The benchmark registry.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use biaslab_toolchain::interp::Interpreter;
use biaslab_toolchain::Module;

use crate::kernels;

/// The input scale of a run: `Test` finishes in tens of thousands of
/// simulated instructions (CI-friendly); `Ref` is the measurement size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputSize {
    /// Small functional-test input.
    Test,
    /// Measurement-scale input.
    Ref,
}

/// The semantically-required outcome of a benchmark run, computed by the
/// reference interpreter: any compiled configuration must reproduce it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Final checksum.
    pub checksum: u64,
    /// Entry function's return value.
    pub return_value: u64,
    /// IR operations the reference run executed (a toolchain-independent
    /// measure of work).
    pub ir_ops: u64,
}

/// One registry entry: what a benchmark is, without building it. The
/// kernel constructor runs only when a [`Benchmark`] is built.
#[derive(Debug)]
struct Entry {
    name: &'static str,
    description: &'static str,
    kernel: fn() -> Module,
    test_args: &'static [u64],
    ref_args: &'static [u64],
}

impl Entry {
    fn build(&'static self) -> Benchmark {
        Benchmark {
            spec: self,
            module: (self.kernel)(),
            expected: Mutex::new(HashMap::new()),
        }
    }
}

/// The twelve benchmarks, in the paper's listing order.
static REGISTRY: [Entry; 12] = [
    Entry {
        name: "perlbench",
        description: "hash table + bytecode-dispatch interpreter",
        kernel: kernels::perlbench,
        test_args: &[8],
        ref_args: &[90],
    },
    Entry {
        name: "bzip2",
        description: "counting sort + move-to-front transform",
        kernel: kernels::bzip2,
        test_args: &[1],
        ref_args: &[3],
    },
    Entry {
        name: "gcc",
        description: "expression-tree construction and constant folding",
        kernel: kernels::gcc,
        test_args: &[2],
        ref_args: &[14],
    },
    Entry {
        name: "mcf",
        description: "pointer-chasing cost relaxation over a network",
        kernel: kernels::mcf,
        test_args: &[2],
        ref_args: &[10],
    },
    Entry {
        name: "milc",
        description: "fixed-point lattice arithmetic",
        kernel: kernels::milc,
        test_args: &[1],
        ref_args: &[5],
    },
    Entry {
        name: "gobmk",
        description: "board scanning with recursive flood fill",
        kernel: kernels::gobmk,
        test_args: &[1],
        ref_args: &[13],
    },
    Entry {
        name: "hmmer",
        description: "dynamic-programming matrix fill on stack rows",
        kernel: kernels::hmmer,
        test_args: &[5],
        ref_args: &[48],
    },
    Entry {
        name: "sjeng",
        description: "recursive game search + transposition table",
        kernel: kernels::sjeng,
        test_args: &[1],
        ref_args: &[8],
    },
    Entry {
        name: "libquantum",
        description: "streaming bit manipulation over a register file",
        kernel: kernels::libquantum,
        test_args: &[1],
        ref_args: &[3],
    },
    Entry {
        name: "h264ref",
        description: "sum-of-absolute-differences motion search",
        kernel: kernels::h264ref,
        test_args: &[1],
        ref_args: &[2],
    },
    Entry {
        name: "lbm",
        description: "double-buffered stencil relaxation",
        kernel: kernels::lbm,
        test_args: &[1],
        ref_args: &[4],
    },
    Entry {
        name: "sphinx3",
        description: "dot-product scoring against an active list",
        kernel: kernels::sphinx3,
        test_args: &[1],
        ref_args: &[6],
    },
];

/// One miniature SPEC benchmark: an IR module plus its inputs and
/// (lazily computed) expected outcomes.
#[derive(Debug)]
pub struct Benchmark {
    spec: &'static Entry,
    module: Module,
    expected: Mutex<HashMap<InputSize, Expected>>,
}

impl Benchmark {
    /// The SPEC-style benchmark name, e.g. `"perlbench"`.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.spec.name
    }

    /// One-line description of the modelled behaviour.
    #[must_use]
    pub fn description(&self) -> &'static str {
        self.spec.description
    }

    /// The benchmark's IR module.
    #[must_use]
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The entry function's symbol name.
    #[must_use]
    pub fn entry(&self) -> &'static str {
        "main"
    }

    /// The entry arguments for the given input size.
    #[must_use]
    pub fn args(&self, size: InputSize) -> &'static [u64] {
        match size {
            InputSize::Test => self.spec.test_args,
            InputSize::Ref => self.spec.ref_args,
        }
    }

    /// The reference outcome for the given input size, computed once with
    /// the IR interpreter and cached (or seeded: see
    /// [`Benchmark::seed_expected`]). Each interpretation counts in
    /// [`reference_interpretations`].
    ///
    /// # Panics
    ///
    /// Panics if the reference interpretation itself fails — that is a bug
    /// in the kernel, not an experimental condition.
    #[must_use]
    pub fn expected(&self, size: InputSize) -> Expected {
        let mut cache = self.expected.lock().expect("expected-cache mutex");
        if let Some(e) = cache.get(&size) {
            return *e;
        }
        INTERPRETATIONS.fetch_add(1, Ordering::Relaxed);
        let mut interp = Interpreter::new(&self.module);
        let out = interp
            .call_by_name(self.entry(), self.args(size))
            .unwrap_or_else(|e| panic!("{}: reference run failed: {e}", self.name()));
        let e = Expected {
            checksum: out.checksum,
            return_value: out.return_value.unwrap_or(0),
            ir_ops: out.ops_executed,
        };
        cache.insert(size, e);
        e
    }

    /// Records a reference outcome computed earlier, so that
    /// [`Benchmark::expected`] returns it without interpreting. The caller
    /// vouches that it was computed from this module and these arguments;
    /// an outcome already held is kept.
    pub fn seed_expected(&self, size: InputSize, expected: Expected) {
        self.expected
            .lock()
            .expect("expected-cache mutex")
            .entry(size)
            .or_insert(expected);
    }

    /// The reference outcome at `size`, if one is already held (computed
    /// or seeded); never interprets.
    #[must_use]
    pub fn held_expected(&self, size: InputSize) -> Option<Expected> {
        self.expected
            .lock()
            .expect("expected-cache mutex")
            .get(&size)
            .copied()
    }
}

/// Reference interpretations run in this process so far.
static INTERPRETATIONS: AtomicU64 = AtomicU64::new(0);

/// How many reference interpretations [`Benchmark::expected`] has run in
/// this process, over every benchmark instance.
#[must_use]
pub fn reference_interpretations() -> u64 {
    INTERPRETATIONS.load(Ordering::Relaxed)
}

/// Builds the full 12-benchmark suite, in the paper's listing order.
#[must_use]
pub fn suite() -> Vec<Benchmark> {
    REGISTRY.iter().map(Entry::build).collect()
}

/// The suite's benchmark names, in [`suite`] order. Builds nothing: use
/// it to check or enumerate names.
pub fn benchmark_names() -> impl Iterator<Item = &'static str> {
    REGISTRY.iter().map(|e| e.name)
}

/// Looks up one benchmark by name, building only that benchmark.
#[must_use]
pub fn benchmark_by_name(name: &str) -> Option<Benchmark> {
    REGISTRY.iter().find(|e| e.name == name).map(Entry::build)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_lookups_and_suite_agree() {
        let suite = suite();
        let names: Vec<&str> = benchmark_names().collect();
        assert_eq!(names, suite.iter().map(Benchmark::name).collect::<Vec<_>>());
        for b in &suite {
            let one = benchmark_by_name(b.name()).expect("registered name");
            assert_eq!(one.name(), b.name());
            assert_eq!(one.description(), b.description());
            for size in [InputSize::Test, InputSize::Ref] {
                assert_eq!(one.args(size), b.args(size));
            }
            assert_eq!(one.module(), b.module());
        }
    }

    #[test]
    fn seeded_outcomes_are_returned_without_interpreting() {
        let b = benchmark_by_name("hmmer").expect("registered name");
        assert_eq!(b.held_expected(InputSize::Test), None);
        let seeded = Expected {
            checksum: 7,
            return_value: 8,
            ir_ops: 9,
        };
        b.seed_expected(InputSize::Test, seeded);
        let before = reference_interpretations();
        assert_eq!(b.expected(InputSize::Test), seeded);
        assert_eq!(b.held_expected(InputSize::Test), Some(seeded));
        // A held outcome is never replaced by a later seed.
        b.seed_expected(
            InputSize::Test,
            Expected {
                ir_ops: 1,
                ..seeded
            },
        );
        assert_eq!(b.expected(InputSize::Test), seeded);
        // Counting is process-wide and other tests interpret concurrently,
        // so only a lower bound is exact here.
        let _ = b.expected(InputSize::Ref);
        assert!(reference_interpretations() > before);
        assert!(b.held_expected(InputSize::Ref).is_some());
    }

    #[test]
    fn unknown_names_are_not_in_the_registry() {
        for name in ["nonesuch", "", "Hmmer", "hmmer "] {
            assert!(benchmark_by_name(name).is_none(), "{name:?}");
            assert!(!benchmark_names().any(|n| n == name), "{name:?}");
        }
    }
}
