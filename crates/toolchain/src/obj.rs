//! Relocatable object files.
//!
//! The code generator produces one [`ObjectFile`] per function. The linker
//! concatenates them **in the order given** — the property behind the
//! paper's link-order bias — resolving two relocation kinds:
//!
//! * [`RelocKind::Call`]: patches the pc-relative offset of a `jal` once the
//!   callee's address is known;
//! * [`RelocKind::GpAdd`]: patches the 16-bit immediate of an instruction
//!   computing `gp + offset(global)`.
//!
//! Object files live only in memory: the linker takes them straight from
//! the code generator, and no program writes or reads them as bytes.

use std::sync::Arc;

use biaslab_isa::Inst;

use crate::ir::Global;
use crate::layout::{layout_globals, DATA_BASE};
use crate::opt::OptLevel;

/// A relocation to apply at link time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reloc {
    /// Index of the instruction to patch within the object's code.
    pub at: usize,
    /// What to patch it with.
    pub kind: RelocKind,
}

/// The kind of a relocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelocKind {
    /// Patch a `jal`'s offset to reach the named function.
    Call {
        /// Callee symbol name.
        symbol: String,
    },
    /// Patch a 16-bit immediate with `address(symbol) + addend - gp`.
    /// Only valid for globals within the ±32 KiB gp window.
    GpAdd {
        /// Global symbol name.
        symbol: String,
        /// Constant addend in bytes.
        addend: i32,
    },
    /// Patch a `lui`/`ori` pair (at `at` and `at + 1`) with the full 32-bit
    /// address of the symbol. Used for globals beyond the gp window.
    AbsAddr {
        /// Global symbol name.
        symbol: String,
        /// Constant addend in bytes.
        addend: i32,
    },
}

/// One function's relocatable code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectFile {
    /// The defined symbol (function name).
    pub symbol: String,
    /// Code with unresolved placeholder offsets where relocations apply.
    pub code: Vec<Inst>,
    /// Start alignment requested by the compiler (power of two).
    pub align: u32,
    /// Relocations to resolve at link time.
    pub relocs: Vec<Reloc>,
}

impl ObjectFile {
    /// Code size in bytes.
    #[must_use]
    pub fn size(&self) -> u32 {
        (self.code.len() * 4) as u32
    }
}

/// The output of compiling a whole module: one object per function plus the
/// module's globals, in declaration order, and the data image they lay out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledModule {
    /// One object per function, in the module's declaration order. Permute
    /// this vector (or pass an order to the linker) to exercise link-order
    /// bias.
    pub objects: Vec<ObjectFile>,
    /// The optimization level the module was compiled at.
    pub level: OptLevel,
    /// Module globals, laid out by the linker in this order.
    globals: Vec<Global>,
    /// The initialized data segment the globals lay out. Link order and
    /// text placement move only code, so every executable linked from this
    /// module shares this one image.
    data: Arc<Vec<u8>>,
}

impl CompiledModule {
    /// Assembles a compiled module and builds its data image once.
    ///
    /// # Panics
    ///
    /// Panics if the packed globals exceed the data segment (see
    /// [`layout_globals`]).
    #[must_use]
    pub fn new(objects: Vec<ObjectFile>, globals: Vec<Global>, level: OptLevel) -> CompiledModule {
        let addrs = layout_globals(&globals);
        let size = addrs
            .last()
            .zip(globals.last())
            .map_or(0, |(&a, g)| a + g.size - DATA_BASE);
        let mut data = vec![0u8; size as usize];
        for (g, &a) in globals.iter().zip(&addrs) {
            let start = (a - DATA_BASE) as usize;
            data[start..start + g.init.len()].copy_from_slice(&g.init);
        }
        CompiledModule {
            objects,
            level,
            globals,
            data: Arc::new(data),
        }
    }

    /// Module globals, in declaration order (the linker's data layout
    /// order).
    #[must_use]
    pub fn globals(&self) -> &[Global] {
        &self.globals
    }

    /// The initialized data image: zeroes, with each global's initializer
    /// at its address. Shared by every executable linked from the module.
    #[must_use]
    pub fn data_image(&self) -> &Arc<Vec<u8>> {
        &self.data
    }

    /// Total text size in bytes, before link-time alignment padding.
    #[must_use]
    pub fn code_size(&self) -> u32 {
        self.objects.iter().map(ObjectFile::size).sum()
    }

    /// Index of the object defining `symbol`.
    #[must_use]
    pub fn object_index(&self, symbol: &str) -> Option<usize> {
        self.objects.iter().position(|o| o.symbol == symbol)
    }
}

#[cfg(test)]
mod tests {
    use biaslab_isa::{AluOp, Reg};

    use super::*;

    fn sample() -> ObjectFile {
        ObjectFile {
            symbol: "f".into(),
            code: vec![
                Inst::AluImm {
                    op: AluOp::Add,
                    rd: Reg::r(1),
                    rs1: Reg::ZERO,
                    imm: 5,
                },
                Inst::Jal {
                    rd: Reg::RA,
                    offset: 0,
                },
                Inst::Jalr {
                    rd: Reg::ZERO,
                    rs1: Reg::RA,
                    offset: 0,
                },
            ],
            align: 16,
            relocs: vec![
                Reloc {
                    at: 1,
                    kind: RelocKind::Call { symbol: "g".into() },
                },
                Reloc {
                    at: 0,
                    kind: RelocKind::GpAdd {
                        symbol: "tbl".into(),
                        addend: 8,
                    },
                },
                Reloc {
                    at: 0,
                    kind: RelocKind::AbsAddr {
                        symbol: "big".into(),
                        addend: -4,
                    },
                },
            ],
        }
    }

    #[test]
    fn size_counts_bytes() {
        assert_eq!(sample().size(), 12);
    }

    #[test]
    fn compiled_module_lookup() {
        let cm = CompiledModule::new(vec![sample()], vec![], OptLevel::O2);
        assert_eq!(cm.object_index("f"), Some(0));
        assert_eq!(cm.object_index("missing"), None);
        assert_eq!(cm.code_size(), 12);
    }
}
