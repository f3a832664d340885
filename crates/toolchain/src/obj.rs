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
//! Object files have a simple binary serialization (exercised by round-trip
//! tests) so they can be cached or shipped like real `.o` files.

use std::fmt;
use std::sync::Arc;

use biaslab_isa::{decode, encode, Inst};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};

use crate::ir::Global;
use crate::layout::{layout_globals, DATA_BASE};
use crate::opt::OptLevel;

/// A relocation to apply at link time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Reloc {
    /// Index of the instruction to patch within the object's code.
    pub at: usize,
    /// What to patch it with.
    pub kind: RelocKind,
}

/// The kind of a relocation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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

    /// Serializes to the on-disk object format.
    #[must_use]
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u32_le(0x4F_42_4C_42); // "BLBO"
        put_str(&mut buf, &self.symbol);
        buf.put_u32_le(self.align);
        buf.put_u32_le(self.code.len() as u32);
        for &inst in &self.code {
            buf.put_u32_le(encode(inst));
        }
        buf.put_u32_le(self.relocs.len() as u32);
        for r in &self.relocs {
            buf.put_u32_le(r.at as u32);
            match &r.kind {
                RelocKind::Call { symbol } => {
                    buf.put_u8(0);
                    put_str(&mut buf, symbol);
                }
                RelocKind::GpAdd { symbol, addend } => {
                    buf.put_u8(1);
                    put_str(&mut buf, symbol);
                    buf.put_i32_le(*addend);
                }
                RelocKind::AbsAddr { symbol, addend } => {
                    buf.put_u8(2);
                    put_str(&mut buf, symbol);
                    buf.put_i32_le(*addend);
                }
            }
        }
        buf.freeze()
    }

    /// Deserializes the on-disk object format.
    ///
    /// # Errors
    ///
    /// Returns [`ObjFormatError`] on a bad magic number, truncated input or
    /// undecodable instruction.
    pub fn from_bytes(mut data: Bytes) -> Result<ObjectFile, ObjFormatError> {
        let magic = get_u32(&mut data)?;
        if magic != 0x4F_42_4C_42 {
            return Err(ObjFormatError::BadMagic(magic));
        }
        let symbol = get_str(&mut data)?;
        let align = get_u32(&mut data)?;
        let n_code = get_u32(&mut data)? as usize;
        if data.remaining() < n_code.saturating_mul(4) {
            // Bound the claimed count by the bytes actually present before
            // allocating, so corrupted headers cannot trigger huge
            // allocations.
            return Err(ObjFormatError::Truncated);
        }
        let mut code = Vec::with_capacity(n_code);
        for _ in 0..n_code {
            let word = get_u32(&mut data)?;
            code.push(decode(word).map_err(|_| ObjFormatError::BadInstruction(word))?);
        }
        let n_relocs = get_u32(&mut data)? as usize;
        // Each serialized relocation is at least 9 bytes.
        if data.remaining() < n_relocs.saturating_mul(9) {
            return Err(ObjFormatError::Truncated);
        }
        let mut relocs = Vec::with_capacity(n_relocs);
        for _ in 0..n_relocs {
            let at = get_u32(&mut data)? as usize;
            let tag = get_u8(&mut data)?;
            let kind = match tag {
                0 => RelocKind::Call {
                    symbol: get_str(&mut data)?,
                },
                1 | 2 => {
                    let symbol = get_str(&mut data)?;
                    if data.remaining() < 4 {
                        return Err(ObjFormatError::Truncated);
                    }
                    let addend = data.get_i32_le();
                    if tag == 1 {
                        RelocKind::GpAdd { symbol, addend }
                    } else {
                        RelocKind::AbsAddr { symbol, addend }
                    }
                }
                t => return Err(ObjFormatError::BadRelocTag(t)),
            };
            relocs.push(Reloc { at, kind });
        }
        Ok(ObjectFile {
            symbol,
            code,
            align,
            relocs,
        })
    }
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_u8(data: &mut Bytes) -> Result<u8, ObjFormatError> {
    if data.remaining() < 1 {
        return Err(ObjFormatError::Truncated);
    }
    Ok(data.get_u8())
}

fn get_u32(data: &mut Bytes) -> Result<u32, ObjFormatError> {
    if data.remaining() < 4 {
        return Err(ObjFormatError::Truncated);
    }
    Ok(data.get_u32_le())
}

fn get_str(data: &mut Bytes) -> Result<String, ObjFormatError> {
    let len = get_u32(data)? as usize;
    if data.remaining() < len {
        return Err(ObjFormatError::Truncated);
    }
    let raw = data.split_to(len);
    String::from_utf8(raw.to_vec()).map_err(|_| ObjFormatError::BadString)
}

/// Error decoding a serialized object file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObjFormatError {
    /// Wrong magic number.
    BadMagic(u32),
    /// Input ended early.
    Truncated,
    /// An instruction word failed to decode.
    BadInstruction(u32),
    /// Unknown relocation tag.
    BadRelocTag(u8),
    /// Symbol name was not UTF-8.
    BadString,
}

impl fmt::Display for ObjFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjFormatError::BadMagic(m) => write!(f, "bad object magic {m:#010x}"),
            ObjFormatError::Truncated => f.write_str("truncated object file"),
            ObjFormatError::BadInstruction(w) => write!(f, "undecodable instruction {w:#010x}"),
            ObjFormatError::BadRelocTag(t) => write!(f, "unknown relocation tag {t}"),
            ObjFormatError::BadString => f.write_str("symbol name is not valid UTF-8"),
        }
    }
}

impl std::error::Error for ObjFormatError {}

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
    fn roundtrip_serialization() {
        let obj = sample();
        let bytes = obj.to_bytes();
        let back = ObjectFile::from_bytes(bytes).unwrap();
        assert_eq!(back, obj);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut raw = sample().to_bytes().to_vec();
        raw[0] ^= 0xFF;
        let err = ObjectFile::from_bytes(Bytes::from(raw)).unwrap_err();
        assert!(matches!(err, ObjFormatError::BadMagic(_)));
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        let full = sample().to_bytes();
        for len in 0..full.len() {
            let err = ObjectFile::from_bytes(full.slice(0..len)).unwrap_err();
            assert!(
                matches!(err, ObjFormatError::Truncated | ObjFormatError::BadMagic(_)),
                "len {len}: {err}"
            );
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
