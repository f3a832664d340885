//! # biaslab-isa — the MRV32 instruction set
//!
//! MRV32 ("mini RISC VM, 32 registers") is the instruction set shared by the
//! `biaslab` toolchain (`biaslab-toolchain`) and simulator (`biaslab-uarch`).
//! It is a classic load/store RISC architecture:
//!
//! * 32 general-purpose 64-bit registers; [`Reg::ZERO`] is hard-wired to 0,
//!   and the ABI reserves [`Reg::RA`] (return address), [`Reg::SP`] (stack
//!   pointer), [`Reg::FP`] (frame pointer) and [`Reg::GP`] (global pointer).
//! * A 32-bit byte-addressed address space; instructions are fixed 4-byte
//!   words, so all code addresses are 4-aligned.
//! * ALU, load/store (1/4/8-byte widths), compare-and-branch, and
//!   call/return instructions, plus [`Inst::Chk`], a checksum instruction
//!   used by the workload suite to validate that optimization levels do not
//!   change program semantics.
//!
//! The crate provides the instruction model ([`Inst`]), a binary encoding
//! ([`encode`]/[`decode`]: the 32-bit word that makes every instruction 4
//! bytes, checked by round-trip property tests), and a disassembler
//! (`Display` on [`Inst`]).
//!
//! # Examples
//!
//! ```
//! use biaslab_isa::{decode, encode, AluOp, Inst, Reg};
//!
//! let inst = Inst::Alu { op: AluOp::Add, rd: Reg::r(3), rs1: Reg::r(1), rs2: Reg::r(2) };
//! let word = encode(inst);
//! assert_eq!(decode(word).unwrap(), inst);
//! assert_eq!(inst.to_string(), "add r3, r1, r2");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod encode;
mod inst;
mod reg;

pub use encode::{decode, encode, DecodeError};
pub use inst::{AluOp, Cond, Inst, Width};
pub use reg::Reg;

/// Size in bytes of one encoded MRV32 instruction.
pub const INST_BYTES: u32 = 4;

/// The architectural checksum fold performed by [`Inst::Chk`]:
/// `chk' = rotate_left(chk, 1) ^ value`.
///
/// Both the IR interpreter and the simulator implement `chk` with this
/// function, so a program's final checksum is identical across every
/// optimization level and machine — the property the workload suite uses to
/// validate toolchain correctness.
///
/// # Examples
///
/// ```
/// use biaslab_isa::checksum_fold;
///
/// let c = checksum_fold(checksum_fold(0, 1), 2);
/// assert_eq!(c, (1u64 << 1) ^ 2);
/// ```
#[must_use]
#[inline]
pub fn checksum_fold(acc: u64, value: u64) -> u64 {
    acc.rotate_left(1) ^ value
}
