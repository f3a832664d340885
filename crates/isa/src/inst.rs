//! The instruction model and its disassembly.

use std::fmt;

use crate::reg::Reg;

/// Integer ALU operation, used by both register and immediate forms.
///
/// All arithmetic is 64-bit two's-complement wrapping. Division follows the
/// RISC-V convention: dividing by zero yields all-ones (`Div`) or the
/// dividend (`Rem`) instead of trapping, which keeps the simulator total.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// `rd = rs1 + rs2`
    Add,
    /// `rd = rs1 - rs2`
    Sub,
    /// `rd = rs1 * rs2` (low 64 bits)
    Mul,
    /// `rd = rs1 / rs2` (signed; x/0 = -1)
    Div,
    /// `rd = rs1 % rs2` (signed; x%0 = x)
    Rem,
    /// `rd = rs1 & rs2`
    And,
    /// `rd = rs1 | rs2`
    Or,
    /// `rd = rs1 ^ rs2`
    Xor,
    /// `rd = rs1 << (rs2 & 63)`
    Sll,
    /// `rd = rs1 >> (rs2 & 63)` (logical)
    Srl,
    /// `rd = rs1 >> (rs2 & 63)` (arithmetic)
    Sra,
    /// `rd = (rs1 <s rs2) as u64`
    Slt,
    /// `rd = (rs1 <u rs2) as u64`
    Sltu,
    /// `rd = (rs1 == rs2) as u64`
    Seq,
    /// `rd = (rs1 != rs2) as u64`
    Sne,
}

impl AluOp {
    /// Every ALU operation, in encoding order.
    pub const ALL: [AluOp; 15] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Rem,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Sll,
        AluOp::Srl,
        AluOp::Sra,
        AluOp::Slt,
        AluOp::Sltu,
        AluOp::Seq,
        AluOp::Sne,
    ];

    /// Evaluates the operation on two 64-bit operands.
    ///
    /// # Examples
    ///
    /// ```
    /// use biaslab_isa::AluOp;
    ///
    /// assert_eq!(AluOp::Add.eval(2, 3), 5);
    /// assert_eq!(AluOp::Slt.eval(u64::MAX, 0), 1); // -1 < 0 signed
    /// assert_eq!(AluOp::Div.eval(7, 0), u64::MAX); // divide by zero
    /// ```
    #[must_use]
    #[inline]
    pub fn eval(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    u64::MAX
                } else {
                    ((a as i64).wrapping_div(b as i64)) as u64
                }
            }
            AluOp::Rem => {
                if b == 0 {
                    a
                } else {
                    ((a as i64).wrapping_rem(b as i64)) as u64
                }
            }
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Sll => a.wrapping_shl(b as u32 & 63),
            AluOp::Srl => a.wrapping_shr(b as u32 & 63),
            AluOp::Sra => ((a as i64).wrapping_shr(b as u32 & 63)) as u64,
            AluOp::Slt => u64::from((a as i64) < (b as i64)),
            AluOp::Sltu => u64::from(a < b),
            AluOp::Seq => u64::from(a == b),
            AluOp::Sne => u64::from(a != b),
        }
    }

    /// The assembler mnemonic, e.g. `"add"`.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::Rem => "rem",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Sll => "sll",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
            AluOp::Seq => "seq",
            AluOp::Sne => "sne",
        }
    }

    /// Extends a 16-bit instruction immediate to the 64-bit operand this
    /// operation consumes. Logical operations (`And`, `Or`, `Xor`)
    /// zero-extend, all others sign-extend — the MIPS convention, which
    /// lets `lui`+`ori` materialize any 32-bit constant in two
    /// instructions.
    ///
    /// # Examples
    ///
    /// ```
    /// use biaslab_isa::AluOp;
    ///
    /// assert_eq!(AluOp::Add.extend_imm(-1), u64::MAX);
    /// assert_eq!(AluOp::Or.extend_imm(-1), 0xFFFF);
    /// ```
    #[must_use]
    #[inline]
    pub fn extend_imm(self, imm: i16) -> u64 {
        match self {
            AluOp::And | AluOp::Or | AluOp::Xor => u64::from(imm as u16),
            _ => imm as i64 as u64,
        }
    }

    /// Whether the operation commutes (`op(a, b) == op(b, a)`).
    #[must_use]
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            AluOp::Add | AluOp::Mul | AluOp::And | AluOp::Or | AluOp::Xor | AluOp::Seq | AluOp::Sne
        )
    }
}

/// Branch condition for compare-and-branch instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Branch if `rs1 == rs2`.
    Eq,
    /// Branch if `rs1 != rs2`.
    Ne,
    /// Branch if `rs1 < rs2` (signed).
    Lt,
    /// Branch if `rs1 >= rs2` (signed).
    Ge,
    /// Branch if `rs1 < rs2` (unsigned).
    Ltu,
    /// Branch if `rs1 >= rs2` (unsigned).
    Geu,
}

impl Cond {
    /// Every condition, in encoding order.
    pub const ALL: [Cond; 6] = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::Ltu, Cond::Geu];

    /// Evaluates the condition on two 64-bit operands.
    #[must_use]
    #[inline]
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => (a as i64) < (b as i64),
            Cond::Ge => (a as i64) >= (b as i64),
            Cond::Ltu => a < b,
            Cond::Geu => a >= b,
        }
    }

    /// The condition testing the opposite outcome.
    ///
    /// `cond.eval(a, b) == !cond.negate().eval(a, b)` for all operands.
    #[must_use]
    pub fn negate(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Ge => Cond::Lt,
            Cond::Ltu => Cond::Geu,
            Cond::Geu => Cond::Ltu,
        }
    }

    /// The assembler mnemonic suffix, e.g. `"eq"` for `beq`.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Lt => "lt",
            Cond::Ge => "ge",
            Cond::Ltu => "ltu",
            Cond::Geu => "geu",
        }
    }
}

/// Memory access width for loads and stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// One byte (zero-extended on load).
    B1,
    /// Four bytes (zero-extended on load).
    B4,
    /// Eight bytes.
    B8,
}

impl Width {
    /// The access size in bytes (1, 4 or 8).
    #[must_use]
    #[inline]
    pub fn bytes(self) -> u32 {
        match self {
            Width::B1 => 1,
            Width::B4 => 4,
            Width::B8 => 8,
        }
    }

    /// The load/store mnemonic suffix (`"b"`, `"w"`, `"d"`).
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            Width::B1 => "b",
            Width::B4 => "w",
            Width::B8 => "d",
        }
    }
}

/// One MRV32 instruction.
///
/// Branch and jump offsets are in **bytes** relative to the address of the
/// *next* instruction (i.e. `pc + 4`), and must be multiples of 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst {
    /// Three-register ALU operation: `rd = op(rs1, rs2)`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First source operand.
        rs1: Reg,
        /// Second source operand.
        rs2: Reg,
    },
    /// Immediate ALU operation: `rd = op(rs1, sign_extend(imm))`.
    AluImm {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// Source operand.
        rs1: Reg,
        /// 16-bit signed immediate.
        imm: i16,
    },
    /// Load upper immediate: `rd = (imm as u64) << 16`.
    Lui {
        /// Destination register.
        rd: Reg,
        /// Immediate placed in bits 16..32 of `rd`.
        imm: u16,
    },
    /// Load from memory: `rd = mem[rs1 + offset]` (zero-extended).
    Load {
        /// Access width.
        width: Width,
        /// Destination register.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Signed byte offset from `base`.
        offset: i16,
    },
    /// Store to memory: `mem[rs1 + offset] = rs` (truncated to width).
    Store {
        /// Access width.
        width: Width,
        /// Register holding the value to store.
        rs: Reg,
        /// Base address register.
        base: Reg,
        /// Signed byte offset from `base`.
        offset: i16,
    },
    /// Compare-and-branch: if `cond(rs1, rs2)` then `pc = pc + 4 + offset`.
    Branch {
        /// Condition.
        cond: Cond,
        /// First compared register.
        rs1: Reg,
        /// Second compared register.
        rs2: Reg,
        /// Signed byte offset from the next instruction; multiple of 4.
        offset: i32,
    },
    /// Jump-and-link: `rd = pc + 4; pc = pc + 4 + offset`. Used for calls
    /// (`rd = ra`) and unconditional jumps (`rd = zero`).
    Jal {
        /// Link register (receives the return address).
        rd: Reg,
        /// Signed byte offset from the next instruction; multiple of 4.
        offset: i32,
    },
    /// Indirect jump-and-link: `rd = pc + 4; pc = rs1 + offset`. Used for
    /// returns (`jalr zero, ra, 0`) and indirect calls.
    Jalr {
        /// Link register (receives the return address).
        rd: Reg,
        /// Register holding the target address.
        rs1: Reg,
        /// Signed byte offset added to `rs1`.
        offset: i16,
    },
    /// Fold `rs` into the machine's checksum register
    /// (`chk = rotl(chk, 1) ^ rs`). Semantically observable: the workload
    /// suite uses the final checksum to verify optimization correctness.
    Chk {
        /// Register whose value is folded into the checksum.
        rs: Reg,
    },
    /// Stop execution.
    Halt,
    /// No operation.
    Nop,
}

impl Inst {
    /// Whether this instruction can change control flow.
    #[must_use]
    pub fn is_control(self) -> bool {
        matches!(
            self,
            Inst::Branch { .. } | Inst::Jal { .. } | Inst::Jalr { .. } | Inst::Halt
        )
    }

    /// Whether this instruction is a conditional branch.
    #[must_use]
    pub fn is_branch(self) -> bool {
        matches!(self, Inst::Branch { .. })
    }

    /// Whether this instruction accesses data memory.
    #[must_use]
    pub fn is_memory(self) -> bool {
        matches!(self, Inst::Load { .. } | Inst::Store { .. })
    }

    /// The destination register written by this instruction, if any.
    #[must_use]
    pub fn def(self) -> Option<Reg> {
        match self {
            Inst::Alu { rd, .. }
            | Inst::AluImm { rd, .. }
            | Inst::Lui { rd, .. }
            | Inst::Load { rd, .. }
            | Inst::Jal { rd, .. }
            | Inst::Jalr { rd, .. } => (!rd.is_zero()).then_some(rd),
            _ => None,
        }
    }

    /// The source registers read by this instruction (zero register
    /// included), in operand order.
    #[must_use]
    pub fn uses(self) -> Vec<Reg> {
        match self {
            Inst::Alu { rs1, rs2, .. } => vec![rs1, rs2],
            Inst::AluImm { rs1, .. } => vec![rs1],
            Inst::Lui { .. } | Inst::Jal { .. } | Inst::Halt | Inst::Nop => vec![],
            Inst::Load { base, .. } => vec![base],
            Inst::Store { rs, base, .. } => vec![rs, base],
            Inst::Branch { rs1, rs2, .. } => vec![rs1, rs2],
            Inst::Jalr { rs1, .. } => vec![rs1],
            Inst::Chk { rs } => vec![rs],
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Inst::Alu { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic())
            }
            Inst::AluImm { op, rd, rs1, imm } => {
                write!(f, "{}i {rd}, {rs1}, {imm}", op.mnemonic())
            }
            Inst::Lui { rd, imm } => write!(f, "lui {rd}, {imm:#x}"),
            Inst::Load {
                width,
                rd,
                base,
                offset,
            } => {
                write!(f, "l{} {rd}, {offset}({base})", width.mnemonic())
            }
            Inst::Store {
                width,
                rs,
                base,
                offset,
            } => {
                write!(f, "s{} {rs}, {offset}({base})", width.mnemonic())
            }
            Inst::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => {
                write!(f, "b{} {rs1}, {rs2}, {offset}", cond.mnemonic())
            }
            Inst::Jal { rd, offset } => write!(f, "jal {rd}, {offset}"),
            Inst::Jalr { rd, rs1, offset } => write!(f, "jalr {rd}, {offset}({rs1})"),
            Inst::Chk { rs } => write!(f, "chk {rs}"),
            Inst::Halt => f.write_str("halt"),
            Inst::Nop => f.write_str("nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_eval_basic() {
        assert_eq!(AluOp::Add.eval(3, 4), 7);
        assert_eq!(AluOp::Sub.eval(3, 4), u64::MAX); // wraps
        assert_eq!(AluOp::Mul.eval(1 << 40, 1 << 40), 0); // low 64 bits
        assert_eq!(AluOp::And.eval(0b1100, 0b1010), 0b1000);
        assert_eq!(AluOp::Or.eval(0b1100, 0b1010), 0b1110);
        assert_eq!(AluOp::Xor.eval(0b1100, 0b1010), 0b0110);
    }

    #[test]
    fn alu_eval_shifts_mask_amount() {
        assert_eq!(AluOp::Sll.eval(1, 64), 1); // 64 & 63 == 0
        assert_eq!(AluOp::Sll.eval(1, 3), 8);
        assert_eq!(AluOp::Srl.eval(u64::MAX, 63), 1);
        assert_eq!(AluOp::Sra.eval(u64::MAX, 63), u64::MAX); // sign fill
    }

    #[test]
    fn alu_eval_signed_division() {
        assert_eq!(AluOp::Div.eval(7, 2), 3);
        let minus_seven = (-7i64) as u64;
        assert_eq!(AluOp::Div.eval(minus_seven, 2), (-3i64) as u64);
        assert_eq!(AluOp::Rem.eval(minus_seven, 2), (-1i64) as u64);
        // Division by zero is total, not trapping.
        assert_eq!(AluOp::Div.eval(42, 0), u64::MAX);
        assert_eq!(AluOp::Rem.eval(42, 0), 42);
        // i64::MIN / -1 must not overflow-panic.
        assert_eq!(AluOp::Div.eval(i64::MIN as u64, u64::MAX), i64::MIN as u64);
    }

    #[test]
    fn alu_eval_comparisons() {
        assert_eq!(AluOp::Slt.eval((-1i64) as u64, 0), 1);
        assert_eq!(AluOp::Sltu.eval((-1i64) as u64, 0), 0);
        assert_eq!(AluOp::Seq.eval(5, 5), 1);
        assert_eq!(AluOp::Sne.eval(5, 5), 0);
    }

    #[test]
    fn cond_negate_is_involution_and_inverts() {
        for cond in Cond::ALL {
            assert_eq!(cond.negate().negate(), cond);
            for (a, b) in [(0u64, 0u64), (1, 2), (2, 1), (u64::MAX, 0), (0, u64::MAX)] {
                assert_eq!(
                    cond.eval(a, b),
                    !cond.negate().eval(a, b),
                    "{cond:?} {a} {b}"
                );
            }
        }
    }

    #[test]
    fn commutativity_flags_match_eval() {
        let samples = [(1u64, 2u64), (u64::MAX, 3), (0, 0), (17, 17), (5, 0)];
        for op in AluOp::ALL {
            if op.is_commutative() {
                for (a, b) in samples {
                    assert_eq!(op.eval(a, b), op.eval(b, a), "{op:?} should commute");
                }
            }
        }
        // And spot-check one that must not.
        assert_ne!(AluOp::Sub.eval(1, 2), AluOp::Sub.eval(2, 1));
    }

    #[test]
    fn def_and_uses() {
        let add = Inst::Alu {
            op: AluOp::Add,
            rd: Reg::r(3),
            rs1: Reg::r(1),
            rs2: Reg::r(2),
        };
        assert_eq!(add.def(), Some(Reg::r(3)));
        assert_eq!(add.uses(), vec![Reg::r(1), Reg::r(2)]);

        // Writes to the zero register define nothing.
        let to_zero = Inst::AluImm {
            op: AluOp::Add,
            rd: Reg::ZERO,
            rs1: Reg::r(1),
            imm: 0,
        };
        assert_eq!(to_zero.def(), None);

        let store = Inst::Store {
            width: Width::B8,
            rs: Reg::r(4),
            base: Reg::SP,
            offset: -8,
        };
        assert_eq!(store.def(), None);
        assert_eq!(store.uses(), vec![Reg::r(4), Reg::SP]);
    }

    #[test]
    fn classification() {
        let br = Inst::Branch {
            cond: Cond::Eq,
            rs1: Reg::r(1),
            rs2: Reg::r(2),
            offset: 8,
        };
        assert!(br.is_control());
        assert!(br.is_branch());
        assert!(!br.is_memory());
        assert!(Inst::Halt.is_control());
        assert!(!Inst::Nop.is_control());
        let ld = Inst::Load {
            width: Width::B8,
            rd: Reg::r(1),
            base: Reg::SP,
            offset: 0,
        };
        assert!(ld.is_memory());
        assert!(!ld.is_branch());
    }

    #[test]
    fn disassembly_formats() {
        let ld = Inst::Load {
            width: Width::B4,
            rd: Reg::r(2),
            base: Reg::FP,
            offset: -12,
        };
        assert_eq!(ld.to_string(), "lw r2, -12(fp)");
        let br = Inst::Branch {
            cond: Cond::Ltu,
            rs1: Reg::r(1),
            rs2: Reg::r(2),
            offset: -16,
        };
        assert_eq!(br.to_string(), "bltu r1, r2, -16");
        let ret = Inst::Jalr {
            rd: Reg::ZERO,
            rs1: Reg::RA,
            offset: 0,
        };
        assert_eq!(ret.to_string(), "jalr r0, 0(ra)");
    }

    #[test]
    fn width_bytes() {
        assert_eq!(Width::B1.bytes(), 1);
        assert_eq!(Width::B4.bytes(), 4);
        assert_eq!(Width::B8.bytes(), 8);
    }
}
