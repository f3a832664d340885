//! The compiler's intermediate representation.
//!
//! The IR is a conventional three-address form with one deliberate
//! simplification: **values ([`Val`]) are block-local temporaries**. All
//! data that crosses a basic-block boundary flows through *local slots*
//! ([`LocalId`]) — named stack slots read with [`Op::LoadLocal`] and written
//! with [`Op::StoreLocal`]. This is the classic "before mem2reg" shape; the
//! optimizer keeps slots in memory at `O0`/`O1` and the code generator
//! promotes eligible slots to registers at `O2` and above, which is one of
//! the genuine optimization-level differences the bias experiments measure.
//!
//! Function parameters occupy the first `param_count` local slots and are
//! initialized from the argument registers on entry.
//!
//! # Uninitialized locals
//!
//! Reading a local slot before storing to it in the same activation yields
//! an *unspecified* (deterministic per build, but build-dependent) value —
//! the C rule for uninitialized automatics. In particular the inliner
//! relocates callee slots into the caller's frame, which changes what a
//! premature read observes. Well-defined programs (the workload suite, the
//! builder examples, and the differential fuzzer) initialize every scalar
//! local before reading it.

use std::fmt;

use biaslab_isa::{AluOp, Cond, Width};

/// A block-local temporary value (virtual register).
///
/// Defined by exactly one [`Op`] in a block and dead at the block's end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Val(pub u32);

/// Index of a local slot within a [`Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LocalId(pub u32);

/// Index of a global within a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalId(pub u32);

/// Index of a function within a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

/// Index of a basic block within a [`Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// One non-terminator IR operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `dst = value`
    Const {
        /// Defined value.
        dst: Val,
        /// The 64-bit constant.
        value: u64,
    },
    /// `dst = op(a, b)`
    Bin {
        /// ALU operation.
        op: AluOp,
        /// Defined value.
        dst: Val,
        /// Left operand.
        a: Val,
        /// Right operand.
        b: Val,
    },
    /// `dst = op(a, imm)`. The immediate may exceed 16 bits; the code
    /// generator materializes it if needed.
    BinImm {
        /// ALU operation.
        op: AluOp,
        /// Defined value.
        dst: Val,
        /// Left operand.
        a: Val,
        /// Right operand (immediate).
        imm: i64,
    },
    /// `dst = local[offset..offset+8]` — read a scalar from a local slot.
    LoadLocal {
        /// Defined value.
        dst: Val,
        /// Slot to read.
        local: LocalId,
        /// Byte offset within the slot (8-aligned).
        offset: u32,
    },
    /// `local[offset..offset+8] = src` — write a scalar to a local slot.
    StoreLocal {
        /// Slot to write.
        local: LocalId,
        /// Byte offset within the slot (8-aligned).
        offset: u32,
        /// Stored value.
        src: Val,
    },
    /// `dst = &local` — take the address of a local slot. Marks the slot
    /// address-taken, pinning it to the stack at every optimization level.
    AddrLocal {
        /// Defined value.
        dst: Val,
        /// Slot whose address is taken.
        local: LocalId,
    },
    /// `dst = &global`
    AddrGlobal {
        /// Defined value.
        dst: Val,
        /// Global whose address is taken.
        global: GlobalId,
    },
    /// `dst = mem[addr + offset]` (zero-extended to 64 bits).
    Load {
        /// Access width.
        width: Width,
        /// Defined value.
        dst: Val,
        /// Address operand.
        addr: Val,
        /// Constant byte offset.
        offset: i32,
    },
    /// `mem[addr + offset] = src` (truncated to width).
    Store {
        /// Access width.
        width: Width,
        /// Address operand.
        addr: Val,
        /// Constant byte offset.
        offset: i32,
        /// Stored value.
        src: Val,
    },
    /// Direct call. Arguments are passed in registers (at most 6).
    Call {
        /// Receives the callee's return value, if used.
        dst: Option<Val>,
        /// Callee.
        func: FuncId,
        /// Argument values.
        args: Vec<Val>,
    },
    /// Fold `src` into the machine checksum (observable output).
    Chk {
        /// Value to fold into the checksum.
        src: Val,
    },
}

impl Op {
    /// The value defined by this op, if any.
    #[must_use]
    pub fn def(&self) -> Option<Val> {
        match *self {
            Op::Const { dst, .. }
            | Op::Bin { dst, .. }
            | Op::BinImm { dst, .. }
            | Op::LoadLocal { dst, .. }
            | Op::AddrLocal { dst, .. }
            | Op::AddrGlobal { dst, .. }
            | Op::Load { dst, .. } => Some(dst),
            Op::Call { dst, .. } => dst,
            Op::StoreLocal { .. } | Op::Store { .. } | Op::Chk { .. } => None,
        }
    }

    /// The values used by this op, in operand order.
    #[must_use]
    pub fn uses(&self) -> Vec<Val> {
        match self {
            Op::Const { .. }
            | Op::AddrLocal { .. }
            | Op::AddrGlobal { .. }
            | Op::LoadLocal { .. } => {
                vec![]
            }
            Op::Bin { a, b, .. } => vec![*a, *b],
            Op::BinImm { a, .. } => vec![*a],
            Op::StoreLocal { src, .. } => vec![*src],
            Op::Load { addr, .. } => vec![*addr],
            Op::Store { addr, src, .. } => vec![*addr, *src],
            Op::Call { args, .. } => args.clone(),
            Op::Chk { src } => vec![*src],
        }
    }

    /// Rewrites every used value through `f` (definitions are untouched).
    pub fn map_uses(&mut self, mut f: impl FnMut(Val) -> Val) {
        match self {
            Op::Const { .. }
            | Op::AddrLocal { .. }
            | Op::AddrGlobal { .. }
            | Op::LoadLocal { .. } => {}
            Op::Bin { a, b, .. } => {
                *a = f(*a);
                *b = f(*b);
            }
            Op::BinImm { a, .. } => *a = f(*a),
            Op::StoreLocal { src, .. } => *src = f(*src),
            Op::Load { addr, .. } => *addr = f(*addr),
            Op::Store { addr, src, .. } => {
                *addr = f(*addr);
                *src = f(*src);
            }
            Op::Call { args, .. } => {
                for a in args {
                    *a = f(*a);
                }
            }
            Op::Chk { src } => *src = f(*src),
        }
    }

    /// Whether removing this op (when its result is unused) changes
    /// program behaviour. Loads are pure in this machine model — they can
    /// fault only on unmapped pages, which the verifier-checked workloads
    /// never touch.
    #[must_use]
    pub fn has_side_effect(&self) -> bool {
        matches!(
            self,
            Op::StoreLocal { .. } | Op::Store { .. } | Op::Call { .. } | Op::Chk { .. }
        )
    }
}

/// A basic-block terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way conditional branch.
    Branch {
        /// Compare condition.
        cond: Cond,
        /// Left compared value.
        a: Val,
        /// Right compared value.
        b: Val,
        /// Successor when the condition holds.
        then_block: BlockId,
        /// Successor when the condition does not hold.
        else_block: BlockId,
    },
    /// Return from the function.
    Ret {
        /// Returned value, if the function produces one.
        value: Option<Val>,
    },
}

impl Terminator {
    /// The values used by the terminator.
    #[must_use]
    pub fn uses(&self) -> Vec<Val> {
        match self {
            Terminator::Jump(_) => vec![],
            Terminator::Branch { a, b, .. } => vec![*a, *b],
            Terminator::Ret { value } => value.iter().copied().collect(),
        }
    }

    /// The successor blocks, in branch order.
    #[must_use]
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(b) => vec![*b],
            Terminator::Branch {
                then_block,
                else_block,
                ..
            } => vec![*then_block, *else_block],
            Terminator::Ret { .. } => vec![],
        }
    }

    /// The values used by the terminator (same as [`Terminator::uses`];
    /// named separately for call sites that pair it with
    /// [`Terminator::map_uses`]).
    #[must_use]
    pub fn uses_for_rewrite(&self) -> Vec<Val> {
        self.uses()
    }

    /// Rewrites every used value through `f`.
    pub fn map_uses(&mut self, mut f: impl FnMut(Val) -> Val) {
        match self {
            Terminator::Jump(_) => {}
            Terminator::Branch { a, b, .. } => {
                *a = f(*a);
                *b = f(*b);
            }
            Terminator::Ret { value: Some(v) } => *v = f(*v),
            Terminator::Ret { value: None } => {}
        }
    }

    /// Rewrites successor block ids through `f`.
    pub fn map_successors(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Terminator::Jump(b) => *b = f(*b),
            Terminator::Branch {
                then_block,
                else_block,
                ..
            } => {
                *then_block = f(*then_block);
                *else_block = f(*else_block);
            }
            Terminator::Ret { .. } => {}
        }
    }
}

/// A basic block: straight-line ops plus one terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Straight-line operations.
    pub ops: Vec<Op>,
    /// Control-flow exit.
    pub term: Terminator,
}

/// A stack slot local to one function activation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalSlot {
    /// Size in bytes. Scalars are 8; buffers may be any size.
    pub size: u32,
    /// Required alignment (power of two).
    pub align: u32,
}

impl LocalSlot {
    /// An 8-byte scalar slot.
    #[must_use]
    pub fn scalar() -> LocalSlot {
        LocalSlot { size: 8, align: 8 }
    }

    /// A buffer slot of `size` bytes, 16-aligned (matching what compilers
    /// and allocators guarantee for arrays).
    #[must_use]
    pub fn buffer(size: u32) -> LocalSlot {
        LocalSlot { size, align: 16 }
    }
}

/// Metadata describing a simple counted loop, recorded by the builder and
/// consumed by the unrolling pass.
///
/// The shape is `header` (test, two-way branch into `body` or the exit) and
/// `body` (single block ending with a back edge to `header`), with an
/// induction local advanced exactly once in the body by a constant step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopInfo {
    /// The loop's test block.
    pub header: BlockId,
    /// The loop's single body block.
    pub body: BlockId,
    /// The induction variable's local slot.
    pub induction: LocalId,
}

/// A function: parameters, local slots, and a CFG of basic blocks.
///
/// Block 0 is the entry block. The first `param_count` locals are the
/// parameters, initialized from argument registers on entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Symbol name; unique within the module.
    pub name: String,
    /// Number of parameters (≤ 6), stored in locals `0..param_count`.
    pub param_count: u32,
    /// Whether the function returns a value.
    pub returns_value: bool,
    /// Stack slots.
    pub locals: Vec<LocalSlot>,
    /// Basic blocks; `blocks[0]` is the entry.
    pub blocks: Vec<Block>,
    /// Counted loops eligible for unrolling, innermost first.
    pub loops: Vec<LoopInfo>,
    /// Next unallocated [`Val`] index (used by passes that create temps).
    pub next_val: u32,
}

impl Function {
    /// Allocates a fresh temporary value id.
    pub fn fresh_val(&mut self) -> Val {
        let v = Val(self.next_val);
        self.next_val += 1;
        v
    }

    /// Total number of ops across all blocks (a proxy for code size used by
    /// the inliner).
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.blocks.iter().map(|b| b.ops.len() + 1).sum()
    }

    /// The set of locals whose address is taken (these must live on the
    /// stack at every optimization level).
    #[must_use]
    pub fn address_taken_locals(&self) -> Vec<bool> {
        let mut taken = vec![false; self.locals.len()];
        for block in &self.blocks {
            for op in &block.ops {
                if let Op::AddrLocal { local, .. } = op {
                    taken[local.0 as usize] = true;
                }
            }
        }
        taken
    }

    /// Whether this function (directly) calls `target`.
    #[must_use]
    pub fn calls(&self, target: FuncId) -> bool {
        self.blocks
            .iter()
            .flat_map(|b| &b.ops)
            .any(|op| matches!(op, Op::Call { func, .. } if *func == target))
    }
}

/// A module-level global variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Global {
    /// Symbol name; unique within the module.
    pub name: String,
    /// Size in bytes.
    pub size: u32,
    /// Required alignment (power of two).
    pub align: u32,
    /// Initial contents; zero-filled to `size` if shorter.
    pub init: Vec<u8>,
}

impl Global {
    /// A zero-initialized global of `size` bytes, 16-aligned.
    #[must_use]
    pub fn zeroed(name: impl Into<String>, size: u32) -> Global {
        Global {
            name: name.into(),
            size,
            align: 16,
            init: Vec::new(),
        }
    }

    /// A global initialized from 64-bit words.
    #[must_use]
    pub fn from_words(name: impl Into<String>, words: &[u64]) -> Global {
        let mut init = Vec::with_capacity(words.len() * 8);
        for w in words {
            init.extend_from_slice(&w.to_le_bytes());
        }
        Global {
            name: name.into(),
            size: init.len() as u32,
            align: 16,
            init,
        }
    }
}

/// A compilation unit: functions plus globals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Module {
    /// All functions. The entry function is selected at link time by name.
    pub functions: Vec<Function>,
    /// All globals.
    pub globals: Vec<Global>,
}

impl Module {
    /// An empty module.
    #[must_use]
    pub fn new() -> Module {
        Module {
            functions: Vec::new(),
            globals: Vec::new(),
        }
    }

    /// Looks up a function by name.
    #[must_use]
    pub fn function_by_name(&self, name: &str) -> Option<FuncId> {
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Returns the function with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn func(&self, id: FuncId) -> &Function {
        &self.functions[id.0 as usize]
    }
}

impl Default for Module {
    fn default() -> Self {
        Module::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_op() -> Op {
        Op::Bin {
            op: AluOp::Add,
            dst: Val(2),
            a: Val(0),
            b: Val(1),
        }
    }

    #[test]
    fn op_def_and_uses() {
        let op = sample_op();
        assert_eq!(op.def(), Some(Val(2)));
        assert_eq!(op.uses(), vec![Val(0), Val(1)]);

        let store = Op::Store {
            width: Width::B8,
            addr: Val(3),
            offset: 0,
            src: Val(4),
        };
        assert_eq!(store.def(), None);
        assert_eq!(store.uses(), vec![Val(3), Val(4)]);
        assert!(store.has_side_effect());
        assert!(!sample_op().has_side_effect());
    }

    #[test]
    fn op_map_uses_rewrites_operands_only() {
        let mut op = sample_op();
        op.map_uses(|v| Val(v.0 + 10));
        assert_eq!(
            op,
            Op::Bin {
                op: AluOp::Add,
                dst: Val(2),
                a: Val(10),
                b: Val(11)
            }
        );
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::Branch {
            cond: Cond::Lt,
            a: Val(0),
            b: Val(1),
            then_block: BlockId(1),
            else_block: BlockId(2),
        };
        assert_eq!(t.successors(), vec![BlockId(1), BlockId(2)]);
        assert_eq!(Terminator::Ret { value: None }.successors(), vec![]);
        assert_eq!(Terminator::Jump(BlockId(7)).successors(), vec![BlockId(7)]);
    }

    #[test]
    fn function_tracks_address_taken_locals() {
        let f = Function {
            name: "f".into(),
            param_count: 0,
            returns_value: false,
            locals: vec![LocalSlot::scalar(), LocalSlot::buffer(64)],
            blocks: vec![Block {
                ops: vec![Op::AddrLocal {
                    dst: Val(0),
                    local: LocalId(1),
                }],
                term: Terminator::Ret { value: None },
            }],
            loops: vec![],
            next_val: 1,
        };
        assert_eq!(f.address_taken_locals(), vec![false, true]);
        assert_eq!(f.op_count(), 2);
    }

    #[test]
    fn module_function_lookup() {
        let mut m = Module::new();
        m.functions.push(Function {
            name: "main".into(),
            param_count: 0,
            returns_value: false,
            locals: vec![],
            blocks: vec![Block {
                ops: vec![],
                term: Terminator::Ret { value: None },
            }],
            loops: vec![],
            next_val: 0,
        });
        assert_eq!(m.function_by_name("main"), Some(FuncId(0)));
        assert_eq!(m.function_by_name("nope"), None);
        assert_eq!(m.func(FuncId(0)).name, "main");
    }

    #[test]
    fn global_constructors() {
        let g = Global::zeroed("buf", 128);
        assert_eq!(g.size, 128);
        assert!(g.init.is_empty());
        let g = Global::from_words("tbl", &[1, 2]);
        assert_eq!(g.size, 16);
        assert_eq!(&g.init[0..8], &1u64.to_le_bytes());
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Const { dst, value } => write!(f, "{dst} = const {value:#x}"),
            Op::Bin { op, dst, a, b } => write!(f, "{dst} = {} {a}, {b}", op.mnemonic()),
            Op::BinImm { op, dst, a, imm } => write!(f, "{dst} = {}i {a}, {imm}", op.mnemonic()),
            Op::LoadLocal { dst, local, offset } => {
                write!(f, "{dst} = local[{}+{offset}]", local.0)
            }
            Op::StoreLocal { local, offset, src } => {
                write!(f, "local[{}+{offset}] = {src}", local.0)
            }
            Op::AddrLocal { dst, local } => write!(f, "{dst} = &local[{}]", local.0),
            Op::AddrGlobal { dst, global } => write!(f, "{dst} = &global[{}]", global.0),
            Op::Load {
                width,
                dst,
                addr,
                offset,
            } => {
                write!(f, "{dst} = load.{} {addr}+{offset}", width.mnemonic())
            }
            Op::Store {
                width,
                addr,
                offset,
                src,
            } => {
                write!(f, "store.{} {addr}+{offset}, {src}", width.mnemonic())
            }
            Op::Call { dst, func, args } => {
                if let Some(d) = dst {
                    write!(f, "{d} = call f{}(", func.0)?;
                } else {
                    write!(f, "call f{}(", func.0)?;
                }
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
            Op::Chk { src } => write!(f, "chk {src}"),
        }
    }
}

impl fmt::Display for Terminator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Terminator::Jump(b) => write!(f, "jump {b}"),
            Terminator::Branch {
                cond,
                a,
                b,
                then_block,
                else_block,
            } => {
                write!(
                    f,
                    "br.{} {a}, {b} ? {then_block} : {else_block}",
                    cond.mnemonic()
                )
            }
            Terminator::Ret { value: Some(v) } => write!(f, "ret {v}"),
            Terminator::Ret { value: None } => f.write_str("ret"),
        }
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fn {}({} params, {} locals){}:",
            self.name,
            self.param_count,
            self.locals.len(),
            if self.returns_value { " -> val" } else { "" },
        )?;
        for (bi, block) in self.blocks.iter().enumerate() {
            writeln!(f, "bb{bi}:")?;
            for op in &block.ops {
                writeln!(f, "  {op}")?;
            }
            writeln!(f, "  {}", block.term)?;
        }
        Ok(())
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (gi, g) in self.globals.iter().enumerate() {
            writeln!(
                f,
                "global[{gi}] {} : {} bytes (align {})",
                g.name, g.size, g.align
            )?;
        }
        for func in &self.functions {
            writeln!(f)?;
            write!(f, "{func}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod display_tests {
    use super::*;
    use crate::builder::ModuleBuilder;

    #[test]
    fn module_pretty_prints() {
        let mut mb = ModuleBuilder::new();
        mb.global(Global::zeroed("tbl", 64));
        mb.function("f", 1, true, |fb| {
            let p = fb.param(0);
            let v = fb.get(p);
            let w = fb.mul_imm(v, 3);
            fb.chk(w);
            fb.ret(Some(w));
        });
        let m = mb.finish().unwrap();
        let text = m.to_string();
        assert!(text.contains("global[0] tbl : 64 bytes"));
        assert!(text.contains("fn f(1 params"));
        assert!(text.contains("muli"));
        assert!(text.contains("chk"));
        assert!(text.contains("ret %"));
        assert!(text.contains("bb0:"));
    }

    #[test]
    fn terminators_pretty_print() {
        let t = Terminator::Branch {
            cond: Cond::Ltu,
            a: Val(1),
            b: Val(2),
            then_block: BlockId(3),
            else_block: BlockId(4),
        };
        assert_eq!(t.to_string(), "br.ltu %1, %2 ? bb3 : bb4");
        assert_eq!(Terminator::Jump(BlockId(9)).to_string(), "jump bb9");
    }
}
