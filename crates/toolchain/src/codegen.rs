//! Code generation: IR functions to relocatable MRV32 objects.
//!
//! The generator is deliberately conventional:
//!
//! * **Frame layout** (sp-relative, grows down): memory-resident locals at
//!   the bottom, a fixed 32-slot spill area, saved callee-saved registers,
//!   then `fp` and `ra` at the top.
//! * **Register classes**: `r1..r15` are caller-saved temporaries used for
//!   block-local values; `r16..r27` are callee-saved and host *promoted
//!   locals* at `O2`+ (scalar slots whose address is never taken).
//! * **Calls**: arguments in `r1..r6`, result in `r1`; the caller spills
//!   every live temporary around a call — the call overhead that inlining
//!   at `O3` eliminates.
//! * **Alignment**: functions request the alignment of their optimization
//!   level; at `O3` loop-header blocks are additionally padded to 16-byte
//!   fetch boundaries with `nop`s (mirroring `-falign-loops`).
//!
//! Lowering is semantics-preserving by construction and checked
//! differentially against the IR interpreter by the workload test suite.

use std::collections::{HashMap, VecDeque};

use biaslab_isa::{AluOp, Inst, Reg, Width};

use crate::ir::{BlockId, Function, LocalId, Module, Op, Terminator, Val};
use crate::layout::align_up;
use crate::obj::{CompiledModule, ObjectFile, Reloc, RelocKind};
use crate::opt::OptLevel;

/// Number of reserved 8-byte spill slots in every frame.
const SPILL_SLOTS: u32 = 32;
/// First / last temporary register indices (inclusive).
const TEMP_FIRST: u8 = 1;
const TEMP_LAST: u8 = 12;
/// First register hosting promoted locals.
const PROMOTED_FIRST: u8 = 13;
/// Maximum number of promoted locals (r13..r27).
const PROMOTED_MAX: usize = 15;

/// Compiles every function of an (already optimized) module.
///
/// The result's objects appear in declaration order; permute them before
/// linking to exercise link-order bias.
#[must_use]
pub fn compile(module: &Module, level: OptLevel) -> CompiledModule {
    let objects = module
        .functions
        .iter()
        .map(|f| compile_function(module, f, level))
        .collect();
    CompiledModule::new(objects, module.globals.clone(), level)
}

/// Where a local slot lives at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Home {
    /// sp-relative byte offset.
    Mem(u32),
    /// Promoted to a callee-saved register.
    Reg(Reg),
}

/// The frame layout and register-promotion plan for one function at one
/// optimization level: the part of code generation that decides which
/// locals produce stack traffic, how big the frame is, and what the
/// prologue/epilogue save.
///
/// Exposed so static analyses (the `biaslab-analyze` crate) can reason
/// about a function's run-time stack behavior without compiling it; the
/// code generator itself consumes the same plan, so the two can never
/// disagree.
#[derive(Debug, Clone)]
pub struct FramePlan {
    /// Where each local lives, indexed by `LocalId`.
    pub homes: Vec<Home>,
    /// Total frame size in bytes (16-aligned).
    pub frame: u32,
    /// sp-relative base of the reserved spill slots.
    pub spill_base: u32,
    /// sp-relative base of the callee-saved register area.
    pub saved_base: u32,
    /// Callee-saved registers hosting promoted locals.
    pub saved: Vec<Reg>,
    /// Whether the prologue saves `ra`/`fp` (leaf functions at `O2` and
    /// above skip the pair).
    pub save_ra_fp: bool,
    /// sp-relative offset of the saved `fp` (meaningful if `save_ra_fp`).
    pub fp_off: u32,
    /// sp-relative offset of the saved `ra` (meaningful if `save_ra_fp`).
    pub ra_off: u32,
}

impl FramePlan {
    /// Whether local `i` is memory-resident (produces stack traffic on
    /// every access) rather than promoted to a register.
    #[must_use]
    pub fn in_memory(&self, i: usize) -> bool {
        matches!(self.homes.get(i), Some(Home::Mem(_)))
    }

    /// Stack memory operations executed per function entry: the
    /// prologue's callee-saved stores plus the epilogue's reloads, and
    /// the `ra`/`fp` pair when it is saved.
    #[must_use]
    pub fn entry_stack_ops(&self) -> u32 {
        2 * (self.saved.len() as u32 + if self.save_ra_fp { 2 } else { 0 })
    }
}

/// Computes the [`FramePlan`] for `f` at `level`.
///
/// Scalars whose address is never taken are promoted to callee-saved
/// registers, hottest first: references weigh 16x per level of loop
/// nesting, so innermost-loop locals always win the registers.
#[must_use]
pub fn frame_plan(f: &Function, level: OptLevel) -> FramePlan {
    let taken = f.address_taken_locals();
    // Loop depth of each block: the number of back-edge ranges [target,
    // source] containing it (exact for the builder's reducible layouts).
    let mut depth = vec![0u32; f.blocks.len()];
    for (src, block) in f.blocks.iter().enumerate() {
        for t in block.term.successors() {
            let t = t.0 as usize;
            if t <= src {
                for d in &mut depth[t..=src] {
                    *d += 1;
                }
            }
        }
    }
    let mut scores = vec![0u64; f.locals.len()];
    for (bi, block) in f.blocks.iter().enumerate() {
        let weight = 16u64.saturating_pow(depth[bi].min(4));
        for op in &block.ops {
            if let Op::LoadLocal { local, .. } | Op::StoreLocal { local, .. } = op {
                scores[local.0 as usize] += weight;
            }
        }
    }
    let mut by_score: Vec<usize> = (0..f.locals.len()).collect();
    by_score.sort_by_key(|&i| std::cmp::Reverse(scores[i]));
    let mut promote_set = vec![false; f.locals.len()];
    if level.promote_locals() {
        let mut claimed = 0;
        for &i in &by_score {
            if claimed == PROMOTED_MAX {
                break;
            }
            // Promotion costs a save/restore pair in the prologue and
            // epilogue; only promote locals whose access count beats it.
            if f.locals[i].size == 8 && !taken[i] && scores[i] > 2 {
                promote_set[i] = true;
                claimed += 1;
            }
        }
    }
    let mut homes = Vec::with_capacity(f.locals.len());
    let mut promoted: Vec<Reg> = Vec::new();
    let mut mem_size = 0u32;
    for (i, slot) in f.locals.iter().enumerate() {
        if promote_set[i] {
            let reg = Reg::r(PROMOTED_FIRST + promoted.len() as u8);
            promoted.push(reg);
            homes.push(Home::Reg(reg));
        } else {
            mem_size = align_up(mem_size, slot.align);
            homes.push(Home::Mem(mem_size));
            mem_size += slot.size;
        }
    }
    let spill_base = align_up(mem_size, 8);
    let saved_base = spill_base + 8 * SPILL_SLOTS;
    let is_leaf = !f
        .blocks
        .iter()
        .flat_map(|b| &b.ops)
        .any(|op| matches!(op, Op::Call { .. }));
    let save_ra_fp = !(is_leaf && level >= OptLevel::O2);
    let saved = promoted;
    let mut top = saved_base + 8 * saved.len() as u32;
    let (fp_off, ra_off) = if save_ra_fp {
        let fp = top;
        let ra = top + 8;
        top += 16;
        (fp, ra)
    } else {
        (0, 0)
    };
    let frame = align_up(top.max(16), 16);
    FramePlan {
        homes,
        frame,
        spill_base,
        saved_base,
        saved,
        save_ra_fp,
        fp_off,
        ra_off,
    }
}

#[derive(Debug)]
struct Fixup {
    at: usize,
    target: BlockId,
}

#[derive(Debug)]
struct FuncCtx {
    homes: Vec<Home>,
    frame: u32,
    spill_base: u32,
    saved: Vec<Reg>,
    save_ra_fp: bool,
    insts: Vec<Inst>,
    relocs: Vec<Reloc>,
    fixups: Vec<Fixup>,
    block_starts: Vec<usize>,
}

impl FuncCtx {
    fn emit(&mut self, inst: Inst) -> usize {
        // Peephole: a register move onto itself is a no-op.
        if let Inst::Alu {
            op: AluOp::Add,
            rd,
            rs1,
            rs2,
        } = inst
        {
            if rd == rs1 && rs2 == Reg::ZERO && !self.insts.is_empty() {
                return self.insts.len() - 1;
            }
        }
        self.insts.push(inst);
        self.insts.len() - 1
    }

    fn spill_addr(&self, slot: u32) -> i16 {
        (self.spill_base + 8 * slot) as i16
    }
}

/// Compiles one function to an object file.
#[must_use]
pub fn compile_function(module: &Module, f: &Function, level: OptLevel) -> ObjectFile {
    // --- frame layout (shared with the static analyzer) ---------------------
    let FramePlan {
        homes,
        frame,
        spill_base,
        saved_base,
        saved,
        save_ra_fp,
        fp_off,
        ra_off,
    } = frame_plan(f, level);

    let mut ctx = FuncCtx {
        homes,
        frame,
        spill_base,
        saved: saved.clone(),
        save_ra_fp,
        insts: Vec::new(),
        relocs: Vec::new(),
        fixups: Vec::new(),
        block_starts: vec![0; f.blocks.len()],
    };

    // --- prologue -----------------------------------------------------------
    ctx.emit(Inst::AluImm {
        op: AluOp::Sub,
        rd: Reg::SP,
        rs1: Reg::SP,
        imm: frame as i16,
    });
    if save_ra_fp {
        ctx.emit(Inst::Store {
            width: Width::B8,
            rs: Reg::RA,
            base: Reg::SP,
            offset: ra_off as i16,
        });
        ctx.emit(Inst::Store {
            width: Width::B8,
            rs: Reg::FP,
            base: Reg::SP,
            offset: fp_off as i16,
        });
        ctx.emit(Inst::AluImm {
            op: AluOp::Add,
            rd: Reg::FP,
            rs1: Reg::SP,
            imm: frame as i16,
        });
    }
    for (k, &reg) in saved.iter().enumerate() {
        ctx.emit(Inst::Store {
            width: Width::B8,
            rs: reg,
            base: Reg::SP,
            offset: (saved_base + 8 * k as u32) as i16,
        });
    }
    // Parameters: r1..r6 into their homes.
    for p in 0..f.param_count {
        let arg = Reg::r(1 + p as u8);
        match ctx.homes[p as usize] {
            Home::Mem(off) => {
                ctx.emit(Inst::Store {
                    width: Width::B8,
                    rs: arg,
                    base: Reg::SP,
                    offset: off as i16,
                });
            }
            Home::Reg(home) => {
                ctx.emit(Inst::Alu {
                    op: AluOp::Add,
                    rd: home,
                    rs1: arg,
                    rs2: Reg::ZERO,
                });
            }
        }
    }

    // --- blocks -------------------------------------------------------------
    // A block is treated as a loop header if any same-or-later block jumps
    // back to it; at O3 such blocks are padded to a 16-byte boundary.
    let mut back_target = vec![false; f.blocks.len()];
    for (bi, b) in f.blocks.iter().enumerate() {
        for s in b.term.successors() {
            if (s.0 as usize) <= bi {
                back_target[s.0 as usize] = true;
            }
        }
    }

    for (bi, block) in f.blocks.iter().enumerate() {
        if level.align_loops() && back_target[bi] {
            while !(ctx.insts.len() * 4).is_multiple_of(16) {
                ctx.emit(Inst::Nop);
            }
        }
        ctx.block_starts[bi] = ctx.insts.len();
        emit_block(module, f, &mut ctx, block, bi, ra_off, fp_off, saved_base);
    }

    // --- branch fixups --------------------------------------------------------
    for fix in &ctx.fixups {
        let target = ctx.block_starts[fix.target.0 as usize];
        let delta = (target as i64 - fix.at as i64 - 1) * 4;
        let delta = i32::try_from(delta).expect("branch delta fits i32");
        match &mut ctx.insts[fix.at] {
            Inst::Branch { offset, .. } | Inst::Jal { offset, .. } => *offset = delta,
            other => unreachable!("fixup points at non-branch {other}"),
        }
    }

    ObjectFile {
        symbol: f.name.clone(),
        code: ctx.insts,
        align: level.function_align(),
        relocs: ctx.relocs,
    }
}

// --------------------------------------------------------------------------
// Block-local register allocation
// --------------------------------------------------------------------------

#[derive(Debug, Default, Clone)]
struct VState {
    reg: Option<Reg>,
    slot: Option<u32>,
    /// Aliased to a promoted local's register: not evictable, not freed.
    aliased: bool,
}

#[derive(Debug)]
struct BlockAlloc {
    free: Vec<Reg>,
    state: HashMap<Val, VState>,
    reg_val: HashMap<Reg, Val>,
    uses: HashMap<Val, VecDeque<usize>>,
    free_slots: Vec<u32>,
    pinned: Vec<Reg>,
}

impl BlockAlloc {
    fn new(block_uses: HashMap<Val, VecDeque<usize>>) -> BlockAlloc {
        BlockAlloc {
            free: (TEMP_FIRST..=TEMP_LAST).rev().map(Reg::r).collect(),
            state: HashMap::new(),
            reg_val: HashMap::new(),
            uses: block_uses,
            free_slots: (0..SPILL_SLOTS).rev().collect(),
            pinned: Vec::new(),
        }
    }

    fn next_use(&self, v: Val) -> Option<usize> {
        self.uses.get(&v).and_then(|q| q.front().copied())
    }

    fn alloc_reg(&mut self, ctx: &mut FuncCtx) -> Reg {
        if let Some(r) = self.free.pop() {
            return r;
        }
        // Evict the value with the farthest next use. Ties are broken by
        // register index: the map's own iteration order varies per process
        // and must not leak into the emitted code.
        let victim_reg = self
            .reg_val
            .iter()
            .filter(|(r, _)| !self.pinned.contains(r))
            .max_by_key(|(r, v)| {
                (
                    self.next_use(**v).unwrap_or(usize::MAX),
                    std::cmp::Reverse(r.index()),
                )
            })
            .map(|(r, _)| *r)
            .expect("a non-pinned temp register must exist");
        let victim = self.reg_val[&victim_reg];
        self.spill_val(ctx, victim);
        victim_reg
    }

    fn spill_val(&mut self, ctx: &mut FuncCtx, v: Val) {
        let st = self.state.get_mut(&v).expect("spilling unknown value");
        let reg = st.reg.take().expect("spilling register-less value");
        if st.slot.is_none() {
            let slot = self
                .free_slots
                .pop()
                .expect("spill area exhausted: raise SPILL_SLOTS or simplify the block");
            st.slot = Some(slot);
        }
        let off = ctx.spill_addr(st.slot.expect("just set"));
        ctx.emit(Inst::Store {
            width: Width::B8,
            rs: reg,
            base: Reg::SP,
            offset: off,
        });
        self.reg_val.remove(&reg);
    }

    /// Brings `v` into a register (reloading from its spill slot if needed).
    fn ensure_reg(&mut self, ctx: &mut FuncCtx, v: Val) -> Reg {
        if let Some(reg) = self.state.get(&v).and_then(|s| s.reg) {
            self.pinned.push(reg);
            return reg;
        }
        let slot = self
            .state
            .get(&v)
            .and_then(|s| s.slot)
            .unwrap_or_else(|| panic!("use of value {v} with no location"));
        let reg = self.alloc_reg(ctx);
        let off = ctx.spill_addr(slot);
        ctx.emit(Inst::Load {
            width: Width::B8,
            rd: reg,
            base: Reg::SP,
            offset: off,
        });
        let st = self.state.get_mut(&v).expect("checked above");
        st.reg = Some(reg);
        self.reg_val.insert(reg, v);
        self.pinned.push(reg);
        reg
    }

    /// Allocates a destination register for a fresh definition.
    fn def_reg(&mut self, ctx: &mut FuncCtx, v: Val) -> Reg {
        let reg = self.alloc_reg(ctx);
        self.state.insert(
            v,
            VState {
                reg: Some(reg),
                slot: None,
                aliased: false,
            },
        );
        self.reg_val.insert(reg, v);
        self.pinned.push(reg);
        reg
    }

    /// Records that `v` lives in a promoted local's register.
    fn def_alias(&mut self, v: Val, reg: Reg) {
        self.state.insert(
            v,
            VState {
                reg: Some(reg),
                slot: None,
                aliased: true,
            },
        );
    }

    /// Pops the current-position use of each operand and frees dead values.
    fn retire(&mut self, pos: usize, used: &[Val], defined: Option<Val>) {
        for &v in used {
            if let Some(q) = self.uses.get_mut(&v) {
                while q.front().is_some_and(|&p| p <= pos) {
                    q.pop_front();
                }
            }
        }
        let dead: Vec<Val> = used
            .iter()
            .copied()
            .chain(defined)
            .filter(|v| self.next_use(*v).is_none())
            .collect();
        for v in dead {
            if let Some(st) = self.state.remove(&v) {
                if let Some(reg) = st.reg {
                    if !st.aliased {
                        self.reg_val.remove(&reg);
                        self.free.push(reg);
                    }
                }
                if let Some(slot) = st.slot {
                    self.free_slots.push(slot);
                }
            }
        }
        self.pinned.clear();
    }

    /// Spills every live temporary (for a call boundary). Aliased values
    /// survive in callee-saved registers.
    fn spill_all(&mut self, ctx: &mut FuncCtx) {
        let mut live: Vec<Val> = self
            .state
            .iter()
            .filter(|(_, st)| st.reg.is_some() && !st.aliased)
            .map(|(v, _)| *v)
            .collect();
        // Spill in value order: the map's iteration order is process-random
        // and would otherwise reorder the emitted stores and slot choices.
        live.sort_unstable();
        for v in live {
            self.spill_val(ctx, v);
        }
        self.free = (TEMP_FIRST..=TEMP_LAST).rev().map(Reg::r).collect();
    }

    /// Loads argument `k` (0-based) into `r(k+1)` from wherever `v` lives.
    /// Must be called after [`BlockAlloc::spill_all`].
    fn load_arg(&mut self, ctx: &mut FuncCtx, k: usize, v: Val) {
        let dst = Reg::r(1 + k as u8);
        let st = &self.state[&v];
        if st.aliased {
            let reg = st.reg.expect("aliased value has register");
            ctx.emit(Inst::Alu {
                op: AluOp::Add,
                rd: dst,
                rs1: reg,
                rs2: Reg::ZERO,
            });
        } else {
            let slot = st.slot.expect("spilled value has slot");
            let off = ctx.spill_addr(slot);
            ctx.emit(Inst::Load {
                width: Width::B8,
                rd: dst,
                base: Reg::SP,
                offset: off,
            });
        }
    }
}

/// Materializes an arbitrary 64-bit constant into `rd`.
fn materialize(ctx: &mut FuncCtx, rd: Reg, value: u64) {
    let as_i64 = value as i64;
    if (-(1 << 15)..(1 << 15)).contains(&as_i64) {
        ctx.emit(Inst::AluImm {
            op: AluOp::Add,
            rd,
            rs1: Reg::ZERO,
            imm: as_i64 as i16,
        });
        return;
    }
    if value <= u64::from(u32::MAX) {
        ctx.emit(Inst::Lui {
            rd,
            imm: (value >> 16) as u16,
        });
        if value & 0xFFFF != 0 {
            ctx.emit(Inst::AluImm {
                op: AluOp::Or,
                rd,
                rs1: rd,
                imm: (value & 0xFFFF) as u16 as i16,
            });
        }
        return;
    }
    // Full 64-bit build: lui c3 | ori c2, then shift in c1 and c0.
    let c = |k: u32| ((value >> (16 * k)) & 0xFFFF) as u16;
    ctx.emit(Inst::Lui { rd, imm: c(3) });
    if c(2) != 0 {
        ctx.emit(Inst::AluImm {
            op: AluOp::Or,
            rd,
            rs1: rd,
            imm: c(2) as i16,
        });
    }
    ctx.emit(Inst::AluImm {
        op: AluOp::Sll,
        rd,
        rs1: rd,
        imm: 16,
    });
    if c(1) != 0 {
        ctx.emit(Inst::AluImm {
            op: AluOp::Or,
            rd,
            rs1: rd,
            imm: c(1) as i16,
        });
    }
    ctx.emit(Inst::AluImm {
        op: AluOp::Sll,
        rd,
        rs1: rd,
        imm: 16,
    });
    if c(0) != 0 {
        ctx.emit(Inst::AluImm {
            op: AluOp::Or,
            rd,
            rs1: rd,
            imm: c(0) as i16,
        });
    }
}

/// Whether an IR immediate can ride in an `AluImm` for this operation.
fn imm_fits(op: AluOp, imm: i64) -> bool {
    match op {
        AluOp::And | AluOp::Or | AluOp::Xor => (0..=0xFFFF).contains(&imm),
        _ => (-(1 << 15)..(1 << 15)).contains(&imm),
    }
}

#[allow(clippy::too_many_arguments)]
fn emit_block(
    module: &Module,
    f: &Function,
    ctx: &mut FuncCtx,
    block: &crate::ir::Block,
    bi: usize,
    ra_off: u32,
    fp_off: u32,
    saved_base: u32,
) {
    // Use positions: op index for op operands, ops.len() for the terminator.
    let mut uses: HashMap<Val, VecDeque<usize>> = HashMap::new();
    for (i, op) in block.ops.iter().enumerate() {
        for v in op.uses() {
            uses.entry(v).or_default().push_back(i);
        }
    }
    for v in block.term.uses() {
        uses.entry(v).or_default().push_back(block.ops.len());
    }
    let mut alloc = BlockAlloc::new(uses);

    for (i, op) in block.ops.iter().enumerate() {
        match op {
            Op::Const { dst, value } => {
                let rd = alloc.def_reg(ctx, *dst);
                materialize(ctx, rd, *value);
            }
            Op::Bin { op, dst, a, b } => {
                let ra = alloc.ensure_reg(ctx, *a);
                let rb = alloc.ensure_reg(ctx, *b);
                let rd = alloc.def_reg(ctx, *dst);
                ctx.emit(Inst::Alu {
                    op: *op,
                    rd,
                    rs1: ra,
                    rs2: rb,
                });
            }
            Op::BinImm { op, dst, a, imm } => {
                let ra = alloc.ensure_reg(ctx, *a);
                let rd = alloc.def_reg(ctx, *dst);
                if imm_fits(*op, *imm) {
                    ctx.emit(Inst::AluImm {
                        op: *op,
                        rd,
                        rs1: ra,
                        imm: *imm as i16,
                    });
                } else {
                    materialize(ctx, rd, *imm as u64);
                    ctx.emit(Inst::Alu {
                        op: *op,
                        rd,
                        rs1: ra,
                        rs2: rd,
                    });
                }
            }
            Op::LoadLocal { dst, local, offset } => match ctx.homes[local.0 as usize] {
                Home::Mem(base) => {
                    let rd = alloc.def_reg(ctx, *dst);
                    ctx.emit(Inst::Load {
                        width: Width::B8,
                        rd,
                        base: Reg::SP,
                        offset: (base + offset) as i16,
                    });
                }
                Home::Reg(home) => {
                    if alias_is_safe(f, block, i, *dst, *local, &alloc) {
                        alloc.def_alias(*dst, home);
                    } else {
                        let rd = alloc.def_reg(ctx, *dst);
                        ctx.emit(Inst::Alu {
                            op: AluOp::Add,
                            rd,
                            rs1: home,
                            rs2: Reg::ZERO,
                        });
                    }
                }
            },
            Op::StoreLocal { local, offset, src } => {
                let rs = alloc.ensure_reg(ctx, *src);
                match ctx.homes[local.0 as usize] {
                    Home::Mem(base) => {
                        ctx.emit(Inst::Store {
                            width: Width::B8,
                            rs,
                            base: Reg::SP,
                            offset: (base + offset) as i16,
                        });
                    }
                    Home::Reg(home) => {
                        ctx.emit(Inst::Alu {
                            op: AluOp::Add,
                            rd: home,
                            rs1: rs,
                            rs2: Reg::ZERO,
                        });
                    }
                }
            }
            Op::AddrLocal { dst, local } => {
                let Home::Mem(base) = ctx.homes[local.0 as usize] else {
                    unreachable!("address-taken locals are never promoted")
                };
                let rd = alloc.def_reg(ctx, *dst);
                ctx.emit(Inst::AluImm {
                    op: AluOp::Add,
                    rd,
                    rs1: Reg::SP,
                    imm: base as i16,
                });
            }
            Op::AddrGlobal { dst, global } => {
                // Medium-model addressing: a lui/ori pair patched with the
                // absolute address, so the data segment is not limited to
                // the ±32 KiB gp window.
                let rd = alloc.def_reg(ctx, *dst);
                let at = ctx.emit(Inst::Lui { rd, imm: 0 });
                ctx.emit(Inst::AluImm {
                    op: AluOp::Or,
                    rd,
                    rs1: rd,
                    imm: 0,
                });
                ctx.relocs.push(Reloc {
                    at,
                    kind: RelocKind::AbsAddr {
                        symbol: module.globals[global.0 as usize].name.clone(),
                        addend: 0,
                    },
                });
            }
            Op::Load {
                width,
                dst,
                addr,
                offset,
            } => {
                let ra = alloc.ensure_reg(ctx, *addr);
                let rd = alloc.def_reg(ctx, *dst);
                if (-(1 << 15)..(1 << 15)).contains(offset) {
                    ctx.emit(Inst::Load {
                        width: *width,
                        rd,
                        base: ra,
                        offset: *offset as i16,
                    });
                } else {
                    materialize(ctx, rd, *offset as i64 as u64);
                    ctx.emit(Inst::Alu {
                        op: AluOp::Add,
                        rd,
                        rs1: rd,
                        rs2: ra,
                    });
                    ctx.emit(Inst::Load {
                        width: *width,
                        rd,
                        base: rd,
                        offset: 0,
                    });
                }
            }
            Op::Store {
                width,
                addr,
                offset,
                src,
            } => {
                let ra = alloc.ensure_reg(ctx, *addr);
                let rs = alloc.ensure_reg(ctx, *src);
                if (-(1 << 15)..(1 << 15)).contains(offset) {
                    ctx.emit(Inst::Store {
                        width: *width,
                        rs,
                        base: ra,
                        offset: *offset as i16,
                    });
                } else {
                    // Compute the address in a scratch register.
                    let scratch = alloc.alloc_reg(ctx);
                    materialize(ctx, scratch, *offset as i64 as u64);
                    ctx.emit(Inst::Alu {
                        op: AluOp::Add,
                        rd: scratch,
                        rs1: scratch,
                        rs2: ra,
                    });
                    ctx.emit(Inst::Store {
                        width: *width,
                        rs,
                        base: scratch,
                        offset: 0,
                    });
                    alloc.free.push(scratch);
                }
            }
            Op::Call { dst, func, args } => {
                // Make sure argument values survive the register shuffle.
                for &a in args {
                    alloc.ensure_reg(ctx, a);
                }
                alloc.pinned.clear();
                alloc.spill_all(ctx);
                for (k, &a) in args.iter().enumerate() {
                    alloc.load_arg(ctx, k, a);
                }
                let at = ctx.emit(Inst::Jal {
                    rd: Reg::RA,
                    offset: 0,
                });
                ctx.relocs.push(Reloc {
                    at,
                    kind: RelocKind::Call {
                        symbol: module.functions[func.0 as usize].name.clone(),
                    },
                });
                if let Some(d) = dst {
                    // The result arrives in r1; claim it for `d`.
                    let r1 = Reg::r(1);
                    alloc.free.retain(|&r| r != r1);
                    alloc.state.insert(
                        *d,
                        VState {
                            reg: Some(r1),
                            slot: None,
                            aliased: false,
                        },
                    );
                    alloc.reg_val.insert(r1, *d);
                }
            }
            Op::Chk { src } => {
                let rs = alloc.ensure_reg(ctx, *src);
                ctx.emit(Inst::Chk { rs });
            }
        }
        alloc.retire(i, &op.uses(), op.def());
    }

    // Terminator.
    let term_pos = block.ops.len();
    match &block.term {
        Terminator::Jump(target) => {
            if target.0 as usize != bi + 1 {
                let at = ctx.emit(Inst::Jal {
                    rd: Reg::ZERO,
                    offset: 0,
                });
                ctx.fixups.push(Fixup {
                    at,
                    target: *target,
                });
            }
        }
        Terminator::Branch {
            cond,
            a,
            b,
            then_block,
            else_block,
        } => {
            let ra = alloc.ensure_reg(ctx, *a);
            let rb = alloc.ensure_reg(ctx, *b);
            let at = ctx.emit(Inst::Branch {
                cond: *cond,
                rs1: ra,
                rs2: rb,
                offset: 0,
            });
            ctx.fixups.push(Fixup {
                at,
                target: *then_block,
            });
            if else_block.0 as usize != bi + 1 {
                let at = ctx.emit(Inst::Jal {
                    rd: Reg::ZERO,
                    offset: 0,
                });
                ctx.fixups.push(Fixup {
                    at,
                    target: *else_block,
                });
            }
        }
        Terminator::Ret { value } => {
            if let Some(v) = value {
                let rv = alloc.ensure_reg(ctx, *v);
                if rv != Reg::r(1) {
                    ctx.emit(Inst::Alu {
                        op: AluOp::Add,
                        rd: Reg::r(1),
                        rs1: rv,
                        rs2: Reg::ZERO,
                    });
                }
            }
            // Epilogue: restore saved registers, fp/ra, pop the frame.
            for (k, &reg) in ctx.saved.clone().iter().enumerate() {
                ctx.emit(Inst::Load {
                    width: Width::B8,
                    rd: reg,
                    base: Reg::SP,
                    offset: (saved_base + 8 * k as u32) as i16,
                });
            }
            if ctx.save_ra_fp {
                ctx.emit(Inst::Load {
                    width: Width::B8,
                    rd: Reg::FP,
                    base: Reg::SP,
                    offset: fp_off as i16,
                });
                ctx.emit(Inst::Load {
                    width: Width::B8,
                    rd: Reg::RA,
                    base: Reg::SP,
                    offset: ra_off as i16,
                });
            }
            ctx.emit(Inst::AluImm {
                op: AluOp::Add,
                rd: Reg::SP,
                rs1: Reg::SP,
                imm: ctx.frame as i16,
            });
            ctx.emit(Inst::Jalr {
                rd: Reg::ZERO,
                rs1: Reg::RA,
                offset: 0,
            });
        }
    }
    alloc.retire(term_pos, &block.term.uses(), None);
}

/// A `LoadLocal` from a promoted local may alias the home register only if
/// no store to that local intervenes before the loaded value's last use.
fn alias_is_safe(
    _f: &Function,
    block: &crate::ir::Block,
    at: usize,
    dst: Val,
    local: LocalId,
    alloc: &BlockAlloc,
) -> bool {
    let last_use = alloc
        .uses
        .get(&dst)
        .and_then(|q| q.back().copied())
        .unwrap_or(at);
    for op in &block.ops[at + 1..last_use.min(block.ops.len())] {
        if matches!(op, Op::StoreLocal { local: l, .. } if *l == local) {
            return false;
        }
    }
    // The terminator cannot store; nothing else mutates promoted locals.
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::opt::{optimize, OptLevel};

    fn compile_at(level: OptLevel) -> CompiledModule {
        let mut mb = ModuleBuilder::new();
        let helper = mb.function("helper", 1, true, |fb| {
            let x = fb.param(0);
            let v = fb.get(x);
            let r = fb.mul_imm(v, 3);
            fb.ret(Some(r));
        });
        mb.function("main", 1, true, |fb| {
            let n = fb.param(0);
            let acc = fb.local_scalar();
            let z = fb.const_(0);
            fb.set(acc, z);
            let i = fb.local_scalar();
            fb.counted_loop(i, 0, n, 1, |fb, iv| {
                let h = fb.call(helper, &[iv]);
                let a = fb.get(acc);
                let s = fb.add(a, h);
                fb.set(acc, s);
            });
            let r = fb.get(acc);
            fb.chk(r);
            fb.ret(Some(r));
        });
        let m = mb.finish().unwrap();
        compile(&optimize(&m, level), level)
    }

    #[test]
    fn produces_one_object_per_function() {
        let cm = compile_at(OptLevel::O0);
        assert_eq!(cm.objects.len(), 2);
        assert_eq!(cm.objects[0].symbol, "helper");
        assert_eq!(cm.objects[1].symbol, "main");
    }

    #[test]
    fn call_sites_get_relocations() {
        let cm = compile_at(OptLevel::O0);
        let main = &cm.objects[1];
        assert!(main
            .relocs
            .iter()
            .any(|r| matches!(&r.kind, RelocKind::Call { symbol } if symbol == "helper")));
    }

    #[test]
    fn o3_inlines_away_the_call_reloc() {
        let cm = compile_at(OptLevel::O3);
        let main = &cm.objects[1];
        assert!(
            !main
                .relocs
                .iter()
                .any(|r| matches!(&r.kind, RelocKind::Call { .. })),
            "O3 should inline the helper"
        );
    }

    #[test]
    fn alignment_grows_with_level() {
        assert_eq!(compile_at(OptLevel::O0).objects[0].align, 4);
        assert_eq!(compile_at(OptLevel::O2).objects[0].align, 16);
        assert_eq!(compile_at(OptLevel::O3).objects[0].align, 32);
    }

    #[test]
    fn o2_uses_fewer_stack_accesses_than_o0() {
        let count_mem = |cm: &CompiledModule| {
            cm.objects[1]
                .code
                .iter()
                .filter(|i| matches!(i, Inst::Load { base, .. } | Inst::Store { rs: _, base, .. } if *base == Reg::SP))
                .count()
        };
        let o0 = compile_at(OptLevel::O0);
        let o2 = compile_at(OptLevel::O2);
        assert!(
            count_mem(&o2) < count_mem(&o0),
            "promotion should remove sp-relative traffic (O0 {} vs O2 {})",
            count_mem(&o0),
            count_mem(&o2)
        );
    }

    #[test]
    fn materialize_covers_all_ranges() {
        use crate::layout;
        // Execute materialization sequences with a tiny ALU-only evaluator.
        let check = |value: u64| {
            let mut ctx = FuncCtx {
                homes: vec![],
                frame: 16,
                spill_base: 0,
                saved: vec![],
                save_ra_fp: false,
                insts: vec![],
                relocs: vec![],
                fixups: vec![],
                block_starts: vec![],
            };
            materialize(&mut ctx, Reg::r(5), value);
            let mut regs = [0u64; 32];
            for inst in &ctx.insts {
                match *inst {
                    Inst::AluImm { op, rd, rs1, imm } => {
                        regs[rd.index() as usize] =
                            op.eval(regs[rs1.index() as usize], op.extend_imm(imm));
                    }
                    Inst::Lui { rd, imm } => regs[rd.index() as usize] = u64::from(imm) << 16,
                    other => panic!("unexpected {other}"),
                }
            }
            assert_eq!(regs[5], value, "materialize({value:#x})");
            let _ = layout::PAGE_SIZE;
        };
        for v in [
            0u64,
            1,
            42,
            0x7FFF,
            0x8000,
            0xFFFF,
            0x1_0000,
            0xDEAD_BEEF,
            0xFFFF_FFFF,
            0x1_0000_0000,
            0x1234_5678_9ABC_DEF0,
            u64::MAX,
            (-1i64 as u64),
            (-32768i64 as u64),
            (-32769i64 as u64),
        ] {
            check(v);
        }
    }
}
