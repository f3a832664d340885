//! The decoded basic-block trace cache behind [`crate::KernelMode::Block`].
//!
//! The interpreted loop pays a decode, a budget check, a window computation
//! and a fetch-state probe for every retired instruction, even though the
//! instruction stream re-executes the same straight-line runs millions of
//! times. This module decodes each run **once** into a [`DecodedBlock`] —
//! a flat slice of body instructions terminated at the first control
//! transfer (branch, call, return, halt) — together with everything about
//! the block that is a pure function of its addresses: its fetch-window
//! crossings (counted, and those that enter a new I-cache line or page
//! kept with the instruction index they belong to), its load/store counts,
//! its summed multiply/divide stall cycles, and its terminator with
//! precomputed targets. The block executor replays those
//! summaries into [`crate::Counters`] at block edges; dynamic effects
//! (cache/TLB/predictor state, bank conflicts, data-dependent targets)
//! still fire per event, *in the interpreted loop's exact order*, so every
//! counter stays bit-identical — the invariant `tests/block_differential.rs`
//! and the 72 golden rows pin.
//!
//! Blocks are keyed by entry word within one `(image generation,
//! text base)` epoch: [`BlockCache::sync`] invalidates the whole cache when
//! the generation stamped at link time bumps, because a relink moves code
//! and every precomputed window/target would silently be wrong. Blocks are
//! also cut (without a terminator — [`BlockEnd::FallThrough`]) at function
//! symbol starts, which keeps each block inside one profile-attribution
//! bucket, and at a length cap so a pathological straight-line run cannot
//! decode unbounded memory.

use biaslab_isa::{AluOp, Cond, Inst, Reg};
use biaslab_toolchain::layout::PAGE_SIZE;

/// Hard cap on instructions per decoded block. Runs longer than this are
/// split with a [`BlockEnd::FallThrough`] cut; execution is unaffected
/// (the next block starts at the cut).
pub const MAX_BLOCK_LEN: u32 = 4096;

/// Sentinel for an un-decoded entry in the block index.
const EMPTY: u32 = u32::MAX;

/// Address-derived constants the decoder needs; a pure function of the
/// machine configuration and the loaded image, hoisted once per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeParams {
    /// Base address of the text segment.
    pub text_base: u32,
    /// `log2(fetch_bytes)` — validated configurations always have a
    /// power-of-two fetch window.
    pub fetch_shift: u32,
    /// `log2` of the L1I line size.
    pub line_shift: u32,
    /// Extra cycles for a multiply.
    pub mul_extra: u64,
    /// Extra cycles for a divide/remainder.
    pub div_extra: u64,
}

/// One precomputed fetch-window crossing inside a block that enters a new
/// I-cache line or page: executing the instruction at `idx` (never the
/// entry) moves the front end to `pc`'s line. The executor replays these
/// through [`crate::front::FrontEnd::fetch_line`] at exactly the
/// interpreted instruction positions, so I-side and D-side accesses keep
/// their relative order into the shared L2 (whose LRU state makes that
/// order observable in the counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchPoint {
    /// Instruction index within the block (at least 1).
    pub idx: u32,
    /// The instruction's address.
    pub pc: u32,
}

/// Register-file slot that pre-decoded writes to [`Reg::ZERO`] are
/// remapped onto, so the executor writes every destination unconditionally
/// instead of re-testing the zero register per instruction. The slot is
/// never read: reads of `ZERO` still load slot 0, which nothing writes.
pub const SCRATCH_REG: u8 = 32;

/// Size of the uop executor's register file: the 32 architectural
/// registers, the write scratch slot, padded to a power of two so a
/// masked index (`& (REG_SLOTS - 1)`) replaces the bounds check.
pub const REG_SLOTS: usize = 64;

/// Fused operation selector of a [`Uop`]: the instruction kind and (for
/// ALU forms) the operation collapsed into one discriminant, so the
/// executor dispatches each body instruction through a single match
/// instead of an `Inst` match nesting an [`AluOp`] match.
///
/// Register/register ALU forms read `rs1 op rs2`; the `*I` forms read
/// `rs1 op imm` with the immediate already extended at decode time
/// (`AluOp::extend_imm` is a pure function of the encoding). Each arm of
/// the executor's match mirrors [`AluOp::eval`] exactly; the block
/// differential tests and the golden counter rows pin the equivalence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UopKind {
    /// `rd = rs1 + rs2` (wrapping).
    Add,
    /// `rd = rs1 - rs2` (wrapping).
    Sub,
    /// `rd = rs1 * rs2` (low 64 bits).
    Mul,
    /// `rd = rs1 / rs2` (signed; x/0 = -1).
    Div,
    /// `rd = rs1 % rs2` (signed; x%0 = x).
    Rem,
    /// `rd = rs1 & rs2`.
    And,
    /// `rd = rs1 | rs2`.
    Or,
    /// `rd = rs1 ^ rs2`.
    Xor,
    /// `rd = rs1 << (rs2 & 63)`.
    Sll,
    /// `rd = rs1 >> (rs2 & 63)` (logical).
    Srl,
    /// `rd = rs1 >> (rs2 & 63)` (arithmetic).
    Sra,
    /// `rd = (rs1 <s rs2) as u64`.
    Slt,
    /// `rd = (rs1 <u rs2) as u64`.
    Sltu,
    /// `rd = (rs1 == rs2) as u64`.
    Seq,
    /// `rd = (rs1 != rs2) as u64`.
    Sne,
    /// `rd = rs1 + imm`.
    AddI,
    /// `rd = rs1 - imm`.
    SubI,
    /// `rd = rs1 * imm`.
    MulI,
    /// `rd = rs1 / imm`.
    DivI,
    /// `rd = rs1 % imm`.
    RemI,
    /// `rd = rs1 & imm`.
    AndI,
    /// `rd = rs1 | imm`.
    OrI,
    /// `rd = rs1 ^ imm`.
    XorI,
    /// `rd = rs1 << (imm & 63)`.
    SllI,
    /// `rd = rs1 >> (imm & 63)` (logical).
    SrlI,
    /// `rd = rs1 >> (imm & 63)` (arithmetic).
    SraI,
    /// `rd = (rs1 <s imm) as u64`.
    SltI,
    /// `rd = (rs1 <u imm) as u64`.
    SltuI,
    /// `rd = (rs1 == imm) as u64`.
    SeqI,
    /// `rd = (rs1 != imm) as u64`.
    SneI,
    /// `rd = imm` (the `imm << 16` shift happened at decode).
    Lui,
    /// `rd = mem[rs1 + imm]`, `width` bytes zero-extended.
    Load,
    /// `mem[rs1 + imm] = rs2`, `width` bytes.
    Store,
    /// Fold `rs1` into the run checksum.
    Chk,
    /// No architectural effect.
    Nop,
}

/// One pre-decoded body instruction: flat fields, destination already
/// remapped through [`SCRATCH_REG`], immediate already extended. 16 bytes,
/// so a block body streams through the executor at two words per uop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Uop {
    /// Fused operation selector.
    pub kind: UopKind,
    /// Destination slot (`SCRATCH_REG` for writes to `ZERO`).
    pub rd: u8,
    /// First source register (ALU operand a, memory base, `Chk` source).
    pub rs1: u8,
    /// Second source register (ALU operand b, store value).
    pub rs2: u8,
    /// Access width in bytes for `Load`/`Store`, 0 otherwise.
    pub width: u8,
    /// Pre-extended immediate: `AluOp::extend_imm(imm)` for ALU-immediate
    /// forms, `imm << 16` for `Lui`, the sign-extended offset (as u64) for
    /// `Load`/`Store`, 0 otherwise.
    pub imm: u64,
}

impl Uop {
    fn rd_slot(rd: Reg) -> u8 {
        if rd.is_zero() {
            SCRATCH_REG
        } else {
            rd.index()
        }
    }

    fn alu_kind(op: AluOp, imm_form: bool) -> UopKind {
        use UopKind as K;
        match op {
            AluOp::Add => {
                if imm_form {
                    K::AddI
                } else {
                    K::Add
                }
            }
            AluOp::Sub => {
                if imm_form {
                    K::SubI
                } else {
                    K::Sub
                }
            }
            AluOp::Mul => {
                if imm_form {
                    K::MulI
                } else {
                    K::Mul
                }
            }
            AluOp::Div => {
                if imm_form {
                    K::DivI
                } else {
                    K::Div
                }
            }
            AluOp::Rem => {
                if imm_form {
                    K::RemI
                } else {
                    K::Rem
                }
            }
            AluOp::And => {
                if imm_form {
                    K::AndI
                } else {
                    K::And
                }
            }
            AluOp::Or => {
                if imm_form {
                    K::OrI
                } else {
                    K::Or
                }
            }
            AluOp::Xor => {
                if imm_form {
                    K::XorI
                } else {
                    K::Xor
                }
            }
            AluOp::Sll => {
                if imm_form {
                    K::SllI
                } else {
                    K::Sll
                }
            }
            AluOp::Srl => {
                if imm_form {
                    K::SrlI
                } else {
                    K::Srl
                }
            }
            AluOp::Sra => {
                if imm_form {
                    K::SraI
                } else {
                    K::Sra
                }
            }
            AluOp::Slt => {
                if imm_form {
                    K::SltI
                } else {
                    K::Slt
                }
            }
            AluOp::Sltu => {
                if imm_form {
                    K::SltuI
                } else {
                    K::Sltu
                }
            }
            AluOp::Seq => {
                if imm_form {
                    K::SeqI
                } else {
                    K::Seq
                }
            }
            AluOp::Sne => {
                if imm_form {
                    K::SneI
                } else {
                    K::Sne
                }
            }
        }
    }

    /// Pre-decodes one body instruction.
    ///
    /// # Panics
    ///
    /// Panics on control instructions — decode terminates blocks at them,
    /// so none can appear in a body.
    #[must_use]
    pub fn from_inst(inst: Inst) -> Uop {
        let nop = Uop {
            kind: UopKind::Nop,
            rd: SCRATCH_REG,
            rs1: 0,
            rs2: 0,
            width: 0,
            imm: 0,
        };
        match inst {
            Inst::Alu { op, rd, rs1, rs2 } => Uop {
                kind: Uop::alu_kind(op, false),
                rd: Uop::rd_slot(rd),
                rs1: rs1.index(),
                rs2: rs2.index(),
                ..nop
            },
            Inst::AluImm { op, rd, rs1, imm } => Uop {
                kind: Uop::alu_kind(op, true),
                rd: Uop::rd_slot(rd),
                rs1: rs1.index(),
                imm: op.extend_imm(imm),
                ..nop
            },
            Inst::Lui { rd, imm } => Uop {
                kind: UopKind::Lui,
                rd: Uop::rd_slot(rd),
                imm: u64::from(imm) << 16,
                ..nop
            },
            Inst::Load {
                width,
                rd,
                base,
                offset,
            } => Uop {
                kind: UopKind::Load,
                rd: Uop::rd_slot(rd),
                rs1: base.index(),
                width: width.bytes() as u8,
                imm: offset as i64 as u64,
                ..nop
            },
            Inst::Store {
                width,
                rs,
                base,
                offset,
            } => Uop {
                kind: UopKind::Store,
                rs1: base.index(),
                rs2: rs.index(),
                width: width.bytes() as u8,
                imm: offset as i64 as u64,
                ..nop
            },
            Inst::Chk { rs } => Uop {
                kind: UopKind::Chk,
                rs1: rs.index(),
                ..nop
            },
            Inst::Nop => nop,
            Inst::Branch { .. } | Inst::Jal { .. } | Inst::Jalr { .. } | Inst::Halt => {
                unreachable!("control instruction in block body")
            }
        }
    }
}

/// How a decoded block ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockEnd {
    /// A conditional branch; `taken_target` is precomputed from the static
    /// offset, the not-taken side is the block's `next_pc`.
    Branch {
        /// Branch condition.
        cond: Cond,
        /// First compared register.
        rs1: Reg,
        /// Second compared register.
        rs2: Reg,
        /// Target when taken.
        taken_target: u32,
    },
    /// A direct jump-and-link (call or unconditional jump).
    Jal {
        /// Link register.
        rd: Reg,
        /// Precomputed target.
        target: u32,
    },
    /// An indirect jump-and-link; the target is data-dependent and
    /// computed at execution time.
    Jalr {
        /// Link register.
        rd: Reg,
        /// Register holding the target base.
        rs1: Reg,
        /// Signed offset added to `rs1`.
        offset: i16,
    },
    /// The program's halt.
    Halt,
    /// No terminator: the block was cut at a function-symbol boundary, the
    /// length cap, or the end of text, and control falls through to
    /// `next_pc`. (Falling past the end of text reproduces the interpreted
    /// loop's `InvalidPc` at the same address.)
    FallThrough,
}

/// A basic block decoded once and dispatched many times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedBlock {
    /// Entry address.
    pub entry: u32,
    /// Total instructions, terminator included (cut blocks have none).
    pub len: u32,
    /// Instructions before the terminator (`len` for cut blocks).
    pub body_len: u32,
    /// Static load count (replayed into `Counters::loads` at block entry).
    pub loads: u32,
    /// Static store count.
    pub stores: u32,
    /// Summed multiply/divide extra cycles across the body (replayed into
    /// `cycles` and `stall_compute` at block entry).
    pub extra_cycles: u64,
    /// Pre-decoded body instructions (`body_len` of them): what the
    /// executor runs for the body, profiled or not, up to the budget.
    pub uops: Box<[Uop]>,
    /// The entry instruction's fetch window. Whether its crossing fires
    /// depends on the front end's current window, so the executor checks
    /// it through [`crate::front::FrontEnd::fetch`].
    pub entry_window: u32,
    /// Fetch-window crossings after the entry. Each one fires (its
    /// predecessor's window is the previous instruction's, known at
    /// decode), so the executor adds them to `Counters::fetches` at block
    /// entry.
    pub crossings: u32,
    /// The crossings after the entry whose line or page differs from the
    /// previous crossing's, ascending by `idx`: the only ones that can
    /// reach the I-TLB, the L1I or the shared L2.
    pub lines: Box<[FetchPoint]>,
    /// The fetch window of the block's last instruction, written back to
    /// the front end after the block.
    pub last_window: u32,
    /// The terminator.
    pub end: BlockEnd,
    /// Address of the terminator instruction (meaningless for cut blocks).
    pub term_pc: u32,
    /// Address immediately after the block (`entry + 4 * len`): the
    /// fall-through / not-taken / link target.
    pub next_pc: u32,
}

/// Hit/miss/invalidation counts for one [`BlockCache`]. Monotonic over the
/// cache's lifetime; the harness exports them as `uarch.blockcache.*`
/// metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockCacheStats {
    /// Dispatches served by an already-decoded block.
    pub hits: u64,
    /// Dispatches that had to decode.
    pub misses: u64,
    /// Wholesale invalidations: a [`BlockCache::sync`] that discarded live
    /// blocks because the image generation (or text placement) changed.
    pub invalidations: u64,
}

/// The per-machine cache of decoded blocks for one image epoch.
///
/// The index is a dense word-indexed table over the text segment
/// (`u32::MAX` = not yet decoded), so a block lookup on the hot path is
/// one bounds-checked load. Decoded blocks are timing-free *decode* state,
/// not *machine* state: [`crate::Machine::reset`] deliberately keeps them
/// (a cold-cache repetition re-measures the caches, not the decoder).
#[derive(Debug, Clone, Default)]
pub struct BlockCache {
    /// Image generation of the currently cached text (0 = nothing cached;
    /// link-time generations start at 1).
    generation: u64,
    text_base: u32,
    /// Entry word → block id, `EMPTY` when not decoded.
    index: Vec<u32>,
    blocks: Vec<DecodedBlock>,
    /// Function-symbol starts inside text (sorted, deduped): decode cuts
    /// blocks at these so a block never spans two attribution buckets.
    boundaries: Vec<u32>,
    stats: BlockCacheStats,
}

impl BlockCache {
    /// An empty cache (generation 0: the first [`BlockCache::sync`] always
    /// adopts the image).
    #[must_use]
    pub fn new() -> BlockCache {
        BlockCache::default()
    }

    /// Adopts an image epoch, invalidating every cached block if the
    /// generation, base or size changed. `symbol_starts` are the
    /// function-symbol addresses used as block cut points; addresses
    /// outside `(text_base, text_end)` are ignored.
    pub fn sync(
        &mut self,
        generation: u64,
        text_base: u32,
        text_words: usize,
        symbol_starts: impl IntoIterator<Item = u32>,
    ) {
        if self.generation == generation
            && self.text_base == text_base
            && self.index.len() == text_words
        {
            return;
        }
        if !self.blocks.is_empty() {
            self.stats.invalidations += 1;
        }
        self.blocks.clear();
        self.index.clear();
        self.index.resize(text_words, EMPTY);
        self.generation = generation;
        self.text_base = text_base;
        let text_end = text_base + 4 * text_words as u32;
        let mut bounds: Vec<u32> = symbol_starts
            .into_iter()
            .filter(|&a| a > text_base && a < text_end)
            .collect();
        bounds.sort_unstable();
        bounds.dedup();
        self.boundaries = bounds;
    }

    /// The block entered at text word `word`, decoding it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range or the cache was not [`synced`]
    /// to a text of `text.len()` words ([`crate::Machine`] bounds-checks
    /// the pc first).
    ///
    /// [`synced`]: BlockCache::sync
    #[inline]
    pub fn get_or_decode(&mut self, word: u32, text: &[Inst], p: &DecodeParams) -> &DecodedBlock {
        debug_assert_eq!(self.index.len(), text.len(), "cache not synced to text");
        debug_assert_eq!(self.text_base, p.text_base);
        let slot = self.index[word as usize];
        if slot != EMPTY {
            self.stats.hits += 1;
            return &self.blocks[slot as usize];
        }
        self.decode_miss(word, text, p)
    }

    /// The miss path of [`BlockCache::get_or_decode`], kept out of line.
    #[cold]
    #[inline(never)]
    fn decode_miss(&mut self, word: u32, text: &[Inst], p: &DecodeParams) -> &DecodedBlock {
        self.stats.misses += 1;
        let block = decode(text, word, p, &self.boundaries);
        let id = u32::try_from(self.blocks.len()).expect("block id space");
        self.blocks.push(block);
        self.index[word as usize] = id;
        &self.blocks[id as usize]
    }

    /// Lifetime hit/miss/invalidation counts.
    #[must_use]
    pub fn stats(&self) -> BlockCacheStats {
        self.stats
    }

    /// Number of blocks currently decoded.
    #[must_use]
    pub fn blocks_live(&self) -> usize {
        self.blocks.len()
    }

    /// The image generation this cache is synced to (0 = empty).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

fn alu_extra(op: AluOp, p: &DecodeParams) -> u64 {
    match op {
        AluOp::Mul => p.mul_extra,
        AluOp::Div | AluOp::Rem => p.div_extra,
        _ => 0,
    }
}

/// Decodes the block entered at text word `word`.
///
/// Formation rules: extend from the entry until the first control transfer
/// (inclusive — it becomes the terminator), cutting early *without* a
/// terminator at the next function-symbol start in `boundaries`, at
/// [`MAX_BLOCK_LEN`], or at the end of text. Deterministic: the same text,
/// parameters and boundaries always produce an identical block (the
/// re-decode property test pins this).
///
/// # Panics
///
/// Panics if `word` is out of range of `text`.
#[must_use]
pub fn decode(text: &[Inst], word: u32, p: &DecodeParams, boundaries: &[u32]) -> DecodedBlock {
    let entry = p.text_base + 4 * word;
    // First function-symbol start strictly after the entry bounds the
    // block; symbol starts are 4-aligned so the division is exact.
    let next_boundary = boundaries.partition_point(|&b| b <= entry);
    let mut limit = (text.len() as u32 - word).min(MAX_BLOCK_LEN);
    if let Some(&b) = boundaries.get(next_boundary) {
        limit = limit.min((b - entry) / 4);
    }
    debug_assert!(limit >= 1, "a block holds at least its entry instruction");

    let mut len = 0u32;
    let mut loads = 0u32;
    let mut stores = 0u32;
    let mut extra_cycles = 0u64;
    let mut end = None;
    let mut uops = Vec::new();
    while len < limit {
        let inst = text[(word + len) as usize];
        len += 1;
        match inst {
            Inst::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => {
                let taken_target = (entry + 4 * len).wrapping_add(offset as u32);
                end = Some(BlockEnd::Branch {
                    cond,
                    rs1,
                    rs2,
                    taken_target,
                });
                break;
            }
            Inst::Jal { rd, offset } => {
                let target = (entry + 4 * len).wrapping_add(offset as u32);
                end = Some(BlockEnd::Jal { rd, target });
                break;
            }
            Inst::Jalr { rd, rs1, offset } => {
                end = Some(BlockEnd::Jalr { rd, rs1, offset });
                break;
            }
            Inst::Halt => {
                end = Some(BlockEnd::Halt);
                break;
            }
            Inst::Alu { op, .. } | Inst::AluImm { op, .. } => {
                extra_cycles += alu_extra(op, p);
                uops.push(Uop::from_inst(inst));
            }
            Inst::Load { .. } => {
                loads += 1;
                uops.push(Uop::from_inst(inst));
            }
            Inst::Store { .. } => {
                stores += 1;
                uops.push(Uop::from_inst(inst));
            }
            Inst::Lui { .. } | Inst::Chk { .. } | Inst::Nop => uops.push(Uop::from_inst(inst)),
        }
    }
    let body_len = if end.is_some() { len - 1 } else { len };
    debug_assert_eq!(uops.len() as u32, body_len);

    // A crossing is kept unless it stays in the previous crossing's line
    // and page (the entry counting as a crossing); see `Machine::run_lockstep` for
    // why the front end then has nothing to look up.
    let line_page = |pc: u32| (pc >> p.line_shift, pc / PAGE_SIZE);
    let mut crossings = 0u32;
    let mut lines = Vec::new();
    let mut prev = line_page(entry);
    for i in 1..len {
        let pc = entry + 4 * i;
        if pc >> p.fetch_shift == (pc - 4) >> p.fetch_shift {
            continue;
        }
        crossings += 1;
        let here = line_page(pc);
        if here != prev {
            lines.push(FetchPoint { idx: i, pc });
            prev = here;
        }
    }

    DecodedBlock {
        entry,
        len,
        body_len,
        loads,
        stores,
        extra_cycles,
        uops: uops.into_boxed_slice(),
        entry_window: entry >> p.fetch_shift,
        crossings,
        lines: lines.into_boxed_slice(),
        last_window: (entry + 4 * (len - 1)) >> p.fetch_shift,
        end: end.unwrap_or(BlockEnd::FallThrough),
        term_pc: entry + 4 * (len - 1),
        next_pc: entry + 4 * len,
    }
}

#[cfg(test)]
mod tests {
    use biaslab_isa::Width;

    use super::*;

    fn params() -> DecodeParams {
        DecodeParams {
            text_base: 0x1000,
            fetch_shift: 4, // 16-byte windows
            line_shift: 6,  // 64-byte lines
            mul_extra: 2,
            div_extra: 21,
        }
    }

    fn nopjal(n: usize) -> Vec<Inst> {
        let mut t = vec![Inst::Nop; n];
        t.push(Inst::Jal {
            rd: Reg::ZERO,
            offset: -4 * (n as i32 + 2),
        });
        t
    }

    #[test]
    fn body_uops_match_text() {
        // Every decoded block's uops are exactly `Uop::from_inst` of its
        // body text: the executor's fast path sees the same operations,
        // pre-extended immediates included.
        let mut text = nopjal(3);
        text.insert(
            0,
            Inst::AluImm {
                op: AluOp::And,
                rd: Reg::r(7),
                rs1: Reg::r(7),
                imm: -2, // zero-extends for And: decode must pre-extend
            },
        );
        text.insert(
            1,
            Inst::Load {
                width: Width::B8,
                rd: Reg::ZERO, // write remaps to the scratch slot
                base: Reg::SP,
                offset: -16,
            },
        );
        let b = decode(&text, 0, &params(), &[]);
        assert_eq!(b.uops.len() as u32, b.body_len);
        for (u, &inst) in b.uops.iter().zip(&text[..b.body_len as usize]) {
            assert_eq!(*u, Uop::from_inst(inst));
        }
        assert_eq!(b.uops[0].imm, AluOp::And.extend_imm(-2));
        assert_eq!(b.uops[0].kind, UopKind::AndI);
        assert_eq!(b.uops[1].rd, SCRATCH_REG);
        assert_eq!(b.uops[1].imm as u32, (-16i32) as u32);
    }

    #[test]
    fn decode_terminates_at_first_control_transfer() {
        let text = vec![
            Inst::AluImm {
                op: AluOp::Add,
                rd: Reg::r(5),
                rs1: Reg::ZERO,
                imm: 7,
            },
            Inst::Alu {
                op: AluOp::Mul,
                rd: Reg::r(5),
                rs1: Reg::r(5),
                rs2: Reg::r(5),
            },
            Inst::Load {
                width: Width::B8,
                rd: Reg::r(6),
                base: Reg::SP,
                offset: 0,
            },
            Inst::Store {
                width: Width::B8,
                rs: Reg::r(6),
                base: Reg::SP,
                offset: 8,
            },
            Inst::Branch {
                cond: Cond::Eq,
                rs1: Reg::r(5),
                rs2: Reg::r(6),
                offset: 8,
            },
            Inst::Halt,
        ];
        let b = decode(&text, 0, &params(), &[]);
        assert_eq!(b.len, 5);
        assert_eq!(b.body_len, 4);
        assert_eq!(b.loads, 1);
        assert_eq!(b.stores, 1);
        assert_eq!(b.extra_cycles, 2, "one multiply");
        assert_eq!(b.term_pc, 0x1010);
        assert_eq!(b.next_pc, 0x1014);
        // Branch target: next_pc + offset.
        assert!(matches!(
            b.end,
            BlockEnd::Branch {
                taken_target: 0x101c,
                ..
            }
        ));
        // 5 instructions over 16-byte windows from 0x1000: the entry
        // window and one crossing at idx 4 (0x1010), inside the entry's
        // 64-byte line.
        assert_eq!(b.entry_window, 0x1000 >> 4);
        assert_eq!(b.crossings, 1);
        assert!(b.lines.is_empty());
        assert_eq!(b.last_window, 0x1010 >> 4);
    }

    #[test]
    fn decode_keeps_the_crossings_into_a_new_line_or_page() {
        // 40 instructions from 0xFF0 with 16-byte windows and 64-byte
        // lines: 9 crossings after the entry, three of them into a new
        // line (0x1000, 0x1040, 0x1080), the first also a new page.
        let mut p = params();
        p.text_base = 0xFF0;
        let b = decode(&nopjal(39), 0, &p, &[]);
        assert_eq!(b.crossings, 9);
        let kept: Vec<(u32, u32)> = b.lines.iter().map(|f| (f.idx, f.pc)).collect();
        assert_eq!(kept, vec![(4, 0x1000), (20, 0x1040), (36, 0x1080)]);
        assert_eq!(b.last_window, 0x108C >> 4);
        // A window wider than a line: every crossing enters a new line.
        p.fetch_shift = 7;
        let b = decode(&nopjal(39), 0, &p, &[]);
        assert_eq!(b.crossings, 2);
        let idxs: Vec<u32> = b.lines.iter().map(|f| f.idx).collect();
        assert_eq!(idxs, vec![4, 36]);
    }

    #[test]
    fn decode_cuts_at_symbol_boundaries_without_terminator() {
        let text = nopjal(7);
        // A symbol starts at word 4 (0x1010): the entry block must stop
        // there and fall through.
        let b = decode(&text, 0, &params(), &[0x1010]);
        assert_eq!(b.len, 4);
        assert_eq!(b.body_len, 4, "cut blocks have no terminator");
        assert_eq!(b.end, BlockEnd::FallThrough);
        assert_eq!(b.next_pc, 0x1010);
        // The block entered at the boundary proceeds to the jal.
        let c = decode(&text, 4, &params(), &[0x1010]);
        assert_eq!(c.len, 4);
        assert!(matches!(c.end, BlockEnd::Jal { .. }));
    }

    #[test]
    fn decode_cuts_at_end_of_text() {
        let text = vec![Inst::Nop; 3];
        let b = decode(&text, 1, &params(), &[]);
        assert_eq!(b.len, 2);
        assert_eq!(b.end, BlockEnd::FallThrough);
        // Falling through lands one past the end — the executor reports
        // InvalidPc there, as the interpreter would.
        assert_eq!(b.next_pc, 0x1000 + 3 * 4);
    }

    #[test]
    fn decode_respects_the_length_cap() {
        let text = vec![Inst::Nop; MAX_BLOCK_LEN as usize + 10];
        let b = decode(&text, 0, &params(), &[]);
        assert_eq!(b.len, MAX_BLOCK_LEN);
        assert_eq!(b.end, BlockEnd::FallThrough);
    }

    #[test]
    fn cache_counts_hits_misses_and_invalidations() {
        let text = nopjal(3);
        let p = params();
        let mut cache = BlockCache::new();
        cache.sync(1, p.text_base, text.len(), []);
        assert_eq!(cache.generation(), 1);
        cache.get_or_decode(0, &text, &p);
        cache.get_or_decode(0, &text, &p);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.blocks_live(), 1);
        // Same epoch: sync is a no-op.
        cache.sync(1, p.text_base, text.len(), []);
        assert_eq!(cache.blocks_live(), 1);
        assert_eq!(cache.stats().invalidations, 0);
        // New generation: wholesale invalidation.
        cache.sync(2, p.text_base, text.len(), []);
        assert_eq!(cache.blocks_live(), 0);
        assert_eq!(cache.stats().invalidations, 1);
        let b = cache.get_or_decode(0, &text, &p).clone();
        assert_eq!(cache.stats().misses, 2);
        // Re-decode after invalidation reproduces the identical block.
        let fresh = decode(&text, 0, &p, &[]);
        assert_eq!(b, fresh);
    }

    #[test]
    fn sync_ignores_out_of_text_symbols() {
        let text = nopjal(3);
        let p = params();
        let mut cache = BlockCache::new();
        // Boundaries at the base itself and outside text are ignored; the
        // block decodes to the full run.
        cache.sync(1, p.text_base, text.len(), [p.text_base, 0x9999_0000]);
        let b = cache.get_or_decode(0, &text, &p);
        assert_eq!(b.len, 4);
    }
}
