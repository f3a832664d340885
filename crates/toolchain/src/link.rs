//! The linker: object files, **in the order given**, to an executable.
//!
//! Exactly like `ld`, the linker concatenates text sections in argument
//! order, honouring each object's alignment request. Permuting the order
//! therefore moves every function's address — and with them every
//! branch-predictor index, BTB set and I-cache set those addresses map to.
//! This is the mechanism behind the paper's link-order bias, reproduced
//! here byte for byte.
//!
//! The linker also emits a two-instruction startup shim (`jal entry; halt`)
//! at the very start of the text segment, assigns globals their addresses
//! (fixed declaration order, independent of link order) and resolves all
//! relocations.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use biaslab_isa::{Inst, Reg};
use serde::{Deserialize, Serialize};

use crate::layout::{align_up, layout_globals, GP_VALUE, TEXT_BASE, TEXT_MAX};
use crate::obj::{CompiledModule, RelocKind};
use crate::opt::OptLevel;

/// A linked symbol: name, start address and size in bytes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Symbol {
    /// Symbol name.
    pub name: String,
    /// Start address.
    pub addr: u32,
    /// Size in bytes.
    pub size: u32,
}

/// A fully linked program image.
#[derive(Debug, Clone)]
pub struct Executable {
    text_base: u32,
    insts: Vec<Inst>,
    data_base: u32,
    data: Arc<Vec<u8>>,
    gp: u32,
    entry: u32,
    symbols: Vec<Symbol>,
    level: OptLevel,
    generation: u64,
}

impl Executable {
    /// Base address of the text segment.
    #[must_use]
    #[inline]
    pub fn text_base(&self) -> u32 {
        self.text_base
    }

    /// The linked instructions, in address order from
    /// [`Executable::text_base`].
    #[must_use]
    #[inline]
    pub fn text(&self) -> &[Inst] {
        &self.insts
    }

    /// Text size in bytes.
    #[must_use]
    pub fn text_size(&self) -> u32 {
        (self.insts.len() * 4) as u32
    }

    /// The instruction at `addr`, if it lies within the text segment.
    #[must_use]
    #[inline]
    pub fn inst_at(&self, addr: u32) -> Option<Inst> {
        if addr < self.text_base || !addr.is_multiple_of(4) {
            return None;
        }
        self.insts
            .get(((addr - self.text_base) / 4) as usize)
            .copied()
    }

    /// Base address of the data segment.
    #[must_use]
    pub fn data_base(&self) -> u32 {
        self.data_base
    }

    /// The initialized data image (zero-fill beyond each global's
    /// initializer is implicit).
    #[must_use]
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// The global-pointer value the ABI expects in `gp`.
    #[must_use]
    pub fn gp(&self) -> u32 {
        self.gp
    }

    /// The program entry point (the startup shim).
    #[must_use]
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// All linked symbols (functions then globals), in address order.
    #[must_use]
    pub fn symbols(&self) -> &[Symbol] {
        &self.symbols
    }

    /// The image generation stamped at link time: a process-wide monotonic
    /// counter ([`crate::load::next_image_generation`]) that identifies
    /// this exact code layout. Two links — even of identical inputs —
    /// never share a generation, which is what lets downstream decoded
    /// caches (the simulator's basic-block trace cache) invalidate
    /// wholesale instead of diffing text.
    #[must_use]
    #[inline]
    pub fn image_generation(&self) -> u64 {
        self.generation
    }

    /// The optimization level this executable was compiled at.
    #[must_use]
    pub fn level(&self) -> OptLevel {
        self.level
    }

    /// Looks up a symbol by name.
    #[must_use]
    pub fn symbol(&self, name: &str) -> Option<&Symbol> {
        self.symbols.iter().find(|s| s.name == name)
    }

    /// The function symbol containing `addr`, if any.
    #[must_use]
    pub fn function_at(&self, addr: u32) -> Option<&Symbol> {
        self.symbols
            .iter()
            .find(|s| s.addr <= addr && addr < s.addr + s.size && s.addr >= self.text_base)
    }

    /// A human-readable disassembly of the whole text segment.
    #[must_use]
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, inst) in self.insts.iter().enumerate() {
            let addr = self.text_base + (i as u32) * 4;
            if let Some(sym) = self.symbols.iter().find(|s| s.addr == addr) {
                let _ = writeln!(out, "{}:", sym.name);
            }
            let _ = writeln!(out, "  {addr:#010x}  {inst}");
        }
        out
    }
}

/// Linker failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkError {
    /// A relocation referenced an undefined symbol.
    UnknownSymbol(String),
    /// The entry symbol is not defined by any object.
    UnknownEntry(String),
    /// The text segment exceeded [`TEXT_MAX`].
    TextTooLarge(u32),
    /// The supplied object order is not a permutation of `0..n`.
    BadOrder,
    /// A gp-relative relocation target is out of the ±32 KiB window.
    GpOffsetOutOfRange(String),
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::UnknownSymbol(s) => write!(f, "undefined symbol `{s}`"),
            LinkError::UnknownEntry(s) => write!(f, "entry symbol `{s}` not defined"),
            LinkError::TextTooLarge(n) => write!(f, "text segment of {n} bytes exceeds maximum"),
            LinkError::BadOrder => f.write_str("object order is not a permutation"),
            LinkError::GpOffsetOutOfRange(s) => {
                write!(f, "global `{s}` outside the gp-relative window")
            }
        }
    }
}

impl std::error::Error for LinkError {}

/// Links [`CompiledModule`]s into [`Executable`]s.
///
/// # Examples
///
/// Linking the same objects in two different orders produces executables
/// with identical behaviour but different code addresses:
///
/// ```
/// use biaslab_toolchain::{codegen, link::Linker, opt, ModuleBuilder, OptLevel};
///
/// let mut mb = ModuleBuilder::new();
/// mb.function("a", 0, false, |fb| fb.ret(None));
/// mb.function("main", 0, false, |fb| fb.ret(None));
/// let m = mb.finish()?;
/// let cm = codegen::compile(&opt::optimize(&m, OptLevel::O2), OptLevel::O2);
///
/// let e1 = Linker::new().link(&cm, "main")?;
/// let e2 = Linker::new().object_order(vec![1, 0]).link(&cm, "main")?;
/// assert_ne!(e1.symbol("main").unwrap().addr, e2.symbol("main").unwrap().addr);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Linker {
    text_offset: u32,
    order: Option<Vec<usize>>,
    pads: Vec<(String, u32)>,
    align_overrides: Vec<(String, u32)>,
}

impl Linker {
    /// A linker with default layout (identity order, no base offset).
    #[must_use]
    pub fn new() -> Linker {
        Linker::default()
    }

    /// Shifts the text segment base by `offset` bytes (rounded up to 4).
    /// Used by the ASLR-style ablation experiments.
    #[must_use]
    pub fn text_offset(mut self, offset: u32) -> Linker {
        self.text_offset = align_up(offset, 4);
        self
    }

    /// Lays out objects in the given order (a permutation of `0..n`).
    #[must_use]
    pub fn object_order(mut self, order: Vec<usize>) -> Linker {
        self.order = Some(order);
        self
    }

    /// Inserts `bytes` of never-executed padding (rounded up to 4)
    /// immediately *before* `symbol`, after its alignment is applied —
    /// so the symbol lands exactly `bytes` past its aligned address and
    /// everything behind it shifts. This is the `biaslint` "padding"
    /// remedy: the gap is nop-filled and unreachable, so program
    /// behavior is untouched and only layout-driven counters can move.
    /// Unknown symbols are ignored (checked at link time by name match).
    #[must_use]
    pub fn pad_symbol(mut self, symbol: &str, bytes: u32) -> Linker {
        self.pads.push((symbol.to_owned(), align_up(bytes, 4)));
        self
    }

    /// Raises `symbol`'s placement alignment to `align` bytes (rounded
    /// up to a power of two, minimum 4) — the `biaslint`
    /// "alignment-directive" remedy, the moral equivalent of
    /// `.p2align` on a function entry.
    #[must_use]
    pub fn align_symbol(mut self, symbol: &str, align: u32) -> Linker {
        self.align_overrides
            .push((symbol.to_owned(), align.next_power_of_two().max(4)));
        self
    }

    /// Links a compiled module.
    ///
    /// # Errors
    ///
    /// Returns a [`LinkError`] for undefined symbols, an invalid order, or
    /// an oversized segment.
    pub fn link(&self, cm: &CompiledModule, entry: &str) -> Result<Executable, LinkError> {
        let n = cm.objects.len();
        let order: Vec<usize> = match &self.order {
            Some(o) => {
                let mut seen = vec![false; n];
                if o.len() != n
                    || o.iter()
                        .any(|&i| i >= n || std::mem::replace(&mut seen[i], true))
                {
                    return Err(LinkError::BadOrder);
                }
                o.clone()
            }
            None => (0..n).collect(),
        };
        if cm.object_index(entry).is_none() {
            return Err(LinkError::UnknownEntry(entry.to_owned()));
        }

        let text_base = TEXT_BASE + self.text_offset;
        // Startup shim: jal ra, entry; halt.
        let shim_len: u32 = 2 * 4;

        // First pass: assign addresses.
        let mut addr = text_base + shim_len;
        let mut func_addrs: HashMap<&str, u32> = HashMap::new();
        let mut placed: Vec<(usize, u32)> = Vec::with_capacity(n);
        for &idx in &order {
            let obj = &cm.objects[idx];
            let align = self
                .align_overrides
                .iter()
                .filter(|(s, _)| *s == obj.symbol)
                .map(|&(_, a)| a)
                .fold(obj.align.max(4), u32::max);
            addr = align_up(addr, align);
            for (s, pad) in &self.pads {
                if *s == obj.symbol {
                    addr += pad;
                }
            }
            func_addrs.insert(obj.symbol.as_str(), addr);
            placed.push((idx, addr));
            addr += obj.size();
        }
        let text_size = addr - text_base;
        if text_size > TEXT_MAX {
            return Err(LinkError::TextTooLarge(text_size));
        }

        // Globals (declaration order; link order moves only code).
        let global_addrs = layout_globals(cm.globals());
        let mut global_map: HashMap<&str, u32> = HashMap::new();
        for (g, &a) in cm.globals().iter().zip(&global_addrs) {
            global_map.insert(g.name.as_str(), a);
        }

        // Second pass: emit with relocations applied.
        let mut insts = vec![Inst::Nop; (text_size / 4) as usize];
        let entry_addr = func_addrs[entry];
        insts[0] = Inst::Jal {
            rd: Reg::RA,
            offset: entry_addr as i32 - (text_base as i32 + 4),
        };
        insts[1] = Inst::Halt;

        for &(idx, base) in &placed {
            let obj = &cm.objects[idx];
            let word0 = ((base - text_base) / 4) as usize;
            insts[word0..word0 + obj.code.len()].copy_from_slice(&obj.code);
            for reloc in &obj.relocs {
                let at = word0 + reloc.at;
                let inst_addr = text_base + (at as u32) * 4;
                match &reloc.kind {
                    RelocKind::Call { symbol } => {
                        let target = *func_addrs
                            .get(symbol.as_str())
                            .ok_or_else(|| LinkError::UnknownSymbol(symbol.clone()))?;
                        let delta = target as i64 - (i64::from(inst_addr) + 4);
                        match &mut insts[at] {
                            Inst::Jal { offset, .. } => *offset = delta as i32,
                            other => unreachable!("call reloc on non-jal {other}"),
                        }
                    }
                    RelocKind::AbsAddr { symbol, addend } => {
                        let target = *global_map
                            .get(symbol.as_str())
                            .ok_or_else(|| LinkError::UnknownSymbol(symbol.clone()))?;
                        let full = (i64::from(target) + i64::from(*addend)) as u32;
                        match &mut insts[at] {
                            Inst::Lui { imm, .. } => *imm = (full >> 16) as u16,
                            other => unreachable!("abs reloc on non-lui {other}"),
                        }
                        match &mut insts[at + 1] {
                            Inst::AluImm { imm, .. } => *imm = (full & 0xFFFF) as u16 as i16,
                            other => unreachable!("abs reloc pair on {other}"),
                        }
                    }
                    RelocKind::GpAdd { symbol, addend } => {
                        let target = *global_map
                            .get(symbol.as_str())
                            .ok_or_else(|| LinkError::UnknownSymbol(symbol.clone()))?;
                        let off = i64::from(target) + i64::from(*addend) - i64::from(GP_VALUE);
                        let off = i16::try_from(off)
                            .map_err(|_| LinkError::GpOffsetOutOfRange(symbol.clone()))?;
                        match &mut insts[at] {
                            Inst::AluImm { imm, .. }
                            | Inst::Load { offset: imm, .. }
                            | Inst::Store { offset: imm, .. } => *imm = off,
                            other => unreachable!("gp reloc on {other}"),
                        }
                    }
                }
            }
        }

        // Symbol table: shim, functions, globals.
        let mut symbols = vec![Symbol {
            name: "__start".into(),
            addr: text_base,
            size: shim_len,
        }];
        for &(idx, base) in &placed {
            let obj = &cm.objects[idx];
            symbols.push(Symbol {
                name: obj.symbol.clone(),
                addr: base,
                size: obj.size(),
            });
        }
        for (g, &a) in cm.globals().iter().zip(&global_addrs) {
            symbols.push(Symbol {
                name: g.name.clone(),
                addr: a,
                size: g.size,
            });
        }

        Ok(Executable {
            text_base,
            insts,
            data_base: crate::layout::DATA_BASE,
            // The image depends on the globals alone, so every layout of
            // the module shares the one its compilation built.
            data: Arc::clone(cm.data_image()),
            gp: GP_VALUE,
            entry: text_base,
            symbols,
            level: cm.level,
            generation: crate::load::next_image_generation(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::codegen::compile;
    use crate::ir::Global;
    use crate::opt::{optimize, OptLevel};

    fn sample_module() -> crate::ir::Module {
        let mut mb = ModuleBuilder::new();
        let g = mb.global(Global::from_words("tbl", &[5, 6, 7]));
        let helper = mb.function("helper", 1, true, |fb| {
            let x = fb.param(0);
            let v = fb.get(x);
            let base = fb.addr_global(g);
            let off = fb.mul_imm(v, 8);
            let a = fb.add(base, off);
            let r = fb.load(biaslab_isa::Width::B8, a, 0);
            fb.ret(Some(r));
        });
        mb.function("main", 0, true, |fb| {
            let one = fb.const_(1);
            let r = fb.call(helper, &[one]);
            fb.chk(r);
            fb.ret(Some(r));
        });
        mb.finish().unwrap()
    }

    fn compiled(level: OptLevel) -> CompiledModule {
        compile(&optimize(&sample_module(), level), level)
    }

    #[test]
    fn links_and_places_shim_first() {
        let exe = Linker::new().link(&compiled(OptLevel::O2), "main").unwrap();
        assert_eq!(exe.entry(), exe.text_base());
        assert!(matches!(exe.text()[0], Inst::Jal { .. }));
        assert!(matches!(exe.text()[1], Inst::Halt));
        assert_eq!(exe.symbol("__start").unwrap().addr, exe.text_base());
    }

    #[test]
    fn functions_are_aligned_per_level() {
        for level in [OptLevel::O0, OptLevel::O2, OptLevel::O3] {
            let exe = Linker::new().link(&compiled(level), "main").unwrap();
            let align = level.function_align().max(4);
            for name in ["helper", "main"] {
                assert_eq!(
                    exe.symbol(name).unwrap().addr % align,
                    0,
                    "{name} at {level}"
                );
            }
        }
    }

    #[test]
    fn link_order_moves_function_addresses() {
        let cm = compiled(OptLevel::O2);
        let e1 = Linker::new().link(&cm, "main").unwrap();
        let e2 = Linker::new()
            .object_order(vec![1, 0])
            .link(&cm, "main")
            .unwrap();
        assert_ne!(
            e1.symbol("main").unwrap().addr,
            e2.symbol("main").unwrap().addr
        );
        // Globals do not move with link order.
        assert_eq!(
            e1.symbol("tbl").unwrap().addr,
            e2.symbol("tbl").unwrap().addr
        );
    }

    #[test]
    fn text_offset_shifts_everything() {
        let cm = compiled(OptLevel::O2);
        let e1 = Linker::new().link(&cm, "main").unwrap();
        let e2 = Linker::new().text_offset(64).link(&cm, "main").unwrap();
        assert_eq!(e2.text_base(), e1.text_base() + 64);
        assert_eq!(
            e2.symbol("main").unwrap().addr % 16,
            e1.symbol("main").unwrap().addr % 16,
            "64 is a multiple of the alignment, so congruence is preserved"
        );
    }

    #[test]
    fn pad_symbol_shifts_exactly_past_the_aligned_address() {
        let cm = compiled(OptLevel::O2);
        let base = Linker::new().link(&cm, "main").unwrap();
        let padded = Linker::new()
            .pad_symbol("main", 12)
            .link(&cm, "main")
            .unwrap();
        assert_eq!(
            padded.symbol("main").unwrap().addr,
            base.symbol("main").unwrap().addr + 12
        );
        // The pad lands in a never-executed nop-filled gap, and the
        // program still computes the same result (relocations re-resolve
        // against the shifted addresses).
        let main_base = base.symbol("main").unwrap();
        for gap in 0..3 {
            assert_eq!(padded.inst_at(main_base.addr + gap * 4).unwrap(), Inst::Nop);
        }
        use crate::load::{Environment, Loader};
        let run = |e: &Executable| {
            let p = Loader::new().load(e, &Environment::new(), &[]).unwrap();
            biaslab_uarch_stub_run(e, p)
        };
        assert_eq!(run(&base), run(&padded));
        // Unknown symbols are a no-op, and pads round up to 4.
        let noop = Linker::new()
            .pad_symbol("nonesuch", 8)
            .link(&cm, "main")
            .unwrap();
        assert_eq!(noop.symbol("main").unwrap().addr, main_base.addr);
        let rounded = Linker::new()
            .pad_symbol("main", 5)
            .link(&cm, "main")
            .unwrap();
        assert_eq!(rounded.symbol("main").unwrap().addr, main_base.addr + 8);
    }

    #[test]
    fn align_symbol_raises_entry_alignment() {
        let cm = compiled(OptLevel::O2); // function_align = 16
        let exe = Linker::new()
            .align_symbol("main", 64)
            .link(&cm, "main")
            .unwrap();
        assert_eq!(exe.symbol("main").unwrap().addr % 64, 0);
        // Never lowers below the object's own request.
        let exe = Linker::new()
            .align_symbol("main", 2)
            .link(&cm, "main")
            .unwrap();
        assert_eq!(exe.symbol("main").unwrap().addr % 16, 0);
    }

    #[test]
    fn layout_ablations_default_to_identity() {
        let cm = compiled(OptLevel::O3);
        let a = Linker::new().link(&cm, "main").unwrap();
        let b = Linker::new().link(&cm, "main").unwrap();
        assert_eq!(a.text(), b.text());
        assert_eq!(a.symbols(), b.symbols());
    }

    #[test]
    fn bad_order_is_rejected() {
        let cm = compiled(OptLevel::O2);
        assert_eq!(
            Linker::new()
                .object_order(vec![0, 0])
                .link(&cm, "main")
                .unwrap_err(),
            LinkError::BadOrder
        );
        assert_eq!(
            Linker::new()
                .object_order(vec![0])
                .link(&cm, "main")
                .unwrap_err(),
            LinkError::BadOrder
        );
    }

    #[test]
    fn unknown_entry_is_rejected() {
        let cm = compiled(OptLevel::O2);
        assert_eq!(
            Linker::new().link(&cm, "nope").unwrap_err(),
            LinkError::UnknownEntry("nope".into())
        );
    }

    #[test]
    fn data_image_holds_initializers() {
        let exe = Linker::new().link(&compiled(OptLevel::O2), "main").unwrap();
        let tbl = exe.symbol("tbl").unwrap();
        let start = (tbl.addr - exe.data_base()) as usize;
        assert_eq!(&exe.data()[start..start + 8], &5u64.to_le_bytes());
    }

    #[test]
    fn inst_at_and_function_at() {
        let exe = Linker::new().link(&compiled(OptLevel::O2), "main").unwrap();
        let main = exe.symbol("main").unwrap().clone();
        assert!(exe.inst_at(main.addr).is_some());
        assert!(exe.inst_at(main.addr + 2).is_none(), "misaligned");
        assert_eq!(exe.function_at(main.addr + 4).unwrap().name, "main");
    }

    #[test]
    fn abs_addr_reaches_globals_beyond_the_gp_window() {
        use crate::interp::Interpreter;
        use crate::load::{Environment, Loader};
        // A 300 KiB filler pushes `far` outside the ±32 KiB gp window;
        // medium-model addressing must still reach it.
        let mut mb = crate::builder::ModuleBuilder::new();
        mb.global(Global {
            name: "filler".into(),
            size: 300 << 10,
            align: 16,
            init: vec![],
        });
        let far = mb.global(Global::from_words("far", &[0xFEED]));
        mb.function("main", 0, true, |fb| {
            let base = fb.addr_global(far);
            let v = fb.load(biaslab_isa::Width::B8, base, 0);
            fb.chk(v);
            fb.ret(Some(v));
        });
        let m = mb.finish().unwrap();
        let expected = Interpreter::new(&m).call_by_name("main", &[]).unwrap();
        let exe = Linker::new()
            .link(&compile(&optimize(&m, OptLevel::O2), OptLevel::O2), "main")
            .unwrap();
        assert!(
            exe.symbol("far").unwrap().addr > GP_VALUE + 0x8000,
            "test must actually exceed the window"
        );
        let process = Loader::new().load(&exe, &Environment::new(), &[]).unwrap();
        let r = biaslab_uarch_stub_run(&exe, process);
        assert_eq!(Some(r), expected.return_value);
    }

    /// Minimal functional executor for linker tests (avoids a dev-dependency
    /// cycle on the simulator crate): executes until `halt`, returns `r1`.
    fn biaslab_uarch_stub_run(exe: &Executable, process: crate::load::Process) -> u64 {
        use biaslab_isa::{Inst, Reg};
        let mut mem = process.mem;
        let mut regs = [0u64; 32];
        regs[Reg::SP.index() as usize] = u64::from(process.sp);
        regs[Reg::GP.index() as usize] = u64::from(process.gp);
        let mut pc = process.entry;
        for _ in 0..1_000_000u32 {
            let inst = exe.inst_at(pc).expect("pc in text");
            let next = pc.wrapping_add(4);
            match inst {
                Inst::Alu { op, rd, rs1, rs2 } => {
                    let v = op.eval(regs[rs1.index() as usize], regs[rs2.index() as usize]);
                    if !rd.is_zero() {
                        regs[rd.index() as usize] = v;
                    }
                }
                Inst::AluImm { op, rd, rs1, imm } => {
                    let v = op.eval(regs[rs1.index() as usize], op.extend_imm(imm));
                    if !rd.is_zero() {
                        regs[rd.index() as usize] = v;
                    }
                }
                Inst::Lui { rd, imm } => regs[rd.index() as usize] = u64::from(imm) << 16,
                Inst::Load {
                    width,
                    rd,
                    base,
                    offset,
                } => {
                    let a = (regs[base.index() as usize] as u32).wrapping_add(offset as i32 as u32);
                    if !rd.is_zero() {
                        regs[rd.index() as usize] = mem.read_le(a, width.bytes());
                    }
                }
                Inst::Store {
                    width,
                    rs,
                    base,
                    offset,
                } => {
                    let a = (regs[base.index() as usize] as u32).wrapping_add(offset as i32 as u32);
                    mem.write_le(a, width.bytes(), regs[rs.index() as usize]);
                }
                Inst::Branch {
                    cond,
                    rs1,
                    rs2,
                    offset,
                } => {
                    if cond.eval(regs[rs1.index() as usize], regs[rs2.index() as usize]) {
                        pc = next.wrapping_add(offset as u32);
                        continue;
                    }
                }
                Inst::Jal { rd, offset } => {
                    if !rd.is_zero() {
                        regs[rd.index() as usize] = u64::from(next);
                    }
                    pc = next.wrapping_add(offset as u32);
                    continue;
                }
                Inst::Jalr { rd, rs1, offset } => {
                    let t = (regs[rs1.index() as usize] as u32).wrapping_add(offset as i32 as u32);
                    if !rd.is_zero() {
                        regs[rd.index() as usize] = u64::from(next);
                    }
                    pc = t;
                    continue;
                }
                Inst::Chk { .. } | Inst::Nop => {}
                Inst::Halt => return regs[1],
            }
            pc = next;
        }
        panic!("functional stub did not halt");
    }

    #[test]
    fn every_layout_of_one_module_shares_its_data_image() {
        let cm = compiled(OptLevel::O2);
        let base = Linker::new().link(&cm, "main").unwrap();
        let moved = Linker::new()
            .text_offset(64)
            .object_order((0..cm.objects.len()).rev().collect())
            .link(&cm, "main")
            .unwrap();
        assert!(std::ptr::eq(moved.data(), base.data()));
        assert!(std::ptr::eq(base.data(), cm.data_image().as_slice()));

        // Another module's globals build another image.
        let mut globals = cm.globals().to_vec();
        globals[0].init = vec![9; 8];
        let other = CompiledModule::new(cm.objects.clone(), globals, cm.level);
        let foreign = Linker::new().link(&other, "main").unwrap();
        assert_ne!(foreign.data(), base.data());
        assert_eq!(&foreign.data()[..8], &[9; 8]);
    }

    #[test]
    fn gp_relative_relocs_still_resolve() {
        use crate::obj::{ObjectFile, Reloc, RelocKind};
        // Hand-build an object using the small-data (GpAdd) model and link
        // it against a near global.
        let mut cm = compiled(OptLevel::O0);
        let idx = cm.object_index("main").unwrap();
        // main's first instruction becomes `addi r1, gp, <tbl>`; we only
        // check the patched immediate, not execution.
        let obj = ObjectFile {
            symbol: "gpuser".into(),
            code: vec![
                biaslab_isa::Inst::AluImm {
                    op: biaslab_isa::AluOp::Add,
                    rd: biaslab_isa::Reg::r(1),
                    rs1: biaslab_isa::Reg::GP,
                    imm: 0,
                },
                biaslab_isa::Inst::Jalr {
                    rd: biaslab_isa::Reg::ZERO,
                    rs1: biaslab_isa::Reg::RA,
                    offset: 0,
                },
            ],
            align: 4,
            relocs: vec![Reloc {
                at: 0,
                kind: RelocKind::GpAdd {
                    symbol: "tbl".into(),
                    addend: 0,
                },
            }],
        };
        cm.objects.push(obj);
        let exe = Linker::new().link(&cm, "main").unwrap();
        let gpuser = exe.symbol("gpuser").unwrap().addr;
        let tbl = exe.symbol("tbl").unwrap().addr;
        match exe.inst_at(gpuser).unwrap() {
            biaslab_isa::Inst::AluImm { imm, .. } => {
                assert_eq!(i64::from(imm), i64::from(tbl) - i64::from(GP_VALUE));
            }
            other => panic!("unexpected {other}"),
        }
        let _ = idx;
    }

    #[test]
    fn disassembly_mentions_symbols() {
        let exe = Linker::new().link(&compiled(OptLevel::O2), "main").unwrap();
        let dis = exe.disassemble();
        assert!(dis.contains("main:"));
        assert!(dis.contains("helper:"));
        assert!(dis.contains("halt"));
    }
}
