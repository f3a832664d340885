//! Ergonomic construction of IR modules and functions.
//!
//! [`ModuleBuilder`] collects globals and functions; [`FunctionBuilder`]
//! offers three-address primitives plus structured-control-flow helpers
//! (`if_then`, `if_then_else`, [`FunctionBuilder::counted_loop`],
//! [`FunctionBuilder::while_loop`]). The workload suite is written entirely
//! against this API.
//!
//! Because IR values are block-local (see [`crate::ir`]), the structured
//! helpers re-read loop state from local slots inside every block they
//! create; closures receive freshly loaded values.
//!
//! # Examples
//!
//! Build, verify and interpret a function that sums `0..n`:
//!
//! ```
//! use biaslab_isa::Cond;
//! use biaslab_toolchain::{interp::Interpreter, ModuleBuilder};
//!
//! let mut mb = ModuleBuilder::new();
//! mb.function("sum", 1, true, |fb| {
//!     let n = fb.param(0);
//!     let acc = fb.local_scalar();
//!     let zero = fb.const_(0);
//!     fb.set(acc, zero);
//!     let i = fb.local_scalar();
//!     fb.counted_loop(i, 0, n, 1, |fb, iv| {
//!         let a = fb.get(acc);
//!         let s = fb.add(a, iv);
//!         fb.set(acc, s);
//!     });
//!     let result = fb.get(acc);
//!     fb.ret(Some(result));
//! });
//! let module = mb.finish().expect("valid module");
//! let mut interp = Interpreter::new(&module);
//! let out = interp.call_by_name("sum", &[10]).unwrap();
//! assert_eq!(out.return_value, Some(45));
//! ```

use biaslab_isa::{AluOp, Cond, Width};

use crate::ir::{
    Block, BlockId, FuncId, Function, Global, GlobalId, LocalId, LocalSlot, LoopInfo, Module, Op,
    Terminator, Val,
};
use crate::verify::{verify_module, VerifyError};

/// Builds a [`Module`] out of globals and functions.
#[derive(Debug, Default)]
pub struct ModuleBuilder {
    module: Module,
}

impl ModuleBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> ModuleBuilder {
        ModuleBuilder {
            module: Module::new(),
        }
    }

    /// Adds a global and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a global with the same name already exists.
    pub fn global(&mut self, global: Global) -> GlobalId {
        assert!(
            self.module.globals.iter().all(|g| g.name != global.name),
            "duplicate global {}",
            global.name
        );
        self.module.globals.push(global);
        GlobalId(self.module.globals.len() as u32 - 1)
    }

    /// Forward-declares a function (for mutual recursion); the body must be
    /// supplied later with [`ModuleBuilder::define`].
    ///
    /// # Panics
    ///
    /// Panics on duplicate names or more than 6 parameters.
    pub fn declare(&mut self, name: &str, param_count: u32, returns_value: bool) -> FuncId {
        assert!(param_count <= 6, "at most 6 parameters supported");
        assert!(
            self.module.functions.iter().all(|f| f.name != name),
            "duplicate function {name}"
        );
        let mut locals = Vec::new();
        for _ in 0..param_count {
            locals.push(LocalSlot::scalar());
        }
        self.module.functions.push(Function {
            name: name.to_owned(),
            param_count,
            returns_value,
            locals,
            blocks: Vec::new(),
            loops: Vec::new(),
            next_val: 0,
        });
        FuncId(self.module.functions.len() as u32 - 1)
    }

    /// Supplies the body of a previously declared function.
    ///
    /// # Panics
    ///
    /// Panics if the function already has a body.
    pub fn define(&mut self, id: FuncId, build: impl FnOnce(&mut FunctionBuilder)) {
        let func = &mut self.module.functions[id.0 as usize];
        assert!(
            func.blocks.is_empty(),
            "function {} already defined",
            func.name
        );
        let mut fb = FunctionBuilder::new(func);
        build(&mut fb);
        fb.finish();
    }

    /// Declares and defines a function in one step.
    pub fn function(
        &mut self,
        name: &str,
        param_count: u32,
        returns_value: bool,
        build: impl FnOnce(&mut FunctionBuilder),
    ) -> FuncId {
        let id = self.declare(name, param_count, returns_value);
        self.define(id, build);
        id
    }

    /// Finishes construction, verifying the module.
    ///
    /// # Errors
    ///
    /// Returns the first [`VerifyError`] if the module is malformed.
    pub fn finish(self) -> Result<Module, VerifyError> {
        verify_module(&self.module)?;
        Ok(self.module)
    }
}

/// Builds one function's CFG. Created by [`ModuleBuilder::define`].
#[derive(Debug)]
pub struct FunctionBuilder<'a> {
    func: &'a mut Function,
    current: BlockId,
    /// Blocks under construction; moved into `func` on finish.
    blocks: Vec<PendingBlock>,
    terminated: bool,
}

#[derive(Debug)]
struct PendingBlock {
    ops: Vec<Op>,
    term: Option<Terminator>,
}

impl<'a> FunctionBuilder<'a> {
    fn new(func: &'a mut Function) -> FunctionBuilder<'a> {
        FunctionBuilder {
            func,
            current: BlockId(0),
            blocks: vec![PendingBlock {
                ops: Vec::new(),
                term: None,
            }],
            terminated: false,
        }
    }

    fn finish(self) {
        for (i, pb) in self.blocks.into_iter().enumerate() {
            let term = pb
                .term
                .unwrap_or_else(|| panic!("block bb{i} in {} lacks a terminator", self.func.name));
            self.func.blocks.push(Block { ops: pb.ops, term });
        }
    }

    fn push(&mut self, op: Op) {
        assert!(!self.terminated, "emitting into a terminated block");
        self.blocks[self.current.0 as usize].ops.push(op);
    }

    fn fresh(&mut self) -> Val {
        self.func.fresh_val()
    }

    // ----- locals ---------------------------------------------------------

    /// The local slot holding parameter `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not a valid parameter index.
    #[must_use]
    pub fn param(&self, index: u32) -> LocalId {
        assert!(
            index < self.func.param_count,
            "parameter {index} out of range"
        );
        LocalId(index)
    }

    /// Allocates an 8-byte scalar local slot.
    pub fn local_scalar(&mut self) -> LocalId {
        self.func.locals.push(LocalSlot::scalar());
        LocalId(self.func.locals.len() as u32 - 1)
    }

    /// Allocates a stack buffer of `size` bytes. Its address can be taken
    /// with [`FunctionBuilder::addr`]; buffers always live on the stack, so
    /// their cache behaviour shifts with the environment size.
    pub fn local_buffer(&mut self, size: u32) -> LocalId {
        self.func.locals.push(LocalSlot::buffer(size));
        LocalId(self.func.locals.len() as u32 - 1)
    }

    // ----- blocks ---------------------------------------------------------

    /// Creates a new (empty, unterminated) block.
    pub fn new_block(&mut self) -> BlockId {
        self.blocks.push(PendingBlock {
            ops: Vec::new(),
            term: None,
        });
        BlockId(self.blocks.len() as u32 - 1)
    }

    /// Switches emission to `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is already terminated.
    pub fn switch_to(&mut self, block: BlockId) {
        assert!(
            self.blocks[block.0 as usize].term.is_none(),
            "switching to terminated block {block}"
        );
        self.current = block;
        self.terminated = false;
    }

    // ----- straight-line ops ----------------------------------------------

    /// Emits `dst = value` and returns `dst`.
    pub fn const_(&mut self, value: u64) -> Val {
        let dst = self.fresh();
        self.push(Op::Const { dst, value });
        dst
    }

    /// Emits a three-register ALU op.
    pub fn bin(&mut self, op: AluOp, a: Val, b: Val) -> Val {
        let dst = self.fresh();
        self.push(Op::Bin { op, dst, a, b });
        dst
    }

    /// Emits an ALU op with an immediate right operand.
    pub fn bin_imm(&mut self, op: AluOp, a: Val, imm: i64) -> Val {
        let dst = self.fresh();
        self.push(Op::BinImm { op, dst, a, imm });
        dst
    }

    /// `a + b`
    pub fn add(&mut self, a: Val, b: Val) -> Val {
        self.bin(AluOp::Add, a, b)
    }

    /// `a - b`
    pub fn sub(&mut self, a: Val, b: Val) -> Val {
        self.bin(AluOp::Sub, a, b)
    }

    /// `a * b`
    pub fn mul(&mut self, a: Val, b: Val) -> Val {
        self.bin(AluOp::Mul, a, b)
    }

    /// `a + imm`
    pub fn add_imm(&mut self, a: Val, imm: i64) -> Val {
        self.bin_imm(AluOp::Add, a, imm)
    }

    /// `a * imm`
    pub fn mul_imm(&mut self, a: Val, imm: i64) -> Val {
        self.bin_imm(AluOp::Mul, a, imm)
    }

    /// Reads the scalar stored in `local`.
    pub fn get(&mut self, local: LocalId) -> Val {
        let dst = self.fresh();
        self.push(Op::LoadLocal {
            dst,
            local,
            offset: 0,
        });
        dst
    }

    /// Writes `src` to `local`.
    pub fn set(&mut self, local: LocalId, src: Val) {
        self.push(Op::StoreLocal {
            local,
            offset: 0,
            src,
        });
    }

    /// Takes the address of `local` (pinning it to the stack).
    pub fn addr(&mut self, local: LocalId) -> Val {
        let dst = self.fresh();
        self.push(Op::AddrLocal { dst, local });
        dst
    }

    /// Takes the address of a global.
    pub fn addr_global(&mut self, global: GlobalId) -> Val {
        let dst = self.fresh();
        self.push(Op::AddrGlobal { dst, global });
        dst
    }

    /// Loads `width` bytes from `addr + offset` (zero-extended).
    pub fn load(&mut self, width: Width, addr: Val, offset: i32) -> Val {
        let dst = self.fresh();
        self.push(Op::Load {
            width,
            dst,
            addr,
            offset,
        });
        dst
    }

    /// Stores `src` (truncated to `width`) at `addr + offset`.
    pub fn store(&mut self, width: Width, addr: Val, offset: i32, src: Val) {
        self.push(Op::Store {
            width,
            addr,
            offset,
            src,
        });
    }

    /// Calls `func` and returns its result value.
    pub fn call(&mut self, func: FuncId, args: &[Val]) -> Val {
        let dst = self.fresh();
        self.push(Op::Call {
            dst: Some(dst),
            func,
            args: args.to_vec(),
        });
        dst
    }

    /// Calls `func`, discarding any result.
    pub fn call_void(&mut self, func: FuncId, args: &[Val]) {
        self.push(Op::Call {
            dst: None,
            func,
            args: args.to_vec(),
        });
    }

    /// Folds `src` into the machine checksum.
    pub fn chk(&mut self, src: Val) {
        self.push(Op::Chk { src });
    }

    // ----- terminators ------------------------------------------------------

    fn terminate(&mut self, term: Terminator) {
        assert!(
            !self.terminated,
            "block {} already terminated",
            self.current
        );
        self.blocks[self.current.0 as usize].term = Some(term);
        self.terminated = true;
    }

    /// Terminates the current block with an unconditional jump.
    pub fn jump(&mut self, target: BlockId) {
        self.terminate(Terminator::Jump(target));
    }

    /// Terminates the current block with a conditional branch.
    pub fn branch(&mut self, cond: Cond, a: Val, b: Val, then_block: BlockId, else_block: BlockId) {
        self.terminate(Terminator::Branch {
            cond,
            a,
            b,
            then_block,
            else_block,
        });
    }

    /// Terminates the current block with a return.
    pub fn ret(&mut self, value: Option<Val>) {
        self.terminate(Terminator::Ret { value });
    }

    // ----- structured control flow ------------------------------------------

    /// Emits `if cond(a, b) { then }`, leaving emission in the join block.
    pub fn if_then(&mut self, cond: Cond, a: Val, b: Val, then: impl FnOnce(&mut Self)) {
        let then_block = self.new_block();
        let join = self.new_block();
        self.branch(cond, a, b, then_block, join);
        self.switch_to(then_block);
        then(self);
        if !self.terminated {
            self.jump(join);
        }
        self.switch_to(join);
    }

    /// Emits `if cond(a, b) { then } else { otherwise }`, leaving emission in
    /// the join block.
    pub fn if_then_else(
        &mut self,
        cond: Cond,
        a: Val,
        b: Val,
        then: impl FnOnce(&mut Self),
        otherwise: impl FnOnce(&mut Self),
    ) {
        let then_block = self.new_block();
        let else_block = self.new_block();
        let join = self.new_block();
        self.branch(cond, a, b, then_block, else_block);
        self.switch_to(then_block);
        then(self);
        if !self.terminated {
            self.jump(join);
        }
        self.switch_to(else_block);
        otherwise(self);
        if !self.terminated {
            self.jump(join);
        }
        self.switch_to(join);
    }

    /// Emits a counted loop `for (i = start; i <s bound; i += step)`.
    ///
    /// `i` must be a scalar local dedicated to this loop; `bound` is re-read
    /// from its local every iteration, so it is loop-invariant as long as the
    /// body does not store to it. The body closure receives the current
    /// induction value (freshly loaded in the body block).
    ///
    /// If the body stays a single basic block, the loop is recorded in
    /// [`Function::loops`] and becomes a candidate for unrolling at `O3`.
    ///
    /// # Panics
    ///
    /// Panics if `step == 0`.
    pub fn counted_loop(
        &mut self,
        i: LocalId,
        start: i64,
        bound: LocalId,
        step: i64,
        body: impl FnOnce(&mut Self, Val),
    ) {
        assert!(step != 0, "loop step must be nonzero");
        let header = self.new_block();
        let body_block = self.new_block();
        let exit = self.new_block();

        let start_val = self.const_(start as u64);
        self.set(i, start_val);
        self.jump(header);

        self.switch_to(header);
        let iv = self.get(i);
        let bv = self.get(bound);
        let cond = if step > 0 { Cond::Lt } else { Cond::Ge };
        // For positive steps loop while i < bound; for negative steps loop
        // while i > bound, expressed as bound < i.
        if step > 0 {
            self.branch(cond, iv, bv, body_block, exit);
        } else {
            self.branch(Cond::Lt, bv, iv, body_block, exit);
        }

        self.switch_to(body_block);
        let blocks_before = self.blocks.len();
        let iv_body = self.get(i);
        body(self, iv_body);
        let single_block = self.blocks.len() == blocks_before && self.current == body_block;
        let iv_end = self.get(i);
        let next = self.bin_imm(AluOp::Add, iv_end, step);
        self.set(i, next);
        self.jump(header);

        if single_block {
            self.func.loops.push(LoopInfo {
                header,
                body: body_block,
                induction: i,
            });
        }
        self.switch_to(exit);
    }

    /// Emits a general `while` loop. `cond` is rebuilt in the header block
    /// each iteration and must end by returning the comparison triple; the
    /// body may create arbitrary control flow.
    pub fn while_loop(
        &mut self,
        cond: impl FnOnce(&mut Self) -> (Cond, Val, Val),
        body: impl FnOnce(&mut Self),
    ) {
        let header = self.new_block();
        let body_block = self.new_block();
        let exit = self.new_block();
        self.jump(header);

        self.switch_to(header);
        let (c, a, b) = cond(self);
        self.branch(c, a, b, body_block, exit);

        self.switch_to(body_block);
        body(self);
        if !self.terminated {
            self.jump(header);
        }
        self.switch_to(exit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_trivial_function() {
        let mut mb = ModuleBuilder::new();
        mb.function("nop", 0, false, |fb| fb.ret(None));
        let m = mb.finish().unwrap();
        assert_eq!(m.functions.len(), 1);
        assert_eq!(m.functions[0].blocks.len(), 1);
    }

    #[test]
    fn counted_loop_registers_loop_info_for_single_block_bodies() {
        let mut mb = ModuleBuilder::new();
        mb.function("f", 1, false, |fb| {
            let n = fb.param(0);
            let i = fb.local_scalar();
            fb.counted_loop(i, 0, n, 1, |fb, iv| {
                fb.chk(iv);
            });
            fb.ret(None);
        });
        let m = mb.finish().unwrap();
        assert_eq!(m.functions[0].loops.len(), 1);
    }

    #[test]
    fn counted_loop_with_inner_control_flow_is_not_recorded() {
        let mut mb = ModuleBuilder::new();
        mb.function("f", 1, false, |fb| {
            let n = fb.param(0);
            let i = fb.local_scalar();
            fb.counted_loop(i, 0, n, 1, |fb, iv| {
                let two = fb.const_(2);
                let r = fb.bin(AluOp::Rem, iv, two);
                let zero = fb.const_(0);
                fb.if_then(Cond::Eq, r, zero, |fb| {
                    let v = fb.get(i);
                    fb.chk(v);
                });
            });
            fb.ret(None);
        });
        let m = mb.finish().unwrap();
        assert!(m.functions[0].loops.is_empty());
    }

    #[test]
    fn if_then_else_produces_diamond() {
        let mut mb = ModuleBuilder::new();
        mb.function("f", 2, true, |fb| {
            let a = fb.param(0);
            let b = fb.param(1);
            let out = fb.local_scalar();
            let av = fb.get(a);
            let bv = fb.get(b);
            fb.if_then_else(
                Cond::Lt,
                av,
                bv,
                |fb| {
                    let v = fb.get(b);
                    fb.set(out, v);
                },
                |fb| {
                    let v = fb.get(a);
                    fb.set(out, v);
                },
            );
            let r = fb.get(out);
            fb.ret(Some(r));
        });
        let m = mb.finish().unwrap();
        // entry + then + else + join = 4 blocks
        assert_eq!(m.functions[0].blocks.len(), 4);
    }

    #[test]
    #[should_panic(expected = "duplicate function")]
    fn duplicate_function_names_rejected() {
        let mut mb = ModuleBuilder::new();
        mb.function("f", 0, false, |fb| fb.ret(None));
        mb.declare("f", 0, false);
    }

    #[test]
    #[should_panic(expected = "lacks a terminator")]
    fn missing_terminator_panics() {
        let mut mb = ModuleBuilder::new();
        mb.function("f", 0, false, |fb| {
            fb.const_(1);
            // no terminator
        });
    }

    #[test]
    #[should_panic(expected = "at most 6 parameters")]
    fn too_many_params_rejected() {
        let mut mb = ModuleBuilder::new();
        mb.declare("f", 7, false);
    }
}
