//! IR well-formedness checking.
//!
//! The verifier enforces the structural invariants every later stage
//! (optimizer, interpreter, code generator) relies on, most importantly the
//! block-locality of [`Val`]s: each value is defined exactly once, before
//! use, within a single block.

use std::collections::BTreeSet;
use std::fmt;

use crate::dataflow::{val_events, ValEvent, ValEventKind};
use crate::ir::{BlockId, Function, Module, Op, Terminator};

/// A structural defect found by [`verify_module`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function in which the defect was found, if any.
    pub function: Option<String>,
    /// Block in which the defect was found, if any (also rendered inside
    /// `message`; kept separate as a sort key for [`verify_module_all`]).
    pub block: Option<u32>,
    /// Human-readable description of the defect.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.function {
            Some(name) => write!(f, "in function `{name}`: {}", self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for VerifyError {}

fn err(function: &Function, block: Option<u32>, message: String) -> VerifyError {
    VerifyError {
        function: Some(function.name.clone()),
        block,
        message,
    }
}

fn module_err(message: String) -> VerifyError {
    VerifyError {
        function: None,
        block: None,
        message,
    }
}

/// Verifies every function and the module-level references.
///
/// # Errors
///
/// Returns the first defect found, in deterministic check order
/// (module-level checks first, then each function in module order).
pub fn verify_module(module: &Module) -> Result<(), VerifyError> {
    match module_errors(module).into_iter().next() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Every structural defect in the module, sorted by function name, then
/// block, then message (module-level defects first).
///
/// [`verify_module`] stops at the first defect in check order, which is
/// convenient for build pipelines but useless for snapshots: analyzer
/// golden tests and diagnostics want the complete, stably-ordered list.
#[must_use]
pub fn verify_module_all(module: &Module) -> Vec<VerifyError> {
    let mut errors = module_errors(module);
    errors.sort_by(|a, b| {
        (&a.function, a.block, &a.message).cmp(&(&b.function, b.block, &b.message))
    });
    errors
}

/// Collects every defect, in check order.
fn module_errors(module: &Module) -> Vec<VerifyError> {
    let mut errors = Vec::new();
    let mut names = BTreeSet::new();
    for g in &module.globals {
        if !names.insert(&g.name) {
            errors.push(module_err(format!("duplicate global name `{}`", g.name)));
        }
        if !g.align.is_power_of_two() {
            errors.push(module_err(format!(
                "global `{}` alignment {} is not a power of two",
                g.name, g.align
            )));
        }
        if g.init.len() as u32 > g.size {
            errors.push(module_err(format!(
                "global `{}` initializer exceeds its size",
                g.name
            )));
        }
    }
    let mut fnames = BTreeSet::new();
    for f in &module.functions {
        if !fnames.insert(&f.name) {
            errors.push(module_err(format!("duplicate function name `{}`", f.name)));
        }
    }
    for f in &module.functions {
        function_errors(module, f, &mut errors);
    }
    errors
}

fn function_errors(module: &Module, f: &Function, errors: &mut Vec<VerifyError>) {
    if f.blocks.is_empty() {
        errors.push(err(f, None, "function has no blocks".into()));
    }
    if f.param_count > 6 {
        errors.push(err(
            f,
            None,
            format!("{} parameters exceed the ABI limit of 6", f.param_count),
        ));
    }
    if (f.param_count as usize) > f.locals.len() {
        errors.push(err(f, None, "fewer locals than parameters".into()));
    }
    for (i, slot) in f.locals.iter().enumerate() {
        if !slot.align.is_power_of_two() {
            errors.push(err(
                f,
                None,
                format!("local {i} alignment {} not a power of two", slot.align),
            ));
        }
        if slot.size == 0 {
            errors.push(err(f, None, format!("local {i} has zero size")));
        }
    }

    // The val-discipline defects come from the shared block-local
    // reaching-definitions scan in `crate::dataflow`; per-op structural
    // checks (`verify_op`) interleave between each op's use defects and
    // its def defects, which is exactly the event order `val_events`
    // produces.
    let events = val_events(f);
    let mut ev = events.iter().peekable();
    let mut drain = |errors: &mut Vec<VerifyError>, bi: u32, oi: Option<u32>, uses_only: bool| {
        while let Some(e) = ev.peek() {
            let ValEvent { block, op, kind } = e;
            if *block != bi || *op != oi {
                break;
            }
            if uses_only && !matches!(kind, ValEventKind::UseBeforeDef(_)) {
                break;
            }
            let bid = BlockId(bi);
            let message = match (kind, oi) {
                (ValEventKind::UseBeforeDef(v), Some(oi)) => {
                    format!("{bid} op {oi}: {v} used before definition in its block")
                }
                (ValEventKind::UseBeforeDef(v), None) => {
                    format!("{bid} terminator: {v} used before definition")
                }
                (ValEventKind::DefinedTwice(v), Some(oi)) => {
                    format!("{bid} op {oi}: {v} defined twice in block")
                }
                (ValEventKind::CrossBlockDef(v), Some(oi)) => {
                    format!("{bid} op {oi}: {v} defined in more than one block")
                }
                (ValEventKind::AboveNextVal(v), Some(oi)) => {
                    format!("{bid} op {oi}: {v} not below next_val {}", f.next_val)
                }
                // Def events only arise from ops, never terminators.
                (_, None) => unreachable!("def event on a terminator"),
            };
            errors.push(err(f, Some(bi), message));
            ev.next();
        }
    };
    for (bi, block) in f.blocks.iter().enumerate() {
        let bid = BlockId(bi as u32);
        let b = Some(bi as u32);
        for (oi, op) in block.ops.iter().enumerate() {
            drain(errors, bi as u32, Some(oi as u32), true);
            if let Err(m) = self::verify_op(module, f, op) {
                errors.push(err(f, b, format!("{bid} op {oi}: {m}")));
            }
            drain(errors, bi as u32, Some(oi as u32), false);
        }
        drain(errors, bi as u32, None, false);
        for succ in block.term.successors() {
            if succ.0 as usize >= f.blocks.len() {
                errors.push(err(
                    f,
                    b,
                    format!("{bid} terminator: successor {succ} out of range"),
                ));
            }
        }
        if let Terminator::Ret { value } = &block.term {
            if value.is_some() != f.returns_value {
                errors.push(err(
                    f,
                    b,
                    format!(
                        "{bid}: return {} value but function {}",
                        if value.is_some() {
                            "carries a"
                        } else {
                            "lacks a"
                        },
                        if f.returns_value {
                            "returns one"
                        } else {
                            "returns none"
                        },
                    ),
                ));
            }
        }
    }

    for (li, l) in f.loops.iter().enumerate() {
        if l.header.0 as usize >= f.blocks.len() || l.body.0 as usize >= f.blocks.len() {
            errors.push(err(f, None, format!("loop {li}: block out of range")));
        }
        if l.induction.0 as usize >= f.locals.len() {
            errors.push(err(
                f,
                None,
                format!("loop {li}: induction local out of range"),
            ));
        }
    }
}

fn verify_op(module: &Module, f: &Function, op: &Op) -> Result<(), String> {
    match op {
        Op::LoadLocal { local, offset, .. } | Op::StoreLocal { local, offset, .. } => {
            let slot = f
                .locals
                .get(local.0 as usize)
                .ok_or_else(|| format!("local {} out of range", local.0))?;
            if offset % 8 != 0 {
                return Err(format!("local access offset {offset} not 8-aligned"));
            }
            if offset + 8 > slot.size {
                return Err(format!(
                    "local access at {offset} exceeds slot size {}",
                    slot.size
                ));
            }
        }
        Op::AddrLocal { local, .. } if local.0 as usize >= f.locals.len() => {
            return Err(format!("local {} out of range", local.0));
        }
        Op::AddrGlobal { global, .. } if global.0 as usize >= module.globals.len() => {
            return Err(format!("global {} out of range", global.0));
        }
        Op::Call { dst, func, args } => {
            let callee = module
                .functions
                .get(func.0 as usize)
                .ok_or_else(|| format!("callee {} out of range", func.0))?;
            if args.len() as u32 != callee.param_count {
                return Err(format!(
                    "call to `{}` passes {} args, expects {}",
                    callee.name,
                    args.len(),
                    callee.param_count
                ));
            }
            if dst.is_some() && !callee.returns_value {
                return Err(format!(
                    "call to `{}` uses a result it does not return",
                    callee.name
                ));
            }
        }
        _ => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use biaslab_isa::AluOp;

    use super::*;
    use crate::ir::{Block, LocalId, LocalSlot, Val};

    fn func(blocks: Vec<Block>, locals: Vec<LocalSlot>, next_val: u32) -> Function {
        Function {
            name: "t".into(),
            param_count: 0,
            returns_value: false,
            locals,
            blocks,
            loops: vec![],
            next_val,
        }
    }

    fn module_with(f: Function) -> Module {
        Module {
            functions: vec![f],
            globals: vec![],
        }
    }

    #[test]
    fn accepts_minimal_function() {
        let m = module_with(func(
            vec![Block {
                ops: vec![],
                term: Terminator::Ret { value: None },
            }],
            vec![],
            0,
        ));
        assert!(verify_module(&m).is_ok());
    }

    #[test]
    fn rejects_use_before_def() {
        let m = module_with(func(
            vec![Block {
                ops: vec![Op::Bin {
                    op: AluOp::Add,
                    dst: Val(1),
                    a: Val(0),
                    b: Val(0),
                }],
                term: Terminator::Ret { value: None },
            }],
            vec![],
            2,
        ));
        let e = verify_module(&m).unwrap_err();
        assert!(e.to_string().contains("used before definition"), "{e}");
    }

    #[test]
    fn rejects_cross_block_value_use() {
        let m = module_with(func(
            vec![
                Block {
                    ops: vec![Op::Const {
                        dst: Val(0),
                        value: 1,
                    }],
                    term: Terminator::Jump(BlockId(1)),
                },
                Block {
                    ops: vec![Op::Chk { src: Val(0) }],
                    term: Terminator::Ret { value: None },
                },
            ],
            vec![],
            1,
        ));
        assert!(verify_module(&m).is_err());
    }

    #[test]
    fn rejects_double_definition() {
        let m = module_with(func(
            vec![Block {
                ops: vec![
                    Op::Const {
                        dst: Val(0),
                        value: 1,
                    },
                    Op::Const {
                        dst: Val(0),
                        value: 2,
                    },
                ],
                term: Terminator::Ret { value: None },
            }],
            vec![],
            1,
        ));
        let e = verify_module(&m).unwrap_err();
        assert!(e.to_string().contains("defined twice"), "{e}");
    }

    #[test]
    fn rejects_out_of_range_successor() {
        let m = module_with(func(
            vec![Block {
                ops: vec![],
                term: Terminator::Jump(BlockId(5)),
            }],
            vec![],
            0,
        ));
        let e = verify_module(&m).unwrap_err();
        assert!(e.to_string().contains("out of range"), "{e}");
    }

    #[test]
    fn rejects_local_access_past_slot() {
        let m = module_with(func(
            vec![Block {
                ops: vec![Op::LoadLocal {
                    dst: Val(0),
                    local: LocalId(0),
                    offset: 8,
                }],
                term: Terminator::Ret { value: None },
            }],
            vec![LocalSlot::scalar()],
            1,
        ));
        let e = verify_module(&m).unwrap_err();
        assert!(e.to_string().contains("exceeds slot size"), "{e}");
    }

    #[test]
    fn rejects_bad_call_arity() {
        let callee = Function {
            name: "callee".into(),
            param_count: 2,
            returns_value: false,
            locals: vec![LocalSlot::scalar(), LocalSlot::scalar()],
            blocks: vec![Block {
                ops: vec![],
                term: Terminator::Ret { value: None },
            }],
            loops: vec![],
            next_val: 0,
        };
        let caller = func(
            vec![Block {
                ops: vec![Op::Call {
                    dst: None,
                    func: crate::ir::FuncId(0),
                    args: vec![],
                }],
                term: Terminator::Ret { value: None },
            }],
            vec![],
            0,
        );
        let m = Module {
            functions: vec![callee, caller],
            globals: vec![],
        };
        let e = verify_module(&m).unwrap_err();
        assert!(e.to_string().contains("passes 0 args"), "{e}");
    }

    #[test]
    fn rejects_mismatched_return() {
        let mut f = func(
            vec![Block {
                ops: vec![],
                term: Terminator::Ret { value: None },
            }],
            vec![],
            0,
        );
        f.returns_value = true;
        let e = verify_module(&module_with(f)).unwrap_err();
        assert!(e.to_string().contains("lacks a value"), "{e}");
    }

    #[test]
    fn all_errors_are_collected_and_sorted() {
        // Two broken functions, inserted in reverse-alphabetical order,
        // each with defects in two blocks: the full listing sorts by
        // (function, block, message) regardless of module order, while
        // `verify_module` still reports the first defect in check order.
        let broken = |name: &str| {
            let mut f = func(
                vec![
                    Block {
                        ops: vec![Op::Chk { src: Val(9) }],
                        term: Terminator::Jump(BlockId(1)),
                    },
                    Block {
                        ops: vec![],
                        term: Terminator::Jump(BlockId(7)),
                    },
                ],
                vec![],
                10,
            );
            f.name = name.into();
            f
        };
        let m = Module {
            functions: vec![broken("zeta"), broken("alpha")],
            globals: vec![crate::ir::Global::zeroed("g", 8), {
                let mut g = crate::ir::Global::zeroed("h", 8);
                g.align = 3;
                g
            }],
        };
        let all = verify_module_all(&m);
        assert_eq!(all.len(), 5);
        // Module-level defect first, then functions alphabetically with
        // ascending blocks.
        assert_eq!(all[0].function, None);
        assert!(all[0].message.contains("alignment 3"));
        assert_eq!(all[1].function.as_deref(), Some("alpha"));
        assert_eq!(all[1].block, Some(0));
        assert_eq!(all[2].function.as_deref(), Some("alpha"));
        assert_eq!(all[2].block, Some(1));
        assert_eq!(all[3].function.as_deref(), Some("zeta"));
        assert_eq!(all[4].function.as_deref(), Some("zeta"));
        // First-error semantics unchanged: module-level checks, then
        // `zeta` (module order), not sorted order.
        let first = verify_module(&m).unwrap_err();
        assert!(first.message.contains("alignment 3"), "{first}");
        // And the listing is stable across repeated runs.
        let again = verify_module_all(&m);
        assert_eq!(all, again);
    }

    #[test]
    fn dataflow_rewrite_pins_interleaved_error_order() {
        // One block exhibiting every val-discipline defect interleaved
        // with a structural (`verify_op`) defect: the dataflow-backed
        // walk must report, per op, uses -> structure -> defs, in the
        // same order the original hand-rolled walk did. Pinned verbatim.
        let f = func(
            vec![
                Block {
                    ops: vec![
                        // op 0: use-before-def AND an out-of-range local:
                        // the use defect must precede the structural one.
                        Op::StoreLocal {
                            local: LocalId(7),
                            offset: 0,
                            src: Val(5),
                        },
                        Op::Const {
                            dst: Val(0),
                            value: 1,
                        },
                        // op 2: double definition + above next_val.
                        Op::Const {
                            dst: Val(0),
                            value: 2,
                        },
                    ],
                    term: Terminator::Ret { value: None },
                },
                Block {
                    // Cross-block re-definition of v0.
                    ops: vec![Op::Const {
                        dst: Val(0),
                        value: 3,
                    }],
                    term: Terminator::Jump(BlockId(0)),
                },
            ],
            vec![],
            1,
        );
        let m = module_with(f);
        let mut errors = Vec::new();
        function_errors(&m, &m.functions[0], &mut errors);
        let messages: Vec<&str> = errors.iter().map(|e| e.message.as_str()).collect();
        assert_eq!(
            messages,
            vec![
                "bb0 op 0: %5 used before definition in its block",
                "bb0 op 0: local 7 out of range",
                "bb0 op 2: %0 defined twice in block",
                "bb1 op 0: %0 defined in more than one block",
            ]
        );
        // And `verify_module` still surfaces the first of these.
        assert_eq!(
            verify_module(&m).unwrap_err().message,
            "bb0 op 0: %5 used before definition in its block"
        );
    }

    #[test]
    fn a_clean_module_collects_no_errors() {
        let m = module_with(func(
            vec![Block {
                ops: vec![],
                term: Terminator::Ret { value: None },
            }],
            vec![],
            0,
        ));
        assert!(verify_module_all(&m).is_empty());
    }

    #[test]
    fn rejects_duplicate_globals() {
        let m = Module {
            functions: vec![],
            globals: vec![
                crate::ir::Global::zeroed("g", 8),
                crate::ir::Global::zeroed("g", 8),
            ],
        };
        assert!(verify_module(&m).is_err());
    }
}
