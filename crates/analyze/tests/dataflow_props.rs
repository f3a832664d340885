//! Property tests for the layer-2 dataflow passes behind `biaslint`:
//! the bitset/worklist implementations in `biaslab_toolchain::dataflow`
//! must agree with naive O(n²)-and-worse reference implementations
//! built straight from the path-based textbook definitions, over
//! arbitrary generated CFGs with arbitrary slot traffic.
//!
//! The references deliberately share nothing with the production code
//! but the [`CellMap`] index space (a trivially-correct arithmetic
//! mapping): liveness and reaching definitions are answered per query
//! by a fresh depth-first path search.

use biaslab_toolchain::dataflow::{CellMap, EntryFlavor, Liveness, ReachingDefs, ValueRanges};
use biaslab_toolchain::ir::{Block, BlockId, Function, LocalId, LocalSlot, Op, Terminator, Val};
use proptest::prelude::*;

/// One generated op: `(kind, local_sel, off_sel)`. Kinds 0-2 load,
/// 3-5 store, 6 takes an address (escaping the slot), 7 is unrelated
/// traffic. Offsets may run past the slot (the analyses must ignore
/// out-of-range accesses rather than panic).
fn decode_op(kind: u8, local_sel: u8, off_sel: u8, next_val: &mut u32) -> Op {
    let local = LocalId(u32::from(local_sel % 3));
    let offset = u32::from(off_sel % 3) * 8;
    let dst = Val(*next_val);
    *next_val += 1;
    match kind % 8 {
        0..=2 => Op::LoadLocal { dst, local, offset },
        3..=5 => Op::StoreLocal {
            local,
            offset,
            src: Val(0),
        },
        6 => Op::AddrLocal { dst, local },
        _ => Op::Const { dst, value: 7 },
    }
}

/// One block's spec: terminator kind, two target seeds, and its ops as
/// `(kind, local, offset)` seeds for [`decode_op`].
type BlockSpec = (u8, u32, u32, Vec<(u8, u8, u8)>);

/// Decodes a per-block spec into a function over three locals (a
/// scalar, a 16-byte buffer, a 24-byte buffer — six cells total).
/// Terminators follow the same `(kind, t1, t2)` encoding as the CFG
/// property tests: return, jump to `t1 % n`, or branch `t1/t2 % n`.
fn decode(param_count: u32, spec: &[BlockSpec]) -> Function {
    let n = spec.len() as u32;
    let mut next_val = 1u32;
    let blocks = spec
        .iter()
        .map(|(kind, t1, t2, ops)| Block {
            ops: ops
                .iter()
                .map(|&(k, l, o)| decode_op(k, l, o, &mut next_val))
                .collect(),
            term: match kind % 3 {
                0 => Terminator::Ret { value: None },
                1 => Terminator::Jump(BlockId(t1 % n)),
                _ => Terminator::Branch {
                    cond: biaslab_isa::Cond::Eq,
                    a: Val(0),
                    b: Val(0),
                    then_block: BlockId(t1 % n),
                    else_block: BlockId(t2 % n),
                },
            },
        })
        .collect();
    Function {
        name: "gen".into(),
        param_count: param_count % 3,
        returns_value: false,
        locals: vec![
            LocalSlot::scalar(),
            LocalSlot::buffer(16),
            LocalSlot::buffer(24),
        ],
        blocks,
        loops: vec![],
        next_val,
    }
}

fn successors(f: &Function, b: usize) -> Vec<usize> {
    f.blocks[b]
        .term
        .successors()
        .iter()
        .map(|s| s.0 as usize)
        .filter(|&s| s < f.blocks.len())
        .collect()
}

fn escaped_cells(f: &Function, cells: &CellMap) -> Vec<bool> {
    let mut escaped = vec![false; cells.len()];
    for (i, taken) in f.address_taken_locals().iter().enumerate() {
        if *taken {
            for c in cells.cells_of(LocalId(i as u32)) {
                escaped[c] = true;
            }
        }
    }
    escaped
}

/// First untracked-cell event in `block` from op `from` on: `Some(true)`
/// for a load of `cell`, `Some(false)` for a store to it, `None` if the
/// block falls through without touching it.
fn first_event(
    f: &Function,
    cells: &CellMap,
    block: usize,
    from: usize,
    cell: usize,
) -> Option<bool> {
    f.blocks[block].ops[from..].iter().find_map(|op| match *op {
        Op::LoadLocal { local, offset, .. } if cells.cell(local, offset) == Some(cell) => {
            Some(true)
        }
        Op::StoreLocal { local, offset, .. } if cells.cell(local, offset) == Some(cell) => {
            Some(false)
        }
        _ => None,
    })
}

fn stores_cell(f: &Function, cells: &CellMap, block: usize, cell: usize) -> bool {
    f.blocks[block].ops.iter().any(|op| {
        matches!(*op, Op::StoreLocal { local, offset, .. }
            if cells.cell(local, offset) == Some(cell))
    })
}

/// Path-based liveness: is there a walk from the entry of some block in
/// `start` that reaches a load of `cell` with no intervening store?
fn naive_live_from(f: &Function, cells: &CellMap, start: &[usize], cell: usize) -> bool {
    let mut seen = vec![false; f.blocks.len()];
    let mut stack: Vec<usize> = Vec::new();
    for &s in start {
        if !seen[s] {
            seen[s] = true;
            stack.push(s);
        }
    }
    while let Some(b) = stack.pop() {
        match first_event(f, cells, b, 0, cell) {
            Some(true) => return true,
            Some(false) => continue,
            None => {
                for s in successors(f, b) {
                    if !seen[s] {
                        seen[s] = true;
                        stack.push(s);
                    }
                }
            }
        }
    }
    false
}

/// Path-based reaching: does the *entry* definition of `cell` reach the
/// entry of `target`? (A path from block 0 on which no block stores the
/// cell; escaped cells are never killed, so plain reachability.)
fn naive_entry_reaches(
    f: &Function,
    cells: &CellMap,
    escaped: &[bool],
    cell: usize,
    target: usize,
) -> bool {
    if target == 0 {
        return true;
    }
    let mut seen = vec![false; f.blocks.len()];
    let mut stack = vec![0usize];
    seen[0] = true;
    while let Some(b) = stack.pop() {
        if !escaped[cell] && stores_cell(f, cells, b, cell) {
            continue;
        }
        for s in successors(f, b) {
            if s == target {
                return true;
            }
            if !seen[s] {
                seen[s] = true;
                stack.push(s);
            }
        }
    }
    false
}

/// Path-based reaching for a tracked store site: the site must be the
/// last store to its cell in its block (later stores shadow it), and
/// some path from its block's exit must reach `target`'s entry without
/// crossing another block that stores the cell.
fn naive_def_reaches(
    f: &Function,
    cells: &CellMap,
    def_block: usize,
    def_op: usize,
    cell: usize,
    target: usize,
) -> bool {
    let last = f.blocks[def_block]
        .ops
        .iter()
        .enumerate()
        .rev()
        .find_map(|(oi, op)| match *op {
            Op::StoreLocal { local, offset, .. } if cells.cell(local, offset) == Some(cell) => {
                Some(oi)
            }
            _ => None,
        });
    if last != Some(def_op) {
        return false;
    }
    let mut seen = vec![false; f.blocks.len()];
    let mut stack = vec![def_block];
    // `def_block` itself is the path's start, not an intermediate node:
    // its store is the definition, not a kill.
    while let Some(b) = stack.pop() {
        if b != def_block && stores_cell(f, cells, b, cell) {
            continue;
        }
        for s in successors(f, b) {
            if s == target {
                return true;
            }
            if !seen[s] {
                seen[s] = true;
                stack.push(s);
            }
        }
    }
    false
}

fn spec_strategy() -> impl Strategy<Value = (u32, Vec<BlockSpec>)> {
    (
        any::<u32>(),
        proptest::collection::vec(
            (
                any::<u8>(),
                any::<u32>(),
                any::<u32>(),
                proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..6),
            ),
            1..8,
        ),
    )
}

proptest! {
    #[test]
    fn liveness_matches_the_path_based_definition(
        (params, spec) in spec_strategy(),
    ) {
        let f = decode(params, &spec);
        let live = Liveness::of(&f);
        let cells = CellMap::of(&f);
        let escaped = escaped_cells(&f, &cells);
        for b in 0..f.blocks.len() {
            for (c, &esc) in escaped.iter().enumerate() {
                let expect_in = esc || naive_live_from(&f, &cells, &[b], c);
                let expect_out = esc
                    || naive_live_from(&f, &cells, &successors(&f, b), c)
                    // A self-loop re-enters this block's own loads.
                    || (successors(&f, b).contains(&b)
                        && first_event(&f, &cells, b, 0, c) == Some(true));
                prop_assert_eq!(live.is_live_in(b, c), expect_in, "live_in({}, {})", b, c);
                prop_assert_eq!(live.is_live_out(b, c), expect_out, "live_out({}, {})", b, c);
                prop_assert_eq!(live.is_escaped(c), esc);
            }
        }
    }

    #[test]
    fn dead_stores_match_the_path_based_definition(
        (params, spec) in spec_strategy(),
    ) {
        let f = decode(params, &spec);
        let live = Liveness::of(&f);
        let cells = CellMap::of(&f);
        let escaped = escaped_cells(&f, &cells);
        let mut expect: Vec<(u32, u32)> = Vec::new();
        for (bi, block) in f.blocks.iter().enumerate() {
            for (oi, op) in block.ops.iter().enumerate() {
                let Op::StoreLocal { local, offset, .. } = *op else {
                    continue;
                };
                let Some(c) = cells.cell(local, offset) else {
                    continue;
                };
                if escaped[c] {
                    continue;
                }
                let read_later = match first_event(&f, &cells, bi, oi + 1, c) {
                    Some(read) => read,
                    None => naive_live_from(&f, &cells, &successors(&f, bi), c),
                };
                if !read_later {
                    expect.push((bi as u32, oi as u32));
                }
            }
        }
        prop_assert_eq!(live.dead_stores(&f), expect);
    }

    #[test]
    fn reaching_defs_match_the_path_based_definition(
        (params, spec) in spec_strategy(),
    ) {
        let f = decode(params, &spec);
        let rd = ReachingDefs::of(&f);
        let cells = CellMap::of(&f);
        let escaped = escaped_cells(&f, &cells);

        // The tracked-site inventory is the plain walk order.
        let mut sites = Vec::new();
        for (bi, block) in f.blocks.iter().enumerate() {
            for (oi, op) in block.ops.iter().enumerate() {
                if let Op::StoreLocal { local, offset, .. } = *op {
                    if let Some(c) = cells.cell(local, offset) {
                        sites.push((bi, oi, c));
                    }
                }
            }
        }
        prop_assert_eq!(rd.tracked.len(), sites.len());

        for target in 0..f.blocks.len() {
            for (di, &(bi, oi, c)) in sites.iter().enumerate() {
                prop_assert_eq!(
                    rd.reaches_entry(target, di),
                    naive_def_reaches(&f, &cells, bi, oi, c, target),
                    "def {} (bb{} op{} cell{}) -> entry of bb{}", di, bi, oi, c, target
                );
            }
            for c in 0..cells.len() {
                prop_assert_eq!(
                    rd.reaches_entry(target, rd.entry_def(c)),
                    naive_entry_reaches(&f, &cells, &escaped, c, target),
                    "entry def of cell {} -> entry of bb{}", c, target
                );
            }
        }

        // Entry flavors restate the parameter / escape partition.
        for (c, &esc) in escaped.iter().enumerate() {
            let (local, _) = cells.owner(c);
            let expect = if local.0 < f.param_count {
                EntryFlavor::Param
            } else if esc {
                EntryFlavor::Escaped
            } else {
                EntryFlavor::Uninit
            };
            prop_assert_eq!(rd.flavor(c), expect);
        }
    }

    #[test]
    fn uninit_reads_match_the_path_based_definition(
        (params, spec) in spec_strategy(),
    ) {
        let f = decode(params, &spec);
        let rd = ReachingDefs::of(&f);
        let cells = CellMap::of(&f);
        let escaped = escaped_cells(&f, &cells);
        let mut expect = Vec::new();
        for (bi, block) in f.blocks.iter().enumerate() {
            for (oi, op) in block.ops.iter().enumerate() {
                let Op::LoadLocal { local, offset, .. } = *op else {
                    continue;
                };
                let Some(c) = cells.cell(local, offset) else {
                    continue;
                };
                let (owner, _) = cells.owner(c);
                let uninit_flavor = owner.0 >= f.param_count && !escaped[c];
                // The entry definition must survive to the block and then
                // past every earlier store to the cell within it.
                let stored_before = f.blocks[bi].ops[..oi].iter().any(|op| {
                    matches!(*op, Op::StoreLocal { local, offset, .. }
                        if cells.cell(local, offset) == Some(c))
                });
                if uninit_flavor
                    && !stored_before
                    && naive_entry_reaches(&f, &cells, &escaped, c, bi)
                {
                    expect.push((bi as u32, oi as u32, local, offset));
                }
            }
        }
        let got: Vec<(u32, u32, LocalId, u32)> = rd
            .maybe_uninit_reads(&f)
            .into_iter()
            .map(|r| (r.block, r.op, r.local, r.offset))
            .collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn all_passes_are_total_on_arbitrary_ir(
        (params, spec) in spec_strategy(),
    ) {
        // Unverified IR (out-of-range offsets, undefined vals) must never
        // panic any pass; lint runs them before verification has a say.
        let f = decode(params, &spec);
        let live = Liveness::of(&f);
        let rd = ReachingDefs::of(&f);
        let vr = ValueRanges::of(&f);
        let _ = live.dead_stores(&f);
        let _ = rd.maybe_uninit_reads(&f);
        for b in 0..f.blocks.len() {
            let _ = vr.vals_in_block(&f, b);
        }
    }
}
