//! Bit-vector dataflow analyses over [`crate::ir`] functions.
//!
//! Three classic analyses, shared by the verifier ([`crate::verify`]) and
//! the `biaslint` diagnostics engine in `biaslab-analyze`:
//!
//! * **Liveness** ([`Liveness`]) — backward may-analysis over stack-slot
//!   *cells* (see [`CellMap`]): which `(local, offset)` cells may still be
//!   read on some path from a program point.
//! * **Reaching definitions** ([`ReachingDefs`]) — forward may-analysis:
//!   which [`Op::StoreLocal`] sites (or the synthetic function-entry
//!   definition of each cell) may have produced the value a load observes.
//! * **Value ranges** ([`ValueRanges`]) — forward constant / interval
//!   propagation with widening: the set of run-time values each cell can
//!   hold at block entry, and (via [`ValueRanges::vals_in_block`]) each
//!   block-local [`Val`].
//!
//! Because IR [`Val`]s are block-local by construction (defined exactly
//! once, before use, within one block — the invariant the verifier
//! enforces), all cross-block dataflow moves through local slots, and the
//! dataflow domain is the slot cell, not the SSA value. The *val-level*
//! component of reaching definitions degenerates to a per-block forward
//! scan, exposed as [`val_events`]; the verifier's use-before-def /
//! double-definition diagnostics are a direct rendering of those events.
//!
//! Address-taken slots ([`Function::address_taken_locals`]) escape the
//! analysis: their cells are conservatively treated as live everywhere,
//! defined at entry by an unknown writer, and holding unknown values.
//! That keeps every analysis sound in the presence of pointer loads,
//! stores, and calls without any alias reasoning.

use std::collections::BTreeSet;

use crate::ir::{Function, LocalId, Op, Val};

// ---------------------------------------------------------------------------
// Small dense bitset (the same shape as the analyzer's dominator rows).
// ---------------------------------------------------------------------------

/// A fixed-width bitset over `0..len` used for dataflow rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An all-zero set over `0..len`.
    #[must_use]
    pub fn new(len: usize) -> BitSet {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Whether bit `i` is set.
    #[must_use]
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Sets bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Clears bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// `self |= other`; reports whether `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            let next = *w | o;
            changed |= next != *w;
            *w = next;
        }
        changed
    }

    /// `self &= !other`.
    pub fn subtract(&mut self, other: &BitSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= !o;
        }
    }

    /// Iterates the set bits in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(|&i| self.get(i))
    }
}

// ---------------------------------------------------------------------------
// Cell map: (local, offset) -> dense dataflow index.
// ---------------------------------------------------------------------------

/// Maps `(LocalId, byte offset)` slot accesses to dense *cell* indices.
///
/// Every local slot contributes `ceil(size / 8)` eight-byte cells — the
/// granule at which [`Op::LoadLocal`] / [`Op::StoreLocal`] access memory
/// (the verifier guarantees 8-aligned, in-bounds offsets).
#[derive(Debug, Clone)]
pub struct CellMap {
    starts: Vec<u32>,
    total: u32,
}

impl CellMap {
    /// Builds the cell map of `f`'s local slots.
    #[must_use]
    pub fn of(f: &Function) -> CellMap {
        let mut starts = Vec::with_capacity(f.locals.len() + 1);
        let mut total = 0u32;
        for slot in &f.locals {
            starts.push(total);
            total += slot.size.div_ceil(8).max(1);
        }
        starts.push(total);
        CellMap { starts, total }
    }

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.total as usize
    }

    /// Whether the function has no slots at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The cell of `(local, offset)`, or `None` when either is out of
    /// range (possible only on unverified IR).
    #[must_use]
    pub fn cell(&self, local: LocalId, offset: u32) -> Option<usize> {
        let i = local.0 as usize;
        let lo = *self.starts.get(i)?;
        let hi = *self.starts.get(i + 1)?;
        let c = lo + offset / 8;
        (c < hi).then_some(c as usize)
    }

    /// The cells of one local slot, as a contiguous index range.
    #[must_use]
    pub fn cells_of(&self, local: LocalId) -> std::ops::Range<usize> {
        let i = local.0 as usize;
        match (self.starts.get(i), self.starts.get(i + 1)) {
            (Some(&lo), Some(&hi)) => lo as usize..hi as usize,
            _ => 0..0,
        }
    }

    /// The `(local, byte offset)` a cell index denotes.
    #[must_use]
    pub fn owner(&self, cell: usize) -> (LocalId, u32) {
        let c = cell as u32;
        debug_assert!(c < self.total);
        let i = self.starts.partition_point(|&s| s <= c) - 1;
        (LocalId(i as u32), (c - self.starts[i]) * 8)
    }
}

fn escaped_cells(f: &Function, cells: &CellMap) -> BitSet {
    let mut escaped = BitSet::new(cells.len());
    for (i, taken) in f.address_taken_locals().iter().enumerate() {
        if *taken {
            for c in cells.cells_of(LocalId(i as u32)) {
                escaped.set(c);
            }
        }
    }
    escaped
}

fn block_successors(f: &Function, bi: usize) -> Vec<usize> {
    f.blocks[bi]
        .term
        .successors()
        .iter()
        .map(|s| s.0 as usize)
        .filter(|&s| s < f.blocks.len())
        .collect()
}

// ---------------------------------------------------------------------------
// Val-level block-local reaching definitions (the verifier's walk).
// ---------------------------------------------------------------------------

/// A defect in the block-local [`Val`] discipline, in walk order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValEvent {
    /// Block index.
    pub block: u32,
    /// Op index within the block; `None` for the terminator.
    pub op: Option<u32>,
    /// What went wrong.
    pub kind: ValEventKind,
}

/// The kinds of [`Val`]-discipline defects [`val_events`] reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValEventKind {
    /// The value is used with no prior definition in its block.
    UseBeforeDef(Val),
    /// The value is defined a second time in the same block.
    DefinedTwice(Val),
    /// The value is (first) defined in more than one block.
    CrossBlockDef(Val),
    /// The value's index is not below `Function::next_val`.
    AboveNextVal(Val),
}

/// Runs the block-local val-level reaching-definitions scan and reports
/// every discipline defect, in deterministic walk order: blocks in index
/// order; within a block, each op's *use* defects precede its *def*
/// defects, and terminator uses come last.
///
/// Because vals are block-local, "reaching definitions" for a val is
/// simply *defined earlier in this block*; this scan is the degenerate
/// single-block case of [`ReachingDefs`] and is what
/// [`crate::verify::verify_module`] renders as diagnostics. It is total:
/// arbitrary (unverified) IR never panics.
#[must_use]
pub fn val_events(f: &Function) -> Vec<ValEvent> {
    let mut events = Vec::new();
    let mut defined_anywhere: BTreeSet<Val> = BTreeSet::new();
    for (bi, block) in f.blocks.iter().enumerate() {
        let bu = bi as u32;
        let mut defined: BTreeSet<Val> = BTreeSet::new();
        for (oi, op) in block.ops.iter().enumerate() {
            let ou = Some(oi as u32);
            for used in op.uses() {
                if !defined.contains(&used) {
                    events.push(ValEvent {
                        block: bu,
                        op: ou,
                        kind: ValEventKind::UseBeforeDef(used),
                    });
                }
            }
            if let Some(dst) = op.def() {
                if !defined.insert(dst) {
                    events.push(ValEvent {
                        block: bu,
                        op: ou,
                        kind: ValEventKind::DefinedTwice(dst),
                    });
                } else if !defined_anywhere.insert(dst) {
                    events.push(ValEvent {
                        block: bu,
                        op: ou,
                        kind: ValEventKind::CrossBlockDef(dst),
                    });
                }
                if dst.0 >= f.next_val {
                    events.push(ValEvent {
                        block: bu,
                        op: ou,
                        kind: ValEventKind::AboveNextVal(dst),
                    });
                }
            }
        }
        for used in block.term.uses() {
            if !defined.contains(&used) {
                events.push(ValEvent {
                    block: bu,
                    op: None,
                    kind: ValEventKind::UseBeforeDef(used),
                });
            }
        }
    }
    events
}

// ---------------------------------------------------------------------------
// Liveness.
// ---------------------------------------------------------------------------

/// Backward may-liveness of slot cells.
///
/// A cell is *live* at a point when some path from that point reaches a
/// [`Op::LoadLocal`] of the cell with no intervening [`Op::StoreLocal`]
/// to it. Cells of address-taken slots are conservatively live
/// everywhere (pointer reads cannot be tracked).
#[derive(Debug, Clone)]
pub struct Liveness {
    /// The cell index space.
    pub cells: CellMap,
    escaped: BitSet,
    live_in: Vec<BitSet>,
    live_out: Vec<BitSet>,
}

impl Liveness {
    /// Computes liveness for `f`. Out-of-range successors and slot
    /// accesses (unverified IR) are ignored rather than panicking.
    #[must_use]
    pub fn of(f: &Function) -> Liveness {
        let cells = CellMap::of(f);
        let nc = cells.len();
        let n = f.blocks.len();
        let escaped = escaped_cells(f, &cells);

        let mut gen = vec![BitSet::new(nc); n];
        let mut kill = vec![BitSet::new(nc); n];
        for (bi, block) in f.blocks.iter().enumerate() {
            for op in &block.ops {
                match *op {
                    Op::LoadLocal { local, offset, .. } => {
                        if let Some(c) = cells.cell(local, offset) {
                            if !escaped.get(c) && !kill[bi].get(c) {
                                gen[bi].set(c);
                            }
                        }
                    }
                    Op::StoreLocal { local, offset, .. } => {
                        if let Some(c) = cells.cell(local, offset) {
                            if !escaped.get(c) && !gen[bi].get(c) {
                                kill[bi].set(c);
                            }
                        }
                    }
                    _ => {}
                }
            }
        }

        let mut live_in = vec![BitSet::new(nc); n];
        let mut live_out = vec![BitSet::new(nc); n];
        let mut changed = true;
        while changed {
            changed = false;
            for bi in (0..n).rev() {
                for s in block_successors(f, bi) {
                    let succ_in = live_in[s].clone();
                    changed |= live_out[bi].union_with(&succ_in);
                }
                let mut inn = live_out[bi].clone();
                inn.subtract(&kill[bi]);
                inn.union_with(&gen[bi]);
                changed |= live_in[bi].union_with(&inn);
            }
        }
        for bi in 0..n {
            live_in[bi].union_with(&escaped);
            live_out[bi].union_with(&escaped);
        }
        Liveness {
            cells,
            escaped,
            live_in,
            live_out,
        }
    }

    /// Whether `cell` may be read on some path from the entry of `block`.
    #[must_use]
    pub fn is_live_in(&self, block: usize, cell: usize) -> bool {
        self.live_in[block].get(cell)
    }

    /// Whether `cell` may be read on some path after `block`'s terminator.
    #[must_use]
    pub fn is_live_out(&self, block: usize, cell: usize) -> bool {
        self.live_out[block].get(cell)
    }

    /// Whether the cell belongs to an address-taken (escaped) slot.
    #[must_use]
    pub fn is_escaped(&self, cell: usize) -> bool {
        self.escaped.get(cell)
    }

    /// Every [`Op::StoreLocal`] whose stored cell is dead immediately
    /// after the store (no path reads it before the next overwrite), as
    /// `(block, op)` indices in walk order. Escaped slots never report.
    #[must_use]
    pub fn dead_stores(&self, f: &Function) -> Vec<(u32, u32)> {
        let mut dead = Vec::new();
        for (bi, block) in f.blocks.iter().enumerate() {
            let mut live = self.live_out[bi].clone();
            let mut dead_here = Vec::new();
            for (oi, op) in block.ops.iter().enumerate().rev() {
                match *op {
                    Op::LoadLocal { local, offset, .. } => {
                        if let Some(c) = self.cells.cell(local, offset) {
                            live.set(c);
                        }
                    }
                    Op::StoreLocal { local, offset, .. } => {
                        if let Some(c) = self.cells.cell(local, offset) {
                            if !self.escaped.get(c) {
                                if !live.get(c) {
                                    dead_here.push((bi as u32, oi as u32));
                                }
                                live.clear(c);
                            }
                        }
                    }
                    _ => {}
                }
            }
            dead_here.reverse();
            dead.extend(dead_here);
        }
        dead
    }
}

// ---------------------------------------------------------------------------
// Reaching definitions.
// ---------------------------------------------------------------------------

/// How a cell is considered defined at function entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryFlavor {
    /// The slot is a parameter: defined by the caller.
    Param,
    /// Uninitialized automatic storage: reading it is unspecified.
    Uninit,
    /// Address-taken slot: an untracked pointer writer may define it at
    /// any time, so its entry definition is never killed.
    Escaped,
}

/// One tracked [`Op::StoreLocal`] definition site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DefSite {
    /// Block index.
    pub block: u32,
    /// Op index within the block.
    pub op: u32,
    /// Stored slot.
    pub local: LocalId,
    /// Stored byte offset.
    pub offset: u32,
    /// Dense cell index ([`CellMap`]).
    pub cell: u32,
}

/// A [`Op::LoadLocal`] that an uninitialized entry definition may reach.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UninitRead {
    /// Block index.
    pub block: u32,
    /// Op index within the block.
    pub op: u32,
    /// Read slot.
    pub local: LocalId,
    /// Read byte offset.
    pub offset: u32,
}

/// Forward may-analysis: which definitions reach each block entry.
///
/// The definition id space is `0..tracked.len()` for [`DefSite`]s
/// followed by one synthetic entry definition per cell
/// ([`ReachingDefs::entry_def`]), flavored per [`EntryFlavor`].
#[derive(Debug, Clone)]
pub struct ReachingDefs {
    /// The cell index space.
    pub cells: CellMap,
    /// Tracked store sites, in walk order (block, then op).
    pub tracked: Vec<DefSite>,
    flavors: Vec<EntryFlavor>,
    defs_of_cell: Vec<Vec<u32>>,
    reach_in: Vec<BitSet>,
}

impl ReachingDefs {
    /// Computes reaching definitions for `f`. Robust against unverified
    /// IR (out-of-range accesses and successors are ignored).
    #[must_use]
    pub fn of(f: &Function) -> ReachingDefs {
        let cells = CellMap::of(f);
        let nc = cells.len();
        let n = f.blocks.len();
        let escaped = escaped_cells(f, &cells);

        let mut tracked = Vec::new();
        for (bi, block) in f.blocks.iter().enumerate() {
            for (oi, op) in block.ops.iter().enumerate() {
                if let Op::StoreLocal { local, offset, .. } = *op {
                    if let Some(c) = cells.cell(local, offset) {
                        tracked.push(DefSite {
                            block: bi as u32,
                            op: oi as u32,
                            local,
                            offset,
                            cell: c as u32,
                        });
                    }
                }
            }
        }
        let nd = tracked.len() + nc;
        let mut defs_of_cell: Vec<Vec<u32>> = vec![Vec::new(); nc];
        for (di, d) in tracked.iter().enumerate() {
            defs_of_cell[d.cell as usize].push(di as u32);
        }
        let mut flavors = Vec::with_capacity(nc);
        for c in 0..nc {
            let (local, _) = cells.owner(c);
            flavors.push(if local.0 < f.param_count {
                EntryFlavor::Param
            } else if escaped.get(c) {
                EntryFlavor::Escaped
            } else {
                EntryFlavor::Uninit
            });
        }

        // gen = last def per cell in the block; kill = every other def of
        // a cell the block defines (entry defs of escaped cells excepted).
        let mut gen = vec![BitSet::new(nd); n];
        let mut kill = vec![BitSet::new(nd); n];
        {
            let mut cursor = 0usize;
            for bi in 0..n {
                let start = cursor;
                while cursor < tracked.len() && tracked[cursor].block == bi as u32 {
                    cursor += 1;
                }
                let mut last_of_cell: Vec<Option<u32>> = vec![None; nc];
                for di in start..cursor {
                    last_of_cell[tracked[di].cell as usize] = Some(di as u32);
                }
                for (c, last) in last_of_cell.iter().enumerate() {
                    let Some(last) = *last else { continue };
                    gen[bi].set(last as usize);
                    for &di in &defs_of_cell[c] {
                        if di != last {
                            kill[bi].set(di as usize);
                        }
                    }
                    if flavors[c] != EntryFlavor::Escaped {
                        kill[bi].set(tracked.len() + c);
                    }
                }
            }
        }

        let mut entry_seed = BitSet::new(nd);
        for c in 0..nc {
            entry_seed.set(tracked.len() + c);
        }
        let mut reach_in = vec![BitSet::new(nd); n];
        let mut reach_out = vec![BitSet::new(nd); n];
        if n > 0 {
            reach_in[0].union_with(&entry_seed);
        }
        let mut changed = true;
        while changed {
            changed = false;
            for bi in 0..n {
                let mut out = reach_in[bi].clone();
                out.subtract(&kill[bi]);
                out.union_with(&gen[bi]);
                changed |= reach_out[bi].union_with(&out);
                for s in block_successors(f, bi) {
                    let o = reach_out[bi].clone();
                    changed |= reach_in[s].union_with(&o);
                }
            }
        }
        ReachingDefs {
            cells,
            tracked,
            flavors,
            defs_of_cell,
            reach_in,
        }
    }

    /// The synthetic entry-definition id of `cell`.
    #[must_use]
    pub fn entry_def(&self, cell: usize) -> usize {
        self.tracked.len() + cell
    }

    /// The entry flavor of `cell`.
    #[must_use]
    pub fn flavor(&self, cell: usize) -> EntryFlavor {
        self.flavors[cell]
    }

    /// Whether definition `def_id` may reach the entry of `block`.
    #[must_use]
    pub fn reaches_entry(&self, block: usize, def_id: usize) -> bool {
        self.reach_in[block].get(def_id)
    }

    /// Every load that the *uninitialized* entry definition of its cell
    /// may reach, in walk order: reading one yields an unspecified value
    /// (the C uninitialized-automatics rule this IR inherits).
    #[must_use]
    pub fn maybe_uninit_reads(&self, f: &Function) -> Vec<UninitRead> {
        let mut reads = Vec::new();
        for (bi, block) in f.blocks.iter().enumerate() {
            if bi >= self.reach_in.len() {
                break;
            }
            let mut state = self.reach_in[bi].clone();
            for (oi, op) in block.ops.iter().enumerate() {
                match *op {
                    Op::LoadLocal { local, offset, .. } => {
                        if let Some(c) = self.cells.cell(local, offset) {
                            if self.flavors[c] == EntryFlavor::Uninit
                                && state.get(self.entry_def(c))
                            {
                                reads.push(UninitRead {
                                    block: bi as u32,
                                    op: oi as u32,
                                    local,
                                    offset,
                                });
                            }
                        }
                    }
                    Op::StoreLocal { local, offset, .. } => {
                        if let Some(c) = self.cells.cell(local, offset) {
                            for &di in &self.defs_of_cell[c] {
                                state.clear(di as usize);
                            }
                            if self.flavors[c] != EntryFlavor::Escaped {
                                state.clear(self.entry_def(c));
                            }
                            // Re-assert this site's own definition.
                            if let Some(di) = self.defs_of_cell[c].iter().find(|&&di| {
                                self.tracked[di as usize].block == bi as u32
                                    && self.tracked[di as usize].op == oi as u32
                            }) {
                                state.set(*di as usize);
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        reads
    }
}

// ---------------------------------------------------------------------------
// Constant / value-range propagation.
// ---------------------------------------------------------------------------

/// The value lattice: `Bottom ⊑ Const ⊑ Range ⊑ Top`.
///
/// Ranges are unsigned and inclusive. Addresses ([`Op::AddrLocal`],
/// [`Op::AddrGlobal`]) are always [`Lattice::Top`]: their values are
/// exactly the layout-dependent quantity this laboratory studies, and
/// folding them would bake one layout into the analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lattice {
    /// No value reaches this point (unreachable / uninitialized tracking).
    Bottom,
    /// Exactly one value.
    Const(u64),
    /// Any value in `lo..=hi`.
    Range {
        /// Inclusive lower bound.
        lo: u64,
        /// Inclusive upper bound.
        hi: u64,
    },
    /// Unknown.
    Top,
}

impl Lattice {
    /// Least upper bound.
    #[must_use]
    pub fn join(self, other: Lattice) -> Lattice {
        use Lattice::{Bottom, Const, Range, Top};
        match (self, other) {
            (Bottom, x) | (x, Bottom) => x,
            (Top, _) | (_, Top) => Top,
            (Const(a), Const(b)) if a == b => Const(a),
            (Const(a), Const(b)) => Range {
                lo: a.min(b),
                hi: a.max(b),
            },
            (Const(a), Range { lo, hi }) | (Range { lo, hi }, Const(a)) => Range {
                lo: lo.min(a),
                hi: hi.max(a),
            },
            (Range { lo: a, hi: b }, Range { lo: c, hi: d }) => Range {
                lo: a.min(c),
                hi: b.max(d),
            },
        }
    }

    /// Whether the concrete value `v` is admitted by this lattice value.
    #[must_use]
    pub fn contains(self, v: u64) -> bool {
        match self {
            Lattice::Bottom => false,
            Lattice::Const(c) => c == v,
            Lattice::Range { lo, hi } => lo <= v && v <= hi,
            Lattice::Top => true,
        }
    }

    /// The single constant, if this is [`Lattice::Const`].
    #[must_use]
    pub fn as_const(self) -> Option<u64> {
        match self {
            Lattice::Const(c) => Some(c),
            _ => None,
        }
    }
}

/// How many times a block's in-state may grow before widening to Top.
const WIDEN_LIMIT: u8 = 3;

/// Forward constant / value-range propagation over slot cells.
#[derive(Debug, Clone)]
pub struct ValueRanges {
    /// The cell index space.
    pub cells: CellMap,
    in_states: Vec<Vec<Lattice>>,
}

impl ValueRanges {
    /// Computes per-block-entry cell lattices for `f`.
    #[must_use]
    pub fn of(f: &Function) -> ValueRanges {
        let cells = CellMap::of(f);
        let nc = cells.len();
        let n = f.blocks.len();
        let escaped = escaped_cells(f, &cells);

        // Entry: every cell starts Top — parameters hold caller-chosen
        // values, uninitialized reads are unspecified, escaped cells have
        // untracked writers. Precision comes from stores, not entry.
        let mut in_states: Vec<Vec<Lattice>> = vec![vec![Lattice::Bottom; nc]; n];
        if n > 0 {
            in_states[0] = vec![Lattice::Top; nc];
        }
        let mut widen: Vec<Vec<u8>> = vec![vec![0; nc]; n];

        let mut changed = true;
        while changed {
            changed = false;
            for bi in 0..n {
                let out = transfer_cells(f, bi, &in_states[bi], &cells, &escaped);
                for s in block_successors(f, bi) {
                    for c in 0..nc {
                        let old = in_states[s][c];
                        let mut next = old.join(out[c]);
                        if next != old {
                            widen[s][c] = widen[s][c].saturating_add(1);
                            if widen[s][c] > WIDEN_LIMIT {
                                next = Lattice::Top;
                            }
                            if next != old {
                                in_states[s][c] = next;
                                changed = true;
                            }
                        }
                    }
                }
            }
        }
        ValueRanges { cells, in_states }
    }

    /// The lattice value of `(local, offset)` at the entry of `block`.
    #[must_use]
    pub fn cell_in(&self, block: usize, local: LocalId, offset: u32) -> Lattice {
        match self.cells.cell(local, offset) {
            Some(c) => self.in_states[block][c],
            None => Lattice::Top,
        }
    }

    /// Re-runs the block transfer and returns the lattice of every
    /// block-local [`Val`] (indexed by val number; undefined vals are
    /// [`Lattice::Bottom`]).
    #[must_use]
    pub fn vals_in_block(&self, f: &Function, block: usize) -> Vec<Lattice> {
        let escaped = escaped_cells(f, &self.cells);
        let mut vals = vec![Lattice::Bottom; f.next_val as usize];
        let mut state = self.in_states[block].clone();
        for op in &f.blocks[block].ops {
            step_op(f, op, &mut state, &mut vals, &self.cells, &escaped);
        }
        vals
    }
}

fn transfer_cells(
    f: &Function,
    block: usize,
    inn: &[Lattice],
    cells: &CellMap,
    escaped: &BitSet,
) -> Vec<Lattice> {
    let mut vals = vec![Lattice::Bottom; f.next_val as usize];
    let mut state = inn.to_vec();
    for op in &f.blocks[block].ops {
        step_op(f, op, &mut state, &mut vals, cells, escaped);
    }
    state
}

fn val_of(vals: &[Lattice], v: Val) -> Lattice {
    vals.get(v.0 as usize).copied().unwrap_or(Lattice::Top)
}

fn set_val(vals: &mut [Lattice], v: Val, l: Lattice) {
    if let Some(slot) = vals.get_mut(v.0 as usize) {
        *slot = l;
    }
}

/// Clobbers every escaped cell (an untracked writer may have run).
fn clobber_escaped(state: &mut [Lattice], escaped: &BitSet) {
    for c in escaped.iter() {
        state[c] = Lattice::Top;
    }
}

fn step_op(
    f: &Function,
    op: &Op,
    state: &mut [Lattice],
    vals: &mut [Lattice],
    cells: &CellMap,
    escaped: &BitSet,
) {
    match *op {
        Op::Const { dst, value } => set_val(vals, dst, Lattice::Const(value)),
        Op::Bin { op, dst, a, b } => {
            let l = eval_bin(op, val_of(vals, a), val_of(vals, b));
            set_val(vals, dst, l);
        }
        Op::BinImm { op, dst, a, imm } => {
            let l = eval_bin(op, val_of(vals, a), Lattice::Const(imm as u64));
            set_val(vals, dst, l);
        }
        Op::LoadLocal { dst, local, offset } => {
            let l = match cells.cell(local, offset) {
                Some(c) if !escaped.get(c) => {
                    // An uninitialized read is unspecified: Bottom at a
                    // reachable load means "never stored", which reads as
                    // an arbitrary value.
                    match state[c] {
                        Lattice::Bottom => Lattice::Top,
                        other => other,
                    }
                }
                _ => Lattice::Top,
            };
            set_val(vals, dst, l);
        }
        Op::StoreLocal { local, offset, src } => {
            if let Some(c) = cells.cell(local, offset) {
                if !escaped.get(c) {
                    state[c] = val_of(vals, src);
                }
            }
        }
        Op::AddrLocal { dst, .. } | Op::AddrGlobal { dst, .. } => {
            set_val(vals, dst, Lattice::Top);
        }
        Op::Load { dst, .. } => set_val(vals, dst, Lattice::Top),
        Op::Store { .. } => clobber_escaped(state, escaped),
        Op::Call { dst, .. } => {
            clobber_escaped(state, escaped);
            if let Some(dst) = dst {
                set_val(vals, dst, Lattice::Top);
            }
        }
        Op::Chk { .. } => {}
    }
    let _ = f;
}

/// Interval evaluation of one ALU op. Constants fold exactly through
/// [`biaslab_isa::AluOp::eval`]; `Add`/`Sub`/`Mul` propagate ranges when
/// the bounds provably do not wrap; everything else widens to Top.
fn eval_bin(op: biaslab_isa::AluOp, a: Lattice, b: Lattice) -> Lattice {
    use biaslab_isa::AluOp;
    use Lattice::{Bottom, Const, Range, Top};
    if a == Bottom || b == Bottom {
        // An operand that is never defined reads as arbitrary.
        return Top;
    }
    if let (Const(x), Const(y)) = (a, b) {
        return Const(op.eval(x, y));
    }
    let bounds = |l: Lattice| -> Option<(u64, u64)> {
        match l {
            Const(c) => Some((c, c)),
            Range { lo, hi } => Some((lo, hi)),
            _ => None,
        }
    };
    let (Some((alo, ahi)), Some((blo, bhi))) = (bounds(a), bounds(b)) else {
        return Top;
    };
    match op {
        AluOp::Add => match (alo.checked_add(blo), ahi.checked_add(bhi)) {
            (Some(lo), Some(hi)) => Range { lo, hi },
            _ => Top,
        },
        AluOp::Sub => match (alo.checked_sub(bhi), ahi.checked_sub(blo)) {
            (Some(lo), Some(hi)) => Range { lo, hi },
            _ => Top,
        },
        AluOp::Mul => match (alo.checked_mul(blo), ahi.checked_mul(bhi)) {
            (Some(lo), Some(hi)) => Range { lo, hi },
            _ => Top,
        },
        _ => Top,
    }
}

#[cfg(test)]
mod tests {
    use biaslab_isa::AluOp;

    use super::*;
    use crate::ir::{Block, BlockId, LocalSlot, Terminator};

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

    fn store_const(local: u32, offset: u32, dst: u32, value: u64) -> Vec<Op> {
        vec![
            Op::Const {
                dst: Val(dst),
                value,
            },
            Op::StoreLocal {
                local: LocalId(local),
                offset,
                src: Val(dst),
            },
        ]
    }

    #[test]
    fn cell_map_spans_buffers() {
        let f = func(
            vec![Block {
                ops: vec![],
                term: Terminator::Ret { value: None },
            }],
            vec![LocalSlot::scalar(), LocalSlot::buffer(24)],
            0,
        );
        let cells = CellMap::of(&f);
        assert_eq!(cells.len(), 4);
        assert_eq!(cells.cell(LocalId(0), 0), Some(0));
        assert_eq!(cells.cell(LocalId(1), 0), Some(1));
        assert_eq!(cells.cell(LocalId(1), 16), Some(3));
        assert_eq!(cells.cell(LocalId(1), 24), None);
        assert_eq!(cells.owner(3), (LocalId(1), 16));
    }

    #[test]
    fn val_events_cover_every_defect_in_walk_order() {
        let mut ops = vec![Op::Chk { src: Val(9) }];
        ops.extend(store_const(0, 0, 0, 1));
        ops.push(Op::Const {
            dst: Val(0),
            value: 2,
        });
        ops.push(Op::Const {
            dst: Val(99),
            value: 3,
        });
        let f = func(
            vec![
                Block {
                    ops,
                    term: Terminator::Jump(BlockId(1)),
                },
                Block {
                    ops: vec![Op::Const {
                        dst: Val(0),
                        value: 4,
                    }],
                    term: Terminator::Ret { value: None },
                },
            ],
            vec![LocalSlot::scalar()],
            5,
        );
        let ev = val_events(&f);
        assert_eq!(
            ev,
            vec![
                ValEvent {
                    block: 0,
                    op: Some(0),
                    kind: ValEventKind::UseBeforeDef(Val(9)),
                },
                ValEvent {
                    block: 0,
                    op: Some(3),
                    kind: ValEventKind::DefinedTwice(Val(0)),
                },
                ValEvent {
                    block: 0,
                    op: Some(4),
                    kind: ValEventKind::AboveNextVal(Val(99)),
                },
                ValEvent {
                    block: 1,
                    op: Some(0),
                    kind: ValEventKind::CrossBlockDef(Val(0)),
                },
            ]
        );
    }

    #[test]
    fn liveness_flows_across_blocks() {
        // b0: store l0 ; jump b1.  b1: load l0 ; ret.
        let mut ops0 = store_const(0, 0, 0, 7);
        ops0.extend(store_const(1, 0, 1, 8));
        let f = func(
            vec![
                Block {
                    ops: ops0,
                    term: Terminator::Jump(BlockId(1)),
                },
                Block {
                    ops: vec![Op::LoadLocal {
                        dst: Val(2),
                        local: LocalId(0),
                        offset: 0,
                    }],
                    term: Terminator::Ret { value: None },
                },
            ],
            vec![LocalSlot::scalar(), LocalSlot::scalar()],
            3,
        );
        let live = Liveness::of(&f);
        let c0 = live.cells.cell(LocalId(0), 0).unwrap();
        let c1 = live.cells.cell(LocalId(1), 0).unwrap();
        assert!(live.is_live_out(0, c0));
        assert!(live.is_live_in(1, c0));
        assert!(!live.is_live_out(0, c1), "l1 is never read again");
        assert!(!live.is_live_out(1, c0));
        // The store to l1 is dead; the store to l0 is not.
        assert_eq!(live.dead_stores(&f), vec![(0, 3)]);
    }

    #[test]
    fn escaped_slots_are_live_everywhere_and_never_dead_stores() {
        let mut ops = store_const(0, 0, 0, 7);
        ops.push(Op::AddrLocal {
            dst: Val(1),
            local: LocalId(0),
        });
        let f = func(
            vec![Block {
                ops,
                term: Terminator::Ret { value: None },
            }],
            vec![LocalSlot::scalar()],
            2,
        );
        let live = Liveness::of(&f);
        let c = live.cells.cell(LocalId(0), 0).unwrap();
        assert!(live.is_escaped(c));
        assert!(live.is_live_in(0, c) && live.is_live_out(0, c));
        assert!(live.dead_stores(&f).is_empty());
    }

    #[test]
    fn reaching_defs_track_stores_and_uninit_entries() {
        // b0: store l0=1 ; branch-ish jump to b1.
        // b1: load l0 (reached only by the store), load l1 (uninit).
        let f = func(
            vec![
                Block {
                    ops: store_const(0, 0, 0, 1),
                    term: Terminator::Jump(BlockId(1)),
                },
                Block {
                    ops: vec![
                        Op::LoadLocal {
                            dst: Val(1),
                            local: LocalId(0),
                            offset: 0,
                        },
                        Op::LoadLocal {
                            dst: Val(2),
                            local: LocalId(1),
                            offset: 0,
                        },
                    ],
                    term: Terminator::Ret { value: None },
                },
            ],
            vec![LocalSlot::scalar(), LocalSlot::scalar()],
            3,
        );
        let rd = ReachingDefs::of(&f);
        assert_eq!(rd.tracked.len(), 1);
        let c0 = rd.cells.cell(LocalId(0), 0).unwrap();
        let c1 = rd.cells.cell(LocalId(1), 0).unwrap();
        assert!(rd.reaches_entry(1, 0), "the store reaches b1");
        assert!(
            !rd.reaches_entry(1, rd.entry_def(c0)),
            "the store kills l0's entry def"
        );
        assert!(rd.reaches_entry(1, rd.entry_def(c1)));
        assert_eq!(rd.flavor(c1), EntryFlavor::Uninit);
        let reads = rd.maybe_uninit_reads(&f);
        assert_eq!(reads.len(), 1);
        assert_eq!(reads[0].local, LocalId(1));
    }

    #[test]
    fn params_are_defined_at_entry() {
        let mut f = func(
            vec![Block {
                ops: vec![Op::LoadLocal {
                    dst: Val(0),
                    local: LocalId(0),
                    offset: 0,
                }],
                term: Terminator::Ret { value: None },
            }],
            vec![LocalSlot::scalar()],
            1,
        );
        f.param_count = 1;
        let rd = ReachingDefs::of(&f);
        assert!(rd.maybe_uninit_reads(&f).is_empty());
    }

    #[test]
    fn value_ranges_fold_constants_and_join_to_ranges() {
        // b0: store l0=4 ; branch to b1 or b2.
        // b1: store l0=10 ; jump b3.  b2: jump b3.
        // b3: load l0 -> {4,10} = Range(4,10); +1 -> Range(5,11).
        let mut ops0 = store_const(0, 0, 0, 4);
        ops0.push(Op::Const {
            dst: Val(1),
            value: 0,
        });
        let f = func(
            vec![
                Block {
                    ops: ops0,
                    term: Terminator::Branch {
                        cond: biaslab_isa::Cond::Eq,
                        a: Val(1),
                        b: Val(1),
                        then_block: BlockId(1),
                        else_block: BlockId(2),
                    },
                },
                Block {
                    ops: store_const(0, 0, 2, 10),
                    term: Terminator::Jump(BlockId(3)),
                },
                Block {
                    ops: vec![],
                    term: Terminator::Jump(BlockId(3)),
                },
                Block {
                    ops: vec![
                        Op::LoadLocal {
                            dst: Val(3),
                            local: LocalId(0),
                            offset: 0,
                        },
                        Op::BinImm {
                            op: AluOp::Add,
                            dst: Val(4),
                            a: Val(3),
                            imm: 1,
                        },
                    ],
                    term: Terminator::Ret { value: None },
                },
            ],
            vec![LocalSlot::scalar()],
            5,
        );
        let vr = ValueRanges::of(&f);
        assert_eq!(vr.cell_in(1, LocalId(0), 0), Lattice::Const(4));
        assert_eq!(
            vr.cell_in(3, LocalId(0), 0),
            Lattice::Range { lo: 4, hi: 10 }
        );
        let vals = vr.vals_in_block(&f, 3);
        assert_eq!(vals[3], Lattice::Range { lo: 4, hi: 10 });
        assert_eq!(vals[4], Lattice::Range { lo: 5, hi: 11 });
    }

    #[test]
    fn value_ranges_widen_loops_to_top() {
        // b0: store l0=0 ; jump b1.
        // b1: load l0 ; +1 ; store l0 ; jump b1 (no exit: pure widening).
        let f = func(
            vec![
                Block {
                    ops: store_const(0, 0, 0, 0),
                    term: Terminator::Jump(BlockId(1)),
                },
                Block {
                    ops: vec![
                        Op::LoadLocal {
                            dst: Val(1),
                            local: LocalId(0),
                            offset: 0,
                        },
                        Op::BinImm {
                            op: AluOp::Add,
                            dst: Val(2),
                            a: Val(1),
                            imm: 1,
                        },
                        Op::StoreLocal {
                            local: LocalId(0),
                            offset: 0,
                            src: Val(2),
                        },
                    ],
                    term: Terminator::Jump(BlockId(1)),
                },
            ],
            vec![LocalSlot::scalar()],
            3,
        );
        let vr = ValueRanges::of(&f);
        assert_eq!(vr.cell_in(1, LocalId(0), 0), Lattice::Top);
    }

    #[test]
    fn addresses_never_fold() {
        let f = func(
            vec![
                Block {
                    ops: vec![
                        Op::AddrLocal {
                            dst: Val(0),
                            local: LocalId(0),
                        },
                        Op::StoreLocal {
                            local: LocalId(1),
                            offset: 0,
                            src: Val(0),
                        },
                    ],
                    term: Terminator::Jump(BlockId(1)),
                },
                Block {
                    ops: vec![],
                    term: Terminator::Ret { value: None },
                },
            ],
            vec![LocalSlot::scalar(), LocalSlot::scalar()],
            1,
        );
        let vr = ValueRanges::of(&f);
        assert_eq!(vr.cell_in(1, LocalId(1), 0), Lattice::Top);
    }
}
