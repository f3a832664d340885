//! The data memory hierarchy component: L1D, D-TLB, banks and split
//! penalties.
//!
//! Everything address-indexed on the data side lives here, which is why
//! the environment size (which moves the stack) transmits bias through
//! this component: L1D and D-TLB set mappings, bank selection bits, and
//! line/page straddles. The core drives it through [`MemSystem::access`];
//! it is purely demand-driven and owns no time of its own.

use biaslab_toolchain::layout::PAGE_SIZE;

use crate::cache::{Cache, CacheConfig};
use crate::counters::Counters;
use crate::ports::L2Port;
use crate::tlb::TlbConfig;

/// The data-side timing component.
#[derive(Debug, Clone)]
pub struct MemSystem {
    dtlb: Cache,
    l1d: Cache,
    /// Bank-conflict model state for the last two data accesses (youngest
    /// first): `last_key` packs `(bank << 32) | line` so "same bank,
    /// different line" is two tests on one xor (`x >> 32 == 0 && x != 0`),
    /// and `last_idx` holds the retired-instruction index. `u64::MAX` is
    /// the "empty" key: its bank field `0xFFFF_FFFF` exceeds any real bank
    /// (`< banks ≤ 2^31`), so it can never compare equal. Deliberately
    /// *not* reset per run: like cache contents, it is machine state that
    /// persists across warm repetitions and clears on [`MemSystem::flush`].
    last_key: [u64; 2],
    last_idx: [u64; 2],
    dtlb_penalty: u64,
    /// Load-use latency charged on an L1D load hit.
    load_use: u64,
    line: u32,
    /// `log2(line)`: validated power-of-two, so the line/bank arithmetic
    /// on the access path shifts instead of dividing.
    line_shift: u32,
    banks: u32,
    bank_window: u64,
    bank_conflict_penalty: u64,
    next_line_prefetch: bool,
}

/// The slice of [`crate::MachineConfig`] the data side consumes.
#[derive(Debug, Clone, Copy)]
pub struct MemParams {
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Data TLB geometry.
    pub dtlb: TlbConfig,
    /// Bank count (power of two; 8-byte interleave) or ≤ 1 to disable.
    pub banks: u32,
    /// Retired-instruction window within which two accesses share an
    /// issue group for the bank model.
    pub bank_window: u32,
    /// Stall charged per bank conflict.
    pub bank_conflict_penalty: u32,
    /// Next-line prefetch on L1D demand misses.
    pub next_line_prefetch: bool,
}

impl MemSystem {
    /// Builds the memory hierarchy from validated geometry.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry; [`crate::Machine::try_new`]
    /// validates the whole configuration first.
    #[must_use]
    pub fn new(p: MemParams) -> MemSystem {
        MemSystem {
            dtlb_penalty: u64::from(p.dtlb.miss_penalty),
            load_use: u64::from(p.l1d.hit_latency.saturating_sub(1)),
            line: p.l1d.line,
            line_shift: p.l1d.line.trailing_zeros(),
            banks: p.banks,
            bank_window: u64::from(p.bank_window),
            bank_conflict_penalty: u64::from(p.bank_conflict_penalty),
            next_line_prefetch: p.next_line_prefetch,
            dtlb: Cache::new(p.dtlb.cache()),
            l1d: Cache::new(p.l1d),
            last_key: [u64::MAX; 2],
            last_idx: [0; 2],
        }
    }

    /// Port: charge the timing cost of a data access (possibly split
    /// across cache lines and pages).
    ///
    /// `inst_index` is the retiring instruction's ordinal, used by the
    /// bank model: two accesses within `bank_window` instructions of each
    /// other issue in the same group on these wide cores, and conflict
    /// when they touch the same L1D bank in different lines — the
    /// structural hazard whose dependence on *address bits 3..6* gives
    /// memory layout its fine-grained performance texture.
    #[inline]
    pub fn access(
        &mut self,
        c: &mut Counters,
        addr: u32,
        size: u32,
        is_store: bool,
        inst_index: u64,
        l2: &mut L2Port<'_>,
    ) {
        if !self.access_fast(c, addr, size, is_store, inst_index) {
            self.access_lines(c, addr, size, is_store, l2);
        }
    }

    /// The port minus the L2: bank model plus the fused single-line fast
    /// path, which never refills and so never needs an [`L2Port`].
    /// Returns `true` if the access was fully accounted; on `false` the
    /// caller must finish it with [`MemSystem::access_lines`], which is
    /// when an L2 borrow is actually required. Splitting the port this
    /// way keeps port construction off the executors' hot path.
    #[inline(always)]
    #[must_use = "a false return means the access is not yet charged"]
    pub fn access_fast(
        &mut self,
        c: &mut Counters,
        addr: u32,
        size: u32,
        is_store: bool,
        inst_index: u64,
    ) -> bool {
        if self.banks > 1 {
            let bank = (addr / 8) & (self.banks - 1);
            let line_no = addr >> self.line_shift;
            let key = (u64::from(bank) << 32) | u64::from(line_no);
            // Evaluate both hazards unconditionally (a handful of ALU ops;
            // the empty sentinel can never match a real bank) and branch
            // once. At most one conflict is charged per access, as before.
            let x0 = self.last_key[0] ^ key;
            let x1 = self.last_key[1] ^ key;
            let h0 = x0 != 0
                && x0 >> 32 == 0
                && inst_index.saturating_sub(self.last_idx[0]) <= self.bank_window;
            let h1 = x1 != 0
                && x1 >> 32 == 0
                && inst_index.saturating_sub(self.last_idx[1]) <= self.bank_window;
            if h0 | h1 {
                c.bank_conflicts += 1;
                c.cycles += self.bank_conflict_penalty;
                c.stall_memory += self.bank_conflict_penalty;
            }
            self.last_key = [key, self.last_key[0]];
            self.last_idx = [inst_index, self.last_idx[0]];
        }
        let shift = self.line_shift;
        // An access may wrap past 0xFFFF_FFFF to address 0.
        let end = addr.wrapping_add(size - 1);
        if end >> shift == addr >> shift
            && end / PAGE_SIZE == addr / PAGE_SIZE
            && self.dtlb.mru_hit(addr)
            && self.l1d.mru_hit(addr)
        {
            // Fused fast path: the access stays in one line and one page
            // (no split counters move) and both the D-TLB and L1D would
            // hit their set's MRU entry without changing state. Only the
            // counters an in-line hit moves are touched.
            c.l1d_accesses += 1;
            if !is_store {
                c.cycles += self.load_use;
                c.stall_memory += self.load_use;
            }
            return true;
        }
        false
    }

    /// The general multi-line walk behind the fused fast path. An access
    /// that wraps past `0xFFFF_FFFF` touches the top line, then line 0, and
    /// counts one line split and one page split.
    pub fn access_lines(
        &mut self,
        c: &mut Counters,
        addr: u32,
        size: u32,
        is_store: bool,
        l2: &mut L2Port<'_>,
    ) {
        let shift = self.line_shift;
        let end = addr.wrapping_add(size - 1);
        if end >> shift != addr >> shift {
            c.line_splits += 1;
        }
        if end / PAGE_SIZE != addr / PAGE_SIZE {
            c.page_splits += 1;
        }
        let mut a = addr;
        loop {
            self.one_line(c, a, is_store, l2);
            if a >> shift == end >> shift {
                break;
            }
            // The next line's first byte; past the top line this wraps to 0.
            a = ((a >> shift) + 1) << shift;
        }
    }

    #[inline]
    fn one_line(&mut self, c: &mut Counters, addr: u32, is_store: bool, l2: &mut L2Port<'_>) {
        c.l1d_accesses += 1;
        if !self.dtlb.access(addr) {
            c.dtlb_misses += 1;
            c.cycles += self.dtlb_penalty;
            c.stall_memory += self.dtlb_penalty;
        }
        if self.l1d.access(addr) {
            // Loads pay the load-use latency; stores retire via the buffer.
            if !is_store {
                c.cycles += self.load_use;
                c.stall_memory += self.load_use;
            }
        } else {
            c.l1d_misses += 1;
            let stall = l2.refill(addr, c);
            c.cycles += stall;
            c.stall_memory += stall;
            if self.next_line_prefetch {
                // Fill the next line too (and train L2); the prefetch is
                // off the critical path, so no demand latency is charged.
                let next = (addr.wrapping_add(self.line) >> self.line_shift) << self.line_shift;
                let _ = self.l1d.access(next);
                l2.touch(next);
            }
        }
    }

    /// Returns all data-side state to cold.
    pub fn flush(&mut self) {
        self.dtlb.flush();
        self.l1d.flush();
        self.last_key = [u64::MAX; 2];
        self.last_idx = [0; 2];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> (MemSystem, Cache) {
        let m = MemSystem::new(MemParams {
            l1d: CacheConfig {
                size: 1024,
                ways: 2,
                line: 64,
                hit_latency: 3,
            },
            dtlb: TlbConfig {
                entries: 8,
                ways: 2,
                miss_penalty: 30,
            },
            banks: 4,
            bank_window: 8,
            bank_conflict_penalty: 2,
            next_line_prefetch: false,
        });
        let l2 = Cache::new(CacheConfig {
            size: 4096,
            ways: 4,
            line: 64,
            hit_latency: 10,
        });
        (m, l2)
    }

    #[test]
    fn straddling_a_line_counts_a_split_and_two_accesses() {
        let (mut m, mut l2) = mem();
        let mut c = Counters::default();
        let mut port = L2Port::new(&mut l2, 5, 50);
        m.access(&mut c, 60, 8, false, 1, &mut port);
        assert_eq!(c.line_splits, 1);
        assert_eq!(c.l1d_accesses, 2, "one per touched line");
        assert_eq!(c.l1d_misses, 2);
    }

    #[test]
    fn accesses_at_the_top_of_the_address_space_end() {
        let (mut m, mut l2) = mem();
        let mut c = Counters::default();
        let mut port = L2Port::new(&mut l2, 5, 50);
        // Inside the top line: one line, no split.
        m.access(&mut c, 0xFFFF_FFF0, 8, false, 1, &mut port);
        assert_eq!((c.l1d_accesses, c.line_splits, c.page_splits), (1, 0, 0));
        // Wrapping to address 0: the top line and line 0.
        m.access(&mut c, 0xFFFF_FFFC, 8, true, 2, &mut port);
        assert_eq!((c.l1d_accesses, c.line_splits, c.page_splits), (3, 1, 1));
    }

    #[test]
    fn same_bank_different_line_conflicts_within_the_window() {
        let (mut m, mut l2) = mem();
        let mut c = Counters::default();
        let mut port = L2Port::new(&mut l2, 5, 50);
        // Bank of addr = (addr/8) & 3: 0 and 256 share bank 0, lines 0 and 4.
        m.access(&mut c, 0, 4, false, 1, &mut port);
        m.access(&mut c, 256, 4, false, 2, &mut port);
        assert_eq!(c.bank_conflicts, 1);
        // Far apart in retirement order: no conflict.
        m.access(&mut c, 0, 4, false, 100, &mut port);
        assert_eq!(c.bank_conflicts, 1);
    }
}
