//! The front-end component: fetch windows, I-cache, I-TLB and branch
//! prediction.
//!
//! Everything address-indexed on the instruction side lives here, which is
//! why link order (which moves code) transmits bias through this component:
//! fetch-window alignment, I-cache and I-TLB set mappings, gshare/BTB
//! indices. The core drives it through the port methods below; it is
//! purely demand-driven and owns no time of its own.

use biaslab_toolchain::layout::PAGE_SIZE;

use crate::branch::{BranchConfig, BranchPredictor};
use crate::cache::{Cache, CacheConfig};
use crate::counters::Counters;
use crate::ports::L2Port;
use crate::tlb::TlbConfig;

/// The instruction-side timing component.
#[derive(Debug, Clone)]
pub struct FrontEnd {
    itlb: Cache,
    l1i: Cache,
    bp: BranchPredictor,
    /// The fetch window the previous instruction came from; crossing into
    /// a new window is what costs a fetch. Reset per run.
    last_window: u32,
    /// `log2(l1i line)`, for the repeat-line filter below.
    line_shift: u32,
    /// The I-cache line of the last charged fetch (`u64::MAX` = none). A
    /// window crossing that stays inside this line skips the I-cache
    /// lookup entirely: the line is resident (it just hit or filled, and
    /// nothing else touches the L1I), so the lookup would hit, and
    /// skipping a repeat hit is LRU-equivalent — the skipped stamp was
    /// already the newest in its set and only the relative order of
    /// stamps is ever compared. Counters are unchanged: a repeat hit
    /// charges nothing.
    last_line: u64,
    /// The page of the last charged fetch (`u64::MAX` = none); the same
    /// elision argument applied to the I-TLB.
    last_page: u64,
    itlb_penalty: u64,
    mispredict_penalty: u64,
    btb_miss_penalty: u64,
}

impl FrontEnd {
    /// Builds the front end from validated geometry.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry; [`crate::Machine::try_new`]
    /// validates the whole configuration first.
    #[must_use]
    pub fn new(l1i: CacheConfig, itlb: TlbConfig, branch: BranchConfig) -> FrontEnd {
        FrontEnd {
            itlb_penalty: u64::from(itlb.miss_penalty),
            mispredict_penalty: u64::from(branch.mispredict_penalty),
            btb_miss_penalty: u64::from(branch.btb_miss_penalty),
            itlb: Cache::new(itlb.cache()),
            line_shift: l1i.line.trailing_zeros(),
            l1i: Cache::new(l1i),
            bp: BranchPredictor::new(branch),
            last_window: u32::MAX,
            last_line: u64::MAX,
            last_page: u64::MAX,
        }
    }

    /// Starts a fresh run: the first instruction always opens a new fetch
    /// window. Predictor and cache state deliberately persist (warm
    /// repetitions reuse them; [`FrontEnd::flush`] returns to cold).
    #[inline]
    pub fn begin_run(&mut self) {
        self.last_window = u32::MAX;
    }

    /// Port: fetch the instruction at `pc` in fetch window `window`,
    /// charging I-TLB and I-cache/L2 stalls when execution crosses into a
    /// new window.
    ///
    /// `inline(always)` keeps the two filters — same window, and same
    /// line + page as the last charged fetch — at the call site; the
    /// lookups behind them stay outlined in [`FrontEnd::fetch_cold`].
    #[inline(always)]
    pub fn fetch(&mut self, pc: u32, window: u32, l2: &mut L2Port<'_>, c: &mut Counters) {
        if window == self.last_window {
            return;
        }
        self.last_window = window;
        c.fetches += 1;
        let page = u64::from(pc / PAGE_SIZE);
        let line = u64::from(pc >> self.line_shift);
        if page == self.last_page && line == self.last_line {
            return;
        }
        self.fetch_cold(pc, page, line, l2, c);
    }

    /// Port: replay a block's crossing into a new line or page at `pc`,
    /// one that decode found must fire and has already counted in
    /// `Counters::fetches` (see [`crate::block::DecodedBlock::lines`]).
    /// The window is written back once per block with
    /// [`FrontEnd::set_window`].
    #[inline]
    pub fn fetch_line(&mut self, pc: u32, l2: &mut L2Port<'_>, c: &mut Counters) {
        self.fetch_cold(
            pc,
            u64::from(pc / PAGE_SIZE),
            u64::from(pc >> self.line_shift),
            l2,
            c,
        );
    }

    /// Port: the fetch window execution left a block in, whose crossings
    /// after the entry were replayed without touching it.
    #[inline]
    pub fn set_window(&mut self, window: u32) {
        self.last_window = window;
    }

    /// The I-TLB/I-cache lookups behind the repeat-line/page filters.
    fn fetch_cold(&mut self, pc: u32, page: u64, line: u64, l2: &mut L2Port<'_>, c: &mut Counters) {
        if page != self.last_page {
            self.last_page = page;
            if !self.itlb.access(pc) {
                c.itlb_misses += 1;
                c.cycles += self.itlb_penalty;
                c.stall_frontend += self.itlb_penalty;
            }
        }
        if line != self.last_line {
            self.last_line = line;
            if !self.l1i.access(pc) {
                c.l1i_misses += 1;
                let stall = l2.refill(pc, c);
                c.cycles += stall;
                c.stall_frontend += stall;
            }
        }
    }

    /// Port: resolve a conditional branch's direction — predict, train,
    /// and charge the mispredict penalty when the prediction was wrong.
    #[inline]
    pub fn branch_direction(&mut self, pc: u32, taken: bool, c: &mut Counters) {
        let predicted = self.bp.predict(pc).taken;
        self.bp.update(pc, taken);
        if predicted != taken {
            c.mispredicts += 1;
            c.cycles += self.mispredict_penalty;
            c.stall_branch += self.mispredict_penalty;
        }
    }

    /// Port: steer a taken control transfer through the BTB, charging the
    /// front-end bubble on a target miss.
    #[inline]
    pub fn taken_transfer(&mut self, pc: u32, target: u32, c: &mut Counters) {
        if !self.bp.btb_lookup(pc, target) {
            c.btb_misses += 1;
            c.cycles += self.btb_miss_penalty;
            c.stall_frontend += self.btb_miss_penalty;
        }
    }

    /// Port: record a call's return address on the RAS.
    #[inline]
    pub fn push_return(&mut self, addr: u32) {
        self.bp.push_return(addr);
    }

    /// Port: resolve a return against the RAS, charging a mispredict when
    /// the popped prediction misses the actual target.
    #[inline]
    pub fn predict_return(&mut self, target: u32, c: &mut Counters) {
        if self.bp.pop_return() != Some(target) {
            c.ras_mispredicts += 1;
            c.cycles += self.mispredict_penalty;
            c.stall_branch += self.mispredict_penalty;
        }
    }

    /// Returns all front-end state to cold.
    pub fn flush(&mut self) {
        self.itlb.flush();
        self.l1i.flush();
        self.bp.flush();
        self.last_window = u32::MAX;
        self.last_line = u64::MAX;
        self.last_page = u64::MAX;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn front() -> FrontEnd {
        FrontEnd::new(
            CacheConfig {
                size: 1024,
                ways: 2,
                line: 64,
                hit_latency: 1,
            },
            TlbConfig {
                entries: 8,
                ways: 2,
                miss_penalty: 20,
            },
            BranchConfig {
                gshare_bits: 6,
                btb_entries: 16,
                ras_depth: 4,
                mispredict_penalty: 12,
                btb_miss_penalty: 2,
            },
        )
    }

    #[test]
    fn refetch_within_a_window_is_free() {
        let mut f = front();
        let mut l2 = Cache::new(CacheConfig {
            size: 4096,
            ways: 4,
            line: 64,
            hit_latency: 10,
        });
        let mut c = Counters::default();
        let mut port = L2Port::new(&mut l2, 5, 50);
        f.fetch(0x100, 0x100 / 16, &mut port, &mut c);
        assert_eq!(c.fetches, 1);
        assert_eq!(c.itlb_misses, 1);
        assert_eq!(c.l1i_misses, 1);
        let cycles_after_first = c.cycles;
        // Same window: no new fetch, no new stalls.
        f.fetch(0x104, 0x104 / 16, &mut port, &mut c);
        assert_eq!(c.fetches, 1);
        assert_eq!(c.cycles, cycles_after_first);
        // New window, warm structures: a fetch but no misses.
        f.fetch(0x110, 0x110 / 16, &mut port, &mut c);
        assert_eq!(c.fetches, 2);
        assert_eq!(c.itlb_misses, 1, "same page");
        assert_eq!(c.l1i_misses, 1, "same line");
    }

    #[test]
    fn begin_run_forces_a_fetch_without_cooling_caches() {
        let mut f = front();
        let mut l2 = Cache::new(CacheConfig {
            size: 4096,
            ways: 4,
            line: 64,
            hit_latency: 10,
        });
        let mut c = Counters::default();
        let mut port = L2Port::new(&mut l2, 5, 50);
        f.fetch(0x100, 16, &mut port, &mut c);
        f.begin_run();
        f.fetch(0x100, 16, &mut port, &mut c);
        assert_eq!(c.fetches, 2, "a new run reopens the window");
        assert_eq!(c.l1i_misses, 1, "but the I-cache stayed warm");
    }
}
