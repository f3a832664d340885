//! Translation lookaside buffers.
//!
//! The simulated machine is physically addressed with an identity mapping,
//! so the TLB exists purely for its *timing* role: a set-associative cache
//! over page numbers whose conflicts depend on which pages a run touches —
//! and the stack pages move with the environment size.
//!
//! Like [`crate::cache::Cache`], geometry is validated once at
//! construction and entry validity is an explicit per-set bit mask rather
//! than a tag sentinel.

use biaslab_toolchain::layout::PAGE_SIZE;

use crate::geometry::GeometryError;

/// Geometry of a TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Total entries.
    pub entries: u32,
    /// Associativity.
    pub ways: u32,
    /// Page-walk penalty in cycles on a miss.
    pub miss_penalty: u32,
}

impl TlbConfig {
    /// Number of sets, if the geometry is consistent.
    ///
    /// # Errors
    ///
    /// Returns the violated constraint: `entries / ways` must be a whole
    /// power-of-two set count, with the associativity within the packed
    /// valid-mask width.
    pub fn try_sets(&self) -> Result<u32, GeometryError> {
        if self.ways == 0 || self.entries == 0 {
            return Err(GeometryError::ZeroSizeOrWays);
        }
        if self.ways > 64 {
            return Err(GeometryError::WaysUnsupported { ways: self.ways });
        }
        if !self.entries.is_multiple_of(self.ways) || !(self.entries / self.ways).is_power_of_two()
        {
            return Err(GeometryError::TlbSetsNotPowerOfTwo {
                entries: self.entries,
                ways: self.ways,
            });
        }
        Ok(self.entries / self.ways)
    }

    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent; prefer [`TlbConfig::try_sets`]
    /// when the configuration comes from user input.
    #[must_use]
    pub fn sets(&self) -> u32 {
        self.try_sets().unwrap_or_else(|e| panic!("{e}"))
    }

    /// The set count, computed without validation. Correct only for a
    /// geometry [`TlbConfig::try_sets`] accepts — guaranteed for every
    /// constructed [`Tlb`] and validated [`crate::MachineConfig`].
    #[inline]
    fn sets_unchecked(&self) -> u32 {
        self.entries / self.ways
    }

    /// The set index the page containing `addr` maps to — the same
    /// mapping [`Tlb::access`] applies, exposed on the configuration so
    /// static analyses can reason about page conflicts without
    /// instantiating a TLB. Requires a validated geometry.
    #[must_use]
    pub fn set_of(&self, addr: u32) -> u32 {
        (addr / PAGE_SIZE) & (self.sets_unchecked() - 1)
    }

    /// The tag stored for the page containing `addr`. Requires a
    /// validated geometry.
    #[must_use]
    pub fn tag_of(&self, addr: u32) -> u32 {
        addr / PAGE_SIZE / self.sets_unchecked()
    }
}

/// A set-associative TLB with LRU replacement.
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    sets: u32,
    /// `log2(sets)`: validated power-of-two, so the lookup extracts the
    /// tag by shifting rather than a hardware `div` per access.
    set_shift: u32,
    /// `tags[set * ways + way]`: page tag, meaningful only where the
    /// corresponding bit of `valid[set]` is set.
    tags: Vec<u32>,
    /// Per-set packed valid mask: bit `way` set ⇔ that way holds an entry.
    valid: Vec<u64>,
    stamps: Vec<u64>,
    clock: u64,
    /// Per-set MRU filter: `mru[set]` is the page number of the set's
    /// most-recently-used way (`u64::MAX` = none; a real page number fits
    /// in 20 bits and can never alias). An access to that page is elided
    /// entirely — see [`crate::cache::Cache`]'s equivalent field for the
    /// LRU-equivalence argument.
    mru: Vec<u64>,
}

impl Tlb {
    /// Creates an empty TLB, validating the geometry once.
    ///
    /// # Errors
    ///
    /// Returns the violated constraint (see [`TlbConfig::try_sets`]).
    pub fn try_new(config: TlbConfig) -> Result<Tlb, GeometryError> {
        let sets = config.try_sets()?;
        let n = (sets * config.ways) as usize;
        Ok(Tlb {
            config,
            sets,
            set_shift: sets.trailing_zeros(),
            tags: vec![0; n],
            valid: vec![0; sets as usize],
            stamps: vec![0; n],
            clock: 0,
            mru: vec![u64::MAX; sets as usize],
        })
    }

    /// Creates an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent; prefer [`Tlb::try_new`]
    /// when the configuration comes from user input.
    #[must_use]
    pub fn new(config: TlbConfig) -> Tlb {
        Tlb::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The configured geometry.
    #[must_use]
    pub fn config(&self) -> TlbConfig {
        self.config
    }

    /// Looks up the page containing `addr`. Returns `true` on hit; a miss
    /// installs the translation.
    ///
    /// `inline(always)` for the same reason as [`crate::cache::Cache::access`]:
    /// the MRU elision is the common case and costs three ALU ops inline.
    #[inline(always)]
    pub fn access(&mut self, addr: u32) -> bool {
        let page = addr / PAGE_SIZE;
        let set = page & (self.sets - 1);
        if u64::from(page) == self.mru[set as usize] {
            return true;
        }
        self.access_scan(page, set)
    }

    /// Read-only probe: is the page containing `addr` its set's MRU entry?
    /// `true` means [`Tlb::access`] would hit and change nothing, so the
    /// caller may elide the access entirely.
    #[inline(always)]
    #[must_use]
    pub fn mru_hit(&self, addr: u32) -> bool {
        let page = addr / PAGE_SIZE;
        let set = page & (self.sets - 1);
        u64::from(page) == self.mru[set as usize]
    }

    /// The way scan behind the MRU filter.
    fn access_scan(&mut self, page: u32, set: u32) -> bool {
        self.clock += 1;
        let tag = page >> self.set_shift;
        let base = (set * self.config.ways) as usize;
        let ways = self.config.ways as usize;
        let valid = self.valid[set as usize];
        // Slice the set once so the way scan is bounds-checked once.
        let set_tags = &mut self.tags[base..base + ways];
        if let Some(way) = (0..ways).find(|&w| valid >> w & 1 == 1 && set_tags[w] == tag) {
            self.stamps[base + way] = self.clock;
            self.mru[set as usize] = u64::from(page);
            return true;
        }
        // Invalid ways carry stamp 0, so they fill before any eviction.
        let set_stamps = &self.stamps[base..base + ways];
        let victim = (0..ways)
            .min_by_key(|&w| set_stamps[w])
            .expect("TLB has at least one way");
        set_tags[victim] = tag;
        self.valid[set as usize] = valid | 1 << victim;
        self.stamps[base + victim] = self.clock;
        self.mru[set as usize] = u64::from(page);
        false
    }

    /// Invalidates every entry.
    pub fn flush(&mut self) {
        self.valid.fill(0);
        self.stamps.fill(0);
        self.clock = 0;
        self.mru.fill(u64::MAX);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Tlb {
        Tlb::new(TlbConfig {
            entries: 8,
            ways: 2,
            miss_penalty: 30,
        })
    }

    #[test]
    fn same_page_hits() {
        let mut t = tiny();
        assert!(!t.access(0x1000));
        assert!(t.access(0x1FFF));
        assert!(!t.access(0x2000));
    }

    #[test]
    fn conflicting_pages_evict() {
        let mut t = tiny();
        // 4 sets; pages 0, 4, 8 share set 0 in a 2-way TLB.
        assert!(!t.access(0));
        assert!(!t.access(4 * PAGE_SIZE));
        assert!(!t.access(8 * PAGE_SIZE)); // evicts page 0
        assert!(!t.access(0)); // page 0 gone
    }

    #[test]
    fn config_geometry_agrees_with_the_simulated_tlb() {
        let cfg = TlbConfig {
            entries: 8,
            ways: 2,
            miss_penalty: 30,
        };
        assert_eq!(cfg.sets(), 4);
        // Pages 0, 4, 8 share set 0 (the conflict `conflicting_pages_evict`
        // exercises dynamically); the static mapping must agree.
        assert_eq!(cfg.set_of(0), cfg.set_of(4 * PAGE_SIZE));
        assert_eq!(cfg.set_of(0), cfg.set_of(8 * PAGE_SIZE));
        assert_ne!(cfg.set_of(0), cfg.set_of(PAGE_SIZE));
        assert_ne!(cfg.tag_of(0), cfg.tag_of(4 * PAGE_SIZE));
    }

    #[test]
    fn flush_invalidates() {
        let mut t = tiny();
        t.access(0x5000);
        t.flush();
        assert!(!t.access(0x5000));
    }

    #[test]
    fn bad_geometry_is_a_typed_error_at_construction() {
        let bad = TlbConfig {
            entries: 9,
            ways: 2,
            miss_penalty: 10,
        };
        assert_eq!(
            Tlb::try_new(bad).err(),
            Some(GeometryError::TlbSetsNotPowerOfTwo {
                entries: 9,
                ways: 2
            })
        );
        assert_eq!(
            TlbConfig {
                entries: 0,
                ways: 0,
                miss_penalty: 1
            }
            .try_sets(),
            Err(GeometryError::ZeroSizeOrWays)
        );
    }

    #[test]
    fn cold_entries_never_alias_a_real_tag() {
        // Regression companion to the cache's sentinel fix: with the
        // maximal geometry a u32 address can produce (`sets = 1`), the
        // largest page tag is `u32::MAX / PAGE_SIZE` — representable, and
        // under the old `u32::MAX` sentinel any future page-number widening
        // would have aliased it. With valid bits, a cold TLB misses for
        // every page, including the maximal one.
        let mut t = Tlb::new(TlbConfig {
            entries: 1,
            ways: 1,
            miss_penalty: 10,
        });
        assert!(!t.access(u32::MAX), "cold TLB must miss the maximal page");
        assert!(t.access(u32::MAX));
        t.flush();
        assert!(!t.access(u32::MAX));
    }
}
