//! Translation lookaside buffers.
//!
//! The simulated machine is physically addressed with an identity mapping,
//! so the TLB exists purely for its *timing* role: a set-associative cache
//! over page numbers whose conflicts depend on which pages a run touches —
//! and the stack pages move with the environment size.
//!
//! A TLB is simulated as exactly that: a [`Cache`](crate::cache::Cache)
//! whose lines are pages ([`TlbConfig::cache`]), with the cache's valid
//! masks, MRU filter and true-LRU replacement.

use biaslab_toolchain::layout::PAGE_SIZE;

use crate::cache::CacheConfig;
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
    /// valid-mask width, and the TLB's reach (`entries` pages) must fit
    /// the 32-bit address space.
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
        if self.entries.checked_mul(PAGE_SIZE).is_none() {
            return Err(GeometryError::TlbReachOverflows {
                entries: self.entries,
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

    /// The cache the TLB is simulated as: one line per page, `entries`
    /// pages in all. Requires a validated geometry (see
    /// [`TlbConfig::try_sets`]).
    #[must_use]
    pub fn cache(&self) -> CacheConfig {
        CacheConfig {
            size: self.entries * PAGE_SIZE,
            ways: self.ways,
            line: PAGE_SIZE,
            hit_latency: 0,
        }
    }

    /// The set index the page containing `addr` maps to — the mapping the
    /// simulated TLB applies, exposed on the configuration so static
    /// analyses can reason about page conflicts without instantiating a
    /// TLB. Requires a validated geometry.
    #[must_use]
    pub fn set_of(&self, addr: u32) -> u32 {
        self.cache().set_of(addr)
    }

    /// The tag stored for the page containing `addr`. Requires a
    /// validated geometry.
    #[must_use]
    pub fn tag_of(&self, addr: u32) -> u32 {
        self.cache().tag_of(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Cache;

    fn tiny() -> Cache {
        Cache::new(
            TlbConfig {
                entries: 8,
                ways: 2,
                miss_penalty: 30,
            }
            .cache(),
        )
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
        assert_eq!(cfg.cache().sets(), 4);
        // Pages 0, 4, 8 share set 0 (the conflict `conflicting_pages_evict`
        // exercises dynamically); the static mapping must agree.
        assert_eq!(cfg.set_of(0), cfg.set_of(4 * PAGE_SIZE));
        assert_eq!(cfg.set_of(0), cfg.set_of(8 * PAGE_SIZE));
        assert_ne!(cfg.set_of(0), cfg.set_of(PAGE_SIZE));
        assert_ne!(cfg.tag_of(0), cfg.tag_of(4 * PAGE_SIZE));
        let t = tiny();
        for addr in (0..64 * PAGE_SIZE).step_by(1000) {
            assert_eq!(cfg.set_of(addr), t.set_of(addr));
            assert_eq!(cfg.set_of(addr), addr / PAGE_SIZE % 4);
            assert_eq!(cfg.tag_of(addr), addr / PAGE_SIZE / 4);
        }
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
            bad.try_sets(),
            Err(GeometryError::TlbSetsNotPowerOfTwo {
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
    fn a_reach_past_the_address_space_is_a_typed_error() {
        let pages = u32::MAX / PAGE_SIZE + 1; // 2^20 entries of 4 KiB
        let overflowing = TlbConfig {
            entries: pages,
            ways: 1,
            miss_penalty: 10,
        };
        assert_eq!(
            overflowing.try_sets(),
            Err(GeometryError::TlbReachOverflows { entries: pages })
        );
        // Half as many entries fit.
        let largest = TlbConfig {
            entries: pages / 2,
            ..overflowing
        };
        assert_eq!(largest.try_sets(), Ok(pages / 2));
        assert_eq!(largest.cache().try_sets(), Ok(pages / 2));
    }

    #[test]
    fn cold_entries_never_alias_a_real_tag() {
        // With the maximal geometry a u32 address can produce (`sets = 1`),
        // the largest page tag is `u32::MAX / PAGE_SIZE`; explicit valid
        // bits make a cold TLB miss every page, the maximal one included.
        let mut t = Cache::new(
            TlbConfig {
                entries: 1,
                ways: 1,
                miss_penalty: 10,
            }
            .cache(),
        );
        assert!(!t.access(u32::MAX), "cold TLB must miss the maximal page");
        assert!(t.access(u32::MAX));
        t.flush();
        assert!(!t.access(u32::MAX));
    }
}
