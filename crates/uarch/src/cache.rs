//! Set-associative caches with true-LRU replacement.
//!
//! LRU order is kept as 16-bit stamps from a per-set clock, renumbered by
//! rank when a set's clock would wrap (see [`Cache`]'s `renumber`), which
//! keeps a core2 L2's state at 256 KiB instead of 448.
//!
//! The cache's address → set mapping is the central transmission channel of
//! the paper's biases: moving a data structure (with the environment size)
//! or a function (with the link order) changes which sets its lines occupy,
//! and therefore which other lines they evict.
//!
//! Geometry is validated **once**, at construction ([`Cache::try_new`] /
//! [`crate::MachineConfig::validate`]); the access path never re-checks it.
//! Line validity is an explicit per-set bit mask, not a tag sentinel: an
//! address whose real tag happens to equal a sentinel value can never
//! alias an invalid way into a spurious hit.

use crate::geometry::GeometryError;

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: u32,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line: u32,
    /// Hit latency in cycles.
    pub hit_latency: u32,
}

impl CacheConfig {
    /// Number of sets, if the geometry is consistent.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint: line size and set count must
    /// be powers of two, ways and size non-zero, and the associativity
    /// within the packed valid-mask width.
    pub fn try_sets(&self) -> Result<u32, GeometryError> {
        if !self.line.is_power_of_two() {
            return Err(GeometryError::LineNotPowerOfTwo { line: self.line });
        }
        if self.ways == 0 || self.size == 0 {
            return Err(GeometryError::ZeroSizeOrWays);
        }
        if self.ways > 64 {
            return Err(GeometryError::WaysUnsupported { ways: self.ways });
        }
        let span = self.ways * self.line;
        if !self.size.is_multiple_of(span) || !(self.size / span).is_power_of_two() {
            return Err(GeometryError::SetsNotPowerOfTwo {
                size: self.size,
                ways: self.ways,
                line: self.line,
            });
        }
        Ok(self.size / span)
    }

    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent; prefer [`CacheConfig::try_sets`]
    /// when the configuration comes from user input.
    #[must_use]
    pub fn sets(&self) -> u32 {
        self.try_sets().unwrap_or_else(|e| panic!("{e}"))
    }

    /// The set count, computed without validation. Correct only for a
    /// geometry that [`CacheConfig::try_sets`] accepts — which every
    /// constructed [`Cache`] and validated [`crate::MachineConfig`]
    /// guarantees — so the per-access mapping helpers below never pay for
    /// (or panic on) re-validation.
    #[inline]
    fn sets_unchecked(&self) -> u32 {
        self.size / (self.ways * self.line)
    }

    /// The set index `addr` maps to — the same mapping [`Cache::set_of`]
    /// applies on every simulated access, exposed on the configuration so
    /// static analyses can reason about conflicts without instantiating
    /// a cache. Requires a validated geometry (see [`CacheConfig::try_sets`]).
    #[must_use]
    pub fn set_of(&self, addr: u32) -> u32 {
        (addr / self.line) & (self.sets_unchecked() - 1)
    }

    /// The tag stored for `addr`: two addresses conflict in a set iff
    /// they share a set index but not a tag. Requires a validated geometry
    /// (see [`CacheConfig::try_sets`]).
    #[must_use]
    pub fn tag_of(&self, addr: u32) -> u32 {
        addr / self.line / self.sets_unchecked()
    }
}

/// One level of set-associative cache.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: u32,
    /// `log2(line)`: the geometry is validated power-of-two, so the access
    /// path divides by shifting instead of paying a hardware `div` per
    /// access (the same hoist the front end applies to its fetch window).
    line_shift: u32,
    /// `log2(sets)`, for the tag extraction.
    set_shift: u32,
    /// `tags[set * ways + way]`: line tag. Meaningful only where the
    /// corresponding bit of `valid[set]` is set.
    tags: Vec<u32>,
    /// Per-set packed valid mask: bit `way` set ⇔ that way holds a line.
    valid: Vec<u64>,
    /// LRU stamps parallel to `tags`, from each set's own clock.
    stamps: Vec<u16>,
    /// Per-set LRU clock: the newest stamp handed out in the set. When
    /// it would wrap, [`Cache::renumber`] rewrites the set's stamps by
    /// rank first.
    clocks: Vec<u16>,
    /// Per-set MRU filter: `mru[set]` is the line number
    /// (`addr >> line_shift`, widened; `u64::MAX` = none — a `u32` line
    /// number can never equal it, so no sentinel aliasing) of the set's
    /// most-recently-used way. An access to that line is *elided
    /// entirely*: it would hit (the line is resident — the only eviction
    /// path, the miss path, repoints the filter at the filled line), it
    /// would charge nothing, and the stamp write it skips is
    /// LRU-equivalent — the line's stamp is already the newest in its
    /// set, only the *relative order* of stamps within a set is ever
    /// compared (victim selection slices one set), stamps are unique so
    /// there are no ties, and the clock values later accesses observe are
    /// merely shifted, preserving that order.
    mru: Vec<u64>,
}

impl Cache {
    /// Creates an empty (all-invalid) cache, validating the geometry once.
    ///
    /// # Errors
    ///
    /// Returns the violated constraint (see [`CacheConfig::try_sets`]).
    pub fn try_new(config: CacheConfig) -> Result<Cache, GeometryError> {
        let sets = config.try_sets()?;
        let entries = (sets * config.ways) as usize;
        Ok(Cache {
            config,
            sets,
            line_shift: config.line.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            tags: vec![0; entries],
            valid: vec![0; sets as usize],
            stamps: vec![0; entries],
            clocks: vec![0; sets as usize],
            mru: vec![u64::MAX; sets as usize],
        })
    }

    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent; prefer [`Cache::try_new`]
    /// when the configuration comes from user input.
    #[must_use]
    pub fn new(config: CacheConfig) -> Cache {
        Cache::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The configured geometry.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// The set index for an address.
    #[must_use]
    #[inline]
    pub fn set_of(&self, addr: u32) -> u32 {
        (addr >> self.line_shift) & (self.sets - 1)
    }

    #[inline]
    fn tag_of(&self, addr: u32) -> u32 {
        addr >> (self.line_shift + self.set_shift)
    }

    /// Accesses the line containing `addr`, updating LRU state. Returns
    /// `true` on hit; on a miss the line is filled (evicting the LRU way).
    ///
    /// `inline(always)` so the MRU-elision check — the overwhelmingly
    /// common outcome on the simulator's hot loop — costs a shift, a mask
    /// and one compare at the call site; the way scan stays outlined.
    #[inline(always)]
    pub fn access(&mut self, addr: u32) -> bool {
        let line_no = addr >> self.line_shift;
        let set = line_no & (self.sets - 1);
        if u64::from(line_no) == self.mru[set as usize] {
            return true;
        }
        self.access_scan(addr, line_no, set)
    }

    /// Read-only probe: is the line containing `addr` its set's MRU line?
    /// `true` means [`Cache::access`] would hit and change nothing, so the
    /// caller may elide the access entirely.
    #[inline(always)]
    #[must_use]
    pub fn mru_hit(&self, addr: u32) -> bool {
        let line_no = addr >> self.line_shift;
        let set = line_no & (self.sets - 1);
        u64::from(line_no) == self.mru[set as usize]
    }

    /// The way scan behind the MRU filter: LRU bookkeeping, and fill on
    /// a miss.
    fn access_scan(&mut self, addr: u32, line_no: u32, set: u32) -> bool {
        let tag = self.tag_of(addr);
        let base = (set * self.config.ways) as usize;
        let ways = self.config.ways as usize;
        let valid = self.valid[set as usize];
        if self.clocks[set as usize] == u16::MAX {
            self.renumber(base, ways, valid, set);
        }
        self.clocks[set as usize] += 1;
        let clock = self.clocks[set as usize];
        // Slice the set once so the way scan is bounds-checked once.
        let set_tags = &mut self.tags[base..base + ways];

        if let Some(way) = (0..ways).find(|&w| valid >> w & 1 == 1 && set_tags[w] == tag) {
            self.stamps[base + way] = clock;
            self.mru[set as usize] = u64::from(line_no);
            return true;
        }
        // Miss: evict LRU. Invalid ways carry stamp 0 and are always older
        // than any filled way (a set's clock hands out stamps from 1), so
        // they fill first.
        let set_stamps = &self.stamps[base..base + ways];
        let victim = (0..ways)
            .min_by_key(|&w| set_stamps[w])
            .expect("cache has at least one way");
        set_tags[victim] = tag;
        self.valid[set as usize] = valid | 1 << victim;
        self.stamps[base + victim] = clock;
        self.mru[set as usize] = u64::from(line_no);
        false
    }

    /// Rewrites one set's stamps by rank before its clock wraps: the
    /// valid ways get 1 to `k` in their existing order, invalid ways keep
    /// 0, and the clock restarts at `k`. Replacement compares stamps only
    /// within a set, to find its oldest way, and filled ways' stamps are
    /// distinct (each access stamps one way with a fresh clock value), so
    /// every comparison it will make comes out as before and the
    /// renumbering changes no hit, miss or victim.
    #[cold]
    fn renumber(&mut self, base: usize, ways: usize, valid: u64, set: u32) {
        let stamps = &mut self.stamps[base..base + ways];
        let old: Vec<u16> = stamps.to_vec();
        let filled = |w: usize| valid >> w & 1 == 1;
        let mut k = 0;
        for w in (0..ways).filter(|&w| filled(w)) {
            stamps[w] = 1 + (0..ways).filter(|&v| filled(v) && old[v] < old[w]).count() as u16;
            k += 1;
        }
        self.clocks[set as usize] = k;
    }

    /// Invalidates all lines (used between measurement repetitions).
    pub fn flush(&mut self) {
        self.valid.fill(0);
        self.stamps.fill(0);
        self.clocks.fill(0);
        self.mru.fill(u64::MAX);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets × 2 ways × 64 B lines = 512 B.
        Cache::new(CacheConfig {
            size: 512,
            ways: 2,
            line: 64,
            hit_latency: 3,
        })
    }

    #[test]
    fn geometry() {
        let c = tiny();
        assert_eq!(c.config().sets(), 4);
        assert_eq!(c.set_of(0), 0);
        assert_eq!(c.set_of(64), 1);
        assert_eq!(c.set_of(256), 0); // wraps after 4 sets
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = tiny();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1038)); // same 64-byte line
        assert!(!c.access(0x1040)); // next line
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Three lines mapping to set 0 in a 2-way cache.
        let (a, b, d) = (0, 256, 512);
        assert!(!c.access(a));
        assert!(!c.access(b));
        assert!(c.access(a)); // a now MRU
        assert!(!c.access(d)); // evicts b (LRU)
        assert!(c.access(a));
        assert!(!c.access(b)); // b was evicted
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = tiny();
        for i in 0..4u32 {
            assert!(!c.access(i * 64));
        }
        for i in 0..4u32 {
            assert!(c.access(i * 64), "set {i} retained");
        }
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = tiny();
        c.access(0x42);
        c.flush();
        assert!(!c.access(0x42));
    }

    #[test]
    fn moving_a_buffer_changes_its_sets() {
        // The bias mechanism in miniature: the same 128-byte buffer at two
        // different base addresses occupies different sets.
        let c = tiny();
        let sets_at = |base: u32| -> Vec<u32> { (0..2).map(|i| c.set_of(base + i * 64)).collect() };
        assert_ne!(sets_at(0), sets_at(128));
    }

    #[test]
    fn config_geometry_agrees_with_the_simulated_cache() {
        let c = tiny();
        for addr in (0..4096u32).step_by(40) {
            assert_eq!(c.set_of(addr), c.config().set_of(addr));
        }
        // Distinct tags at the same set index are exactly the conflicts.
        let cfg = c.config();
        assert_eq!(cfg.set_of(0), cfg.set_of(256));
        assert_ne!(cfg.tag_of(0), cfg.tag_of(256));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_is_rejected() {
        let _ = Cache::new(CacheConfig {
            size: 384,
            ways: 2,
            line: 64,
            hit_latency: 1,
        });
    }

    #[test]
    fn bad_geometry_is_a_typed_error_at_construction() {
        let bad = CacheConfig {
            size: 384,
            ways: 2,
            line: 64,
            hit_latency: 1,
        };
        assert!(matches!(
            Cache::try_new(bad),
            Err(GeometryError::SetsNotPowerOfTwo { size: 384, .. })
        ));
        let zero = CacheConfig {
            size: 0,
            ways: 0,
            line: 64,
            hit_latency: 1,
        };
        assert_eq!(zero.try_sets(), Err(GeometryError::ZeroSizeOrWays));
        let line = CacheConfig {
            size: 512,
            ways: 2,
            line: 48,
            hit_latency: 1,
        };
        assert_eq!(
            line.try_sets(),
            Err(GeometryError::LineNotPowerOfTwo { line: 48 })
        );
        let wide = CacheConfig {
            size: 1 << 20,
            ways: 128,
            line: 64,
            hit_latency: 1,
        };
        assert_eq!(
            wide.try_sets(),
            Err(GeometryError::WaysUnsupported { ways: 128 })
        );
    }

    /// A naive true-LRU cache: per set, the resident lines, most recent
    /// last.
    struct ListLru {
        sets: Vec<Vec<u32>>,
        ways: usize,
        line: u32,
    }

    impl ListLru {
        fn access(&mut self, addr: u32) -> bool {
            let line_no = addr / self.line;
            let n = self.sets.len();
            let set = &mut self.sets[line_no as usize % n];
            let hit = match set.iter().position(|&l| l == line_no) {
                Some(at) => {
                    set.remove(at);
                    true
                }
                None => {
                    if set.len() == self.ways {
                        set.remove(0);
                    }
                    false
                }
            };
            set.push(line_no);
            hit
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 96,
            ..proptest::prelude::ProptestConfig::default()
        })]
        /// Every set's clock starts just below `u16::MAX`, so a stream
        /// wraps each set it touches a few times; hits and misses must
        /// still match a true-LRU list access for access.
        #[test]
        fn stamps_renumbered_at_the_wrap_match_a_true_lru_list(
            set_bits in 0u32..4,
            ways in 1u32..9,
            start_below_wrap in 0u16..40,
            stream in proptest::collection::vec(0u32..48, 1..400),
        ) {
            let (sets, line) = (1u32 << set_bits, 64u32);
            let mut cache = Cache::new(CacheConfig {
                size: sets * ways * line,
                ways,
                line,
                hit_latency: 1,
            });
            cache.clocks.fill(u16::MAX - start_below_wrap);
            let mut oracle = ListLru {
                sets: vec![Vec::new(); sets as usize],
                ways: ways as usize,
                line,
            };
            for (i, &l) in stream.iter().enumerate() {
                let addr = l * line + (i as u32 % line);
                proptest::prop_assert_eq!(
                    cache.access(addr),
                    oracle.access(addr),
                    "access {} to line {} on {} sets x {} ways, clock from {}",
                    i,
                    l,
                    sets,
                    ways,
                    u16::MAX - start_below_wrap
                );
            }
        }
    }

    #[test]
    fn renumbering_keeps_the_order_and_restarts_the_clock() {
        let mut c = tiny();
        // Fill set 0's two ways, then let its clock reach the wrap.
        let (a, b, d) = (0, 256, 512);
        assert!(!c.access(a));
        assert!(!c.access(b));
        c.clocks[0] = u16::MAX;
        assert!(c.access(a), "the renumbered set still holds a");
        assert_eq!(c.clocks[0], 3, "two ranks, then the access's stamp");
        assert_eq!(&c.stamps[0..2], &[3, 2]);
        assert!(!c.access(d), "d evicts b, the older way");
        assert!(c.access(a));
        assert!(!c.access(b));
    }

    #[test]
    fn tag_equal_to_old_sentinel_does_not_hit_an_invalid_way() {
        // Regression: with `u32::MAX` as the invalid-tag sentinel, the
        // aliasing geometry is line = 1, sets = 1, where
        // `tag_of(u32::MAX) == u32::MAX` — a cold cache claimed a hit on
        // its never-filled way. Explicit valid bits make the first access
        // a miss like any other.
        let mut c = Cache::new(CacheConfig {
            size: 1,
            ways: 1,
            line: 1,
            hit_latency: 1,
        });
        assert_eq!(c.config().tag_of(u32::MAX), u32::MAX);
        assert!(!c.access(u32::MAX), "cold cache must miss");
        assert!(c.access(u32::MAX), "then hit once filled");
        c.flush();
        assert!(!c.access(u32::MAX), "flush invalidates the way again");
    }
}
