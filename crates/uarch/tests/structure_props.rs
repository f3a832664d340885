//! Property tests on the micro-architectural structures: the invariants
//! the bias mechanisms depend on must hold for arbitrary access streams.

use biaslab_uarch::branch::{BranchConfig, BranchPredictor};
use biaslab_uarch::cache::{Cache, CacheConfig};
use biaslab_uarch::tlb::TlbConfig;
use proptest::prelude::*;

fn small_cache() -> Cache {
    // 8 sets × 2 ways × 64 B.
    Cache::new(CacheConfig {
        size: 1024,
        ways: 2,
        line: 64,
        hit_latency: 1,
    })
}

proptest! {
    #[test]
    fn immediate_reaccess_always_hits(addrs in proptest::collection::vec(any::<u32>(), 1..200)) {
        let mut c = small_cache();
        for a in addrs {
            c.access(a);
            prop_assert!(c.access(a), "re-access of {a:#x} must hit");
        }
    }

    #[test]
    fn working_set_within_ways_never_misses_after_warmup(
        base in any::<u32>(),
        reps in 2usize..8,
    ) {
        // Two lines in the same set (ways = 2) must coexist.
        let mut c = small_cache();
        let a = base & !63;
        let b = a.wrapping_add(1024); // same set, different tag
        c.access(a);
        c.access(b);
        for _ in 0..reps {
            prop_assert!(c.access(a));
            prop_assert!(c.access(b));
        }
    }

    #[test]
    fn three_way_conflict_always_thrashes_lru(base in any::<u32>()) {
        // Three lines in one 2-way set, accessed round-robin: LRU evicts
        // the next one every time, so every access misses after warmup.
        let mut c = small_cache();
        let a = base & !63;
        let lines = [a, a.wrapping_add(1024), a.wrapping_add(2048)];
        for &l in &lines {
            c.access(l);
        }
        for _ in 0..3 {
            for &l in &lines {
                prop_assert!(!c.access(l), "round-robin over ways+1 lines must thrash");
            }
        }
    }

    #[test]
    fn translation_invariance_of_total_hits(
        offsets in proptest::collection::vec(0u32..4096, 1..100),
        shift_lines in 0u32..64,
    ) {
        // Shifting an entire access pattern by whole cache lines cannot
        // change its hit/miss sequence — conflicts depend only on relative
        // line structure when everything moves together. (This is exactly
        // why the *stack-only* component of the env shift is invisible and
        // the stack-vs-global interaction is what matters.)
        let run = |base: u32| -> Vec<bool> {
            let mut c = small_cache();
            offsets.iter().map(|&o| c.access(base.wrapping_add(o))).collect()
        };
        prop_assert_eq!(run(0x10000), run(0x10000 + shift_lines * 64));
    }

    #[test]
    fn tlb_page_locality_hits(pages in proptest::collection::vec(0u32..16, 1..50)) {
        let mut t = Cache::new(TlbConfig { entries: 32, ways: 4, miss_penalty: 10 }.cache());
        for p in pages {
            let addr = p * 4096;
            t.access(addr);
            prop_assert!(t.access(addr + 4095), "same page must hit");
        }
    }

    #[test]
    fn predictor_learns_any_fixed_direction(pc in any::<u32>(), taken in any::<bool>()) {
        let mut p = BranchPredictor::new(BranchConfig {
            gshare_bits: 8,
            btb_entries: 64,
            ras_depth: 8,
            mispredict_penalty: 10,
            btb_miss_penalty: 1,
        });
        // With a constant outcome the global history becomes constant, so
        // the indexed counter saturates; after training, prediction holds.
        for _ in 0..128 {
            p.update(pc, taken);
        }
        prop_assert_eq!(p.predict(pc).taken, taken);
    }

    #[test]
    fn btb_caches_last_target(pc in any::<u32>(), t1 in any::<u32>(), t2 in any::<u32>()) {
        let mut p = BranchPredictor::new(BranchConfig {
            gshare_bits: 8,
            btb_entries: 64,
            ras_depth: 8,
            mispredict_penalty: 10,
            btb_miss_penalty: 1,
        });
        p.btb_lookup(pc, t1);
        prop_assert!(p.btb_lookup(pc, t1), "same target hits");
        if t1 != t2 {
            prop_assert!(!p.btb_lookup(pc, t2), "changed target misses");
            prop_assert!(p.btb_lookup(pc, t2), "then installs");
        }
    }
}
