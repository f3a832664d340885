//! Property tests on the basic-block trace cache: decode must be a pure
//! function of (text, entry, parameters), and epoch handling must never
//! leak blocks across images.
//!
//! These are the invariants that let the block path replace the
//! interpreted loop: a stale or non-deterministic decode would produce
//! counters that depend on *which image happened to be cached*, exactly
//! the kind of hidden state the source paper warns about.

use biaslab_isa::{AluOp, Cond, Inst, Reg, Width};
use biaslab_uarch::block::{BlockCache, DecodeParams};
use proptest::prelude::*;

const TEXT_BASE: u32 = 0x0040_0000;

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(Reg::r)
}

fn arb_width() -> impl Strategy<Value = Width> {
    prop_oneof![Just(Width::B1), Just(Width::B4), Just(Width::B8)]
}

fn arb_op() -> impl Strategy<Value = AluOp> {
    (0usize..AluOp::ALL.len()).prop_map(|i| AluOp::ALL[i])
}

/// Any non-control instruction: what a block body is made of.
fn arb_body_inst() -> impl Strategy<Value = Inst> {
    prop_oneof![
        (arb_op(), arb_reg(), arb_reg(), arb_reg()).prop_map(|(op, rd, rs1, rs2)| Inst::Alu {
            op,
            rd,
            rs1,
            rs2
        }),
        (arb_op(), arb_reg(), arb_reg(), any::<i16>())
            .prop_map(|(op, rd, rs1, imm)| Inst::AluImm { op, rd, rs1, imm }),
        (arb_reg(), any::<u16>()).prop_map(|(rd, imm)| Inst::Lui { rd, imm }),
        (arb_width(), arb_reg(), arb_reg(), any::<i16>()).prop_map(|(width, rd, base, offset)| {
            Inst::Load {
                width,
                rd,
                base,
                offset,
            }
        }),
        (arb_width(), arb_reg(), arb_reg(), any::<i16>()).prop_map(|(width, rs, base, offset)| {
            Inst::Store {
                width,
                rs,
                base,
                offset,
            }
        }),
        arb_reg().prop_map(|rs| Inst::Chk { rs }),
        Just(Inst::Nop),
    ]
}

/// A short text segment: a straight-line body closed by a terminator, so
/// every entry word decodes to a well-formed block.
fn arb_text() -> impl Strategy<Value = Vec<Inst>> {
    (
        proptest::collection::vec(arb_body_inst(), 1..24),
        arb_reg(),
        arb_reg(),
    )
        .prop_map(|(mut body, rs1, rs2)| {
            // A branch in the middle (never past the halt) makes some
            // entries mid-block, exercising overlapping decodes.
            let off = 4 * (body.len() as i32 / 2);
            body.push(Inst::Branch {
                cond: Cond::Eq,
                rs1,
                rs2,
                offset: -off,
            });
            body.push(Inst::Halt);
            body
        })
}

fn arb_params() -> impl Strategy<Value = DecodeParams> {
    (4u32..=6, 4u32..=7, 0u64..8, 0u64..16).prop_map(
        |(fetch_shift, line_shift, mul_extra, div_extra)| DecodeParams {
            text_base: TEXT_BASE,
            fetch_shift,
            line_shift,
            mul_extra,
            div_extra,
        },
    )
}

proptest! {
    #[test]
    fn decode_is_deterministic_across_caches(
        text in arb_text(),
        p in arb_params(),
        cuts in proptest::collection::vec(1u32..24, 0..4),
    ) {
        // Two fresh caches over the same image must decode bit-identical
        // blocks (uops, fetch points, terminators — `DecodedBlock: Eq`)
        // at every entry word.
        let starts: Vec<u32> = cuts
            .iter()
            .map(|&w| TEXT_BASE + 4 * (w % text.len() as u32))
            .collect();
        let mut a = BlockCache::new();
        let mut b = BlockCache::new();
        a.sync(1, TEXT_BASE, text.len(), starts.iter().copied());
        b.sync(1, TEXT_BASE, text.len(), starts.iter().copied());
        for word in 0..text.len() as u32 {
            let ba = a.get_or_decode(word, &text, &p).clone();
            let bb = b.get_or_decode(word, &text, &p).clone();
            prop_assert_eq!(&ba, &bb);
            prop_assert_eq!(ba.word, word);
            prop_assert_eq!(ba.entry, TEXT_BASE + 4 * word);
            prop_assert_eq!(ba.next_pc, ba.entry + 4 * ba.len);
            prop_assert_eq!(ba.uops.len() as u32, ba.body_len);
        }
        prop_assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn generation_bump_invalidates_and_redecode_is_identical(
        text in arb_text(),
        p in arb_params(),
    ) {
        let mut cache = BlockCache::new();
        cache.sync(1, TEXT_BASE, text.len(), std::iter::empty());
        let first: Vec<_> = (0..text.len() as u32)
            .map(|w| cache.get_or_decode(w, &text, &p).clone())
            .collect();
        prop_assert!(cache.blocks_live() > 0);
        prop_assert_eq!(cache.stats().invalidations, 0);

        // A new image generation (same text, as after an identical relink)
        // must still discard everything: the cache keys on the epoch, not
        // on content.
        cache.sync(2, TEXT_BASE, text.len(), std::iter::empty());
        prop_assert_eq!(cache.blocks_live(), 0);
        prop_assert_eq!(cache.stats().invalidations, 1);
        prop_assert_eq!(cache.generation(), 2);

        // Re-decoding the new epoch reproduces the exact same blocks, and
        // a second lookup is a pure hit returning the same block.
        for (w, old) in first.iter().enumerate() {
            let fresh = cache.get_or_decode(w as u32, &text, &p).clone();
            prop_assert_eq!(&fresh, old);
            let hits_before = cache.stats().hits;
            let again = cache.get_or_decode(w as u32, &text, &p).clone();
            prop_assert_eq!(&again, old);
            prop_assert_eq!(cache.stats().hits, hits_before + 1);
        }
    }

    #[test]
    fn same_generation_sync_is_a_noop(
        text in arb_text(),
        p in arb_params(),
    ) {
        let mut cache = BlockCache::new();
        cache.sync(7, TEXT_BASE, text.len(), std::iter::empty());
        let _ = cache.get_or_decode(0, &text, &p);
        let live = cache.blocks_live();
        let stats = cache.stats();
        // Re-adopting the same epoch (every warm repetition does this)
        // must keep every decoded block and count nothing.
        cache.sync(7, TEXT_BASE, text.len(), std::iter::empty());
        prop_assert_eq!(cache.blocks_live(), live);
        prop_assert_eq!(cache.stats(), stats);
    }
}
