//! IR-building helpers shared by the benchmark kernels.

use biaslab_isa::{AluOp, Width};
use biaslab_toolchain::ir::LocalId;
use biaslab_toolchain::ir::Val;
use biaslab_toolchain::FunctionBuilder;

/// Multiplier of the splitmix-style generator used for in-IR data
/// generation (and by the Rust-side table baker, so both agree).
pub const LCG_MUL: u64 = 6364136223846793005;
/// Increment of the generator.
pub const LCG_INC: u64 = 1442695040888963407;

/// Allocates a scalar local initialized to `value` — the usual way to
/// provide a loop bound to [`FunctionBuilder::counted_loop`].
pub fn const_local(fb: &mut FunctionBuilder<'_>, value: u64) -> LocalId {
    let l = fb.local_scalar();
    let v = fb.const_(value);
    fb.set(l, v);
    l
}

/// `base + idx * elem` — the address of element `idx`.
pub fn array_addr(fb: &mut FunctionBuilder<'_>, base: Val, idx: Val, elem: i64) -> Val {
    let off = fb.mul_imm(idx, elem);
    fb.add(base, off)
}

/// Loads element `idx` of an array of `elem`-byte elements.
pub fn load_idx(fb: &mut FunctionBuilder<'_>, base: Val, idx: Val, elem: i64, width: Width) -> Val {
    let addr = array_addr(fb, base, idx, elem);
    fb.load(width, addr, 0)
}

/// Stores `value` into element `idx` of an array of `elem`-byte elements.
pub fn store_idx(
    fb: &mut FunctionBuilder<'_>,
    base: Val,
    idx: Val,
    elem: i64,
    width: Width,
    value: Val,
) {
    let addr = array_addr(fb, base, idx, elem);
    fb.store(width, addr, 0, value);
}

/// One step of the data generator: returns `state * LCG_MUL + LCG_INC`.
pub fn lcg_step(fb: &mut FunctionBuilder<'_>, state: Val) -> Val {
    let m = fb.const_(LCG_MUL);
    let p = fb.mul(state, m);
    let c = fb.const_(LCG_INC);
    fb.add(p, c)
}

/// The Rust-side twin of [`lcg_step`], used to bake initialized globals.
#[must_use]
pub fn lcg_step_host(state: u64) -> u64 {
    state.wrapping_mul(LCG_MUL).wrapping_add(LCG_INC)
}

/// Generates `n` pseudo-random words from `seed` (host side).
#[must_use]
pub fn lcg_words(seed: u64, n: usize) -> Vec<u64> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            s = lcg_step_host(s);
            s
        })
        .collect()
}

/// Branch-free absolute difference `|a - b|` for unsigned-magnitude inputs
/// below `2^63`: `(a<b ? b-a : a-b)`.
pub fn emit_absdiff(fb: &mut FunctionBuilder<'_>, a: Val, b: Val) -> Val {
    let lt = fb.bin(AluOp::Slt, a, b);
    let ab = fb.sub(a, b);
    let ba = fb.sub(b, a);
    // lt ? ba : ab  →  ab + lt*(ba-ab)
    let d = fb.sub(ba, ab);
    let scaled = fb.mul(lt, d);
    fb.add(ab, scaled)
}

#[cfg(test)]
mod tests {
    use biaslab_toolchain::interp::Interpreter;
    use biaslab_toolchain::ModuleBuilder;

    use super::*;

    #[test]
    fn lcg_host_and_ir_agree() {
        let mut mb = ModuleBuilder::new();
        mb.function("g", 1, true, |fb| {
            let s = fb.param(0);
            let sv = fb.get(s);
            let next = lcg_step(fb, sv);
            fb.ret(Some(next));
        });
        let m = mb.finish().unwrap();
        for seed in [0u64, 1, 42, u64::MAX] {
            let got = Interpreter::new(&m).call_by_name("g", &[seed]).unwrap();
            assert_eq!(got.return_value, Some(lcg_step_host(seed)), "seed {seed}");
        }
    }

    #[test]
    fn lcg_words_deterministic_and_seed_sensitive() {
        assert_eq!(lcg_words(7, 5), lcg_words(7, 5));
        assert_ne!(lcg_words(7, 5), lcg_words(8, 5));
        assert_eq!(lcg_words(7, 5).len(), 5);
    }

    #[test]
    fn array_helpers_roundtrip() {
        use biaslab_toolchain::ir::Global;
        let mut mb = ModuleBuilder::new();
        let g = mb.global(Global::zeroed("arr", 64));
        mb.function("t", 0, true, |fb| {
            let base = fb.addr_global(g);
            let idx = fb.const_(3);
            let v = fb.const_(99);
            store_idx(fb, base, idx, 8, Width::B8, v);
            let idx2 = fb.const_(3);
            let r = load_idx(fb, base, idx2, 8, Width::B8);
            fb.ret(Some(r));
        });
        let m = mb.finish().unwrap();
        let out = Interpreter::new(&m).call_by_name("t", &[]).unwrap();
        assert_eq!(out.return_value, Some(99));
    }
}
