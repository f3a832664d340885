//! Seeded randomness and digests.

/// A splitmix64 generator: the benchmark's inputs are a pure function of
/// `--seed`, independent of any random-number crate's stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: &str) -> Rng {
        Rng(seed ^ fnv64(stream.as_bytes()))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is below 2^-40 here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// FNV-1a, 64-bit.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `n` distinct sizes in `lo..=hi`, ascending.
pub fn distinct_sizes(rng: &mut Rng, n: usize, lo: u64, hi: u64) -> Vec<u64> {
    let mut out: Vec<u64> = Vec::with_capacity(n);
    while out.len() < n {
        let v = lo + rng.below(hi - lo + 1);
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out.sort_unstable();
    out
}
