//! Pinned output digests (FNV-64), from `pins.txt`. A run whose digest
//! differs from its pin is incorrect; for a seed without a pin the digest
//! is printed, so the parent commit's run can be compared with a change's.

use crate::metrics::Outcome;

/// `<what> <seed> <digest>` lines. The quick suite has fixed inputs, so its
/// stdout is pinned once, under seed 0.
const PINS: &str = include_str!("../pins.txt");

fn pinned(what: &str, seed: u64) -> Option<u64> {
    PINS.lines().find_map(|l| {
        let mut f = l.split_whitespace();
        let (w, s, d) = (
            f.next()?,
            f.next()?.parse::<u64>().ok()?,
            f.next()?.parse::<u64>().ok()?,
        );
        (w == what && s == seed).then_some(d)
    })
}

pub fn check(o: &mut Outcome, what: &str, seed: u64, digest: u64) {
    o.details.push(format!("digest {what} {seed} {digest}"));
    match pinned(what, seed) {
        Some(p) if p != digest => {
            o.problem(format!("{what} seed {seed}: digest {digest} != pinned {p}"));
        }
        Some(_) => {}
        None => o
            .details
            .push(format!("{what} seed {seed} has no pinned digest")),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_pin_line_parses() {
        for l in super::PINS.lines().filter(|l| !l.trim().is_empty()) {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(f.len(), 3, "{l}");
            assert!(
                ["quick-suite", "sweep-ref", "serve-open"].contains(&f[0]),
                "{l}"
            );
            assert!(
                f[1].parse::<u64>().is_ok() && f[2].parse::<u64>().is_ok(),
                "{l}"
            );
        }
    }
}
