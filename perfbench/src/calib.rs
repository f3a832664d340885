//! Host-speed calibration for the end-to-end times.
//!
//! On a shared host the speed of every instruction drifts with other
//! tenants' load, by up to a half over minutes, so runs of identical code
//! land up to 25 % apart. A fixed integer loop that shares no code with the
//! program is timed on every hardware thread at once between operations,
//! and each operation's time is multiplied by `REFERENCE_MS` over the mean
//! of the loop's CPU time just before and just after it: the result is
//! what the operation takes on a host where the loop takes `REFERENCE_MS`.
//! A change to the program cannot move the loop, so it cannot hide in the
//! scaling; raw times are printed as detail lines.
//!
//! The loop is compute-bound and runs on every thread because the program's
//! operations are: over 1000 paired `repro all --effort quick` runs on the
//! defining host, a pointer chase over 1, 16 or 64 MiB tracked their drift
//! with correlation 0.1-0.85, this loop on both threads with 0.8-0.95;
//! this loop, with each operation scaled by its neighbouring timings,
//! left a third less spread in 20-second medians than a 1 MiB chase
//! scaling whole runs by its median. It scales by CPU rather than wall
//! time because between `serve-open` segments, after the mostly idle
//! daemon's phase, the loop's wall time runs up to 1.9 times its CPU time,
//! for reasons the requests' latency does not share in proportion: scaled
//! by it, groups of ten 20-second latency medians spread 12 % on average
//! against 8 % scaled by CPU time, and one set of ten benchmark runs
//! spread 46 %. On the other workloads the two scale alike.

use std::hint::black_box;
use std::time::Instant;

use crate::procs;
use crate::stats::median;

/// The loop's time on the 2-core Xeon host (2.1 GHz) the benchmark was
/// defined on, at its least loaded.
pub const REFERENCE_MS: f64 = 22.0;
/// Steps per timing, about 22 ms on the reference host.
const STEPS: u64 = 5_000_000;

/// One timing of the loop on the calling thread: wall and CPU time, ms.
/// The loop is xorshift, a 2 KiB (L1-resident) table and data-dependent
/// branches.
fn spin() -> (f64, f64) {
    let (t, cpu) = (Instant::now(), procs::thread_cpu());
    let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15_u64, 0u64);
    let mut table = [0u64; 256];
    for i in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = (x & 255) as usize;
        if x & 3 == 0 {
            acc = acc.wrapping_add(table[k]);
        } else {
            table[k] = table[k].wrapping_mul(31).wrapping_add(i);
        }
        if (x >> 5) & 1 == 1 {
            acc ^= x.rotate_left(7);
        }
    }
    black_box((acc, table));
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    (ms(t.elapsed()), ms(procs::thread_cpu() - cpu))
}

/// `REFERENCE_MS` over the mean of timings `i` and `i + 1` (the last
/// timing stands alone), for each `i` in `at`.
fn factors(timings: &[f64], at: &[usize]) -> Vec<f64> {
    at.iter()
        .map(|&i| {
            let after = timings.get(i + 1).unwrap_or(&timings[i]);
            REFERENCE_MS / ((timings[i] + after) / 2.0)
        })
        .collect()
}

/// The loop's timings in order, each the mean over the threads. Only the
/// CPU timings scale; the wall timings are reported, since their excess
/// over CPU time shows how long the host kept the loop off the processor.
#[derive(Debug)]
pub struct Calibration {
    wall: Vec<f64>,
    cpu: Vec<f64>,
}

impl Calibration {
    /// Starts with one discarded timing, so thread start-up and page
    /// faults of the first one do not count.
    pub fn new() -> Calibration {
        let mut c = Calibration {
            wall: Vec::new(),
            cpu: Vec::new(),
        };
        c.sample();
        c.wall.clear();
        c.cpu.clear();
        c
    }

    /// Times the loop on every hardware thread at once; returns the
    /// timing's index, which the factors take for the operation that
    /// follows it.
    pub fn sample(&mut self) -> usize {
        let threads = crate::threads() as usize;
        let times: Vec<(f64, f64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads).map(|_| s.spawn(spin)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("the calibration loop does not panic"))
                .collect()
        });
        let mean = |f: fn(&(f64, f64)) -> f64| times.iter().map(f).sum::<f64>() / threads as f64;
        self.wall.push(mean(|t| t.0));
        self.cpu.push(mean(|t| t.1));
        self.wall.len() - 1
    }

    /// Scale factors for operations that each followed timing `i`, for
    /// each `i` in `at`.
    pub fn factors(&self, at: &[usize]) -> Vec<f64> {
        factors(&self.cpu, at)
    }

    /// A detail line: the loop's median wall and CPU time.
    pub fn describe(&self) -> String {
        format!(
            "calibration loop median wall={:.3} ms cpu={:.3} ms n={} (reference {REFERENCE_MS} ms)",
            median(&self.wall),
            median(&self.cpu),
            self.wall.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_operation_is_scaled_by_the_timings_around_it() {
        let timings = [20.0, 24.0, 22.0];
        let f = factors(&timings, &[0, 1, 2]);
        assert_eq!(f, [REFERENCE_MS / 22.0, REFERENCE_MS / 23.0, 1.0]);
    }

    #[test]
    fn timings_are_indexed_in_order_and_scale_by_cpu_time() {
        let mut c = Calibration::new();
        assert_eq!((c.sample(), c.sample()), (0, 1));
        assert_eq!(c.factors(&[0]), factors(&c.cpu, &[0]));
        // Time off the processor stretches the wall timing only.
        assert!(c.cpu[0] > 0.0 && c.cpu[0] <= c.wall[0] * 1.001, "{c:?}");
    }
}
