//! Explicit ports between the core, the front end and the memory hierarchy.
//!
//! A port is a narrow, borrowed view of a shared resource that one part of
//! the machine hands another for the duration of a single operation. Port
//! calls inline, so they cost nothing over direct field access; they are
//! how the front end and the memory hierarchy reach the shared L2.

use crate::cache::Cache;
use crate::counters::Counters;

/// A demand-miss port into the shared unified L2.
///
/// Both the front end (I-side refills) and the memory hierarchy (D-side
/// refills) own one of these per operation; the L2 itself stays a single
/// shared structure on the machine, which is what makes I/D interference
/// through L2 sets a transmissible bias channel.
#[derive(Debug)]
pub struct L2Port<'a> {
    cache: &'a mut Cache,
    stall_hit: u64,
    stall_miss: u64,
}

impl<'a> L2Port<'a> {
    /// Wires a port to the shared L2 with the machine's overlap-scaled
    /// refill stalls (an L1 miss that hits L2, and a miss to memory).
    #[inline]
    pub fn new(cache: &'a mut Cache, stall_hit: u64, stall_miss: u64) -> L2Port<'a> {
        L2Port {
            cache,
            stall_hit,
            stall_miss,
        }
    }

    /// Services an L1 demand miss for the line containing `addr`: returns
    /// the stall to charge, counting an L2 miss when the line was not
    /// present.
    #[inline]
    pub fn refill(&mut self, addr: u32, c: &mut Counters) -> u64 {
        if self.cache.access(addr) {
            self.stall_hit
        } else {
            c.l2_misses += 1;
            self.stall_miss
        }
    }

    /// Trains the L2 with a non-demand (prefetch) access: no counters, no
    /// stall — the fill happens off the critical path.
    #[inline]
    pub fn touch(&mut self, addr: u32) {
        let _ = self.cache.access(addr);
    }
}
