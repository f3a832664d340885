//! Typed geometry validation for the timing-model configurations.
//!
//! Every structure whose address mapping the bias mechanisms flow through
//! (caches, TLBs, BTB, gshare, fetch window, banks) constrains its geometry
//! to powers of two. Those constraints are checked **once, at
//! construction** — [`crate::MachineConfig::validate`], [`crate::cache::Cache::try_new`],
//! [`crate::tlb::TlbConfig::try_sets`] — and never re-asserted on the access path:
//! an inconsistent configuration is a typed [`ConfigError`] before the
//! first simulated cycle, not a panic in the middle of a sweep.

use std::fmt;

/// A single inconsistent geometry parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GeometryError {
    /// Cache line size must be a power of two.
    LineNotPowerOfTwo {
        /// The offending line size in bytes.
        line: u32,
    },
    /// Zero ways or zero capacity.
    ZeroSizeOrWays,
    /// `size / (ways * line)` must be a whole power-of-two set count.
    SetsNotPowerOfTwo {
        /// Capacity in bytes.
        size: u32,
        /// Associativity.
        ways: u32,
        /// Line size in bytes.
        line: u32,
    },
    /// `entries / ways` must be a whole power-of-two TLB set count.
    TlbSetsNotPowerOfTwo {
        /// Total TLB entries.
        entries: u32,
        /// Associativity.
        ways: u32,
    },
    /// A TLB's reach, `entries` pages, must fit the 32-bit address space.
    TlbReachOverflows {
        /// Total TLB entries.
        entries: u32,
    },
    /// BTB entry count must be a power of two.
    BtbNotPowerOfTwo {
        /// The offending entry count.
        entries: u32,
    },
    /// gshare history bits must be in `1..=24`.
    GshareBitsOutOfRange {
        /// The offending bit count.
        bits: u32,
    },
    /// Fetch window must be a power of two of at least 4 bytes.
    FetchWindowInvalid {
        /// The offending window size in bytes.
        bytes: u32,
    },
    /// Bank count must be a power of two when banking is enabled.
    BanksNotPowerOfTwo {
        /// The offending bank count.
        banks: u32,
    },
    /// Associativity above the packed valid-mask width (64 ways).
    WaysUnsupported {
        /// The offending way count.
        ways: u32,
    },
    /// Out-of-order overlap must lie in `[0, 1)`.
    OverlapOutOfRange {
        /// The offending overlap fraction.
        overlap: f64,
    },
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            GeometryError::LineNotPowerOfTwo { line } => {
                write!(f, "line size {line} not a power of two")
            }
            GeometryError::ZeroSizeOrWays => write!(f, "zero ways or size"),
            GeometryError::SetsNotPowerOfTwo { size, ways, line } => write!(
                f,
                "{size} bytes / {ways} ways / {line} line does not give a \
                 power of two set count"
            ),
            GeometryError::TlbSetsNotPowerOfTwo { entries, ways } => {
                write!(f, "{entries}x{ways} is not a power of two set layout")
            }
            GeometryError::TlbReachOverflows { entries } => {
                write!(f, "{entries} pages overflow the 32-bit address space")
            }
            GeometryError::BtbNotPowerOfTwo { entries } => {
                write!(f, "{entries} entries not a power of two")
            }
            GeometryError::GshareBitsOutOfRange { bits } => {
                write!(f, "{bits} bits outside 1..=24")
            }
            GeometryError::FetchWindowInvalid { bytes } => {
                write!(f, "fetch window {bytes} invalid")
            }
            GeometryError::BanksNotPowerOfTwo { banks } => {
                write!(f, "{banks} banks not a power of two")
            }
            GeometryError::WaysUnsupported { ways } => {
                write!(f, "{ways} ways exceeds the supported maximum of 64")
            }
            GeometryError::OverlapOutOfRange { overlap } => {
                write!(f, "overlap {overlap} outside [0, 1)")
            }
        }
    }
}

impl std::error::Error for GeometryError {}

/// An invalid [`crate::MachineConfig`]: which unit failed, and how.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigError {
    /// The configuration unit (`l1d`, `itlb`, `btb`, …).
    pub unit: &'static str,
    /// The failed constraint.
    pub kind: GeometryError,
}

impl ConfigError {
    /// Pairs a unit name with a geometry error.
    #[must_use]
    pub fn new(unit: &'static str, kind: GeometryError) -> ConfigError {
        ConfigError { unit, kind }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.unit, self.kind)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_the_offending_parameters() {
        let e = GeometryError::SetsNotPowerOfTwo {
            size: 384,
            ways: 2,
            line: 64,
        };
        let text = e.to_string();
        assert!(text.contains("384"));
        assert!(text.contains("power of two"));
        let c = ConfigError::new("l1d", e);
        assert!(c.to_string().starts_with("l1d: "));
    }
}
