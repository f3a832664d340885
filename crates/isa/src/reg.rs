//! Architectural registers.

use std::fmt;

/// One of the 32 MRV32 general-purpose registers.
///
/// The wrapped index is guaranteed to be in `0..32`; use [`Reg::r`] to
/// construct a register (it panics on out-of-range indices, which is always
/// a toolchain bug rather than a user-input condition).
///
/// # Examples
///
/// ```
/// use biaslab_isa::Reg;
///
/// assert_eq!(Reg::r(0), Reg::ZERO);
/// assert_eq!(Reg::SP.to_string(), "sp");
/// assert_eq!(Reg::r(7).index(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// Register hard-wired to zero: writes are ignored, reads return 0.
    pub const ZERO: Reg = Reg(0);
    /// Global pointer: base address of the linked data segment.
    pub const GP: Reg = Reg(28);
    /// Frame pointer.
    pub const FP: Reg = Reg(29);
    /// Stack pointer.
    pub const SP: Reg = Reg(30);
    /// Return address, written by `jal`/`jalr`.
    pub const RA: Reg = Reg(31);

    /// Number of architectural registers.
    pub const COUNT: usize = 32;

    /// First register index available to the register allocator.
    ///
    /// `r1..=r27` are allocatable; `r0` is the zero register and
    /// `r28..=r31` have ABI roles.
    pub const FIRST_ALLOCATABLE: u8 = 1;
    /// One past the last register index available to the register allocator.
    pub const LAST_ALLOCATABLE: u8 = 27;

    /// Returns the register with the given index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    #[must_use]
    pub fn r(index: u8) -> Reg {
        assert!(
            (index as usize) < Reg::COUNT,
            "register index {index} out of range"
        );
        Reg(index)
    }

    /// Returns the register index in `0..32`.
    #[must_use]
    #[inline]
    pub fn index(self) -> u8 {
        self.0
    }

    /// Returns `true` for the hard-wired zero register.
    #[must_use]
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Iterates over every architectural register in index order.
    pub fn all() -> impl Iterator<Item = Reg> {
        (0..Reg::COUNT as u8).map(Reg)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Reg::GP => f.write_str("gp"),
            Reg::FP => f.write_str("fp"),
            Reg::SP => f.write_str("sp"),
            Reg::RA => f.write_str("ra"),
            Reg(n) => write!(f, "r{n}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_register_zero() {
        assert_eq!(Reg::ZERO.index(), 0);
        assert!(Reg::ZERO.is_zero());
        assert!(!Reg::SP.is_zero());
    }

    #[test]
    fn abi_registers_have_expected_indices() {
        assert_eq!(Reg::GP.index(), 28);
        assert_eq!(Reg::FP.index(), 29);
        assert_eq!(Reg::SP.index(), 30);
        assert_eq!(Reg::RA.index(), 31);
    }

    #[test]
    fn display_names() {
        assert_eq!(Reg::r(5).to_string(), "r5");
        assert_eq!(Reg::GP.to_string(), "gp");
        assert_eq!(Reg::FP.to_string(), "fp");
        assert_eq!(Reg::SP.to_string(), "sp");
        assert_eq!(Reg::RA.to_string(), "ra");
    }

    #[test]
    fn all_yields_32_unique_registers() {
        let regs: Vec<Reg> = Reg::all().collect();
        assert_eq!(regs.len(), 32);
        for (i, r) in regs.iter().enumerate() {
            assert_eq!(r.index() as usize, i);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let _ = Reg::r(32);
    }

    #[test]
    fn allocatable_window_excludes_abi_registers() {
        let abi = [Reg::ZERO, Reg::GP, Reg::FP, Reg::SP, Reg::RA];
        for idx in Reg::FIRST_ALLOCATABLE..=Reg::LAST_ALLOCATABLE {
            assert!(!abi.contains(&Reg::r(idx)));
        }
    }
}
