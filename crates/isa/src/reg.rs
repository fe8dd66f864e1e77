//! Scalar and vector register names.

use std::fmt;

/// Number of scalar registers (`x0` is hardwired to zero, as in RISC-V).
pub const NUM_SCALAR_REGS: u8 = 32;
/// Number of architectural vector registers per vector unit.
pub const NUM_VECTOR_REGS: u8 = 32;

/// A scalar (integer) register, `x0..x31`.
///
/// `x0` always reads as zero and ignores writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Reg(u8);

impl Reg {
    /// The hardwired-zero register.
    pub const ZERO: Reg = Reg(0);

    /// Creates a register name.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`; register allocation is compiler-internal, so
    /// an out-of-range name is a compiler bug.
    pub const fn new(index: u8) -> Self {
        assert!(index < NUM_SCALAR_REGS, "scalar register index out of range");
        Reg(index)
    }

    /// The register index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw encoding field.
    pub const fn raw(self) -> u8 {
        self.0
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A vector register, `v0..v31`.
///
/// One architectural vector register spans every vector unit: with `U` units
/// of `L` lanes, it holds `U × L` f32 elements (the VCIX-style wide
/// interface of §3.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VReg(u8);

impl VReg {
    /// Creates a vector register name.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    pub const fn new(index: u8) -> Self {
        assert!(index < NUM_VECTOR_REGS, "vector register index out of range");
        VReg(index)
    }

    /// The register index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw encoding field.
    pub const fn raw(self) -> u8 {
        self.0
    }
}

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_display_like_riscv() {
        assert_eq!(Reg::new(5).to_string(), "x5");
        assert_eq!(VReg::new(31).to_string(), "v31");
        assert_eq!(Reg::ZERO.to_string(), "x0");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn scalar_register_range_is_enforced() {
        let _ = Reg::new(32);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn vector_register_range_is_enforced() {
        let _ = VReg::new(32);
    }
}
