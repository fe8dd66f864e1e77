//! Simulated-time arithmetic.
//!
//! All simulators in the workspace agree on a single notion of time: the
//! [`Cycle`], counted in *core clock* cycles of the simulated NPU. Components
//! with their own clock domains (DRAM, NoC) convert at their boundary.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in (or duration of) simulated time, in NPU core clock cycles.
///
/// `Cycle` is an ordered, saturating-free wrapper over `u64`; overflow in a
/// simulation would indicate a bug, so arithmetic panics in debug builds the
/// same way `u64` does.
///
/// # Examples
///
/// ```
/// use ptsim_common::cycles::Cycle;
///
/// let start = Cycle::new(100);
/// let end = start + 40;
/// assert_eq!(end - start, 40);
/// assert_eq!(end.raw(), 140);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(pub u64);

impl Cycle {
    /// Time zero.
    pub const ZERO: Cycle = Cycle(0);
    /// The maximum representable time; used as "never" in event queues.
    pub const MAX: Cycle = Cycle(u64::MAX);

    /// Creates a cycle count from a raw value.
    pub const fn new(raw: u64) -> Self {
        Cycle(raw)
    }

    /// Returns the raw cycle count.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the later of two time points.
    pub fn max(self, other: Cycle) -> Cycle {
        Cycle(self.0.max(other.0))
    }

    /// Returns the earlier of two time points.
    pub fn min(self, other: Cycle) -> Cycle {
        Cycle(self.0.min(other.0))
    }

    /// Difference `self - earlier`, saturating at zero instead of panicking.
    pub fn saturating_since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// Returns `self` advanced by `delta` cycles.
    pub fn after(self, delta: u64) -> Cycle {
        Cycle(self.0 + delta)
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<u64> for Cycle {
    type Output = Cycle;
    fn sub(self, rhs: u64) -> Cycle {
        Cycle(self.0 - rhs)
    }
}

impl SubAssign<u64> for Cycle {
    fn sub_assign(&mut self, rhs: u64) {
        self.0 -= rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;
    fn sub(self, rhs: Cycle) -> u64 {
        self.0 - rhs.0
    }
}

impl From<u64> for Cycle {
    fn from(raw: u64) -> Self {
        Cycle(raw)
    }
}

impl Sum<u64> for Cycle {
    fn sum<I: Iterator<Item = u64>>(iter: I) -> Self {
        Cycle(iter.sum())
    }
}

/// Converts a duration in nanoseconds to cycles at `freq_mhz`, rounding up.
///
/// DRAM timing parameters are specified in nanoseconds (§4.1 of the paper);
/// this is the canonical conversion into a clock domain.
///
/// # Examples
///
/// ```
/// use ptsim_common::cycles::ns_to_cycles;
/// // 8 ns at 940 MHz = 7.52 cycles, rounds up to 8.
/// assert_eq!(ns_to_cycles(8.0, 940.0), 8);
/// ```
pub fn ns_to_cycles(ns: f64, freq_mhz: f64) -> u64 {
    (ns * freq_mhz / 1000.0).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_round_trips() {
        let a = Cycle::new(10);
        let b = a + 5;
        assert_eq!(b - a, 5);
        assert_eq!(b - 5, a);
        let mut c = a;
        c += 1;
        assert_eq!(c.raw(), 11);
        c -= 1;
        assert_eq!(c, a);
    }

    #[test]
    fn saturating_since_never_underflows() {
        assert_eq!(Cycle::new(3).saturating_since(Cycle::new(10)), 0);
        assert_eq!(Cycle::new(10).saturating_since(Cycle::new(3)), 7);
    }

    #[test]
    fn ns_conversion_rounds_up() {
        assert_eq!(ns_to_cycles(1.0, 1000.0), 1);
        assert_eq!(ns_to_cycles(1.5, 1000.0), 2);
        assert_eq!(ns_to_cycles(0.0, 940.0), 0);
        assert_eq!(ns_to_cycles(18.0, 940.0), 17); // 16.92 -> 17
    }

    #[test]
    fn min_max_order() {
        let a = Cycle::new(1);
        let b = Cycle::new(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }
}
