//! Strongly-typed identifiers used across the simulator.
//!
//! Each identifier is a zero-cost newtype over an integer, following the
//! newtype guideline (C-NEWTYPE): a [`CoreId`] can never be confused with a
//! [`ChannelId`] at a call site even though both are small integers.

use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u32);

        impl $name {
            /// Creates a new identifier from a raw index.
            pub const fn new(raw: u32) -> Self {
                Self(raw)
            }

            /// Returns the raw index.
            pub const fn raw(self) -> u32 {
                self.0
            }

            /// Returns the raw index as a `usize`, for container indexing.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(raw: u32) -> Self {
                Self(raw)
            }
        }

        impl From<usize> for $name {
            fn from(raw: usize) -> Self {
                Self(raw as u32)
            }
        }
    };
}

define_id!(
    /// Identifies one NPU core within the simulated system.
    CoreId,
    "core"
);
define_id!(
    /// Identifies one DRAM channel (e.g. one HBM pseudo-channel).
    ChannelId,
    "ch"
);
define_id!(
    /// Identifies a node inside a Tile Operation Graph (TOG).
    NodeId,
    "n"
);
define_id!(
    /// Identifies one tenant (co-located model) in multi-model scenarios.
    TenantId,
    "tenant"
);

/// Identifies an in-flight memory request or inference request.
///
/// `RequestId` is 64-bit because long simulations can issue billions of
/// memory transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RequestId(pub u64);

impl RequestId {
    /// Creates a new request identifier from a raw value.
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// Returns the raw value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req{}", self.0)
    }
}

/// A monotonically increasing generator of [`RequestId`]s.
#[derive(Debug, Clone, Default)]
pub struct RequestIdGen {
    next: u64,
}

impl RequestIdGen {
    /// Creates a generator starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a fresh, never-before-issued identifier.
    pub fn next_id(&mut self) -> RequestId {
        let id = RequestId(self.next);
        self.next += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(CoreId::new(3).to_string(), "core3");
        assert_eq!(ChannelId::new(1).to_string(), "ch1");
        assert_eq!(NodeId::new(42).to_string(), "n42");
        assert_eq!(RequestId::new(7).to_string(), "req7");
    }

    #[test]
    fn ids_are_distinct_types() {
        // This is a compile-time property; here we just exercise conversions.
        let c: CoreId = 2usize.into();
        assert_eq!(c.index(), 2);
        assert_eq!(CoreId::from(2u32), c);
    }

    #[test]
    fn request_id_gen_is_monotonic() {
        let mut gen = RequestIdGen::new();
        let a = gen.next_id();
        let b = gen.next_id();
        assert!(b > a);
        assert_eq!(a.raw(), 0);
        assert_eq!(b.raw(), 1);
    }
}
