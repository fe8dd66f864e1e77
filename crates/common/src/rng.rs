//! The workspace's one pseudo-random generator: SplitMix64.
//!
//! Every seeded draw in the tree goes through [`Rng`] — sparse tile
//! contents, the synthetic-MNIST set, Poisson tenant arrivals, dense weight
//! init, and every `ptsim-check` case — so a seed names the same stream on
//! every build. The stream is pinned by the unit tests below; changing it
//! moves figure numbers and replay handles.
//!
//! # Examples
//!
//! ```
//! use ptsim_common::rng::Rng;
//!
//! let mut a = Rng::seed_from_u64(42);
//! let mut b = Rng::seed_from_u64(42);
//! let x: usize = a.gen_range(0..10);
//! assert_eq!(x, b.gen_range(0..10));
//! assert!((0.0..1.0).contains(&a.next_f64()));
//! ```

use std::ops::Range;

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 finalizer: one step of the generator applied to `x`.
/// Also the workspace's sub-seed mixer (per-tenant and per-lane seeds).
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A stream starting at `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let z = splitmix(self.state);
        self.state = self.state.wrapping_add(GOLDEN);
        z
    }

    /// A float in `[0, 1)` from the top 53 bits of the next draw.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A value in `range` (half-open). Integers reduce the next draw modulo
    /// the span; floats scale [`Rng::next_f64`].
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        assert!(range.start < range.end, "empty range");
        T::sample(self, range)
    }

    /// `true` with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// Types [`Rng::gen_range`] draws uniformly from a `Range`.
pub trait SampleUniform: Copy + PartialOrd {
    /// One draw from the non-empty `range`.
    fn sample(rng: &mut Rng, range: Range<Self>) -> Self;
}

macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample(rng: &mut Rng, range: Range<Self>) -> Self {
                let span = (range.end as i128 - range.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (range.start as i128 + v as i128) as $t
            }
        }
    )*};
}

impl_sample_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_sample_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample(rng: &mut Rng, range: Range<Self>) -> Self {
                range.start + (range.end - range.start) * rng.next_f64() as $t
            }
        }
    )*};
}

impl_sample_float!(f32, f64);

#[cfg(test)]
mod tests {
    use super::*;

    // Values captured from the generator every seeded result in the tree
    // was produced with; a change here moves figures and replay handles.
    #[test]
    fn stream_is_pinned() {
        let first4 = |seed| {
            let mut r = Rng::seed_from_u64(seed);
            [r.next_u64(), r.next_u64(), r.next_u64(), r.next_u64()]
        };
        assert_eq!(
            first4(0),
            [16294208416658607535, 7960286522194355700, 487617019471545679, 17909611376780542444]
        );
        assert_eq!(
            first4(42),
            [13679457532755275413, 2949826092126892291, 5139283748462763858, 6349198060258255764]
        );
    }

    #[test]
    fn typed_draws_are_pinned() {
        let mut r = Rng::seed_from_u64(7);
        assert_eq!(r.gen_range(0..1000usize), 487);
        assert_eq!(r.gen_range(100u64..5_001), 590);
        assert_eq!(r.gen_range(-1.0f32..1.0).to_bits(), 0x3f4d_3082);
        assert_eq!(r.gen_range(f64::EPSILON..1.0).to_bits(), 0x3fe2_a75d_6e0c_e7c6);
        assert!(!r.gen_bool(0.15));
    }

    #[test]
    fn splitmix_is_one_generator_step() {
        for seed in [0, 1, 42, u64::MAX] {
            assert_eq!(Rng::seed_from_u64(seed).next_u64(), splitmix(seed));
        }
    }
}
