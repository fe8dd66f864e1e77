//! Small numeric helpers shared by the compiler and simulators.

/// Integer division rounding up.
///
/// # Examples
///
/// ```
/// assert_eq!(ptsim_common::util::ceil_div(7, 3), 3);
/// assert_eq!(ptsim_common::util::ceil_div(6, 3), 2);
/// assert_eq!(ptsim_common::util::ceil_div(0, 3), 0);
/// ```
pub const fn ceil_div(a: u64, b: u64) -> u64 {
    a.div_ceil(b)
}

/// Rounds `a` up to the next multiple of `align`.
///
/// # Panics
///
/// Panics if `align` is zero.
///
/// # Examples
///
/// ```
/// assert_eq!(ptsim_common::util::align_up(100, 64), 128);
/// assert_eq!(ptsim_common::util::align_up(128, 64), 128);
/// ```
pub const fn align_up(a: u64, align: u64) -> u64 {
    ceil_div(a, align) * align
}

/// Mean absolute percentage error between measured and reference series, in
/// percent. Used by the Fig. 5 accuracy harness.
///
/// Entries whose reference is zero are skipped.
///
/// # Examples
///
/// ```
/// let mae = ptsim_common::util::mean_abs_pct_error(&[110.0, 90.0], &[100.0, 100.0]);
/// assert!((mae - 10.0).abs() < 1e-9);
/// ```
pub fn mean_abs_pct_error(measured: &[f64], reference: &[f64]) -> f64 {
    assert_eq!(measured.len(), reference.len(), "series length mismatch");
    let mut total = 0.0;
    let mut n = 0usize;
    for (&m, &r) in measured.iter().zip(reference) {
        if r != 0.0 {
            total += ((m - r) / r).abs();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        100.0 * total / n as f64
    }
}

/// Geometric mean of a positive series; returns 0.0 for an empty series.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|x| x.ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn align_up_basics() {
        assert_eq!(align_up(0, 8), 0);
        assert_eq!(align_up(1, 8), 8);
        assert_eq!(align_up(8, 8), 8);
        assert_eq!(align_up(9, 8), 16);
    }

    #[test]
    fn geomean_of_identity() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn mae_skips_zero_reference() {
        let mae = mean_abs_pct_error(&[1.0, 110.0], &[0.0, 100.0]);
        assert!((mae - 10.0).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn ceil_div_is_exact_upper_bound(a in 0u64..1_000_000, b in 1u64..10_000) {
            let q = ceil_div(a, b);
            prop_assert!(q * b >= a);
            prop_assert!(q == 0 || (q - 1) * b < a);
        }

        #[test]
        fn align_up_is_aligned_and_minimal(a in 0u64..1_000_000, align in 1u64..4096) {
            let r = align_up(a, align);
            prop_assert_eq!(r % align, 0);
            prop_assert!(r >= a);
            prop_assert!(r < a + align);
        }
    }
}
