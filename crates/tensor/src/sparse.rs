//! Sparse matrices in CSR form.
//!
//! The sparse substrate backs the heterogeneous dense–sparse NPU case study
//! (§5.1): SpMSpM tiles with data-dependent latencies are extracted from CSR
//! operands and their per-tile cost is measured by functional simulation.

use crate::dense::Tensor;
use ptsim_common::rng::Rng;
use ptsim_common::{Error, Result};

/// A compressed-sparse-row `f32` matrix.
///
/// # Examples
///
/// ```
/// use ptsim_tensor::sparse::CsrMatrix;
/// use ptsim_tensor::Tensor;
///
/// let d = Tensor::from_vec(vec![1.0, 0.0, 0.0, 2.0], [2, 2])?;
/// let s = CsrMatrix::from_dense(&d, 0.0)?;
/// assert_eq!(s.nnz(), 2);
/// assert!(s.to_dense().allclose(&d, 0.0));
/// # Ok::<(), ptsim_common::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from triplets, which need not be sorted.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if any coordinate is out of range or
    /// duplicated.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        mut triplets: Vec<(usize, usize, f32)>,
    ) -> Result<Self> {
        triplets.sort_by_key(|&(r, c, _)| (r, c));
        for w in triplets.windows(2) {
            if w[0].0 == w[1].0 && w[0].1 == w[1].1 {
                return Err(Error::shape(format!("duplicate entry at ({}, {})", w[0].0, w[0].1)));
            }
        }
        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        for &(r, c, v) in &triplets {
            if r >= rows || c >= cols {
                return Err(Error::shape(format!("entry ({r}, {c}) out of {rows}x{cols}")));
            }
            row_ptr[r + 1] += 1;
            col_idx.push(c);
            values.push(v);
        }
        for r in 0..rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        Ok(CsrMatrix { rows, cols, row_ptr, col_idx, values })
    }

    /// Converts a dense 2-D tensor, dropping entries with `|v| <= tol`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if `dense` is not 2-D.
    pub fn from_dense(dense: &Tensor, tol: f32) -> Result<Self> {
        let dims = dense.dims();
        if dims.len() != 2 {
            return Err(Error::shape(format!("csr requires 2-D tensor, got {}", dense.shape())));
        }
        let (rows, cols) = (dims[0], dims[1]);
        let mut triplets = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let v = dense.data()[r * cols + c];
                if v.abs() > tol {
                    triplets.push((r, c, v));
                }
            }
        }
        Self::from_triplets(rows, cols, triplets)
    }

    /// A random matrix with the given fraction of nonzeros, deterministic in
    /// `seed`. `density` is clamped to `[0, 1]`.
    pub fn random(rows: usize, cols: usize, density: f64, seed: u64) -> Self {
        let density = density.clamp(0.0, 1.0);
        let mut rng = Rng::seed_from_u64(seed);
        let mut triplets = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if rng.gen_bool(density) {
                    triplets.push((r, c, rng.gen_range(-1.0f32..1.0)));
                }
            }
        }
        Self::from_triplets(rows, cols, triplets).expect("generated coordinates are in range")
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of entries that are nonzero.
    pub fn density(&self) -> f64 {
        if self.rows * self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows * self.cols) as f64
        }
    }

    /// Nonzeros of one row as `(col, value)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows()`.
    pub fn row(&self, row: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let (lo, hi) = (self.row_ptr[row], self.row_ptr[row + 1]);
        self.col_idx[lo..hi].iter().copied().zip(self.values[lo..hi].iter().copied())
    }

    /// Number of nonzeros in one row.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows()`.
    pub fn row_nnz(&self, row: usize) -> usize {
        self.row_ptr[row + 1] - self.row_ptr[row]
    }

    /// Converts to a dense tensor.
    pub fn to_dense(&self) -> Tensor {
        let mut out = vec![0.0f32; self.rows * self.cols];
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                out[r * self.cols + c] = v;
            }
        }
        Tensor::from_vec(out, [self.rows, self.cols]).expect("csr geometry is consistent")
    }

    /// Extracts the sub-matrix `[r0..r0+h, c0..c0+w]` as a new CSR tile.
    ///
    /// Ranges are clipped to the matrix bounds; an empty range produces an
    /// empty tile. This is how per-tile operands are produced for the sparse
    /// core's data-dependent latency extraction.
    pub fn tile(&self, r0: usize, c0: usize, h: usize, w: usize) -> CsrMatrix {
        let r1 = (r0 + h).min(self.rows);
        let c1 = (c0 + w).min(self.cols);
        let th = r1.saturating_sub(r0);
        let tw = c1.saturating_sub(c0);
        let mut triplets = Vec::new();
        for r in r0..r1 {
            for (c, v) in self.row(r) {
                if c >= c0 && c < c1 {
                    triplets.push((r - r0, c - c0, v));
                }
            }
        }
        CsrMatrix::from_triplets(th, tw, triplets).expect("tile coordinates are in range")
    }

    /// Sparse × sparse matrix multiplication (SpMSpM), outer-product
    /// dataflow: iterates columns of `self` against rows of `other`,
    /// accumulating partial products — the Flexagon dataflow used in §5.1.
    ///
    /// Returns `(result, multiplies)` where `multiplies` is the number of
    /// scalar multiply-accumulates actually performed (the data-dependent
    /// work that drives the sparse core's timing model).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if the inner dimensions differ.
    pub fn spmspm(&self, other: &CsrMatrix) -> Result<(CsrMatrix, u64)> {
        if self.cols != other.rows {
            return Err(Error::shape(format!(
                "spmspm requires [m,k]x[k,n], got {}x{} x {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        // Outer product over the shared dimension k: column k of A with
        // row k of B. CSR stores rows, so build a column view of A first.
        let mut a_cols: Vec<Vec<(usize, f32)>> = vec![Vec::new(); self.cols];
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                a_cols[c].push((r, v));
            }
        }
        let mut acc: std::collections::HashMap<(usize, usize), f32> =
            std::collections::HashMap::new();
        let mut muls = 0u64;
        #[allow(clippy::needless_range_loop)] // k simultaneously indexes a_cols and other.row(k)
        for k in 0..self.cols {
            if a_cols[k].is_empty() || other.row_nnz(k) == 0 {
                continue;
            }
            for &(r, av) in &a_cols[k] {
                for (c, bv) in other.row(k) {
                    *acc.entry((r, c)).or_insert(0.0) += av * bv;
                    muls += 1;
                }
            }
        }
        let triplets: Vec<_> = acc.into_iter().map(|((r, c), v)| (r, c, v)).collect();
        Ok((CsrMatrix::from_triplets(self.rows, other.cols, triplets)?, muls))
    }

    /// Sparse × dense multiplication, returning a dense result.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if dimensions are incompatible.
    pub fn spmm_dense(&self, dense: &Tensor) -> Result<Tensor> {
        let d = dense.dims();
        if d.len() != 2 || d[0] != self.cols {
            return Err(Error::shape(format!(
                "spmm requires [m,k]x[k,n], got {}x{} x {}",
                self.rows,
                self.cols,
                dense.shape()
            )));
        }
        let n = d[1];
        let mut out = vec![0.0f32; self.rows * n];
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                let b_row = &dense.data()[c * n..(c + 1) * n];
                let o_row = &mut out[r * n..(r + 1) * n];
                for (o, &b) in o_row.iter_mut().zip(b_row) {
                    *o += v * b;
                }
            }
        }
        Tensor::from_vec(out, [self.rows, n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dense_round_trip() {
        let d = Tensor::from_vec(vec![0.0, 1.0, 2.0, 0.0, 0.0, 3.0], [2, 3]).unwrap();
        let s = CsrMatrix::from_dense(&d, 0.0).unwrap();
        assert_eq!(s.nnz(), 3);
        assert_eq!(s.to_dense(), d);
    }

    #[test]
    fn duplicate_triplets_are_rejected() {
        let t = vec![(0, 0, 1.0), (0, 0, 2.0)];
        assert!(CsrMatrix::from_triplets(2, 2, t).is_err());
    }

    #[test]
    fn out_of_range_triplets_are_rejected() {
        assert!(CsrMatrix::from_triplets(2, 2, vec![(2, 0, 1.0)]).is_err());
    }

    #[test]
    fn random_density_is_approximate() {
        let s = CsrMatrix::random(100, 100, 0.05, 42);
        assert!((s.density() - 0.05).abs() < 0.02, "density {}", s.density());
    }

    #[test]
    fn tile_extracts_submatrix() {
        let d = Tensor::arange(16).reshape([4, 4]).unwrap();
        let s = CsrMatrix::from_dense(&d, 0.0).unwrap();
        let t = s.tile(1, 1, 2, 2);
        let expected = Tensor::from_vec(vec![5.0, 6.0, 9.0, 10.0], [2, 2]).unwrap();
        assert!(t.to_dense().allclose(&expected, 0.0));
        // Clipped tile at the border.
        let edge = s.tile(3, 3, 2, 2);
        assert_eq!(edge.rows(), 1);
        assert_eq!(edge.cols(), 1);
    }

    #[test]
    fn spmspm_counts_multiplies() {
        let a = CsrMatrix::from_triplets(2, 2, vec![(0, 0, 2.0)]).unwrap();
        let b = CsrMatrix::from_triplets(2, 2, vec![(0, 0, 3.0), (0, 1, 4.0)]).unwrap();
        let (c, muls) = a.spmspm(&b).unwrap();
        assert_eq!(muls, 2);
        let expected = Tensor::from_vec(vec![6.0, 8.0, 0.0, 0.0], [2, 2]).unwrap();
        assert!(c.to_dense().allclose(&expected, 1e-6));
    }

    proptest! {
        #[test]
        fn spmspm_matches_dense_matmul(seed in 0u64..30) {
            let a = CsrMatrix::random(8, 6, 0.4, seed);
            let b = CsrMatrix::random(6, 7, 0.4, seed + 1000);
            let (c, _) = a.spmspm(&b).unwrap();
            let dense = a.to_dense().matmul(&b.to_dense()).unwrap();
            prop_assert!(c.to_dense().allclose(&dense, 1e-4));
        }

        #[test]
        fn spmm_dense_matches_dense_matmul(seed in 0u64..30) {
            let a = CsrMatrix::random(5, 6, 0.5, seed);
            let b = Tensor::randn([6, 4], seed);
            let c = a.spmm_dense(&b).unwrap();
            let dense = a.to_dense().matmul(&b).unwrap();
            prop_assert!(c.allclose(&dense, 1e-4));
        }

        #[test]
        fn tile_then_dense_equals_dense_then_slice(seed in 0u64..20) {
            let s = CsrMatrix::random(6, 6, 0.5, seed);
            let t = s.tile(2, 2, 3, 3);
            let full = s.to_dense();
            for r in 0..3 {
                for c in 0..3 {
                    prop_assert_eq!(
                        t.to_dense().at(&[r, c]).unwrap(),
                        full.at(&[r + 2, c + 2]).unwrap()
                    );
                }
            }
        }
    }
}
