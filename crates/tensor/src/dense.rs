//! Dense `f32` tensors with row-major storage.

use crate::shape::{IndexIter, Shape};
use ptsim_common::rng::Rng;
use ptsim_common::{Error, Result};

/// A dense, row-major tensor of `f32` values.
///
/// This is the numeric substrate standing in for PyTorch's eager tensors: it
/// backs the functional model, the autodiff engine, and the model zoo.
///
/// # Examples
///
/// ```
/// use ptsim_tensor::Tensor;
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2])?;
/// let b = Tensor::eye(2);
/// let c = a.matmul(&b)?;
/// assert_eq!(c.data(), a.data());
/// # Ok::<(), ptsim_common::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from raw data and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if `data.len() != shape.numel()`.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Result<Self> {
        let shape = shape.into();
        if data.len() != shape.numel() {
            return Err(Error::shape(format!(
                "data length {} does not match shape {} ({} elements)",
                data.len(),
                shape,
                shape.numel()
            )));
        }
        Ok(Tensor { shape, data })
    }

    /// A tensor filled with zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor { shape, data: vec![0.0; n] }
    }

    /// A tensor filled with ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor { shape, data: vec![value; n] }
    }

    /// A square identity matrix of side `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros([n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Standard-normal random tensor from a deterministic seed.
    pub fn randn(shape: impl Into<Shape>, seed: u64) -> Self {
        let shape = shape.into();
        let mut rng = Rng::seed_from_u64(seed);
        let n = shape.numel();
        // Box-Muller transform over uniform draws.
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos());
            if data.len() < n {
                data.push(r * theta.sin());
            }
        }
        Tensor { shape, data }
    }

    /// Uniform random tensor in `[lo, hi)` from a deterministic seed.
    pub fn rand_uniform(shape: impl Into<Shape>, lo: f32, hi: f32, seed: u64) -> Self {
        let shape = shape.into();
        let mut rng = Rng::seed_from_u64(seed);
        let n = shape.numel();
        let data = (0..n).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor { shape, data }
    }

    /// A 1-D tensor of the integers `0..n` as `f32`.
    pub fn arange(n: usize) -> Self {
        Tensor { shape: Shape::new(vec![n]), data: (0..n).map(|i| i as f32).collect() }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The tensor's dimensions as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// The underlying storage, row-major.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying storage.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its storage.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] on a rank mismatch or out-of-range
    /// coordinate.
    pub fn at(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.flat_index(index)?])
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] on a rank mismatch or out-of-range
    /// coordinate.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let flat = self.shape.flat_index(index)?;
        self.data[flat] = value;
        Ok(())
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if the element counts differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Result<Tensor> {
        let shape = shape.into();
        if !self.shape.is_reshape_compatible(&shape) {
            return Err(Error::shape(format!("cannot reshape {} to {}", self.shape, shape)));
        }
        Ok(Tensor { shape, data: self.data.clone() })
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { shape: self.shape.clone(), data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Combines two tensors elementwise with NumPy broadcasting.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if the shapes cannot broadcast.
    pub fn zip_broadcast(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        if self.shape == other.shape {
            // Fast path: identical shapes.
            let data = self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect();
            return Ok(Tensor { shape: self.shape.clone(), data });
        }
        let out_shape = self.shape.broadcast(&other.shape)?;
        let mut out = Tensor::zeros(out_shape.clone());
        let a_dims = self.shape.dims();
        let b_dims = other.shape.dims();
        let a_strides = self.shape.strides();
        let b_strides = other.shape.strides();
        let rank = out_shape.rank();
        #[allow(clippy::needless_range_loop)] // lockstep over dims/strides of both operands
        for (flat, idx) in IndexIter::new(&out_shape).enumerate() {
            let mut ai = 0;
            let mut bi = 0;
            for d in 0..rank {
                if d + a_dims.len() >= rank {
                    let ad = d + a_dims.len() - rank;
                    if a_dims[ad] != 1 {
                        ai += idx[d] * a_strides[ad];
                    }
                }
                if d + b_dims.len() >= rank {
                    let bd = d + b_dims.len() - rank;
                    if b_dims[bd] != 1 {
                        bi += idx[d] * b_strides[bd];
                    }
                }
            }
            out.data[flat] = f(self.data[ai], other.data[bi]);
        }
        Ok(out)
    }

    /// Elementwise addition with broadcasting.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_broadcast(other, |a, b| a + b)
    }

    /// Elementwise subtraction with broadcasting.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_broadcast(other, |a, b| a - b)
    }

    /// Elementwise multiplication with broadcasting.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_broadcast(other, |a, b| a * b)
    }

    /// Elementwise division with broadcasting.
    pub fn div(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_broadcast(other, |a, b| a / b)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Matrix multiplication of 2-D tensors, `[m, k] × [k, n] -> [m, n]`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] unless both tensors are 2-D with a
    /// matching inner dimension.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        let (a_dims, b_dims) = (self.dims(), other.dims());
        if a_dims.len() != 2 || b_dims.len() != 2 || a_dims[1] != b_dims[0] {
            return Err(Error::shape(format!(
                "matmul requires [m,k]x[k,n], got {} x {}",
                self.shape, other.shape
            )));
        }
        let (m, k, n) = (a_dims[0], a_dims[1], b_dims[1]);
        let mut out = vec![0.0f32; m * n];
        // i-k-j loop order: streams through `other` and `out` rows.
        for i in 0..m {
            for p in 0..k {
                let a = self.data[i * k + p];
                if a == 0.0 {
                    continue;
                }
                let b_row = &other.data[p * n..(p + 1) * n];
                let o_row = &mut out[i * n..(i + 1) * n];
                for (o, &b) in o_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        Tensor::from_vec(out, [m, n])
    }

    /// Transpose of a 2-D tensor.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if the tensor is not 2-D.
    pub fn transpose2(&self) -> Result<Tensor> {
        let dims = self.dims();
        if dims.len() != 2 {
            return Err(Error::shape(format!(
                "transpose2 requires a 2-D tensor, got {}",
                self.shape
            )));
        }
        let (m, n) = (dims[0], dims[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::from_vec(out, [n, m])
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (negative infinity for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Reduces along `axis` by summation, dropping that axis.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if `axis` is out of range.
    pub fn sum_axis(&self, axis: usize) -> Result<Tensor> {
        if axis >= self.shape.rank() {
            return Err(Error::shape(format!("axis {axis} out of range for {}", self.shape)));
        }
        let dims = self.dims();
        let outer: usize = dims[..axis].iter().product();
        let axis_len = dims[axis];
        let inner: usize = dims[axis + 1..].iter().product();
        let mut out_dims = dims.to_vec();
        out_dims.remove(axis);
        let mut out = vec![0.0f32; outer * inner];
        for o in 0..outer {
            for a in 0..axis_len {
                let base = (o * axis_len + a) * inner;
                let out_base = o * inner;
                for i in 0..inner {
                    out[out_base + i] += self.data[base + i];
                }
            }
        }
        Tensor::from_vec(out, out_dims)
    }

    /// Index of the maximum element along the last axis, returned as `f32`
    /// class labels. Used for accuracy computation in the training study.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] for tensors of rank 0.
    pub fn argmax_last_axis(&self) -> Result<Tensor> {
        if self.shape.rank() == 0 {
            return Err(Error::shape("argmax requires rank >= 1".to_string()));
        }
        let dims = self.dims();
        let last = dims[dims.len() - 1];
        let rows = self.numel() / last.max(1);
        let mut out = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = &self.data[r * last..(r + 1) * last];
            let mut best = 0usize;
            for (i, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = i;
                }
            }
            out.push(best as f32);
        }
        Tensor::from_vec(out, dims[..dims.len() - 1].to_vec())
    }

    /// Maximum absolute difference against another tensor of the same shape.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32> {
        if self.shape != other.shape {
            return Err(Error::shape(format!("{} vs {}", self.shape, other.shape)));
        }
        Ok(self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0, f32::max))
    }

    /// True if every element is within `tol` of `other`.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.max_abs_diff(other).map(|d| d <= tol).unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors_produce_expected_values() {
        assert_eq!(Tensor::zeros([2, 2]).sum(), 0.0);
        assert_eq!(Tensor::ones([2, 2]).sum(), 4.0);
        assert_eq!(Tensor::eye(3).sum(), 3.0);
        assert_eq!(Tensor::arange(4).data(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 3], [2, 2]).is_err());
        assert!(Tensor::from_vec(vec![1.0; 4], [2, 2]).is_ok());
    }

    #[test]
    fn randn_is_deterministic_and_roughly_normal() {
        let a = Tensor::randn([1000], 7);
        let b = Tensor::randn([1000], 7);
        assert_eq!(a, b);
        let mean = a.mean();
        let var = a.map(|x| (x - mean) * (x - mean)).mean();
        assert!(mean.abs() < 0.15, "mean {mean}");
        assert!((var - 1.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], [3, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([2, 3]);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn broadcasting_add_row_vector() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]).unwrap();
        let bias = Tensor::from_vec(vec![10.0, 20.0], [2]).unwrap();
        let c = a.add(&bias).unwrap();
        assert_eq!(c.data(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn broadcasting_add_column_vector() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]).unwrap();
        let col = Tensor::from_vec(vec![10.0, 20.0], [2, 1]).unwrap();
        let c = a.add(&col).unwrap();
        assert_eq!(c.data(), &[11.0, 12.0, 23.0, 24.0]);
    }

    #[test]
    fn sum_axis_drops_the_axis() {
        let a = Tensor::from_vec((0..24).map(|x| x as f32).collect(), [2, 3, 4]).unwrap();
        let s0 = a.sum_axis(0).unwrap();
        assert_eq!(s0.dims(), &[3, 4]);
        assert_eq!(s0.at(&[0, 0]).unwrap(), 0.0 + 12.0);
        let s2 = a.sum_axis(2).unwrap();
        assert_eq!(s2.dims(), &[2, 3]);
        assert_eq!(s2.at(&[0, 0]).unwrap(), 0.0 + 1.0 + 2.0 + 3.0);
        assert!(a.sum_axis(3).is_err());
    }

    #[test]
    fn argmax_last_axis_finds_classes() {
        let logits = Tensor::from_vec(vec![0.1, 0.9, 0.0, 0.3, 0.2, 0.5], [2, 3]).unwrap();
        let pred = logits.argmax_last_axis().unwrap();
        assert_eq!(pred.data(), &[1.0, 2.0]);
    }

    #[test]
    fn transpose_is_involutive() {
        let a = Tensor::randn([3, 5], 1);
        let t = a.transpose2().unwrap();
        assert_eq!(t.dims(), &[5, 3]);
        assert_eq!(t.transpose2().unwrap(), a);
    }

    proptest! {
        #[test]
        fn matmul_identity_is_noop(m in 1usize..6, n in 1usize..6, seed in 0u64..100) {
            let a = Tensor::randn([m, n], seed);
            let id = Tensor::eye(n);
            let c = a.matmul(&id).unwrap();
            prop_assert!(c.allclose(&a, 1e-5));
        }

        #[test]
        fn matmul_transpose_identity(m in 1usize..5, k in 1usize..5, n in 1usize..5, seed in 0u64..50) {
            // (A B)^T == B^T A^T
            let a = Tensor::randn([m, k], seed);
            let b = Tensor::randn([k, n], seed + 1);
            let lhs = a.matmul(&b).unwrap().transpose2().unwrap();
            let rhs = b.transpose2().unwrap().matmul(&a.transpose2().unwrap()).unwrap();
            prop_assert!(lhs.allclose(&rhs, 1e-4));
        }

        #[test]
        fn add_commutes_under_broadcast(m in 1usize..5, n in 1usize..5, seed in 0u64..50) {
            let a = Tensor::randn([m, n], seed);
            let b = Tensor::randn([n], seed + 7);
            let x = a.add(&b).unwrap();
            let y = b.add(&a).unwrap();
            prop_assert!(x.allclose(&y, 1e-6));
        }

        #[test]
        fn reshape_preserves_data(seed in 0u64..50) {
            let a = Tensor::randn([4, 6], seed);
            let r = a.reshape([2, 12]).unwrap();
            prop_assert_eq!(r.data(), a.data());
            prop_assert!(a.reshape([5, 5]).is_err());
        }
    }
}
