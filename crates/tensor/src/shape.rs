//! Tensor shapes, strides and broadcasting rules.

use ptsim_common::{Error, Result};
use std::fmt;

/// The dimensions of a tensor, outermost first (row-major / C order).
///
/// # Examples
///
/// ```
/// use ptsim_tensor::shape::Shape;
///
/// let s = Shape::new(vec![2, 3, 4]);
/// assert_eq!(s.numel(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from its dimensions.
    pub fn new(dims: Vec<usize>) -> Self {
        Shape(dims)
    }

    /// A zero-dimensional (scalar) shape.
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// The dimensions as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total element count (1 for scalars).
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Returns the size of dimension `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= rank()`.
    pub fn dim(&self, axis: usize) -> usize {
        self.0[axis]
    }

    /// Row-major strides, in elements.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index to a flat offset.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if the index rank differs or any
    /// coordinate is out of range.
    pub fn flat_index(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.rank() {
            return Err(Error::shape(format!(
                "index rank {} does not match shape rank {}",
                index.len(),
                self.rank()
            )));
        }
        let mut flat = 0;
        for ((&i, &d), stride) in index.iter().zip(&self.0).zip(self.strides()) {
            if i >= d {
                return Err(Error::shape(format!("index {i} out of range for dim of size {d}")));
            }
            flat += i * stride;
        }
        Ok(flat)
    }

    /// Computes the NumPy-style broadcast of two shapes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if any pair of trailing dimensions is
    /// incompatible (neither equal nor 1).
    pub fn broadcast(&self, other: &Shape) -> Result<Shape> {
        let rank = self.rank().max(other.rank());
        let mut dims = vec![0; rank];
        for i in 0..rank {
            let a = self.0.get(self.rank().wrapping_sub(1 + i).min(self.rank())).copied();
            // Simpler explicit computation below.
            let _ = a;
            let da = if i < self.rank() { self.0[self.rank() - 1 - i] } else { 1 };
            let db = if i < other.rank() { other.0[other.rank() - 1 - i] } else { 1 };
            dims[rank - 1 - i] = if da == db {
                da
            } else if da == 1 {
                db
            } else if db == 1 {
                da
            } else {
                return Err(Error::shape(format!("cannot broadcast {self} with {other}")));
            };
        }
        Ok(Shape(dims))
    }

    /// True if this shape can be reshaped to `other` (same element count).
    pub fn is_reshape_compatible(&self, other: &Shape) -> bool {
        self.numel() == other.numel()
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape(dims.to_vec())
    }
}

/// Iterates over all multi-dimensional indices of a shape in row-major order.
#[derive(Debug, Clone)]
pub struct IndexIter {
    dims: Vec<usize>,
    next: Option<Vec<usize>>,
}

impl IndexIter {
    /// Creates an iterator over all indices of `shape`.
    pub fn new(shape: &Shape) -> Self {
        let next = if shape.numel() == 0 { None } else { Some(vec![0; shape.rank()]) };
        IndexIter { dims: shape.dims().to_vec(), next }
    }
}

impl Iterator for IndexIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        let current = self.next.clone()?;
        // Advance odometer-style.
        let mut idx = current.clone();
        let mut done = true;
        for i in (0..idx.len()).rev() {
            idx[i] += 1;
            if idx[i] < self.dims[i] {
                done = false;
                break;
            }
            idx[i] = 0;
        }
        self.next = if done || idx.is_empty() { None } else { Some(idx) };
        Some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn strides_are_row_major() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(Shape::scalar().strides(), Vec::<usize>::new());
    }

    #[test]
    fn flat_index_detects_out_of_range() {
        let s = Shape::new(vec![2, 3]);
        assert_eq!(s.flat_index(&[1, 2]).unwrap(), 5);
        assert!(s.flat_index(&[2, 0]).is_err());
        assert!(s.flat_index(&[0]).is_err());
    }

    #[test]
    fn broadcasting_follows_numpy_rules() {
        let a = Shape::new(vec![4, 1, 3]);
        let b = Shape::new(vec![2, 3]);
        assert_eq!(a.broadcast(&b).unwrap(), Shape::new(vec![4, 2, 3]));
        let c = Shape::new(vec![5]);
        assert!(a.broadcast(&c).is_err());
    }

    #[test]
    fn index_iter_visits_all_in_order() {
        let s = Shape::new(vec![2, 2]);
        let all: Vec<_> = IndexIter::new(&s).collect();
        assert_eq!(all, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
        assert_eq!(IndexIter::new(&Shape::new(vec![0, 2])).count(), 0);
        // A scalar has exactly one (empty) index.
        assert_eq!(IndexIter::new(&Shape::scalar()).count(), 1);
    }

    proptest! {
        #[test]
        fn index_iter_count_matches_numel(dims in proptest::collection::vec(1usize..5, 0..4)) {
            let s = Shape::new(dims);
            prop_assert_eq!(IndexIter::new(&s).count(), s.numel());
        }

        #[test]
        fn flat_index_is_bijective(dims in proptest::collection::vec(1usize..5, 1..4)) {
            let s = Shape::new(dims);
            let mut seen = std::collections::HashSet::new();
            for idx in IndexIter::new(&s) {
                let flat = s.flat_index(&idx).unwrap();
                prop_assert!(flat < s.numel());
                prop_assert!(seen.insert(flat));
            }
        }

        #[test]
        fn broadcast_is_commutative(
            a in proptest::collection::vec(1usize..4, 0..4),
            b in proptest::collection::vec(1usize..4, 0..4),
        ) {
            let (sa, sb) = (Shape::new(a), Shape::new(b));
            match (sa.broadcast(&sb), sb.broadcast(&sa)) {
                (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
                (Err(_), Err(_)) => {}
                _ => prop_assert!(false, "broadcast not symmetric"),
            }
        }
    }
}
