//! The operator vocabulary of the computation graph and its shape rules.
//!
//! This mirrors the role of the ATen/Prims IR in PyTorch 2 (§2.2): a closed
//! set of tensor operators that the frontend captures and the NPU backend
//! lowers. Backward-pass operators (`*Grad`, `Conv2dBackward*`) are emitted
//! by the autodiff transformation, the analog of AOTAutograd.

use ptsim_common::{Error, Result};
use ptsim_tensor::ops::Conv2dParams;
use ptsim_tensor::{Shape, Tensor};

/// Convolution geometry carried by conv nodes (serializable mirror of
/// [`Conv2dParams`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvGeom {
    /// Stride along both spatial axes.
    pub stride: usize,
    /// Zero padding along both spatial axes.
    pub padding: usize,
}

impl ConvGeom {
    /// Creates a geometry with the given stride and padding.
    pub fn new(stride: usize, padding: usize) -> Self {
        ConvGeom { stride, padding }
    }
}

impl From<ConvGeom> for Conv2dParams {
    fn from(g: ConvGeom) -> Self {
        Conv2dParams { stride: g.stride, padding: g.padding }
    }
}

/// A graph operator.
///
/// Operator arity is fixed per variant and validated by
/// [`Op::infer_shape`]. Elementwise binary operators broadcast like NumPy.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Op {
    /// External input (activations); arity 0.
    Input,
    /// Trainable parameter; arity 0.
    Parameter,
    /// Compile-time constant; arity 0.
    Constant(Tensor),

    /// `[m,k] × [k,n] -> [m,n]`.
    MatMul,
    /// `[b,m,k] × [b,k,n] -> [b,m,n]`.
    BatchMatMul,
    /// 2-D convolution: `(input NCHW, weight KCKhKw)`.
    Conv2d(ConvGeom),

    /// Broadcasting elementwise addition.
    Add,
    /// Broadcasting elementwise subtraction.
    Sub,
    /// Broadcasting elementwise multiplication.
    Mul,
    /// Broadcasting elementwise division.
    Div,
    /// Multiply by a compile-time scalar.
    Scale(f32),

    /// Rectified linear unit.
    Relu,
    /// GELU (tanh approximation).
    Gelu,
    /// Hyperbolic tangent (SFU op on the NPU).
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// Natural exponential (SFU op on the NPU).
    Exp,
    /// Softmax along the last axis.
    Softmax,
    /// Layer normalization along the last axis: `(x, gamma, beta)`.
    LayerNorm {
        /// Numerical-stability epsilon.
        eps: f32,
    },

    /// Max pooling with square window and stride `k`.
    MaxPool2d {
        /// Window and stride.
        k: usize,
    },
    /// Global average pooling `[N,C,H,W] -> [N,C]`.
    GlobalAvgPool,

    /// Reshape to a fixed shape.
    Reshape(Shape),
    /// 2-D transpose.
    Transpose2,
    /// Swap the last two axes of a rank ≥ 2 tensor.
    TransposeLast2,
    /// Permute all axes by `perm`.
    Permute(Vec<usize>),
    /// Sum over one axis, dropping it.
    SumAxis {
        /// Axis to reduce.
        axis: usize,
    },
    /// Sum-reduce a broadcast result back to a target shape (used by
    /// autodiff for broadcasting binary ops).
    ReduceTo(Shape),

    /// Mean cross-entropy of `(logits, one-hot targets)` producing a scalar.
    CrossEntropyLoss,

    // ---- Backward operators (emitted by autodiff) ----
    /// Mask that is 1 where the input is positive: `(x)`.
    ReluGradMask,
    /// `(x, dy) -> dx` for GELU.
    GeluGrad,
    /// `(x, dy) -> dx` for tanh.
    TanhGrad,
    /// `(x, dy) -> dx` for sigmoid.
    SigmoidGrad,
    /// `(y, dy) -> dx` for softmax (y is the forward output).
    SoftmaxGrad,
    /// `(x, gamma, dy) -> dx` for layer norm.
    LayerNormGradX {
        /// Numerical-stability epsilon.
        eps: f32,
    },
    /// `(x, dy) -> dgamma` for layer norm.
    LayerNormGradGamma {
        /// Numerical-stability epsilon.
        eps: f32,
    },
    /// `(weight, dy) -> dx` for conv2d; needs the forward input shape.
    Conv2dBackwardInput {
        /// Convolution geometry.
        geom: ConvGeom,
        /// Forward input shape (NCHW).
        input_shape: Shape,
    },
    /// `(input, dy) -> dw` for conv2d; needs the forward weight shape.
    Conv2dBackwardWeight {
        /// Convolution geometry.
        geom: ConvGeom,
        /// Forward weight shape (KCKhKw).
        weight_shape: Shape,
    },
    /// `(x, dy) -> dx` for max pooling.
    MaxPool2dBackward {
        /// Window and stride.
        k: usize,
    },
    /// `(logits, targets) -> dlogits`, the fused cross-entropy gradient.
    CrossEntropyGrad,
}

impl Op {
    /// A short mnemonic used in graph dumps and kernel names.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Op::Input => "input",
            Op::Parameter => "param",
            Op::Constant(_) => "const",
            Op::MatMul => "matmul",
            Op::BatchMatMul => "bmm",
            Op::Conv2d(_) => "conv2d",
            Op::Add => "add",
            Op::Sub => "sub",
            Op::Mul => "mul",
            Op::Div => "div",
            Op::Scale(_) => "scale",
            Op::Relu => "relu",
            Op::Gelu => "gelu",
            Op::Tanh => "tanh",
            Op::Sigmoid => "sigmoid",
            Op::Exp => "exp",
            Op::Softmax => "softmax",
            Op::LayerNorm { .. } => "layernorm",
            Op::MaxPool2d { .. } => "maxpool2d",
            Op::GlobalAvgPool => "gavgpool",
            Op::Reshape(_) => "reshape",
            Op::Transpose2 => "transpose",
            Op::TransposeLast2 => "transpose_last2",
            Op::Permute(_) => "permute",
            Op::SumAxis { .. } => "sum_axis",
            Op::ReduceTo(_) => "reduce_to",
            Op::CrossEntropyLoss => "cross_entropy",
            Op::ReluGradMask => "relu_grad_mask",
            Op::GeluGrad => "gelu_grad",
            Op::TanhGrad => "tanh_grad",
            Op::SigmoidGrad => "sigmoid_grad",
            Op::SoftmaxGrad => "softmax_grad",
            Op::LayerNormGradX { .. } => "layernorm_grad_x",
            Op::LayerNormGradGamma { .. } => "layernorm_grad_gamma",
            Op::Conv2dBackwardInput { .. } => "conv2d_bwd_input",
            Op::Conv2dBackwardWeight { .. } => "conv2d_bwd_weight",
            Op::MaxPool2dBackward { .. } => "maxpool2d_bwd",
            Op::CrossEntropyGrad => "cross_entropy_grad",
        }
    }

    /// Number of operand tensors this operator consumes.
    pub fn arity(&self) -> usize {
        match self {
            Op::Input | Op::Parameter | Op::Constant(_) => 0,
            Op::MatMul
            | Op::BatchMatMul
            | Op::Conv2d(_)
            | Op::Add
            | Op::Sub
            | Op::Mul
            | Op::Div
            | Op::GeluGrad
            | Op::TanhGrad
            | Op::SigmoidGrad
            | Op::SoftmaxGrad
            | Op::LayerNormGradGamma { .. }
            | Op::Conv2dBackwardInput { .. }
            | Op::Conv2dBackwardWeight { .. }
            | Op::MaxPool2dBackward { .. }
            | Op::CrossEntropyLoss
            | Op::CrossEntropyGrad => 2,
            Op::LayerNorm { .. } | Op::LayerNormGradX { .. } => 3,
            _ => 1,
        }
    }

    /// True for matrix-unit operators that the compiler lowers to systolic
    /// array GEMM kernels; everything else runs on the vector/scalar units.
    pub fn uses_matrix_unit(&self) -> bool {
        matches!(
            self,
            Op::MatMul
                | Op::BatchMatMul
                | Op::Conv2d(_)
                | Op::Conv2dBackwardInput { .. }
                | Op::Conv2dBackwardWeight { .. }
        )
    }

    /// Infers the output shape from operand shapes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if the operand count or shapes are
    /// invalid for this operator.
    pub fn infer_shape(&self, inputs: &[&Shape]) -> Result<Shape> {
        if inputs.len() != self.arity() {
            return Err(Error::shape(format!(
                "{} expects {} operands, got {}",
                self.mnemonic(),
                self.arity(),
                inputs.len()
            )));
        }
        match self {
            Op::Input | Op::Parameter => {
                Err(Error::InvalidGraph("input/parameter shapes are declared, not inferred".into()))
            }
            Op::Constant(t) => Ok(t.shape().clone()),
            Op::MatMul => {
                let (a, b) = (inputs[0], inputs[1]);
                if a.rank() != 2 || b.rank() != 2 || a.dim(1) != b.dim(0) {
                    return Err(Error::shape(format!("matmul {a} x {b}")));
                }
                Ok(Shape::new(vec![a.dim(0), b.dim(1)]))
            }
            Op::BatchMatMul => {
                let (a, b) = (inputs[0], inputs[1]);
                if a.rank() != 3 || b.rank() != 3 || a.dim(0) != b.dim(0) || a.dim(2) != b.dim(1) {
                    return Err(Error::shape(format!("bmm {a} x {b}")));
                }
                Ok(Shape::new(vec![a.dim(0), a.dim(1), b.dim(2)]))
            }
            Op::Conv2d(g) => {
                let (x, w) = (inputs[0], inputs[1]);
                if x.rank() != 4 || w.rank() != 4 || x.dim(1) != w.dim(1) {
                    return Err(Error::shape(format!("conv2d {x} * {w}")));
                }
                let p: Conv2dParams = (*g).into();
                if x.dim(2) + 2 * g.padding < w.dim(2) || x.dim(3) + 2 * g.padding < w.dim(3) {
                    return Err(Error::shape("conv2d filter larger than padded input"));
                }
                Ok(Shape::new(vec![
                    x.dim(0),
                    w.dim(0),
                    p.out_size(x.dim(2), w.dim(2)),
                    p.out_size(x.dim(3), w.dim(3)),
                ]))
            }
            Op::Add | Op::Sub | Op::Mul | Op::Div => inputs[0].broadcast(inputs[1]),
            Op::Scale(_)
            | Op::Relu
            | Op::Gelu
            | Op::Tanh
            | Op::Sigmoid
            | Op::Exp
            | Op::ReluGradMask => Ok(inputs[0].clone()),
            Op::Softmax => {
                if inputs[0].rank() == 0 {
                    return Err(Error::shape("softmax requires rank >= 1"));
                }
                Ok(inputs[0].clone())
            }
            Op::LayerNorm { .. } => {
                let (x, g, b) = (inputs[0], inputs[1], inputs[2]);
                if x.rank() == 0 {
                    return Err(Error::shape("layernorm requires rank >= 1"));
                }
                let last = x.dim(x.rank() - 1);
                if g.numel() != last || b.numel() != last {
                    return Err(Error::shape(format!(
                        "layernorm affine {g}/{b} vs last dim {last}"
                    )));
                }
                Ok(x.clone())
            }
            Op::MaxPool2d { k } => {
                let x = inputs[0];
                if x.rank() != 4 || *k == 0 || x.dim(2) < *k || x.dim(3) < *k {
                    return Err(Error::shape(format!("maxpool2d k={k} on {x}")));
                }
                Ok(Shape::new(vec![x.dim(0), x.dim(1), x.dim(2) / k, x.dim(3) / k]))
            }
            Op::GlobalAvgPool => {
                let x = inputs[0];
                if x.rank() != 4 {
                    return Err(Error::shape(format!("gavgpool on {x}")));
                }
                Ok(Shape::new(vec![x.dim(0), x.dim(1)]))
            }
            Op::Reshape(target) => {
                if !inputs[0].is_reshape_compatible(target) {
                    return Err(Error::shape(format!("reshape {} -> {target}", inputs[0])));
                }
                Ok(target.clone())
            }
            Op::Transpose2 => {
                let x = inputs[0];
                if x.rank() != 2 {
                    return Err(Error::shape(format!("transpose on {x}")));
                }
                Ok(Shape::new(vec![x.dim(1), x.dim(0)]))
            }
            Op::TransposeLast2 => {
                let x = inputs[0];
                if x.rank() < 2 {
                    return Err(Error::shape(format!("transpose_last2 on {x}")));
                }
                let mut dims = x.dims().to_vec();
                dims.swap(x.rank() - 1, x.rank() - 2);
                Ok(Shape::new(dims))
            }
            Op::Permute(perm) => {
                let x = inputs[0];
                let mut seen = vec![false; x.rank()];
                if perm.len() != x.rank()
                    || perm.iter().any(|&p| p >= x.rank() || std::mem::replace(&mut seen[p], true))
                {
                    return Err(Error::shape(format!("permute {perm:?} on {x}")));
                }
                Ok(Shape::new(perm.iter().map(|&p| x.dim(p)).collect()))
            }
            Op::SumAxis { axis } => {
                let x = inputs[0];
                if *axis >= x.rank() {
                    return Err(Error::shape(format!("sum axis {axis} on {x}")));
                }
                let mut dims = x.dims().to_vec();
                dims.remove(*axis);
                Ok(Shape::new(dims))
            }
            Op::ReduceTo(target) => {
                // Must be broadcast-compatible: broadcasting target to the
                // input shape must reproduce the input shape.
                let broad = target.broadcast(inputs[0])?;
                if &broad != inputs[0] {
                    return Err(Error::shape(format!("reduce_to {target} from {}", inputs[0])));
                }
                Ok(target.clone())
            }
            Op::CrossEntropyLoss => {
                let (l, t) = (inputs[0], inputs[1]);
                if l != t || l.rank() != 2 {
                    return Err(Error::shape(format!("cross entropy {l} vs {t}")));
                }
                Ok(Shape::scalar())
            }
            Op::GeluGrad | Op::TanhGrad | Op::SigmoidGrad | Op::SoftmaxGrad => {
                if inputs[0] != inputs[1] {
                    return Err(Error::shape(format!(
                        "{} operands must match: {} vs {}",
                        self.mnemonic(),
                        inputs[0],
                        inputs[1]
                    )));
                }
                Ok(inputs[0].clone())
            }
            Op::LayerNormGradX { .. } => {
                if inputs[0] != inputs[2] {
                    return Err(Error::shape("layernorm_grad_x x/dy mismatch"));
                }
                Ok(inputs[0].clone())
            }
            Op::LayerNormGradGamma { .. } => {
                if inputs[0] != inputs[1] {
                    return Err(Error::shape("layernorm_grad_gamma x/dy mismatch"));
                }
                let x = inputs[0];
                Ok(Shape::new(vec![x.dim(x.rank() - 1)]))
            }
            Op::Conv2dBackwardInput { input_shape, .. } => Ok(input_shape.clone()),
            Op::Conv2dBackwardWeight { weight_shape, .. } => Ok(weight_shape.clone()),
            Op::MaxPool2dBackward { k } => {
                let (x, dy) = (inputs[0], inputs[1]);
                if x.rank() != 4
                    || dy.rank() != 4
                    || dy.dim(2) != x.dim(2) / k
                    || dy.dim(3) != x.dim(3) / k
                {
                    return Err(Error::shape(format!("maxpool_bwd {x} / {dy}")));
                }
                Ok(x.clone())
            }
            Op::CrossEntropyGrad => {
                if inputs[0] != inputs[1] || inputs[0].rank() != 2 {
                    return Err(Error::shape("cross_entropy_grad operands must be matching 2-D"));
                }
                Ok(inputs[0].clone())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(dims: &[usize]) -> Shape {
        Shape::new(dims.to_vec())
    }

    #[test]
    fn matmul_shape_inference() {
        let out = Op::MatMul.infer_shape(&[&s(&[3, 4]), &s(&[4, 5])]).unwrap();
        assert_eq!(out, s(&[3, 5]));
        assert!(Op::MatMul.infer_shape(&[&s(&[3, 4]), &s(&[5, 5])]).is_err());
        assert!(Op::MatMul.infer_shape(&[&s(&[3, 4])]).is_err());
    }

    #[test]
    fn conv_shape_inference() {
        let g = ConvGeom::new(2, 1);
        let out = Op::Conv2d(g).infer_shape(&[&s(&[2, 3, 8, 8]), &s(&[16, 3, 3, 3])]).unwrap();
        assert_eq!(out, s(&[2, 16, 4, 4]));
        assert!(Op::Conv2d(g).infer_shape(&[&s(&[2, 4, 8, 8]), &s(&[16, 3, 3, 3])]).is_err());
    }

    #[test]
    fn broadcasting_binary_ops() {
        let out = Op::Add.infer_shape(&[&s(&[4, 1, 3]), &s(&[2, 3])]).unwrap();
        assert_eq!(out, s(&[4, 2, 3]));
    }

    #[test]
    fn permute_validates_permutation() {
        assert!(Op::Permute(vec![0, 0]).infer_shape(&[&s(&[2, 3])]).is_err());
        let out = Op::Permute(vec![2, 0, 1]).infer_shape(&[&s(&[2, 3, 4])]).unwrap();
        assert_eq!(out, s(&[4, 2, 3]));
    }

    #[test]
    fn reduce_to_requires_broadcast_compatibility() {
        assert!(Op::ReduceTo(s(&[3])).infer_shape(&[&s(&[2, 3])]).is_ok());
        assert!(Op::ReduceTo(s(&[2, 1])).infer_shape(&[&s(&[2, 3])]).is_ok());
        assert!(Op::ReduceTo(s(&[4])).infer_shape(&[&s(&[2, 3])]).is_err());
    }

    #[test]
    fn cross_entropy_is_scalar() {
        let out = Op::CrossEntropyLoss.infer_shape(&[&s(&[8, 10]), &s(&[8, 10])]).unwrap();
        assert_eq!(out, Shape::scalar());
    }

    #[test]
    fn matrix_unit_classification() {
        assert!(Op::MatMul.uses_matrix_unit());
        assert!(Op::Conv2d(ConvGeom::new(1, 0)).uses_matrix_unit());
        assert!(!Op::Relu.uses_matrix_unit());
        assert!(!Op::Softmax.uses_matrix_unit());
    }
}
