//! Eager reference executor for computation graphs.
//!
//! This is the "real CPU" of the paper's methodology: the golden numeric
//! semantics that the NPU functional simulator is validated against (§4.1:
//! "The functional correctness of PyTorchSim was validated by comparing its
//! DNN output to that of a real CPU").

use crate::graph::{Graph, ValueId};
use crate::op::Op;
use ptsim_common::{Error, Result};
use ptsim_tensor::ops::{self, Conv2dParams};
use ptsim_tensor::shape::IndexIter;
use ptsim_tensor::{Shape, Tensor};

/// The values produced by executing a graph: one tensor per node.
#[derive(Debug, Clone)]
pub struct Execution {
    values: Vec<Tensor>,
    outputs: Vec<ValueId>,
}

impl Execution {
    /// The value of an arbitrary node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of the executed graph.
    pub fn value(&self, id: ValueId) -> &Tensor {
        &self.values[id.index()]
    }

    /// The declared graph outputs, in declaration order.
    pub fn outputs(&self) -> Vec<&Tensor> {
        self.outputs.iter().map(|&id| &self.values[id.index()]).collect()
    }
}

/// Executes `graph` eagerly with the given external inputs and parameters.
///
/// `inputs` and `params` must match the graph's declared inputs and
/// parameters in order, count, and shape.
///
/// # Errors
///
/// Returns [`Error::InvalidGraph`] or [`Error::ShapeMismatch`] if the
/// bindings are wrong or an operator fails.
pub fn execute(graph: &Graph, inputs: &[Tensor], params: &[Tensor]) -> Result<Execution> {
    graph.validate()?;
    if inputs.len() != graph.inputs().len() {
        return Err(Error::InvalidGraph(format!(
            "expected {} inputs, got {}",
            graph.inputs().len(),
            inputs.len()
        )));
    }
    if params.len() != graph.parameters().len() {
        return Err(Error::InvalidGraph(format!(
            "expected {} parameters, got {}",
            graph.parameters().len(),
            params.len()
        )));
    }
    let mut values: Vec<Option<Tensor>> = vec![None; graph.len()];
    for (&id, tensor) in graph.inputs().iter().zip(inputs) {
        if tensor.shape() != &graph.node(id).shape {
            return Err(Error::shape(format!(
                "input {} expects {}, got {}",
                graph.node(id).name,
                graph.node(id).shape,
                tensor.shape()
            )));
        }
        values[id.index()] = Some(tensor.clone());
    }
    for (&id, tensor) in graph.parameters().iter().zip(params) {
        if tensor.shape() != &graph.node(id).shape {
            return Err(Error::shape(format!(
                "parameter {} expects {}, got {}",
                graph.node(id).name,
                graph.node(id).shape,
                tensor.shape()
            )));
        }
        values[id.index()] = Some(tensor.clone());
    }

    for idx in 0..graph.len() {
        if values[idx].is_some() {
            continue;
        }
        let node = &graph.nodes()[idx];
        let operands: Vec<&Tensor> = node
            .inputs
            .iter()
            .map(|v| values[v.index()].as_ref().expect("topological order guarantees operands"))
            .collect();
        let result = eval_op(&node.op, &operands)?;
        if result.shape() != &node.shape {
            return Err(Error::SimulationFault(format!(
                "node %{idx} ({}) produced {}, inferred {}",
                node.op.mnemonic(),
                result.shape(),
                node.shape
            )));
        }
        values[idx] = Some(result);
    }

    Ok(Execution {
        values: values.into_iter().map(|v| v.expect("all nodes evaluated")).collect(),
        outputs: graph.outputs().to_vec(),
    })
}

/// Largest [`max_abs_diff`] a functional execution path may show against
/// eager execution.
pub const FUNCTIONAL_TOL: f32 = 1e-2;

/// Largest element-wise absolute difference between `outputs` and eager
/// execution of `graph` on the same inputs and parameters: the check every
/// functional execution path is held to (within [`FUNCTIONAL_TOL`]).
///
/// # Errors
///
/// Propagates [`execute`] failures, and returns [`Error::InvalidGraph`] or
/// [`Error::ShapeMismatch`] if `outputs` differ in count or shape.
pub fn max_abs_diff(
    graph: &Graph,
    inputs: &[Tensor],
    params: &[Tensor],
    outputs: &[Tensor],
) -> Result<f32> {
    let eager = execute(graph, inputs, params)?;
    let eager = eager.outputs();
    if outputs.len() != eager.len() {
        let (n, e) = (outputs.len(), eager.len());
        return Err(Error::InvalidGraph(format!("{n} outputs vs {e} eager outputs")));
    }
    outputs.iter().zip(eager).try_fold(0.0f32, |worst, (o, e)| Ok(worst.max(o.max_abs_diff(e)?)))
}

/// Applies one operator to already-evaluated operands.
///
/// This is the single-op entry point used by the hybrid functional executor
/// to run host-side ("CPU") operators that are not lowered to NPU kernels
/// (§3.8: "The output from Spike can also be fed back into PyTorch, to
/// execute some operations on the CPU").
///
/// # Errors
///
/// Returns an error on arity or shape violations.
pub fn apply(op: &Op, operands: &[&Tensor]) -> Result<Tensor> {
    if operands.len() != op.arity() {
        return Err(Error::InvalidGraph(format!(
            "{} expects {} operands, got {}",
            op.mnemonic(),
            op.arity(),
            operands.len()
        )));
    }
    eval_op(op, operands)
}

fn eval_op(op: &Op, x: &[&Tensor]) -> Result<Tensor> {
    match op {
        Op::Input | Op::Parameter => Err(Error::InvalidGraph("unbound input or parameter".into())),
        Op::Constant(t) => Ok(t.clone()),
        Op::MatMul => x[0].matmul(x[1]),
        Op::BatchMatMul => batch_matmul(x[0], x[1]),
        Op::Conv2d(g) => ops::conv2d(x[0], x[1], (*g).into()),
        Op::Add => x[0].add(x[1]),
        Op::Sub => x[0].sub(x[1]),
        Op::Mul => x[0].mul(x[1]),
        Op::Div => x[0].div(x[1]),
        Op::Scale(s) => Ok(x[0].scale(*s)),
        Op::Relu => Ok(ops::relu(x[0])),
        Op::Gelu => Ok(ops::gelu(x[0])),
        Op::Tanh => Ok(ops::tanh(x[0])),
        Op::Sigmoid => Ok(ops::sigmoid(x[0])),
        Op::Exp => Ok(ops::exp(x[0])),
        Op::Softmax => ops::softmax(x[0]),
        Op::LayerNorm { eps } => ops::layernorm(x[0], x[1], x[2], *eps),
        Op::MaxPool2d { k } => ops::maxpool2d(x[0], *k),
        Op::GlobalAvgPool => ops::global_avgpool2d(x[0]),
        Op::Reshape(shape) => x[0].reshape(shape.clone()),
        Op::Transpose2 => x[0].transpose2(),
        Op::TransposeLast2 => {
            let rank = x[0].shape().rank();
            let mut perm: Vec<usize> = (0..rank).collect();
            perm.swap(rank - 1, rank - 2);
            permute(x[0], &perm)
        }
        Op::Permute(perm) => permute(x[0], perm),
        Op::SumAxis { axis } => x[0].sum_axis(*axis),
        Op::ReduceTo(shape) => reduce_to(x[0], shape),
        Op::CrossEntropyLoss => {
            let (loss, _) = ops::cross_entropy_with_grad(x[0], x[1])?;
            Tensor::from_vec(vec![loss], Shape::scalar())
        }
        Op::ReluGradMask => Ok(ops::relu_grad_mask(x[0])),
        Op::GeluGrad => Ok(gelu_grad(x[0], x[1])),
        Op::TanhGrad => Ok(x[0].map(|v| 1.0 - v.tanh() * v.tanh()).mul(x[1])?),
        Op::SigmoidGrad => {
            let s = ops::sigmoid(x[0]);
            s.map(|v| v * (1.0 - v)).mul(x[1])
        }
        Op::SoftmaxGrad => softmax_grad(x[0], x[1]),
        Op::LayerNormGradX { eps } => layernorm_grad_x(x[0], x[1], x[2], *eps),
        Op::LayerNormGradGamma { eps } => layernorm_grad_gamma(x[0], x[1], *eps),
        Op::Conv2dBackwardInput { geom, input_shape } => {
            conv2d_backward_input(x[0], x[1], (*geom).into(), input_shape)
        }
        Op::Conv2dBackwardWeight { geom, weight_shape } => {
            conv2d_backward_weight(x[0], x[1], (*geom).into(), weight_shape)
        }
        Op::MaxPool2dBackward { k } => maxpool2d_backward(x[0], x[1], *k),
        Op::CrossEntropyGrad => {
            let (_, grad) = ops::cross_entropy_with_grad(x[0], x[1])?;
            Ok(grad)
        }
    }
}

fn batch_matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (ad, bd) = (a.dims(), b.dims());
    if ad.len() != 3 || bd.len() != 3 || ad[0] != bd[0] || ad[2] != bd[1] {
        return Err(Error::shape(format!("bmm {} x {}", a.shape(), b.shape())));
    }
    let (batch, m, k, n) = (ad[0], ad[1], ad[2], bd[2]);
    let mut out = vec![0.0f32; batch * m * n];
    for bi in 0..batch {
        let a_slice = Tensor::from_vec(a.data()[bi * m * k..(bi + 1) * m * k].to_vec(), [m, k])?;
        let b_slice = Tensor::from_vec(b.data()[bi * k * n..(bi + 1) * k * n].to_vec(), [k, n])?;
        let c = a_slice.matmul(&b_slice)?;
        out[bi * m * n..(bi + 1) * m * n].copy_from_slice(c.data());
    }
    Tensor::from_vec(out, [batch, m, n])
}

fn permute(x: &Tensor, perm: &[usize]) -> Result<Tensor> {
    let in_shape = x.shape();
    let out_shape = Op::Permute(perm.to_vec()).infer_shape(&[in_shape])?;
    let in_strides = in_shape.strides();
    let mut out = vec![0.0f32; x.numel()];
    for (flat, out_idx) in IndexIter::new(&out_shape).enumerate() {
        let mut src = 0;
        for (d, &p) in perm.iter().enumerate() {
            src += out_idx[d] * in_strides[p];
        }
        out[flat] = x.data()[src];
    }
    Tensor::from_vec(out, out_shape)
}

fn reduce_to(x: &Tensor, target: &Shape) -> Result<Tensor> {
    // Validate compatibility through the same rule as shape inference.
    let _ = Op::ReduceTo(target.clone()).infer_shape(&[x.shape()])?;
    let mut out = Tensor::zeros(target.clone());
    let t_dims = target.dims();
    let t_strides = target.strides();
    let rank = x.shape().rank();
    #[allow(clippy::needless_range_loop)] // lockstep over target dims and strides
    for (flat, idx) in IndexIter::new(x.shape()).enumerate() {
        let mut dst = 0;
        for d in 0..rank {
            if d + t_dims.len() >= rank {
                let td = d + t_dims.len() - rank;
                if t_dims[td] != 1 {
                    dst += idx[d] * t_strides[td];
                }
            }
        }
        out.data_mut()[dst] += x.data()[flat];
    }
    Ok(out)
}

fn gelu_grad(x: &Tensor, dy: &Tensor) -> Tensor {
    let c = (2.0f32 / std::f32::consts::PI).sqrt();
    let grad = x.map(|v| {
        let u = c * (v + 0.044715 * v * v * v);
        let t = u.tanh();
        let sech2 = 1.0 - t * t;
        0.5 * (1.0 + t) + 0.5 * v * sech2 * c * (1.0 + 3.0 * 0.044715 * v * v)
    });
    grad.mul(dy).expect("shapes validated by infer_shape")
}

fn softmax_grad(y: &Tensor, dy: &Tensor) -> Result<Tensor> {
    let dims = y.dims();
    let last = dims[dims.len() - 1];
    let rows = y.numel() / last;
    let mut out = vec![0.0f32; y.numel()];
    for r in 0..rows {
        let ys = &y.data()[r * last..(r + 1) * last];
        let dys = &dy.data()[r * last..(r + 1) * last];
        let dot: f32 = ys.iter().zip(dys).map(|(a, b)| a * b).sum();
        for i in 0..last {
            out[r * last + i] = ys[i] * (dys[i] - dot);
        }
    }
    Tensor::from_vec(out, dims.to_vec())
}

fn layernorm_grad_x(x: &Tensor, gamma: &Tensor, dy: &Tensor, eps: f32) -> Result<Tensor> {
    let dims = x.dims();
    let last = dims[dims.len() - 1];
    let rows = x.numel() / last;
    let mut out = vec![0.0f32; x.numel()];
    for r in 0..rows {
        let xs = &x.data()[r * last..(r + 1) * last];
        let dys = &dy.data()[r * last..(r + 1) * last];
        let mean: f32 = xs.iter().sum::<f32>() / last as f32;
        let var: f32 = xs.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / last as f32;
        let inv_std = 1.0 / (var + eps).sqrt();
        // g = gamma * dy; dx = inv_std * (g - mean(g) - xhat * mean(g * xhat))
        let mut g = vec![0.0f32; last];
        let mut xhat = vec![0.0f32; last];
        for i in 0..last {
            g[i] = gamma.data()[i] * dys[i];
            xhat[i] = (xs[i] - mean) * inv_std;
        }
        let g_mean: f32 = g.iter().sum::<f32>() / last as f32;
        let gx_mean: f32 = g.iter().zip(&xhat).map(|(a, b)| a * b).sum::<f32>() / last as f32;
        for i in 0..last {
            out[r * last + i] = inv_std * (g[i] - g_mean - xhat[i] * gx_mean);
        }
    }
    Tensor::from_vec(out, dims.to_vec())
}

fn layernorm_grad_gamma(x: &Tensor, dy: &Tensor, eps: f32) -> Result<Tensor> {
    let dims = x.dims();
    let last = dims[dims.len() - 1];
    let rows = x.numel() / last;
    let mut out = vec![0.0f32; last];
    for r in 0..rows {
        let xs = &x.data()[r * last..(r + 1) * last];
        let dys = &dy.data()[r * last..(r + 1) * last];
        let mean: f32 = xs.iter().sum::<f32>() / last as f32;
        let var: f32 = xs.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / last as f32;
        let inv_std = 1.0 / (var + eps).sqrt();
        for i in 0..last {
            out[i] += dys[i] * (xs[i] - mean) * inv_std;
        }
    }
    Tensor::from_vec(out, [last])
}

fn dy_to_rows(dy: &Tensor) -> Result<Tensor> {
    // [N, K, Ho, Wo] -> [N*Ho*Wo, K]
    let d = dy.dims();
    let (n, k, ho, wo) = (d[0], d[1], d[2], d[3]);
    let mut out = vec![0.0f32; dy.numel()];
    for ni in 0..n {
        for ki in 0..k {
            for oy in 0..ho {
                for ox in 0..wo {
                    out[((ni * ho + oy) * wo + ox) * k + ki] =
                        dy.data()[((ni * k + ki) * ho + oy) * wo + ox];
                }
            }
        }
    }
    Tensor::from_vec(out, [n * ho * wo, k])
}

fn conv2d_backward_input(
    w: &Tensor,
    dy: &Tensor,
    p: Conv2dParams,
    input_shape: &Shape,
) -> Result<Tensor> {
    let wd = w.dims();
    let (k, c, kh, kw) = (wd[0], wd[1], wd[2], wd[3]);
    let xd = input_shape.dims();
    let (n, _, h, ww) = (xd[0], xd[1], xd[2], xd[3]);
    let dy_rows = dy_to_rows(dy)?; // [N*Ho*Wo, K]
    let wmat = w.reshape([k, c * kh * kw])?; // [K, CKhKw]
    let dcols = dy_rows.matmul(&wmat)?; // [N*Ho*Wo, CKhKw]
    ops::col2im(&dcols, n, c, h, ww, kh, kw, p)
}

fn conv2d_backward_weight(
    x: &Tensor,
    dy: &Tensor,
    p: Conv2dParams,
    weight_shape: &Shape,
) -> Result<Tensor> {
    let wd = weight_shape.dims();
    let (k, c, kh, kw) = (wd[0], wd[1], wd[2], wd[3]);
    let patches = ops::im2col(x, kh, kw, p)?; // [N*Ho*Wo, CKhKw]
    let dy_rows = dy_to_rows(dy)?; // [N*Ho*Wo, K]
    let dw = dy_rows.transpose2()?.matmul(&patches)?; // [K, CKhKw]
    dw.reshape([k, c, kh, kw])
}

fn maxpool2d_backward(x: &Tensor, dy: &Tensor, k: usize) -> Result<Tensor> {
    let d = x.dims();
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    let (ho, wo) = (h / k, w / k);
    let mut out = vec![0.0f32; x.numel()];
    for ni in 0..n {
        for ci in 0..c {
            for oy in 0..ho {
                for ox in 0..wo {
                    // Find argmax of the window, route the gradient there.
                    let mut best = (0, 0);
                    let mut best_v = f32::NEG_INFINITY;
                    for dy_i in 0..k {
                        for dx_i in 0..k {
                            let v =
                                x.data()[((ni * c + ci) * h + oy * k + dy_i) * w + ox * k + dx_i];
                            if v > best_v {
                                best_v = v;
                                best = (dy_i, dx_i);
                            }
                        }
                    }
                    out[((ni * c + ci) * h + oy * k + best.0) * w + ox * k + best.1] +=
                        dy.data()[((ni * c + ci) * ho + oy) * wo + ox];
                }
            }
        }
    }
    Tensor::from_vec(out, d.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use ptsim_tensor::ops::one_hot;

    #[test]
    fn executes_mlp_forward() {
        let mut g = GraphBuilder::new();
        let x = g.input("x", [2, 4]);
        let w = g.parameter("w", [4, 3]);
        let b = g.parameter("b", [3]);
        let h = g.linear(x, w, b).unwrap();
        let y = g.relu(h).unwrap();
        g.output(y);
        let graph = g.finish();

        let xs = Tensor::randn([2, 4], 0);
        let ws = Tensor::randn([4, 3], 1);
        let bs = Tensor::randn([3], 2);
        let exec = execute(&graph, std::slice::from_ref(&xs), &[ws.clone(), bs.clone()]).unwrap();
        let expect = ops::relu(&xs.matmul(&ws).unwrap().add(&bs).unwrap());
        assert!(exec.outputs()[0].allclose(&expect, 1e-6));
    }

    #[test]
    fn rejects_wrong_input_shapes() {
        let mut g = GraphBuilder::new();
        let _ = g.input("x", [2, 4]);
        let graph = g.finish();
        assert!(execute(&graph, &[Tensor::zeros([2, 5])], &[]).is_err());
        assert!(execute(&graph, &[], &[]).is_err());
    }

    #[test]
    fn batch_matmul_matches_per_slice_matmul() {
        let a = Tensor::randn([3, 2, 4], 1);
        let b = Tensor::randn([3, 4, 5], 2);
        let c = batch_matmul(&a, &b).unwrap();
        assert_eq!(c.dims(), &[3, 2, 5]);
        // Check the first slice by hand.
        let a0 = Tensor::from_vec(a.data()[..8].to_vec(), [2, 4]).unwrap();
        let b0 = Tensor::from_vec(b.data()[..20].to_vec(), [4, 5]).unwrap();
        let c0 = a0.matmul(&b0).unwrap();
        assert_eq!(&c.data()[..10], c0.data());
    }

    #[test]
    fn permute_matches_transpose_for_2d() {
        let x = Tensor::randn([3, 5], 4);
        let p = permute(&x, &[1, 0]).unwrap();
        assert_eq!(p, x.transpose2().unwrap());
    }

    #[test]
    fn reduce_to_inverts_broadcast_add() {
        // Broadcasting [3] across [2, 3] then reducing back sums over rows.
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]).unwrap();
        let r = reduce_to(&x, &Shape::new(vec![3])).unwrap();
        assert_eq!(r.data(), &[5.0, 7.0, 9.0]);
        let r2 = reduce_to(&x, &Shape::new(vec![2, 1])).unwrap();
        assert_eq!(r2.data(), &[6.0, 15.0]);
    }

    #[test]
    fn softmax_grad_matches_finite_difference() {
        let x = Tensor::randn([2, 5], 7);
        let y = ops::softmax(&x).unwrap();
        let dy = Tensor::randn([2, 5], 8);
        let dx = softmax_grad(&y, &dy).unwrap();
        let eps = 1e-3;
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fp: f32 =
                ops::softmax(&xp).unwrap().data().iter().zip(dy.data()).map(|(a, b)| a * b).sum();
            let fm: f32 =
                ops::softmax(&xm).unwrap().data().iter().zip(dy.data()).map(|(a, b)| a * b).sum();
            let fd = (fp - fm) / (2.0 * eps);
            assert!((fd - dx.data()[i]).abs() < 1e-2, "at {i}: {fd} vs {}", dx.data()[i]);
        }
    }

    #[test]
    fn layernorm_grads_match_finite_difference() {
        let x = Tensor::randn([2, 6], 21);
        let gamma = Tensor::randn([6], 22);
        let beta = Tensor::zeros([6]);
        let dy = Tensor::randn([2, 6], 23);
        let eps = 1e-5;
        let dx = layernorm_grad_x(&x, &gamma, &dy, eps).unwrap();
        let dgamma = layernorm_grad_gamma_scaled(&x, &gamma, &dy, eps);
        let fd_loss = |x: &Tensor, gamma: &Tensor| -> f32 {
            ops::layernorm(x, gamma, &beta, eps)
                .unwrap()
                .data()
                .iter()
                .zip(dy.data())
                .map(|(a, b)| a * b)
                .sum()
        };
        let h = 1e-2;
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += h;
            let mut xm = x.clone();
            xm.data_mut()[i] -= h;
            let fd = (fd_loss(&xp, &gamma) - fd_loss(&xm, &gamma)) / (2.0 * h);
            assert!((fd - dx.data()[i]).abs() < 0.05, "dx at {i}: {fd} vs {}", dx.data()[i]);
        }
        for i in 0..gamma.numel() {
            let mut gp = gamma.clone();
            gp.data_mut()[i] += h;
            let mut gm = gamma.clone();
            gm.data_mut()[i] -= h;
            let fd = (fd_loss(&x, &gp) - fd_loss(&x, &gm)) / (2.0 * h);
            assert!(
                (fd - dgamma.data()[i]).abs() < 0.05,
                "dgamma at {i}: {fd} vs {}",
                dgamma.data()[i]
            );
        }
    }

    fn layernorm_grad_gamma_scaled(x: &Tensor, _gamma: &Tensor, dy: &Tensor, eps: f32) -> Tensor {
        layernorm_grad_gamma(x, dy, eps).unwrap()
    }

    #[test]
    fn conv_backward_matches_finite_difference() {
        let p = Conv2dParams { stride: 1, padding: 1 };
        let geom_shape = Shape::new(vec![1, 2, 4, 4]);
        let x = Tensor::randn([1, 2, 4, 4], 31);
        let w = Tensor::randn([3, 2, 3, 3], 32);
        let y = ops::conv2d(&x, &w, p).unwrap();
        let dy = Tensor::randn(y.dims().to_vec(), 33);
        let dx = conv2d_backward_input(&w, &dy, p, &geom_shape).unwrap();
        let dw = conv2d_backward_weight(&x, &dy, p, &Shape::new(vec![3, 2, 3, 3])).unwrap();
        let loss = |x: &Tensor, w: &Tensor| -> f32 {
            ops::conv2d(x, w, p).unwrap().data().iter().zip(dy.data()).map(|(a, b)| a * b).sum()
        };
        let h = 1e-2;
        for i in (0..x.numel()).step_by(7) {
            let mut xp = x.clone();
            xp.data_mut()[i] += h;
            let mut xm = x.clone();
            xm.data_mut()[i] -= h;
            let fd = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * h);
            assert!((fd - dx.data()[i]).abs() < 0.05, "dx at {i}: {fd} vs {}", dx.data()[i]);
        }
        for i in (0..w.numel()).step_by(5) {
            let mut wp = w.clone();
            wp.data_mut()[i] += h;
            let mut wm = w.clone();
            wm.data_mut()[i] -= h;
            let fd = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * h);
            assert!((fd - dw.data()[i]).abs() < 0.05, "dw at {i}: {fd} vs {}", dw.data()[i]);
        }
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [1, 1, 2, 2]).unwrap();
        let dy = Tensor::from_vec(vec![10.0], [1, 1, 1, 1]).unwrap();
        let dx = maxpool2d_backward(&x, &dy, 2).unwrap();
        assert_eq!(dx.data(), &[0.0, 0.0, 0.0, 10.0]);
    }

    #[test]
    fn cross_entropy_graph_node_evaluates() {
        let mut g = GraphBuilder::new();
        let logits = g.input("logits", [2, 3]);
        let targets = g.input("targets", [2, 3]);
        let loss = g.cross_entropy(logits, targets).unwrap();
        g.output(loss);
        let graph = g.finish();
        let l = Tensor::randn([2, 3], 1);
        let t = one_hot(&[0, 2], 3).unwrap();
        let exec = execute(&graph, &[l, t], &[]).unwrap();
        assert_eq!(exec.outputs()[0].numel(), 1);
        assert!(exec.outputs()[0].data()[0] > 0.0);
    }
}
