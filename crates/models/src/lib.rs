//! DNN model zoo — the paper's workloads (§4.1), built through the public
//! graph API the way a PyTorch user would write the model.
//!
//! Provided workloads:
//!
//! - GEMM(N) micro-kernels on square matrices,
//! - CONV0–3, the paper's convolution kernels (3×3 filters; 64/128/256/512
//!   channels on 56²/28²/14²/7² feature maps),
//! - LayerNorm and Softmax kernels,
//! - ResNet-18 and ResNet-50 (inference-form, batch-norm folded),
//! - BERT-Base and BERT-Large encoder stacks with multi-head attention,
//! - a trainable MLP classifier plus a deterministic synthetic MNIST-like
//!   dataset for the training case study (§5.5).
//!
//! # Examples
//!
//! ```
//! use ptsim_models::gemm;
//!
//! let spec = gemm(64);
//! assert_eq!(spec.name, "gemm64");
//! let params = spec.init_params(0);
//! assert_eq!(params.len(), spec.graph.parameters().len());
//! ```

pub mod bert;
pub mod dataset;
pub mod resnet;

pub use bert::{albert, bert, bert_base, bert_large, BertConfig};
pub use dataset::SyntheticMnist;
pub use resnet::{resnet18, resnet50};

use ptsim_common::{Error, Result};
use ptsim_graph::{ConvGeom, Graph, GraphBuilder, ValueId};
use ptsim_tensor::Tensor;

/// A built model: its graph, optional training loss, and parameter shapes.
#[derive(Debug, Clone)]
pub struct ModelSpec {
    /// Workload name (used as the TOG cache key).
    pub name: String,
    /// The captured graph.
    pub graph: Graph,
    /// The scalar loss value, for trainable models.
    pub loss: Option<ValueId>,
}

impl ModelSpec {
    /// Deterministically initializes every parameter (He-style scaling).
    ///
    /// Parameters are generated on demand so timing-only studies of large
    /// models never materialize weights.
    pub fn init_params(&self, seed: u64) -> Vec<Tensor> {
        self.graph
            .parameters()
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let node = self.graph.node(p);
                let shape = node.shape.clone();
                let fan_in = match shape.rank() {
                    2 => shape.dim(0),                               // [in, out]
                    4 => shape.dim(1) * shape.dim(2) * shape.dim(3), // [K, C, kh, kw]
                    _ => shape.numel(),
                }
                .max(1);
                let scale = (2.0 / fan_in as f32).sqrt().min(1.0);
                if shape.rank() == 1 {
                    // Affine scales start at one, biases/offsets at zero.
                    if node.name.contains("gamma") {
                        Tensor::ones(shape)
                    } else {
                        Tensor::zeros(shape)
                    }
                } else {
                    Tensor::randn(shape, seed.wrapping_add(i as u64)).scale(scale)
                }
            })
            .collect()
    }

    /// Deterministic sample inputs, one per graph input: standard normals,
    /// except the MLP label input `"t"`, which is one-hot.
    ///
    /// # Errors
    ///
    /// Propagates a one-hot construction failure (a label input with zero
    /// classes).
    pub fn sample_inputs(&self, seed: u64) -> Result<Vec<Tensor>> {
        self.graph
            .inputs()
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                let node = self.graph.node(id);
                if node.name == "t" {
                    let classes = node.shape.dim(1);
                    let labels: Vec<usize> =
                        (0..node.shape.dim(0)).map(|j| j % classes.max(1)).collect();
                    ptsim_tensor::ops::one_hot(&labels, classes)
                } else {
                    Ok(Tensor::randn(node.shape.clone(), seed.wrapping_add(i as u64)))
                }
            })
            .collect()
    }

    /// Total parameter element count.
    pub fn param_count(&self) -> usize {
        self.graph.parameters().iter().map(|&p| self.graph.node(p).shape.numel()).sum()
    }
}

/// GEMM on two square `n × n` matrices (the paper's GEMM(N) kernels).
pub fn gemm(n: usize) -> ModelSpec {
    gemm_rect(n, n, n)
}

/// GEMM of `[m,k] × [k,n]`.
pub fn gemm_rect(m: usize, k: usize, n: usize) -> ModelSpec {
    let mut g = GraphBuilder::new();
    let x = g.input("x", [m, k]);
    let w = g.parameter("w", [k, n]);
    let y = g.matmul(x, w).expect("gemm shapes are consistent");
    g.output(y);
    let name = if m == k && k == n { format!("gemm{n}") } else { format!("gemm_{m}x{k}x{n}") };
    ModelSpec { name, graph: g.finish(), loss: None }
}

/// The paper's CONV0–3 kernels: 3×3 filters with 64/128/256/512 channels on
/// 56²/28²/14²/7² inputs, matching input and output channel counts.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] if `index > 3`. (This used to panic,
/// which turned an untrusted CLI argument or fuzzed case into a library
/// abort; bin-local argument parsing may still panic, library code must
/// not.)
pub fn conv_kernel(index: usize, batch: usize) -> Result<ModelSpec> {
    let (c, hw) = match index {
        0 => (64, 56),
        1 => (128, 28),
        2 => (256, 14),
        3 => (512, 7),
        _ => {
            return Err(Error::InvalidConfig(format!(
                "conv kernel index {index} out of range (0..=3)"
            )))
        }
    };
    let mut g = GraphBuilder::new();
    let x = g.input("x", [batch, c, hw, hw]);
    let w = g.parameter("w", [c, c, 3, 3]);
    let y = g.conv2d(x, w, ConvGeom::new(1, 1)).expect("conv shapes are consistent");
    g.output(y);
    Ok(ModelSpec { name: format!("conv{index}_b{batch}"), graph: g.finish(), loss: None })
}

/// A convolution with explicit geometry, for the Fig. 8b–c layout studies.
pub fn conv_custom(
    batch: usize,
    c_in: usize,
    c_out: usize,
    hw: usize,
    k: usize,
    stride: usize,
    padding: usize,
) -> ModelSpec {
    let mut g = GraphBuilder::new();
    let x = g.input("x", [batch, c_in, hw, hw]);
    let w = g.parameter("w", [c_out, c_in, k, k]);
    let y = g.conv2d(x, w, ConvGeom::new(stride, padding)).expect("conv shapes are consistent");
    g.output(y);
    ModelSpec {
        name: format!("conv_b{batch}_c{c_in}to{c_out}_hw{hw}_k{k}"),
        graph: g.finish(),
        loss: None,
    }
}

/// A standalone LayerNorm kernel over `[rows, cols]` (Fig. 5 "LN").
pub fn layernorm_kernel(rows: usize, cols: usize) -> ModelSpec {
    let mut g = GraphBuilder::new();
    let x = g.input("x", [rows, cols]);
    let gamma = g.parameter("gamma", [cols]);
    let beta = g.parameter("beta", [cols]);
    let y = g.layernorm(x, gamma, beta).expect("layernorm shapes are consistent");
    g.output(y);
    ModelSpec { name: format!("layernorm_{rows}x{cols}"), graph: g.finish(), loss: None }
}

/// A standalone Softmax kernel over `[rows, cols]` (Fig. 5 "softmax").
pub fn softmax_kernel(rows: usize, cols: usize) -> ModelSpec {
    let mut g = GraphBuilder::new();
    let x = g.input("x", [rows, cols]);
    let y = g.softmax(x).expect("softmax shapes are consistent");
    g.output(y);
    ModelSpec { name: format!("softmax_{rows}x{cols}"), graph: g.finish(), loss: None }
}

/// The §5.5 training MLP: 28×28 input, one hidden layer of `hidden` units,
/// 10 classes, with a cross-entropy loss.
pub fn mlp(batch: usize, hidden: usize) -> ModelSpec {
    let mut g = GraphBuilder::new();
    let x = g.input("x", [batch, 784]);
    let t = g.input("t", [batch, 10]);
    let w1 = g.parameter("w1", [784, hidden]);
    let b1 = g.parameter("b1", [hidden]);
    let w2 = g.parameter("w2", [hidden, 10]);
    let b2 = g.parameter("b2", [10]);
    let h = g.linear(x, w1, b1).expect("mlp shapes");
    let h = g.relu(h).expect("mlp shapes");
    let logits = g.linear(h, w2, b2).expect("mlp shapes");
    let loss = g.cross_entropy(logits, t).expect("mlp shapes");
    g.output(logits);
    g.output(loss);
    ModelSpec { name: format!("mlp_b{batch}_h{hidden}"), graph: g.finish(), loss: Some(loss) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsim_graph::exec;

    #[test]
    fn gemm_specs_are_valid() {
        for n in [8, 64, 512] {
            let spec = gemm(n);
            spec.graph.validate().unwrap();
            assert_eq!(spec.param_count(), n * n);
        }
    }

    #[test]
    fn conv_kernels_match_paper_geometries() {
        for (i, (c, hw)) in [(64, 56), (128, 28), (256, 14), (512, 7)].iter().enumerate() {
            let spec = conv_kernel(i, 1).unwrap();
            spec.graph.validate().unwrap();
            let out = spec.graph.node(spec.graph.outputs()[0]);
            assert_eq!(out.shape.dims(), &[1, *c, *hw, *hw], "conv{i}");
        }
    }

    #[test]
    fn conv_kernel_index_is_a_typed_error_not_a_panic() {
        // Regression: index > 3 used to `panic!`, aborting any caller that
        // fed an untrusted index (CLI argument, fuzzed case) into the zoo.
        let err = conv_kernel(4, 1).unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn mlp_runs_forward_and_has_loss() {
        let spec = mlp(4, 32);
        let params = spec.init_params(1);
        let x = Tensor::randn([4, 784], 0);
        let t = ptsim_tensor::ops::one_hot(&[1, 2, 3, 4], 10).unwrap();
        let out = exec::execute(&spec.graph, &[x, t], &params).unwrap();
        assert_eq!(out.outputs()[0].dims(), &[4, 10]);
        assert!(out.outputs()[1].data()[0] > 0.0);
        assert!(spec.loss.is_some());
    }

    #[test]
    fn init_params_are_deterministic_and_scaled() {
        let spec = mlp(2, 16);
        let a = spec.init_params(7);
        let b = spec.init_params(7);
        assert_eq!(a, b);
        // Weight magnitudes bounded after He scaling.
        assert!(a[0].max() < 1.0);
        // Biases start at zero.
        assert_eq!(a[1].sum(), 0.0);
    }

    #[test]
    fn standalone_kernels_execute() {
        let ln = layernorm_kernel(4, 32);
        let sm = softmax_kernel(4, 32);
        let x = Tensor::randn([4, 32], 5);
        let p = ln.init_params(0);
        exec::execute(&ln.graph, std::slice::from_ref(&x), &[p[0].clone(), p[1].clone()]).unwrap();
        exec::execute(&sm.graph, &[x], &[]).unwrap();
    }
}
