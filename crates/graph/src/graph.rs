//! Graph structure and builder (the FX-graph analog).

use crate::op::Op;
use ptsim_common::{Error, Result};
use ptsim_tensor::Shape;
use std::fmt;

/// Identifies a value (the output of one node) inside a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ValueId(pub usize);

impl ValueId {
    /// The raw node index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// One node in a computation graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphNode {
    /// The operator.
    pub op: Op,
    /// Operand values, in operator order.
    pub inputs: Vec<ValueId>,
    /// Inferred (or declared) output shape.
    pub shape: Shape,
    /// Debug name ("x", "layer1.weight", ...).
    pub name: String,
}

/// A captured computation graph in topological order.
///
/// Nodes can only reference earlier nodes, so the vector order is always a
/// valid schedule — the same invariant PyTorch's FX graphs maintain.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Graph {
    nodes: Vec<GraphNode>,
    inputs: Vec<ValueId>,
    parameters: Vec<ValueId>,
    outputs: Vec<ValueId>,
}

impl Graph {
    /// All nodes, in topological order.
    pub fn nodes(&self) -> &[GraphNode] {
        &self.nodes
    }

    /// The node behind a value.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a value of this graph.
    pub fn node(&self, id: ValueId) -> &GraphNode {
        &self.nodes[id.0]
    }

    /// Declared external inputs, in declaration order.
    pub fn inputs(&self) -> &[ValueId] {
        &self.inputs
    }

    /// Declared parameters, in declaration order.
    pub fn parameters(&self) -> &[ValueId] {
        &self.parameters
    }

    /// Declared outputs, in declaration order.
    pub fn outputs(&self) -> &[ValueId] {
        &self.outputs
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Checks the structural invariants: topological operand order, correct
    /// arities, declared inputs/parameters/outputs exist and have the right
    /// operator kinds.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidGraph`] describing the first violation.
    pub fn validate(&self) -> Result<()> {
        for (i, node) in self.nodes.iter().enumerate() {
            if node.inputs.len() != node.op.arity() {
                return Err(Error::InvalidGraph(format!(
                    "node %{i} ({}) has {} operands, expected {}",
                    node.op.mnemonic(),
                    node.inputs.len(),
                    node.op.arity()
                )));
            }
            for &input in &node.inputs {
                if input.0 >= i {
                    return Err(Error::InvalidGraph(format!(
                        "node %{i} references later or self value {input}"
                    )));
                }
            }
        }
        for &id in &self.inputs {
            if !matches!(self.try_node(id).map(|n| &n.op), Some(Op::Input)) {
                return Err(Error::InvalidGraph(format!(
                    "declared input {id} is not an Input node"
                )));
            }
        }
        for &id in &self.parameters {
            if !matches!(self.try_node(id).map(|n| &n.op), Some(Op::Parameter)) {
                return Err(Error::InvalidGraph(format!(
                    "declared parameter {id} is not a Parameter node"
                )));
            }
        }
        for &id in &self.outputs {
            if self.try_node(id).is_none() {
                return Err(Error::InvalidGraph(format!("declared output {id} does not exist")));
            }
        }
        Ok(())
    }

    fn try_node(&self, id: ValueId) -> Option<&GraphNode> {
        self.nodes.get(id.0)
    }

    /// Per-node consumer counts (how many later nodes read each value).
    pub fn use_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.nodes.len()];
        for node in &self.nodes {
            for &input in &node.inputs {
                counts[input.0] += 1;
            }
        }
        counts
    }

    /// A multi-line textual dump, useful in tests and debugging.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for (i, node) in self.nodes.iter().enumerate() {
            let args: Vec<String> = node.inputs.iter().map(|v| v.to_string()).collect();
            out.push_str(&format!(
                "%{i} = {}({}) : {} // {}\n",
                node.op.mnemonic(),
                args.join(", "),
                node.shape,
                node.name
            ));
        }
        out.push_str(&format!(
            "outputs: {}\n",
            self.outputs.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(", ")
        ));
        out
    }
}

/// Incrementally builds a [`Graph`] with shape inference at every step.
///
/// # Examples
///
/// ```
/// use ptsim_graph::GraphBuilder;
///
/// let mut g = GraphBuilder::new();
/// let x = g.input("x", [4, 8]);
/// let w = g.parameter("w", [8, 2]);
/// let y = g.matmul(x, w)?;
/// let out = g.relu(y)?;
/// g.output(out);
/// let graph = g.finish();
/// assert_eq!(graph.node(out).shape.dims(), &[4, 2]);
/// # Ok::<(), ptsim_common::Error>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    graph: Graph,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resumes building on top of an existing graph, preserving its node
    /// ids, declared inputs and parameters. Declared outputs are cleared:
    /// the caller decides the outputs of the extended graph. This is how the
    /// autodiff transformation appends a backward pass (the AOTAutograd
    /// analog).
    pub fn from_graph(graph: &Graph) -> Self {
        let mut graph = graph.clone();
        graph.outputs.clear();
        GraphBuilder { graph }
    }

    /// Declares an external input with the given shape.
    pub fn input(&mut self, name: impl Into<String>, shape: impl Into<Shape>) -> ValueId {
        let id = self.push_raw(Op::Input, Vec::new(), shape.into(), name.into());
        self.graph.inputs.push(id);
        id
    }

    /// Declares a trainable parameter with the given shape.
    pub fn parameter(&mut self, name: impl Into<String>, shape: impl Into<Shape>) -> ValueId {
        let id = self.push_raw(Op::Parameter, Vec::new(), shape.into(), name.into());
        self.graph.parameters.push(id);
        id
    }

    /// Embeds a compile-time constant tensor.
    pub fn constant(&mut self, name: impl Into<String>, value: ptsim_tensor::Tensor) -> ValueId {
        let shape = value.shape().clone();
        self.push_raw(Op::Constant(value), Vec::new(), shape, name.into())
    }

    /// Appends an arbitrary operator node with shape inference.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] or [`Error::InvalidGraph`] if the
    /// operands are invalid.
    pub fn push(&mut self, op: Op, inputs: &[ValueId]) -> Result<ValueId> {
        for &input in inputs {
            if input.0 >= self.graph.nodes.len() {
                return Err(Error::InvalidGraph(format!("operand {input} does not exist")));
            }
        }
        let shapes: Vec<&Shape> = inputs.iter().map(|&v| &self.graph.nodes[v.0].shape).collect();
        let shape = op.infer_shape(&shapes)?;
        let name = format!("{}_{}", op.mnemonic(), self.graph.nodes.len());
        Ok(self.push_raw(op, inputs.to_vec(), shape, name))
    }

    fn push_raw(&mut self, op: Op, inputs: Vec<ValueId>, shape: Shape, name: String) -> ValueId {
        let id = ValueId(self.graph.nodes.len());
        self.graph.nodes.push(GraphNode { op, inputs, shape, name });
        id
    }

    /// Marks a value as a graph output.
    pub fn output(&mut self, value: ValueId) {
        self.graph.outputs.push(value);
    }

    /// Finishes building, returning the graph.
    pub fn finish(self) -> Graph {
        self.graph
    }

    // --- Convenience operator methods ---

    /// Matrix multiply.
    ///
    /// # Errors
    ///
    /// Returns an error if shapes are incompatible; same for all the
    /// convenience methods below.
    pub fn matmul(&mut self, a: ValueId, b: ValueId) -> Result<ValueId> {
        self.push(Op::MatMul, &[a, b])
    }

    /// Batched matrix multiply.
    pub fn batch_matmul(&mut self, a: ValueId, b: ValueId) -> Result<ValueId> {
        self.push(Op::BatchMatMul, &[a, b])
    }

    /// 2-D convolution.
    pub fn conv2d(&mut self, x: ValueId, w: ValueId, geom: crate::op::ConvGeom) -> Result<ValueId> {
        self.push(Op::Conv2d(geom), &[x, w])
    }

    /// Broadcasting addition.
    pub fn add(&mut self, a: ValueId, b: ValueId) -> Result<ValueId> {
        self.push(Op::Add, &[a, b])
    }

    /// Broadcasting subtraction.
    pub fn sub(&mut self, a: ValueId, b: ValueId) -> Result<ValueId> {
        self.push(Op::Sub, &[a, b])
    }

    /// Broadcasting multiplication.
    pub fn mul(&mut self, a: ValueId, b: ValueId) -> Result<ValueId> {
        self.push(Op::Mul, &[a, b])
    }

    /// Scalar scaling.
    pub fn scale(&mut self, x: ValueId, s: f32) -> Result<ValueId> {
        self.push(Op::Scale(s), &[x])
    }

    /// ReLU activation.
    pub fn relu(&mut self, x: ValueId) -> Result<ValueId> {
        self.push(Op::Relu, &[x])
    }

    /// GELU activation.
    pub fn gelu(&mut self, x: ValueId) -> Result<ValueId> {
        self.push(Op::Gelu, &[x])
    }

    /// Softmax along the last axis.
    pub fn softmax(&mut self, x: ValueId) -> Result<ValueId> {
        self.push(Op::Softmax, &[x])
    }

    /// Layer normalization.
    pub fn layernorm(&mut self, x: ValueId, gamma: ValueId, beta: ValueId) -> Result<ValueId> {
        self.push(Op::LayerNorm { eps: 1e-5 }, &[x, gamma, beta])
    }

    /// Reshape to a fixed shape.
    pub fn reshape(&mut self, x: ValueId, shape: impl Into<Shape>) -> Result<ValueId> {
        self.push(Op::Reshape(shape.into()), &[x])
    }

    /// 2-D transpose.
    pub fn transpose2(&mut self, x: ValueId) -> Result<ValueId> {
        self.push(Op::Transpose2, &[x])
    }

    /// Permute axes.
    pub fn permute(&mut self, x: ValueId, perm: Vec<usize>) -> Result<ValueId> {
        self.push(Op::Permute(perm), &[x])
    }

    /// Fully-connected layer `x·w + b`.
    pub fn linear(&mut self, x: ValueId, w: ValueId, b: ValueId) -> Result<ValueId> {
        let y = self.matmul(x, w)?;
        self.add(y, b)
    }

    /// Mean cross-entropy loss of logits against one-hot targets.
    pub fn cross_entropy(&mut self, logits: ValueId, targets: ValueId) -> Result<ValueId> {
        self.push(Op::CrossEntropyLoss, &[logits, targets])
    }

    /// Shape of an already-built value.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a value of this builder's graph.
    pub fn shape_of(&self, id: ValueId) -> &Shape {
        &self.graph.nodes[id.0].shape
    }

    /// Read-only view of the graph built so far.
    pub fn as_graph(&self) -> &Graph {
        &self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::ConvGeom;

    #[test]
    fn builder_creates_valid_topological_graph() {
        let mut g = GraphBuilder::new();
        let x = g.input("x", [2, 4]);
        let w = g.parameter("w", [4, 3]);
        let b = g.parameter("b", [3]);
        let y = g.linear(x, w, b).unwrap();
        let z = g.relu(y).unwrap();
        g.output(z);
        let graph = g.finish();
        graph.validate().unwrap();
        assert_eq!(graph.inputs().len(), 1);
        assert_eq!(graph.parameters().len(), 2);
        assert_eq!(graph.node(z).shape.dims(), &[2, 3]);
    }

    #[test]
    fn builder_rejects_shape_errors() {
        let mut g = GraphBuilder::new();
        let x = g.input("x", [2, 4]);
        let w = g.parameter("w", [5, 3]);
        assert!(g.matmul(x, w).is_err());
    }

    #[test]
    fn push_rejects_unknown_operands() {
        let mut g = GraphBuilder::new();
        let x = g.input("x", [2, 2]);
        assert!(g.push(Op::Add, &[x, ValueId(99)]).is_err());
    }

    #[test]
    fn conv_graph_shapes() {
        let mut g = GraphBuilder::new();
        let x = g.input("x", [1, 3, 32, 32]);
        let w = g.parameter("w", [8, 3, 3, 3]);
        let y = g.conv2d(x, w, ConvGeom::new(1, 1)).unwrap();
        assert_eq!(g.shape_of(y).dims(), &[1, 8, 32, 32]);
    }

    #[test]
    fn use_counts_track_consumers() {
        let mut g = GraphBuilder::new();
        let x = g.input("x", [2, 2]);
        let y = g.relu(x).unwrap();
        let z = g.add(y, y).unwrap();
        g.output(z);
        let graph = g.finish();
        let counts = graph.use_counts();
        assert_eq!(counts[x.index()], 1);
        assert_eq!(counts[y.index()], 2);
        assert_eq!(counts[z.index()], 0);
    }

    #[test]
    fn dump_is_nonempty_and_mentions_ops() {
        let mut g = GraphBuilder::new();
        let x = g.input("x", [2, 2]);
        let y = g.relu(x).unwrap();
        g.output(y);
        let dump = g.finish().dump();
        assert!(dump.contains("relu"));
        assert!(dump.contains("outputs"));
    }
}
