//! The Tile Operation Graph — the TLS exchange format (§3.7).
//!
//! A TOG is the compiler's tile-level description of a DNN: a directed
//! acyclic graph whose nodes are loop markers (`loopBegin`/`loopEnd`,
//! represented structurally here), tile `compute` operations with offline
//! latencies, `loadDMA`/`storeDMA` transfers whose addresses are affine
//! expressions of the loop variables, and `waitDMA` dependencies that let
//! loads be hoisted ahead of the compute loop for compute–DMA overlap.
//!
//! The paper serializes TOGs in a lightly customized ONNX container; this
//! reproduction keeps them in memory, where the compiler caches them.
//! [`Tog::expand`] flattens the structured loops into
//! an [`ExecutableTog`] with resolved addresses and instance-level
//! dependencies, which is what `ptsim-togsim` executes.
//!
//! # Examples
//!
//! ```
//! use ptsim_tog::{AddrExpr, ExecUnit, Tog, TogBuilder, TogOpKind};
//!
//! let mut b = TogBuilder::new("axpy");
//! let i = b.begin_loop(4);
//! let ld = b.node(TogOpKind::load(AddrExpr::new(0x1000).with_term(i, 256), 256), &[]);
//! let w = b.node(TogOpKind::WaitDma { dma: ld }, &[]);
//! let c = b.node(TogOpKind::compute("axpy_tile", 100, ExecUnit::Vector), &[w]);
//! b.node(TogOpKind::store(AddrExpr::new(0x8000).with_term(i, 256), 256), &[c]);
//! b.end_loop();
//! let tog = b.finish();
//! let flat = tog.expand()?;
//! // 4 iterations x 3 instances (waitDMA dissolves into dependencies).
//! assert_eq!(flat.nodes.len(), 12);
//! # Ok::<(), ptsim_common::Error>(())
//! ```

pub mod expr;
pub mod graph;

pub use expr::AddrExpr;
pub use graph::{
    ExecUnit, ExecutableTog, FlatNode, FlatNodeKind, Tog, TogBuilder, TogItem, TogOp, TogOpKind,
};
