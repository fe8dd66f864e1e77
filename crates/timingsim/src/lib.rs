//! Cycle-accurate NPU core timing model — the Gem5 analog (§3.8).
//!
//! The timing simulator executes a kernel's machine code on a model of the
//! in-order NPU core pipeline (Fig. 2): a scalar pipe, the wide vector
//! datapath, the serializer/deserializer FIFOs of the VCIX interface, and
//! the weight-stationary systolic array with its fill/drain skew. Exactly as
//! in the paper, it runs the compute portion of a tile kernel *ignoring
//! DMA transfer time* to produce the deterministic compute-node latency
//! recorded in the TOG (§3.7); DMA timing is modelled online by TOGSim.
//!
//! Scalar instructions are interpreted functionally (loop trip counts and
//! addresses matter for timing); vector data values are not computed, since
//! dense tile latencies are data-independent — the paper's key observation.
//!
//! # Examples
//!
//! ```
//! use ptsim_common::config::NpuConfig;
//! use ptsim_isa::instr::Instr;
//! use ptsim_isa::program::Program;
//! use ptsim_isa::reg::Reg;
//! use ptsim_timingsim::TimingSim;
//!
//! let p = Program::new("two_adds", vec![
//!     Instr::Li { rd: Reg::new(1), imm: 1 },
//!     Instr::Add { rd: Reg::new(2), rs1: Reg::new(1), rs2: Reg::new(1) },
//!     Instr::Halt,
//! ]);
//! let lat = TimingSim::new(&NpuConfig::tiny()).measure(&p)?;
//! assert!(lat.cycles >= 2);
//! # Ok::<(), ptsim_common::Error>(())
//! ```

pub mod core;

pub use core::{TileLatency, TimingParams, TimingSim};
