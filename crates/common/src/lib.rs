//! Common foundation types for the PyTorchSim-rs workspace.
//!
//! This crate holds the vocabulary shared by every layer of the simulator:
//! strongly-typed identifiers ([`id`]), simulated-time arithmetic
//! ([`cycles`]), hardware/software configuration ([`config`]), the common
//! error type ([`error`]), the dependency-free JSON document model every
//! wire format in the tree shares ([`json`]), the seeded generator every
//! random draw uses ([`rng`]), and small numeric helpers ([`util`]).
//!
//! # Examples
//!
//! ```
//! use ptsim_common::config::NpuConfig;
//! use ptsim_common::cycles::Cycle;
//!
//! let tpu = NpuConfig::tpu_v3();
//! assert_eq!(tpu.systolic_rows, 128);
//! let t = Cycle::ZERO + 940_000_000; // one second of simulated time
//! assert_eq!(tpu.cycles_to_secs(t), 1.0);
//! ```

pub mod cancel;
pub mod config;
pub mod cycles;
pub mod error;
pub mod fingerprint;
pub mod id;
pub mod json;
pub mod rng;
pub mod util;

pub use cancel::CancelToken;
pub use config::{DmaGranularity, DramConfig, NocConfig, NocKind, NpuConfig, SimConfig};
pub use cycles::Cycle;
pub use error::{Error, Result};
pub use id::{ChannelId, CoreId, NodeId, RequestId, TenantId};
