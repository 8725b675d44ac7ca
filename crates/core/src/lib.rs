//! # flexsnoop — Flexible Snooping for embedded-ring multiprocessors
//!
//! A full reproduction of *"Flexible Snooping: Adaptive Forwarding and
//! Filtering of Snoops in Embedded-Ring Multiprocessors"* (Strauss, Shen,
//! Torrellas — ISCA 2006) as a Rust library: the seven-state ring snoop
//! coherence protocol, the Table 2 message primitives, the seven snooping
//! algorithms (Lazy, Eager, Oracle, Subset, Superset Con, Superset Agg,
//! Exact), the supplier predictors they rely on, and a cycle-level machine
//! simulator matching the paper's Table 4 configuration.
//!
//! ## Quick start
//!
//! ```
//! use flexsnoop::{run_workload, Algorithm};
//! use flexsnoop_workload::profiles;
//!
//! # fn main() -> Result<(), String> {
//! let workload = profiles::specweb().with_accesses(500);
//! let lazy = run_workload(&workload, Algorithm::Lazy, None, 42)?;
//! let agg = run_workload(&workload, Algorithm::SupersetAgg, None, 42)?;
//! // SupersetAgg should not snoop more than Lazy's full walk.
//! assert!(agg.snoops_per_read() <= 8.0);
//! assert!(lazy.read_txns > 0);
//! # Ok(())
//! # }
//! ```
//!
//! ## Crate layout
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`config`] | The machine configuration (paper Table 4). |
//! | [`algorithm`] | The snooping algorithms and Table 2 primitives. |
//! | [`message`] | Ring message representation (request / reply / combined R/R). |
//! | [`sim`] | The discrete-event machine simulator: gateway, requester, recovery, churn, scope and codec modules. |
//! | [`probe`] | Run-level observability hooks ([`probe::Probe`]). |
//! | [`stats`] | Per-run statistics (every figure's raw quantities). |
//! | [`experiments`] | Multi-run helpers used by benches and examples. |
//!
//! The substrates live in sibling crates: `flexsnoop-engine` (event
//! queues), `flexsnoop-mem` (caches and coherence states),
//! `flexsnoop-net` (ring and torus), `flexsnoop-predictor` (supplier
//! predictors), `flexsnoop-workload` (synthetic workloads) and
//! `flexsnoop-metrics` (statistics and the energy model).

#![warn(missing_docs)]

pub mod algorithm;
pub mod arena;
pub mod config;
pub mod experiments;
pub mod message;
pub mod oracle;
pub mod probe;
pub mod sim;
#[cfg(test)]
mod sim_tests;
pub mod stats;
pub mod timeline;

pub use algorithm::{Algorithm, DynPolicy, SnoopAction};
pub use config::{default_hier, MachineConfig, RecoveryParams, TimeoutPolicy};
pub use experiments::{replay_streams, run_algorithms, run_workload, GroupAggregator, VecStream};
pub use message::{MsgKind, ReplyInfo, RingMsg, SnoopScope, TxnId, TxnOp};
pub use oracle::{ProtocolMutation, Violation};
pub use probe::{CountingProbe, Probe, ProbeReport};
pub use sim::{energy_model_for, ChurnWindow, MemoryFootprint, Simulator};
pub use stats::{RobustnessStats, RunStats};
pub use timeline::{Timeline, TxnEvent};

// Re-export the substrate types that appear in this crate's public API so
// downstream users need only one dependency.
pub use flexsnoop_net::{
    FaultPlan, FaultStats, HierParams, LinkDrop, PartitionWindow, RingFault, StallWindow,
};
pub use flexsnoop_predictor::{
    FaultInjectingPredictor, FaultKind, PredictorSpec, SupplierPredictor,
};
pub use flexsnoop_workload::{WorkloadGroup, WorkloadProfile};
