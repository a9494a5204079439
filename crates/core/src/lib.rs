//! # hcs-core
//!
//! Core public API of the `hcs` (Highly Configurable Storage) suite — a
//! from-scratch, simulation-based reproduction of *"Understanding Highly
//! Configurable Storage for Diverse Workloads"* (IEEE CLUSTER 2024).
//!
//! The suite separates three concerns:
//!
//! 1. **What the application does** — a [`PhaseSpec`]: direction,
//!    access pattern, transfer size, bytes per rank, synchronization.
//! 2. **What the storage system is** — an implementation of
//!    [`StorageSystem`] (see the `hcs-vast`, `hcs-gpfs`, `hcs-lustre`
//!    and `hcs-nvme` crates) that *plans* a [`DeploymentGraph`]: the
//!    typed stages an I/O path crosses — mount connections, gateway
//!    funnels, server pools, fabric links, media arrays. One shared
//!    planner ([`graph`]) compiles every graph into
//!    [`hcs_simkit::FlowNet`] resources.
//! 3. **How they meet** — the [`runner`], which places one flow group
//!    per client node into the provisioned network, lets the flow engine
//!    divide bandwidth max-min fairly, and reports IOR-style aggregate
//!    bandwidth (total bytes over the slowest rank's completion).
//!
//! ```
//! use hcs_core::{PhaseSpec, runner::run_phase};
//! use hcs_core::testing::UniformSystem;
//! use hcs_simkit::units::{GIB, MIB};
//!
//! // A toy storage system with a 10 GiB/s shared pool.
//! let system = UniformSystem::new("toy", 10.0 * GIB);
//! let phase = PhaseSpec::seq_write(MIB, GIB).with_fsync(false);
//! let outcome = run_phase(&system, 4, 8, &phase);
//! assert!(outcome.agg_bandwidth <= 10.0 * GIB * 1.000001);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod campaign;
pub mod chaos;
pub mod graph;
pub mod loader;
pub mod metrics;
pub mod outcome;
pub mod phase;
pub mod runner;
pub mod scenario;
pub mod system;
pub mod telemetry;
pub mod testing;

pub use campaign::{young_interval, JobOutcome, JobScript, JobStep};
pub use chaos::{ChaosCampaign, ChaosFaultKind, ChaosInvariant, ChaosReport, FaultBudget};
pub use graph::{Capacity, DeploymentGraph, Reconfigured, Stage, StageKind, StageScope};
pub use hcs_devices::{AccessPattern, IoOp};
pub use metrics::{
    DeckMetricsSummary, KneeVerdict, LatencyHistogram, OpLatency, PointMetrics, ProvenanceMetrics,
    ResilienceMetrics, StageBlame, Stats, StatsSummary, SystemMetrics,
};
pub use outcome::{Bottleneck, PhaseOutcome};
pub use phase::PhaseSpec;
pub use scenario::{
    Arrival, Capabilities, Deck, Discipline, FaultKind, FaultSpec, GraphEdit, Scale, Scenario,
    SweepAxes, Workload,
};
pub use system::{MetadataProfile, Provisioned, StorageSystem};
pub use telemetry::{MetricsSummary, Recorder, UtilizationTimeline};
