//! # hcs-simkit
//!
//! Deterministic discrete-event and flow-level simulation engine underlying
//! the `hcs` (Highly Configurable Storage) suite.
//!
//! The crate provides two cooperating engines:
//!
//! * [`engine`] — a classic discrete-event simulation (DES) core: a binary
//!   heap of timestamped events, a monotone simulated clock, and a
//!   [`engine::World`] trait that domain crates implement to react to
//!   events. Determinism is guaranteed by breaking timestamp ties with a
//!   monotonically increasing sequence number.
//! * [`flownet`] — a flow-level bandwidth-sharing model. I/O activity is
//!   expressed as *flows* that traverse a path of capacity-limited
//!   *resources* (NICs, gateway links, server CPU pools, device arrays).
//!   Concurrently active flows share every resource max-min fairly;
//!   completions are predicted analytically between rate recomputations,
//!   so simulated time advances in O(#rate-changes) rather than
//!   O(#bytes).
//!
//! Supporting modules: [`faults`] (deterministic timed capacity
//! schedules — outages, degradations, recoveries — consumed by
//! [`flownet::FlowNet::drive`]), [`arrivals`] (seeded open-loop
//! arrival schedules — fixed-rate and Poisson — whose ops the same
//! drive loop admits), [`time`] (simulated time arithmetic), [`rng`]
//! (seeded, label-splittable random streams), [`stats`] (online summary
//! statistics), [`intervals`] (interval-set algebra used for I/O overlap
//! analysis), and [`units`] (byte/bandwidth unit helpers).
//!
//! Everything in this crate is deterministic: running the same simulation
//! twice with the same seed produces bit-identical results.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arrivals;
pub mod engine;
pub mod faults;
pub mod flowlog;
pub mod flownet;
pub mod intervals;
pub mod provenance;
pub mod rng;
pub mod stats;
pub mod time;
pub mod units;

pub use arrivals::{arrival_times, ArrivalDiscipline};
pub use engine::{EventQueue, Simulation, World};
pub use faults::{CapacityEvent, FaultRunReport, FaultTimeline, StallError};
pub use flowlog::{AllocSample, FlowLog, FlowLogHandle, FlowRecord};
pub use flownet::{
    Completion, EpochFlowSample, FlowId, FlowNet, FlowRecorder, FlowSpec, OpIdentity, ResourceId,
    ResourceSpec, TeeRecorder,
};
pub use intervals::IntervalSet;
pub use provenance::{OpProvenance, ProvenanceHandle, ProvenanceLog};
pub use rng::SimRng;
pub use stats::{OnlineStats, Summary};
pub use time::SimTime;
