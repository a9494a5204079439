//! # hcs-simkit
//!
//! Deterministic flow-level simulation engine underlying the `hcs`
//! (Highly Configurable Storage) suite.
//!
//! The engine is [`flownet`]: a flow-level bandwidth-sharing model. I/O
//! activity is expressed as *flows* that traverse a path of
//! capacity-limited *resources* (NICs, gateway links, server CPU pools,
//! device arrays). Concurrently active flows share every resource
//! max-min fairly; completions are predicted analytically between rate
//! recomputations, so simulated time advances in O(#rate-changes)
//! rather than O(#bytes). [`flownet::FlowNet::drive`] is the one drive
//! loop: it interleaves flow completions with timed capacity events,
//! open-loop arrivals and a client timer ([`flownet::DriveHooks`]). IOR
//! phases drive it with a completion closure; the data-loader pipeline
//! behind DLIO and trace replay (`hcs_core::loader`) is a client whose
//! timer ends compute steps.
//!
//! Supporting modules: [`faults`] (deterministic timed capacity
//! schedules — outages, degradations, recoveries — consumed by the
//! drive loop), [`arrivals`] (seeded open-loop arrival schedules —
//! fixed-rate and Poisson — whose ops the same drive loop admits),
//! [`flowlog`] and [`provenance`] (the two observers a network owns:
//! [`FlowNet::record_flows`] and [`FlowNet::record_provenance`] start
//! them, the matching `take_*` call returns the log by value; both are
//! pure listeners, fed once per rate epoch), [`rng`]
//! (seeded, label-splittable random streams), [`stats`] (summary
//! statistics and percentiles), [`intervals`] (interval-set algebra
//! used for I/O overlap analysis), and [`units`] (byte/bandwidth unit
//! helpers).
//!
//! Everything in this crate is deterministic: running the same simulation
//! twice with the same seed produces bit-identical results.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arrivals;
pub mod faults;
pub mod flowlog;
pub mod flownet;
pub mod intervals;
pub mod provenance;
pub mod rng;
pub mod stats;
pub mod units;

pub use arrivals::{arrival_times, ArrivalDiscipline};
pub use faults::{CapacityEvent, FaultRunReport, FaultTimeline, StallError};
pub use flowlog::{AllocSample, FlowLog, FlowRecord};
pub use flownet::{Completion, DriveHooks, FlowId, FlowNet, FlowSpec, ResourceId, ResourceSpec};
pub use intervals::IntervalSet;
pub use provenance::{OpProvenance, ProvenanceLog};
pub use rng::SimRng;
pub use stats::Summary;
