//! # hcs-dftrace
//!
//! A DFTracer-equivalent tracing and analysis substrate (paper §IV.C.2,
//! §VI.A). DFTracer "captures system-level calls and stores them into
//! log trace files which consist of 'read' and 'compute' events"; the
//! paper's I/O-time analysis then splits an application's runtime into
//!
//! * **non-overlapping I/O** — read time during which the compute
//!   pipeline is stalled,
//! * **overlapping I/O** — read time hidden behind computation,
//! * **compute-only time**.
//!
//! From those it derives two throughputs (§VI.A): the *application
//! throughput*, which "depends only on the non-overlapping I/O", and
//! the *system throughput*, which "depends on the total I/O time as the
//! system resources are occupied to read the input".
//!
//! [`Tracer`] records complete events; [`chrome`] serializes them to
//! the chrome-trace JSON format DFTracer emits (and reads them back);
//! [`analysis`] performs the interval-algebra decomposition.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod chrome;
pub mod event;
pub mod tracer;

pub use analysis::{decompose, IoDecomposition};
pub use event::{EventCategory, TraceEvent};
pub use tracer::Tracer;
