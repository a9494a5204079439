//! # hcs-ior
//!
//! An IOR-equivalent synthetic benchmark (paper §IV.C.1). IOR
//! ("Interleaved-Or-Random") drives a file system with a parameterized
//! request stream; the paper uses IOR-4.1.0 with the POSIX API,
//! file-per-process (N-N) layout, 1 MiB block and transfer sizes and
//! 3,000 segments (≈120 GB per node at 44 ppn), simulating:
//!
//! * **scientific simulations** — sequential writes,
//! * **data analytics** — sequential reads,
//! * **ML algorithms** — random reads.
//!
//! Cache-defeating measures mirror the paper: task reordering shifts
//! each rank onto data written by a different node ("a different client
//! read the requests than the one who generated the writes"), and the
//! per-node volume is chosen "to outgrow the block size of GPFS's and
//! Lustre's cache".
//!
//! [`IorConfig`] is the parameter set, [`run_ior`] executes it against
//! any [`hcs_core::StorageSystem`], and [`IorReport`] carries the
//! repeated-measurement summaries IOR would print.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod apps;
pub mod config;
pub mod runner;

pub use apps::all_apps;
pub use config::{IorConfig, WorkloadClass};
pub use runner::{run_ior, run_ior_with, IorReport, IorRun, IorRunOutput};
