//! # hcs-dlio
//!
//! A DLIO-equivalent deep-learning I/O benchmark (paper §IV.C.2, §VI).
//! DLIO "aims to emulate the I/O behavior of DL applications": worker
//! threads prefetch dataset samples from storage into a bounded queue
//! while the trainer consumes batches and computes; I/O that the
//! prefetch pipeline hides behind computation is *overlapping*, I/O the
//! trainer waits for is *non-overlapping* (§VI.A).
//!
//! The crate builds that pipeline as a loader pipeline
//! ([`hcs_core::loader`]), one loader per node, over the suite's
//! flow-level storage models, records DFTracer events for every read
//! and compute interval, and reproduces the paper's two workloads:
//!
//! * [`workloads::resnet50`] — PyTorch ResNet-50: 1,024 JPEG samples of
//!   150 KB, batch size one, one epoch, eight I/O threads, weak scaling
//!   (§VI.B).
//! * [`workloads::cosmoflow`] — TensorFlow Cosmoflow: 1,024 TFRecord
//!   samples, 256 KB transfers, four epochs, batch size one, four I/O
//!   threads ("a contrasting scenario to ResNet50 ... under limited
//!   resources", §VI.C), strong scaling.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod pipeline;
pub mod result;
pub mod workloads;

pub use config::{DlioConfig, Scaling};
pub use pipeline::run_dlio;
pub use result::DlioResult;
pub use workloads::{cosmoflow, resnet50};
