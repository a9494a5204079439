//! I/O-time decomposition (the paper's §VI.A analysis).
//!
//! The runtime of a DL application is split into three exclusive parts:
//! compute-only time, *overlapping I/O* (reads hidden behind compute)
//! and *non-overlapping I/O* (reads that stall the pipeline). With the
//! per-process read and compute interval sets `R` and `C`:
//!
//! ```text
//! overlapping     = |R ∩ C|
//! non-overlapping = |R \ C|
//! compute-only    = |C \ R|
//! ```
//!
//! and the two throughputs of §VI.A follow:
//!
//! ```text
//! application throughput = samples / (|C| + |R \ C|)   (what the app perceives)
//! system throughput      = samples / |R|               (what storage delivered)
//! ```

use serde::{Deserialize, Serialize};

use hcs_simkit::IntervalSet;

use crate::event::EventCategory;
use crate::tracer::Tracer;

/// The decomposition of one process's (or a whole job's) runtime.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct IoDecomposition {
    /// Wall-clock span of the trace, seconds.
    pub total_runtime: f64,
    /// Union measure of read intervals (`|R|`), seconds — the paper's
    /// "total I/O time".
    pub io_total: f64,
    /// Union measure of compute intervals (`|C|`), seconds.
    pub compute_total: f64,
    /// `|R ∩ C|` — I/O hidden behind compute, seconds.
    pub overlapping_io: f64,
    /// `|R \ C|` — I/O the application waits for, seconds.
    pub non_overlapping_io: f64,
}

impl IoDecomposition {
    /// Application-perceived I/O+compute time: `|C| + |R \ C|`.
    pub fn perceived_runtime(&self) -> f64 {
        self.compute_total + self.non_overlapping_io
    }

    /// Application throughput for `samples` processed, samples/s.
    pub fn app_throughput(&self, samples: f64) -> f64 {
        let t = self.perceived_runtime();
        if t <= 0.0 {
            0.0
        } else {
            samples / t
        }
    }

    /// System (storage-side) throughput for `samples` processed,
    /// samples/s.
    pub fn system_throughput(&self, samples: f64) -> f64 {
        if self.io_total <= 0.0 {
            0.0
        } else {
            samples / self.io_total
        }
    }

    /// Fraction of runtime that is compute-only (§VI.A reports 97 % for
    /// the paper's DL runs).
    pub fn compute_fraction(&self) -> f64 {
        if self.total_runtime <= 0.0 {
            0.0
        } else {
            (self.compute_total - self.overlapping_io).max(0.0) / self.total_runtime
        }
    }

    /// Element-wise accumulation (used to aggregate per-node results).
    pub fn accumulate(&mut self, other: &IoDecomposition) {
        self.total_runtime += other.total_runtime;
        self.io_total += other.io_total;
        self.compute_total += other.compute_total;
        self.overlapping_io += other.overlapping_io;
        self.non_overlapping_io += other.non_overlapping_io;
    }

    /// Element-wise scaling (e.g. to average accumulated results).
    pub fn scaled(&self, k: f64) -> IoDecomposition {
        IoDecomposition {
            total_runtime: self.total_runtime * k,
            io_total: self.io_total * k,
            compute_total: self.compute_total * k,
            overlapping_io: self.overlapping_io * k,
            non_overlapping_io: self.non_overlapping_io * k,
        }
    }
}

/// Decomposes a trace, optionally restricted to one pid.
///
/// Reads are [`EventCategory::Read`] events; compute is
/// [`EventCategory::Compute`]. Open/metadata events count as I/O (they
/// stall the reader exactly like a read does).
pub fn decompose(tracer: &Tracer, pid: Option<u32>) -> IoDecomposition {
    let selected = |e: &&crate::event::TraceEvent| pid.is_none_or(|p| e.pid == p);

    let reads = IntervalSet::from_intervals(
        tracer
            .events()
            .iter()
            .filter(selected)
            .filter(|e| matches!(e.cat, EventCategory::Read | EventCategory::Open))
            .map(|e| e.interval()),
    );
    let compute = IntervalSet::from_intervals(
        tracer
            .events()
            .iter()
            .filter(selected)
            .filter(|e| e.cat == EventCategory::Compute)
            .map(|e| e.interval()),
    );

    let start = reads
        .start()
        .unwrap_or(f64::INFINITY)
        .min(compute.start().unwrap_or(f64::INFINITY));
    let end = reads
        .end()
        .unwrap_or(f64::NEG_INFINITY)
        .max(compute.end().unwrap_or(f64::NEG_INFINITY));
    let total_runtime = if end > start { end - start } else { 0.0 };

    let overlapping = reads.intersect(&compute).total();
    IoDecomposition {
        total_runtime,
        io_total: reads.total(),
        compute_total: compute.total(),
        overlapping_io: overlapping,
        non_overlapping_io: reads.total() - overlapping,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tr() -> Tracer {
        let mut t = Tracer::new();
        // Reads: [0,2) and [5,6). Compute: [1,4).
        t.complete("r", EventCategory::Read, 0, 0, 0.0, 2.0);
        t.complete("r", EventCategory::Read, 0, 1, 5.0, 6.0);
        t.complete("c", EventCategory::Compute, 0, 9, 1.0, 4.0);
        t
    }

    #[test]
    fn decomposition_arithmetic() {
        let d = decompose(&tr(), None);
        assert_eq!(d.total_runtime, 6.0);
        assert_eq!(d.io_total, 3.0);
        assert_eq!(d.compute_total, 3.0);
        assert_eq!(d.overlapping_io, 1.0); // [1,2)
        assert_eq!(d.non_overlapping_io, 2.0); // [0,1) ∪ [5,6)
        assert_eq!(d.perceived_runtime(), 5.0);
    }

    #[test]
    fn overlap_plus_non_overlap_equals_io() {
        let d = decompose(&tr(), None);
        assert!((d.overlapping_io + d.non_overlapping_io - d.io_total).abs() < 1e-12);
    }

    #[test]
    fn throughputs() {
        let d = decompose(&tr(), None);
        assert!((d.app_throughput(10.0) - 2.0).abs() < 1e-12);
        assert!((d.system_throughput(10.0) - 10.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn fully_hidden_io_has_zero_non_overlap() {
        let mut t = Tracer::new();
        t.complete("c", EventCategory::Compute, 0, 0, 0.0, 10.0);
        t.complete("r", EventCategory::Read, 0, 1, 2.0, 3.0);
        let d = decompose(&t, None);
        assert_eq!(d.non_overlapping_io, 0.0);
        assert_eq!(d.overlapping_io, 1.0);
        assert!(d.compute_fraction() > 0.89);
    }

    #[test]
    fn open_events_count_as_io() {
        let mut t = Tracer::new();
        t.complete("open", EventCategory::Open, 0, 0, 0.0, 1.0);
        let d = decompose(&t, None);
        assert_eq!(d.io_total, 1.0);
    }

    #[test]
    fn empty_trace_is_zero() {
        let d = decompose(&Tracer::new(), None);
        assert_eq!(d.total_runtime, 0.0);
        assert_eq!(d.app_throughput(5.0), 0.0);
        assert_eq!(d.system_throughput(5.0), 0.0);
    }

    #[test]
    fn accumulate_and_scale() {
        let d = decompose(&tr(), None);
        let mut sum = IoDecomposition::default();
        sum.accumulate(&d);
        sum.accumulate(&d);
        let avg = sum.scaled(0.5);
        assert!((avg.io_total - d.io_total).abs() < 1e-12);
    }
}
