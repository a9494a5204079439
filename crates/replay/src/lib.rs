//! # hcs-replay
//!
//! Trace-driven **what-if replay**: take a DFTracer-style trace of a DL
//! training run (captured on one storage system, real or simulated),
//! keep its *compute* timeline verbatim, and re-drive its *reads*
//! through a different storage system model. The output answers the
//! question I/O teams actually ask of traces: *"we profiled this
//! workload on VAST — what would its I/O time and stalls look like on
//! GPFS?"*
//!
//! The replay reconstructs, per process:
//!
//! * the ordered list of read requests (byte sizes from the trace's
//!   event args),
//! * the ordered list of compute steps (durations from the trace),
//! * the worker-thread count (distinct reader `tid`s observed),
//!
//! and builds one loader pipeline from them: one
//! [`hcs_core::loader::Loader`] per process, each step consuming one
//! read, run by the same engine as DLIO against the target
//! [`StorageSystem`]. It produces a fresh trace and overlap
//! decomposition. Replaying a trace against the system that produced it
//! reproduces the original timings — the suite's end-to-end
//! self-consistency check (see `replay_is_self_consistent`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use serde::{Deserialize, Serialize};

use hcs_core::loader::{Loader, LoaderRun};
use hcs_core::{PhaseSpec, StorageSystem};
use hcs_dftrace::{EventCategory, IoDecomposition, Tracer};
use hcs_simkit::FlowNet;

/// What was extracted from the source trace for one process.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProcessProfile {
    /// Process id in the source trace.
    pub pid: u32,
    /// Read request sizes, in completion order, bytes.
    pub reads: Vec<f64>,
    /// Compute step durations, in completion order, seconds.
    pub computes: Vec<f64>,
    /// Reader threads observed.
    pub threads: u32,
}

// The replay parameters live in the core scenario IR (so a
// `hcs_core::Scenario` can embed a replay workload); this crate keeps
// its historical path and owns the execution engine.
pub use hcs_core::scenario::replay::ReplayConfig;

/// The replay outcome.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReplayResult {
    /// Target system description.
    pub system: String,
    /// Wall time of the replayed job, seconds.
    pub duration: f64,
    /// Per-process decompositions.
    pub per_process: Vec<IoDecomposition>,
    /// Mean per-process decomposition.
    pub mean: IoDecomposition,
    /// The replayed trace (same shape as the source, new timings).
    pub tracer: Tracer,
}

/// Extracts per-process profiles from a trace.
///
/// Only [`EventCategory::Read`] events with byte counts participate;
/// traces without byte counts cannot be replayed (the sizes are the
/// workload).
pub fn extract_profiles(tracer: &Tracer) -> Vec<ProcessProfile> {
    tracer
        .pids()
        .into_iter()
        .filter_map(|pid| {
            let mut reads: Vec<(f64, f64)> = tracer
                .by_pid(pid)
                .filter(|e| e.cat == EventCategory::Read)
                .filter_map(|e| e.bytes.map(|b| (e.end(), b)))
                .collect();
            reads.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
            let mut computes: Vec<(f64, f64)> = tracer
                .by_pid(pid)
                .filter(|e| e.cat == EventCategory::Compute)
                .map(|e| (e.end(), e.dur))
                .collect();
            computes.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
            let threads = tracer
                .by_pid(pid)
                .filter(|e| e.cat == EventCategory::Read)
                .map(|e| e.tid)
                .collect::<std::collections::BTreeSet<_>>()
                .len() as u32;
            if reads.is_empty() {
                None
            } else {
                Some(ProcessProfile {
                    pid,
                    reads: reads.into_iter().map(|(_, b)| b).collect(),
                    computes: computes.into_iter().map(|(_, d)| d).collect(),
                    threads: threads.max(1),
                })
            }
        })
        .collect()
}

/// Median of a non-empty slice.
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    v[v.len() / 2]
}

/// Loads a Chrome-format trace from `path` and checks that it has
/// replayable reads; the error is a one-line diagnostic naming the file.
pub fn load_trace(path: &str) -> Result<Tracer, String> {
    let json = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read replay trace '{path}': {e}"))?;
    let tracer = hcs_dftrace::chrome::from_json(&json)
        .map_err(|e| format!("cannot parse replay trace '{path}': {e}"))?;
    if extract_profiles(&tracer).is_empty() {
        return Err(format!(
            "replay trace '{path}' has no read events with byte counts; nothing to replay"
        ));
    }
    Ok(tracer)
}

/// Replays a trace against a target storage system.
///
/// # Panics
/// Panics if the trace contains no replayable reads.
pub fn replay(tracer: &Tracer, system: &dyn StorageSystem, config: &ReplayConfig) -> ReplayResult {
    let profiles = extract_profiles(tracer);
    assert!(
        !profiles.is_empty(),
        "trace has no read events with byte counts; nothing to replay"
    );
    let nodes = profiles.len() as u32;

    let all_reads: Vec<f64> = profiles
        .iter()
        .flat_map(|p| p.reads.iter().copied())
        .collect();
    let ts = config.transfer_size.unwrap_or_else(|| median(&all_reads));
    let max_read = all_reads.iter().copied().fold(0.0_f64, f64::max);
    let bytes_per_rank: f64 = profiles
        .iter()
        .map(|p| p.reads.iter().sum::<f64>())
        .fold(0.0_f64, f64::max)
        .max(max_read)
        .max(ts);
    let phase = PhaseSpec::random_read(ts.min(bytes_per_rank), bytes_per_rank)
        .with_client_cache_defeated(false);

    let file_per_read = config.file_per_read.unwrap_or(ts < 1024.0 * 1024.0);
    let mut net = FlowNet::new();
    let prov = system.provision(&mut net, nodes, 1, &phase);
    let loaders = profiles
        .iter()
        .zip(&prov.node_paths)
        .map(|(p, path)| Loader {
            pid: p.pid,
            path: path.clone(),
            reads: p.reads.clone(),
            steps: p.computes.iter().map(|&d| (d, 1)).collect(),
            threads: p.threads,
            depth: config.prefetch_depth.unwrap_or(2 * p.threads).max(1),
        })
        .collect();
    let out = LoaderRun {
        loaders,
        epochs: 1,
        stream_bw: prov.effective_stream_bw(ts),
        // The per-file open cost, folded into each read's rate so a
        // blocking thread's cadence matches the target's metadata path.
        open_latency: if file_per_read {
            prov.metadata_latency
        } else {
            0.0
        },
        checkpoints: None,
        event_names: ("read", "compute"),
    }
    .run(&mut net);

    ReplayResult {
        system: system.description(),
        duration: out.duration,
        per_process: out.per_loader,
        mean: out.mean,
        tracer: out.tracer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcs_dlio::{resnet50, run_dlio};
    use hcs_gpfs::GpfsConfig;
    use hcs_vast::vast_on_lassen;

    fn source_trace() -> (hcs_dlio::DlioResult, hcs_vast::VastConfig) {
        let vast = vast_on_lassen();
        let r = run_dlio(&vast, &resnet50().smoke(), 2, None);
        (r, vast)
    }

    #[test]
    fn profiles_extracted_faithfully() {
        let (r, _) = source_trace();
        let profiles = extract_profiles(&r.tracer);
        assert_eq!(profiles.len(), 2);
        for p in &profiles {
            assert_eq!(p.reads.len(), 64); // smoke dataset per node
            assert_eq!(p.computes.len(), 64);
            assert!(p.threads >= 1 && p.threads <= 8);
            assert!(p.reads.iter().all(|&b| (b - 150e3).abs() < 1.0));
        }
    }

    #[test]
    fn replay_is_self_consistent() {
        // Replaying a VAST trace against VAST reproduces the original
        // I/O totals within tolerance (thread multiplexing differs
        // slightly, bandwidth math must agree).
        let (r, vast) = source_trace();
        let replayed = replay(&r.tracer, &vast, &ReplayConfig::default());
        let orig = r.mean_per_node.io_total;
        let got = replayed.mean.io_total;
        let ratio = got / orig;
        assert!(
            (0.7..1.4).contains(&ratio),
            "self-replay io_total ratio = {ratio} ({got} vs {orig})"
        );
    }

    #[test]
    fn what_if_faster_system_cuts_io_time() {
        let (r, _) = source_trace();
        let gpfs = GpfsConfig::on_lassen();
        let replayed = replay(&r.tracer, &gpfs, &ReplayConfig::default());
        assert!(
            replayed.mean.io_total < 0.6 * r.mean_per_node.io_total,
            "GPFS replay should shrink I/O: {} vs {}",
            replayed.mean.io_total,
            r.mean_per_node.io_total
        );
        // Compute time is carried over from the trace, unchanged.
        let ratio = replayed.mean.compute_total / r.mean_per_node.compute_total;
        assert!((0.99..1.01).contains(&ratio), "compute preserved: {ratio}");
    }

    #[test]
    fn replay_round_trips_through_chrome_json() {
        let (r, vast) = source_trace();
        let json = hcs_dftrace::chrome::to_json(&r.tracer);
        let loaded = hcs_dftrace::chrome::from_json(&json).unwrap();
        let a = replay(&loaded, &vast, &ReplayConfig::default());
        let b = replay(&r.tracer, &vast, &ReplayConfig::default());
        assert_eq!(a.duration, b.duration);
    }

    #[test]
    fn replay_timings_are_pinned() {
        // IEEE-754 bit patterns of (duration, mean io_total, mean
        // non_overlapping_io) for 2-node smoke traces captured on
        // VAST@Lassen and replayed against VAST@Lassen, then GPFS.
        let pinned: [[u64; 3]; 4] = [
            [0x3ff4877b14c16bae, 0x3fc3b0506e383a2c, 0x3f69339a26ae5f00],
            [0x3ff47d6b65a9a808, 0x3f9fbe76c8b43855, 0x3f4450efdc9c4dc0],
            [0x3ffebfc46bfc46c0, 0x3ffdca01dca01dcc, 0x3feec736ec736ee0],
            [0x3fef21ab4b72c501, 0x3fe7866e43aa79b6, 0x3f8a5657fb699840],
        ];
        let vast = vast_on_lassen();
        let gpfs = GpfsConfig::on_lassen();
        let targets: [&dyn StorageSystem; 2] = [&vast, &gpfs];
        let mut got = Vec::new();
        for cfg in [resnet50().smoke(), hcs_dlio::cosmoflow().smoke()] {
            let source = run_dlio(&vast, &cfg, 2, None);
            for sys in targets {
                let r = replay(&source.tracer, sys, &ReplayConfig::default());
                let m = &r.mean;
                got.push([r.duration, m.io_total, m.non_overlapping_io].map(f64::to_bits));
            }
        }
        assert_eq!(got, pinned);
    }

    #[test]
    fn replayed_reads_record_their_own_bytes() {
        // One process, two reader threads, reads of 1, 4, 2 and 8 MB:
        // each replayed read event carries the size of the read that
        // completed, not of the one issued last.
        let mut t = Tracer::new();
        for (k, mb) in [1.0, 4.0, 2.0, 8.0].into_iter().enumerate() {
            let at = k as f64 * 0.01;
            let (pid, tid) = (0, k as u32 % 2);
            t.complete_with_bytes("r", EventCategory::Read, pid, tid, at, at + 0.005, mb * 1e6);
            t.complete(
                "c",
                EventCategory::Compute,
                pid,
                1000,
                at + 0.005,
                at + 0.01,
            );
        }
        let r = replay(&t, &GpfsConfig::on_lassen(), &ReplayConfig::default());
        let mut bytes: Vec<f64> = r
            .tracer
            .by_category(&EventCategory::Read)
            .map(|e| e.bytes.expect("read bytes"))
            .collect();
        bytes.sort_by(f64::total_cmp);
        assert_eq!(bytes, [1e6, 2e6, 4e6, 8e6]);
    }

    #[test]
    #[should_panic(expected = "nothing to replay")]
    fn traces_without_bytes_are_rejected() {
        let mut t = Tracer::new();
        t.complete("r", EventCategory::Read, 0, 0, 0.0, 1.0); // no bytes
        let gpfs = GpfsConfig::on_lassen();
        replay(&t, &gpfs, &ReplayConfig::default());
    }
}
