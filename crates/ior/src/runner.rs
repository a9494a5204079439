//! IOR execution against a storage system.

use serde::{Deserialize, Serialize};

use hcs_core::metrics::ResilienceMetrics;
use hcs_core::outcome::RepeatedOutcome;
use hcs_core::runner::{run_phase_open_loop, run_phase_repeated, FaultPhaseError, OpenLoopOutcome};
use hcs_core::scenario::{Arrival, FaultSpec};
use hcs_core::telemetry::Recorder;
use hcs_core::StorageSystem;
use hcs_simkit::SimRng;

use crate::config::IorConfig;

/// What an IOR run prints: per-repetition aggregate bandwidths and
/// their summary, for the one access mode the workload class measures.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct IorReport {
    /// The storage system's display name.
    pub system: String,
    /// The configuration that produced this report.
    pub config: IorConfig,
    /// Measured bandwidths (one entry per repetition) and summary.
    pub outcome: RepeatedOutcome,
}

impl IorReport {
    /// Mean aggregate bandwidth, bytes/s.
    pub fn mean_bandwidth(&self) -> f64 {
        self.outcome.summary.mean
    }

    /// Mean per-node bandwidth, bytes/s.
    pub fn per_node_bandwidth(&self) -> f64 {
        self.mean_bandwidth() / self.config.nodes as f64
    }
}

/// How [`run_ior_with`] drives the measured phase. The default is
/// [`run_ior`]'s run: closed loop, fault-free, unobserved.
#[derive(Default)]
pub struct IorRun<'a> {
    /// Closed loop (ranks re-issue on completion) or an open-loop
    /// arrival process.
    pub arrival: Arrival,
    /// Windowed faults, resolved into timed capacity events against the
    /// planned graph.
    pub faults: &'a [FaultSpec],
    /// Receives the measured phase's flows and resource utilization,
    /// labeled by system, op and scale.
    pub recorder: Option<&'a mut Recorder>,
    /// Attaches the per-op latency-blame probe to an open-loop run.
    pub provenance: bool,
}

/// What [`run_ior_with`] measured.
#[derive(Clone, Debug, PartialEq)]
pub struct IorRunOutput {
    /// The report IOR would print.
    pub report: IorReport,
    /// Slowdown and stall accounting against the fault-free twin, for a
    /// faulted closed-loop run.
    pub resilience: Option<ResilienceMetrics>,
    /// Latency histogram and drive accounting, for an open-loop run.
    pub open_loop: Option<OpenLoopOutcome>,
}

/// Runs an IOR configuration against a storage system.
///
/// Mirrors IOR's measurement discipline: the measured phase is the one
/// selected by the workload class; bandwidth is total data over the
/// slowest rank; the run repeats `reps` times under the system's
/// run-to-run noise, seeded from `config.seed` alone (so repeated
/// invocations are bit-identical).
///
/// Every system and scale sees the *same* underlying jitter draws
/// (common random numbers): cross-system comparisons — e.g. the
/// consistency figure's CV ranking — become paired, so a deployment
/// with larger `noise_sigma` always measures a larger coefficient of
/// variation instead of depending on the luck of independent streams.
pub fn run_ior(system: &dyn StorageSystem, config: &IorConfig) -> IorReport {
    run_ior_with(system, config, IorRun::default())
        .unwrap_or_else(|e| panic!("{e}"))
        .report
}

/// [`run_ior`] driven as `run` asks; every simulated value is
/// bit-identical whether or not a recorder or the provenance probe is
/// attached.
///
/// * **Faults.** The measured phase runs with the windowed faults
///   resolved into timed capacity events. A closed-loop run is paired
///   with [`ResilienceMetrics`] against the fault-free twin; the noise
///   stream is consumed exactly as in [`run_ior`] (common random
///   numbers), applied to the faulted base.
/// * **Open loop.** Operations of the config's transfer size arrive at
///   the spec's seeded rate instead of every rank re-issuing on
///   completion (see [`run_phase_open_loop`]). The report's single
///   "repetition" is the achieved throughput over the drained window:
///   repetitions and run-to-run noise do not apply to an open-loop
///   latency measurement, whose cross-run story is the histogram
///   itself. Faults compose with the arrivals in the same drive.
///
/// # Panics
/// Panics with [`IorConfig::check`]'s diagnostic on an invalid
/// configuration.
pub fn run_ior_with(
    system: &dyn StorageSystem,
    config: &IorConfig,
    run: IorRun<'_>,
) -> Result<IorRunOutput, FaultPhaseError> {
    config.check().unwrap_or_else(|e| panic!("{e}"));
    let phase = config.phase();
    let (nodes, ppn) = (config.nodes, config.tasks_per_node);
    let mut label = format!("{} {:?} {}x{}", system.name(), phase.op, nodes, ppn);
    let report = |outcome| IorReport {
        system: system.description(),
        config: config.clone(),
        outcome,
    };
    if run.arrival.is_closed() {
        if !run.faults.is_empty() {
            label.push_str(" (faulted)");
        }
        let trace = run.recorder.map(|rec| (rec, label.as_str()));
        let mut rng = SimRng::new(config.seed).split("ior-reps");
        let (outcome, resilience) = run_phase_repeated(
            system,
            nodes,
            ppn,
            &phase,
            run.faults,
            config.reps,
            &mut rng,
            trace,
        )?;
        Ok(IorRunOutput {
            report: report(outcome),
            resilience,
            open_loop: None,
        })
    } else {
        label.push_str(" (open loop)");
        let trace = run.recorder.map(|rec| (rec, label.as_str()));
        let open = run_phase_open_loop(
            system,
            nodes,
            ppn,
            &phase,
            &run.arrival,
            run.faults,
            trace,
            run.provenance,
        )?;
        let outcome = RepeatedOutcome::from_bandwidths(nodes, ppn, vec![open.agg_bandwidth]);
        Ok(IorRunOutput {
            report: report(outcome),
            resilience: None,
            open_loop: Some(open),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkloadClass;
    use hcs_gpfs::GpfsConfig;
    use hcs_simkit::units::GIB;
    use hcs_vast::vast_on_lassen;

    #[test]
    fn report_is_deterministic() {
        let sys = vast_on_lassen();
        let cfg = IorConfig::smoke(WorkloadClass::Scientific, 2, 8);
        let a = run_ior(&sys, &cfg);
        let b = run_ior(&sys, &cfg);
        assert_eq!(a.outcome.bandwidths, b.outcome.bandwidths);
    }

    #[test]
    fn reps_counted() {
        let sys = vast_on_lassen();
        let cfg = IorConfig::smoke(WorkloadClass::DataAnalytics, 1, 4);
        let rep = run_ior(&sys, &cfg);
        assert_eq!(rep.outcome.bandwidths.len(), cfg.reps as usize);
        assert!(rep.outcome.summary.std_dev > 0.0, "noise should show up");
    }

    #[test]
    fn gpfs_beats_tcp_vast_on_sequential_reads() {
        // The Fig 2a ordering, at reduced scale.
        let vast = vast_on_lassen();
        let gpfs = GpfsConfig::on_lassen();
        let cfg = IorConfig::smoke(WorkloadClass::DataAnalytics, 4, 44);
        let v = run_ior(&vast, &cfg).mean_bandwidth();
        let g = run_ior(&gpfs, &cfg).mean_bandwidth();
        assert!(g > 3.0 * v, "GPFS {g} should dwarf TCP VAST {v}");
    }

    #[test]
    fn vast_consistent_across_patterns_gpfs_not() {
        let vast = vast_on_lassen();
        let gpfs = GpfsConfig::on_lassen();
        // The pattern gap needs the paper's cache-busting volume
        // (§V: ~120 GB per node); the smoke geometry fits in cache.
        let mut da = IorConfig::paper_scalability(WorkloadClass::DataAnalytics, 4, 44);
        da.reps = 2;
        let mut ml = IorConfig::paper_scalability(WorkloadClass::MachineLearning, 4, 44);
        ml.reps = 2;
        let v_ratio = run_ior(&vast, &ml).mean_bandwidth() / run_ior(&vast, &da).mean_bandwidth();
        let g_ratio = run_ior(&gpfs, &ml).mean_bandwidth() / run_ior(&gpfs, &da).mean_bandwidth();
        assert!(v_ratio > 0.6, "VAST random/seq = {v_ratio}");
        assert!(g_ratio < 0.25, "GPFS random/seq = {g_ratio}");
    }

    #[test]
    fn per_node_bandwidth_divides() {
        let sys = vast_on_lassen();
        let cfg = IorConfig::smoke(WorkloadClass::Scientific, 4, 8);
        let rep = run_ior(&sys, &cfg);
        assert!((rep.per_node_bandwidth() * 4.0 - rep.mean_bandwidth()).abs() < 1.0);
        assert!(rep.per_node_bandwidth() < 2.0 * GIB);
    }

    #[test]
    fn serde_round_trip() {
        let sys = vast_on_lassen();
        let cfg = IorConfig::smoke(WorkloadClass::Scientific, 1, 2);
        let rep = run_ior(&sys, &cfg);
        let back: IorReport = serde_json::from_str(&serde_json::to_string(&rep).unwrap()).unwrap();
        assert_eq!(back, rep);
    }

    #[test]
    fn open_loop_report_carries_latency_and_single_rep() {
        use hcs_core::scenario::Discipline;
        let sys = vast_on_lassen();
        let cfg = IorConfig::smoke(WorkloadClass::DataAnalytics, 2, 4);
        let arrival = Arrival::Open {
            rate: 100.0,
            discipline: Discipline::Poisson,
            duration: 0.5,
            seed: 5,
        };
        let run = || {
            let out = run_ior_with(
                &sys,
                &cfg,
                IorRun {
                    arrival,
                    ..IorRun::default()
                },
            )
            .unwrap();
            assert!(out.resilience.is_none());
            (out.report, out.open_loop.expect("open-loop run"))
        };
        let (report, open) = run();
        assert_eq!(report.outcome.bandwidths.len(), 1);
        assert_eq!(report.outcome.bandwidths[0], open.agg_bandwidth);
        assert!(open.histogram.count() > 0);
        assert!(open.histogram.p50().unwrap() > 0.0);
        // Deterministic: re-running reproduces the histogram bit for bit.
        let (_, again) = run();
        assert_eq!(open.histogram, again.histogram);
        assert_eq!(open.end.to_bits(), again.end.to_bits());
    }
}
