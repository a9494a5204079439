//! Multi-phase job campaigns: compute/checkpoint/restart cycles.
//!
//! The paper's scientific workload class is checkpoint-shaped — HACC-I/O
//! "emulates checkpoint/restart on simulation data" (§III.B), and the
//! background cites the optimal checkpoint/restart interval literature.
//! A [`JobScript`] strings alternating compute and I/O steps into one
//! job and runs them serially against a storage system, yielding the
//! job-level numbers an application team plans with: total wall time,
//! I/O fraction, and the checkpoint overhead a given storage system
//! imposes.
//!
//! [`young_interval`] gives Young's first-order optimal checkpoint
//! period for a measured checkpoint cost — so the suite can answer "on
//! this storage system, how often should this job checkpoint?"

use serde::{Deserialize, Serialize};

use crate::phase::PhaseSpec;
use crate::runner::{run_closed, Observe};
use crate::system::StorageSystem;
use crate::telemetry::Recorder;

/// One step of a job.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum JobStep {
    /// Pure computation for a fixed time.
    Compute {
        /// Seconds of computation.
        seconds: f64,
    },
    /// A labeled I/O phase executed by every rank.
    Io {
        /// Step label ("checkpoint", "restart", "analysis dump"...).
        label: String,
        /// The phase.
        phase: PhaseSpec,
    },
}

/// A serial multi-step job.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobScript {
    /// Job name.
    pub name: String,
    /// Steps, executed in order with a barrier between steps (bulk-
    /// synchronous, like the applications of §III.B).
    pub steps: Vec<JobStep>,
}

impl JobScript {
    /// A classic checkpoint/restart cycle job: one initial restart
    /// read, then `cycles` × (compute + synchronized checkpoint write).
    pub fn checkpoint_restart(
        compute_per_cycle: f64,
        cycles: u32,
        state_bytes_per_rank: f64,
        transfer_size: f64,
    ) -> Self {
        let mut steps = vec![JobStep::Io {
            label: "restart".into(),
            phase: PhaseSpec::seq_read(transfer_size, state_bytes_per_rank),
        }];
        for _ in 0..cycles {
            steps.push(JobStep::Compute {
                seconds: compute_per_cycle,
            });
            steps.push(JobStep::Io {
                label: "checkpoint".into(),
                phase: PhaseSpec::seq_write(transfer_size, state_bytes_per_rank).with_fsync(true),
            });
        }
        JobScript {
            name: "checkpoint-restart".into(),
            steps,
        }
    }

    /// Runs the job against a storage system at the given scale. With a
    /// `recorder`, each I/O step becomes a traced phase in it (flow and
    /// resource events under the step's label) and each compute step a
    /// compute span; the outcome is bit-identical with or without one.
    pub fn run(
        &self,
        system: &dyn StorageSystem,
        nodes: u32,
        ppn: u32,
        mut recorder: Option<&mut Recorder>,
    ) -> JobOutcome {
        let mut per_step = Vec::with_capacity(self.steps.len());
        let mut compute = 0.0;
        let mut io = 0.0;
        for step in &self.steps {
            match step {
                JobStep::Compute { seconds } => {
                    compute += seconds;
                    if let Some(rec) = recorder.as_deref_mut() {
                        rec.record_compute("compute", *seconds);
                    }
                    per_step.push(("compute".to_string(), *seconds));
                }
                JobStep::Io { label, phase } => {
                    let observe = Observe {
                        trace: recorder.as_deref_mut().map(|rec| (rec, label.as_str())),
                        provenance: false,
                    };
                    let out = run_closed(system, nodes, ppn, phase, &[], observe)
                        .unwrap_or_else(|e| panic!("{e}"))
                        .outcome;
                    io += out.duration;
                    per_step.push((label.clone(), out.duration));
                }
            }
        }
        JobOutcome {
            system: system.description(),
            job: self.name.clone(),
            nodes,
            ppn,
            total: compute + io,
            compute,
            io,
            per_step,
        }
    }
}

/// Job-level outcome.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobOutcome {
    /// Storage system description.
    pub system: String,
    /// Job name.
    pub job: String,
    /// Nodes used.
    pub nodes: u32,
    /// Ranks per node.
    pub ppn: u32,
    /// Total wall time, seconds.
    pub total: f64,
    /// Compute seconds.
    pub compute: f64,
    /// I/O seconds.
    pub io: f64,
    /// Per-step `(label, seconds)` in execution order.
    pub per_step: Vec<(String, f64)>,
}

impl JobOutcome {
    /// Fraction of wall time spent in I/O.
    pub fn io_fraction(&self) -> f64 {
        if self.total <= 0.0 {
            0.0
        } else {
            self.io / self.total
        }
    }

    /// Total seconds of the steps with the given label.
    pub fn step_total(&self, label: &str) -> f64 {
        self.per_step
            .iter()
            .filter(|(l, _)| l == label)
            .map(|(_, t)| t)
            .sum()
    }
}

/// Young's first-order optimal checkpoint interval: `√(2 · C · MTBF)`,
/// where `C` is the cost of one checkpoint and `MTBF` the system's mean
/// time between failures. Checkpointing more often wastes I/O;
/// less often wastes recomputation after failures.
///
/// # Panics
/// Panics on non-positive inputs.
pub fn young_interval(checkpoint_seconds: f64, mtbf_seconds: f64) -> f64 {
    assert!(checkpoint_seconds > 0.0, "checkpoint cost must be positive");
    assert!(mtbf_seconds > 0.0, "MTBF must be positive");
    (2.0 * checkpoint_seconds * mtbf_seconds).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::UniformSystem;
    use hcs_simkit::units::{GIB, MIB};

    fn toy() -> UniformSystem {
        UniformSystem::new("toy", 10.0 * GIB)
    }

    #[test]
    fn checkpoint_restart_structure() {
        let job = JobScript::checkpoint_restart(100.0, 3, GIB, MIB);
        // restart + 3 × (compute, checkpoint) = 7 steps.
        assert_eq!(job.steps.len(), 7);
        match &job.steps[0] {
            JobStep::Io { label, phase } => {
                assert_eq!(label, "restart");
                assert!(!phase.fsync);
            }
            _ => panic!("first step is the restart read"),
        }
        match &job.steps[2] {
            JobStep::Io { label, phase } => {
                assert_eq!(label, "checkpoint");
                assert!(phase.fsync, "checkpoints are synchronized");
            }
            _ => panic!("third step is a checkpoint"),
        }
    }

    #[test]
    fn accounting_adds_up() {
        let sys = toy();
        let job = JobScript::checkpoint_restart(50.0, 4, GIB, MIB);
        let out = job.run(&sys, 2, 8, None);
        assert!((out.compute - 200.0).abs() < 1e-9);
        assert!((out.total - out.compute - out.io).abs() < 1e-9);
        assert!(out.io > 0.0);
        assert_eq!(out.per_step.len(), 9);
        // One restart + four checkpoints.
        assert!(out.step_total("restart") > 0.0);
        assert!(out.step_total("checkpoint") > out.step_total("restart"));
        assert!((0.0..1.0).contains(&out.io_fraction()));
    }

    #[test]
    fn faster_storage_cuts_io_fraction() {
        let slow = UniformSystem::new("slow", 1.0 * GIB);
        let fast = UniformSystem::new("fast", 100.0 * GIB);
        let job = JobScript::checkpoint_restart(10.0, 4, GIB, MIB);
        let s = job.run(&slow, 4, 8, None).io_fraction();
        let f = job.run(&fast, 4, 8, None).io_fraction();
        assert!(s > 5.0 * f, "slow {s} vs fast {f}");
    }

    #[test]
    fn young_interval_math() {
        // C = 50 s, MTBF = 24 h → ~2940 s between checkpoints.
        let t = young_interval(50.0, 24.0 * 3600.0);
        assert!((t - (2.0_f64 * 50.0 * 86400.0).sqrt()).abs() < 1e-9);
        assert!((2930.0..2950.0).contains(&t));
        // Cheaper checkpoints → checkpoint more often.
        assert!(young_interval(5.0, 86400.0) < t);
    }

    #[test]
    #[should_panic(expected = "MTBF")]
    fn young_rejects_bad_mtbf() {
        young_interval(10.0, 0.0);
    }

    #[test]
    fn serde_round_trip() {
        let job = JobScript::checkpoint_restart(10.0, 2, GIB, MIB);
        let back: JobScript = serde_json::from_str(&serde_json::to_string(&job).unwrap()).unwrap();
        assert_eq!(back, job);
    }
}
