//! MDTest parameter sets.
//!
//! Lives in the core scenario IR (rather than in `hcs-mdtest`) so that
//! a [`crate::scenario::Scenario`] can embed a metadata workload
//! without the core crate depending on the benchmark runner;
//! `hcs-mdtest` re-exports this type and owns the execution engine.

use serde::{Deserialize, Serialize};

/// An MDTest run configuration (the `-n` files-per-process,
/// file-per-process-directory layout).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MdtestConfig {
    /// Client nodes.
    pub nodes: u32,
    /// Ranks per node.
    pub tasks_per_node: u32,
    /// Files each rank creates/stats/unlinks (`-n`).
    pub files_per_proc: u32,
    /// Repetitions (`-i`).
    pub reps: u32,
    /// Noise seed.
    pub seed: u64,
}

impl MdtestConfig {
    /// A typical configuration: 1,000 files per process.
    pub fn new(nodes: u32, tasks_per_node: u32) -> Self {
        MdtestConfig {
            nodes,
            tasks_per_node,
            files_per_proc: 1000,
            reps: 10,
            seed: 0x3d7e_2024,
        }
    }

    /// Total operations per phase.
    pub fn total_ops(&self) -> f64 {
        self.files_per_proc as f64 * self.nodes as f64 * self.tasks_per_node as f64
    }

    /// Checks the configuration, returning a one-line diagnostic on
    /// failure.
    pub fn check(&self) -> Result<(), String> {
        let fail = |msg: &str| Err(msg.to_string());
        if self.nodes == 0 {
            return fail("need at least one node");
        }
        if self.tasks_per_node == 0 {
            return fail("need at least one task");
        }
        if self.files_per_proc == 0 {
            return fail("need at least one file");
        }
        if self.reps == 0 {
            return fail("need at least one repetition");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_validation() {
        let c = MdtestConfig::new(4, 16);
        assert_eq!(c.total_ops(), 4.0 * 16.0 * 1000.0);
        assert_eq!(c.check(), Ok(()));
    }

    #[test]
    fn zero_files_rejected() {
        let mut c = MdtestConfig::new(1, 1);
        c.files_per_proc = 0;
        let err = c.check().unwrap_err();
        assert!(err.contains("at least one file"), "{err}");
        c.files_per_proc = 1;
        c.reps = 0;
        let err = c.check().unwrap_err();
        assert!(err.contains("at least one repetition"), "{err}");
    }

    #[test]
    fn serde_round_trip() {
        let c = MdtestConfig::new(8, 32);
        let back: MdtestConfig = serde_json::from_str(&serde_json::to_string(&c).unwrap()).unwrap();
        assert_eq!(back, c);
    }
}
