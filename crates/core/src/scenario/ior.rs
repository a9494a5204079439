//! IOR parameter sets.
//!
//! Lives in the core scenario IR (rather than in `hcs-ior`) so that a
//! [`crate::scenario::Scenario`] can embed an IOR workload without the
//! core crate depending on the benchmark runner; `hcs-ior` re-exports
//! these types and owns the execution engine.

use serde::{Deserialize, Serialize};

use crate::phase::PhaseSpec;
use hcs_simkit::units::MIB;

/// The paper's three workload classes (§IV.C.1), each an IOR access
/// mode: "Sequential write requests were used to simulate scientific
/// applications, sequential reads were used for data analytic
/// applications and random read requests for ML algorithms."
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadClass {
    /// Bulk-synchronous checkpoint writes (CM1, HACC-I/O).
    Scientific,
    /// Embarrassingly parallel scans (BD-CATS, KMeans).
    DataAnalytics,
    /// Shuffled sample fetching (out-of-core sorting, training input).
    MachineLearning,
}

impl WorkloadClass {
    /// All three classes, in paper order.
    pub fn all() -> [WorkloadClass; 3] {
        [
            WorkloadClass::Scientific,
            WorkloadClass::DataAnalytics,
            WorkloadClass::MachineLearning,
        ]
    }

    /// Figure-legend label.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadClass::Scientific => "scientific (seq write)",
            WorkloadClass::DataAnalytics => "data analytics (seq read)",
            WorkloadClass::MachineLearning => "ML (random read)",
        }
    }
}

/// An IOR run configuration (the subset of IOR-4.1.0 options the paper
/// exercises, with IOR's names).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct IorConfig {
    /// Client nodes.
    pub nodes: u32,
    /// Tasks (ranks) per node.
    pub tasks_per_node: u32,
    /// `-b` block size: contiguous bytes a rank owns per segment.
    pub block_size: f64,
    /// `-t` transfer size: bytes per I/O call.
    pub transfer_size: f64,
    /// `-s` segment count.
    pub segments: u32,
    /// Workload class (selects write/read and sequential/random).
    pub workload: WorkloadClass,
    /// `-e` fsync after each write.
    pub fsync: bool,
    /// `-F` file-per-process (the paper always uses N-N).
    pub file_per_proc: bool,
    /// `-C` reorder tasks so ranks read data written by another node
    /// (defeats client read caches).
    pub reorder_tasks: bool,
    /// Repetitions (`-i`; the paper uses 10 on the shared machines).
    pub reps: u32,
    /// RNG seed for repetition noise.
    pub seed: u64,
}

impl IorConfig {
    /// The paper's scalability-test geometry (§V): 1 MiB block and
    /// transfer, 3,000 segments (≈2.9 GiB per rank; ≈126 GiB per node at
    /// 44 ppn), task reordering on, fsync off, 10 repetitions.
    pub fn paper_scalability(workload: WorkloadClass, nodes: u32, tasks_per_node: u32) -> Self {
        IorConfig {
            nodes,
            tasks_per_node,
            block_size: MIB,
            transfer_size: MIB,
            segments: 3000,
            workload,
            fsync: false,
            file_per_proc: true,
            reorder_tasks: true,
            reps: 10,
            seed: 0x1082_2024,
        }
    }

    /// The paper's single-node test (§V): one node, 1–32 processes,
    /// synchronization on writes.
    pub fn paper_single_node(workload: WorkloadClass, tasks: u32) -> Self {
        IorConfig {
            nodes: 1,
            tasks_per_node: tasks,
            fsync: true,
            ..Self::paper_scalability(workload, 1, tasks)
        }
    }

    /// A size-reduced variant for fast tests and CI (identical shape,
    /// fewer segments).
    pub fn smoke(workload: WorkloadClass, nodes: u32, tasks_per_node: u32) -> Self {
        IorConfig {
            segments: 64,
            reps: 3,
            ..Self::paper_scalability(workload, nodes, tasks_per_node)
        }
    }

    /// Bytes each rank moves.
    pub fn bytes_per_rank(&self) -> f64 {
        self.block_size * self.segments as f64
    }

    /// Total bytes the run moves.
    pub fn total_bytes(&self) -> f64 {
        self.bytes_per_rank() * self.nodes as f64 * self.tasks_per_node as f64
    }

    /// The measured phase this configuration describes.
    pub fn phase(&self) -> PhaseSpec {
        let base = match self.workload {
            WorkloadClass::Scientific => {
                PhaseSpec::seq_write(self.transfer_size, self.bytes_per_rank())
            }
            WorkloadClass::DataAnalytics => {
                PhaseSpec::seq_read(self.transfer_size, self.bytes_per_rank())
            }
            WorkloadClass::MachineLearning => {
                PhaseSpec::random_read(self.transfer_size, self.bytes_per_rank())
            }
        };
        let mut phase = base
            .with_fsync(self.fsync)
            .with_client_cache_defeated(self.reorder_tasks);
        phase.file_per_proc = self.file_per_proc;
        phase
    }

    /// Checks the configuration, returning a one-line diagnostic on
    /// failure.
    pub fn check(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("need at least one node".into());
        }
        if self.tasks_per_node == 0 {
            return Err("need at least one task".into());
        }
        if self.reps == 0 {
            return Err("need at least one repetition".into());
        }
        if self.segments == 0 {
            return Err("need at least one segment".into());
        }
        if self.transfer_size > self.block_size {
            return Err(format!(
                "IOR requires transferSize <= blockSize (got {} > {})",
                self.transfer_size, self.block_size
            ));
        }
        if self.transfer_size > 0.0 && self.block_size % self.transfer_size != 0.0 {
            return Err(format!(
                "IOR requires blockSize to be a multiple of transferSize (got {} and {})",
                self.block_size, self.transfer_size
            ));
        }
        self.phase().check()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcs_devices::{AccessPattern, IoOp};
    use hcs_simkit::units::GIB;

    #[test]
    fn paper_geometry_is_120gb_per_node() {
        let c = IorConfig::paper_scalability(WorkloadClass::Scientific, 1, 44);
        // §V: "approximately 120 GB per node".
        let per_node = c.bytes_per_rank() * 44.0;
        assert!((per_node / GIB - 128.9).abs() < 1.0, "{}", per_node / GIB);
        assert!(per_node > 120e9);
    }

    #[test]
    fn workload_to_phase_mapping() {
        let sci = IorConfig::smoke(WorkloadClass::Scientific, 1, 4).phase();
        assert_eq!(
            (sci.op, sci.pattern),
            (IoOp::Write, AccessPattern::Sequential)
        );
        let da = IorConfig::smoke(WorkloadClass::DataAnalytics, 1, 4).phase();
        assert_eq!((da.op, da.pattern), (IoOp::Read, AccessPattern::Sequential));
        let ml = IorConfig::smoke(WorkloadClass::MachineLearning, 1, 4).phase();
        assert_eq!((ml.op, ml.pattern), (IoOp::Read, AccessPattern::Random));
    }

    #[test]
    fn single_node_preset_has_fsync() {
        let c = IorConfig::paper_single_node(WorkloadClass::Scientific, 32);
        assert!(c.fsync);
        assert_eq!(c.nodes, 1);
        assert!(c.phase().fsync);
    }

    #[test]
    fn reorder_controls_cache_defeat() {
        let mut c = IorConfig::smoke(WorkloadClass::DataAnalytics, 1, 4);
        assert!(c.phase().client_cache_defeated);
        c.reorder_tasks = false;
        assert!(!c.phase().client_cache_defeated);
    }

    #[test]
    fn oversized_transfer_rejected() {
        let mut c = IorConfig::smoke(WorkloadClass::Scientific, 1, 1);
        c.transfer_size = c.block_size * 2.0;
        let err = c.check().unwrap_err();
        assert!(err.contains("transferSize <= blockSize"), "{err}");
        // IOR also refuses a block that is not a whole number of transfers.
        c.transfer_size = 1e6;
        let err = c.check().unwrap_err();
        assert!(err.contains("multiple of transferSize"), "{err}");
        c.transfer_size = MIB / 4.0;
        assert_eq!(c.check(), Ok(()));
    }

    #[test]
    fn check_rejects_every_empty_dimension() {
        let err = |edit: fn(&mut IorConfig)| {
            let mut c = IorConfig::smoke(WorkloadClass::Scientific, 1, 1);
            assert_eq!(c.check(), Ok(()));
            edit(&mut c);
            c.check().unwrap_err()
        };
        assert!(err(|c| c.nodes = 0).contains("at least one node"));
        assert!(err(|c| c.tasks_per_node = 0).contains("at least one task"));
        assert!(err(|c| c.reps = 0).contains("at least one repetition"));
        assert!(err(|c| c.segments = 0).contains("at least one segment"));
        assert!(err(|c| c.transfer_size = 0.0).contains("transfer size must be positive"));
        assert!(err(|c| c.transfer_size = -1.0).contains("transfer size must be positive"));
    }

    #[test]
    fn serde_round_trip() {
        let c = IorConfig::paper_scalability(WorkloadClass::MachineLearning, 8, 48);
        let back: IorConfig = serde_json::from_str(&serde_json::to_string(&c).unwrap()).unwrap();
        assert_eq!(back, c);
    }
}
