//! Workload phase descriptions.
//!
//! A *phase* is one homogeneous I/O activity performed by every rank of
//! a job: "each rank writes 3,000 one-MiB segments to its own file,
//! fsync after every write". The IOR crate builds phases from IOR
//! parameters; the DLIO crate builds per-sample read phases.

use serde::{Deserialize, Serialize};

use hcs_devices::{AccessPattern, IoOp};

/// One homogeneous I/O phase executed by every rank.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PhaseSpec {
    /// Direction.
    pub op: IoOp,
    /// Spatial pattern.
    pub pattern: AccessPattern,
    /// Bytes per individual operation.
    pub transfer_size: f64,
    /// Total bytes each rank moves in this phase.
    pub bytes_per_rank: f64,
    /// Whether every write is followed by fsync (paper §V: "Write
    /// synchronization or fsync flushes the file to the storage server's
    /// device after each write").
    pub fsync: bool,
    /// File-per-process (N-N) versus shared file (N-1). The paper uses
    /// N-N throughout (§IV.C.1).
    pub file_per_proc: bool,
    /// Whether the benchmark defeats client-side caches (IOR task
    /// reordering / reading from nodes other than the writers, §V).
    pub client_cache_defeated: bool,
    /// Metadata RPCs issued per *byte* moved, on top of the one data
    /// operation per transfer. Bulk workloads (one file per rank,
    /// §IV.C.1) amortize metadata to ~0; file-per-sample DL input
    /// pipelines (a JPEG per sample, §VI.B) pay several RPCs per tiny
    /// file, which is what saturates an NFS server's operation rate
    /// long before its byte rate.
    #[serde(default)]
    pub metadata_ops_per_byte: f64,
}

impl PhaseSpec {
    /// Sequential write phase (the scientific-simulation proxy).
    pub fn seq_write(transfer_size: f64, bytes_per_rank: f64) -> Self {
        PhaseSpec {
            op: IoOp::Write,
            pattern: AccessPattern::Sequential,
            transfer_size,
            bytes_per_rank,
            fsync: false,
            file_per_proc: true,
            client_cache_defeated: true,
            metadata_ops_per_byte: 0.0,
        }
    }

    /// Sequential read phase (the data-analytics proxy).
    pub fn seq_read(transfer_size: f64, bytes_per_rank: f64) -> Self {
        PhaseSpec {
            op: IoOp::Read,
            pattern: AccessPattern::Sequential,
            ..Self::seq_write(transfer_size, bytes_per_rank)
        }
    }

    /// Random read phase (the ML proxy).
    pub fn random_read(transfer_size: f64, bytes_per_rank: f64) -> Self {
        PhaseSpec {
            op: IoOp::Read,
            pattern: AccessPattern::Random,
            ..Self::seq_write(transfer_size, bytes_per_rank)
        }
    }

    /// Enables or disables per-write fsync.
    pub fn with_fsync(mut self, fsync: bool) -> Self {
        self.fsync = fsync;
        self
    }

    /// Overrides the client-cache-defeated flag.
    pub fn with_client_cache_defeated(mut self, defeated: bool) -> Self {
        self.client_cache_defeated = defeated;
        self
    }

    /// Sets the metadata RPC density (RPCs per byte moved).
    pub fn with_metadata_ops_per_byte(mut self, ops_per_byte: f64) -> Self {
        self.metadata_ops_per_byte = ops_per_byte;
        self
    }

    /// Total operations (data + metadata) issued per byte moved.
    pub fn ops_per_byte(&self) -> f64 {
        1.0 / self.transfer_size + self.metadata_ops_per_byte
    }

    /// Number of operations each rank performs.
    pub fn ops_per_rank(&self) -> f64 {
        (self.bytes_per_rank / self.transfer_size).ceil()
    }

    /// Total bytes the phase moves for a given scale.
    pub fn total_bytes(&self, nodes: u32, ppn: u32) -> f64 {
        self.bytes_per_rank * nodes as f64 * ppn as f64
    }

    /// Checks the spec, returning a one-line diagnostic on failure.
    pub fn check(&self) -> Result<(), String> {
        if !(self.transfer_size > 0.0 && self.transfer_size.is_finite()) {
            return Err(format!(
                "transfer size must be positive and finite (got {})",
                self.transfer_size
            ));
        }
        if !(self.bytes_per_rank > 0.0 && self.bytes_per_rank.is_finite()) {
            return Err(format!(
                "bytes per rank must be positive and finite (got {})",
                self.bytes_per_rank
            ));
        }
        if self.transfer_size > self.bytes_per_rank {
            return Err(format!(
                "transfer ({}) larger than phase ({})",
                self.transfer_size, self.bytes_per_rank
            ));
        }
        if !(self.metadata_ops_per_byte >= 0.0 && self.metadata_ops_per_byte.is_finite()) {
            return Err(format!(
                "metadata ops per byte must be finite and non-negative (got {})",
                self.metadata_ops_per_byte
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcs_simkit::units::MIB;

    #[test]
    fn presets_map_to_paper_workloads() {
        let sci = PhaseSpec::seq_write(MIB, 3000.0 * MIB);
        assert_eq!(sci.op, IoOp::Write);
        assert_eq!(sci.pattern, AccessPattern::Sequential);

        let da = PhaseSpec::seq_read(MIB, 3000.0 * MIB);
        assert_eq!(da.op, IoOp::Read);
        assert_eq!(da.pattern, AccessPattern::Sequential);

        let ml = PhaseSpec::random_read(MIB, 3000.0 * MIB);
        assert_eq!(ml.op, IoOp::Read);
        assert_eq!(ml.pattern, AccessPattern::Random);
    }

    #[test]
    fn ops_and_totals() {
        let p = PhaseSpec::seq_write(MIB, 3000.0 * MIB);
        assert_eq!(p.ops_per_rank(), 3000.0);
        // 128 nodes × 44 ppn × ~2.93 GiB ≈ 16.5 TiB
        let total = p.total_bytes(128, 44);
        assert!((total - 3000.0 * MIB * 128.0 * 44.0).abs() < 1.0);
    }

    #[test]
    fn builder_flags() {
        let p = PhaseSpec::seq_write(MIB, MIB)
            .with_fsync(true)
            .with_client_cache_defeated(false);
        assert!(p.fsync);
        assert!(!p.client_cache_defeated);
    }

    #[test]
    fn check_rejects_oversized_transfer() {
        let err = PhaseSpec::seq_write(2.0 * MIB, MIB).check().unwrap_err();
        assert!(err.contains("larger than phase"), "{err}");
        assert_eq!(PhaseSpec::seq_write(MIB, MIB).check(), Ok(()));
    }
}
