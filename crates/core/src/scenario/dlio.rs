//! DLIO workload configurations.
//!
//! Lives in the core scenario IR (rather than in `hcs-dlio`) so that a
//! [`crate::scenario::Scenario`] can embed a DLIO workload without the
//! core crate depending on the pipeline simulator; `hcs-dlio`
//! re-exports these types and owns the execution engine.

use serde::{Deserialize, Serialize};

use crate::phase::PhaseSpec;
use hcs_devices::AccessPattern;

/// How the dataset scales with node count.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scaling {
    /// Dataset grows with nodes: every node trains `samples` of its
    /// own (the paper's ResNet-50 test, §VI.B).
    Weak,
    /// Fixed dataset of `samples` split across nodes (the paper's
    /// Cosmoflow test, chosen "due to the larger size of this
    /// application's dataset", §VI).
    Strong,
}

/// A DLIO benchmark configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DlioConfig {
    /// Workload name ("ResNet-50", "Cosmoflow").
    pub name: String,
    /// Framework label for reports ("PyTorch", "TensorFlow").
    pub framework: String,
    /// Dataset sample count (per node for weak scaling, total for
    /// strong scaling).
    pub samples: u64,
    /// Bytes per sample.
    pub sample_bytes: f64,
    /// Bytes per read call while consuming a sample.
    pub transfer_size: f64,
    /// Whether each sample is its own file (JPEG-per-sample pays a
    /// metadata open per fetch; TFRecord shards amortize opens away).
    pub file_per_sample: bool,
    /// Access pattern the sample fetches present to storage: shuffled
    /// JPEG loading is random; TFRecord shard streaming is sequential.
    pub pattern: AccessPattern,
    /// Scaling mode.
    pub scaling: Scaling,
    /// Training epochs (the dataset is re-read every epoch).
    pub epochs: u32,
    /// Samples per training step.
    pub batch_size: u32,
    /// I/O pipeline worker threads per node.
    pub read_threads: u32,
    /// Compute threads per process (documentation; compute is modeled
    /// as a single accelerator stream).
    pub compute_threads: u32,
    /// Accelerator time per batch, seconds.
    pub compute_time_per_batch: f64,
    /// Bounded prefetch queue capacity (fetched + in-flight samples).
    pub prefetch_depth: u32,
    /// Synchronous checkpoint every N batches (0 disables). DLIO
    /// supports checkpointing; the paper's runs leave it off, so this
    /// is an extension knob.
    #[serde(default)]
    pub checkpoint_every_batches: u32,
    /// Bytes written per checkpoint.
    #[serde(default)]
    pub checkpoint_bytes: f64,
    /// RNG seed (noise and shuffles).
    pub seed: u64,
}

impl DlioConfig {
    /// Samples one node processes per epoch at the given scale.
    pub fn samples_per_node(&self, nodes: u32, node: u32) -> u64 {
        match self.scaling {
            Scaling::Weak => self.samples,
            Scaling::Strong => {
                let n = nodes as u64;
                let base = self.samples / n;
                let extra = self.samples % n;
                base + if (node as u64) < extra { 1 } else { 0 }
            }
        }
    }

    /// Total samples processed across all nodes and epochs.
    pub fn total_sample_reads(&self, nodes: u32) -> u64 {
        let per_epoch = match self.scaling {
            Scaling::Weak => self.samples * nodes as u64,
            Scaling::Strong => self.samples,
        };
        per_epoch * self.epochs as u64
    }

    /// The storage phase this workload presents (used to provision the
    /// storage system's resources).
    ///
    /// The working set is one epoch's dataset — epochs re-read the same
    /// bytes, so server-side caches see the dataset size, not
    /// `epochs ×` it. Client caches are defeated by the paper's
    /// methodology ("using a different set of nodes to read the dataset
    /// than the one that generated it", §VI.A), but server caches
    /// legitimately help — the ResNet-50 "served by GPFS's caches"
    /// observation (§VI.B).
    pub fn phase(&self, nodes: u32) -> PhaseSpec {
        let per_node_bytes = self.samples_per_node(nodes, 0).max(1) as f64 * self.sample_bytes;
        let base = match self.pattern {
            AccessPattern::Random => PhaseSpec::random_read(self.transfer_size, per_node_bytes),
            AccessPattern::Sequential => PhaseSpec::seq_read(self.transfer_size, per_node_bytes),
        };
        let meta_ops = if self.file_per_sample {
            // open + getattr + close per sample file.
            3.0 / self.sample_bytes
        } else {
            0.0
        };
        base.with_client_cache_defeated(false)
            .with_metadata_ops_per_byte(meta_ops)
    }

    /// The storage phase presented by checkpoint writes (sequential,
    /// buffered, 1 MiB transfers or the whole checkpoint if smaller).
    pub fn checkpoint_phase(&self) -> PhaseSpec {
        let ts = 1_048_576.0_f64.min(self.checkpoint_bytes.max(1.0));
        PhaseSpec::seq_write(ts, self.checkpoint_bytes.max(ts)).with_client_cache_defeated(false)
    }

    /// Enables synchronous checkpointing (builder style).
    pub fn with_checkpointing(mut self, every_batches: u32, bytes: f64) -> Self {
        self.checkpoint_every_batches = every_batches;
        self.checkpoint_bytes = bytes;
        self
    }

    /// Checks the configuration, returning a one-line diagnostic on
    /// failure.
    pub fn check(&self) -> Result<(), String> {
        let positive = |x: f64| x > 0.0 && x.is_finite();
        let fail = |msg: &str| Err(msg.to_string());
        if self.samples == 0 {
            return fail("need at least one sample");
        }
        if !positive(self.sample_bytes) {
            return fail("sample bytes must be positive and finite");
        }
        if !positive(self.transfer_size) {
            return fail("transfer size must be positive and finite");
        }
        if self.transfer_size > self.sample_bytes {
            return fail("transfer larger than sample");
        }
        if self.epochs == 0 {
            return fail("need at least one epoch");
        }
        if self.batch_size == 0 {
            return fail("batch size must be positive");
        }
        if self.read_threads == 0 {
            return fail("need at least one read thread");
        }
        if self.prefetch_depth < self.batch_size {
            return fail("prefetch queue must hold at least one batch");
        }
        if !(self.compute_time_per_batch >= 0.0 && self.compute_time_per_batch.is_finite()) {
            return fail("compute time must be finite and non-negative");
        }
        if self.checkpoint_every_batches > 0 && !positive(self.checkpoint_bytes) {
            return fail("checkpointing enabled but checkpoint_bytes is not positive");
        }
        Ok(())
    }

    /// Shrinks the dataset (and epochs) for fast CI runs, preserving
    /// per-sample behaviour.
    pub fn smoke(mut self) -> Self {
        self.samples = self.samples.min(64);
        self.epochs = self.epochs.min(2);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_weak() -> DlioConfig {
        DlioConfig {
            name: "toy".into(),
            framework: "PyTorch".into(),
            samples: 100,
            sample_bytes: 1e6,
            transfer_size: 1e6,
            file_per_sample: true,
            pattern: AccessPattern::Random,
            scaling: Scaling::Weak,
            epochs: 2,
            batch_size: 1,
            read_threads: 4,
            compute_threads: 4,
            compute_time_per_batch: 1e-3,
            prefetch_depth: 8,
            checkpoint_every_batches: 0,
            checkpoint_bytes: 0.0,
            seed: 7,
        }
    }

    #[test]
    fn scaling_math() {
        let mut c = sample_weak();
        assert_eq!(c.samples_per_node(8, 3), 100);
        assert_eq!(c.total_sample_reads(8), 100 * 8 * 2);
        c.scaling = Scaling::Strong;
        let total: u64 = (0..3).map(|n| c.samples_per_node(3, n)).sum();
        assert_eq!(total, 100);
        assert_eq!(c.total_sample_reads(3), 100 * 2);
    }

    #[test]
    fn file_per_sample_charges_metadata() {
        let with = sample_weak().phase(2);
        let mut c = sample_weak();
        c.file_per_sample = false;
        let without = c.phase(2);
        assert!(with.metadata_ops_per_byte > 0.0);
        assert_eq!(without.metadata_ops_per_byte, 0.0);
    }

    #[test]
    fn transfer_bigger_than_sample_rejected() {
        let mut c = sample_weak();
        c.transfer_size = c.sample_bytes * 2.0;
        let err = c.check().unwrap_err();
        assert!(err.contains("transfer larger than sample"), "{err}");
    }

    #[test]
    fn check_rejects_every_degenerate_field() {
        assert_eq!(sample_weak().check(), Ok(()));
        let err = |edit: fn(&mut DlioConfig)| {
            let mut c = sample_weak();
            edit(&mut c);
            c.check().unwrap_err()
        };
        assert!(err(|c| c.samples = 0).contains("at least one sample"));
        assert!(err(|c| c.sample_bytes = 0.0).contains("sample bytes must be positive"));
        assert!(err(|c| c.transfer_size = -1.0).contains("transfer size must be positive"));
        assert!(err(|c| c.epochs = 0).contains("at least one epoch"));
        assert!(err(|c| c.batch_size = 0).contains("batch size must be positive"));
        assert!(err(|c| c.read_threads = 0).contains("at least one read thread"));
        assert!(err(|c| c.prefetch_depth = 0).contains("hold at least one batch"));
        assert!(err(|c| c.compute_time_per_batch = -1e-3).contains("compute time"));
        assert!(err(|c| c.checkpoint_every_batches = 4).contains("checkpoint_bytes"));
    }

    #[test]
    fn smoke_shrinks() {
        let mut c = sample_weak();
        c.samples = 5000;
        c.epochs = 10;
        let s = c.smoke();
        assert_eq!(s.samples, 64);
        assert_eq!(s.epochs, 2);
        assert_eq!(s.check(), Ok(()));
    }

    #[test]
    fn serde_round_trip() {
        let c = sample_weak();
        let back: DlioConfig = serde_json::from_str(&serde_json::to_string(&c).unwrap()).unwrap();
        assert_eq!(back, c);
    }
}
