//! The paper's two DLIO workloads (§VI.B, §VI.C).

use hcs_devices::AccessPattern;

use crate::config::{DlioConfig, Scaling};

/// ResNet-50, as configured by the paper (§VI.B): "the one batch-sized
/// PyTorch version of ResNet-50 created by DLIO where the whole dataset
/// consists of 1024 JPEG samples, each of size 150 KB. We performed a
/// weak scaling test by increasing the number of nodes to 32 and trained
/// the dataset for one full epoch." Eight threads drive the I/O
/// pipeline (§VI.C notes Cosmoflow's four "as opposed to ResNet-50").
///
/// The per-batch accelerator time is calibrated so that, as §VI.A
/// reports, "97% of the overall application runtime consists of only
/// GPU computation" when storage keeps up.
pub fn resnet50() -> DlioConfig {
    DlioConfig {
        name: "ResNet-50".into(),
        framework: "PyTorch".into(),
        samples: 1024,
        sample_bytes: 150e3,
        transfer_size: 150e3, // one JPEG per read
        file_per_sample: true,
        pattern: AccessPattern::Random, // shuffled sample order
        scaling: Scaling::Weak,
        epochs: 1,
        batch_size: 1,
        read_threads: 8,
        compute_threads: 8,
        compute_time_per_batch: 20e-3,
        prefetch_depth: 16,
        checkpoint_every_batches: 0,
        checkpoint_bytes: 0.0,
        seed: 0xd110_0001,
    }
}

/// Cosmoflow, as configured by the paper (§VI.C): "a version of
/// Cosmoflow which consists of 1024 TFRecord samples, and the transfer
/// size for the I/O requests remains constant at 256 KB throughout the
/// training process ... four full epochs and batch size one. There are
/// eight threads per process for computation and four threads for the
/// I/O data pipeline." Samples are 32 MB records (§III.B describes
/// Cosmoflow consuming 32 MB files), streamed sequentially from shards,
/// run with strong scaling "due to the larger size of this
/// application's dataset".
pub fn cosmoflow() -> DlioConfig {
    DlioConfig {
        name: "Cosmoflow".into(),
        framework: "TensorFlow".into(),
        samples: 1024,
        sample_bytes: 32e6,
        transfer_size: 256e3,
        file_per_sample: false, // TFRecord shards: opens amortized
        pattern: AccessPattern::Sequential,
        scaling: Scaling::Strong,
        epochs: 4,
        batch_size: 1,
        read_threads: 4,
        compute_threads: 8,
        compute_time_per_batch: 15e-3,
        prefetch_depth: 8,
        checkpoint_every_batches: 0,
        checkpoint_bytes: 0.0,
        seed: 0xd110_0002,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameters() {
        let r = resnet50();
        assert_eq!(r.samples, 1024);
        assert_eq!(r.sample_bytes, 150e3);
        assert_eq!(r.epochs, 1);
        assert_eq!(r.read_threads, 8);
        assert_eq!(r.batch_size, 1);
        assert_eq!(r.scaling, Scaling::Weak);

        let c = cosmoflow();
        assert_eq!(c.samples, 1024);
        assert_eq!(c.transfer_size, 256e3);
        assert_eq!(c.epochs, 4);
        assert_eq!(c.read_threads, 4);
        assert_eq!(c.compute_threads, 8);
        assert_eq!(c.scaling, Scaling::Strong);
    }

    #[test]
    fn configs_validate() {
        assert_eq!(resnet50().check(), Ok(()));
        assert_eq!(cosmoflow().check(), Ok(()));
    }

    #[test]
    fn cosmoflow_dataset_much_larger() {
        let r = resnet50();
        let c = cosmoflow();
        let r_bytes = r.samples as f64 * r.sample_bytes;
        let c_bytes = c.samples as f64 * c.sample_bytes;
        assert!(c_bytes > 100.0 * r_bytes);
    }
}
