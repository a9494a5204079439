//! DLIO workload configurations — re-exported from the core scenario
//! IR.
//!
//! The configuration types moved to [`hcs_core::scenario::dlio`] so
//! that a `hcs_core::Scenario` can embed a DLIO workload without a
//! dependency cycle; this crate keeps its historical paths
//! (`hcs_dlio::config::DlioConfig`, `hcs_dlio::DlioConfig`) and owns
//! the pipeline simulator ([`crate::run_dlio`]) plus the paper's
//! workload presets ([`crate::workloads`]).

pub use hcs_core::scenario::dlio::{DlioConfig, Scaling};

#[cfg(test)]
mod tests {
    use crate::workloads::{cosmoflow, resnet50};
    use hcs_devices::AccessPattern;

    #[test]
    fn weak_scaling_keeps_per_node_constant() {
        let c = resnet50();
        assert_eq!(c.samples_per_node(1, 0), 1024);
        assert_eq!(c.samples_per_node(32, 31), 1024);
        assert_eq!(c.total_sample_reads(32), 1024 * 32);
    }

    #[test]
    fn strong_scaling_splits_dataset() {
        let c = cosmoflow();
        assert_eq!(c.samples_per_node(1, 0), 1024);
        assert_eq!(c.samples_per_node(4, 0), 256);
        let total: u64 = (0..3).map(|n| c.samples_per_node(3, n)).sum();
        assert_eq!(total, 1024);
        assert_eq!(c.total_sample_reads(4), 1024 * 4); // 4 epochs
    }

    #[test]
    fn phase_reflects_pattern_and_bytes() {
        let r = resnet50().phase(8);
        assert_eq!(r.pattern, AccessPattern::Random);
        assert!(!r.client_cache_defeated);
        let cf = cosmoflow().phase(4);
        assert_eq!(cf.pattern, AccessPattern::Sequential);
        assert!((cf.bytes_per_rank - 256.0 * cosmoflow().sample_bytes).abs() < 1.0);
    }

    #[test]
    fn transfer_bigger_than_sample_rejected() {
        let mut c = resnet50();
        c.transfer_size = c.sample_bytes * 2.0;
        let err = c.check().unwrap_err();
        assert!(err.contains("transfer larger than sample"), "{err}");
    }

    #[test]
    fn smoke_shrinks() {
        let c = cosmoflow().smoke();
        assert!(c.samples <= 64);
        assert!(c.epochs <= 2);
        assert_eq!(c.check(), Ok(()));
    }
}
