//! §VII — the paper's three quantified takeaways, plus the §VI.A
//! compute-fraction observation, re-derived from the simulation.

use serde::{Deserialize, Serialize};

use hcs_dlio::{resnet50, run_dlio};
use hcs_gpfs::GpfsConfig;
use hcs_ior::{run_ior, IorConfig, WorkloadClass};
use hcs_nvme::LocalNvmeConfig;
use hcs_vast::{vast_on_lassen, vast_on_wombat};

use crate::sweep::Scale;

/// The measured takeaway numbers.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TakeawayReport {
    /// TCP-deployed VAST per-node write bandwidth, GB/s (paper: ~1).
    pub tcp_per_node_write: f64,
    /// RDMA-deployed VAST per-node write bandwidth, GB/s (paper: ~8
    /// for write and read combined statement).
    pub rdma_per_node_write: f64,
    /// RDMA-deployed VAST per-node read bandwidth, GB/s.
    pub rdma_per_node_read: f64,
    /// RDMA-over-TCP advantage (paper: "up to 8x").
    pub rdma_over_tcp: f64,
    /// GPFS per-node sequential read, GB/s (paper: ~14.5).
    pub gpfs_seq_read: f64,
    /// GPFS per-node random read, GB/s (paper: ~1.4).
    pub gpfs_rand_read: f64,
    /// GPFS sequential→random drop (paper: ~90 %).
    pub gpfs_drop: f64,
    /// RDMA VAST per-node sequential read, GB/s (paper: ~9).
    pub vast_seq_read: f64,
    /// RDMA VAST per-node random read, GB/s (paper: ~7).
    pub vast_rand_read: f64,
    /// VAST-over-NVMe single-node fsync-write advantage (paper: ~5x).
    pub vast_over_nvme: f64,
    /// ResNet-50 compute-only fraction of runtime (paper: ~97 %).
    pub resnet_compute_fraction: f64,
}

/// Measures every takeaway at the given scale.
pub fn measure(scale: Scale) -> TakeawayReport {
    let reps = scale.reps();
    let per_node = |sys: &dyn hcs_core::StorageSystem, w, ppn| {
        let mut cfg = IorConfig::paper_scalability(w, 1, ppn);
        cfg.reps = reps;
        run_ior(sys, &cfg).mean_bandwidth() / 1e9
    };

    let tcp = vast_on_lassen();
    let rdma = vast_on_wombat();
    let gpfs = GpfsConfig::on_lassen();
    let nvme = LocalNvmeConfig::on_wombat();

    let tcp_per_node_write = per_node(&tcp, WorkloadClass::Scientific, 44);
    let rdma_per_node_write = per_node(&rdma, WorkloadClass::Scientific, 48);
    let rdma_per_node_read = per_node(&rdma, WorkloadClass::DataAnalytics, 48);
    let tcp_per_node_read = per_node(&tcp, WorkloadClass::DataAnalytics, 44);

    let gpfs_seq_read = per_node(&gpfs, WorkloadClass::DataAnalytics, 44);
    let gpfs_rand_read = per_node(&gpfs, WorkloadClass::MachineLearning, 44);
    let vast_seq_read = rdma_per_node_read;
    let vast_rand_read = per_node(&rdma, WorkloadClass::MachineLearning, 48);

    // TK3: single-node fsync write, 32 procs (§V.A / Fig 3d).
    let mut sn = IorConfig::paper_single_node(WorkloadClass::Scientific, 32);
    sn.reps = reps;
    let vast_sn = run_ior(&rdma, &sn).mean_bandwidth();
    let nvme_sn = run_ior(&nvme, &sn).mean_bandwidth();

    // TK4: ResNet-50 on its home system (GPFS), one node.
    let mut resnet = resnet50();
    if let Some(s) = scale.dlio_samples() {
        resnet.samples = resnet.samples.min(s);
    }
    let frac = run_dlio(&gpfs, &resnet, 1, None).compute_fraction();

    TakeawayReport {
        tcp_per_node_write,
        rdma_per_node_write,
        rdma_per_node_read,
        rdma_over_tcp: (rdma_per_node_write / tcp_per_node_write)
            .max(rdma_per_node_read / tcp_per_node_read),
        gpfs_seq_read,
        gpfs_rand_read,
        gpfs_drop: 1.0 - gpfs_rand_read / gpfs_seq_read,
        vast_seq_read,
        vast_rand_read,
        vast_over_nvme: vast_sn / nvme_sn,
        resnet_compute_fraction: frac,
    }
}

/// Renders the takeaways alongside the paper's claims.
pub fn render(r: &TakeawayReport) -> String {
    format!(
        "§VII takeaways — paper vs simulation\n\
         {:<52} {:>8} {:>10}\n\
         {:-<72}\n\
         {:<52} {:>8} {:>10.2}\n\
         {:<52} {:>8} {:>10.2}\n\
         {:<52} {:>8} {:>10.1}x\n\
         {:<52} {:>8} {:>10.2}\n\
         {:<52} {:>8} {:>10.2}\n\
         {:<52} {:>8} {:>10.0}%\n\
         {:<52} {:>8} {:>10.2}\n\
         {:<52} {:>8} {:>10.2}\n\
         {:<52} {:>8} {:>10.1}x\n\
         {:<52} {:>8} {:>10.0}%\n",
        "takeaway",
        "paper",
        "measured",
        "",
        "TCP VAST per-node write (GB/s)",
        "~1",
        r.tcp_per_node_write,
        "RDMA VAST per-node write (GB/s)",
        "~8",
        r.rdma_per_node_write,
        "RDMA over TCP per-node advantage",
        "up to 8",
        r.rdma_over_tcp,
        "GPFS per-node seq read (GB/s)",
        "14.5",
        r.gpfs_seq_read,
        "GPFS per-node random read (GB/s)",
        "1.4",
        r.gpfs_rand_read,
        "GPFS seq->random drop",
        "90",
        r.gpfs_drop * 100.0,
        "RDMA VAST per-node seq read (GB/s)",
        "9",
        r.vast_seq_read,
        "RDMA VAST per-node random read (GB/s)",
        "7",
        r.vast_rand_read,
        "VAST over NVMe, single-node fsync write",
        "5",
        r.vast_over_nvme,
        "ResNet-50 compute-only runtime fraction",
        "97",
        r.resnet_compute_fraction * 100.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn takeaways_land_in_paper_bands() {
        let r = measure(Scale::Smoke);
        assert!(
            (0.5..1.6).contains(&r.tcp_per_node_write),
            "tcp write {}",
            r.tcp_per_node_write
        );
        assert!(
            (4.0..10.0).contains(&r.rdma_per_node_write),
            "rdma write {}",
            r.rdma_per_node_write
        );
        assert!(
            (4.0..13.0).contains(&r.rdma_over_tcp),
            "rdma/tcp {}",
            r.rdma_over_tcp
        );
        assert!(
            (10.0..17.0).contains(&r.gpfs_seq_read),
            "gpfs seq {}",
            r.gpfs_seq_read
        );
        assert!(
            (0.8..2.6).contains(&r.gpfs_rand_read),
            "gpfs rand {}",
            r.gpfs_rand_read
        );
        assert!((0.75..0.97).contains(&r.gpfs_drop), "drop {}", r.gpfs_drop);
        assert!(r.vast_rand_read > 0.6 * r.vast_seq_read, "vast consistency");
        assert!(
            (3.0..8.0).contains(&r.vast_over_nvme),
            "vast/nvme {}",
            r.vast_over_nvme
        );
        assert!(
            r.resnet_compute_fraction > 0.9,
            "compute frac {}",
            r.resnet_compute_fraction
        );
    }

    #[test]
    fn render_mentions_every_takeaway() {
        let r = measure(Scale::Smoke);
        let s = render(&r);
        assert!(s.contains("RDMA over TCP"));
        assert!(s.contains("GPFS seq->random drop"));
        assert!(s.contains("VAST over NVMe"));
        assert!(s.contains("ResNet-50"));
    }
}
