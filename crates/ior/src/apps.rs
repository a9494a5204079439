//! Application-derived IOR configurations.
//!
//! The paper's background section (§III.B) names the real applications
//! its three workload classes stand in for. Each preset here encodes
//! that application's published I/O geometry as an IOR configuration,
//! so the suite can be driven with application-shaped workloads rather
//! than only the paper's uniform 1 MiB × 3,000 geometry.
//!
//! | App | Class | Geometry |
//! |---|---|---|
//! | CM1 | scientific | "more than 750 files each of 16 MB in size" |
//! | HACC-I/O | scientific | "emulates checkpoint/restart on simulation data" |
//! | BD-CATS | analytics | "operates on a shared HDF5 file using MPI-IO" (N-1!) |
//! | KMeans | analytics | "reads points from files with divisions based on algorithmic tasks" |
//! | Cosmic Tagger | ML | HDF5 via h5py, "stripes the file in memory" |

use hcs_simkit::units::{KIB, MIB};

use crate::config::{IorConfig, WorkloadClass};

/// CM1, the atmospheric-simulation model (§III.B): bulk-synchronous
/// output of ~750 files of 16 MB. Modeled as each rank streaming 16 MB
/// files in 1 MiB writes; at 48 ranks a dump step writes ~16 files per
/// rank.
pub fn cm1(nodes: u32, tasks_per_node: u32) -> IorConfig {
    IorConfig {
        block_size: 16.0 * MIB,
        transfer_size: MIB,
        segments: 16, // 16 × 16 MB files per rank ≈ 750 files at 48 ranks
        reorder_tasks: false,
        ..IorConfig::paper_scalability(WorkloadClass::Scientific, nodes, tasks_per_node)
    }
}

/// HACC-I/O, the hardware/hybrid accelerated cosmology I/O kernel
/// (§III.B): checkpoint/restart on particle data — large, aligned,
/// per-process sequential writes with synchronization (a checkpoint is
/// only useful once it is durable).
pub fn hacc_io(nodes: u32, tasks_per_node: u32) -> IorConfig {
    IorConfig {
        block_size: 8.0 * MIB,
        transfer_size: 8.0 * MIB,
        segments: 128, // ~1 GiB of particle state per rank
        fsync: true,
        reorder_tasks: false,
        ..IorConfig::paper_scalability(WorkloadClass::Scientific, nodes, tasks_per_node)
    }
}

/// BD-CATS, trillion-particle clustering (§III.B): all ranks scan one
/// **shared HDF5 file** through MPI-IO — the paper's one named N-1
/// workload, and the reason its methodology section discusses shared-
/// file locking overheads.
pub fn bd_cats(nodes: u32, tasks_per_node: u32) -> IorConfig {
    IorConfig {
        block_size: 2.0 * MIB,
        transfer_size: 2.0 * MIB,
        segments: 512,
        file_per_proc: false, // the shared HDF5 file
        ..IorConfig::paper_scalability(WorkloadClass::DataAnalytics, nodes, tasks_per_node)
    }
}

/// KMeans-style clustering (§III.B): iterative full scans of a
/// partitioned point set, one partition file per task.
pub fn kmeans(nodes: u32, tasks_per_node: u32) -> IorConfig {
    IorConfig {
        block_size: 4.0 * MIB,
        transfer_size: 4.0 * MIB,
        segments: 256,
        ..IorConfig::paper_scalability(WorkloadClass::DataAnalytics, nodes, tasks_per_node)
    }
}

/// Cosmic Tagger (§III.B): sparse UNet training consuming HDF5 sample
/// slices via h5py — small, effectively random reads.
pub fn cosmic_tagger(nodes: u32, tasks_per_node: u32) -> IorConfig {
    IorConfig {
        block_size: 256.0 * KIB,
        transfer_size: 256.0 * KIB,
        segments: 2048,
        ..IorConfig::paper_scalability(WorkloadClass::MachineLearning, nodes, tasks_per_node)
    }
}

/// Every application preset with its display name, at the given scale.
pub fn all_apps(nodes: u32, tasks_per_node: u32) -> Vec<(&'static str, IorConfig)> {
    vec![
        ("CM1", cm1(nodes, tasks_per_node)),
        ("HACC-I/O", hacc_io(nodes, tasks_per_node)),
        ("BD-CATS", bd_cats(nodes, tasks_per_node)),
        ("KMeans", kmeans(nodes, tasks_per_node)),
        ("Cosmic Tagger", cosmic_tagger(nodes, tasks_per_node)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_ior;
    use hcs_devices::{AccessPattern, IoOp};
    use hcs_gpfs::GpfsConfig;
    use hcs_vast::vast_on_lassen;

    #[test]
    fn presets_validate_and_map_to_classes() {
        for (name, cfg) in all_apps(2, 8) {
            assert_eq!(cfg.check(), Ok(()), "{name}");
            let phase = cfg.phase();
            match name {
                "CM1" | "HACC-I/O" => assert_eq!(phase.op, IoOp::Write, "{name}"),
                "BD-CATS" | "KMeans" => {
                    assert_eq!(
                        (phase.op, phase.pattern),
                        (IoOp::Read, AccessPattern::Sequential)
                    )
                }
                "Cosmic Tagger" => {
                    assert_eq!(
                        (phase.op, phase.pattern),
                        (IoOp::Read, AccessPattern::Random)
                    )
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn cm1_writes_750ish_files_worth() {
        // 16 segments × 16 MiB × 48 ranks ≈ 768 file-equivalents.
        let cfg = cm1(1, 48);
        let files = cfg.segments * 48;
        assert!((700..900).contains(&files));
        assert_eq!(cfg.block_size, 16.0 * MIB);
    }

    #[test]
    fn bd_cats_is_shared_file() {
        let cfg = bd_cats(4, 16);
        assert!(!cfg.file_per_proc);
        assert!(!cfg.phase().file_per_proc);
    }

    #[test]
    fn hacc_checkpoint_is_synced() {
        assert!(hacc_io(1, 8).fsync);
    }

    #[test]
    fn apps_run_end_to_end() {
        let gpfs = GpfsConfig::on_lassen();
        let vast = vast_on_lassen();
        for (name, mut cfg) in all_apps(2, 8) {
            cfg.reps = 2;
            let g = run_ior(&gpfs, &cfg).mean_bandwidth();
            let v = run_ior(&vast, &cfg).mean_bandwidth();
            assert!(g > 0.0 && v > 0.0, "{name}");
        }
    }

    #[test]
    fn hacc_on_vast_wins_at_low_concurrency_only() {
        // Synchronized checkpoints love SCM at low process counts (the
        // per-op HDD flush dominates GPFS); GPFS overtakes once enough
        // ranks amortize it — the Fig 3a crossover in app form.
        let mut one = hacc_io(1, 1);
        one.reps = 2;
        let g1 = run_ior(&GpfsConfig::on_lassen(), &one).mean_bandwidth();
        let v1 = run_ior(&vast_on_lassen(), &one).mean_bandwidth();
        assert!(v1 > g1, "1 rank: VAST {v1} vs GPFS {g1}");

        let mut many = hacc_io(1, 16);
        many.reps = 2;
        let g16 = run_ior(&GpfsConfig::on_lassen(), &many).mean_bandwidth();
        let v16 = run_ior(&vast_on_lassen(), &many).mean_bandwidth();
        assert!(g16 > v16, "16 ranks: GPFS {g16} vs VAST {v16}");
    }
}
