//! # hcs-mdtest
//!
//! An MDTest-equivalent metadata benchmark. The paper's related work
//! (§II) notes that BurstFS, GekkoFS, IME and Ceph were all evaluated
//! "using IOR and MDTest" — MDTest being IOR's companion for *metadata*
//! rates: every rank creates, stats and unlinks a private tree of small
//! files, and the benchmark reports aggregate operations per second.
//!
//! Here the same storm runs against the suite's storage systems via
//! their [`hcs_core::MetadataProfile`]: each rank is a blocking
//! requester issuing one metadata RPC at a time (rate ≤
//! `1 / op_latency`), all ranks share the server-side operation pool,
//! and the flow engine divides the pool max-min fairly — the same
//! machinery as the bandwidth benchmarks, with "bytes" reinterpreted as
//! operations.
//!
//! The interesting reproduction-adjacent result: the TCP-mounted VAST
//! deployments, whose *bandwidth* ceiling the paper measures, have an
//! even harsher *metadata* ceiling (every RPC pays the gateway TCP
//! round trip), which is exactly why the file-per-sample ResNet-50
//! workload stresses them (§VI.B).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use serde::{Deserialize, Serialize};

use hcs_core::StorageSystem;
use hcs_simkit::{FlowNet, FlowSpec, ResourceSpec, SimRng, Summary};

/// The metadata operations MDTest measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MetaOp {
    /// File creation (two round trips' worth of server work).
    Create,
    /// `stat()` on an existing file.
    Stat,
    /// File removal.
    Unlink,
}

impl MetaOp {
    /// All phases, in MDTest's order.
    pub fn all() -> [MetaOp; 3] {
        [MetaOp::Create, MetaOp::Stat, MetaOp::Unlink]
    }

    /// Cost multiplier relative to the system's base metadata latency
    /// (creates allocate inodes and journal; stats are the cheapest).
    pub fn cost_factor(self) -> f64 {
        match self {
            MetaOp::Create => 2.0,
            MetaOp::Stat => 1.0,
            MetaOp::Unlink => 1.5,
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            MetaOp::Create => "create",
            MetaOp::Stat => "stat",
            MetaOp::Unlink => "unlink",
        }
    }
}

// The run configuration lives in the core scenario IR (so a
// `hcs_core::Scenario` can embed a metadata workload); this crate keeps
// its historical path and owns the execution engine.
pub use hcs_core::scenario::mdtest::MdtestConfig;

/// Aggregate rates of one MDTest run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MdtestReport {
    /// Storage system description.
    pub system: String,
    /// The configuration.
    pub config: MdtestConfig,
    /// Create rate over repetitions, ops/s.
    pub create: Summary,
    /// Stat rate over repetitions, ops/s.
    pub stat: Summary,
    /// Unlink rate over repetitions, ops/s.
    pub unlink: Summary,
}

impl MdtestReport {
    /// The summary for one op.
    pub fn rate(&self, op: MetaOp) -> &Summary {
        match op {
            MetaOp::Create => &self.create,
            MetaOp::Stat => &self.stat,
            MetaOp::Unlink => &self.unlink,
        }
    }
}

/// Runs one metadata phase and returns its aggregate rate (ops/s).
fn run_meta_phase(system: &dyn StorageSystem, config: &MdtestConfig, op: MetaOp) -> f64 {
    let profile = system.metadata_profile();
    let mut net = FlowNet::new();
    // The server-side metadata pool, in ops/s; creates consume more
    // server work per op, shrinking the pool proportionally.
    let pool = net.add_resource(ResourceSpec::new(
        "meta:pool",
        profile.ops_pool / op.cost_factor(),
    ));
    // One flow group per node; "bytes" are operations. Each rank is a
    // blocking requester: at most one RPC in flight.
    let per_rank_rate = 1.0 / (profile.op_latency * op.cost_factor()).max(1e-9);
    for node in 0..config.nodes {
        net.add_flow(
            FlowSpec::new(vec![pool], config.files_per_proc as f64)
                .with_multiplicity(config.tasks_per_node)
                .with_rate_cap(per_rank_rate)
                .with_tag(node as u64),
        );
    }
    let duration = net.run_to_completion(|_, _| {});
    config.total_ops() / duration
}

/// Runs MDTest against a storage system: create, stat, unlink, with
/// noisy repetitions, reporting aggregate ops/s.
///
/// # Panics
/// Panics with [`MdtestConfig::check`]'s diagnostic on an invalid
/// configuration.
pub fn run_mdtest(system: &dyn StorageSystem, config: &MdtestConfig) -> MdtestReport {
    config.check().unwrap_or_else(|e| panic!("{e}"));
    let mut rng = SimRng::new(config.seed).split(system.name());
    let mut rates = |op: MetaOp| -> Summary {
        let base = run_meta_phase(system, config, op);
        let sigma = system.noise_sigma();
        let samples: Vec<f64> = (0..config.reps)
            .map(|_| base / rng.jitter_factor(sigma))
            .collect();
        Summary::of(&samples).expect("reps >= 1")
    };
    MdtestReport {
        system: system.description(),
        config: config.clone(),
        create: rates(MetaOp::Create),
        stat: rates(MetaOp::Stat),
        unlink: rates(MetaOp::Unlink),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcs_gpfs::GpfsConfig;
    use hcs_lustre::LustreConfig;
    use hcs_nvme::LocalNvmeConfig;
    use hcs_vast::{vast_on_lassen, vast_on_wombat};

    #[test]
    fn op_ordering_create_slowest_stat_fastest() {
        let r = run_mdtest(&LustreConfig::on_ruby(), &MdtestConfig::new(4, 16));
        assert!(r.stat.mean > r.unlink.mean);
        assert!(r.unlink.mean > r.create.mean);
    }

    #[test]
    fn single_rank_is_latency_bound() {
        let sys = vast_on_lassen();
        let cfg = MdtestConfig::new(1, 1);
        let r = run_mdtest(&sys, &cfg);
        let expected = 1.0 / sys.transport.metadata_latency;
        // Stat rate ≈ 1/latency for one blocking rank.
        assert!(
            (r.stat.mean / expected - 1.0).abs() < 0.1,
            "{}",
            r.stat.mean
        );
    }

    #[test]
    fn aggregate_saturates_at_ops_pool() {
        use hcs_core::StorageSystem as _;
        let sys = vast_on_lassen();
        let pool = sys.metadata_profile().ops_pool;
        let big = MdtestConfig::new(128, 44);
        let r = run_mdtest(&sys, &big);
        assert!(r.stat.mean <= pool * 1.1, "{} vs pool {pool}", r.stat.mean);
        assert!(
            r.stat.mean > pool * 0.7,
            "should be pool-bound at 5,632 ranks"
        );
    }

    #[test]
    fn rdma_vast_beats_tcp_vast_on_metadata() {
        // The metadata-path version of the §VII transport takeaway.
        let cfg = MdtestConfig::new(4, 32);
        let tcp = run_mdtest(&vast_on_lassen(), &cfg);
        let rdma = run_mdtest(&vast_on_wombat(), &cfg);
        assert!(
            rdma.stat.mean > 4.0 * tcp.stat.mean,
            "rdma {} vs tcp {}",
            rdma.stat.mean,
            tcp.stat.mean
        );
    }

    #[test]
    fn parallel_filesystems_beat_nfs_gateway_on_metadata() {
        let cfg = MdtestConfig::new(8, 32);
        let vast = run_mdtest(&vast_on_lassen(), &cfg);
        let gpfs = run_mdtest(&GpfsConfig::on_lassen(), &cfg);
        let lustre = run_mdtest(&LustreConfig::on_ruby(), &cfg);
        assert!(gpfs.create.mean > vast.create.mean);
        assert!(lustre.create.mean > vast.create.mean);
    }

    #[test]
    fn local_nvme_metadata_is_fastest_per_node() {
        let cfg = MdtestConfig::new(1, 32);
        let nvme = run_mdtest(&LocalNvmeConfig::on_wombat(), &cfg);
        let vast = run_mdtest(&vast_on_wombat(), &cfg);
        assert!(nvme.stat.mean > vast.stat.mean);
    }

    #[test]
    fn deterministic_and_serializable() {
        let cfg = MdtestConfig::new(2, 8);
        let a = run_mdtest(&GpfsConfig::on_lassen(), &cfg);
        let b = run_mdtest(&GpfsConfig::on_lassen(), &cfg);
        assert_eq!(a, b);
        let back: MdtestReport = serde_json::from_str(&serde_json::to_string(&a).unwrap()).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    #[should_panic(expected = "at least one file")]
    fn zero_files_rejected() {
        let mut cfg = MdtestConfig::new(1, 1);
        cfg.files_per_proc = 0;
        run_mdtest(&GpfsConfig::on_lassen(), &cfg);
    }
}
