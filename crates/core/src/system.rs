//! The `StorageSystem` trait and provisioning contract.

use hcs_simkit::{FlowNet, ResourceId};

use crate::graph::{DeploymentGraph, PlanOptions, StageKind};
use crate::phase::PhaseSpec;

/// One equivalence class of client nodes: every member traverses the
/// same capacities (same shard assignment, same per-node stage
/// capacities, same fault exposure), so the planner may compile the
/// whole class into one weighted flow over aggregate resources.
#[derive(Clone, Debug)]
pub struct NodeClass {
    /// Member node indices, ascending.
    pub members: Vec<u32>,
    /// The resource path every member traverses (per-node stages appear
    /// as class aggregate resources).
    pub path: Vec<ResourceId>,
}

/// One aggregate resource standing for a per-node stage across a whole
/// node class — the mapping fault resolution needs to decide whether a
/// name filter covers the class.
#[derive(Clone, Debug)]
pub struct AggregateStage {
    /// The registered aggregate resource.
    pub id: ResourceId,
    /// The stage's base name (member `i` would have been named
    /// `"{stage_name}{i}"` in an expanded plan).
    pub stage_name: String,
    /// Member node indices, ascending (same as the owning class).
    pub members: Vec<u32>,
}

/// Metadata-path performance of a storage system, consumed by
/// metadata benchmarks (MDTest-style create/stat/unlink storms).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetadataProfile {
    /// Round-trip latency of one metadata operation from one client,
    /// seconds (an NFS LOOKUP/CREATE over the mount's transport, a
    /// Lustre MDS RPC...).
    pub op_latency: f64,
    /// Aggregate server-side metadata operation rate, ops/s.
    pub ops_pool: f64,
}

/// What a storage system hands back after provisioning a [`FlowNet`]
/// for a run.
#[derive(Clone, Debug)]
pub struct Provisioned {
    /// For each client node `i`, the resource path its flows traverse
    /// (mount connection, gateway, server pool, fabric, media...). The
    /// first entry is conventionally the node's own mount/NIC resource.
    pub node_paths: Vec<Vec<ResourceId>>,
    /// Peak bandwidth of a single client stream (one thread issuing
    /// blocking I/O), bytes/s. `f64::INFINITY` when unconstrained.
    pub per_stream_bw: f64,
    /// Fixed latency per operation beyond bandwidth (protocol + media),
    /// seconds.
    pub per_op_latency: f64,
    /// Fixed latency per file open (metadata round trips), seconds.
    pub metadata_latency: f64,
    /// Which deployment stage each provisioned resource belongs to,
    /// `(resource, kind)` in provisioning order. Lets the runner
    /// attribute a saturated resource to a stage category without
    /// parsing names, and stays correct when several systems share one
    /// [`FlowNet`] (resource ids are absolute, not zero-based).
    pub stage_kinds: Vec<(ResourceId, StageKind)>,
    /// Node equivalence classes, populated **only** by class-aggregated
    /// plans ([`DeploymentGraph::provision_classed`] with aggregation
    /// on); empty for expanded plans, whose per-node paths live in
    /// [`Self::node_paths`]. Exactly one of the two representations is
    /// populated.
    pub classes: Vec<NodeClass>,
    /// Aggregate per-node-stage resources of a class-aggregated plan
    /// (empty for expanded plans), in provisioning order.
    pub aggregates: Vec<AggregateStage>,
}

impl Provisioned {
    /// Number of client nodes this plan covers, whichever
    /// representation is populated.
    pub fn client_nodes(&self) -> usize {
        if self.classes.is_empty() {
            self.node_paths.len()
        } else {
            self.classes.iter().map(|c| c.members.len()).sum()
        }
    }
    /// The effective per-stream bandwidth for back-to-back operations of
    /// `transfer_size` bytes, folding [`Self::per_op_latency`] into
    /// [`Self::per_stream_bw`].
    ///
    /// # Panics
    /// Panics if the per-stream bandwidth is not positive: a
    /// zero-capacity stream would make every rank crossing it stall
    /// forever, which used to surface as a silent 0.0 rate cap and a
    /// hung `run_to_completion`. [`DeploymentGraph::validate`] rejects
    /// such graphs at planning time; this is the backstop for
    /// hand-built `Provisioned` values.
    pub fn effective_stream_bw(&self, transfer_size: f64) -> f64 {
        assert!(transfer_size > 0.0, "transfer size must be positive");
        assert!(
            !self.per_stream_bw.is_nan() && self.per_stream_bw > 0.0,
            "per-stream bandwidth is {}; a zero-capacity stream would stall \
             every flow (use f64::INFINITY for 'unconstrained')",
            self.per_stream_bw
        );
        if self.per_op_latency <= 0.0 {
            return self.per_stream_bw;
        }
        if !self.per_stream_bw.is_finite() {
            return transfer_size / self.per_op_latency;
        }
        transfer_size / (transfer_size / self.per_stream_bw + self.per_op_latency)
    }
}

/// A storage system deployment, bound to a specific machine.
///
/// Implementations translate a [`PhaseSpec`] into a
/// [`DeploymentGraph`]: which stages a request crosses, and how much
/// capacity each has *for that phase's op/pattern/transfer/fsync
/// combination*. Capacities are phase-dependent because media and cache
/// behaviour are pattern-dependent (an HDD array is 15× slower for
/// random 1 MiB reads; fsync collapses consumer NVMe writes). The
/// shared planner ([`DeploymentGraph::provision`]) turns the graph into
/// flow-network resources — backends declare deployments, they do not
/// build networks.
/// Systems are plain calibration data, so they are required to be
/// thread-safe — experiment sweeps run configurations in parallel.
pub trait StorageSystem: Send + Sync {
    /// Short name ("VAST", "GPFS", ...). Used in figure legends.
    fn name(&self) -> &str;

    /// One-line deployment description for reports.
    fn description(&self) -> String {
        self.name().to_string()
    }

    /// Describes the deployment for a run with `nodes` client nodes of
    /// `ppn` ranks each as a declarative stage graph. Capacities may
    /// depend on the phase (cache blending, working-set effects), so
    /// the phase is an input to planning, not only to compilation.
    fn plan(&self, nodes: u32, ppn: u32, phase: &PhaseSpec) -> DeploymentGraph;

    /// Builds the resources for a run, returning the per-node paths and
    /// stream parameters. Provided: compiles [`Self::plan`] through the
    /// shared planner. Consumers (the runner, trace replay, the DLIO
    /// pipeline) call this; backends implement [`Self::plan`].
    fn provision(&self, net: &mut FlowNet, nodes: u32, ppn: u32, phase: &PhaseSpec) -> Provisioned {
        self.plan(nodes, ppn, phase).provision(net, nodes, phase)
    }

    /// [`Self::provision`] with equivalence-class aggregation past
    /// [`crate::graph::AGGREGATE_NODE_THRESHOLD`] nodes, split by the
    /// fault specs in `opts`. The phase runner calls this;
    /// [`Self::provision`] stays fully expanded for consumers that
    /// index [`Provisioned::node_paths`] per node (trace replay, the
    /// DLIO pipeline).
    fn provision_classed(
        &self,
        net: &mut FlowNet,
        nodes: u32,
        ppn: u32,
        phase: &PhaseSpec,
        opts: &PlanOptions<'_>,
    ) -> Provisioned {
        self.plan(nodes, ppn, phase)
            .provision_classed(net, nodes, phase, opts)
    }

    /// Run-to-run variability (multiplicative sigma) observed on this
    /// deployment — shared parallel file systems wobble more than
    /// dedicated appliances (§IV.C: "all file systems, including VAST,
    /// are shared").
    fn noise_sigma(&self) -> f64 {
        0.03
    }

    /// Metadata-path performance (for MDTest-style benchmarks). The
    /// default is a fast, uncontended path; real systems override it
    /// from their transport latency and operation-rate pool.
    fn metadata_profile(&self) -> MetadataProfile {
        MetadataProfile {
            op_latency: 100e-6,
            ops_pool: 1e6,
        }
    }
}

/// Boxed systems forward the trait, so registries can hand out
/// `Box<dyn StorageSystem>` values and consumers (graph mutators like
/// [`crate::graph::Reconfigured`], the scenario executor) can wrap them
/// without knowing the concrete backend.
impl StorageSystem for Box<dyn StorageSystem> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn description(&self) -> String {
        (**self).description()
    }

    fn plan(&self, nodes: u32, ppn: u32, phase: &PhaseSpec) -> DeploymentGraph {
        (**self).plan(nodes, ppn, phase)
    }

    fn provision(&self, net: &mut FlowNet, nodes: u32, ppn: u32, phase: &PhaseSpec) -> Provisioned {
        (**self).provision(net, nodes, ppn, phase)
    }

    fn provision_classed(
        &self,
        net: &mut FlowNet,
        nodes: u32,
        ppn: u32,
        phase: &PhaseSpec,
        opts: &PlanOptions<'_>,
    ) -> Provisioned {
        (**self).provision_classed(net, nodes, ppn, phase, opts)
    }

    fn noise_sigma(&self) -> f64 {
        (**self).noise_sigma()
    }

    fn metadata_profile(&self) -> MetadataProfile {
        (**self).metadata_profile()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_stream_bw_folds_latency() {
        let p = Provisioned {
            node_paths: vec![],
            per_stream_bw: 1e9,
            per_op_latency: 1e-3,
            metadata_latency: 0.0,
            stage_kinds: vec![],
            classes: vec![],
            aggregates: vec![],
        };
        // 1 MB ops: 1e6 / (1e-3 + 1e-3) = 500 MB/s.
        let eff = p.effective_stream_bw(1e6);
        assert!((eff - 5e8).abs() < 1.0);
    }

    #[test]
    fn infinite_stream_is_latency_bound() {
        let p = Provisioned {
            node_paths: vec![],
            per_stream_bw: f64::INFINITY,
            per_op_latency: 1e-3,
            metadata_latency: 0.0,
            stage_kinds: vec![],
            classes: vec![],
            aggregates: vec![],
        };
        assert!((p.effective_stream_bw(1e6) - 1e9).abs() < 1.0);
    }

    #[test]
    fn zero_latency_passthrough() {
        let p = Provisioned {
            node_paths: vec![],
            per_stream_bw: 2e9,
            per_op_latency: 0.0,
            metadata_latency: 0.0,
            stage_kinds: vec![],
            classes: vec![],
            aggregates: vec![],
        };
        assert_eq!(p.effective_stream_bw(4096.0), 2e9);
    }

    #[test]
    #[should_panic(expected = "per-stream bandwidth is 0")]
    fn zero_stream_bw_is_rejected_not_stalled() {
        let p = Provisioned {
            node_paths: vec![],
            per_stream_bw: 0.0,
            per_op_latency: 1e-3,
            metadata_latency: 0.0,
            stage_kinds: vec![],
            classes: vec![],
            aggregates: vec![],
        };
        p.effective_stream_bw(1e6);
    }
}
