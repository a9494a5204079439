//! Declarative deployment graphs.
//!
//! A [`DeploymentGraph`] describes a storage deployment as a sequence of
//! typed [`Stage`]s — the funnels a byte crosses between a client rank
//! and the media: mount connection, gateway uplink, operation-rate
//! pool, server pool, fabric, media array. One shared planner
//! ([`DeploymentGraph::provision`]) compiles the graph into
//! [`FlowNet`] resources and per-node paths, so every backend declares
//! *what its deployment is* and none of them re-implements *how a
//! deployment becomes a flow network*.
//!
//! The planner's contract, which the golden parity fixtures in
//! `tests/graph_parity.rs` pin bit-for-bit:
//!
//! * **Resource order** — shared and sharded stages first, in
//!   declaration order (a sharded stage expands to `count` resources
//!   `name0..nameN`), then the per-node stages node by node, again in
//!   declaration order (`name0` for node 0, …).
//! * **Path order** — each node's path visits its stages sorted by
//!   [`StageKind`] (client side first, media last), ties broken by
//!   declaration order. Sharded stages are assigned round-robin:
//!   node `i` crosses shard `i % count`.
//! * **Ops-pool conversion** — an [`Capacity::OpsRate`] stage is an
//!   operation-rate ceiling; the planner converts it to byte units for
//!   the phase at hand by dividing by [`PhaseSpec::ops_per_byte`].
//!
//! Because deployments are now data, reconfiguration is an edit, not a
//! new backend: the mutators ([`DeploymentGraph::widen_gateway`],
//! [`DeploymentGraph::swap_transport`],
//! [`DeploymentGraph::scale_pool`]) and the [`Reconfigured`] wrapper
//! turn the paper's what-if questions — "what if Lassen's gateway were
//! wider?" (§VII), "what does `nconnect` buy?" — into generic graph
//! edits that work against any backend.

use std::cell::Cell;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use hcs_netsim::TransportSpec;
use hcs_simkit::{FlowNet, ResourceSpec};

use crate::phase::PhaseSpec;
use crate::scenario::FaultSpec;
use crate::system::{AggregateStage, NodeClass, Provisioned, StorageSystem};

/// Node count above which [`DeploymentGraph::provision_classed`]
/// switches to equivalence-class aggregation. The paper's largest sweep
/// stops at 128 nodes, so every paper/smoke-scale run (and every golden
/// fixture) stays on the fully expanded plan — bit-identical to the
/// pre-aggregation planner — while datacenter-scale sweeps compile to
/// one resource/flow per *class* instead of per node.
pub const AGGREGATE_NODE_THRESHOLD: u32 = 1024;

thread_local! {
    static FORCED_AGGREGATION: Cell<Option<bool>> = const { Cell::new(None) };
}

/// Runs `f` with class aggregation forced on or off for this thread,
/// whatever the node count — how the differential tests drive whole
/// decks through the aggregated planner at smoke scale (and how they
/// pin that the expanded twin is reproduced exactly) without plumbing
/// a flag through every layer.
pub fn with_forced_aggregation<T>(on: bool, f: impl FnOnce() -> T) -> T {
    let prev = FORCED_AGGREGATION.with(|c| c.replace(Some(on)));
    let out = f();
    FORCED_AGGREGATION.with(|c| c.set(prev));
    out
}

/// Options for [`DeploymentGraph::provision_classed`].
#[derive(Clone, Copy, Debug, Default)]
pub struct PlanOptions<'a> {
    /// Fault specs the run will resolve: any spec with a `name` filter
    /// that hits a strict subset of a class forces a deterministic
    /// class split, so fault resolution stays all-or-nothing per class.
    pub faults: &'a [FaultSpec],
}

impl<'a> PlanOptions<'a> {
    /// Options for a run with the given fault schedule.
    pub fn auto(faults: &'a [FaultSpec]) -> Self {
        PlanOptions { faults }
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.max(1)
}

/// Whether a provisioned resource name belongs to the stage `name`:
/// shared stages compile to the stage name itself, sharded and
/// per-node stages to the name plus a decimal member index. This is
/// the fault-spec name-filter contract; the class splitter applies the
/// same predicate to *would-be* member names (through
/// [`filter_ranges`]) so a split class is all-in or all-out for every
/// filter.
pub(crate) fn resource_of_stage(stage_name: &str, resource_name: &str) -> bool {
    match resource_name.strip_prefix(stage_name) {
        Some("") => true,
        Some(rest) => rest.chars().all(|c| c.is_ascii_digit()),
        None => false,
    }
}

/// The nodes in `0..nodes` whose per-node resource of stage `stage`
/// (`"{stage}{node}"`) the name `filter` selects under
/// [`resource_of_stage`], as ascending disjoint non-empty ranges.
///
/// A filter that ends inside the stage name selects every node when
/// the rest of the name is digits, else none. A longer filter selects
/// the nodes whose decimal index starts with its digit tail `d`: `0`
/// alone for `"0"`, nothing for any other leading zero, and otherwise
/// `d`, `d0..=d9`, `d00..=d99`, … — O(log nodes) ranges.
pub(crate) fn filter_ranges(filter: &str, stage: &str, nodes: u32) -> Vec<Range<u32>> {
    let (filter, stage) = (filter.as_bytes(), stage.as_bytes());
    let digits = |s: &[u8]| s.iter().all(u8::is_ascii_digit);
    let nodes = u64::from(nodes);
    // The first range is `lo..lo + width`; each next one is ten times
    // both, except after a range starting at 0 (every node, or node 0).
    let (mut lo, mut width) = if filter.len() <= stage.len() {
        match stage.strip_prefix(filter) {
            Some(rest) if digits(rest) => (0, nodes),
            _ => return vec![],
        }
    } else {
        match filter.strip_prefix(stage) {
            Some(b"0") => (0, 1),
            Some(tail) if digits(tail) && tail[0] != b'0' => {
                let value = tail.iter().fold(0u64, |v, &d| {
                    v.saturating_mul(10).saturating_add(u64::from(d - b'0'))
                });
                (value, 1)
            }
            _ => return vec![],
        }
    };
    let mut ranges = Vec::new();
    while lo < nodes {
        ranges.push(lo as u32..(lo + width).min(nodes) as u32);
        if lo == 0 {
            break;
        }
        lo *= 10;
        width *= 10;
    }
    ranges
}

/// The category of a deployment stage — the shared vocabulary used by
/// bottleneck attribution, `hcs explain` output and figure legends.
///
/// The declaration order is the canonical client→media path order:
/// a node path visits its stages sorted by this enum.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum StageKind {
    /// A client node's mount connection (NIC, TCP/RDMA connection pool,
    /// client-side I/O engine).
    ClientMount,
    /// A protocol gateway funnel between the compute fabric and the
    /// storage system (the Lassen 2×100 GbE gateway).
    Gateway,
    /// An operation-rate ceiling (NFS RPC termination, MDS/RPC pools),
    /// expressed in ops/s and converted per phase.
    OpsPool,
    /// The server-side processing pool (CNodes, NSD servers, OSSs,
    /// user-level I/O server threads).
    ServerPool,
    /// The internal fabric between servers and enclosures.
    Fabric,
    /// The media tier itself (SCM/QLC arrays, HDD arrays, local NVMe).
    Media,
}

impl StageKind {
    /// Human-readable label for reports and legends.
    pub fn label(self) -> &'static str {
        match self {
            StageKind::ClientMount => "client mount",
            StageKind::Gateway => "gateway",
            StageKind::OpsPool => "ops pool",
            StageKind::ServerPool => "server pool",
            StageKind::Fabric => "fabric",
            StageKind::Media => "media",
        }
    }

    /// Every kind, in canonical path order.
    pub fn all() -> [StageKind; 6] {
        [
            StageKind::ClientMount,
            StageKind::Gateway,
            StageKind::OpsPool,
            StageKind::ServerPool,
            StageKind::Fabric,
            StageKind::Media,
        ]
    }
}

/// How many resources a stage expands to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum StageScope {
    /// One resource shared by every node (a server pool, a fabric).
    Shared,
    /// `count` parallel resources; node `i` is assigned shard
    /// `i % count` (a gateway group).
    Sharded {
        /// Number of parallel shards.
        count: u32,
    },
    /// One resource per client node (a mount connection, a node-local
    /// drive array).
    PerNode,
}

/// A stage's capacity.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Capacity {
    /// Byte throughput, bytes/s.
    Bandwidth(f64),
    /// Operation rate, ops/s; the planner converts it to bytes/s for a
    /// phase by dividing by [`PhaseSpec::ops_per_byte`].
    OpsRate(f64),
}

impl Capacity {
    /// The raw capacity value (bytes/s or ops/s).
    pub fn raw(self) -> f64 {
        match self {
            Capacity::Bandwidth(b) => b,
            Capacity::OpsRate(r) => r,
        }
    }

    /// Byte-unit capacity for a phase.
    fn for_phase(self, phase: &PhaseSpec) -> f64 {
        match self {
            Capacity::Bandwidth(b) => b,
            Capacity::OpsRate(r) => r / phase.ops_per_byte(),
        }
    }

    fn scaled(self, factor: f64) -> Capacity {
        match self {
            Capacity::Bandwidth(b) => Capacity::Bandwidth(b * factor),
            Capacity::OpsRate(r) => Capacity::OpsRate(r * factor),
        }
    }
}

/// One stage of a deployment.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Stage {
    /// Base resource name; the planner appends the shard or node index
    /// for sharded and per-node stages ("vast:gw" → "vast:gw0").
    pub name: String,
    /// Category, used for path ordering and bottleneck attribution.
    pub kind: StageKind,
    /// Expansion rule.
    pub scope: StageScope,
    /// Capacity.
    pub capacity: Capacity,
}

impl Stage {
    /// A shared bandwidth stage.
    pub fn shared(name: impl Into<String>, kind: StageKind, bw: f64) -> Self {
        Stage {
            name: name.into(),
            kind,
            scope: StageScope::Shared,
            capacity: Capacity::Bandwidth(bw),
        }
    }

    /// A sharded bandwidth stage (`count` parallel resources,
    /// round-robin node assignment).
    pub fn sharded(name: impl Into<String>, kind: StageKind, count: u32, bw: f64) -> Self {
        Stage {
            name: name.into(),
            kind,
            scope: StageScope::Sharded {
                count: count.max(1),
            },
            capacity: Capacity::Bandwidth(bw),
        }
    }

    /// A per-node bandwidth stage.
    pub fn per_node(name: impl Into<String>, kind: StageKind, bw: f64) -> Self {
        Stage {
            name: name.into(),
            kind,
            scope: StageScope::PerNode,
            capacity: Capacity::Bandwidth(bw),
        }
    }

    /// A shared operation-rate stage.
    pub fn ops_pool(name: impl Into<String>, ops_per_s: f64) -> Self {
        Stage {
            name: name.into(),
            kind: StageKind::OpsPool,
            scope: StageScope::Shared,
            capacity: Capacity::OpsRate(ops_per_s),
        }
    }
}

/// A storage deployment as data: stages plus the stream-level
/// parameters that do not map to shared resources.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DeploymentGraph {
    /// Stages in declaration order (client side first by convention).
    pub stages: Vec<Stage>,
    /// Peak bandwidth of one blocking client stream, bytes/s
    /// (`f64::INFINITY` when unconstrained).
    pub per_stream_bw: f64,
    /// Fixed per-operation latency, seconds.
    pub per_op_latency: f64,
    /// Per-file metadata latency, seconds.
    pub metadata_latency: f64,
}

impl DeploymentGraph {
    /// An empty graph with the given stream parameters.
    pub fn new(per_stream_bw: f64, per_op_latency: f64, metadata_latency: f64) -> Self {
        DeploymentGraph {
            stages: Vec::new(),
            per_stream_bw,
            per_op_latency,
            metadata_latency,
        }
    }

    /// Appends a stage (builder style).
    pub fn stage(mut self, stage: Stage) -> Self {
        self.stages.push(stage);
        self
    }

    /// All stages of a kind.
    pub fn stages_of(&self, kind: StageKind) -> impl Iterator<Item = &Stage> {
        self.stages.iter().filter(move |s| s.kind == kind)
    }

    /// Raw capacity of the first stage of a kind, if any.
    pub fn capacity_of(&self, kind: StageKind) -> Option<f64> {
        self.stages_of(kind).next().map(|s| s.capacity.raw())
    }

    /// Validates the graph, panicking with a clear message on the
    /// degenerate configurations that would otherwise stall the flow
    /// engine (zero-capacity stages, zero-capacity streams).
    ///
    /// # Panics
    /// Panics on a non-finite or non-positive stage capacity, a
    /// non-positive or NaN per-stream bandwidth, or negative latencies.
    pub fn validate(&self) {
        for stage in &self.stages {
            let c = stage.capacity.raw();
            assert!(
                c.is_finite() && c > 0.0,
                "deployment graph: stage '{}' ({}) has capacity {c}; a zero- or \
                 infinite-capacity stage cannot be provisioned (flows crossing it \
                 would stall or the resource would be meaningless)",
                stage.name,
                stage.kind.label(),
            );
            if let StageScope::Sharded { count } = stage.scope {
                assert!(
                    count >= 1,
                    "deployment graph: sharded stage '{}' needs at least one shard",
                    stage.name
                );
            }
        }
        assert!(
            !self.per_stream_bw.is_nan() && self.per_stream_bw > 0.0,
            "deployment graph: per-stream bandwidth is {}; zero-capacity streams \
             would stall every rank (use f64::INFINITY for 'unconstrained')",
            self.per_stream_bw
        );
        assert!(
            self.per_op_latency.is_finite() && self.per_op_latency >= 0.0,
            "deployment graph: per-op latency is {}",
            self.per_op_latency
        );
        assert!(
            self.metadata_latency.is_finite() && self.metadata_latency >= 0.0,
            "deployment graph: metadata latency is {}",
            self.metadata_latency
        );
    }

    /// Compiles the graph into `net` for a run with `nodes` client
    /// nodes, returning the provisioning contract the runner consumes:
    /// the class plan of one singleton class per node, whose resources
    /// are named and ordered as the module docs state, emitted as
    /// [`Provisioned::node_paths`].
    ///
    /// # Panics
    /// Panics if the graph fails [`Self::validate`].
    pub fn provision(&self, net: &mut FlowNet, nodes: u32, phase: &PhaseSpec) -> Provisioned {
        let singletons: Vec<[u32; 1]> = (0..nodes).map(|n| [n]).collect();
        self.compile(net, &singletons, phase, false)
    }

    /// [`Self::provision`] with equivalence-class aggregation. Below
    /// [`AGGREGATE_NODE_THRESHOLD`] nodes (i.e. at every paper/smoke
    /// scale), unless [`with_forced_aggregation`] says otherwise, this
    /// *is* `provision` — same resources, same names, same order,
    /// bit-identical plans. Above it nodes are partitioned into
    /// equivalence classes: all members of a class share one
    /// shard-assignment pattern and one fault-filter exposure, so each
    /// per-node stage compiles to a single aggregate resource with
    /// `instances = |class|` and the whole class runs as one weighted
    /// flow.
    ///
    /// Class splitting: a fault spec with a `name` filter selects
    /// per-node resources by name (`"{stage}{node}"`). Any such filter
    /// whose stage kind matches a per-node stage becomes a splitter,
    /// so a class is never a strict superset of a filter's matches —
    /// fault resolution stays all-or-nothing per aggregate. A splitter
    /// selects O(log nodes) decimal-prefix ranges ([`filter_ranges`]),
    /// so the plan is built from ranges and strides, never node by
    /// node. A split-off singleton keeps the *exact* expanded resource
    /// name (so per-resource jitter RNG streams are reproduced);
    /// multi-member aggregates are named `"{stage}[{len}x{first}]"`.
    pub fn provision_classed(
        &self,
        net: &mut FlowNet,
        nodes: u32,
        phase: &PhaseSpec,
        opts: &PlanOptions<'_>,
    ) -> Provisioned {
        let aggregate = FORCED_AGGREGATION
            .with(|c| c.get())
            .unwrap_or(nodes > AGGREGATE_NODE_THRESHOLD);
        if !aggregate {
            return self.provision(net, nodes, phase);
        }

        // Equivalence-class signature. Two nodes are interchangeable
        // when (a) they land on the same shard of every sharded stage —
        // guaranteed by sharing a residue modulo the lcm of all shard
        // counts — and (b) every fault-name splitter predicate answers
        // the same for both. An lcm past the node count gives every
        // node its own residue, so it is capped there.
        let cap = u64::from(nodes.max(1));
        let mut lcm: u64 = 1;
        for stage in &self.stages {
            if let StageScope::Sharded { count } = stage.scope {
                let c = u64::from(count.max(1));
                lcm = (lcm / gcd(lcm, c) * c).min(cap);
            }
        }
        let lcm = lcm as u32;

        // Splitters: the nodes each fault name filter selects on each
        // per-node stage of its kind, as ranges. Every range end cuts
        // 0..nodes, and between two cuts every splitter answers the
        // same for every node: a segment has one signature.
        let splitters: Vec<Vec<Range<u32>>> = opts
            .faults
            .iter()
            .filter_map(|f| f.name.as_deref().map(|n| (f.stage, n)))
            .flat_map(|(kind, name)| {
                self.stages
                    .iter()
                    .filter(move |s| s.scope == StageScope::PerNode && s.kind == kind)
                    .map(move |s| filter_ranges(name, &s.name, nodes))
            })
            .collect();
        let mut cuts: Vec<u32> = splitters
            .iter()
            .flatten()
            .flat_map(|r| [r.start, r.end])
            .chain([0, nodes])
            .collect();
        cuts.sort_unstable();
        cuts.dedup();

        // Classes in first-occurrence order: walking the segments in
        // node order, a segment's first `lcm` nodes meet every
        // (signature, residue) class it holds, in order, and each class
        // takes the segment's nodes of its residue by striding.
        let mut signatures: Vec<Vec<bool>> = Vec::new();
        let mut class_of: HashMap<(usize, u32), usize> = HashMap::new();
        let mut classes: Vec<Vec<u32>> = Vec::new();
        for seg in cuts.windows(2) {
            let (start, end) = (seg[0], seg[1]);
            let sig: Vec<bool> = splitters
                .iter()
                .map(|ranges| ranges.iter().any(|r| r.contains(&start)))
                .collect();
            let sig = match signatures.iter().position(|s| *s == sig) {
                Some(i) => i,
                None => {
                    signatures.push(sig);
                    signatures.len() - 1
                }
            };
            for first in start..end.min(start.saturating_add(lcm)) {
                let class = *class_of.entry((sig, first % lcm)).or_insert_with(|| {
                    classes.push(Vec::new());
                    classes.len() - 1
                });
                classes[class].extend((first..end).step_by(lcm as usize));
            }
        }
        let mut prov = self.compile(net, &classes, phase, true);
        let paths = std::mem::take(&mut prov.node_paths);
        prov.classes = classes
            .into_iter()
            .zip(paths)
            .map(|(members, path)| NodeClass { members, path })
            .collect();
        prov
    }

    /// The planner body: compiles the shared and sharded stages in
    /// declaration order, then, class by class, each per-node stage as
    /// one resource with `instances = |class|`; a singleton class's
    /// resource gets the expanded name `"{stage}{node}"`. Returns one
    /// path per class as `node_paths`, and with `aggregated` the
    /// per-node resources as `aggregates`.
    fn compile<M: AsRef<[u32]>>(
        &self,
        net: &mut FlowNet,
        classes: &[M],
        phase: &PhaseSpec,
        aggregated: bool,
    ) -> Provisioned {
        self.validate();

        // `shared_ids` records, per stage, the resource ids a shared or
        // sharded stage expanded to (per-node stages are compiled per
        // class below).
        let mut stage_kinds = Vec::new();
        let mut shared_ids: Vec<Option<Vec<hcs_simkit::ResourceId>>> =
            vec![None; self.stages.len()];
        for (si, stage) in self.stages.iter().enumerate() {
            match stage.scope {
                StageScope::Shared => {
                    let id = net.add_resource(ResourceSpec::new(
                        stage.name.clone(),
                        stage.capacity.for_phase(phase),
                    ));
                    stage_kinds.push((id, stage.kind));
                    shared_ids[si] = Some(vec![id]);
                }
                StageScope::Sharded { count } => {
                    let ids = (0..count.max(1))
                        .map(|i| {
                            let id = net.add_resource(ResourceSpec::new(
                                format!("{}{i}", stage.name),
                                stage.capacity.for_phase(phase),
                            ));
                            stage_kinds.push((id, stage.kind));
                            id
                        })
                        .collect();
                    shared_ids[si] = Some(ids);
                }
                StageScope::PerNode => {}
            }
        }

        // Stage visit order for paths: client side first (StageKind
        // order), declaration order within a kind.
        let mut order: Vec<usize> = (0..self.stages.len()).collect();
        order.sort_by_key(|&si| (self.stages[si].kind, si));

        let mut aggregates = Vec::new();
        let node_paths = classes
            .iter()
            .map(|members| {
                let members = members.as_ref();
                // This class's per-node resources, declaration order.
                let per_node: Vec<(usize, hcs_simkit::ResourceId)> = self
                    .stages
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.scope == StageScope::PerNode)
                    .map(|(si, s)| {
                        let name = if members.len() == 1 {
                            format!("{}{}", s.name, members[0])
                        } else {
                            format!("{}[{}x{}]", s.name, members.len(), members[0])
                        };
                        let id = net.add_resource(
                            ResourceSpec::new(name, s.capacity.for_phase(phase))
                                .with_instances(members.len() as u32),
                        );
                        stage_kinds.push((id, s.kind));
                        if aggregated {
                            aggregates.push(AggregateStage {
                                id,
                                stage_name: s.name.clone(),
                                members: members.to_vec(),
                            });
                        }
                        (si, id)
                    })
                    .collect();
                order
                    .iter()
                    .map(|&si| match self.stages[si].scope {
                        StageScope::Shared => shared_ids[si].as_ref().expect("compiled")[0],
                        StageScope::Sharded { .. } => {
                            let shards = shared_ids[si].as_ref().expect("compiled");
                            shards[members[0] as usize % shards.len()]
                        }
                        StageScope::PerNode => {
                            per_node
                                .iter()
                                .find(|(i, _)| *i == si)
                                .expect("per-node stage compiled for this class")
                                .1
                        }
                    })
                    .collect()
            })
            .collect();

        Provisioned {
            node_paths,
            per_stream_bw: self.per_stream_bw,
            per_op_latency: self.per_op_latency,
            metadata_latency: self.metadata_latency,
            stage_kinds,
            classes: vec![],
            aggregates,
        }
    }

    /// Sets every gateway stage's shard count to `count` — the §VII
    /// future-work experiment ("deploying a custom VAST configuration"):
    /// more parallel gateway nodes widen the funnel without touching the
    /// per-gateway uplink. A zero `count` fails [`Self::validate`] when
    /// the graph is provisioned.
    pub fn widen_gateway(&mut self, count: u32) {
        for stage in &mut self.stages {
            if stage.kind == StageKind::Gateway {
                stage.scope = StageScope::Sharded { count };
            }
        }
    }

    /// Swaps the client transport: every [`StageKind::ClientMount`]
    /// stage's capacity becomes the new transport's connection-pool
    /// bandwidth (clipped by `client_nic_bw`), and the per-stream
    /// ceiling and metadata latency follow the transport.
    ///
    /// Per-operation latency is left untouched — backends fold media
    /// and commit latencies into it that a transport alone cannot
    /// re-derive.
    pub fn swap_transport(&mut self, transport: &TransportSpec, client_nic_bw: f64) {
        let pool = transport.node_connection_bw(client_nic_bw);
        for stage in &mut self.stages {
            if stage.kind == StageKind::ClientMount {
                stage.capacity = Capacity::Bandwidth(pool);
            }
        }
        self.per_stream_bw = transport.per_stream_bw;
        self.metadata_latency = transport.metadata_latency;
    }

    /// Multiplies the capacity of every stage of `kind` by `factor`
    /// (ops-rate stages scale their operation rate).
    pub fn scale_pool(&mut self, kind: StageKind, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale_pool: factor must be positive and finite, got {factor}"
        );
        for stage in &mut self.stages {
            if stage.kind == kind {
                stage.capacity = stage.capacity.scaled(factor);
            }
        }
    }
}

/// A storage system with a graph edit applied on top: the base system
/// plans its deployment, the edit mutates the graph, the planner
/// compiles the result. This is how ablations reconfigure a deployment
/// without a per-backend special case.
#[derive(Clone)]
pub struct Reconfigured<S> {
    base: S,
    edit: Arc<dyn Fn(&mut DeploymentGraph) + Send + Sync>,
}

impl<S: StorageSystem> Reconfigured<S> {
    /// Wraps `base`, applying `edit` to every plan it produces.
    pub fn new(base: S, edit: impl Fn(&mut DeploymentGraph) + Send + Sync + 'static) -> Self {
        Reconfigured {
            base,
            edit: Arc::new(edit),
        }
    }
}

impl<S: StorageSystem> StorageSystem for Reconfigured<S> {
    fn name(&self) -> &str {
        self.base.name()
    }

    fn description(&self) -> String {
        format!("{} (reconfigured)", self.base.description())
    }

    fn plan(&self, nodes: u32, ppn: u32, phase: &PhaseSpec) -> DeploymentGraph {
        let mut graph = self.base.plan(nodes, ppn, phase);
        (self.edit)(&mut graph);
        graph
    }

    fn noise_sigma(&self) -> f64 {
        self.base.noise_sigma()
    }

    fn metadata_profile(&self) -> crate::system::MetadataProfile {
        self.base.metadata_profile()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcs_simkit::units::MIB;
    use hcs_simkit::SimRng;

    fn toy_graph() -> DeploymentGraph {
        DeploymentGraph::new(1e9, 0.0, 0.0)
            .stage(Stage::sharded("toy:gw", StageKind::Gateway, 2, 10e9))
            .stage(Stage::shared("toy:pool", StageKind::ServerPool, 20e9))
            .stage(Stage::ops_pool("toy:ops", 1e6))
            .stage(Stage::per_node("toy:mount", StageKind::ClientMount, 2e9))
    }

    fn phase() -> PhaseSpec {
        PhaseSpec::seq_write(MIB, 64.0 * MIB)
    }

    #[test]
    fn resource_order_is_shared_then_per_node() {
        let mut net = FlowNet::new();
        toy_graph().provision(&mut net, 3, &phase());
        let names: Vec<String> = net
            .resource_utilization()
            .into_iter()
            .map(|(name, _, _)| name)
            .collect();
        assert_eq!(
            names,
            vec![
                "toy:gw0",
                "toy:gw1",
                "toy:pool",
                "toy:ops",
                "toy:mount0",
                "toy:mount1",
                "toy:mount2"
            ]
        );
    }

    #[test]
    fn paths_visit_kinds_in_order_with_round_robin_shards() {
        let mut net = FlowNet::new();
        let prov = toy_graph().provision(&mut net, 3, &phase());
        // Path order: mount (ClientMount) < gw (Gateway) < ops (OpsPool)
        // < pool (ServerPool).
        for (node, path) in prov.node_paths.iter().enumerate() {
            let names: Vec<&str> = path.iter().map(|&id| net.resource_name(id)).collect();
            assert_eq!(names[0], format!("toy:mount{node}"));
            assert_eq!(names[1], format!("toy:gw{}", node % 2));
            assert_eq!(names[2], "toy:ops");
            assert_eq!(names[3], "toy:pool");
        }
    }

    #[test]
    fn ops_pool_converts_to_byte_units() {
        let mut net = FlowNet::new();
        let p = phase();
        let prov = toy_graph().provision(&mut net, 1, &p);
        let ops_id = prov.node_paths[0][2];
        let expected = 1e6 / p.ops_per_byte();
        assert_eq!(net.resource_capacity(ops_id), expected);
    }

    #[test]
    fn stage_kinds_cover_every_resource() {
        let mut net = FlowNet::new();
        let prov = toy_graph().provision(&mut net, 4, &phase());
        assert_eq!(prov.stage_kinds.len(), net.resource_count());
    }

    #[test]
    #[should_panic(expected = "capacity 0")]
    fn zero_capacity_stage_rejected() {
        let g = DeploymentGraph::new(1e9, 0.0, 0.0).stage(Stage::shared(
            "bad:pool",
            StageKind::ServerPool,
            0.0,
        ));
        g.provision(&mut FlowNet::new(), 1, &phase());
    }

    #[test]
    #[should_panic(expected = "per-stream bandwidth is 0")]
    fn zero_stream_bw_rejected() {
        let g = DeploymentGraph::new(0.0, 0.0, 0.0).stage(Stage::shared(
            "toy:pool",
            StageKind::ServerPool,
            1e9,
        ));
        g.provision(&mut FlowNet::new(), 1, &phase());
    }

    #[test]
    fn widen_gateway_adds_shards() {
        let mut g = toy_graph();
        g.widen_gateway(8);
        let mut net = FlowNet::new();
        let prov = g.provision(&mut net, 16, &phase());
        let gw_count = prov
            .stage_kinds
            .iter()
            .filter(|(_, k)| *k == StageKind::Gateway)
            .count();
        assert_eq!(gw_count, 8);
    }

    #[test]
    fn scale_pool_multiplies_capacity() {
        let mut g = toy_graph();
        g.scale_pool(StageKind::ServerPool, 2.0);
        assert_eq!(g.capacity_of(StageKind::ServerPool), Some(40e9));
        // Ops pools scale their rate.
        g.scale_pool(StageKind::OpsPool, 0.5);
        assert_eq!(g.capacity_of(StageKind::OpsPool), Some(0.5e6));
    }

    #[test]
    fn swap_transport_rewrites_the_client_side() {
        let mut g = toy_graph();
        let t = TransportSpec::nfs_rdma(16, 2);
        g.swap_transport(&t, 12.5e9);
        assert_eq!(g.capacity_of(StageKind::ClientMount), Some(12.5e9));
        assert_eq!(g.per_stream_bw, t.per_stream_bw);
        assert_eq!(g.metadata_latency, t.metadata_latency);
    }

    #[test]
    fn serde_round_trip() {
        let g = toy_graph();
        let back: DeploymentGraph =
            serde_json::from_str(&serde_json::to_string(&g).unwrap()).unwrap();
        assert_eq!(back, g);
    }

    /// The class partition computed node by node, one name and one
    /// signature per node with a search of the class list — the
    /// planner's original loop, kept verbatim as the reference the
    /// range partition must reproduce.
    fn per_node_partition(
        graph: &DeploymentGraph,
        nodes: u32,
        opts: &PlanOptions<'_>,
    ) -> Vec<Vec<u32>> {
        let mut lcm: u64 = 1;
        for stage in &graph.stages {
            if let StageScope::Sharded { count } = stage.scope {
                let c = count.max(1) as u64;
                lcm = lcm / gcd(lcm, c) * c;
            }
        }
        let lcm = (lcm.min(nodes.max(1) as u64)) as u32;

        // Splitters: (per-node stage index, fault name filter) pairs
        // whose filter can select per-node resources of that stage.
        let splitters: Vec<(usize, &str)> = opts
            .faults
            .iter()
            .filter_map(|f| f.name.as_deref().map(|n| (f.stage, n)))
            .flat_map(|(kind, name)| {
                graph
                    .stages
                    .iter()
                    .enumerate()
                    .filter(move |(_, s)| s.scope == StageScope::PerNode && s.kind == kind)
                    .map(move |(si, _)| (si, name))
            })
            .collect();

        // Partition nodes by signature, first-occurrence order.
        let mut classes: Vec<(Vec<bool>, u32, Vec<u32>)> = Vec::new();
        for node in 0..nodes {
            let residue = node % lcm;
            let sig: Vec<bool> = splitters
                .iter()
                .map(|&(si, name)| {
                    resource_of_stage(name, &format!("{}{node}", graph.stages[si].name))
                })
                .collect();
            match classes
                .iter_mut()
                .find(|(s, r, _)| *s == sig && *r == residue)
            {
                Some((_, _, members)) => members.push(node),
                None => classes.push((sig, residue, vec![node])),
            }
        }
        classes.into_iter().map(|(_, _, m)| m).collect()
    }

    /// A name filter of one of the edge-case shapes on `stage`.
    fn edge_case_filter(rng: &mut SimRng, stage: &str, nodes: u32) -> String {
        match rng.below(8) {
            0 => stage.to_string(),
            1 => format!("{stage}0"),
            2 => format!("{stage}05"),
            3 => format!("{stage}12"),
            4 => format!("{stage}1x"),
            5 => format!("{stage}x"),
            6 => stage[..rng.below(stage.len() as u64) as usize].to_string(),
            _ => format!("{stage}{}", rng.below(u64::from(nodes) + 10)),
        }
    }

    #[test]
    fn range_partition_matches_the_per_node_reference() {
        let mut rng = SimRng::new(19);
        let (mut split_cases, mut wide_lcm_cases) = (0, 0);
        for case in 0..500 {
            // Per-node stages whose names end in a letter and in
            // digits, a sharded stage setting the lcm (1-12), and half
            // the time a second one whose count divides it.
            let lcm = 1 + rng.below(12) as u32;
            let mount = ["t:mount", "t:mnt1"][rng.below(2) as usize];
            let mut g = DeploymentGraph::new(1e9, 0.0, 0.0)
                .stage(Stage::per_node(mount, StageKind::ClientMount, 1e9))
                .stage(Stage::sharded("t:gw", StageKind::Gateway, lcm, 1e10))
                .stage(Stage::shared("t:pool", StageKind::ServerPool, 1e10));
            if rng.below(2) == 0 {
                let divisors: Vec<u32> = (1..=lcm).filter(|d| lcm % d == 0).collect();
                let count = divisors[rng.below(divisors.len() as u64) as usize];
                g = g.stage(Stage::sharded("t:fab", StageKind::Fabric, count, 1e10));
            }
            if rng.below(2) == 0 {
                g = g.stage(Stage::per_node("t:nvme12", StageKind::Media, 1e9));
            }
            let nodes = match rng.below(3) {
                0 => 1 + rng.below(u64::from(lcm)) as u32,
                1 => 1 + rng.below(200) as u32,
                _ => 1 + rng.below(3_000) as u32,
            };
            let faults: Vec<FaultSpec> = (0..rng.below(4))
                .map(|_| {
                    let (kind, stage) = match rng.below(4) {
                        0 | 1 => (StageKind::ClientMount, mount),
                        2 => (StageKind::Media, "t:nvme12"),
                        _ => (StageKind::ClientMount, "t:nvme1"),
                    };
                    let name = edge_case_filter(&mut rng, stage, nodes);
                    FaultSpec::outage(kind, 0.1, 0.2).named(name)
                })
                .collect();
            let opts = PlanOptions::auto(&faults);
            let want = per_node_partition(&g, nodes, &opts);
            let mut net = FlowNet::new();
            let prov = with_forced_aggregation(true, || {
                g.provision_classed(&mut net, nodes, &phase(), &opts)
            });
            let got: Vec<Vec<u32>> = prov.classes.iter().map(|c| c.members.clone()).collect();
            let filters: Vec<_> = faults.iter().map(|f| f.name.as_deref()).collect();
            assert_eq!(
                got, want,
                "case {case}: {nodes} nodes, lcm {lcm}, {filters:?}"
            );
            let mut want_net = FlowNet::new();
            let want_prov = g.compile(&mut want_net, &want, &phase(), true);
            let names = |net: &FlowNet, prov: &Provisioned| -> Vec<String> {
                let ids = prov.aggregates.iter().map(|a| a.id);
                ids.map(|id| net.resource_name(id).to_string()).collect()
            };
            assert_eq!(
                names(&net, &prov),
                names(&want_net, &want_prov),
                "case {case}"
            );
            split_cases += usize::from(want.len() > lcm.min(nodes) as usize);
            wide_lcm_cases += usize::from(lcm > nodes);
        }
        assert!(split_cases >= 60, "only {split_cases} cases split a class");
        assert!(
            wide_lcm_cases >= 100,
            "only {wide_lcm_cases} cases had lcm > nodes"
        );
    }

    #[test]
    fn filter_ranges_follow_the_decimal_prefix_rule() {
        /// Stage, filter, node count, selected ranges as (start, end).
        type Row = (&'static str, &'static str, u32, &'static [(u32, u32)]);
        let table: [Row; 20] = [
            ("vast:mount", "vast:mount", 100, &[(0, 100)]),
            ("vast:mount", "vast:mo", 100, &[]),
            ("vast:mount", "", 100, &[]),
            ("vast:mount", "vast:mountx", 100, &[]),
            ("vast:mount", "vast:mount1x", 100, &[]),
            ("vast:mount", "other", 100, &[]),
            ("vast:mount", "vast:mount0", 100, &[(0, 1)]),
            ("vast:mount", "vast:mount05", 100, &[]),
            ("vast:mount", "vast:mount12", 12, &[]),
            ("vast:mount", "vast:mount12", 13, &[(12, 13)]),
            ("vast:mount", "vast:mount12", 125, &[(12, 13), (120, 125)]),
            (
                "vast:mount",
                "vast:mount12",
                100_000,
                &[(12, 13), (120, 130), (1200, 1300), (12000, 13000)],
            ),
            ("vast:mount", "vast:mount99999999999999999999", 100, &[]),
            ("gw1", "gw", 30, &[(0, 30)]),
            ("gw1", "gw1", 30, &[(0, 30)]),
            ("gw1", "gw10", 30, &[(0, 1)]),
            ("gw1", "gw12", 300, &[(2, 3), (20, 30), (200, 300)]),
            ("12", "", 30, &[(0, 30)]),
            ("m", "m4294967294", u32::MAX, &[(4294967294, u32::MAX)]),
            (
                "m",
                "m4",
                u32::MAX,
                &[
                    (4, 5),
                    (40, 50),
                    (400, 500),
                    (4_000, 5_000),
                    (40_000, 50_000),
                    (400_000, 500_000),
                    (4_000_000, 5_000_000),
                    (40_000_000, 50_000_000),
                    (400_000_000, 500_000_000),
                    (4_000_000_000, u32::MAX),
                ],
            ),
        ];
        for (stage, filter, nodes, want) in table {
            let got = filter_ranges(filter, stage, nodes);
            let ends: Vec<(u32, u32)> = got.iter().map(|r| (r.start, r.end)).collect();
            assert_eq!(ends, want, "{filter:?} on {stage:?} x {nodes}");
            if nodes <= 100_000 {
                let brute: Vec<u32> = (0..nodes)
                    .filter(|n| resource_of_stage(filter, &format!("{stage}{n}")))
                    .collect();
                let ranged: Vec<u32> = got.into_iter().flatten().collect();
                assert_eq!(ranged, brute, "{filter:?} on {stage:?} x {nodes}");
            }
        }
    }
}
