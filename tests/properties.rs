//! Property-based tests (proptest) on the suite's core invariants.

use proptest::prelude::*;

use hcs_core::runner::run_phase;
use hcs_core::testing::UniformSystem;
use hcs_core::{DeploymentGraph, PhaseSpec, Stage, StageKind, StageScope};
use hcs_simkit::{FlowNet, FlowSpec, IntervalSet, ResourceSpec};

// ---------------------------------------------------------------------
// Flow engine invariants
// ---------------------------------------------------------------------

/// One generated flow: path indices, bytes, multiplicity, cap.
type GenFlow = (Vec<usize>, f64, u32, Option<f64>);

/// Arbitrary small topology: resource capacities plus flows with random
/// paths, sizes, caps and multiplicities.
fn flow_world() -> impl Strategy<Value = (Vec<f64>, Vec<GenFlow>)> {
    let caps = prop::collection::vec(1.0e6..1.0e9f64, 1..6);
    caps.prop_flat_map(|caps| {
        let n = caps.len();
        let flow = (
            prop::collection::vec(0..n, 1..=n.min(4)),
            1.0e3..1.0e8f64,                   // bytes
            1u32..5,                           // multiplicity
            prop::option::of(1.0e5..1.0e9f64), // rate cap
        );
        (Just(caps), prop::collection::vec(flow, 1..12))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No resource is ever allocated beyond its capacity, and every
    /// flow's rate respects its cap.
    #[test]
    fn max_min_allocation_is_feasible((caps, flows) in flow_world()) {
        let mut net = FlowNet::new();
        let ids: Vec<_> = caps
            .iter()
            .enumerate()
            .map(|(i, &c)| net.add_resource(ResourceSpec::new(format!("r{i}"), c)))
            .collect();
        let mut flow_ids = Vec::new();
        for (path, bytes, mult, cap) in &flows {
            let mut dedup: Vec<_> = path.iter().map(|&i| ids[i]).collect();
            dedup.dedup();
            let mut spec = FlowSpec::new(dedup, *bytes).with_multiplicity(*mult);
            if let Some(c) = cap {
                spec = spec.with_rate_cap(*c);
            }
            flow_ids.push((net.add_flow(spec), *cap));
        }
        for (name, alloc, capacity) in net.resource_utilization() {
            prop_assert!(
                alloc <= capacity * (1.0 + 1e-6),
                "{name} over-allocated: {alloc} > {capacity}"
            );
        }
        for (id, cap) in flow_ids {
            if let (Some(rate), Some(cap)) = (net.flow_rate(id), cap) {
                prop_assert!(rate <= cap * (1.0 + 1e-9), "rate {rate} above cap {cap}");
            }
        }
    }

    /// Work conservation on a single resource: if any flow wants more,
    /// the resource is fully used (no capacity is wasted).
    #[test]
    fn single_resource_is_work_conserving(
        cap in 1.0e6..1.0e9f64,
        sizes in prop::collection::vec(1.0e6..1.0e9f64, 1..10),
    ) {
        let mut net = FlowNet::new();
        let r = net.add_resource(ResourceSpec::new("r", cap));
        for s in &sizes {
            net.add_flow(FlowSpec::new(vec![r], *s));
        }
        let agg = net.aggregate_rate();
        prop_assert!((agg - cap).abs() < cap * 1e-9, "agg {agg} != cap {cap}");
    }

    /// Completion order on a fair single resource follows size order,
    /// and the makespan equals total bytes over capacity.
    #[test]
    fn single_resource_completion_order(
        cap in 1.0e6..1.0e8f64,
        mut sizes in prop::collection::vec(1.0e5..1.0e8f64, 2..8),
    ) {
        let mut net = FlowNet::new();
        let r = net.add_resource(ResourceSpec::new("r", cap));
        let total: f64 = sizes.iter().sum();
        for (i, s) in sizes.iter().enumerate() {
            net.add_flow(FlowSpec::new(vec![r], *s).with_tag(i as u64));
        }
        let mut order = Vec::new();
        let end = net.run_to_completion(|_, c| order.push(c.tag as usize));
        // Makespan: the resource never idles.
        prop_assert!((end - total / cap).abs() < end * 1e-6);
        // Completions sorted by size (ties can go either way).
        for w in order.windows(2) {
            prop_assert!(
                sizes[w[0]] <= sizes[w[1]] * (1.0 + 1e-9),
                "completion out of size order"
            );
        }
        sizes.sort_by(|a, b| a.partial_cmp(b).unwrap());
    }
}

// ---------------------------------------------------------------------
// Interval algebra laws
// ---------------------------------------------------------------------

fn intervals() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0.0..100.0f64, 0.0..10.0f64), 0..12)
        .prop_map(|v| v.into_iter().map(|(s, d)| (s, s + d)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// |A| = |A ∩ B| + |A \ B| — the decomposition the paper's overlap
    /// analysis rests on.
    #[test]
    fn interval_partition_law(a in intervals(), b in intervals()) {
        let sa = IntervalSet::from_intervals(a);
        let sb = IntervalSet::from_intervals(b);
        let lhs = sa.total();
        let rhs = sa.intersect(&sb).total() + sa.subtract(&sb).total();
        prop_assert!((lhs - rhs).abs() < 1e-9 * lhs.max(1.0), "{lhs} vs {rhs}");
    }

    /// Inclusion–exclusion: |A ∪ B| = |A| + |B| − |A ∩ B|.
    #[test]
    fn interval_inclusion_exclusion(a in intervals(), b in intervals()) {
        let sa = IntervalSet::from_intervals(a);
        let sb = IntervalSet::from_intervals(b);
        let lhs = sa.union(&sb).total();
        let rhs = sa.total() + sb.total() - sa.intersect(&sb).total();
        prop_assert!((lhs - rhs).abs() < 1e-9 * lhs.max(1.0));
    }

    /// Inserting one by one equals building at once.
    #[test]
    fn insert_equals_batch(a in intervals()) {
        let batch = IntervalSet::from_intervals(a.clone());
        let mut inc = IntervalSet::new();
        for (s, e) in a {
            inc.insert(s, e);
        }
        prop_assert_eq!(batch, inc);
    }
}

// ---------------------------------------------------------------------
// Deployment-graph planner invariants
// ---------------------------------------------------------------------

/// An arbitrary deployment graph: 1–6 stages of random kind, scope and
/// capacity, with a positive per-stream ceiling.
fn deployment_graph() -> impl Strategy<Value = DeploymentGraph> {
    let kind = prop_oneof![
        Just(StageKind::ClientMount),
        Just(StageKind::Gateway),
        Just(StageKind::OpsPool),
        Just(StageKind::ServerPool),
        Just(StageKind::Fabric),
        Just(StageKind::Media),
    ];
    let scope = prop_oneof![
        Just(StageScope::Shared),
        (1u32..5).prop_map(|count| StageScope::Sharded { count }),
        Just(StageScope::PerNode),
    ];
    let stage = (kind, scope, 1.0e8..1.0e11f64);
    (
        prop::collection::vec(stage, 1..=6),
        1.0e8..1.0e10f64, // per_stream_bw
        0.0..1.0e-3f64,   // per_op_latency
    )
        .prop_map(|(stages, stream, lat)| {
            let mut g = DeploymentGraph::new(stream, lat, 0.0);
            for (i, (kind, scope, bw)) in stages.into_iter().enumerate() {
                g.stages.push(Stage {
                    name: format!("s{i}:"),
                    kind,
                    scope,
                    capacity: hcs_core::Capacity::Bandwidth(bw),
                });
            }
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The planner conserves capacity at every stage: no resource is
    /// allocated past what the graph declares, every resource carries a
    /// stage kind, and every node path visits its stages client→media.
    #[test]
    fn planner_conserves_stage_capacity(
        graph in deployment_graph(),
        nodes in 1u32..6,
        ppn in 1u32..8,
    ) {
        let phase = PhaseSpec::seq_read(1.0e6, 6.4e7);
        let out = run_phase(&GraphSystem(graph.clone()), nodes, ppn, &phase);

        // Resource count is exactly what the scopes promise.
        let expected: usize = graph.stages.iter().map(|s| match s.scope {
            StageScope::Shared => 1,
            StageScope::Sharded { count } => count as usize,
            StageScope::PerNode => nodes as usize,
        }).sum();
        prop_assert_eq!(out.utilization.len(), expected);

        // Conservation: allocation never exceeds the declared capacity.
        for (name, alloc, cap) in &out.utilization {
            prop_assert!(
                *alloc <= cap * (1.0 + 1e-6),
                "{} over-allocated: {} > {}", name, alloc, cap
            );
        }

        // Paths visit stage kinds in client→media order.
        let mut net = FlowNet::new();
        let prov = graph.provision(&mut net, nodes, &phase);
        prop_assert_eq!(prov.stage_kinds.len(), expected);
        for path in &prov.node_paths {
            let kinds: Vec<StageKind> = path
                .iter()
                .map(|id| {
                    prov.stage_kinds
                        .iter()
                        .find(|(rid, _)| rid == id)
                        .expect("path resource has a stage kind")
                        .1
                })
                .collect();
            for w in kinds.windows(2) {
                prop_assert!(w[0] <= w[1], "path out of stage order: {:?}", kinds);
            }
        }
    }
}

/// Minimal `StorageSystem` around a fixed graph, for planner tests.
struct GraphSystem(DeploymentGraph);

impl hcs_core::StorageSystem for GraphSystem {
    fn name(&self) -> &str {
        "graph-under-test"
    }

    fn plan(&self, _nodes: u32, _ppn: u32, _phase: &PhaseSpec) -> DeploymentGraph {
        self.0.clone()
    }
}

// ---------------------------------------------------------------------
// Runner accounting identities
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// IOR accounting: bandwidth × slowest-rank duration = total bytes,
    /// and scaling nodes never lowers aggregate bandwidth on an
    /// uncontended pool.
    #[test]
    fn runner_accounting_identity(
        pool in 1.0e9..1.0e11f64,
        nodes in 1u32..12,
        ppn in 1u32..16,
        per_rank in 1.0e7..1.0e9f64,
    ) {
        let sys = UniformSystem::new("p", pool);
        let phase = PhaseSpec::seq_read(1.0e6, per_rank);
        let out = run_phase(&sys, nodes, ppn, &phase);
        let identity = out.agg_bandwidth * out.duration;
        prop_assert!((identity - out.total_bytes).abs() < out.total_bytes * 1e-9);
        prop_assert!(out.agg_bandwidth <= pool * (1.0 + 1e-9));

        if nodes > 1 {
            let smaller = run_phase(&sys, nodes - 1, ppn, &phase);
            prop_assert!(out.agg_bandwidth >= smaller.agg_bandwidth * (1.0 - 1e-9));
        }
    }
}
