//! Differential tests for the equivalence-class planner and the
//! incremental max-min solver.
//!
//! The planner contract: below [`AGGREGATE_NODE_THRESHOLD`] nodes
//! nothing changes (the golden parity fixtures pin that bit-for-bit);
//! when aggregation kicks in, a run over N interchangeable nodes
//! compiles to one flow group per *class* over aggregate resources —
//! and for the symmetric shapes the runner produces (uniform per-stage
//! capacities, balanced classes), the outcome is
//! IEEE-754 bit-identical to the expanded plan. The proptest suites
//! below drive random graphs × node counts × capacities through both
//! plans and assert exact bit equality; the incremental-solver suite
//! churns a raw [`FlowNet`] and checks every allocation against the
//! from-scratch progressive-filling oracle.

use proptest::prelude::*;

use hcs_core::graph::{with_forced_aggregation, PlanOptions, AGGREGATE_NODE_THRESHOLD};
use hcs_core::runner::{run_phase, run_phase_chaos, run_phase_traced};
use hcs_core::scenario::FaultSpec;
use hcs_core::telemetry::Recorder;
use hcs_core::testing::UniformSystem;
use hcs_core::{DeploymentGraph, PhaseSpec, Stage, StageKind};
use hcs_simkit::units::{GIB, MIB};
use hcs_simkit::{FlowNet, FlowSpec, ResourceSpec};

/// A test system that plans a fixed graph: per-node mount, sharded
/// gateway, shared pool — the smallest shape exercising every stage
/// scope the class partitioner handles.
struct ShardedSystem {
    graph: DeploymentGraph,
}

impl ShardedSystem {
    fn new(shards: u32, mount_bw: f64, gw_bw: f64, pool_bw: f64, stream_bw: f64) -> Self {
        let graph = DeploymentGraph::new(stream_bw, 0.0, 0.0)
            .stage(Stage::per_node("t:mount", StageKind::ClientMount, mount_bw))
            .stage(Stage::sharded("t:gw", StageKind::Gateway, shards, gw_bw))
            .stage(Stage::shared("t:pool", StageKind::ServerPool, pool_bw));
        ShardedSystem { graph }
    }
}

impl hcs_core::StorageSystem for ShardedSystem {
    fn name(&self) -> &str {
        "t"
    }
    fn plan(&self, _nodes: u32, _ppn: u32, _phase: &PhaseSpec) -> DeploymentGraph {
        self.graph.clone()
    }
}

#[test]
fn partition_is_deterministic_and_splits_on_named_faults() {
    let sys = ShardedSystem::new(2, GIB, 4.0 * GIB, 16.0 * GIB, f64::INFINITY);
    let phase = PhaseSpec::seq_write(MIB, 16.0 * MIB);
    let faults = [FaultSpec::outage(StageKind::ClientMount, 0.1, 0.2).named("t:mount3")];
    let plan = |net: &mut FlowNet| {
        with_forced_aggregation(true, || {
            sys.graph
                .provision_classed(net, 8, &phase, &PlanOptions::auto(&faults))
        })
    };
    let mut net = FlowNet::new();
    let prov = plan(&mut net);
    // lcm(shards)=2, plus the name filter splits node 3 out of the
    // residue-1 class. First-occurrence order over nodes 0..8:
    let members: Vec<Vec<u32>> = prov.classes.iter().map(|c| c.members.clone()).collect();
    assert_eq!(members, vec![vec![0, 2, 4, 6], vec![1, 5, 7], vec![3]]);
    assert_eq!(prov.client_nodes(), 8);
    assert!(prov.node_paths.is_empty());
    // Aggregate naming: multi-member classes are labeled, the split-off
    // singleton keeps its exact expanded name (jitter RNG streams split
    // by resource name).
    let names: Vec<&str> = prov
        .aggregates
        .iter()
        .map(|a| net.resource_name(a.id))
        .collect();
    assert_eq!(names, vec!["t:mount[4x0]", "t:mount[3x1]", "t:mount3"]);
    // Deterministic: a second provisioning yields the same partition.
    let prov2 = plan(&mut FlowNet::new());
    let members2: Vec<Vec<u32>> = prov2.classes.iter().map(|c| c.members.clone()).collect();
    assert_eq!(members, members2);
}

#[test]
fn auto_mode_only_aggregates_past_the_threshold() {
    let sys = ShardedSystem::new(2, GIB, 4.0 * GIB, 16.0 * GIB, f64::INFINITY);
    let phase = PhaseSpec::seq_write(MIB, 16.0 * MIB);
    let mut net = FlowNet::new();
    let small = sys
        .graph
        .provision_classed(&mut net, 8, &phase, &PlanOptions::auto(&[]));
    assert!(small.classes.is_empty(), "paper scale stays expanded");
    assert_eq!(small.node_paths.len(), 8);
    let mut net = FlowNet::new();
    let big = sys.graph.provision_classed(
        &mut net,
        AGGREGATE_NODE_THRESHOLD + 1,
        &phase,
        &PlanOptions::auto(&[]),
    );
    assert!(!big.classes.is_empty(), "datacenter scale aggregates");
    assert_eq!(big.client_nodes(), AGGREGATE_NODE_THRESHOLD as usize + 1);
}

/// Runs the phase under both plans and returns (expanded, aggregated).
fn both_modes<T>(f: impl Fn() -> T) -> (T, T) {
    let expanded = with_forced_aggregation(false, &f);
    let aggregated = with_forced_aggregation(true, &f);
    (expanded, aggregated)
}

#[test]
fn counters_survive_aggregation_unchanged() {
    let sys = UniformSystem::new("toy", 10.0 * GIB).with_node_bw(GIB);
    let phase = PhaseSpec::seq_write(MIB, 64.0 * MIB);
    let (exp, agg) = both_modes(|| {
        let mut rec = Recorder::new();
        let out = run_phase_traced(&sys, 6, 4, &phase, &mut rec);
        (out, rec.solver_epochs(), rec.flow_groups())
    });
    // Per-member-equivalent counters: PointMetrics and BENCH_deck.json
    // stay comparable across the refactor.
    assert_eq!(exp.1, agg.1, "solver epochs");
    assert_eq!(exp.2, agg.2, "flow groups (per-member-equivalent)");
    assert_eq!(exp.2, 6, "one group per node either way");
    assert_eq!(exp.0.duration.to_bits(), agg.0.duration.to_bits());
    assert_eq!(exp.0.agg_bandwidth.to_bits(), agg.0.agg_bandwidth.to_bits());
    for (a, b) in exp.0.per_node_duration.iter().zip(&agg.0.per_node_duration) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn fault_accounting_survives_aggregation_unchanged() {
    let sys = UniformSystem::new("toy", 100.0 * GIB).with_node_bw(GIB);
    let phase = PhaseSpec::seq_write(MIB, 64.0 * MIB);
    let faults = [FaultSpec::outage(StageKind::ClientMount, 0.01, 0.03)];
    let (exp, agg) = both_modes(|| {
        run_phase_chaos(&sys, 6, 2, &phase, &faults)
            .map(|r| (r.outcome, r.report))
            .unwrap()
    });
    assert_eq!(exp.0.duration.to_bits(), agg.0.duration.to_bits());
    assert_eq!(
        exp.1.stall_seconds.to_bits(),
        agg.1.stall_seconds.to_bits(),
        "stall seconds survive aggregation"
    );
    // 6 mounts x (outage + recovery): the aggregate counts each of its
    // member instances per capacity event.
    assert_eq!(exp.1.events_applied, 12);
    assert_eq!(agg.1.events_applied, 12);
}

#[test]
fn named_mount_fault_splits_class_and_matches_expanded() {
    let sys = UniformSystem::new("toy", 100.0 * GIB).with_node_bw(GIB);
    let phase = PhaseSpec::seq_write(MIB, 64.0 * MIB);
    let faults = [FaultSpec::outage(StageKind::ClientMount, 0.01, 0.03).named("toy:mount5")];
    let (exp, agg) = both_modes(|| {
        run_phase_chaos(&sys, 6, 2, &phase, &faults)
            .map(|r| (r.outcome, r.report))
            .unwrap()
    });
    assert_eq!(exp.0.duration.to_bits(), agg.0.duration.to_bits());
    for (a, b) in exp.0.per_node_duration.iter().zip(&agg.0.per_node_duration) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert_eq!(exp.1.stall_seconds.to_bits(), agg.1.stall_seconds.to_bits());
    // Exactly one mount is hit in both plans.
    assert_eq!(exp.1.events_applied, 2);
    assert_eq!(agg.1.events_applied, 2);
}

#[test]
fn million_clients_plan_and_run() {
    let sys = UniformSystem::new("dc", 100.0 * GIB).with_node_bw(GIB);
    let phase = PhaseSpec::seq_write(MIB, 16.0 * MIB);
    let out = run_phase(&sys, 1_000_000, 1, &phase);
    assert_eq!(out.per_node_duration.len(), 1_000_000);
    assert!(
        (out.agg_bandwidth - 100.0 * GIB).abs() < 0.1 * GIB,
        "pool saturates: {}",
        out.agg_bandwidth / GIB
    );
}

proptest! {
    /// Aggregated vs expanded, fault-free: random balanced shapes
    /// (nodes a multiple of the shard count, uniform per-stage
    /// capacities — exactly the symmetry the runner's flows
    /// guarantee), bit-identical completion.
    #[test]
    fn aggregated_matches_expanded_bitwise(
        shards in 1u32..=4,
        k in 1u32..=5,
        ppn in 1u32..=4,
        mount_bw in 1.0e8..1.0e10f64,
        gw_bw in 1.0e8..1.0e10f64,
        pool_bw in 1.0e8..1.0e10f64,
        stream_bw in prop::option::of(1.0e7..1.0e9f64),
        bytes_mib in 1u32..=64,
    ) {
        let nodes = shards * k;
        let sys = ShardedSystem::new(
            shards, mount_bw, gw_bw, pool_bw,
            stream_bw.unwrap_or(f64::INFINITY),
        );
        let phase = PhaseSpec::seq_write(MIB, bytes_mib as f64 * MIB);
        let (exp, agg) = both_modes(|| run_phase(&sys, nodes, ppn, &phase));
        prop_assert_eq!(exp.duration.to_bits(), agg.duration.to_bits());
        prop_assert_eq!(exp.agg_bandwidth.to_bits(), agg.agg_bandwidth.to_bits());
        for (a, b) in exp.per_node_duration.iter().zip(&agg.per_node_duration) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Aggregated vs expanded under a named per-node fault: the class
    /// split keeps resolution all-or-nothing and the outcome
    /// bit-identical. Unsharded graphs only — the split-off singleton
    /// freezes alone (exact arithmetic), while shard-load asymmetry
    /// during the window would introduce benign last-ulp divergence.
    #[test]
    fn faulted_split_matches_expanded_bitwise(
        k in 2u32..=8,
        ppn in 1u32..=4,
        mount_bw in 1.0e8..1.0e10f64,
        pool_bw in 1.0e8..1.0e10f64,
        bytes_mib in 8u32..=64,
        outage in any::<bool>(),
        factor in 0.1..0.9f64,
    ) {
        let sys = ShardedSystem::new(1, mount_bw, 1.0e11, pool_bw, f64::INFINITY);
        let phase = PhaseSpec::seq_write(MIB, bytes_mib as f64 * MIB);
        // `k-1` is unambiguous under the digit-suffix name filter for
        // any k <= 10 (no node index extends it).
        let name = format!("t:mount{}", k - 1);
        let spec = if outage {
            FaultSpec::outage(StageKind::ClientMount, 0.001, 0.002)
        } else {
            FaultSpec::degrade(StageKind::ClientMount, 0.001, 0.002, factor)
        };
        let faults = [spec.named(name)];
        let (exp, agg) =
            both_modes(|| run_phase_chaos(&sys, k, ppn, &phase, &faults).map(|r| (r.outcome, r.report)).unwrap());
        prop_assert_eq!(exp.0.duration.to_bits(), agg.0.duration.to_bits());
        prop_assert_eq!(
            exp.1.stall_seconds.to_bits(),
            agg.1.stall_seconds.to_bits()
        );
        prop_assert_eq!(exp.1.events_applied, agg.1.events_applied);
        for (a, b) in exp.0.per_node_duration.iter().zip(&agg.0.per_node_duration) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Incremental vs scratch: arbitrary graphs and multiplicities (no
    /// symmetry needed — both solvers share the inner arithmetic), the
    /// incremental solver's allocations match the full progressive-filling
    /// re-solve after every mutation. Path-less flows (each its own
    /// component), capped and uncapped, and flows leaving the key-ordered
    /// table by completion as well as cancellation are in the mix.
    #[test]
    fn incremental_solver_matches_scratch(
        caps in prop::collection::vec(1.0e6..1.0e9f64, 1..5),
        flows in prop::collection::vec(
            (
                prop::collection::vec(0usize..4, 0..4),
                1.0e3..1.0e8f64,
                1u32..5,
                prop::option::of(1.0e5..1.0e9f64),
            ),
            1..10,
        ),
        kills in prop::collection::vec(any::<bool>(), 10),
        recap in prop::option::of((0usize..4, 0.5..2.0f64)),
    ) {
        let mut net = FlowNet::new();
        let ids: Vec<_> = caps
            .iter()
            .enumerate()
            .map(|(i, c)| net.add_resource(ResourceSpec::new(format!("r{i}"), *c)))
            .collect();
        let check = |net: &mut FlowNet, keys: &[hcs_simkit::FlowId]| {
            let oracle = net.scratch_rates();
            for key in keys {
                if let Some(rate) = net.flow_rate(*key) {
                    let want = oracle
                        .iter()
                        .find(|(k, _)| k == key)
                        .map(|(_, r)| *r)
                        .expect("live flow in oracle");
                    prop_assert_eq!(rate.to_bits(), want.to_bits());
                }
            }
            Ok(())
        };
        let mut keys = Vec::new();
        for (path, bytes, mult, rate_cap) in &flows {
            let path: Vec<_> = path.iter().map(|&i| ids[i % ids.len()]).collect();
            let mut spec = FlowSpec::new(path, *bytes).with_multiplicity(*mult);
            if let Some(cap) = rate_cap {
                spec = spec.with_rate_cap(*cap);
            }
            keys.push(net.add_flow(spec));
            check(&mut net, &keys)?;
        }
        if let Some((ri, factor)) = recap {
            let ri = ri % ids.len();
            net.set_resource_capacity(ids[ri], caps[ri] * factor);
            check(&mut net, &keys)?;
        }
        let mut gone = Vec::new();
        for (key, kill) in keys.clone().iter().zip(&kills) {
            if *kill {
                if net.cancel(*key) {
                    gone.push(*key);
                }
            } else {
                net.advance_to(net.now() + 1e-3);
            }
            check(&mut net, &keys)?;
        }
        gone.extend(net.take_completed().iter().map(|c| c.id));
        // A few completion steps, the way the drive loop takes them.
        for _ in 0..4 {
            let Some(t) = net.next_completion_time() else {
                break;
            };
            net.advance_to(t);
            let done = net.take_completed();
            prop_assert!(!done.is_empty(), "no flow completed at t={}", t);
            gone.extend(done.iter().map(|c| c.id));
            check(&mut net, &keys)?;
        }
        for id in &gone {
            prop_assert_eq!(net.flow_rate(*id), None);
            prop_assert_eq!(net.flow_remaining(*id), None);
        }
    }
}
