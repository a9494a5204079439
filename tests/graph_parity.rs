//! Golden parity fixtures for the deployment-graph port.
//!
//! The refactor that moved every backend's `provision()` onto the shared
//! [`hcs_core::graph`] planner must not change a single bit of any
//! simulated outcome: the figures, takeaways and calibration tests all
//! sit on top of `run_phase`. This test pins that guarantee. Fixtures
//! were captured from the pre-port imperative implementations (every
//! backend × every `PhaseSpec` preset × several scales) with every
//! float stored as its exact IEEE-754 bit pattern; the current code must
//! reproduce them byte-for-byte.
//!
//! Regenerate (only when an *intentional* physics change lands) with:
//!
//! ```text
//! HCS_BLESS_PARITY=1 cargo test -p hcs-apps --test graph_parity
//! ```

use serde::{Deserialize, Serialize};

use hcs_core::runner::run_phase;
use hcs_core::{PhaseSpec, StorageSystem};
use hcs_gpfs::GpfsConfig;
use hcs_lustre::LustreConfig;
use hcs_nvme::LocalNvmeConfig;
use hcs_simkit::units::MIB;
use hcs_unifyfs::{DataPlacement, UnifyFsConfig};
use hcs_vast::{vast_on_lassen, vast_on_quartz, vast_on_ruby, vast_on_wombat};

const FIXTURE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/graph_parity.json"
);

/// One `run_phase` call and everything numeric it produced, with floats
/// as hex bit patterns so JSON round-trips cannot lose precision.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct ParityRecord {
    system: String,
    phase: String,
    nodes: u32,
    ppn: u32,
    total_bytes: String,
    duration: String,
    agg_bandwidth: String,
    per_node_duration: Vec<String>,
    /// `(resource name, allocated bits, capacity bits)` in provisioning
    /// order — pins resource names, count and order too.
    utilization: Vec<(String, String, String)>,
}

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct ParityFile {
    records: Vec<ParityRecord>,
}

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn systems() -> Vec<(String, Box<dyn StorageSystem>)> {
    vec![
        (
            "vast-lassen".into(),
            Box::new(vast_on_lassen()) as Box<dyn StorageSystem>,
        ),
        ("vast-ruby".into(), Box::new(vast_on_ruby())),
        ("vast-quartz".into(), Box::new(vast_on_quartz())),
        ("vast-wombat".into(), Box::new(vast_on_wombat())),
        ("gpfs-lassen".into(), Box::new(GpfsConfig::on_lassen())),
        ("lustre-ruby".into(), Box::new(LustreConfig::on_ruby())),
        ("lustre-quartz".into(), Box::new(LustreConfig::on_quartz())),
        ("nvme-wombat".into(), Box::new(LocalNvmeConfig::on_wombat())),
        ("unifyfs-local".into(), Box::new(UnifyFsConfig::on_wombat())),
        (
            "unifyfs-rr".into(),
            Box::new(UnifyFsConfig::on_wombat().with_placement(DataPlacement::RoundRobin)),
        ),
    ]
}

fn phases() -> Vec<(String, PhaseSpec)> {
    let bytes = 256.0 * MIB;
    vec![
        ("seq_write".into(), PhaseSpec::seq_write(MIB, bytes)),
        ("seq_read".into(), PhaseSpec::seq_read(MIB, bytes)),
        ("random_read".into(), PhaseSpec::random_read(MIB, bytes)),
        (
            "seq_write_fsync".into(),
            PhaseSpec::seq_write(MIB, bytes).with_fsync(true),
        ),
        ("shared_file_write".into(), {
            let mut p = PhaseSpec::seq_write(MIB, bytes);
            p.file_per_proc = false;
            p
        }),
        (
            // File-per-sample DL input pipeline: exercises the ops-pool
            // byte-capacity conversion.
            "meta_heavy_read".into(),
            PhaseSpec::random_read(0.25 * MIB, bytes)
                .with_metadata_ops_per_byte(3.0 / (0.25 * MIB)),
        ),
    ]
}

fn scales() -> Vec<(u32, u32)> {
    vec![(1, 4), (2, 8), (4, 16)]
}

fn capture() -> ParityFile {
    let mut records = Vec::new();
    for (sys_name, sys) in systems() {
        for (phase_name, phase) in phases() {
            for (nodes, ppn) in scales() {
                let out = run_phase(sys.as_ref(), nodes, ppn, &phase);
                records.push(ParityRecord {
                    system: sys_name.clone(),
                    phase: phase_name.clone(),
                    nodes,
                    ppn,
                    total_bytes: bits(out.total_bytes),
                    duration: bits(out.duration),
                    agg_bandwidth: bits(out.agg_bandwidth),
                    per_node_duration: out.per_node_duration.iter().copied().map(bits).collect(),
                    utilization: out
                        .utilization
                        .iter()
                        .map(|(name, alloc, cap)| (name.clone(), bits(*alloc), bits(*cap)))
                        .collect(),
                });
            }
        }
    }
    ParityFile { records }
}

// ---------------------------------------------------------------------------
// Class-split fixtures: the equivalence-class planner must be invisible.
//
// When the planner aggregates a per-node stage into one multi-instance
// resource, a fault spec naming a single member must still behave
// exactly like the PR-5 expanded resolution: the planner splits the
// class so the named node becomes its own (exactly-named) resource, and
// the resolved timeline and every simulated outcome — including the
// `ResilienceMetrics` of the shipped outage example deck — stay
// bit-identical to the expanded plan's.

use hcs_core::graph::{with_forced_aggregation, AggregateMode, PlanOptions};
use hcs_core::runner::resolve_faults_planned;
use hcs_core::{FaultSpec, StageKind};
use hcs_experiments::deck::{run_scenario, Meter};
use hcs_simkit::flownet::FlowNet;

/// A timeline flattened to comparable, bit-exact tuples. Events are
/// compared by *resource name*, not id, so an aggregated and an
/// expanded plan (which allocate different id spaces) can be diffed.
fn named_events(
    timeline: &hcs_simkit::faults::FaultTimeline,
    net: &FlowNet,
) -> Vec<(String, u64, u64)> {
    let mut v: Vec<(String, u64, u64)> = timeline
        .events()
        .iter()
        .map(|e| {
            (
                net.resource_name(e.resource).to_string(),
                e.at.to_bits(),
                e.factor.to_bits(),
            )
        })
        .collect();
    v.sort();
    v
}

/// A named per-node fault inside an aggregated class splits the class
/// and resolves to exactly the events the expanded PR-5 path produces.
#[test]
fn named_fault_split_resolves_like_expanded_plan() {
    let sys = vast_on_lassen();
    let phase = PhaseSpec::seq_write(MIB, 64.0 * MIB);
    let faults = vec![FaultSpec::outage(StageKind::ClientMount, 0.2, 0.4).named("vast:mount2")];

    // Expanded plan: per-node resources, the original resolution path.
    let mut net_e = FlowNet::new();
    let prov_e = sys.provision_classed(
        &mut net_e,
        4,
        4,
        &phase,
        &PlanOptions {
            aggregate: AggregateMode::Never,
            faults: &faults,
        },
    );
    assert!(prov_e.aggregates.is_empty(), "Never must expand");
    let tl_e = resolve_faults_planned(&faults, &net_e, &prov_e).expect("expanded resolves");

    // Aggregated plan: the named node must be split into a singleton
    // aggregate carrying its exact expanded name.
    let mut net_a = FlowNet::new();
    let prov_a = sys.provision_classed(
        &mut net_a,
        4,
        4,
        &phase,
        &PlanOptions {
            aggregate: AggregateMode::Always,
            faults: &faults,
        },
    );
    let mount_aggs: Vec<_> = prov_a
        .aggregates
        .iter()
        .filter(|a| a.stage_name == "vast:mount")
        .collect();
    assert_eq!(mount_aggs.len(), 2, "class must split into two");
    let singleton = mount_aggs
        .iter()
        .find(|a| a.members == vec![2])
        .expect("named node split off as a singleton");
    assert_eq!(net_a.resource_name(singleton.id), "vast:mount2");
    let rest = mount_aggs.iter().find(|a| a.members.len() == 3).unwrap();
    assert_eq!(rest.members, vec![0, 1, 3]);

    let tl_a = resolve_faults_planned(&faults, &net_a, &prov_a).expect("aggregated resolves");
    // Both plans schedule the same two events on the same-named
    // resource; the expanded plan's events land on its per-node
    // "vast:mount2", the aggregated plan's on the split singleton.
    let want = vec![
        (
            "vast:mount2".to_string(),
            0.2f64.to_bits(),
            0.0f64.to_bits(),
        ),
        (
            "vast:mount2".to_string(),
            0.4f64.to_bits(),
            1.0f64.to_bits(),
        ),
    ];
    assert_eq!(named_events(&tl_e, &net_e), want);
    assert_eq!(named_events(&tl_a, &net_a), want);
}

/// The shipped outage example deck (`fault.gateway-outage.json`) yields
/// bit-identical `ResilienceMetrics` whether each point runs on the
/// expanded or the class-aggregated plan. Points run sequentially in
/// this thread: the forced-aggregation override is thread-local, so the
/// rayon deck executor must not be used here.
#[test]
fn outage_example_deck_resilience_is_aggregation_invariant() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/scenarios/fault.gateway-outage.json"
    );
    let json = std::fs::read_to_string(path).expect("shipped outage deck");
    let deck: hcs_core::Deck = serde_json::from_str(&json).expect("deck parses");
    let points = deck.expand();
    assert_eq!(points.len(), 2, "fault-free twin + faulted point");
    for scenario in &points {
        let expanded =
            with_forced_aggregation(false, || run_scenario(scenario, None, Meter::Metrics));
        let aggregated =
            with_forced_aggregation(true, || run_scenario(scenario, None, Meter::Metrics));
        let (me, ma) = (
            expanded.metrics.as_ref().unwrap(),
            aggregated.metrics.as_ref().unwrap(),
        );
        let bw_e = expanded.outcome.ior().outcome.summary.mean;
        let bw_a = aggregated.outcome.ior().outcome.summary.mean;
        assert_eq!(
            bw_e.to_bits(),
            bw_a.to_bits(),
            "bandwidth drift on '{}'",
            scenario.name
        );
        assert_eq!(
            me.solver_epochs, ma.solver_epochs,
            "epoch drift on '{}'",
            scenario.name
        );
        match (&me.resilience, &ma.resilience) {
            (None, None) => assert!(scenario.faults.is_empty()),
            (Some(re), Some(ra)) => {
                for (label, e, a) in [
                    ("slowdown_factor", re.slowdown_factor, ra.slowdown_factor),
                    (
                        "fault_free_seconds",
                        re.fault_free_seconds,
                        ra.fault_free_seconds,
                    ),
                    ("faulted_seconds", re.faulted_seconds, ra.faulted_seconds),
                    ("stall_seconds", re.stall_seconds, ra.stall_seconds),
                    ("drain_seconds", re.drain_seconds, ra.drain_seconds),
                ] {
                    assert_eq!(
                        e.to_bits(),
                        a.to_bits(),
                        "{label} drift on '{}': {e} vs {a}",
                        scenario.name
                    );
                }
                assert_eq!(re.fault_events, ra.fault_events);
            }
            _ => panic!(
                "resilience presence differs across plans on '{}'",
                scenario.name
            ),
        }
    }
}

#[test]
fn outcomes_match_pre_port_fixtures() {
    let current = capture();
    if std::env::var_os("HCS_BLESS_PARITY").is_some() {
        let json = serde_json::to_string_pretty(&current).expect("serialize fixtures");
        std::fs::write(FIXTURE_PATH, json + "\n").expect("write fixtures");
        return;
    }
    let json = std::fs::read_to_string(FIXTURE_PATH).unwrap_or_else(|e| {
        panic!("missing parity fixtures at {FIXTURE_PATH} ({e}); run with HCS_BLESS_PARITY=1")
    });
    let golden: ParityFile = serde_json::from_str(&json).expect("parse fixtures");
    assert_eq!(
        golden.records.len(),
        current.records.len(),
        "fixture record count changed"
    );
    for (want, got) in golden.records.iter().zip(current.records.iter()) {
        assert_eq!(
            want, got,
            "bit-level outcome drift for {} / {} @ {}x{}",
            want.system, want.phase, want.nodes, want.ppn
        );
    }
}
