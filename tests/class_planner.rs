//! The equivalence-class planner at datacenter scale under a fault
//! name filter. A filter selects the nodes whose decimal index starts
//! with its digit tail, so `vast:mount12` splits the one fault-free
//! class of a 100,000-node VAST@Lassen run into nodes 12, 120–129,
//! 1200–1299 and 12000–12999 and the rest, and fault resolution hits
//! exactly the split-off class. The pinned values are those of the
//! planner that visited every node by name.

use hcs_core::graph::PlanOptions;
use hcs_core::{FaultSpec, Scenario, StageKind, StorageSystem, Workload};
use hcs_experiments::{run_scenario, Meter};
use hcs_ior::{IorConfig, WorkloadClass};
use hcs_simkit::FlowNet;
use hcs_vast::vast_on_lassen;

const NODES: u32 = 100_000;

fn mount12_degrade() -> FaultSpec {
    FaultSpec::degrade(StageKind::ClientMount, 0.01, 0.02, 0.5).named("vast:mount12")
}

#[test]
fn name_filter_splits_a_datacenter_class_by_decimal_prefix() {
    let cfg = IorConfig::smoke(WorkloadClass::Scientific, NODES, 1);
    let faults = [mount12_degrade()];
    let mut net = FlowNet::new();
    let prov = vast_on_lassen().provision_classed(
        &mut net,
        NODES,
        1,
        &cfg.phase(),
        &PlanOptions::auto(&faults),
    );
    let sizes: Vec<usize> = prov.classes.iter().map(|c| c.members.len()).collect();
    assert_eq!(sizes, [98_889, 1_111]);
    let split = &prov.classes[1].members;
    assert!(split.iter().all(|m| m.to_string().starts_with("12")));
    let names: Vec<&str> = prov
        .aggregates
        .iter()
        .map(|a| net.resource_name(a.id))
        .collect();
    assert_eq!(names, ["vast:mount[98889x0]", "vast:mount[1111x12]"]);

    let scenario = Scenario::new("vast-lassen", Workload::Ior(cfg)).with_fault(mount12_degrade());
    let point = run_scenario(&scenario, None, Meter::Metrics);
    let resilience = point
        .metrics
        .and_then(|m| m.resilience)
        .expect("a faulted point reports resilience");
    // One degrade and one recovery event per member of the split class.
    assert_eq!(resilience.fault_events, 2_222);
}
