//! Degradation and failure-injection scenarios: what happens to the
//! storage systems when links shrink, servers disappear or caches are
//! disabled. These exercise the model's causal structure — removing a
//! component must hurt exactly the metrics that depend on it.

use hcs_gpfs::GpfsConfig;
use hcs_ior::{run_ior, IorConfig, WorkloadClass};
use hcs_simkit::{FlowLogHandle, FlowNet, FlowSpec, ResourceSpec};
use hcs_vast::{vast_on_lassen, vast_on_wombat};

#[test]
fn mid_run_link_degradation_slows_flows() {
    let mut net = FlowNet::new();
    let link = net.add_resource(ResourceSpec::new("link", 100.0));
    net.add_flow(FlowSpec::new(vec![link], 1000.0));
    net.advance_to(2.0); // 200 bytes done
    net.set_resource_capacity(link, 10.0); // degraded 10x
    let t = net.next_completion_time().expect("still flowing");
    assert!((t - 82.0).abs() < 1e-6, "t = {t}");
}

#[test]
fn total_link_failure_stalls_then_recovers() {
    let mut net = FlowNet::new();
    let probe = FlowLogHandle::attach(&mut net);
    let link = net.add_resource(ResourceSpec::new("link", 100.0));
    net.add_flow(FlowSpec::new(vec![link], 1000.0));
    net.advance_to(1.0);
    net.set_resource_capacity(link, 0.0);
    assert_eq!(net.next_completion_time(), None, "stalled");
    net.advance_to(5.0); // time passes, nothing moves
    net.set_resource_capacity(link, 100.0);
    let t = net.next_completion_time().expect("recovered");
    assert!((t - 14.0).abs() < 1e-6, "t = {t}");

    // The telemetry timeline must show the outage as a utilization hole:
    // full rate until the failure, a dead window [1, 5), full rate again
    // on recovery — the step function a Chrome-trace viewer would draw.
    let timeline = probe.snapshot().utilization_of(link);
    let expect = [(0.0, 100.0, 100.0), (1.0, 0.0, 0.0), (5.0, 100.0, 100.0)];
    assert_eq!(timeline.len(), expect.len(), "timeline: {timeline:?}");
    for ((t, alloc, cap), (et, ea, ec)) in timeline.iter().zip(expect) {
        assert!(
            (t - et).abs() < 1e-9 && (alloc - ea).abs() < 1e-9 && (cap - ec).abs() < 1e-9,
            "stall window mis-recorded: {timeline:?}"
        );
    }
}

#[test]
fn losing_cnodes_degrades_vast_writes_proportionally() {
    let full = vast_on_wombat();
    let mut degraded = vast_on_wombat();
    degraded.cnodes = 4; // half the CNodes down

    let cfg = IorConfig::smoke(WorkloadClass::Scientific, 4, 48);
    let f = run_ior(&full, &cfg).mean_bandwidth();
    let d = run_ior(&degraded, &cfg).mean_bandwidth();
    let ratio = d / f;
    assert!(
        (0.4..0.65).contains(&ratio),
        "halving CNodes should roughly halve CNode-bound writes: {ratio}"
    );
}

#[test]
fn losing_a_dbox_degrades_wombat_reads() {
    let full = vast_on_wombat();
    let mut degraded = vast_on_wombat();
    degraded.dboxes = 3; // one enclosure offline

    let cfg = IorConfig::smoke(WorkloadClass::DataAnalytics, 8, 48);
    let f = run_ior(&full, &cfg).mean_bandwidth();
    let d = run_ior(&degraded, &cfg).mean_bandwidth();
    assert!(d < f, "fewer DNode forwarders must hurt saturated reads");
    assert!(d > 0.6 * f, "but only by about the lost fraction");
}

#[test]
fn gateway_outage_throttles_lassen_vast_only_at_scale() {
    let full = vast_on_lassen();
    let mut degraded = vast_on_lassen();
    if let Some(g) = &mut degraded.gateway {
        g.uplink.bandwidth /= 4.0; // three of four uplink lanes down
    }

    // One node: the single TCP stream never saw the full gateway anyway.
    let single = IorConfig::smoke(WorkloadClass::DataAnalytics, 1, 44);
    let f1 = run_ior(&full, &single).mean_bandwidth();
    let d1 = run_ior(&degraded, &single).mean_bandwidth();
    assert!(
        (d1 / f1 - 1.0).abs() < 0.05,
        "single node unaffected: {}",
        d1 / f1
    );

    // 64 nodes: the funnel is the bottleneck; losing lanes bites fully.
    let wide = IorConfig::smoke(WorkloadClass::DataAnalytics, 64, 44);
    let f64n = run_ior(&full, &wide).mean_bandwidth();
    let d64n = run_ior(&degraded, &wide).mean_bandwidth();
    assert!(
        (0.2..0.35).contains(&(d64n / f64n)),
        "quartered funnel quarters 64-node bandwidth: {}",
        d64n / f64n
    );
}

#[test]
fn gpfs_without_nsd_servers_loses_aggregate_not_per_node() {
    let full = GpfsConfig::on_lassen();
    let mut degraded = GpfsConfig::on_lassen();
    degraded.nsd_servers = 4; // 12 of 16 servers down
    degraded.hdd_count = full.hdd_count / 4;

    let single = IorConfig::smoke(WorkloadClass::DataAnalytics, 1, 44);
    let f1 = run_ior(&full, &single).mean_bandwidth();
    let d1 = run_ior(&degraded, &single).mean_bandwidth();
    assert!(
        d1 > 0.9 * f1,
        "one client is engine-bound, not server-bound"
    );

    let wide = IorConfig::smoke(WorkloadClass::DataAnalytics, 64, 44);
    let fw = run_ior(&full, &wide).mean_bandwidth();
    let dw = run_ior(&degraded, &wide).mean_bandwidth();
    assert!(dw < 0.5 * fw, "aggregate collapses with the server pool");
}

#[test]
fn zero_capacity_media_stalls_loudly() {
    // A storage system provisioned over dead media must stall, not
    // silently complete.
    let mut net = FlowNet::new();
    let dead = net.add_resource(ResourceSpec::new("dead", 0.0));
    net.add_flow(FlowSpec::new(vec![dead], 100.0));
    assert_eq!(net.next_completion_time(), None);
    assert_eq!(net.active_flow_count(), 1);
}

#[test]
fn cancelling_flows_releases_capacity_for_survivors() {
    let mut net = FlowNet::new();
    let link = net.add_resource(ResourceSpec::new("link", 100.0));
    let a = net.add_flow(FlowSpec::new(vec![link], 1000.0));
    let b = net.add_flow(FlowSpec::new(vec![link], 1000.0));
    net.advance_to(1.0);
    net.cancel(a); // client died
    assert_eq!(net.flow_rate(b), Some(100.0));
    let t = net.next_completion_time().unwrap();
    assert!((t - 10.5).abs() < 1e-6, "t = {t}");
}

#[test]
fn open_loop_outage_lifts_the_tail_and_bounds_stall() {
    // The open-loop driver composes with timed fault injection: a
    // mid-run gateway outage must push p99 out, and the closed-loop
    // stall invariant carries over — full-stall seconds never exceed
    // the outage window.
    use hcs_core::{Arrival, Discipline, FaultSpec, StageKind};
    use hcs_ior::{run_ior_with, IorRun};

    let sys = vast_on_lassen();
    let cfg = IorConfig::smoke(WorkloadClass::DataAnalytics, 1, 4);
    let arrival = Arrival::Open {
        rate: 200.0,
        discipline: Discipline::Poisson,
        duration: 0.4,
        seed: 3,
    };

    let open_loop = |faults: &[FaultSpec]| {
        let run = IorRun {
            arrival,
            faults,
            ..IorRun::default()
        };
        run_ior_with(&sys, &cfg, run).map(|out| out.open_loop.expect("open-loop run"))
    };
    let calm = open_loop(&[]).expect("fault-free run");
    assert_eq!(calm.report.stall_seconds, 0.0, "no faults, no stall");
    assert_eq!(calm.ops_completed, calm.ops_offered);

    let outage = [FaultSpec::outage(StageKind::Gateway, 0.1, 0.25)];
    let stormy = open_loop(&outage).expect("recovered run");
    assert!(
        stormy.histogram.p99().unwrap() > calm.histogram.p99().unwrap(),
        "outage must push the tail: {} vs {}",
        stormy.histogram.p99().unwrap(),
        calm.histogram.p99().unwrap()
    );
    assert!(
        stormy.report.stall_seconds <= 0.15 + 1e-9,
        "stall is bounded by the outage window: {}",
        stormy.report.stall_seconds
    );
    assert_eq!(stormy.report.events_applied, 2, "outage start + recovery");
    assert_eq!(stormy.ops_completed, calm.ops_completed, "same offered ops");
}

#[test]
fn open_loop_composes_with_chaos_timelines() {
    // The chaos fuzzer's seeded timeline generator drives the open-loop
    // path exactly like the closed-loop one: every generated timeline
    // either completes with full-stall seconds bounded by its total
    // outage time, or stalls as a typed error — never a wrong answer.
    use hcs_core::chaos::{generate_timeline, FaultBudget};
    use hcs_core::scenario::FaultKind;
    use hcs_core::{Arrival, Discipline, StageKind};
    use hcs_ior::{run_ior_with, IorRun};

    let sys = vast_on_lassen();
    let cfg = IorConfig::smoke(WorkloadClass::DataAnalytics, 1, 4);
    let arrival = Arrival::Open {
        rate: 150.0,
        discipline: Discipline::Poisson,
        duration: 0.4,
        seed: 9,
    };
    let budget = FaultBudget {
        horizon_seconds: 0.5,
        max_outage_seconds: 0.2,
        ..FaultBudget::default()
    };
    let stages = [StageKind::ClientMount, StageKind::Gateway];

    let mut faulted_runs = 0;
    for k in 0..4 {
        let specs = generate_timeline(&budget, &stages, 0xC4A05, "open-chaos", k);
        let outage_budget: f64 = specs
            .iter()
            .filter(|s| s.fault == FaultKind::Outage)
            .map(|s| s.end - s.start)
            .sum();
        let run = IorRun {
            arrival,
            faults: &specs,
            ..IorRun::default()
        };
        match run_ior_with(&sys, &cfg, run) {
            Ok(out) => {
                let open = out.open_loop.expect("open-loop run");
                assert!(
                    open.report.stall_seconds <= outage_budget + 1e-9,
                    "timeline {k}: stall {} exceeds its outage budget {outage_budget}",
                    open.report.stall_seconds
                );
                if !specs.is_empty() {
                    faulted_runs += 1;
                }
            }
            Err(e) => {
                // A terminal outage may starve the tail of the window;
                // that surfaces as the typed stall diagnostic.
                assert!(e.to_string().contains("stall"), "unexpected error: {e}");
            }
        }
    }
    assert!(
        faulted_runs > 0,
        "the seeded population must exercise faults"
    );
}

#[test]
fn overlapping_degrades_match_expanded_under_aggregation() {
    // Two Degrade windows overlapping on the same resource exercise the
    // engine's last-event-wins override (the second degrade's start
    // replaces the first's factor mid-window, and the first's recovery
    // restores full capacity inside the second window). The aggregated
    // (class) plan must reproduce the expanded plan bit for bit through
    // that interleaving, including the per-member event accounting.
    use hcs_core::graph::with_forced_aggregation;
    use hcs_core::runner::run_phase_chaos;
    use hcs_core::scenario::FaultSpec;
    use hcs_core::testing::UniformSystem;
    use hcs_core::{PhaseSpec, StageKind};
    use hcs_simkit::units::{GIB, MIB};

    let sys = UniformSystem::new("toy", 100.0 * GIB).with_node_bw(GIB);
    let phase = PhaseSpec::seq_write(MIB, 64.0 * MIB);
    let faults = [
        FaultSpec::degrade(StageKind::ClientMount, 0.005, 0.030, 0.5),
        FaultSpec::degrade(StageKind::ClientMount, 0.020, 0.045, 0.8),
    ];
    let run = || {
        let run = run_phase_chaos(&sys, 6, 2, &phase, &faults).unwrap();
        (run.outcome, run.report)
    };
    let exp = with_forced_aggregation(false, run);
    let agg = with_forced_aggregation(true, run);
    assert_eq!(exp.0.duration.to_bits(), agg.0.duration.to_bits());
    assert_eq!(exp.0.agg_bandwidth.to_bits(), agg.0.agg_bandwidth.to_bits());
    for (a, b) in exp.0.per_node_duration.iter().zip(&agg.0.per_node_duration) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert_eq!(exp.1.stall_seconds.to_bits(), agg.1.stall_seconds.to_bits());
    // 6 mounts x 2 windows x (start + recovery) in both plans.
    assert_eq!(exp.1.events_applied, 24);
    assert_eq!(agg.1.events_applied, 24);
    // Overlap really throttled the run: slower than fault-free.
    let clean = with_forced_aggregation(false, || hcs_core::runner::run_phase(&sys, 6, 2, &phase));
    assert!(exp.0.duration > clean.duration);
}
