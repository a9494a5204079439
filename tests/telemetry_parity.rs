//! Differential tests for the telemetry layer: zero perturbation.
//!
//! The recorder is specified as a *pure listener* — attaching it must
//! not change a single bit of any simulated outcome, the same guarantee
//! `tests/graph_parity.rs` pinned for the planner port. Every backend ×
//! IOR workload class runs with and without a recorder and the
//! `PhaseOutcome`s are compared at the IEEE-754 bit level; campaigns,
//! IOR reports and the DLIO pipeline get the same treatment.
//!
//! A golden Chrome-trace fixture additionally pins the *content* of the
//! telemetry (event names, categories, pids, byte-exact timestamps) for
//! one small run. Regenerate after an intentional telemetry change:
//!
//! ```text
//! HCS_BLESS_TELEMETRY=1 cargo test -p hcs-apps --test telemetry_parity
//! ```

use hcs_core::runner::{run_phase, run_phase_traced};
use hcs_core::telemetry::Recorder;
use hcs_core::{JobScript, PhaseOutcome, PhaseSpec, StorageSystem};
use hcs_dlio::{resnet50, run_dlio, run_dlio_traced};
use hcs_gpfs::GpfsConfig;
use hcs_ior::{run_ior, run_ior_with, IorConfig, IorReport, IorRun, WorkloadClass};
use hcs_lustre::LustreConfig;
use hcs_nvme::LocalNvmeConfig;
use hcs_simkit::units::MIB;
use hcs_unifyfs::UnifyFsConfig;
use hcs_vast::vast_on_lassen;

/// [`run_ior`] with the measured phase traced into `recorder`.
fn ior_traced(sys: &dyn StorageSystem, cfg: &IorConfig, recorder: &mut Recorder) -> IorReport {
    let run = IorRun {
        recorder: Some(recorder),
        ..IorRun::default()
    };
    run_ior_with(sys, cfg, run).expect("fault-free run").report
}

const FIXTURE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/telemetry_trace.json"
);

/// The five storage backends.
fn backends() -> Vec<(String, Box<dyn StorageSystem>)> {
    vec![
        (
            "vast-lassen".into(),
            Box::new(vast_on_lassen()) as Box<dyn StorageSystem>,
        ),
        ("gpfs-lassen".into(), Box::new(GpfsConfig::on_lassen())),
        ("lustre-ruby".into(), Box::new(LustreConfig::on_ruby())),
        ("nvme-wombat".into(), Box::new(LocalNvmeConfig::on_wombat())),
        ("unifyfs-local".into(), Box::new(UnifyFsConfig::on_wombat())),
    ]
}

fn classes() -> [WorkloadClass; 3] {
    [
        WorkloadClass::Scientific,
        WorkloadClass::DataAnalytics,
        WorkloadClass::MachineLearning,
    ]
}

/// Bit-level equality for every numeric field of a `PhaseOutcome`
/// (`PartialEq` on f64 would let `-0.0 == 0.0` slip through).
fn assert_bit_exact(plain: &PhaseOutcome, traced: &PhaseOutcome, ctx: &str) {
    assert_eq!(plain.nodes, traced.nodes, "{ctx}: nodes");
    assert_eq!(plain.ppn, traced.ppn, "{ctx}: ppn");
    assert_eq!(
        plain.total_bytes.to_bits(),
        traced.total_bytes.to_bits(),
        "{ctx}: total_bytes"
    );
    assert_eq!(
        plain.duration.to_bits(),
        traced.duration.to_bits(),
        "{ctx}: duration"
    );
    assert_eq!(
        plain.agg_bandwidth.to_bits(),
        traced.agg_bandwidth.to_bits(),
        "{ctx}: agg_bandwidth"
    );
    let p: Vec<u64> = plain
        .per_node_duration
        .iter()
        .map(|x| x.to_bits())
        .collect();
    let t: Vec<u64> = traced
        .per_node_duration
        .iter()
        .map(|x| x.to_bits())
        .collect();
    assert_eq!(p, t, "{ctx}: per_node_duration");
    assert_eq!(
        plain.utilization.len(),
        traced.utilization.len(),
        "{ctx}: utilization length"
    );
    for (i, ((pn, pa, pc), (tn, ta, tc))) in plain
        .utilization
        .iter()
        .zip(traced.utilization.iter())
        .enumerate()
    {
        assert_eq!(pn, tn, "{ctx}: utilization[{i}] name");
        assert_eq!(pa.to_bits(), ta.to_bits(), "{ctx}: utilization[{i}] alloc");
        assert_eq!(pc.to_bits(), tc.to_bits(), "{ctx}: utilization[{i}] cap");
    }
    assert_eq!(plain.bottleneck, traced.bottleneck, "{ctx}: bottleneck");
}

#[test]
fn run_phase_is_unperturbed_across_backends_and_classes() {
    for (name, sys) in backends() {
        for class in classes() {
            for (nodes, ppn) in [(1, 4), (4, 8)] {
                let cfg = IorConfig::smoke(class, nodes, ppn);
                let phase = cfg.phase();
                let plain = run_phase(sys.as_ref(), nodes, ppn, &phase);
                let mut rec = Recorder::new();
                let traced = run_phase_traced(sys.as_ref(), nodes, ppn, &phase, &mut rec);
                let ctx = format!("{name} / {class:?} @ {nodes}x{ppn}");
                assert_bit_exact(&plain, &traced, &ctx);
                assert!(
                    !rec.tracer().is_empty(),
                    "{ctx}: traced run produced no events"
                );
            }
        }
    }
}

#[test]
fn ior_reports_are_unperturbed() {
    for (name, sys) in backends() {
        for class in classes() {
            let cfg = IorConfig::smoke(class, 2, 8);
            let plain = run_ior(sys.as_ref(), &cfg);
            let mut rec = Recorder::new();
            let traced = ior_traced(sys.as_ref(), &cfg, &mut rec);
            let p: Vec<u64> = plain
                .outcome
                .bandwidths
                .iter()
                .map(|x| x.to_bits())
                .collect();
            let t: Vec<u64> = traced
                .outcome
                .bandwidths
                .iter()
                .map(|x| x.to_bits())
                .collect();
            assert_eq!(p, t, "{name} / {class:?}: per-rep bandwidths drifted");
            assert_eq!(plain, traced, "{name} / {class:?}: report drifted");
        }
    }
}

#[test]
fn campaigns_are_unperturbed() {
    let job = JobScript::checkpoint_restart(25.0, 3, 64.0 * MIB, MIB);
    for (name, sys) in backends() {
        let plain = job.run(sys.as_ref(), 2, 8);
        let mut rec = Recorder::new();
        let traced = job.run_traced(sys.as_ref(), 2, 8, &mut rec);
        assert_eq!(
            plain.total.to_bits(),
            traced.total.to_bits(),
            "{name}: job total drifted"
        );
        assert_eq!(plain, traced, "{name}: job outcome drifted");
        // One compute span per compute step, one phase span per IO step.
        let compute_events = rec
            .tracer()
            .by_category(&hcs_dftrace::EventCategory::Compute)
            .count();
        assert_eq!(compute_events, 3, "{name}: compute spans");
        let phase_events = rec
            .tracer()
            .by_category(&hcs_dftrace::EventCategory::Phase)
            .count();
        assert_eq!(phase_events, 4, "{name}: restart + 3 checkpoints");
    }
}

#[test]
fn dlio_pipeline_is_unperturbed() {
    let sys = GpfsConfig::on_lassen();
    let cfg = resnet50().smoke().with_checkpointing(16, 100e6);
    let plain = run_dlio(&sys, &cfg, 2);
    let mut rec = Recorder::new();
    let traced = run_dlio_traced(&sys, &cfg, 2, &mut rec);
    assert_eq!(
        plain.duration.to_bits(),
        traced.duration.to_bits(),
        "duration drifted"
    );
    assert_eq!(
        plain.app_throughput.to_bits(),
        traced.app_throughput.to_bits()
    );
    assert_eq!(
        plain.system_throughput.to_bits(),
        traced.system_throughput.to_bits()
    );
    assert_eq!(plain.mean_per_node, traced.mean_per_node);
    assert_eq!(plain.tracer, traced.tracer, "application events drifted");
    // The recorder holds the application events plus the flow layer's.
    assert!(rec.tracer().len() > plain.tracer.len());
    assert!(
        rec.tracer()
            .by_category(&hcs_dftrace::EventCategory::Resource)
            .count()
            > 0,
        "flow-engine utilization missing from DLIO trace"
    );
}

#[test]
fn recorder_reuse_across_runs_is_still_unperturbed() {
    // A recorder that already holds a campaign must not influence the
    // next run absorbed into it.
    let sys = vast_on_lassen();
    let phase = PhaseSpec::seq_write(MIB, 64.0 * MIB);
    let plain = run_phase(&sys, 2, 4, &phase);
    let mut rec = Recorder::new();
    let job = JobScript::checkpoint_restart(10.0, 2, 32.0 * MIB, MIB);
    job.run_traced(&sys, 2, 4, &mut rec);
    let clock_before = rec.clock();
    let traced = run_phase_traced(&sys, 2, 4, &phase, &mut rec);
    assert_bit_exact(&plain, &traced, "after-campaign run");
    assert!(rec.clock() > clock_before, "clock advances monotonically");
}

#[test]
fn golden_chrome_trace_fixture() {
    // One small but representative run: IOR smoke on VAST@Lassen with
    // two nodes — flows, a phase span, resource segments.
    let sys = vast_on_lassen();
    let cfg = IorConfig::smoke(WorkloadClass::Scientific, 2, 4);
    let mut rec = Recorder::new();
    ior_traced(&sys, &cfg, &mut rec);
    let json = rec.to_chrome_json();

    if std::env::var_os("HCS_BLESS_TELEMETRY").is_some() {
        std::fs::write(FIXTURE_PATH, json + "\n").expect("write fixture");
        return;
    }
    let golden = std::fs::read_to_string(FIXTURE_PATH).unwrap_or_else(|e| {
        panic!("missing telemetry fixture at {FIXTURE_PATH} ({e}); run with HCS_BLESS_TELEMETRY=1")
    });
    assert_eq!(
        golden.trim_end(),
        json,
        "telemetry trace drifted from the golden fixture"
    );
}

#[test]
fn chrome_trace_parses_back_losslessly() {
    // The acceptance criterion behind `hcs --trace`: the emitted JSON
    // must survive a parse → re-serialize cycle byte-for-byte (floats
    // print shortest-round-trip, so equality in the serialized domain
    // is exact, not approximate).
    let sys = vast_on_lassen();
    let cfg = IorConfig::smoke(WorkloadClass::MachineLearning, 2, 4);
    let mut rec = Recorder::new();
    ior_traced(&sys, &cfg, &mut rec);
    let json = rec.to_chrome_json();
    let parsed = hcs_dftrace::chrome::from_json(&json).expect("emitted trace must parse");
    assert_eq!(parsed.len(), rec.tracer().len());
    let rejson = hcs_dftrace::chrome::to_json(&parsed);
    assert_eq!(json, rejson, "trace does not round-trip losslessly");
}
