//! Latency-provenance guarantees on real runs.
//!
//! Two properties make the blame attribution trustworthy:
//!
//! 1. **Conservation** — every completed op's shares reassemble its
//!    measured submit→finish latency *exactly*: ideal service is
//!    defined as the canonical subtraction-chain remainder
//!    `((((latency ⊖ queueing) ⊖ stall) ⊖ blame₀) … ⊖ blameₖ)`, so
//!    recomputing the chain from the stored components must reproduce
//!    the stored ideal bit-for-bit, on arbitrary topologies driven
//!    through the real max-min solver.
//! 2. **Non-perturbation** — the probe is a pure listener: an
//!    observed run's outcome is bit-identical to the unobserved twin
//!    on every field, with or without faults.

use hcs_core::runner::OpenLoopOutcome;
use hcs_core::{Arrival, Discipline, FaultSpec, StageKind};
use hcs_ior::{run_ior_with, IorConfig, IorReport, IorRun, WorkloadClass};
use hcs_simkit::{FlowNet, FlowSpec, ProvenanceLog, ResourceSpec};
use proptest::prelude::*;

/// Asserts every op in the log conserves: the stored ideal equals the
/// recomputed subtraction-chain remainder bitwise, and the naive
/// reassembly lands within float-addition rounding of the latency.
fn assert_conserved(log: &ProvenanceLog) {
    for op in &log.ops {
        assert_eq!(
            op.ideal.to_bits(),
            op.remainder().to_bits(),
            "op {:?}: stored ideal is not the canonical remainder",
            op.id
        );
        let blame: f64 = op.blame.iter().map(|(_, s)| s).sum();
        let reassembled = op.queueing + op.stall + blame + op.ideal;
        assert!(
            (reassembled - op.latency).abs() <= 1e-9 * op.latency.abs().max(1.0),
            "op {:?}: shares reassemble {} but latency is {}",
            op.id,
            reassembled,
            op.latency
        );
        assert!(op.queueing >= 0.0 && op.stall >= 0.0, "negative share");
        assert!(op.blame.iter().all(|(_, s)| *s >= 0.0), "negative blame");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random topologies, sizes, arrival times, queueing backlogs,
    /// multiplicities and rate caps through the real solver: every
    /// completed op's decomposition conserves exactly.
    #[test]
    fn per_op_blame_shares_reassemble_measured_latency(
        caps in prop::collection::vec(1.0f64..1000.0, 1..4),
        flows in prop::collection::vec(
            (
                0u8..8,                         // path mask over the resources
                1.0f64..5000.0,                 // bytes
                0.0f64..10.0,                   // admission time
                0.0f64..3.0,                    // submit→admission backlog
                1u32..4,                        // multiplicity
                prop::option::of(1.0f64..500.0) // optional rate cap
            ),
            1..12
        ),
    ) {
        let mut net = FlowNet::new();
        net.record_provenance();
        let rs: Vec<_> = caps
            .iter()
            .enumerate()
            .map(|(i, c)| net.add_resource(ResourceSpec::new(format!("r{i}"), *c)))
            .collect();
        let mut flows = flows;
        flows.sort_by(|a, b| a.2.total_cmp(&b.2));
        let mut expected = 0u32;
        for (mask, bytes, admit_t, backlog, mult, rate_cap) in flows {
            let path: Vec<_> = rs
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, r)| *r)
                .collect();
            let path = if path.is_empty() { vec![rs[0]] } else { path };
            net.advance_to(admit_t);
            let mut spec = FlowSpec::new(path, bytes)
                .with_multiplicity(mult)
                .submitted_at((admit_t - backlog).max(0.0));
            if let Some(cap) = rate_cap {
                spec = spec.with_rate_cap(cap);
            }
            net.add_flow(spec);
            expected += 1;
        }
        net.run_to_completion(|_, _| {});
        let log = net.take_provenance().expect("started");
        prop_assert_eq!(log.ops.len(), expected as usize);
        assert_conserved(&log);
    }
}

fn open_arrival(rate: f64, seed: u64) -> Arrival {
    Arrival::Open {
        rate,
        discipline: Discipline::Poisson,
        duration: 0.3,
        seed,
    }
}

/// An open-loop IOR run on `vast`, with or without the blame probe.
fn open_loop(
    vast: &dyn hcs_core::StorageSystem,
    config: &IorConfig,
    arrival: Arrival,
    faults: &[FaultSpec],
    provenance: bool,
) -> (IorReport, OpenLoopOutcome) {
    let run = IorRun {
        arrival,
        faults,
        recorder: None,
        provenance,
    };
    let out = run_ior_with(vast, config, run).expect("runs");
    (out.report, out.open_loop.expect("open-loop run"))
}

/// Provenance-on must be bit-identical to provenance-off on every
/// outcome field — the PR-2 parity discipline applied to the probe.
#[test]
fn observed_open_loop_runs_match_unobserved_bit_for_bit() {
    let vast = hcs_vast::vast_on_lassen();
    let config = IorConfig::smoke(WorkloadClass::DataAnalytics, 1, 4);
    let arrival = open_arrival(400.0, 11);
    let (plain_report, plain) = open_loop(&vast, &config, arrival, &[], false);
    let (obs_report, observed) = open_loop(&vast, &config, arrival, &[], true);
    assert_eq!(plain_report, obs_report, "IOR report perturbed");
    let prov = observed
        .provenance
        .as_ref()
        .expect("observed run decomposes");
    assert_eq!(prov.ops, observed.ops_completed, "every op decomposed");
    assert!(plain.provenance.is_none());
    let mut scrubbed = observed.clone();
    scrubbed.provenance = None;
    assert_eq!(plain, scrubbed, "open-loop outcome perturbed by the probe");
}

/// Same parity under a mid-run outage: fault stall windows are
/// observed, not altered, and the faulted tail stays bit-identical.
#[test]
fn observed_faulted_runs_match_and_land_stall_in_the_decomposition() {
    let vast = hcs_vast::vast_on_lassen();
    let config = IorConfig::smoke(WorkloadClass::DataAnalytics, 1, 4);
    let arrival = open_arrival(200.0, 7);
    let faults = vec![FaultSpec::outage(StageKind::Gateway, 0.05, 0.15)];
    let (plain_report, plain) = open_loop(&vast, &config, arrival, &faults, false);
    let (obs_report, observed) = open_loop(&vast, &config, arrival, &faults, true);
    assert_eq!(plain_report, obs_report, "faulted IOR report perturbed");
    let prov = observed.provenance.as_ref().expect("decomposes");
    assert!(
        prov.stall_seconds > 0.0,
        "a mid-run outage must surface as stall time"
    );
    let mut scrubbed = observed.clone();
    scrubbed.provenance = None;
    assert_eq!(plain, scrubbed, "faulted outcome perturbed by the probe");
}
