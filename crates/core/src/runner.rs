//! The flow-level phase runner.
//!
//! [`run_phase`] is the meeting point of a workload and a storage
//! system: the system provisions a [`FlowNet`], the runner places one
//! flow group per client node (multiplicity = ranks per node, rate cap =
//! the effective per-stream bandwidth at this phase's transfer size),
//! and the flow engine's max-min fair sharing determines who bottlenecks
//! where. Bandwidth is accounted the way IOR reports it: total bytes
//! over the completion time of the slowest rank.

use std::fmt;

use hcs_simkit::{
    CapacityEvent, FaultRunReport, FaultTimeline, FlowLogHandle, FlowNet, FlowSpec,
    ProvenanceHandle, ResourceId, SimRng,
};

use crate::graph::{resource_of_stage, PlanOptions, StageKind};
use crate::metrics::{LatencyHistogram, ProvenanceMetrics, ResilienceMetrics};
use crate::outcome::{Bottleneck, PhaseOutcome, RepeatedOutcome};
use crate::phase::PhaseSpec;
use crate::scenario::{Arrival, FaultKind, FaultSpec};
use crate::system::StorageSystem;
use crate::telemetry::Recorder;

/// Typed failure of a fault-injected phase run.
///
/// The CLI turns these into one-line exit-2 diagnostics; library
/// callers can match on them.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultPhaseError {
    /// A [`FaultSpec`] failed its own validation ([`FaultSpec::check`]).
    InvalidSpec(String),
    /// No provisioned resource matched the spec's stage kind / name.
    UnmatchedStage {
        /// The stage kind the spec targeted.
        stage: StageKind,
        /// The optional stage-name filter.
        name: Option<String>,
    },
    /// The schedule left the network unrecoverably stalled: every
    /// remaining flow at rate zero with no event left to lift it.
    Stalled {
        /// Simulated time of the stall.
        at: f64,
        /// Names of the starved (zero-capacity) resources.
        starved: Vec<String>,
    },
}

impl fmt::Display for FaultPhaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPhaseError::InvalidSpec(msg) => write!(f, "{msg}"),
            FaultPhaseError::UnmatchedStage { stage, name } => write!(
                f,
                "fault targets no planned stage: kind {}{}",
                stage.label(),
                match name {
                    Some(n) => format!(", name '{n}'"),
                    None => String::new(),
                }
            ),
            FaultPhaseError::Stalled { at, starved } => write!(
                f,
                "fault schedule leaves flows unrecoverably stalled at t={at}s \
                 (starved: {}); schedule a recovery event",
                starved.join(", ")
            ),
        }
    }
}

impl std::error::Error for FaultPhaseError {}

/// Resolves [`FaultSpec`]s against a provisioned (possibly
/// class-aggregated) network into concrete timed capacity events.
///
/// Every resource whose stage kind (and, when given, stage name)
/// matches is faulted: sharded and per-node stages fan out to all their
/// member resources. Jitter slices draw from a per-resource substream
/// of the spec's own seed, independent of the workload noise stream.
///
/// An aggregate resource matches by its *members*: the spec's name
/// filter is evaluated against the expanded member names
/// (`"{stage}{node}"`), and because the planner split classes on every
/// fault-name filter, a filter covers either every member or none — a
/// partial hit is a planner bug and panics. A matched aggregate
/// produces one capacity event per window edge (the engine counts each
/// of its `instances` members in `events_applied`, so fault accounting
/// survives aggregation unchanged).
pub fn resolve_faults_planned(
    faults: &[FaultSpec],
    net: &FlowNet,
    prov: &crate::system::Provisioned,
) -> Result<FaultTimeline, FaultPhaseError> {
    let aggregate_of: std::collections::HashMap<usize, &crate::system::AggregateStage> =
        prov.aggregates.iter().map(|a| (a.id.index(), a)).collect();
    let mut events = Vec::new();
    for spec in faults {
        spec.check().map_err(FaultPhaseError::InvalidSpec)?;
        let targets: Vec<ResourceId> = prov
            .stage_kinds
            .iter()
            .filter(|(id, kind)| {
                *kind == spec.stage
                    && match (spec.name.as_deref(), aggregate_of.get(&id.index())) {
                        (None, _) => true,
                        (Some(n), None) => resource_of_stage(n, net.resource_name(*id)),
                        (Some(n), Some(agg)) => {
                            let hit = agg
                                .members
                                .iter()
                                .filter(|m| resource_of_stage(n, &format!("{}{m}", agg.stage_name)))
                                .count();
                            assert!(
                                hit == 0 || hit == agg.members.len(),
                                "fault name filter '{n}' hits {hit}/{} members of \
                                 aggregate '{}' — the planner failed to split this class",
                                agg.members.len(),
                                net.resource_name(*id),
                            );
                            hit > 0
                        }
                    }
            })
            .map(|(id, _)| *id)
            .collect();
        if targets.is_empty() {
            return Err(FaultPhaseError::UnmatchedStage {
                stage: spec.stage,
                name: spec.name.clone(),
            });
        }
        for id in targets {
            match &spec.fault {
                FaultKind::Outage => {
                    events.push(CapacityEvent::new(spec.start, id, 0.0));
                    events.push(CapacityEvent::new(spec.end, id, 1.0));
                }
                FaultKind::Degrade { factor } => {
                    events.push(CapacityEvent::new(spec.start, id, *factor));
                    events.push(CapacityEvent::new(spec.end, id, 1.0));
                }
                FaultKind::Jitter {
                    seed,
                    amplitude,
                    steps,
                } => {
                    let mut rng = SimRng::new(*seed).split(net.resource_name(id));
                    let dt = (spec.end - spec.start) / *steps as f64;
                    for i in 0..*steps {
                        events.push(CapacityEvent::new(
                            spec.start + i as f64 * dt,
                            id,
                            rng.jitter_factor(*amplitude),
                        ));
                    }
                    events.push(CapacityEvent::new(spec.end, id, 1.0));
                }
            }
        }
    }
    Ok(FaultTimeline::new(events))
}

/// Engine-state evidence captured by every phase run, inspected by the
/// chaos campaign's metamorphic invariants (see [`crate::chaos`]).
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosEvidence {
    /// Per-resource capacities at drive-loop entry — the provisioned
    /// values fault factors scale — indexed by registration order.
    pub entry_capacities: Vec<f64>,
    /// The same capacities after the run completed. When every
    /// scheduled recovery event fired, these must equal the entry
    /// snapshot bit for bit.
    pub terminal_capacities: Vec<f64>,
    /// Concrete capacity events the specs resolved into (including
    /// events that end up scheduled past the completion time).
    pub resolved_events: usize,
}

/// A completed closed-loop phase run: outcome, the engine's drive
/// report, and the capacity evidence invariants inspect.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosPhaseRun {
    /// The phase outcome (same shape as [`run_phase`]'s).
    pub outcome: PhaseOutcome,
    /// The engine's stall/event accounting for the run.
    pub report: FaultRunReport,
    /// Entry/terminal capacity snapshots and the resolved event count.
    pub evidence: ChaosEvidence,
}

/// Observers attached to one phase run. Each is a pure listener: every
/// simulated value is bit-identical whichever are attached.
#[derive(Default)]
pub(crate) struct Observe<'a> {
    /// Flow and resource telemetry into a recorder, under a phase label.
    pub trace: Option<(&'a mut Recorder, &'a str)>,
    /// The per-operation latency-blame probe (open-loop runs).
    pub provenance: bool,
}

/// Runs one phase at the given scale, noise-free.
///
/// # Panics
/// Panics if the phase is invalid, the system provisions a path for the
/// wrong number of nodes, or flows stall on a zero-capacity resource.
pub fn run_phase(
    system: &dyn StorageSystem,
    nodes: u32,
    ppn: u32,
    phase: &PhaseSpec,
) -> PhaseOutcome {
    run_closed(system, nodes, ppn, phase, &[], Observe::default())
        .unwrap_or_else(|e| panic!("{e}"))
        .outcome
}

/// Runs one phase while feeding flow/resource telemetry into
/// `recorder` (see [`crate::telemetry`]), labeled
/// `"{system} {op:?} {nodes}x{ppn}"`. The outcome is bit-identical to
/// [`run_phase`]'s — the recorder is a pure listener. Kept for the
/// host-time benchmark; [`run_phase_repeated`] is the traced entry.
pub fn run_phase_traced(
    system: &dyn StorageSystem,
    nodes: u32,
    ppn: u32,
    phase: &PhaseSpec,
    recorder: &mut Recorder,
) -> PhaseOutcome {
    let label = format!("{} {:?} {}x{}", system.name(), phase.op, nodes, ppn);
    let observe = Observe {
        trace: Some((recorder, &label)),
        provenance: false,
    };
    run_closed(system, nodes, ppn, phase, &[], observe)
        .unwrap_or_else(|e| panic!("{e}"))
        .outcome
}

/// Runs one phase under a fault schedule, returning the outcome, the
/// engine's [`FaultRunReport`] and the [`ChaosEvidence`] the chaos
/// campaign's invariants inspect. An empty schedule reproduces
/// [`run_phase`]'s result bit for bit, because both go through the
/// same drive loop; provisioning is identical to [`run_phase`]'s for
/// the same specs, so faulted and fault-free twins share one plan.
pub fn run_phase_chaos(
    system: &dyn StorageSystem,
    nodes: u32,
    ppn: u32,
    phase: &PhaseSpec,
    faults: &[FaultSpec],
) -> Result<ChaosPhaseRun, FaultPhaseError> {
    run_closed(system, nodes, ppn, phase, faults, Observe::default())
}

/// The closed-loop face of [`execute`]: every rank's stream is present
/// at entry.
pub(crate) fn run_closed(
    system: &dyn StorageSystem,
    nodes: u32,
    ppn: u32,
    phase: &PhaseSpec,
    faults: &[FaultSpec],
    observe: Observe<'_>,
) -> Result<ChaosPhaseRun, FaultPhaseError> {
    let (measured, report, evidence) =
        execute(system, nodes, ppn, phase, &Arrival::Closed, faults, observe)?;
    let Measured::Closed(outcome) = measured else {
        unreachable!("a closed arrival measures a closed-loop outcome")
    };
    Ok(ChaosPhaseRun {
        outcome,
        report,
        evidence,
    })
}

/// What one phase run measured, by arrival discipline.
enum Measured {
    Closed(PhaseOutcome),
    Open(OpenLoopOutcome),
}

/// The phase executor: provisions the system, places the phase's work
/// (every rank's stream at entry, or a seeded arrival schedule per
/// client unit), resolves the fault schedule against the planned graph
/// and drives the network once.
fn execute(
    system: &dyn StorageSystem,
    nodes: u32,
    ppn: u32,
    phase: &PhaseSpec,
    arrival: &Arrival,
    faults: &[FaultSpec],
    observe: Observe<'_>,
) -> Result<(Measured, FaultRunReport, ChaosEvidence), FaultPhaseError> {
    phase.validate();
    assert!(nodes >= 1, "need at least one node");
    assert!(ppn >= 1, "need at least one rank per node");

    let mut net = FlowNet::new();
    // Attached before provisioning so the flow log sees every resource
    // registration; the provenance probe stacks beside it. Both are
    // pure listeners, so the provisioned network and everything
    // downstream are bit-identical either way.
    let probe = observe
        .trace
        .is_some()
        .then(|| FlowLogHandle::attach(&mut net));
    let blame_probe = observe
        .provenance
        .then(|| ProvenanceHandle::attach(&mut net));
    let prov = system.provision_classed(&mut net, nodes, ppn, phase, &PlanOptions::auto(faults));
    assert_eq!(
        prov.client_nodes(),
        nodes as usize,
        "{}: provision covered {} client nodes out of {}",
        system.name(),
        prov.client_nodes(),
        nodes
    );

    // Per-stream ceiling with per-op latency folded in. Each rank is a
    // blocking requester, so its peak rate is one-operation-at-a-time.
    // Shared-file (N-1) runs additionally pay lock/consistency traffic
    // per operation — the "contention, file locking and metadata
    // overhead" that §IV.C.1 gives for preferring N-N. Lock hold times
    // grow with the number of ranks contending for ranges of one file.
    let lock_latency = shared_file_lock_latency(phase, nodes, ppn);
    let stream_cap = {
        let base = prov.effective_stream_bw(phase.transfer_size);
        if lock_latency > 0.0 && base.is_finite() && base > 0.0 {
            phase.transfer_size / (phase.transfer_size / base + lock_latency)
        } else if lock_latency > 0.0 {
            phase.transfer_size / lock_latency
        } else {
            base
        }
    };
    // One client unit per node in an expanded plan, per node
    // equivalence class in an aggregated one: `(path, members)`. A
    // unit's flows carry its index as tag, its member count as
    // `represents` (so flows-started stays per-node-equivalent), and
    // the per-member stream cap.
    let units: Vec<(&[ResourceId], u32)> = if prov.classes.is_empty() {
        prov.node_paths.iter().map(|p| (p.as_slice(), 1)).collect()
    } else {
        prov.classes
            .iter()
            .map(|c| (c.path.as_slice(), c.members.len() as u32))
            .collect()
    };
    let unit_flow = |unit: usize, bytes: f64| {
        let (path, members) = units[unit];
        let spec = FlowSpec::new(path.to_vec(), bytes)
            .with_represents(members)
            .with_tag(unit as u64);
        if stream_cap.is_finite() && stream_cap > 0.0 {
            spec.with_rate_cap(stream_cap)
        } else {
            spec
        }
    };

    // A closed-loop run keeps its steady-state snapshot (utilization
    // and binding resource with every rank active); an open-loop run
    // has none and queues its arrivals instead.
    let mut arrivals: Vec<(f64, FlowSpec)> = Vec::new();
    let mut ops_offered = 0u64;
    let closed_loop = match *arrival {
        Arrival::Closed => {
            for (unit, &(_, members)) in units.iter().enumerate() {
                net.add_flow(
                    unit_flow(unit, phase.bytes_per_rank).with_multiplicity(members * ppn),
                );
            }
            Some(steady_state_bottleneck(&mut net, &prov))
        }
        Arrival::Open {
            rate,
            discipline,
            duration,
            seed,
        } => {
            // Each unit offers the per-node rate; a class arrival
            // carries the class multiplicity and records `members`
            // observations per completion, so aggregated and expanded
            // decks describe the same offered load.
            let op_code = match phase.op {
                hcs_devices::IoOp::Write => 0,
                hcs_devices::IoOp::Read => 1,
            };
            let size_code = phase.transfer_size.max(1.0).log2().round() as u32;
            let arrival_rng = SimRng::new(seed);
            for (unit, &(_, members)) in units.iter().enumerate() {
                let mut rng = arrival_rng.split_idx("open-arrivals", unit as u64);
                let times = hcs_simkit::arrival_times(
                    discipline.as_simkit(),
                    rate / nodes as f64,
                    duration,
                    &mut rng,
                );
                ops_offered += members as u64 * times.len() as u64;
                for t in times {
                    let spec = unit_flow(unit, phase.transfer_size)
                        .with_multiplicity(members)
                        .with_op(op_code, size_code);
                    arrivals.push((t, spec));
                }
            }
            assert!(
                ops_offered > 0,
                "open-loop window injected no operations (rate {rate} ops/s x {duration} s \
                 across {nodes} nodes); increase the rate or the duration"
            );
            None
        }
    };

    let timeline = resolve_faults_planned(faults, &net, &prov)?;
    let entry_capacities = net.capacity_snapshot();
    let mut unit_end = vec![0.0_f64; units.len()];
    let mut histogram = LatencyHistogram::new();
    let mut ops_completed = 0u64;
    let mut bytes = 0.0;
    let report = net
        .drive(arrivals, &timeline, |_, c| {
            let unit = c.tag as usize;
            if closed_loop.is_some() {
                unit_end[unit] = c.at;
            } else {
                let weight = units[unit].1 as u64;
                histogram.record_n(c.latency, weight);
                ops_completed += weight;
                bytes += weight as f64 * phase.transfer_size;
            }
        })
        .map_err(|e| FaultPhaseError::Stalled {
            at: e.at,
            starved: e.starved,
        })?;
    let evidence = ChaosEvidence {
        entry_capacities,
        terminal_capacities: net.capacity_snapshot(),
        resolved_events: timeline.len(),
    };

    let blame_log = blame_probe.map(|p| p.snapshot());
    let (measured, traced_seconds) = match closed_loop {
        Some((utilization, bottleneck)) => {
            // Metadata cost: charged once per file per rank (N-N: one
            // file each); a shared file amortizes opens across the job.
            let meta_cost = if phase.file_per_proc {
                prov.metadata_latency
            } else {
                prov.metadata_latency / (nodes as f64 * ppn as f64)
            };
            // A class's completion is every member's completion.
            let per_node_end = if prov.classes.is_empty() {
                unit_end
            } else {
                let mut per_node = vec![0.0_f64; nodes as usize];
                for (class, &end) in prov.classes.iter().zip(&unit_end) {
                    for &m in &class.members {
                        per_node[m as usize] = end;
                    }
                }
                per_node
            };
            let duration = per_node_end.iter().fold(0.0_f64, |a, &b| a.max(b)) + meta_cost;
            let total_bytes = phase.total_bytes(nodes, ppn);
            let outcome = PhaseOutcome {
                nodes,
                ppn,
                total_bytes,
                duration,
                agg_bandwidth: total_bytes / duration,
                per_node_duration: per_node_end.iter().map(|t| t + meta_cost).collect(),
                utilization,
                bottleneck,
            };
            (Measured::Closed(outcome), duration)
        }
        None => {
            let provenance = blame_log
                .as_ref()
                .map(|log| ProvenanceMetrics::from_log(log, histogram.p99().unwrap_or(0.0)));
            let outcome = OpenLoopOutcome {
                nodes,
                ppn,
                ops_offered,
                ops_completed,
                total_bytes: bytes,
                end: report.end,
                agg_bandwidth: bytes / report.end,
                histogram,
                report,
                provenance,
            };
            (Measured::Open(outcome), report.end)
        }
    };
    if let (Some((recorder, label)), Some(probe)) = (observe.trace, probe) {
        // Blame annotation spans share the phase's clock frame:
        // merge_events does not advance the clock, absorb_phase does.
        if let Some(log) = &blame_log {
            recorder.merge_events(&crate::telemetry::blame_spans(label, log));
        }
        recorder.absorb_phase(label, &probe.snapshot(), &prov.stage_kinds, traced_seconds);
    }
    Ok((measured, report, evidence))
}

/// Steady-state snapshot with every rank active: which resource binds?
/// (Rate caps are per-flow constraints, not resources; if no resource
/// saturates, the streams themselves are the limit.) Ties on the
/// utilization ratio break toward the earliest resource in provisioning
/// order — client side first — so attribution is a function of the
/// deployment graph, not of iterator internals.
fn steady_state_bottleneck(
    net: &mut FlowNet,
    prov: &crate::system::Provisioned,
) -> (Vec<(String, f64, f64)>, Option<Bottleneck>) {
    let utilization = net.resource_utilization();
    let kind_of: std::collections::HashMap<usize, StageKind> = prov
        .stage_kinds
        .iter()
        .map(|(id, kind)| (id.index(), *kind))
        .collect();
    let mut best: Option<(usize, f64)> = None;
    for (i, (_, alloc, cap)) in utilization.iter().enumerate() {
        if *cap <= 0.0 {
            continue;
        }
        let ratio = alloc / cap;
        if ratio >= 0.99 && best.is_none_or(|(_, r)| ratio > r) {
            best = Some((i, ratio));
        }
    }
    let bottleneck = best.map(|(i, _)| Bottleneck {
        kind: *kind_of
            .get(&i)
            .unwrap_or_else(|| panic!("resource {} missing from stage_kinds", utilization[i].0)),
        name: utilization[i].0.clone(),
    });
    (utilization, bottleneck)
}

/// Result of one open-loop phase run: throughput accounting plus the
/// per-operation latency distribution.
#[derive(Clone, Debug, PartialEq)]
pub struct OpenLoopOutcome {
    /// Client node count.
    pub nodes: u32,
    /// Ranks per node (provisioning scale; arrivals are per node).
    pub ppn: u32,
    /// Operations injected over the window (member-weighted under
    /// aggregation).
    pub ops_offered: u64,
    /// Operations completed (equals [`Self::ops_offered`] — the drive
    /// loop drains the backlog after the window closes).
    pub ops_completed: u64,
    /// Bytes transferred across all completed operations.
    pub total_bytes: f64,
    /// Simulated completion time of the last operation, seconds.
    pub end: f64,
    /// Achieved throughput: [`Self::total_bytes`] over [`Self::end`].
    pub agg_bandwidth: f64,
    /// Submit→finish latency of every operation (queueing during
    /// deferred admission and outage stalls included), merged across
    /// all client units with class multiplicity.
    pub histogram: LatencyHistogram,
    /// The engine's stall/event accounting for the run.
    pub report: FaultRunReport,
    /// Per-resource latency-blame attribution, present only when the
    /// run was asked to observe provenance. The probe is a pure
    /// listener, so every other field is bit-identical whether or not
    /// this one is populated.
    pub provenance: Option<ProvenanceMetrics>,
}

/// Runs one phase open loop: operations of `transfer_size` bytes are
/// injected at seeded inter-arrival times instead of every rank
/// re-issuing on completion, and the headline is the per-operation
/// latency distribution.
///
/// Each client node offers `rate / nodes` operations per second over
/// `duration` simulated seconds (gaps per the arrival discipline, one
/// independent substream per node unit). Under class aggregation one
/// member-equivalent schedule is drawn per class and every arrival
/// carries the class multiplicity, so each completion records
/// `members` observations — the merged histogram is the class-weighted
/// population. Provisioning, per-stream caps, the fault machinery and
/// the drive loop are the closed-loop runner's: `faults` resolve
/// against the same planned graph and compose with the arrival
/// schedule in one deterministic drive.
///
/// With `provenance` set, a second pure-listener probe records every
/// op's exact latency decomposition (queueing + stall + per-resource
/// blame + ideal) and the outcome carries the aggregated
/// [`ProvenanceMetrics`]; every other field stays bit-identical to an
/// unobserved run.
///
/// # Panics
/// Panics on a `Closed` arrival (the executor validates specs first),
/// an invalid rate/duration, or a window so short it injects nothing.
#[allow(clippy::too_many_arguments)]
pub fn run_phase_open_loop(
    system: &dyn StorageSystem,
    nodes: u32,
    ppn: u32,
    phase: &PhaseSpec,
    arrival: &Arrival,
    faults: &[FaultSpec],
    telemetry: Option<(&mut Recorder, &str)>,
    provenance: bool,
) -> Result<OpenLoopOutcome, FaultPhaseError> {
    assert!(
        !arrival.is_closed(),
        "run_phase_open_loop needs an Open arrival spec"
    );
    arrival.check().expect("validated arrival spec");
    let observe = Observe {
        trace: telemetry,
        provenance,
    };
    match execute(system, nodes, ppn, phase, arrival, faults, observe)? {
        (Measured::Open(outcome), _, _) => Ok(outcome),
        (Measured::Closed(_), _, _) => {
            unreachable!("an open arrival measures an open-loop outcome")
        }
    }
}

/// Extra per-operation latency paid by N-1 (shared-file) access.
///
/// Writers take extent locks on the shared file; with `r` ranks the
/// expected wait grows ~√r (lock queues lengthen while hold times stay
/// constant). Readers only pay a small alignment/consistency cost.
/// N-N runs pay nothing — which is why the paper benchmarks N-N.
fn shared_file_lock_latency(phase: &PhaseSpec, nodes: u32, ppn: u32) -> f64 {
    if phase.file_per_proc {
        return 0.0;
    }
    let ranks = (nodes as f64) * (ppn as f64);
    match phase.op {
        hcs_devices::IoOp::Write => 60e-6 * ranks.sqrt(),
        hcs_devices::IoOp::Read => 15e-6 * ranks.ln_1p(),
    }
}

/// Runs a phase `reps` times with the system's run-to-run noise applied
/// (shared-machine contention, §IV.C: tests are repeated 10 times).
///
/// Noise is a deterministic, seeded, mean-one multiplicative jitter on
/// each repetition's duration, applied analytically to one noise-free
/// base run (repetitions add no flow activity). With `trace`, that base
/// run's telemetry lands in the recorder under the given label.
///
/// Under a non-empty fault schedule the base run is faulted and the
/// outcome is paired with [`ResilienceMetrics`] against a fault-free
/// twin: the identical untraced noise-free run without the schedule —
/// same system, same graph, same seeds — so the slowdown factor is an
/// exact like-for-like comparison. The noise stream is consumed
/// identically with or without faults or a trace (common random
/// numbers).
#[allow(clippy::too_many_arguments)]
pub fn run_phase_repeated(
    system: &dyn StorageSystem,
    nodes: u32,
    ppn: u32,
    phase: &PhaseSpec,
    faults: &[FaultSpec],
    reps: u32,
    rng: &mut SimRng,
    trace: Option<(&mut Recorder, &str)>,
) -> Result<(RepeatedOutcome, Option<ResilienceMetrics>), FaultPhaseError> {
    assert!(reps >= 1, "need at least one repetition");
    let observe = Observe {
        trace,
        provenance: false,
    };
    let base = run_closed(system, nodes, ppn, phase, faults, observe)?;
    let resilience = (!faults.is_empty()).then(|| {
        let twin = run_phase(system, nodes, ppn, phase);
        resilience_of(&twin, &base.outcome, &base.report)
    });
    Ok((
        jittered_outcome(system, &base.outcome, reps, rng),
        resilience,
    ))
}

/// Folds a faulted run and its fault-free twin into the serializable
/// resilience record reports render.
fn resilience_of(
    twin: &PhaseOutcome,
    faulted: &PhaseOutcome,
    report: &FaultRunReport,
) -> ResilienceMetrics {
    ResilienceMetrics {
        slowdown_factor: faulted.duration / twin.duration,
        fault_free_seconds: twin.duration,
        faulted_seconds: faulted.duration,
        stall_seconds: report.stall_seconds,
        drain_seconds: report
            .last_event_at
            .map(|t| (report.end - t).max(0.0))
            .unwrap_or(0.0),
        fault_events: report.events_applied,
    }
}

/// Applies the system's run-to-run noise to a noise-free base outcome:
/// one mean-one multiplicative jitter draw per repetition.
fn jittered_outcome(
    system: &dyn StorageSystem,
    base: &PhaseOutcome,
    reps: u32,
    rng: &mut SimRng,
) -> RepeatedOutcome {
    let sigma = system.noise_sigma();
    let bandwidths: Vec<f64> = (0..reps)
        .map(|_| {
            let factor = rng.jitter_factor(sigma);
            base.total_bytes / (base.duration * factor)
        })
        .collect();
    RepeatedOutcome::from_bandwidths(base.nodes, base.ppn, bandwidths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::UniformSystem;
    use hcs_simkit::units::{GIB, MIB};

    /// A fault-free, untraced [`run_phase_repeated`].
    fn repeated(
        sys: &dyn StorageSystem,
        nodes: u32,
        ppn: u32,
        phase: &PhaseSpec,
        reps: u32,
        rng: &mut SimRng,
    ) -> RepeatedOutcome {
        let (outcome, resilience) =
            run_phase_repeated(sys, nodes, ppn, phase, &[], reps, rng, None).unwrap();
        assert!(resilience.is_none());
        outcome
    }

    #[test]
    fn single_node_hits_stream_cap_or_pool() {
        let sys = UniformSystem::new("toy", 100.0 * GIB).with_stream_bw(1.0 * GIB);
        let phase = PhaseSpec::seq_write(MIB, GIB);
        let out = run_phase(&sys, 1, 1, &phase);
        // One rank, capped by the 1 GiB/s stream.
        assert!(out.agg_bandwidth <= 1.0 * GIB * 1.001);
        assert!(out.agg_bandwidth > 0.9 * GIB);
    }

    #[test]
    fn aggregate_saturates_at_pool() {
        let sys = UniformSystem::new("toy", 10.0 * GIB).with_stream_bw(1.0 * GIB);
        let phase = PhaseSpec::seq_write(MIB, GIB);
        let small = run_phase(&sys, 4, 1, &phase);
        let big = run_phase(&sys, 64, 1, &phase);
        assert!(small.agg_bandwidth < 4.2 * GIB);
        assert!(
            (big.agg_bandwidth - 10.0 * GIB).abs() < 0.1 * GIB,
            "pool should saturate: {}",
            big.agg_bandwidth / GIB
        );
    }

    #[test]
    fn duration_uses_slowest_rank() {
        let sys = UniformSystem::new("toy", 10.0 * GIB);
        let phase = PhaseSpec::seq_read(MIB, GIB);
        let out = run_phase(&sys, 2, 2, &phase);
        let max = out.per_node_duration.iter().fold(0.0_f64, |a, &b| a.max(b));
        assert!((out.duration - max).abs() < 1e-9);
    }

    #[test]
    fn repeated_runs_are_deterministic() {
        let sys = UniformSystem::new("toy", 10.0 * GIB);
        let phase = PhaseSpec::seq_read(MIB, GIB);
        let mut r1 = SimRng::new(7);
        let mut r2 = SimRng::new(7);
        let a = repeated(&sys, 2, 4, &phase, 10, &mut r1);
        let b = repeated(&sys, 2, 4, &phase, 10, &mut r2);
        assert_eq!(a.bandwidths, b.bandwidths);
        assert_eq!(a.summary.count, 10);
    }

    #[test]
    fn noise_is_mean_one_ish() {
        let sys = UniformSystem::new("toy", 10.0 * GIB);
        let phase = PhaseSpec::seq_read(MIB, GIB);
        let mut rng = SimRng::new(42);
        let rep = repeated(&sys, 2, 4, &phase, 200, &mut rng);
        let base = run_phase(&sys, 2, 4, &phase).agg_bandwidth;
        assert!((rep.summary.mean / base - 1.0).abs() < 0.03);
    }

    #[test]
    fn shared_file_slower_than_file_per_proc() {
        // §IV.C.1: N-1 introduces contention/locking the paper avoids.
        let sys = UniformSystem::new("toy", 10_000.0 * GIB).with_stream_bw(GIB);
        let nn = PhaseSpec::seq_write(MIB, GIB);
        let mut n1 = nn.clone();
        n1.file_per_proc = false;
        let bw_nn = run_phase(&sys, 4, 16, &nn).agg_bandwidth;
        let bw_n1 = run_phase(&sys, 4, 16, &n1).agg_bandwidth;
        assert!(
            bw_n1 < 0.8 * bw_nn,
            "N-1 write contention: {bw_n1} vs {bw_nn}"
        );

        // And the gap widens with scale.
        let gap_small =
            run_phase(&sys, 1, 4, &n1).agg_bandwidth / run_phase(&sys, 1, 4, &nn).agg_bandwidth;
        let gap_large =
            run_phase(&sys, 16, 16, &n1).agg_bandwidth / run_phase(&sys, 16, 16, &nn).agg_bandwidth;
        assert!(gap_large < gap_small, "{gap_large} vs {gap_small}");
    }

    #[test]
    fn shared_file_reads_pay_little() {
        let sys = UniformSystem::new("toy", 10_000.0 * GIB).with_stream_bw(GIB);
        let nn = PhaseSpec::seq_read(MIB, GIB);
        let mut n1 = nn.clone();
        n1.file_per_proc = false;
        let bw_nn = run_phase(&sys, 4, 16, &nn).agg_bandwidth;
        let bw_n1 = run_phase(&sys, 4, 16, &n1).agg_bandwidth;
        assert!(
            bw_n1 > 0.85 * bw_nn,
            "reads barely contend: {bw_n1} vs {bw_nn}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let sys = UniformSystem::new("toy", GIB);
        run_phase(&sys, 0, 1, &PhaseSpec::seq_read(MIB, GIB));
    }

    #[test]
    fn outage_shifts_completion_by_exactly_the_window() {
        let sys = UniformSystem::new("toy", GIB);
        let phase = PhaseSpec::seq_write(MIB, GIB);
        let twin = run_phase(&sys, 2, 4, &phase);
        let faults = [FaultSpec::outage(StageKind::ServerPool, 0.1, 0.35)];
        let run = run_phase_chaos(&sys, 2, 4, &phase, &faults).unwrap();
        let (out, report) = (run.outcome, run.report);
        // Nothing moves during a full pool outage, so completion shifts
        // by the window width and the stall is the whole window.
        assert!((out.duration - (twin.duration + 0.25)).abs() < 1e-9);
        assert!((report.stall_seconds - 0.25).abs() < 1e-9);
        assert_eq!(report.events_applied, 2);
    }

    #[test]
    fn degradation_slows_without_stalling() {
        let sys = UniformSystem::new("toy", GIB);
        let phase = PhaseSpec::seq_write(MIB, GIB);
        let twin = run_phase(&sys, 2, 4, &phase);
        let faults = [FaultSpec::degrade(StageKind::ServerPool, 0.1, 0.35, 0.5)];
        let run = run_phase_chaos(&sys, 2, 4, &phase, &faults).unwrap();
        let (out, report) = (run.outcome, run.report);
        assert!(out.duration > twin.duration);
        assert!(out.duration < twin.duration + 0.25);
        assert_eq!(report.stall_seconds, 0.0);
    }

    #[test]
    fn repeated_faulted_reports_resilience_and_paired_noise() {
        let sys = UniformSystem::new("toy", GIB);
        let phase = PhaseSpec::seq_write(MIB, GIB);
        let faults = [FaultSpec::outage(StageKind::ServerPool, 0.1, 0.35)];
        let mut r1 = SimRng::new(7);
        let (outcome, res) =
            run_phase_repeated(&sys, 2, 4, &phase, &faults, 10, &mut r1, None).unwrap();
        let res = res.expect("a faulted run reports resilience");
        assert!(res.slowdown_factor > 1.0);
        assert!((res.faulted_seconds - (res.fault_free_seconds + 0.25)).abs() < 1e-9);
        assert!((res.stall_seconds - 0.25).abs() < 1e-9);
        assert_eq!(res.fault_events, 2);
        // Common random numbers: the faulted repetitions see the exact
        // noise stream of the fault-free twin, so every rep's ratio to
        // it is the same duration factor.
        let mut r2 = SimRng::new(7);
        let twin = repeated(&sys, 2, 4, &phase, 10, &mut r2);
        for (f, t) in outcome.bandwidths.iter().zip(&twin.bandwidths) {
            let ratio = t / f;
            assert!((ratio - res.slowdown_factor).abs() < 1e-9, "{ratio}");
        }
    }

    #[test]
    fn fault_on_unplanned_stage_kind_is_a_typed_error() {
        let sys = UniformSystem::new("toy", GIB);
        let phase = PhaseSpec::seq_write(MIB, GIB);
        let faults = [FaultSpec::outage(StageKind::Gateway, 0.1, 0.35)];
        let err = run_phase_chaos(&sys, 2, 4, &phase, &faults).unwrap_err();
        match &err {
            FaultPhaseError::UnmatchedStage { stage, name } => {
                assert_eq!(*stage, StageKind::Gateway);
                assert!(name.is_none());
            }
            other => panic!("expected UnmatchedStage, got {other}"),
        }
        assert!(err.to_string().contains("no planned stage"));
    }

    #[test]
    fn invalid_fault_window_is_a_typed_error() {
        let sys = UniformSystem::new("toy", GIB);
        let phase = PhaseSpec::seq_write(MIB, GIB);
        let faults = [FaultSpec::outage(StageKind::ServerPool, 3.0, 1.0)];
        let err = run_phase_chaos(&sys, 2, 4, &phase, &faults).unwrap_err();
        assert!(matches!(err, FaultPhaseError::InvalidSpec(_)), "{err}");
    }

    #[test]
    fn per_node_stage_fault_fans_out_to_every_mount() {
        // A mount outage on a per-node stage must pause both nodes'
        // mounts (resource names "toy:mount0", "toy:mount1").
        let sys = UniformSystem::new("toy", 100.0 * GIB).with_node_bw(GIB);
        let phase = PhaseSpec::seq_write(MIB, GIB);
        let twin = run_phase(&sys, 2, 4, &phase);
        let faults = [FaultSpec::outage(StageKind::ClientMount, 0.1, 0.3)];
        let run = run_phase_chaos(&sys, 2, 4, &phase, &faults).unwrap();
        let (out, report) = (run.outcome, run.report);
        assert!((out.duration - (twin.duration + 0.2)).abs() < 1e-9);
        // Two mount resources, each with an outage + recovery event.
        assert_eq!(report.events_applied, 4);
    }

    #[test]
    fn open_loop_low_load_latency_is_the_service_time() {
        use crate::scenario::Discipline;
        let sys = UniformSystem::new("toy", 100.0 * GIB).with_stream_bw(GIB);
        let phase = PhaseSpec::seq_write(MIB, GIB);
        let arrival = Arrival::Open {
            rate: 40.0,
            discipline: Discipline::Poisson,
            duration: 0.5,
            seed: 1,
        };
        let out = run_phase_open_loop(&sys, 2, 4, &phase, &arrival, &[], None, false).unwrap();
        assert!(out.ops_offered > 0);
        assert_eq!(out.ops_completed, out.ops_offered);
        assert_eq!(out.histogram.count(), out.ops_completed);
        // 1 MiB over a 1 GiB/s stream ≈ 0.98 ms; at 20 ops/s/node the
        // streams barely overlap, so even the tail sits near service
        // time (one bucket width of slack).
        let service = MIB / GIB;
        assert!(
            out.histogram.p50().unwrap() >= service * 0.9,
            "{:?}",
            out.histogram.p50()
        );
        assert!(
            out.histogram.p999().unwrap() < service * 3.0,
            "{:?}",
            out.histogram.p999()
        );
        assert!((out.total_bytes - out.ops_completed as f64 * MIB).abs() < 1.0);
        assert!(out.end > 0.0 && out.agg_bandwidth > 0.0);
    }

    #[test]
    fn open_loop_is_seed_deterministic() {
        use crate::scenario::Discipline;
        let sys = UniformSystem::new("toy", 10.0 * GIB).with_stream_bw(GIB);
        let phase = PhaseSpec::seq_write(MIB, GIB);
        let arrival = Arrival::Open {
            rate: 200.0,
            discipline: Discipline::Poisson,
            duration: 0.3,
            seed: 7,
        };
        let a = run_phase_open_loop(&sys, 2, 4, &phase, &arrival, &[], None, false).unwrap();
        let b = run_phase_open_loop(&sys, 2, 4, &phase, &arrival, &[], None, false).unwrap();
        assert_eq!(a.histogram, b.histogram);
        assert_eq!(a.end.to_bits(), b.end.to_bits());
        let other = Arrival::Open {
            rate: 200.0,
            discipline: Discipline::Poisson,
            duration: 0.3,
            seed: 8,
        };
        let c = run_phase_open_loop(&sys, 2, 4, &phase, &other, &[], None, false).unwrap();
        assert_ne!(a.end.to_bits(), c.end.to_bits(), "seed matters");
    }

    #[test]
    fn open_loop_provenance_observes_without_perturbing() {
        use crate::scenario::Discipline;
        let sys = UniformSystem::new("toy", 10.0 * GIB).with_stream_bw(GIB);
        let phase = PhaseSpec::seq_write(MIB, GIB);
        let arrival = Arrival::Open {
            rate: 400.0,
            discipline: Discipline::Poisson,
            duration: 0.3,
            seed: 5,
        };
        let plain = run_phase_open_loop(&sys, 2, 4, &phase, &arrival, &[], None, false).unwrap();
        let observed = run_phase_open_loop(&sys, 2, 4, &phase, &arrival, &[], None, true).unwrap();
        // The probe is a pure listener: every simulated value is
        // bit-identical with it attached.
        assert_eq!(plain.histogram, observed.histogram);
        assert_eq!(plain.end.to_bits(), observed.end.to_bits());
        assert_eq!(plain.report, observed.report);
        assert!(plain.provenance.is_none());
        let prov = observed.provenance.expect("provenance collected");
        assert_eq!(prov.ops, observed.ops_completed);
        // Weighted component sums reassemble total latency (per-op the
        // chain is bitwise exact; aggregation reorders additions, so
        // allow accumulated rounding only).
        let reassembled =
            prov.queueing_seconds + prov.stall_seconds + prov.blame_seconds + prov.ideal_seconds;
        assert!(
            (reassembled - prov.latency_seconds).abs() <= 1e-9 * prov.latency_seconds.max(1.0),
            "{reassembled} vs {}",
            prov.latency_seconds
        );
        // The tail threshold is the point's own p99.
        assert_eq!(
            prov.tail_threshold.to_bits(),
            observed.histogram.p99().unwrap().to_bits()
        );
        assert!(prov.tail_ops > 0 || prov.tail_threshold >= 0.0);
    }

    #[test]
    fn open_loop_outage_lifts_the_tail_and_bounds_the_stall() {
        use crate::scenario::Discipline;
        let sys = UniformSystem::new("toy", 100.0 * GIB).with_stream_bw(GIB);
        let phase = PhaseSpec::seq_write(MIB, GIB);
        let arrival = Arrival::Open {
            rate: 100.0,
            discipline: Discipline::Poisson,
            duration: 0.5,
            seed: 3,
        };
        let clean = run_phase_open_loop(&sys, 2, 4, &phase, &arrival, &[], None, false).unwrap();
        let faults = [FaultSpec::outage(StageKind::ServerPool, 0.1, 0.3)];
        let faulted =
            run_phase_open_loop(&sys, 2, 4, &phase, &arrival, &faults, None, false).unwrap();
        // Same offered schedule, so the same population completes.
        assert_eq!(faulted.ops_completed, clean.ops_completed);
        // Ops caught by the 0.2 s outage wait it out: the tail grows by
        // roughly the window, and the all-stopped stall never exceeds it.
        assert!(
            faulted.histogram.p99().unwrap() > clean.histogram.p99().unwrap() + 0.1,
            "{:?} vs {:?}",
            faulted.histogram.p99(),
            clean.histogram.p99()
        );
        assert!(faulted.report.stall_seconds <= 0.2 + 1e-9);
        assert!(faulted.report.stall_seconds > 0.0);
        assert_eq!(faulted.report.events_applied, 2);
    }

    #[test]
    #[should_panic(expected = "needs an Open arrival spec")]
    fn open_loop_rejects_closed_arrival() {
        let sys = UniformSystem::new("toy", GIB);
        let phase = PhaseSpec::seq_write(MIB, GIB);
        let _ = run_phase_open_loop(&sys, 1, 1, &phase, &Arrival::Closed, &[], None, false);
    }

    #[test]
    fn jitter_fault_resolves_to_steps_plus_recovery() {
        let sys = UniformSystem::new("toy", GIB);
        let phase = PhaseSpec::seq_write(MIB, GIB);
        let spec = FaultSpec {
            stage: StageKind::ServerPool,
            name: None,
            start: 0.1,
            end: 0.5,
            fault: FaultKind::Jitter {
                seed: 11,
                amplitude: 0.3,
                steps: 4,
            },
        };
        let run = run_phase_chaos(&sys, 2, 4, &phase, &[spec]).unwrap();
        let (out, report) = (run.outcome, run.report);
        let twin = run_phase(&sys, 2, 4, &phase);
        // 4 slices + 1 recovery on the single pool resource.
        assert_eq!(report.events_applied, 5);
        // Mean-one flapping perturbs but does not wreck the run.
        assert!((out.duration / twin.duration - 1.0).abs() < 0.5);
        // And it is deterministic.
        let spec2 = FaultSpec {
            stage: StageKind::ServerPool,
            name: None,
            start: 0.1,
            end: 0.5,
            fault: FaultKind::Jitter {
                seed: 11,
                amplitude: 0.3,
                steps: 4,
            },
        };
        let out2 = run_phase_chaos(&sys, 2, 4, &phase, &[spec2])
            .unwrap()
            .outcome;
        assert_eq!(out.duration.to_bits(), out2.duration.to_bits());
    }
}
