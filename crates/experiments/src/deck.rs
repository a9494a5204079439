//! The scenario executor: expands a [`Deck`], resolves each point's
//! system through the [`crate::registry`], and runs its workload,
//! returning typed results that plug straight into the
//! [`crate::series`] figure machinery.
//!
//! There is **one** execution path: every figure module, ablation, the
//! `hcs run` CLI command and user-authored scenario files all come
//! through here, so a point that appears in a figure can be re-run in
//! isolation from its JSON form and reproduce the same bytes (the
//! benchmarks seed their noise from the config alone — common random
//! numbers — so results are independent of which deck, worker or order
//! executed the point).

use serde::{Deserialize, Serialize};
use std::time::Instant;

use hcs_core::metrics::ResilienceMetrics;
use hcs_core::runner::{FaultPhaseError, OpenLoopOutcome};
use hcs_core::{
    Deck, DeckMetricsSummary, FaultSpec, IoOp, OpLatency, PointMetrics, Reconfigured, Recorder,
    Scenario, StageKind, StorageSystem, Workload,
};
use hcs_dftrace::Tracer;
use hcs_dlio::{run_dlio, DlioResult};
use hcs_ior::{run_ior_with, IorReport, IorRun};
use hcs_mdtest::{run_mdtest, MdtestReport};
use hcs_replay::{replay, ReplayResult};

use crate::metrics::{collect_point_metrics, deck_metrics_summary};
use crate::registry;
use crate::report::fmt;
use crate::sweep::parallel_sweep;

/// The typed result of one scenario point — one variant per workload
/// family, mirroring [`Workload`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[allow(clippy::large_enum_variant)]
pub enum WorkloadOutcome {
    /// An IOR report (bandwidth summary over repetitions).
    Ior(IorReport),
    /// A DLIO result (timeline decomposition + throughputs).
    Dlio(DlioResult),
    /// An MDTest report (create/stat/unlink rates).
    Mdtest(MdtestReport),
    /// A job-script outcome (per-step durations).
    Job(hcs_core::JobOutcome),
    /// A trace-replay result.
    Replay(ReplayResult),
}

impl WorkloadOutcome {
    /// The IOR report, panicking if the point ran another family.
    pub fn ior(&self) -> &IorReport {
        match self {
            WorkloadOutcome::Ior(r) => r,
            other => panic!("expected an IOR outcome, got {}", other.kind()),
        }
    }

    /// The DLIO result, panicking if the point ran another family.
    pub fn dlio(&self) -> &DlioResult {
        match self {
            WorkloadOutcome::Dlio(r) => r,
            other => panic!("expected a DLIO outcome, got {}", other.kind()),
        }
    }

    /// The MDTest report, panicking if the point ran another family.
    pub fn mdtest(&self) -> &MdtestReport {
        match self {
            WorkloadOutcome::Mdtest(r) => r,
            other => panic!("expected an MDTest outcome, got {}", other.kind()),
        }
    }

    /// The job outcome, panicking if the point ran another family.
    pub fn job(&self) -> &hcs_core::JobOutcome {
        match self {
            WorkloadOutcome::Job(r) => r,
            other => panic!("expected a job outcome, got {}", other.kind()),
        }
    }

    /// The replay result, panicking if the point ran another family.
    pub fn replay(&self) -> &ReplayResult {
        match self {
            WorkloadOutcome::Replay(r) => r,
            other => panic!("expected a replay outcome, got {}", other.kind()),
        }
    }

    /// The workload family label.
    pub fn kind(&self) -> &'static str {
        match self {
            WorkloadOutcome::Ior(_) => "ior",
            WorkloadOutcome::Dlio(_) => "dlio",
            WorkloadOutcome::Mdtest(_) => "mdtest",
            WorkloadOutcome::Job(_) => "job",
            WorkloadOutcome::Replay(_) => "replay",
        }
    }

    /// A one-line, human-readable summary for CLI output. Number
    /// formatting is shared with the `hcs report` renderer through
    /// [`crate::report::fmt`], so the report's cells and the run
    /// listing's headlines always agree digit-for-digit.
    pub fn headline(&self) -> String {
        match self {
            WorkloadOutcome::Ior(r) => {
                fmt::gbps_pm(r.outcome.summary.mean, r.outcome.summary.std_dev)
            }
            WorkloadOutcome::Dlio(r) => format!(
                "{}, {} samples/s app throughput",
                fmt::seconds(r.duration),
                fmt::rate(r.app_throughput)
            ),
            WorkloadOutcome::Mdtest(r) => format!(
                "create {} / stat {} / unlink {} ops/s",
                fmt::rate(r.create.mean),
                fmt::rate(r.stat.mean),
                fmt::rate(r.unlink.mean)
            ),
            WorkloadOutcome::Job(r) => format!(
                "{} total, {} I/O",
                fmt::seconds(r.total),
                fmt::percent(r.io_fraction())
            ),
            WorkloadOutcome::Replay(r) => format!(
                "{} replayed, {} I/O per process",
                fmt::seconds(r.duration),
                fmt::seconds(r.mean.io_total)
            ),
        }
    }
}

/// One executed deck point.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PointResult {
    /// The (expanded) scenario that produced this result.
    pub scenario: Scenario,
    /// The storage system's display name ("VAST", "GPFS", ...).
    pub system: String,
    /// Client nodes the point ran at.
    pub nodes: u32,
    /// Processes per node the point ran at.
    pub ppn: u32,
    /// The typed workload result.
    pub outcome: WorkloadOutcome,
    /// Per-point observability bundle, populated only by the metered
    /// executors (`--metrics`). Absent fields serialize to nothing, so
    /// un-metered results stay byte-compatible with earlier releases.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub metrics: Option<PointMetrics>,
}

/// An executed deck: every expanded point with its typed result, in
/// expansion order.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DeckResult {
    /// The deck's name (doubles as the output artifact id).
    pub name: String,
    /// The deck's title.
    pub title: String,
    /// Results, one per expanded point, in expansion order.
    pub points: Vec<PointResult>,
    /// Cross-rep statistics and verdict over the whole deck, populated
    /// only by the metered executors (`--metrics`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub metrics: Option<DeckMetricsSummary>,
}

impl DeckResult {
    /// Groups consecutive points by their scenario's system key,
    /// preserving expansion order — decks nest systems outermost, so
    /// each group is one figure series. The group label is the system's
    /// display name.
    pub fn by_system(&self) -> Vec<(String, Vec<&PointResult>)> {
        let mut groups: Vec<(String, String, Vec<&PointResult>)> = Vec::new();
        for p in &self.points {
            match groups.last_mut() {
                Some((key, _, members)) if *key == p.scenario.system => members.push(p),
                _ => groups.push((p.scenario.system.clone(), p.system.clone(), vec![p])),
            }
        }
        groups
            .into_iter()
            .map(|(_, label, members)| (label, members))
            .collect()
    }
}

/// Resolves a scenario's system through the registry and applies its
/// graph edits.
///
/// # Panics
/// Panics when the system name is not registered (the message lists the
/// valid names).
pub fn build_system(scenario: &Scenario) -> (Box<dyn StorageSystem>, u32) {
    let entry = registry::resolve(&scenario.system).unwrap_or_else(|| {
        panic!(
            "unknown system '{}' (known: {})",
            scenario.system,
            registry::names().join(", ")
        )
    });
    let base = entry.build();
    if scenario.edits.is_empty() {
        return (base, entry.full_ppn);
    }
    let edits = scenario.edits.clone();
    let system = Reconfigured::new(base, move |g| {
        for edit in &edits {
            edit.apply(g);
        }
    });
    (Box::new(system), entry.full_ppn)
}

/// Loads the Chrome-format trace a replay scenario names and checks
/// that it has replayable reads.
fn load_replay_trace(config: &hcs_core::scenario::ReplayConfig) -> Result<Tracer, String> {
    let path = config
        .trace
        .as_deref()
        .ok_or("replay needs a 'trace' path to a Chrome-format trace")?;
    hcs_replay::load_trace(path)
}

/// One run of a workload: its outcome, plus the resilience (faulted
/// closed loop) and open-loop extras only IOR measures.
type Dispatched = (
    WorkloadOutcome,
    Option<ResilienceMetrics>,
    Option<OpenLoopOutcome>,
);

/// The one match from a resolved workload to its engine. `run` carries
/// the point's arrival, faults, recorder and provenance flag: IOR takes
/// all four, DLIO and job scripts the recorder, and MDTest and replay
/// none (their capability-table row has no tracing, and
/// [`Scenario::check`] rejects faults and arrivals a family lacks).
fn dispatch(
    system: &dyn StorageSystem,
    workload: &Workload,
    nodes: u32,
    ppn: u32,
    run: IorRun<'_>,
) -> Result<Dispatched, FaultPhaseError> {
    let outcome = match workload {
        Workload::Ior(c) => {
            let out = run_ior_with(system, c, run)?;
            return Ok((
                WorkloadOutcome::Ior(out.report),
                out.resilience,
                out.open_loop,
            ));
        }
        Workload::Dlio(c) => WorkloadOutcome::Dlio(run_dlio(system, c, nodes, run.recorder)),
        Workload::Mdtest(c) => WorkloadOutcome::Mdtest(run_mdtest(system, c)),
        Workload::Job(j) => WorkloadOutcome::Job(j.run(system, nodes, ppn, run.recorder)),
        Workload::Replay(c) => {
            let trace = load_replay_trace(c).unwrap_or_else(|e| panic!("{e}"));
            WorkloadOutcome::Replay(replay(&trace, system, c))
        }
    };
    Ok((outcome, None, None))
}

/// Runs one already-resolved workload on a system, closed loop and
/// fault-free, through the dispatcher every scenario point takes: for
/// ablations that mutate backend fields directly (which a registry
/// name cannot express).
pub fn run_workload_on(
    system: &dyn StorageSystem,
    workload: &Workload,
    nodes: u32,
    ppn: u32,
) -> WorkloadOutcome {
    dispatch(system, workload, nodes, ppn, IorRun::default())
        .unwrap_or_else(|e| panic!("{e}"))
        .0
}

/// [`run_workload_on`] with telemetry. A family whose capability-table
/// row has no tracing (MDTest, replay) runs untraced and only
/// contributes its result.
pub fn run_workload_on_traced(
    system: &dyn StorageSystem,
    workload: &Workload,
    nodes: u32,
    ppn: u32,
    recorder: &mut Recorder,
) -> WorkloadOutcome {
    let run = IorRun {
        recorder: Some(recorder),
        ..IorRun::default()
    };
    dispatch(system, workload, nodes, ppn, run)
        .unwrap_or_else(|e| panic!("{e}"))
        .0
}

/// Distills an open-loop run into the point's latency row: one
/// [`OpLatency`] for the phase, labelled by its op and transfer size
/// (an IOR phase is homogeneous).
fn open_loop_latency(workload: &Workload, open: &OpenLoopOutcome) -> Vec<OpLatency> {
    let Workload::Ior(config) = workload else {
        unreachable!("open-loop runs are IOR-only");
    };
    let phase = config.phase();
    let op = match phase.op {
        IoOp::Write => "write",
        IoOp::Read => "read",
    };
    vec![OpLatency {
        op: op.to_string(),
        size_bytes: phase.transfer_size as u64,
        histogram: open.histogram.clone(),
    }]
}

/// Checks a deck before execution, returning a one-line diagnostic on
/// the first problem: an `offered_load` sweep over a closed-loop base,
/// an unknown system name, a point that fails [`Scenario::check`] (run
/// shape, workload parameters, graph edits, arrival spec, fault
/// windows, and faults or open-loop arrivals on a family whose
/// capability-table row lacks them), a replay trace that is missing,
/// unparseable or has no replayable reads, or a fault targeting a
/// stage the scenario's deployment plan does not contain. `hcs run`
/// calls this up front so bad decks exit with a message instead of a
/// panic backtrace.
///
/// Fault/plan mismatches are judged at *deck* level: every expanded
/// point is planned first, so a cross-protocol deck whose fault targets
/// a stage at no point (say a `ClientMount` outage swept over DAOS's
/// mountless library stack) is called out as impossible for the whole
/// deck, not blamed on whichever point happened to expand first. A
/// fault targets a stage under the runner's name-filter rule
/// ([`FaultSpec::targets`]).
pub fn validate_deck(deck: &Deck) -> Result<(), String> {
    if !deck.axes.offered_load.is_empty() && deck.base.arrival.is_closed() {
        return Err(format!(
            "deck '{}' sweeps offered_load but the base scenario's arrival is closed-loop; \
             give the base an open arrival spec (the sweep overrides its rate)",
            deck.name
        ));
    }
    // Planned (kind, name) pairs across every expanded point, the
    // faults that target a stage at some point, and the per-point
    // fault/plan mismatches, judged once every point is planned.
    let mut planned_union: Vec<(StageKind, String)> = Vec::new();
    let mut targeted: Vec<FaultSpec> = Vec::new();
    let mut unmatched: Vec<(String, FaultSpec)> = Vec::new();
    for scenario in deck.expand() {
        let entry = registry::resolve(&scenario.system).ok_or_else(|| {
            format!(
                "unknown system '{}' (known: {})",
                scenario.system,
                registry::names().join(", ")
            )
        })?;
        scenario
            .check(entry.full_ppn)
            .map_err(|e| format!("scenario '{}': {e}", scenario.name))?;
        if let Workload::Replay(c) = &scenario.workload {
            load_replay_trace(c).map_err(|e| format!("scenario '{}': {e}", scenario.name))?;
        }
        if scenario.faults.is_empty() {
            continue;
        }
        let Workload::Ior(config) = scenario.resolved_workload(entry.full_ppn) else {
            unreachable!("Scenario::check admits faults on the IOR family only");
        };
        let (system, _) = build_system(&scenario);
        let graph = system.plan(
            scenario.run_nodes(),
            scenario.run_ppn(entry.full_ppn),
            &config.phase(),
        );
        for st in &graph.stages {
            if !planned_union
                .iter()
                .any(|(k, n)| *k == st.kind && *n == st.name)
            {
                planned_union.push((st.kind, st.name.clone()));
            }
        }
        for spec in &scenario.faults {
            if graph
                .stages
                .iter()
                .any(|st| spec.targets(st, scenario.run_nodes()))
            {
                if !targeted.contains(spec) {
                    targeted.push(spec.clone());
                }
            } else {
                unmatched.push((
                    format!(
                        "scenario '{}': fault targets no planned stage (kind {}{}); planned stages: {}",
                        scenario.name,
                        spec.stage.label(),
                        spec.name
                            .as_deref()
                            .map(|n| format!(", name '{n}'"))
                            .unwrap_or_default(),
                        graph
                            .stages
                            .iter()
                            .map(|s| format!("{} '{}'", s.kind.label(), s.name))
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                    spec.clone(),
                ));
            }
        }
    }
    if let Some((per_point_msg, spec)) = unmatched.first() {
        if !targeted.contains(spec) {
            return Err(format!(
                "deck '{}': fault targets no planned stage in any swept system (kind {}{}); \
                 planned stage kinds across the deck: {}",
                deck.name,
                spec.stage.label(),
                spec.name
                    .as_deref()
                    .map(|n| format!(", name '{n}'"))
                    .unwrap_or_default(),
                planned_union
                    .iter()
                    .map(|(k, n)| format!("{} '{}'", k.label(), n))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        return Err(per_point_msg.clone());
    }
    Ok(())
}

/// What a run distills from each deck point.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Meter {
    /// Outcomes only.
    #[default]
    Off,
    /// Each point runs traced into a private recorder and carries its
    /// [`PointMetrics`]; the deck gains its [`DeckMetricsSummary`].
    Metrics,
    /// [`Meter::Metrics`] plus the per-op latency-blame probe on every
    /// open-loop point: its metrics carry a `provenance` record, knee
    /// verdicts gain `knee_blame`, and `hcs report` renders the **Tail
    /// forensics** section. Call [`validate_provenance`] first: the
    /// probe rides the open-loop IOR phase runner only.
    Provenance,
}

/// Runs one scenario point. With a `recorder`, the point runs into a
/// private recorder that is then stacked onto it (so per-point metrics
/// see only their own run); a plain point attaches no recorder at all.
/// Every observer is a pure listener: the outcome is bit-identical
/// whatever `recorder` and `meter` are.
///
/// # Panics
/// Panics on an unknown system name or a point that fails
/// [`Scenario::check`] — `validate_deck` catches both ahead of time
/// with a clean diagnostic — and when a fault schedule leaves the run
/// stalled.
pub fn run_scenario(
    scenario: &Scenario,
    recorder: Option<&mut Recorder>,
    meter: Meter,
) -> PointResult {
    let start = Instant::now();
    let (system, full_ppn) = build_system(scenario);
    scenario
        .check(full_ppn)
        .unwrap_or_else(|e| panic!("scenario '{}': {e}", scenario.name));
    let workload = scenario.resolved_workload(full_ppn);
    let nodes = scenario.run_nodes();
    let ppn = scenario.run_ppn(full_ppn);
    let mut rec = (recorder.is_some() || meter != Meter::Off).then(Recorder::new);
    let run = IorRun {
        arrival: scenario.arrival,
        faults: &scenario.faults,
        recorder: rec.as_mut(),
        provenance: meter == Meter::Provenance,
    };
    let (outcome, resilience, open) = dispatch(&*system, &workload, nodes, ppn, run)
        .unwrap_or_else(|e| panic!("scenario '{}': {e}", scenario.name));
    let metrics = (meter != Meter::Off).then(|| {
        let rec = rec.as_ref().expect("a metered point runs traced");
        let mut metrics = collect_point_metrics(&workload, &outcome, rec, nodes, ppn);
        metrics.wall_clock_seconds = start.elapsed().as_secs_f64();
        metrics.resilience = resilience;
        if let Some(open) = open {
            metrics.latency = open_loop_latency(&workload, &open);
            metrics.provenance = open.provenance;
        }
        metrics
    });
    if let (Some(shared), Some(rec)) = (recorder, &rec) {
        shared.absorb_recorder(rec);
    }
    PointResult {
        scenario: scenario.clone(),
        system: system.name().to_string(),
        nodes,
        ppn,
        outcome,
        metrics,
    }
}

/// [`run_scenario`] with [`Meter::Metrics`] and no trace. Kept for the
/// host-time benchmark (`hostbench/`), which calls it by name.
pub fn run_scenario_metered(scenario: &Scenario) -> PointResult {
    run_scenario(scenario, None, Meter::Metrics)
}

/// Expands and executes a deck, every point through [`run_scenario`].
///
/// Untraced points run in parallel, preserving order; results are
/// independent of worker count and scheduling because every benchmark
/// seeds its noise from its config alone. With a `recorder` the points
/// run serially and stack onto it in expansion order, so the trace is
/// one coherent timeline. Any `meter` but [`Meter::Off`] adds the
/// deck's [`DeckMetricsSummary`].
pub fn run_deck(deck: &Deck, recorder: Option<&mut Recorder>, meter: Meter) -> DeckResult {
    let points = match recorder {
        Some(shared) => deck
            .expand()
            .iter()
            .map(|s| run_scenario(s, Some(&mut *shared), meter))
            .collect(),
        None => parallel_sweep(deck.expand(), |s| run_scenario(s, None, meter)),
    };
    let mut result = DeckResult {
        name: deck.name.clone(),
        title: deck.title.clone(),
        points,
        metrics: None,
    };
    if meter != Meter::Off {
        result.metrics = deck_metrics_summary(&result);
    }
    result
}

/// [`run_deck`] with [`Meter::Metrics`] and no trace. Kept for the
/// host-time benchmark (`hostbench/`), which calls it by name.
pub fn run_deck_with_metrics(deck: &Deck) -> DeckResult {
    run_deck(deck, None, Meter::Metrics)
}

/// [`run_deck`] with [`Meter::Provenance`] and no trace. Kept for the
/// host-time benchmark (`hostbench/`), which calls it by name.
pub fn run_deck_with_provenance(deck: &Deck) -> DeckResult {
    run_deck(deck, None, Meter::Provenance)
}

/// Checks that every point of a deck can carry the latency-provenance
/// probe, returning a one-line diagnostic on the first that cannot:
/// the probe decomposes per-op submit→finish latency, so every
/// expanded point needs a family with provenance in its
/// capability-table row and an open-loop arrival.
pub fn validate_provenance(deck: &Deck) -> Result<(), String> {
    for scenario in deck.expand() {
        scenario
            .workload
            .require(|c| c.provenance, "latency provenance supports")
            .map_err(|e| format!("scenario '{}': {e}", scenario.name))?;
        if scenario.arrival.is_closed() {
            return Err(format!(
                "scenario '{}': latency provenance needs open-loop arrivals (per-op latency \
                 exists only under an arrival process); give the base an open arrival spec or \
                 sweep offered_load",
                scenario.name
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcs_core::scenario::{GraphEdit, IorConfig, MdtestConfig, WorkloadClass};
    use hcs_core::Arrival;
    use hcs_core::StageKind;
    use hcs_ior::run_ior;

    fn plain(deck: &Deck) -> DeckResult {
        run_deck(deck, None, Meter::Off)
    }

    fn metered_run(deck: &Deck) -> DeckResult {
        run_deck(deck, None, Meter::Metrics)
    }

    fn point(scenario: &Scenario) -> PointResult {
        run_scenario(scenario, None, Meter::Off)
    }

    fn smoke_scenario(system: &str) -> Scenario {
        Scenario::new(
            system,
            Workload::Ior(IorConfig::smoke(WorkloadClass::DataAnalytics, 1, 4)),
        )
    }

    #[test]
    fn scenario_matches_direct_run() {
        let point = point(&smoke_scenario("gpfs"));
        let direct = run_ior(
            &hcs_gpfs::GpfsConfig::on_lassen(),
            &IorConfig::smoke(WorkloadClass::DataAnalytics, 1, 4),
        );
        assert_eq!(point.outcome.ior(), &direct);
        assert_eq!(point.system, "GPFS");
        assert_eq!((point.nodes, point.ppn), (1, 4));
    }

    #[test]
    #[should_panic(expected = "unknown system 'betafs'")]
    fn unknown_system_is_rejected_with_catalog() {
        point(&smoke_scenario("betafs"));
    }

    #[test]
    fn edits_reconfigure_the_deployment() {
        let mut fat = smoke_scenario("vast-lassen");
        fat.edits = vec![GraphEdit::ScalePool {
            kind: StageKind::Gateway,
            factor: 8.0,
        }];
        let base = point(&smoke_scenario("vast-lassen"));
        let wide = point(&fat);
        // 4 ranks on one node can't saturate the gateway; push the scale.
        let mut base_big = smoke_scenario("vast-lassen");
        base_big.nodes = Some(32);
        base_big.full_node = true;
        let mut wide_big = fat.clone();
        wide_big.nodes = Some(32);
        wide_big.full_node = true;
        let b = point(&base_big);
        let w = point(&wide_big);
        // The x8 gateway lifts the ceiling until the next stage binds
        // (~1.4x on this deployment).
        assert!(
            w.outcome.ior().outcome.summary.mean > 1.3 * b.outcome.ior().outcome.summary.mean,
            "gateway x8 should lift the ceiling: {} vs {}",
            w.outcome.ior().outcome.summary.mean,
            b.outcome.ior().outcome.summary.mean
        );
        // Small scale is unaffected by design only in direction, but
        // both must stay valid runs.
        assert!(wide.outcome.ior().outcome.summary.mean >= base.outcome.ior().outcome.summary.mean);
        assert_eq!(b.ppn, 44, "full_node resolves Lassen's 44 ppn");
    }

    #[test]
    fn deck_runs_mixed_axes_in_order() {
        let mut deck = Deck::single("t", smoke_scenario("vast-lassen"));
        deck.axes.systems = vec!["vast-lassen".into(), "gpfs".into()];
        deck.axes.nodes = vec![1, 2];
        let result = plain(&deck);
        assert_eq!(result.points.len(), 4);
        let groups = result.by_system();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, "VAST");
        assert_eq!(groups[1].0, "GPFS");
        assert_eq!(groups[0].1.len(), 2);
        assert_eq!(groups[0].1[1].nodes, 2);
    }

    #[test]
    fn deck_results_serde_round_trip() {
        let mut deck = Deck::single(
            "meta",
            Scenario::new("gpfs", Workload::Mdtest(MdtestConfig::new(1, 4))),
        );
        deck.base.reps = Some(2);
        let result = plain(&deck);
        let back: DeckResult =
            serde_json::from_str(&serde_json::to_string(&result).unwrap()).unwrap();
        assert_eq!(back, result);
        assert!(result.points[0].outcome.headline().contains("ops/s"));
    }

    #[test]
    fn metered_deck_matches_plain_outcomes() {
        let mut deck = Deck::single("t", smoke_scenario("vast-lassen"));
        deck.axes.nodes = vec![1, 2];
        let plain = plain(&deck);
        let metered = metered_run(&deck);
        assert_eq!(plain.points.len(), metered.points.len());
        for (p, m) in plain.points.iter().zip(&metered.points) {
            assert_eq!(p.outcome, m.outcome, "metering must not perturb outcomes");
            assert!(p.metrics.is_none());
            let pm = m.metrics.as_ref().expect("metered points carry metrics");
            assert!(pm.decomposition.total_runtime > 0.0);
            assert!(!pm.bottlenecks.is_empty());
            assert!(pm.solver_epochs > 0);
        }
        let summary = metered.metrics.as_ref().expect("full deck summarizes");
        assert_eq!(summary.unit, "B/s");
        assert_eq!(summary.winner.as_deref(), Some("VAST"));
        assert_eq!(summary.factor, 1.0, "single system has no runner-up");
        // Un-metered serialization must not even mention the field.
        assert!(!serde_json::to_string(&plain)
            .unwrap()
            .contains("\"metrics\""));
    }

    #[test]
    fn saturated_points_cite_a_stage() {
        let mut deck = Deck::single("sat", smoke_scenario("vast-lassen"));
        deck.axes.nodes = vec![1, 64];
        deck.base.full_node = true;
        let mut rec = Recorder::new();
        let sat = run_deck(&deck, Some(&mut rec), Meter::Metrics);
        assert_eq!(sat.points.len(), 2);
        assert_eq!(sat.points[1].nodes, 64);
        // At 64 full nodes the TCP VAST deployment is far past its
        // saturation point: the dominant bottleneck names its stage.
        let shares = &sat.points[1].metrics.as_ref().unwrap().bottlenecks;
        let dominant = shares.iter().max_by(|a, b| a.seconds.total_cmp(&b.seconds));
        assert!(dominant.and_then(|b| b.kind).is_some(), "{shares:?}");
        assert!(rec.to_chrome_json().contains("\"resource\""));
    }

    #[test]
    fn traced_deck_matches_untraced_results() {
        let deck = Deck::single("t", smoke_scenario("lustre-ruby"));
        let plain = plain(&deck);
        let mut rec = Recorder::new();
        let traced = run_deck(&deck, Some(&mut rec), Meter::Off);
        assert_eq!(plain, traced);
        assert!(!rec.to_chrome_json().is_empty());
    }

    fn gateway_outage(start: f64, end: f64) -> hcs_core::FaultSpec {
        hcs_core::FaultSpec::outage(StageKind::Gateway, start, end)
    }

    #[test]
    fn faulted_deck_completes_and_carries_resilience() {
        let mut deck = Deck::single("fault-t", smoke_scenario("vast-lassen"));
        deck.axes.fault_sets = vec![Vec::new(), vec![gateway_outage(0.05, 0.15)]];
        let result = metered_run(&deck);
        assert_eq!(result.points.len(), 2);
        let free = &result.points[0];
        let faulted = &result.points[1];
        assert!(free.metrics.as_ref().unwrap().resilience.is_none());
        let res = faulted
            .metrics
            .as_ref()
            .unwrap()
            .resilience
            .as_ref()
            .expect("faulted point carries resilience");
        assert!(res.slowdown_factor > 1.0, "{}", res.slowdown_factor);
        assert!((res.stall_seconds - 0.1).abs() < 1e-9);
        assert_eq!(res.fault_events, 2);
        // The faulted point's twin is the fault-free sibling.
        let free_bw = free.outcome.ior().outcome.summary.mean;
        let faulted_bw = faulted.outcome.ior().outcome.summary.mean;
        assert!((free_bw / faulted_bw - res.slowdown_factor).abs() < 1e-9);
    }

    #[test]
    fn fault_free_artifacts_never_mention_fault_fields() {
        let mut deck = Deck::single("t", smoke_scenario("vast-lassen"));
        deck.axes.nodes = vec![1, 2];
        let json = serde_json::to_string(&metered_run(&deck)).unwrap();
        assert!(!json.contains("\"resilience\""), "byte-compat broken");
        assert!(!json.contains("\"faults\""), "byte-compat broken");
        // Closed-loop runs must not mention the open-loop fields either.
        assert!(!json.contains("\"arrival\""), "byte-compat broken");
        assert!(!json.contains("\"latency\""), "byte-compat broken");
        assert!(!json.contains("\"knees\""), "byte-compat broken");
    }

    fn open_scenario(system: &str, rate: f64) -> Scenario {
        smoke_scenario(system).with_arrival(Arrival::Open {
            rate,
            discipline: hcs_core::Discipline::Poisson,
            duration: 0.4,
            seed: 7,
        })
    }

    #[test]
    fn open_loop_deck_carries_latency_and_knees() {
        let mut deck = Deck::single("sat", open_scenario("vast-lassen", 1.0));
        deck.axes.offered_load = vec![50.0, 2000.0];
        assert_eq!(validate_deck(&deck), Ok(()));
        let result = metered_run(&deck);
        assert_eq!(result.points.len(), 2);
        let p99s: Vec<f64> = result
            .points
            .iter()
            .map(|p| {
                let rows = &p.metrics.as_ref().unwrap().latency;
                assert_eq!(rows.len(), 1, "one op class per IOR phase");
                assert_eq!(rows[0].op, "read");
                assert!(!rows[0].histogram.is_empty());
                rows[0].histogram.p99().expect("non-empty")
            })
            .collect();
        assert!(
            p99s[1] >= p99s[0],
            "p99 must not improve under load: {p99s:?}"
        );
        let summary = result.metrics.as_ref().expect("metered deck summarizes");
        assert_eq!(summary.knees.len(), 1);
        assert_eq!(summary.knees[0].system, "VAST");
        assert_eq!(summary.knees[0].baseline_rate, 50.0);
        // A metered open-loop run reproduces the un-metered outcome.
        let plain = plain(&deck);
        for (p, m) in plain.points.iter().zip(&result.points) {
            assert_eq!(p.outcome, m.outcome, "metering must not perturb outcomes");
        }
    }

    #[test]
    fn open_loop_composes_with_faults_in_the_executor() {
        let calm = Deck::single("calm", open_scenario("vast-lassen", 200.0));
        let mut stormy = Deck::single("stormy", open_scenario("vast-lassen", 200.0));
        stormy.base.faults = vec![gateway_outage(0.1, 0.25)];
        assert_eq!(validate_deck(&stormy), Ok(()));
        let calm_p99 = metered_run(&calm).points[0]
            .metrics
            .as_ref()
            .unwrap()
            .latency[0]
            .histogram
            .p99()
            .unwrap();
        let stormy_p99 = metered_run(&stormy).points[0]
            .metrics
            .as_ref()
            .unwrap()
            .latency[0]
            .histogram
            .p99()
            .unwrap();
        assert!(
            stormy_p99 > calm_p99,
            "a mid-run outage must push the tail out: {stormy_p99} vs {calm_p99}"
        );
    }

    #[test]
    fn provenance_deck_decomposes_latency_and_blames_the_knee() {
        let mut deck = Deck::single("sat", open_scenario("vast-lassen", 1.0));
        deck.axes.offered_load = vec![50.0, 2000.0];
        assert_eq!(validate_provenance(&deck), Ok(()));
        let result = run_deck(&deck, None, Meter::Provenance);
        for p in &result.points {
            let m = p.metrics.as_ref().expect("provenance deck is metered");
            let prov = m.provenance.as_ref().expect("provenance deck decomposes");
            assert!(prov.ops > 0);
            let reassembled = prov.queueing_seconds
                + prov.stall_seconds
                + prov.blame_seconds
                + prov.ideal_seconds;
            assert!(
                (reassembled - prov.latency_seconds).abs() <= 1e-9 * prov.latency_seconds,
                "shares must reassemble the measured latency: {} vs {}",
                reassembled,
                prov.latency_seconds
            );
        }
        let summary = result.metrics.as_ref().expect("provenance deck summarizes");
        assert_eq!(summary.knees.len(), 1);
        let knee = &summary.knees[0];
        assert!(
            knee.knee_rate.is_some(),
            "2000 ops/s saturates the smoke rig"
        );
        assert!(
            knee.knee_blame.is_some(),
            "a provenance-backed knee names the stage whose blame grew"
        );
        // The probe is a pure listener: outcomes match the plain run.
        let plain = plain(&deck);
        for (p, m) in plain.points.iter().zip(&result.points) {
            assert_eq!(p.outcome, m.outcome, "provenance must not perturb outcomes");
        }
    }

    #[test]
    fn validate_provenance_names_unsupported_points() {
        let closed = Deck::single("c", smoke_scenario("vast-lassen"));
        let err = validate_provenance(&closed).unwrap_err();
        assert!(err.contains("open-loop arrivals"), "{err}");

        let family = Deck::single(
            "f",
            Scenario::new("gpfs", Workload::Mdtest(MdtestConfig::new(1, 4))),
        );
        let err = validate_provenance(&family).unwrap_err();
        assert!(err.contains("IOR family only"), "{err}");
    }

    #[test]
    fn validate_deck_names_bad_arrival_specs() {
        let mut closed_sweep = Deck::single("c", smoke_scenario("vast-lassen"));
        closed_sweep.axes.offered_load = vec![100.0];
        let err = validate_deck(&closed_sweep).unwrap_err();
        assert!(err.contains("sweeps offered_load"), "{err}");

        let family = Deck::single(
            "f",
            Scenario::new("gpfs", Workload::Mdtest(MdtestConfig::new(1, 4))).with_arrival(
                Arrival::Open {
                    rate: 100.0,
                    discipline: hcs_core::Discipline::Poisson,
                    duration: 1.0,
                    seed: 0,
                },
            ),
        );
        let err = validate_deck(&family).unwrap_err();
        assert!(
            err.contains("open-loop arrivals support the IOR family only (got mdtest)"),
            "{err}"
        );

        let zero_rate = Deck::single("z", open_scenario("vast-lassen", 0.0));
        let err = validate_deck(&zero_rate).unwrap_err();
        assert!(
            err.contains("arrival rate must be finite and positive"),
            "{err}"
        );
    }

    #[test]
    fn validate_deck_accepts_good_and_names_bad() {
        let mut good = Deck::single("g", smoke_scenario("vast-lassen"));
        good.base.faults = vec![gateway_outage(1.0, 2.0)];
        assert_eq!(validate_deck(&good), Ok(()));

        let unknown = Deck::single("u", smoke_scenario("betafs"));
        let err = validate_deck(&unknown).unwrap_err();
        assert!(err.contains("unknown system 'betafs'"), "{err}");

        let mut missing = Deck::single("m", smoke_scenario("nvme"));
        missing.base.faults = vec![gateway_outage(1.0, 2.0)];
        let err = validate_deck(&missing).unwrap_err();
        assert!(err.contains("fault targets no planned stage"), "{err}");

        let mut window = Deck::single("w", smoke_scenario("vast-lassen"));
        window.base.faults = vec![gateway_outage(2.0, 1.0)];
        let err = validate_deck(&window).unwrap_err();
        assert!(err.contains("end must be finite and after start"), "{err}");

        let mut family = Deck::single(
            "f",
            Scenario::new("gpfs", Workload::Mdtest(MdtestConfig::new(1, 4))),
        );
        family.base.faults = vec![gateway_outage(1.0, 2.0)];
        let err = validate_deck(&family).unwrap_err();
        assert!(err.contains("IOR family only"), "{err}");
    }

    #[test]
    fn every_family_runs_the_same_through_every_entry() {
        // A captured DLIO trace for the replay point to re-drive.
        let dlio = Scenario::new("vast-lassen", Workload::Dlio(hcs_dlio::resnet50().smoke()));
        let mut capture = Recorder::new();
        run_scenario(&dlio, Some(&mut capture), Meter::Off);
        let trace =
            std::env::temp_dir().join(format!("hcs-deck-family-{}.json", std::process::id()));
        std::fs::write(&trace, capture.to_chrome_json()).unwrap();
        let replay = hcs_core::scenario::ReplayConfig {
            trace: Some(trace.display().to_string()),
            ..Default::default()
        };
        let job = hcs_core::JobScript::checkpoint_restart(5.0, 2, 64e6, 1e6);
        let points = [
            smoke_scenario("gpfs"),
            dlio,
            Scenario::new("gpfs", Workload::Mdtest(MdtestConfig::new(1, 4))),
            Scenario::new("nvme", Workload::Job(job)).with_nodes(2),
            Scenario::new("gpfs", Workload::Replay(replay)),
        ];
        let bits = |o: &WorkloadOutcome| serde_json::to_string(o).unwrap();
        for (s, kind) in points
            .iter()
            .zip(["ior", "dlio", "mdtest", "job", "replay"])
        {
            let (system, full_ppn) = build_system(s);
            let workload = s.resolved_workload(full_ppn);
            let (nodes, ppn) = (s.run_nodes(), s.run_ppn(full_ppn));
            let plain = run_workload_on(&*system, &workload, nodes, ppn);
            assert_eq!(plain.kind(), kind);
            let mut rec = Recorder::new();
            let traced = run_workload_on_traced(&*system, &workload, nodes, ppn, &mut rec);
            assert_eq!(
                !rec.tracer().is_empty(),
                workload.capabilities().tracing,
                "{kind}"
            );
            for other in [
                traced,
                point(s).outcome,
                run_scenario(s, None, Meter::Metrics).outcome,
            ] {
                assert_eq!(bits(&other), bits(&plain), "{kind}");
            }
        }
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn every_builtin_deck_validates_at_every_scale() {
        // The IOR block-multiple rule included: no shipped deck breaks it.
        use hcs_core::scenario::Scale;
        for scale in [Scale::Paper, Scale::Smoke, Scale::Datacenter] {
            for deck in crate::figures::all_decks(scale) {
                let verdict = validate_deck(&deck);
                assert_eq!(verdict, Ok(()), "{} at {} scale", deck.name, scale.label());
            }
        }
    }

    #[test]
    fn traced_faulted_deck_matches_untraced() {
        let mut deck = Deck::single("fault-t", smoke_scenario("vast-lassen"));
        deck.base.faults = vec![gateway_outage(0.05, 0.15)];
        let plain = plain(&deck);
        let mut rec = Recorder::new();
        let traced = run_deck(&deck, Some(&mut rec), Meter::Off);
        assert_eq!(plain, traced);
        assert!(rec.to_chrome_json().contains("faulted"));
    }
}
