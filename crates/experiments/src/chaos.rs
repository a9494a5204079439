//! The chaos-campaign population executor: fans a [`ChaosCampaign`]'s
//! seeded fault timelines over the rayon sweep pool, evaluates every
//! metamorphic invariant against each point's fault-free twin, shrinks
//! any counterexample, and assembles the [`ChaosReport`].
//!
//! Determinism contract: every timeline derives from the campaign seed,
//! the point name and the timeline index; every engine run seeds its
//! noise from its config alone (common random numbers); and aggregation
//! preserves the (expansion × population) task order that
//! [`parallel_sweep`] guarantees — so the report is byte-identical
//! across reruns and worker counts.

use hcs_core::chaos::{
    evaluate_run, generate_timeline, has_jitter, has_same_stage_overlap, shrink_timeline,
    timeline_cost, ChaosCampaign, ChaosInvariant, ChaosReport, ChaosRunRecord, ChaosViolation,
};
use hcs_core::runner::{run_phase, run_phase_chaos, ChaosPhaseRun, FaultPhaseError};
use hcs_core::{FaultSpec, PhaseOutcome, PhaseSpec, Scenario, StageKind, StorageSystem, Workload};

use crate::deck::{build_system, validate_deck};
use crate::sweep::parallel_sweep;

/// One expanded deck point prepared for fuzzing: its system (built
/// once, shared read-only by every timeline the pool drives), resolved
/// run shape, the stage kinds its deployment plan actually contains and
/// the fault-free twin outcome.
struct PointCtx {
    scenario: Scenario,
    system: Box<dyn StorageSystem>,
    phase: PhaseSpec,
    nodes: u32,
    ppn: u32,
    stages: Vec<StageKind>,
    twin: PhaseOutcome,
}

/// The outcome of driving one generated timeline through the engine:
/// either a completed run (plus the optional prefix probe for the
/// monotonicity invariant), or the engine's stall report.
enum TimelineRun {
    Completed {
        run: Box<ChaosPhaseRun>,
        prefix: Option<ChaosPhaseRun>,
    },
    Stalled(String),
}

fn prepare_point(scenario: &Scenario) -> Result<PointCtx, String> {
    if !scenario.faults.is_empty() {
        return Err(format!(
            "chaos campaign point '{}' schedules literal faults; the campaign \
             generates its own timelines — remove the deck's fault axes",
            scenario.name
        ));
    }
    scenario
        .workload
        .require(|c| c.faults, "fault fuzzing supports")
        .map_err(|e| format!("chaos campaign point '{}': {e}", scenario.name))?;
    let (system, full_ppn) = build_system(scenario);
    let Workload::Ior(config) = scenario.resolved_workload(full_ppn) else {
        unreachable!("the capability table admits faults on the IOR family only");
    };
    let phase = config.phase();
    let nodes = scenario.run_nodes();
    let ppn = scenario.run_ppn(full_ppn);
    let graph = system.plan(nodes, ppn, &phase);
    let mut stages: Vec<StageKind> = Vec::new();
    for stage in &graph.stages {
        if !stages.contains(&stage.kind) {
            stages.push(stage.kind);
        }
    }
    if stages.is_empty() {
        return Err(format!(
            "chaos campaign point '{}': deployment plan has no stages to fault",
            scenario.name
        ));
    }
    let twin = run_phase(system.as_ref(), nodes, ppn, &phase);
    Ok(PointCtx {
        scenario: scenario.clone(),
        system,
        phase,
        nodes,
        ppn,
        stages,
        twin,
    })
}

/// Drives one timeline (and, for multi-fault jitter-free timelines, its
/// all-but-last prefix) through [`run_phase_chaos`] on the point's
/// system.
fn drive_timeline(ctx: &PointCtx, specs: &[FaultSpec]) -> TimelineRun {
    let system = ctx.system.as_ref();
    let run = match run_phase_chaos(system, ctx.nodes, ctx.ppn, &ctx.phase, specs) {
        Ok(run) => run,
        Err(FaultPhaseError::Stalled { at, starved }) => {
            return TimelineRun::Stalled(format!(
                "network unrecoverably stalled at {at}s (starved: {})",
                starved.join(", ")
            ))
        }
        Err(other) => panic!("chaos timeline failed fault resolution after validation: {other}"),
    };
    // The prefix probe only anchors the monotonicity invariant, which
    // needs a jitter-free, per-stage-disjoint timeline — skip the
    // engine run otherwise.
    let prefix = if specs.len() >= 2 && !has_jitter(specs) && !has_same_stage_overlap(specs) {
        // A stalling prefix can't anchor the monotonicity check; the
        // full timeline's own invariants still run.
        run_phase_chaos(
            system,
            ctx.nodes,
            ctx.ppn,
            &ctx.phase,
            &specs[..specs.len() - 1],
        )
        .ok()
    } else {
        None
    };
    TimelineRun::Completed {
        run: Box::new(run),
        prefix,
    }
}

/// Re-runs a candidate sub-timeline and reports whether it still
/// violates `invariant` — the oracle the greedy shrinker minimizes
/// against.
fn candidate_violates(ctx: &PointCtx, specs: &[FaultSpec], invariant: ChaosInvariant) -> bool {
    match drive_timeline(ctx, specs) {
        TimelineRun::Completed { run, prefix } => {
            evaluate_run(specs, &run, prefix.as_ref(), &ctx.twin)
                .violations
                .iter()
                .any(|(inv, _)| *inv == invariant)
        }
        TimelineRun::Stalled(_) => invariant == ChaosInvariant::NoUnexplainedStall,
    }
}

/// Runs a full chaos campaign: validates the base deck, prepares every
/// expanded point (plan stages + fault-free twin), executes the seeded
/// timeline population through the rayon sweep pool, evaluates the
/// metamorphic invariants, minimizes any counterexample, and assembles
/// the final [`ChaosReport`].
pub fn run_chaos_campaign(campaign: &ChaosCampaign) -> Result<ChaosReport, String> {
    campaign.check()?;
    validate_deck(&campaign.base)?;
    let points: Vec<PointCtx> = parallel_sweep(campaign.base.expand(), prepare_point)
        .into_iter()
        .collect::<Result<_, _>>()?;

    // The campaign-level budget bounds generation; each point clamps
    // the window horizon to its own twin runtime.
    let tasks: Vec<(usize, u32)> = (0..points.len())
        .flat_map(|p| (0..campaign.population).map(move |k| (p, k)))
        .collect();
    let mut engine_runs = 0usize;
    let records: Vec<ChaosRunRecord> = parallel_sweep(tasks, |&(p, k)| {
        let ctx = &points[p];
        let budget = campaign.budget.fitted(ctx.twin.duration);
        let specs = generate_timeline(&budget, &ctx.stages, campaign.seed, &ctx.scenario.name, k);
        let outcome = drive_timeline(ctx, &specs);
        (p, k, specs, outcome)
    })
    .into_iter()
    .map(|(p, k, specs, outcome)| {
        let ctx = &points[p];
        match outcome {
            TimelineRun::Completed { run, prefix } => {
                engine_runs += 1 + prefix.is_some() as usize;
                let eval = evaluate_run(&specs, &run, prefix.as_ref(), &ctx.twin);
                let violations = eval
                    .violations
                    .into_iter()
                    .map(|(invariant, detail)| ChaosViolation {
                        point: ctx.scenario.name.clone(),
                        timeline: k,
                        invariant,
                        detail,
                        minimized: shrink_timeline(&specs, |cand| {
                            candidate_violates(ctx, cand, invariant)
                        }),
                    })
                    .collect();
                ChaosRunRecord {
                    point: ctx.scenario.name.clone(),
                    timeline: k,
                    duration: run.outcome.duration,
                    slowdown: run.outcome.duration / ctx.twin.duration,
                    stall_seconds: run.report.stall_seconds,
                    cost_seconds: timeline_cost(&specs),
                    checked: eval.checked,
                    violations,
                    specs,
                }
            }
            TimelineRun::Stalled(detail) => {
                engine_runs += 1;
                let minimized = shrink_timeline(&specs, |cand| {
                    candidate_violates(ctx, cand, ChaosInvariant::NoUnexplainedStall)
                });
                ChaosRunRecord {
                    point: ctx.scenario.name.clone(),
                    timeline: k,
                    duration: f64::INFINITY,
                    slowdown: f64::INFINITY,
                    stall_seconds: f64::INFINITY,
                    cost_seconds: timeline_cost(&specs),
                    checked: vec![ChaosInvariant::NoUnexplainedStall],
                    violations: vec![ChaosViolation {
                        point: ctx.scenario.name.clone(),
                        timeline: k,
                        invariant: ChaosInvariant::NoUnexplainedStall,
                        detail,
                        minimized,
                    }],
                    specs,
                }
            }
        }
    })
    .collect();

    Ok(ChaosReport::assemble(
        campaign,
        points.len(),
        engine_runs,
        &records,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcs_core::scenario::{Deck, IorConfig, WorkloadClass};

    fn smoke_campaign(system: &str, population: u32) -> ChaosCampaign {
        let scenario = Scenario::new(
            system,
            Workload::Ior(IorConfig::smoke(WorkloadClass::Scientific, 2, 4)),
        );
        let mut campaign =
            ChaosCampaign::new(format!("chaos-{system}"), Deck::single("d", scenario));
        campaign.seed = 7;
        campaign.population = population;
        campaign
    }

    #[test]
    fn campaign_runs_clean_and_deterministically() {
        let campaign = smoke_campaign("vast-lassen", 8);
        let a = run_chaos_campaign(&campaign).unwrap();
        let b = run_chaos_campaign(&campaign).unwrap();
        assert_eq!(a, b);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert_eq!(a.timelines, 8);
        assert_eq!(a.points, 1);
        assert!(!a.pareto.is_empty());
        assert!(!a.fragility.is_empty());
        assert!(a.max_slowdown >= 1.0);
        // Every invariant was exercised somewhere in the population.
        for stat in &a.invariants {
            assert_eq!(stat.checked, stat.passed);
        }
    }

    #[test]
    fn campaign_rejects_points_with_literal_faults() {
        let mut campaign = smoke_campaign("vast-lassen", 4);
        campaign.base.base.faults = vec![FaultSpec::outage(StageKind::Gateway, 1.0, 2.0)];
        let err = run_chaos_campaign(&campaign).unwrap_err();
        assert!(err.contains("literal faults"), "{err}");
    }

    #[test]
    fn seed_changes_the_population() {
        let campaign = smoke_campaign("gpfs", 6);
        let mut reseeded = campaign.clone();
        reseeded.seed = campaign.seed + 1;
        let a = run_chaos_campaign(&campaign).unwrap();
        let b = run_chaos_campaign(&reseeded).unwrap();
        let specs_of = |r: &ChaosReport| -> usize { r.pareto.len() + r.fragility.len() };
        // Same shape of report, different draws (overwhelmingly).
        assert_eq!(a.timelines, b.timelines);
        assert!(specs_of(&a) != specs_of(&b) || a.max_slowdown != b.max_slowdown);
    }
}
