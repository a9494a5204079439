//! Chaos-campaign properties (PR 7).
//!
//! 1. **Generation is lawful.** Every generated timeline satisfies its
//!    [`FaultBudget`] and every spec's own [`FaultSpec::check`], for
//!    arbitrary budgets, seeds and indices.
//! 2. **The empty timeline is an identity.** Driving a run through the
//!    forced fault path with no faults reproduces the fault-free twin
//!    bit for bit — the invariant evaluator confirms it on arbitrary
//!    uniform systems.
//! 3. **The failure space is clean.** A seeded 3-system × 201-timeline
//!    smoke campaign, and one over the first deck of the builtin
//!    catalog, complete with zero invariant violations and a populated
//!    Pareto frontier / fragility ranking, twice, equal.
//! 4. **Counterexamples minimize.** An injected artificial violation
//!    shrinks to its causal core (≤ 2 events).

use proptest::prelude::*;

use hcs_core::chaos::{
    evaluate_run, generate_timeline, shrink_timeline, ChaosCampaign, ChaosFaultKind, FaultBudget,
};
use hcs_core::runner::{run_phase, run_phase_chaos};
use hcs_core::scenario::{Deck, IorConfig, Scale, SweepAxes, WorkloadClass};
use hcs_core::testing::UniformSystem;
use hcs_core::{FaultSpec, PhaseSpec, Scenario, StageKind, Workload};
use hcs_experiments::run_chaos_campaign;
use hcs_simkit::units::{GIB, MIB};

fn kind_menu(selector: u32) -> Vec<ChaosFaultKind> {
    // The seven non-empty subsets of the three fault families.
    let all = ChaosFaultKind::all();
    let bits = 1 + selector % 7;
    all.iter()
        .enumerate()
        .filter(|(i, _)| bits & (1 << i) != 0)
        .map(|(_, k)| *k)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Property 1: every generated timeline is admitted by the budget
    /// that generated it, and every spec passes its own validation.
    #[test]
    fn generated_timelines_satisfy_their_budget(
        seed in any::<u64>(),
        k in 0u32..=40,
        max_faults in 1u32..=6,
        kinds_sel in 0u32..7,
        max_outage in 0.0..4.0f64,
        min_degrade in 0.05..1.0f64,
        horizon in 0.5..16.0f64,
        n_stages in 1usize..=6,
    ) {
        let budget = FaultBudget {
            max_faults,
            kinds: kind_menu(kinds_sel),
            max_outage_seconds: max_outage,
            min_degrade_factor: min_degrade,
            horizon_seconds: horizon,
        };
        let stages: Vec<StageKind> = StageKind::all()[..n_stages].to_vec();
        let specs = generate_timeline(&budget, &stages, seed, "prop-point", k);
        prop_assert!(budget.admits(&specs).is_ok(), "{:?}", budget.admits(&specs));
        for spec in &specs {
            prop_assert!(spec.check().is_ok());
            prop_assert!(stages.contains(&spec.stage));
        }
        // Index 0 is the reserved empty-timeline probe.
        if k == 0 {
            prop_assert!(specs.is_empty());
        }
        // Same draw twice: generation is a pure function of its inputs.
        let again = generate_timeline(&budget, &stages, seed, "prop-point", k);
        prop_assert_eq!(specs, again);
    }

    /// Property 2: the forced fault path with an empty schedule is
    /// bit-exact against the plain runner, and the evaluator agrees.
    #[test]
    fn empty_timeline_is_bit_exact(
        nodes in 1u32..=8,
        ppn in 1u32..=6,
        pool_gib in 1.0..64.0f64,
        node_gib in 0.1..4.0f64,
        bytes_mib in 1u32..=64,
    ) {
        let system = UniformSystem::new("toy", pool_gib * GIB).with_node_bw(node_gib * GIB);
        let phase = PhaseSpec::seq_write(MIB, bytes_mib as f64 * MIB);
        let twin = run_phase(&system, nodes, ppn, &phase);
        let run = run_phase_chaos(&system, nodes, ppn, &phase, &[]).unwrap();
        prop_assert_eq!(run.outcome.duration.to_bits(), twin.duration.to_bits());
        prop_assert_eq!(
            run.outcome.agg_bandwidth.to_bits(),
            twin.agg_bandwidth.to_bits()
        );
        for (a, b) in run
            .outcome
            .per_node_duration
            .iter()
            .zip(&twin.per_node_duration)
        {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(run.report.events_applied, 0);
        prop_assert_eq!(run.report.stall_seconds, 0.0);
        let eval = evaluate_run(&[], &run, None, &twin);
        prop_assert!(eval.violations.is_empty(), "{:?}", eval.violations);
        prop_assert!(!eval.checked.is_empty());
    }
}

/// Property 3: a seeded campaign over three real systems — 3 points ×
/// 67 timelines = 201 engine-checked runs — finds zero invariant
/// violations, produces a populated report, and reproduces itself
/// exactly on a second run. So does one over the first deck of the
/// builtin catalog (fig2a: 8 points × 16 timelines, seed 7).
#[test]
fn three_system_smoke_campaign_is_clean() {
    let base = Scenario::new(
        "vast-lassen",
        Workload::Ior(IorConfig::smoke(WorkloadClass::Scientific, 2, 4)),
    );
    let deck = Deck {
        name: "chaos-smoke".into(),
        title: String::new(),
        base,
        axes: SweepAxes {
            systems: vec!["vast-lassen".into(), "gpfs".into(), "lustre-ruby".into()],
            ..SweepAxes::default()
        },
    };
    let mut three = ChaosCampaign::new("three-system-smoke", deck);
    three.seed = 1726;
    three.population = 67;
    let first_builtin = hcs_experiments::figures::all_decks(Scale::Smoke).remove(0);
    let mut builtin = ChaosCampaign::new("builtin-first", first_builtin);
    builtin.seed = 7;
    builtin.population = 16;
    for (campaign, points, timelines) in [(three, 3, 201), (builtin, 8, 128)] {
        let report = run_chaos_campaign(&campaign).unwrap();
        assert_eq!(report.points, points);
        assert_eq!(report.timelines, timelines);
        assert!(report.violations.is_empty(), "{:#?}", report.violations);
        for stat in &report.invariants {
            assert_eq!(stat.passed, stat.checked, "{:?}", stat.invariant);
            assert!(stat.checked > 0, "{:?} never applied", stat.invariant);
        }
        assert!(!report.pareto.is_empty());
        assert!(!report.fragility.is_empty());
        assert!(report.max_slowdown >= 1.0);
        let again = run_chaos_campaign(&campaign).unwrap();
        assert_eq!(report, again);
    }
}

/// Property 4: the greedy shrinker reduces an artificial violation —
/// "these two specific windows together" buried in a 7-event timeline —
/// to exactly its 2-event causal core.
#[test]
fn injected_violation_minimizes_to_two_events() {
    let specs: Vec<FaultSpec> = (0..7)
        .map(|i| {
            FaultSpec::degrade(
                StageKind::all()[i % StageKind::all().len()],
                i as f64,
                i as f64 + 0.75,
                0.5,
            )
        })
        .collect();
    let needs = |cand: &[FaultSpec]| {
        cand.iter().any(|s| s.start == 2.0) && cand.iter().any(|s| s.start == 5.0)
    };
    let minimized = shrink_timeline(&specs, |cand| needs(cand));
    assert!(minimized.len() <= 2, "not minimal: {minimized:#?}");
    assert!(needs(&minimized), "shrinker lost the violation");
}
