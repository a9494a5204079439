//! Chaos campaigns: seeded fault-timeline fuzzing with metamorphic
//! invariants.
//!
//! PR 5 made outages scriptable as [`FaultSpec`] IR, but every timeline
//! was hand-written. This module turns the fault engine into a
//! continuously-fuzzed, self-verifying subsystem: a [`ChaosCampaign`]
//! deterministically generates a *population* of fault timelines per
//! deck point — bounded by a [`FaultBudget`] and drawn only against
//! stage kinds that exist in the point's deployment plan — runs each
//! through [`run_phase_chaos`](crate::runner::run_phase_chaos), and
//! checks metamorphic invariants against the point's fault-free twin:
//!
//! 1. **Empty-timeline identity** — a run with no faults is
//!    bit-identical to the twin.
//! 2. **Subset monotonicity** — adding a capacity-loss fault never
//!    speeds a run up: the full timeline's duration is bounded below by
//!    its prefix's and by the twin's (jitter timelines are exempt,
//!    since mean-one flapping can transiently *raise* capacity).
//! 3. **Recovery restores capacity** — when every scheduled recovery
//!    fired before completion, the terminal capacity snapshot equals
//!    the entry snapshot bit for bit.
//! 4. **Stall within outage windows** — accumulated stall seconds
//!    never exceed the total scheduled outage seconds.
//! 5. **No unexplained stall** — a timeline without an outage produces
//!    exactly zero stall, and every generated timeline (whose outages
//!    all schedule recoveries) completes without an unrecoverable
//!    stall.
//!
//! Results aggregate into a [`ChaosReport`]: an invariant pass/fail
//! table with greedily minimized counterexample timelines, a worst-case
//! slowdown Pareto frontier per consumed fault budget, and a
//! per-stage-kind fragility ranking. The population executor lives in
//! `hcs-experiments` (it needs the system registry); everything here is
//! registry-free and purely deterministic.

use serde::{Deserialize, Serialize};

use hcs_simkit::SimRng;

use crate::graph::StageKind;
use crate::outcome::PhaseOutcome;
use crate::runner::ChaosPhaseRun;
use crate::scenario::{Deck, FaultKind, FaultSpec};

/// Relative tolerance for monotonicity comparisons: the engine computes
/// durations analytically, but event interleaving reorders float
/// summation, so exact `>=` would flag one-ulp noise as a violation.
const REL_TOL: f64 = 1e-9;

/// The fault families a [`FaultBudget`] can admit — the kind of a
/// [`FaultKind`] without its parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChaosFaultKind {
    /// Full outages ([`FaultKind::Outage`]).
    Outage,
    /// Partial degradations ([`FaultKind::Degrade`]).
    Degrade,
    /// Mean-one capacity flapping ([`FaultKind::Jitter`]).
    Jitter,
}

impl ChaosFaultKind {
    /// Every fault family, in canonical order.
    pub fn all() -> [ChaosFaultKind; 3] {
        [
            ChaosFaultKind::Outage,
            ChaosFaultKind::Degrade,
            ChaosFaultKind::Jitter,
        ]
    }

    /// The family of a concrete spec.
    pub fn of(spec: &FaultSpec) -> ChaosFaultKind {
        match spec.fault {
            FaultKind::Outage => ChaosFaultKind::Outage,
            FaultKind::Degrade { .. } => ChaosFaultKind::Degrade,
            FaultKind::Jitter { .. } => ChaosFaultKind::Jitter,
        }
    }

    /// Lowercase display label.
    pub fn label(&self) -> &'static str {
        match self {
            ChaosFaultKind::Outage => "outage",
            ChaosFaultKind::Degrade => "degrade",
            ChaosFaultKind::Jitter => "jitter",
        }
    }
}

/// Per-timeline resource bounds for generated fault schedules: how many
/// faults, of which kinds, how many total outage seconds, how deep a
/// degradation, and the time horizon windows are drawn from.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct FaultBudget {
    /// Maximum number of [`FaultSpec`]s per timeline (default 3).
    pub max_faults: u32,
    /// Fault families the generator may draw (default: all three).
    pub kinds: Vec<ChaosFaultKind>,
    /// Total scheduled outage seconds per timeline (default 2.0).
    pub max_outage_seconds: f64,
    /// Degrade-depth bound: generated factors stay in
    /// `[min_degrade_factor, 1)` (default 0.25).
    pub min_degrade_factor: f64,
    /// Fault windows are drawn inside `[0, horizon_seconds)`
    /// (default 4.0). The executor clamps this to each point's
    /// fault-free runtime via [`FaultBudget::fitted`] so windows
    /// actually intersect the run at any scale.
    pub horizon_seconds: f64,
}

impl Default for FaultBudget {
    fn default() -> Self {
        FaultBudget {
            max_faults: 3,
            kinds: ChaosFaultKind::all().to_vec(),
            max_outage_seconds: 2.0,
            min_degrade_factor: 0.25,
            horizon_seconds: 4.0,
        }
    }
}

// Hand-written so a sparse `"budget": {...}` in a campaign file starts
// from the documented defaults rather than zeroed fields (the vendored
// serde derive only supports `Default::default()` per field).
impl Deserialize for FaultBudget {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let mut budget = FaultBudget::default();
        if v.as_map().is_none() {
            return Err(serde::Error::msg("expected a fault-budget object"));
        }
        set_field(v, "max_faults", &mut budget.max_faults)?;
        set_field(v, "kinds", &mut budget.kinds)?;
        set_field(v, "max_outage_seconds", &mut budget.max_outage_seconds)?;
        set_field(v, "min_degrade_factor", &mut budget.min_degrade_factor)?;
        set_field(v, "horizon_seconds", &mut budget.horizon_seconds)?;
        Ok(budget)
    }
}

/// Overwrites `slot` with map `v`'s field `key` when it is present; a
/// type error names the field, as a derived impl's does.
fn set_field<T: Deserialize>(
    v: &serde::Value,
    key: &str,
    slot: &mut T,
) -> Result<(), serde::Error> {
    if let Some(f) = v.get_field(key) {
        *slot = serde::from_field(f, key)?;
    }
    Ok(())
}

/// Map `v`'s field `key`, which a campaign file must spell.
fn required<T: Deserialize>(v: &serde::Value, key: &str) -> Result<T, serde::Error> {
    let f = v
        .get_field(key)
        .ok_or_else(|| serde::Error::msg(format!("chaos campaign: missing field `{key}`")))?;
    serde::from_field(f, key)
}

impl FaultBudget {
    /// Validates the budget itself, returning a one-line diagnostic on
    /// the first inconsistent bound.
    pub fn check(&self) -> Result<(), String> {
        if self.kinds.is_empty() {
            return Err("chaos budget admits no fault kinds".into());
        }
        if !(self.horizon_seconds.is_finite() && self.horizon_seconds > 0.0) {
            return Err(format!(
                "chaos budget: horizon_seconds must be finite and positive (got {})",
                self.horizon_seconds
            ));
        }
        if !(self.max_outage_seconds.is_finite() && self.max_outage_seconds >= 0.0) {
            return Err(format!(
                "chaos budget: max_outage_seconds must be finite and >= 0 (got {})",
                self.max_outage_seconds
            ));
        }
        if !(self.min_degrade_factor > 0.0 && self.min_degrade_factor < 1.0) {
            return Err(format!(
                "chaos budget: min_degrade_factor must be in (0, 1) (got {}; a floor of 1 \
                 could only generate no-op degrades)",
                self.min_degrade_factor
            ));
        }
        Ok(())
    }

    /// Whether a concrete timeline satisfies every bound (count, kinds,
    /// windows inside the horizon, total outage seconds, degrade
    /// depth), with each spec also passing [`FaultSpec::check`].
    pub fn admits(&self, specs: &[FaultSpec]) -> Result<(), String> {
        if specs.len() > self.max_faults as usize {
            return Err(format!(
                "timeline has {} faults, budget allows {}",
                specs.len(),
                self.max_faults
            ));
        }
        for spec in specs {
            spec.check()?;
            let kind = ChaosFaultKind::of(spec);
            if !self.kinds.contains(&kind) {
                return Err(format!("budget does not admit {} faults", kind.label()));
            }
            if spec.end > self.horizon_seconds + REL_TOL {
                return Err(format!(
                    "fault window [{}, {}) extends past the {}s horizon",
                    spec.start, spec.end, self.horizon_seconds
                ));
            }
            if let FaultKind::Degrade { factor } = spec.fault {
                if factor < self.min_degrade_factor - REL_TOL {
                    return Err(format!(
                        "degrade factor {factor} below the budget floor {}",
                        self.min_degrade_factor
                    ));
                }
            }
        }
        let outage = total_outage_seconds(specs);
        if outage > self.max_outage_seconds + REL_TOL {
            return Err(format!(
                "timeline schedules {outage}s of outage, budget allows {}s",
                self.max_outage_seconds
            ));
        }
        Ok(())
    }

    /// The budget with its window horizon clamped to a point's
    /// fault-free runtime, so generated windows intersect the run
    /// regardless of scale. Every other bound is unchanged, and the
    /// result is deterministic (the twin runtime is).
    pub fn fitted(&self, twin_duration: f64) -> FaultBudget {
        let mut fitted = self.clone();
        if twin_duration.is_finite() && twin_duration > 0.0 {
            fitted.horizon_seconds = fitted.horizon_seconds.min(twin_duration);
        }
        fitted
    }
}

/// A chaos campaign: a base deck fanned out into a seeded population of
/// generated fault timelines per point, each bounded by one
/// [`FaultBudget`]. Scenario IR — serializable, deterministic,
/// runnable via `hcs chaos`.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ChaosCampaign {
    /// Campaign name (doubles as the output artifact id).
    pub name: String,
    /// Human-readable description.
    #[serde(skip_serializing_if = "String::is_empty")]
    pub title: String,
    /// The deck whose expanded points the campaign fuzzes. Points must
    /// run the IOR family (the flow-level fault engine's domain) and
    /// must not schedule literal faults of their own.
    pub base: Deck,
    /// Master seed: every timeline derives from it, the point name and
    /// the timeline index alone, so reports are independent of worker
    /// count and execution order.
    pub seed: u64,
    /// Timelines generated per point (index 0 is always the empty
    /// timeline, pinning the empty-identity invariant at every point).
    pub population: u32,
    /// Per-timeline fault bounds.
    pub budget: FaultBudget,
}

fn default_population() -> u32 {
    25
}

// Hand-written for the same reason as [`FaultBudget`]'s impl: a
// campaign file only has to spell `name` and `base`; seed, population
// and budget fall back to their documented defaults.
impl Deserialize for ChaosCampaign {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        if v.as_map().is_none() {
            return Err(serde::Error::msg("expected a chaos-campaign object"));
        }
        let name: String = required(v, "name")?;
        let mut campaign = ChaosCampaign::new(name, required(v, "base")?);
        set_field(v, "title", &mut campaign.title)?;
        set_field(v, "seed", &mut campaign.seed)?;
        set_field(v, "population", &mut campaign.population)?;
        set_field(v, "budget", &mut campaign.budget)?;
        Ok(campaign)
    }
}

impl ChaosCampaign {
    /// A campaign over `base` with default seed, population and budget.
    pub fn new(name: impl Into<String>, base: Deck) -> Self {
        ChaosCampaign {
            name: name.into(),
            title: String::new(),
            base,
            seed: 0,
            population: default_population(),
            budget: FaultBudget::default(),
        }
    }

    /// Validates the campaign shell (name, population, budget). Deck
    /// contents are validated by the executor, which has the registry.
    pub fn check(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("chaos campaign needs a name".into());
        }
        if self.population == 0 {
            return Err("chaos campaign needs a population of at least 1".into());
        }
        self.budget.check()
    }
}

/// Total scheduled outage seconds of a timeline (sum of outage window
/// lengths; overlaps count twice — the bound invariant 4 uses is a sum,
/// not a union).
pub fn total_outage_seconds(specs: &[FaultSpec]) -> f64 {
    specs
        .iter()
        .filter(|s| matches!(s.fault, FaultKind::Outage))
        .map(|s| s.end - s.start)
        .sum()
}

/// The capacity-loss budget a timeline consumes, in equivalent
/// full-outage seconds: each window weighted by its severity (outage 1,
/// degrade `1 - factor`, jitter its amplitude). The x-axis of the
/// Pareto frontier.
pub fn timeline_cost(specs: &[FaultSpec]) -> f64 {
    specs
        .iter()
        .map(|s| {
            let window = s.end - s.start;
            let severity = match s.fault {
                FaultKind::Outage => 1.0,
                FaultKind::Degrade { factor } => 1.0 - factor,
                FaultKind::Jitter { amplitude, .. } => amplitude,
            };
            window * severity
        })
        .sum()
}

/// Whether any spec in the timeline is a jitter fault (which exempts it
/// from the monotonicity invariant — mean-one flapping can transiently
/// raise capacity above the provisioned value).
pub fn has_jitter(specs: &[FaultSpec]) -> bool {
    specs
        .iter()
        .any(|s| matches!(s.fault, FaultKind::Jitter { .. }))
}

/// Whether two specs target the same stage kind with overlapping
/// windows. Under the engine's last-event-wins override semantics an
/// overlapping event can *lift* an earlier fault before its window
/// ends (e.g. a degrade starting inside an outage restores partial
/// capacity), so removing a spec from an overlapping pair is not
/// guaranteed to speed the run up — the prefix half of the
/// monotonicity invariant only applies to per-stage-disjoint timelines.
pub fn has_same_stage_overlap(specs: &[FaultSpec]) -> bool {
    specs.iter().enumerate().any(|(i, a)| {
        specs[i + 1..]
            .iter()
            .any(|b| a.stage == b.stage && a.start < b.end && b.start < a.end)
    })
}

/// Deterministically generates the `k`-th timeline of a point's
/// population: a budget-bounded draw of [`FaultSpec`]s against the
/// stage kinds present in the point's deployment plan.
///
/// Timeline 0 is always empty (the empty-identity probe). Every other
/// timeline derives from `SimRng::new(seed).split(point)` and the
/// index alone, so populations are stable across worker counts,
/// execution order and unrelated code motion. The result always
/// satisfies `budget.admits` and each spec's own
/// [`FaultSpec::check`] — asserted here, pinned by the property tests.
///
/// # Panics
/// Panics if `stages` is empty or the budget fails its own
/// [`FaultBudget::check`].
pub fn generate_timeline(
    budget: &FaultBudget,
    stages: &[StageKind],
    seed: u64,
    point: &str,
    k: u32,
) -> Vec<FaultSpec> {
    budget
        .check()
        .unwrap_or_else(|e| panic!("invalid chaos budget: {e}"));
    assert!(!stages.is_empty(), "no stages to fault");
    if k == 0 || budget.max_faults == 0 {
        return Vec::new();
    }
    let mut rng = SimRng::new(seed)
        .split(point)
        .split_idx("chaos-timeline", k as u64);
    let n = 1 + rng.below(budget.max_faults as u64);
    let horizon = budget.horizon_seconds;
    let mut outage_left = budget.max_outage_seconds;
    let mut specs = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let stage = stages[rng.below(stages.len() as u64) as usize];
        // Windows start in the first 60% of the horizon and span 5–45%
        // of it, so every window fits inside [0, horizon) and has
        // strictly positive length.
        let start = 0.6 * horizon * rng.uniform();
        let length = (0.05 + 0.35 * rng.uniform()) * horizon;
        let mut kind = budget.kinds[rng.below(budget.kinds.len() as u64) as usize];
        if kind == ChaosFaultKind::Outage && outage_left <= 0.0 {
            // Outage budget exhausted: fall back to another admitted
            // family, or drop the fault if outages are all the budget
            // admits.
            match budget
                .kinds
                .iter()
                .find(|kk| **kk != ChaosFaultKind::Outage)
            {
                Some(other) => kind = *other,
                None => continue,
            }
        }
        let spec = match kind {
            ChaosFaultKind::Outage => {
                let length = length.min(outage_left);
                outage_left -= length;
                if length <= 0.0 {
                    continue;
                }
                FaultSpec::outage(stage, start, start + length)
            }
            ChaosFaultKind::Degrade => {
                // Clamp strictly below 1.0: FaultSpec::check rejects a
                // factor of exactly 1.0 as a no-op.
                let factor =
                    budget.min_degrade_factor + (1.0 - budget.min_degrade_factor) * rng.uniform();
                FaultSpec::degrade(stage, start, start + length, factor.min(1.0 - 1e-9))
            }
            ChaosFaultKind::Jitter => FaultSpec {
                stage,
                name: None,
                start,
                end: start + length,
                fault: FaultKind::Jitter {
                    seed: rng.below(1 << 48),
                    amplitude: 0.05 + 0.4 * rng.uniform(),
                    steps: 1 + rng.below(6) as u32,
                },
            },
        };
        specs.push(spec);
    }
    budget
        .admits(&specs)
        .unwrap_or_else(|e| panic!("generator produced an out-of-budget timeline: {e}"));
    specs
}

/// The metamorphic invariants a chaos run is checked against.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChaosInvariant {
    /// An empty timeline reproduces the fault-free twin bit for bit.
    EmptyTimelineIdentity,
    /// Adding a capacity-loss fault never speeds a run up: the full
    /// timeline's duration dominates its prefix's and the twin's.
    SubsetMonotonicity,
    /// When every recovery event fired, terminal capacities equal the
    /// provisioned entry snapshot bit for bit.
    RecoveryRestoresCapacity,
    /// Accumulated stall seconds never exceed total scheduled outage
    /// seconds.
    StallWithinOutageWindows,
    /// No stall without an outage, and no unrecoverable stall at all
    /// (every generated outage schedules its recovery).
    NoUnexplainedStall,
}

impl ChaosInvariant {
    /// Every invariant, in report order.
    pub fn all() -> [ChaosInvariant; 5] {
        [
            ChaosInvariant::EmptyTimelineIdentity,
            ChaosInvariant::SubsetMonotonicity,
            ChaosInvariant::RecoveryRestoresCapacity,
            ChaosInvariant::StallWithinOutageWindows,
            ChaosInvariant::NoUnexplainedStall,
        ]
    }

    /// Human-readable label for report tables.
    pub fn label(&self) -> &'static str {
        match self {
            ChaosInvariant::EmptyTimelineIdentity => "empty timeline ⇒ bit-identical twin",
            ChaosInvariant::SubsetMonotonicity => "faults never speed a run up",
            ChaosInvariant::RecoveryRestoresCapacity => "recovery restores capacity exactly",
            ChaosInvariant::StallWithinOutageWindows => "stall bounded by outage windows",
            ChaosInvariant::NoUnexplainedStall => "no unexplained stalls",
        }
    }
}

/// The outcome of checking one run: which invariants applied, and the
/// violations among them.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosEvaluation {
    /// Invariants that applied to this run.
    pub checked: Vec<ChaosInvariant>,
    /// Violated invariants with a one-line diagnostic each.
    pub violations: Vec<(ChaosInvariant, String)>,
}

/// Evaluates every applicable metamorphic invariant for one run.
///
/// `prefix` is the run of `specs` minus its last element (the nested
/// sub-timeline), supplied when the caller executed it; `twin` is the
/// point's fault-free outcome.
pub fn evaluate_run(
    specs: &[FaultSpec],
    run: &ChaosPhaseRun,
    prefix: Option<&ChaosPhaseRun>,
    twin: &PhaseOutcome,
) -> ChaosEvaluation {
    let mut checked = Vec::new();
    let mut violations: Vec<(ChaosInvariant, String)> = Vec::new();
    let mut check = |inv: ChaosInvariant, ok: bool, detail: &dyn Fn() -> String| {
        checked.push(inv);
        if !ok {
            violations.push((inv, detail()));
        }
    };

    if specs.is_empty() {
        let bits_equal = run.outcome.duration.to_bits() == twin.duration.to_bits()
            && run.outcome.agg_bandwidth.to_bits() == twin.agg_bandwidth.to_bits()
            && run.outcome.per_node_duration.len() == twin.per_node_duration.len()
            && run
                .outcome
                .per_node_duration
                .iter()
                .zip(&twin.per_node_duration)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && run.report.stall_seconds == 0.0
            && run.report.events_applied == 0;
        check(ChaosInvariant::EmptyTimelineIdentity, bits_equal, &|| {
            format!(
                "empty timeline diverged from twin: duration {} vs {}, stall {}, {} events",
                run.outcome.duration,
                twin.duration,
                run.report.stall_seconds,
                run.report.events_applied
            )
        });
        return ChaosEvaluation {
            checked,
            violations,
        };
    }

    let tol = REL_TOL * twin.duration.max(1.0);
    if !has_jitter(specs) {
        // The twin bound holds for every jitter-free timeline (factors
        // never exceed base capacity); the prefix bound additionally
        // needs per-stage-disjoint windows (see
        // [`has_same_stage_overlap`]).
        let above_twin = run.outcome.duration >= twin.duration - tol;
        let above_prefix = prefix
            .filter(|_| !has_same_stage_overlap(specs))
            .map(|p| run.outcome.duration >= p.outcome.duration - tol)
            .unwrap_or(true);
        check(
            ChaosInvariant::SubsetMonotonicity,
            above_twin && above_prefix,
            &|| {
                format!(
                    "faulted run finished in {}s, faster than its subset ({}s twin{})",
                    run.outcome.duration,
                    twin.duration,
                    prefix
                        .map(|p| format!(", {}s prefix", p.outcome.duration))
                        .unwrap_or_default()
                )
            },
        );
    }

    // All of a spec's events sit at or before its window end, and the
    // drive loop applies every event scheduled strictly before the
    // final completion — so when the latest window closes before the
    // run ends, every recovery fired and capacities must round-trip.
    let last_recovery = specs.iter().fold(f64::NEG_INFINITY, |a, s| a.max(s.end));
    if last_recovery < run.report.end {
        let restored = run
            .evidence
            .terminal_capacities
            .iter()
            .zip(&run.evidence.entry_capacities)
            .all(|(t, e)| t.to_bits() == e.to_bits());
        check(ChaosInvariant::RecoveryRestoresCapacity, restored, &|| {
            let drifted = run
                .evidence
                .terminal_capacities
                .iter()
                .zip(&run.evidence.entry_capacities)
                .filter(|(t, e)| t.to_bits() != e.to_bits())
                .count();
            format!(
                "{drifted} resource(s) did not return to provisioned capacity \
                 after the last recovery at {last_recovery}s"
            )
        });
    }

    let outage = total_outage_seconds(specs);
    check(
        ChaosInvariant::StallWithinOutageWindows,
        run.report.stall_seconds >= 0.0 && run.report.stall_seconds <= outage + tol,
        &|| {
            format!(
                "stalled {}s with only {outage}s of scheduled outage",
                run.report.stall_seconds
            )
        },
    );
    check(
        ChaosInvariant::NoUnexplainedStall,
        outage > 0.0 || run.report.stall_seconds == 0.0,
        &|| {
            format!(
                "stalled {}s with no outage in the timeline",
                run.report.stall_seconds
            )
        },
    );
    ChaosEvaluation {
        checked,
        violations,
    }
}

/// Greedy event-dropping shrinker: repeatedly removes any single spec
/// whose removal keeps the timeline violating (per `still_violates`),
/// until the result is 1-minimal — no single remaining event can be
/// dropped. The classic ddmin tail, enough to reduce a fuzzer
/// counterexample to its causal core.
pub fn shrink_timeline(
    specs: &[FaultSpec],
    mut still_violates: impl FnMut(&[FaultSpec]) -> bool,
) -> Vec<FaultSpec> {
    let mut current = specs.to_vec();
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while i < current.len() {
            let mut candidate = current.clone();
            candidate.remove(i);
            if still_violates(&candidate) {
                current = candidate;
                shrunk = true;
            } else {
                i += 1;
            }
        }
        if !shrunk {
            return current;
        }
    }
}

/// One executed timeline of a campaign, with its invariant verdicts.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChaosRunRecord {
    /// Expanded point name the timeline ran against.
    pub point: String,
    /// Timeline index within the point's population.
    pub timeline: u32,
    /// The generated fault schedule.
    pub specs: Vec<FaultSpec>,
    /// Faulted duration, seconds.
    pub duration: f64,
    /// Faulted duration over the fault-free twin's.
    pub slowdown: f64,
    /// Seconds every active flow sat at rate zero.
    pub stall_seconds: f64,
    /// Capacity-loss budget the timeline consumed
    /// ([`timeline_cost`]).
    pub cost_seconds: f64,
    /// Invariants that applied to this run.
    pub checked: Vec<ChaosInvariant>,
    /// Violations found (normally empty).
    pub violations: Vec<ChaosViolation>,
}

/// A confirmed invariant violation with its minimized counterexample.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChaosViolation {
    /// Point the violating timeline ran against.
    pub point: String,
    /// Timeline index within the point's population.
    pub timeline: u32,
    /// The violated invariant.
    pub invariant: ChaosInvariant,
    /// One-line diagnostic.
    pub detail: String,
    /// The timeline after greedy event-dropping minimization (empty
    /// until the shrinker ran).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub minimized: Vec<FaultSpec>,
}

/// Aggregate pass/fail counts for one invariant across a campaign.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct InvariantStat {
    /// The invariant.
    pub invariant: ChaosInvariant,
    /// Runs the invariant applied to.
    pub checked: usize,
    /// Runs that satisfied it.
    pub passed: usize,
}

/// One point of the worst-case slowdown Pareto frontier: spending this
/// much fault budget bought this much slowdown, and no cheaper timeline
/// in the population hurt more.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ParetoPoint {
    /// Point the timeline ran against.
    pub point: String,
    /// Timeline index within the point's population.
    pub timeline: u32,
    /// Consumed capacity-loss budget, equivalent full-outage seconds.
    pub cost_seconds: f64,
    /// Number of faults in the timeline.
    pub faults: usize,
    /// Faulted over fault-free duration.
    pub slowdown: f64,
}

/// Aggregate fragility of one stage kind: how badly runs that faulted
/// it slowed down.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FragilityRow {
    /// The faulted stage kind.
    pub stage: StageKind,
    /// Timelines that targeted the stage.
    pub timelines: usize,
    /// Mean slowdown over those timelines.
    pub mean_slowdown: f64,
    /// Worst slowdown over those timelines.
    pub max_slowdown: f64,
}

/// The aggregated result of a chaos campaign: invariant verdicts,
/// minimized counterexamples, the slowdown-per-budget Pareto frontier
/// and the stage fragility ranking. What `hcs chaos` writes and
/// `hcs report` renders.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChaosReport {
    /// Campaign name.
    pub campaign: String,
    /// Master seed the populations derived from.
    pub seed: u64,
    /// Timelines generated per point.
    pub population: u32,
    /// Expanded deck points fuzzed.
    pub points: usize,
    /// Total timelines executed (`points * population`).
    pub timelines: usize,
    /// Total engine runs, including prefix probes for the monotonicity
    /// invariant (twin runs excluded).
    pub engine_runs: usize,
    /// Pass/fail counts per invariant.
    pub invariants: Vec<InvariantStat>,
    /// Confirmed violations with minimized counterexamples (absent in
    /// a clean campaign, and skipped from serialization then).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub violations: Vec<ChaosViolation>,
    /// Worst-case slowdown Pareto frontier, cheapest budget first.
    pub pareto: Vec<ParetoPoint>,
    /// Stage kinds ranked most-fragile first (by mean slowdown of the
    /// timelines that faulted them).
    pub fragility: Vec<FragilityRow>,
    /// Worst slowdown observed anywhere in the campaign.
    pub max_slowdown: f64,
}

impl ChaosReport {
    /// Folds executed run records into the campaign report. Records
    /// must be in deterministic (expansion × population) order — every
    /// aggregate here preserves it, so reports are bit-stable across
    /// worker counts.
    pub fn assemble(
        campaign: &ChaosCampaign,
        points: usize,
        engine_runs: usize,
        records: &[ChaosRunRecord],
    ) -> ChaosReport {
        let invariants = ChaosInvariant::all()
            .into_iter()
            .map(|inv| {
                let checked = records.iter().filter(|r| r.checked.contains(&inv)).count();
                let failed = records
                    .iter()
                    .filter(|r| r.violations.iter().any(|v| v.invariant == inv))
                    .count();
                InvariantStat {
                    invariant: inv,
                    checked,
                    passed: checked - failed,
                }
            })
            .collect();
        let violations: Vec<ChaosViolation> = records
            .iter()
            .flat_map(|r| r.violations.iter().cloned())
            .collect();
        let max_slowdown = records
            .iter()
            .map(|r| r.slowdown)
            .fold(1.0_f64, |a, b| a.max(b));
        ChaosReport {
            campaign: campaign.name.clone(),
            seed: campaign.seed,
            population: campaign.population,
            points,
            timelines: records.len(),
            engine_runs,
            invariants,
            violations,
            pareto: pareto_frontier(records),
            fragility: fragility_ranking(records),
            max_slowdown,
        }
    }
}

/// The worst-case slowdown Pareto frontier: sort the faulted runs by
/// consumed budget and keep each run that slows the workload more than
/// every cheaper one — the staircase of "what the worst timeline at
/// this budget achieves". Ties are broken deterministically (higher
/// slowdown, then point name, then timeline index).
pub fn pareto_frontier(records: &[ChaosRunRecord]) -> Vec<ParetoPoint> {
    let mut faulted: Vec<&ChaosRunRecord> =
        records.iter().filter(|r| r.cost_seconds > 0.0).collect();
    faulted.sort_by(|a, b| {
        a.cost_seconds
            .total_cmp(&b.cost_seconds)
            .then(b.slowdown.total_cmp(&a.slowdown))
            .then(a.point.cmp(&b.point))
            .then(a.timeline.cmp(&b.timeline))
    });
    let mut frontier = Vec::new();
    let mut best = 1.0_f64;
    for r in faulted {
        if r.slowdown > best {
            best = r.slowdown;
            frontier.push(ParetoPoint {
                point: r.point.clone(),
                timeline: r.timeline,
                cost_seconds: r.cost_seconds,
                faults: r.specs.len(),
                slowdown: r.slowdown,
            });
        }
    }
    frontier
}

/// Per-stage-kind fragility: for every stage kind any timeline faulted,
/// the mean and max slowdown of the timelines that targeted it, ranked
/// most-fragile first (ties broken by canonical stage order).
pub fn fragility_ranking(records: &[ChaosRunRecord]) -> Vec<FragilityRow> {
    let mut rows: Vec<FragilityRow> = StageKind::all()
        .into_iter()
        .filter_map(|stage| {
            let hit: Vec<&ChaosRunRecord> = records
                .iter()
                .filter(|r| r.specs.iter().any(|s| s.stage == stage))
                .collect();
            if hit.is_empty() {
                return None;
            }
            let mean = hit.iter().map(|r| r.slowdown).sum::<f64>() / hit.len() as f64;
            let max = hit
                .iter()
                .map(|r| r.slowdown)
                .fold(f64::NEG_INFINITY, f64::max);
            Some(FragilityRow {
                stage,
                timelines: hit.len(),
                mean_slowdown: mean,
                max_slowdown: max,
            })
        })
        .collect();
    rows.sort_by(|a, b| {
        b.mean_slowdown
            .total_cmp(&a.mean_slowdown)
            .then(a.stage.cmp(&b.stage))
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stages() -> Vec<StageKind> {
        vec![
            StageKind::ClientMount,
            StageKind::Gateway,
            StageKind::ServerPool,
        ]
    }

    #[test]
    fn timeline_zero_is_always_empty() {
        let budget = FaultBudget::default();
        for seed in [0, 7, 42] {
            assert!(generate_timeline(&budget, &stages(), seed, "p", 0).is_empty());
        }
    }

    #[test]
    fn generation_is_deterministic_and_point_scoped() {
        let budget = FaultBudget::default();
        let a = generate_timeline(&budget, &stages(), 7, "sys/n4", 3);
        let b = generate_timeline(&budget, &stages(), 7, "sys/n4", 3);
        assert_eq!(a, b);
        let other_point = generate_timeline(&budget, &stages(), 7, "sys/n16", 3);
        let other_seed = generate_timeline(&budget, &stages(), 8, "sys/n4", 3);
        // Distinct streams (overwhelmingly) draw distinct schedules.
        assert!(a != other_point || a != other_seed);
    }

    #[test]
    fn generation_respects_kind_restrictions() {
        let budget = FaultBudget {
            kinds: vec![ChaosFaultKind::Degrade],
            ..FaultBudget::default()
        };
        for k in 1..50 {
            let specs = generate_timeline(&budget, &stages(), 11, "p", k);
            assert!(specs
                .iter()
                .all(|s| matches!(s.fault, FaultKind::Degrade { .. })));
            assert!(budget.admits(&specs).is_ok());
        }
    }

    #[test]
    fn outage_only_budget_exhausts_gracefully() {
        let budget = FaultBudget {
            kinds: vec![ChaosFaultKind::Outage],
            max_outage_seconds: 0.2,
            max_faults: 5,
            ..FaultBudget::default()
        };
        for k in 1..50 {
            let specs = generate_timeline(&budget, &stages(), 3, "p", k);
            assert!(total_outage_seconds(&specs) <= 0.2 + 1e-9);
        }
    }

    #[test]
    fn budget_rejects_inconsistent_bounds() {
        let mut b = FaultBudget::default();
        b.kinds.clear();
        assert!(b.check().is_err());
        let b = FaultBudget {
            horizon_seconds: 0.0,
            ..FaultBudget::default()
        };
        assert!(b.check().is_err());
        let b = FaultBudget {
            min_degrade_factor: 0.0,
            ..FaultBudget::default()
        };
        assert!(b.check().is_err());
    }

    #[test]
    fn admits_flags_each_bound() {
        let budget = FaultBudget {
            max_faults: 1,
            ..FaultBudget::default()
        };
        let long = vec![
            FaultSpec::outage(StageKind::Gateway, 0.0, 1.0),
            FaultSpec::outage(StageKind::Gateway, 1.0, 2.0),
        ];
        assert!(budget.admits(&long).unwrap_err().contains("faults"));
        let deep = vec![FaultSpec::degrade(StageKind::Gateway, 0.0, 1.0, 0.1)];
        assert!(budget.admits(&deep).unwrap_err().contains("floor"));
        let outside = vec![FaultSpec::outage(StageKind::Gateway, 0.0, 100.0)];
        assert!(budget.admits(&outside).unwrap_err().contains("horizon"));
    }

    #[test]
    fn fitted_clamps_horizon_only() {
        let budget = FaultBudget::default();
        let fitted = budget.fitted(0.5);
        assert_eq!(fitted.horizon_seconds, 0.5);
        assert_eq!(fitted.max_faults, budget.max_faults);
        assert_eq!(budget.fitted(100.0).horizon_seconds, budget.horizon_seconds);
    }

    #[test]
    fn cost_weights_by_severity() {
        let specs = vec![
            FaultSpec::outage(StageKind::Gateway, 0.0, 1.0),
            FaultSpec::degrade(StageKind::Gateway, 0.0, 2.0, 0.75),
        ];
        assert!((timeline_cost(&specs) - 1.5).abs() < 1e-12);
    }

    fn record(point: &str, timeline: u32, cost: f64, slowdown: f64) -> ChaosRunRecord {
        ChaosRunRecord {
            point: point.into(),
            timeline,
            specs: vec![FaultSpec::outage(StageKind::Gateway, 0.0, cost)],
            duration: slowdown,
            slowdown,
            stall_seconds: 0.0,
            cost_seconds: cost,
            checked: vec![],
            violations: vec![],
        }
    }

    #[test]
    fn pareto_is_a_strictly_improving_staircase() {
        let records = vec![
            record("a", 1, 0.5, 1.4),
            record("a", 2, 0.2, 1.2),
            record("a", 3, 0.3, 1.1), // dominated: costs more than #2, hurts less
            record("a", 4, 1.0, 2.0),
            record("a", 5, 2.0, 1.9), // dominated by #4
        ];
        let frontier = pareto_frontier(&records);
        let picked: Vec<u32> = frontier.iter().map(|p| p.timeline).collect();
        assert_eq!(picked, vec![2, 1, 4]);
        assert!(frontier
            .windows(2)
            .all(|w| w[0].cost_seconds <= w[1].cost_seconds && w[0].slowdown < w[1].slowdown));
    }

    #[test]
    fn fragility_ranks_by_mean_slowdown() {
        let mut gw = record("a", 1, 0.5, 3.0);
        gw.specs = vec![FaultSpec::outage(StageKind::Gateway, 0.0, 0.5)];
        let mut pool = record("a", 2, 0.5, 1.5);
        pool.specs = vec![FaultSpec::outage(StageKind::ServerPool, 0.0, 0.5)];
        let rows = fragility_ranking(&[gw, pool]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].stage, StageKind::Gateway);
        assert!((rows[0].mean_slowdown - 3.0).abs() < 1e-12);
        assert_eq!(rows[1].timelines, 1);
    }

    #[test]
    fn shrinker_reaches_one_minimality() {
        let specs: Vec<FaultSpec> = (0..6)
            .map(|i| FaultSpec::outage(StageKind::Gateway, i as f64, i as f64 + 0.5))
            .collect();
        // "Violates" iff both the window starting at 1.0 and the window
        // starting at 4.0 survive — the causal pair among six events.
        let minimized = shrink_timeline(&specs, |cand| {
            cand.iter().any(|s| s.start == 1.0) && cand.iter().any(|s| s.start == 4.0)
        });
        assert_eq!(minimized.len(), 2);
        let starts: Vec<f64> = minimized.iter().map(|s| s.start).collect();
        assert!(starts.contains(&1.0) && starts.contains(&4.0));
    }

    #[test]
    fn campaign_serde_round_trips_with_defaults() {
        let deck = Deck::single(
            "d",
            crate::Scenario::new(
                "vast-lassen",
                crate::Workload::Ior(crate::scenario::IorConfig::smoke(
                    crate::scenario::WorkloadClass::Scientific,
                    1,
                    4,
                )),
            ),
        );
        let campaign = ChaosCampaign::new("c", deck);
        let json = serde_json::to_string(&campaign).unwrap();
        let back: ChaosCampaign = serde_json::from_str(&json).unwrap();
        assert_eq!(back, campaign);
        assert!(campaign.check().is_ok());
        // A sparse file spelling only name/base still parses.
        let sparse: ChaosCampaign = serde_json::from_str(&format!(
            r#"{{"name":"s","base":{}}}"#,
            serde_json::to_string(&campaign.base).unwrap()
        ))
        .unwrap();
        assert_eq!(sparse.population, default_population());
        assert_eq!(sparse.budget, FaultBudget::default());
    }
}
