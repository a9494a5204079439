//! The benchmark's workloads: inputs generated from the seed, one
//! closed-loop pass through the public API, and the checks each pass's
//! outputs must pass.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use hcs_core::{Arrival, ChaosCampaign, ChaosFaultKind, ChaosReport, Deck, Scale, Workload};
use hcs_experiments::{
    figures, render_markdown, run_chaos_campaign, run_deck_with_metrics, run_deck_with_provenance,
    run_scenario_metered, validate_deck, validate_provenance, DeckResult,
};
use hcs_simkit::{arrival_times, SimRng};

use crate::gate::{digest, point_digest, Gate};

/// The seed of the shipped example files (and of every builtin deck).
pub const DEFAULT_SEED: u64 = 0x1082_2024;

/// Offered loads of the open-loop deck, ops/s: well below and far
/// past the knees of both swept systems. A rate near a knee is left
/// out on purpose: there the backlog is a random walk, so the host cost
/// of a pass swings with the arrival seed.
const OPEN_LOOP_RATES: [f64; 2] = [800.0, 25600.0];
/// Open-loop injection window, simulated seconds.
const OPEN_LOOP_WINDOW: f64 = 0.02;
/// Node counts of the chaos deck. The shipped campaign also has 64-node
/// points, where per-node faults fan out to 64 mounts; together with
/// jitter faults (independent random factors per resource) they make a
/// timeline's host cost heavy-tailed in the seed (one timeline can cost
/// a hundred average ones), which no affordable population averages out.
const CHAOS_NODES: [u32; 3] = [1, 4, 16];
/// Timelines per chaos point (the shipped campaign has 25).
const CHAOS_POPULATION: u32 = 400;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Every builtin smoke deck but the datacenter one, plus the
    /// cross-protocol example: many cheap closed-loop points.
    Paper,
    /// A Poisson open-loop sweep past saturation, run plain and with
    /// the provenance probe.
    OpenLoop,
    /// The 10^5–10^6-client deck (equivalence-class planner).
    Datacenter,
    /// A seeded fault-timeline campaign (outages and degradations).
    Chaos,
}

impl Kind {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Some(match name {
            "paper" => Kind::Paper,
            "open_loop" => Kind::OpenLoop,
            "datacenter" => Kind::Datacenter,
            "chaos" => Kind::Chaos,
            _ => return None,
        })
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Paper => "paper",
            Kind::OpenLoop => "open_loop",
            Kind::Datacenter => "datacenter",
            Kind::Chaos => "chaos",
        }
    }

    /// What one unit of `work_per_s` is on this workload.
    pub fn unit(self) -> &'static str {
        match self {
            Kind::Paper | Kind::Datacenter => "deck points",
            Kind::OpenLoop => "simulated ops",
            Kind::Chaos => "timelines",
        }
    }
}

/// A workload's generated inputs.
pub enum Inputs {
    /// Decks run through the metered executor.
    Decks {
        kind: Kind,
        decks: Vec<Deck>,
        /// Open loop only: the ops each point must offer and complete,
        /// per deck and expanded point, computed independently from the
        /// arrival spec.
        offered: Vec<Vec<u64>>,
    },
    /// A chaos campaign.
    Chaos(Box<ChaosCampaign>),
}

fn read_json<T: serde::de::DeserializeOwned>(examples: &Path, file: &str) -> Result<T, String> {
    let path = examples.join(file);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// Writes the workload seed into a deck: the IOR noise seed and the
/// open-loop arrival seed.
fn seed_deck(deck: &mut Deck, seed: u64) {
    if let Workload::Ior(c) = &mut deck.base.workload {
        c.seed = seed;
        if deck.base.seed.is_some() {
            deck.base.seed = Some(seed);
        }
    }
    if let Arrival::Open { seed: s, .. } = &mut deck.base.arrival {
        *s = seed;
    }
}

/// Ops a point's arrival process offers, drawn the way the open-loop
/// runner draws them: one substream per client node.
fn offered_ops(scenario: &hcs_core::Scenario) -> u64 {
    let Arrival::Open {
        rate,
        discipline,
        duration,
        seed,
    } = scenario.arrival
    else {
        return 0;
    };
    let nodes = scenario.run_nodes();
    let root = SimRng::new(seed);
    (0..nodes)
        .map(|unit| {
            let mut rng = root.split_idx("open-arrivals", unit as u64);
            arrival_times(
                discipline.as_simkit(),
                rate / nodes as f64,
                duration,
                &mut rng,
            )
            .len() as u64
        })
        .sum()
}

impl Inputs {
    /// Loads and parses the workload's input files from `examples` and
    /// writes `seed` into them.
    pub fn load(kind: Kind, seed: u64, examples: &Path) -> Result<Inputs, String> {
        let mut decks = match kind {
            Kind::Paper => {
                let mut decks: Vec<Deck> = figures::all_decks(Scale::Smoke)
                    .into_iter()
                    .filter(|d| d.name != "datacenter.saturation")
                    .collect();
                decks.push(read_json(examples, "crossproto.json")?);
                decks
            }
            Kind::OpenLoop => {
                let mut deck: Deck = read_json(examples, "latency.saturation.json")?;
                deck.name = "open-loop".into();
                deck.axes.systems = vec!["vast-lassen".into(), "nvme".into()];
                deck.axes.offered_load = OPEN_LOOP_RATES.to_vec();
                if let Arrival::Open { duration, .. } = &mut deck.base.arrival {
                    *duration = OPEN_LOOP_WINDOW;
                }
                vec![deck]
            }
            Kind::Datacenter => vec![read_json(examples, "datacenter.saturation.json")?],
            Kind::Chaos => {
                let mut campaign: ChaosCampaign = read_json(examples, "chaos.vast-smoke.json")?;
                campaign.seed = seed;
                campaign.population = CHAOS_POPULATION;
                campaign.base.axes.nodes = CHAOS_NODES.to_vec();
                campaign.budget.kinds = vec![ChaosFaultKind::Outage, ChaosFaultKind::Degrade];
                seed_deck(&mut campaign.base, seed);
                return Ok(Inputs::Chaos(Box::new(campaign)));
            }
        };
        for deck in &mut decks {
            seed_deck(deck, seed);
        }
        let offered = if kind == Kind::OpenLoop {
            decks
                .iter()
                .map(|d| d.expand().iter().map(offered_ops).collect())
                .collect()
        } else {
            Vec::new()
        };
        Ok(Inputs::Decks {
            kind,
            decks,
            offered,
        })
    }

    /// The checks `hcs run` makes before executing: `validate_deck` on
    /// every deck (plus the provenance check for the open-loop deck)
    /// and the expansion into points.
    pub fn validate(&self) -> Result<usize, String> {
        match self {
            Inputs::Decks { kind, decks, .. } => {
                let mut points = 0;
                for deck in decks {
                    validate_deck(deck).map_err(|e| format!("deck '{}': {e}", deck.name))?;
                    if *kind == Kind::OpenLoop {
                        validate_provenance(deck)?;
                    }
                    points += deck.expand().len();
                }
                Ok(points)
            }
            Inputs::Chaos(c) => {
                c.check()?;
                validate_deck(&c.base)?;
                Ok(c.base.expand().len())
            }
        }
    }

    /// Runs one pass: every deck (or the campaign) once, closed loop.
    pub fn pass(&self) -> Vec<Run> {
        match self {
            Inputs::Decks { kind, decks, .. } => {
                let mut runs = Vec::new();
                for (i, deck) in decks.iter().enumerate() {
                    match kind {
                        Kind::Paper => runs.push(Run::deck("report", i, || {
                            let r = run_deck_with_metrics(deck);
                            let json = serde_json::to_string(&r).expect("deck result serializes");
                            let md = render_markdown(&r);
                            std::hint::black_box((json, md));
                            r
                        })),
                        Kind::OpenLoop => {
                            runs.push(Run::deck("plain", i, || run_deck_with_metrics(deck)));
                            runs.push(Run::deck("provenance", i, || {
                                run_deck_with_provenance(deck)
                            }));
                        }
                        Kind::Datacenter | Kind::Chaos => {
                            runs.push(Run::deck("metered", i, || run_deck_with_metrics(deck)))
                        }
                    }
                }
                runs
            }
            Inputs::Chaos(c) => {
                let start = Instant::now();
                let report = catch_unwind(AssertUnwindSafe(|| run_chaos_campaign(c)))
                    .ok()
                    .and_then(Result::ok);
                vec![Run {
                    part: "campaign",
                    index: 0,
                    seconds: start.elapsed().as_secs_f64(),
                    output: Output::Campaign(report),
                }]
            }
        }
    }

    /// Checks a pass's outputs through the gate and the workload's
    /// invariants.
    pub fn check(&self, runs: &[Run], gate: &mut Gate) -> Checked {
        let mut c = Checked::default();
        for run in runs {
            match (&run.output, self) {
                (
                    Output::Deck(result),
                    Inputs::Decks {
                        kind,
                        decks,
                        offered,
                    },
                ) => {
                    let deck = &decks[run.index];
                    let Some(result) = result else {
                        let points = deck.expand();
                        c.attempted += points.len();
                        c.failed += if run.part == "provenance" {
                            points.len()
                        } else {
                            panicking_points(&points)
                        };
                        continue;
                    };
                    let mut units = 0.0;
                    for (j, p) in result.points.iter().enumerate() {
                        let key = format!("{}:{}/{}", run.part, deck.name, p.scenario.name);
                        let d = point_digest(p);
                        c.items.push((key.clone(), d));
                        let mut ok = gate.check(&key, d);
                        if *kind == Kind::OpenLoop {
                            let ops: u64 = p
                                .metrics
                                .iter()
                                .flat_map(|m| &m.latency)
                                .map(|row| row.histogram.count())
                                .sum();
                            ok &= offered[run.index].get(j) == Some(&ops);
                            units += ops as f64;
                        } else {
                            units += 1.0;
                        }
                        c.attempted += 1;
                        c.failed += usize::from(!ok);
                    }
                    c.add_part(run.part, run.seconds, units);
                }
                (Output::Campaign(report), Inputs::Chaos(campaign)) => {
                    let expected = campaign.base.expand().len() * campaign.population as usize;
                    c.attempted += expected;
                    let Some(report) = report else {
                        c.failed += expected;
                        continue;
                    };
                    let d = digest(report);
                    c.items.push(("campaign".into(), d));
                    if !gate.check("campaign", d) || report.timelines != expected {
                        c.failed += expected;
                    } else {
                        c.failed += violated_timelines(report);
                    }
                    c.add_part(run.part, run.seconds, report.timelines as f64);
                }
                _ => unreachable!("runs come from the same inputs"),
            }
        }
        c
    }
}

/// Timelines with at least one invariant violation.
fn violated_timelines(report: &ChaosReport) -> usize {
    let mut hit: Vec<(&str, u32)> = report
        .violations
        .iter()
        .map(|v| (v.point.as_str(), v.timeline))
        .collect();
    hit.sort_unstable();
    hit.dedup();
    hit.len()
}

/// After a deck run panicked: how many of its points panic on their own.
fn panicking_points(points: &[hcs_core::Scenario]) -> usize {
    points
        .iter()
        .filter(|s| catch_unwind(AssertUnwindSafe(|| run_scenario_metered(s))).is_err())
        .count()
}

/// What one run of a pass produced; `None` when it panicked.
pub enum Output {
    Deck(Option<DeckResult>),
    Campaign(Option<ChaosReport>),
}

/// One timed run within a pass.
pub struct Run {
    /// Which part of the pass ("report", "plain", "provenance"...).
    pub part: &'static str,
    /// Index of the deck the run executed.
    pub index: usize,
    /// Host seconds the run took.
    pub seconds: f64,
    pub output: Output,
}

impl Run {
    fn deck(part: &'static str, index: usize, f: impl FnOnce() -> DeckResult) -> Run {
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(f)).ok();
        Run {
            part,
            index,
            seconds: start.elapsed().as_secs_f64(),
            output: Output::Deck(result),
        }
    }
}

/// The checked outcome of one pass.
#[derive(Default)]
pub struct Checked {
    /// Output key → digest, in output order.
    pub items: Vec<(String, u64)>,
    /// Points (or timelines) checked.
    pub attempted: usize,
    /// Points (or timelines) that panicked or were wrong.
    pub failed: usize,
    /// Per part: (name, host seconds, work units completed).
    pub parts: Vec<(&'static str, f64, f64)>,
}

impl Checked {
    fn add_part(&mut self, part: &'static str, seconds: f64, units: f64) {
        match self.parts.iter_mut().find(|(p, _, _)| *p == part) {
            Some((_, s, u)) => {
                *s += seconds;
                *u += units;
            }
            None => self.parts.push((part, seconds, units)),
        }
    }

    /// Work units the pass completed.
    pub fn units(&self) -> f64 {
        self.parts.iter().map(|(_, _, u)| u).sum()
    }
}
