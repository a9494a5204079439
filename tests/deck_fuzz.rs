//! Deck fuzzer: near-miss mutations of the shipped decks never reach a
//! panic.
//!
//! The corpus is every builtin deck but the datacenter one, plus every
//! deck file in `examples/scenarios/` but the datacenter deck and the
//! chaos campaign, each smoked the way `hcs run --smoke` smokes it and
//! with its open-loop window cut to [`OPEN_LOOP_WINDOW`]. A case takes
//! one deck's JSON and changes one thing: a numeric leaf (integer or
//! not) becomes 0, −1, half or double its value, or one array element
//! is dropped. Values stay within 2× of the shipped ones, so node
//! counts stay where the planner is quick.
//!
//! Every mutant must either fail to parse, or make `validate_deck`
//! return a one-line `Err`, or run: each expanded point that is not a
//! point of the unmutated deck goes through `run_scenario` under
//! `catch_unwind`, and none may panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use hcs_core::{Arrival, Deck, Scale};
use hcs_experiments::{figures, run_scenario, validate_deck, Meter};
use hcs_simkit::SimRng;
use serde::{Serialize, Value};

/// Mutants per run.
const CASES: usize = 1_000;
/// Seed of the mutation stream.
const SEED: u64 = 0xdec_f022;
/// Longest open-loop injection window, simulated seconds. Debug builds
/// re-solve every rate epoch from scratch, so a mutant of the shipped
/// 250 ms latency deck costs tens of seconds there; 20 ms keeps every
/// swept rate and the points past the knee.
const OPEN_LOOP_WINDOW: f64 = 0.02;

/// The decks the fuzzer mutates.
fn corpus() -> Vec<Deck> {
    let mut decks: Vec<Deck> = figures::all_decks(Scale::Smoke)
        .into_iter()
        .filter(|d| d.name != "datacenter.saturation")
        .collect();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples/scenarios is readable")
        .map(|e| e.expect("directory entry").path())
        .collect();
    files.sort();
    for path in files {
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
        if stem == "datacenter.saturation" || stem.starts_with("chaos.") {
            continue;
        }
        let json = std::fs::read_to_string(&path).expect("example deck is readable");
        let deck: Deck = serde_json::from_str(&json)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        decks.push(deck);
    }
    for deck in &mut decks {
        if let Arrival::Open { duration, .. } = &mut deck.base.arrival {
            *duration = duration.min(OPEN_LOOP_WINDOW);
        }
    }
    decks.into_iter().map(Deck::smoked).collect()
}

/// The route from a deck's root value to a node: one child position
/// (map entry or sequence element) per level.
type Path = Vec<usize>;

/// Collects the paths of every numeric leaf and every non-empty array.
fn sites(v: &Value, path: &mut Path, numbers: &mut Vec<Path>, arrays: &mut Vec<Path>) {
    match v {
        Value::Num(_) | Value::Int(_) => numbers.push(path.clone()),
        Value::Seq(items) => {
            if !items.is_empty() {
                arrays.push(path.clone());
            }
            for (i, item) in items.iter().enumerate() {
                path.push(i);
                sites(item, path, numbers, arrays);
                path.pop();
            }
        }
        Value::Map(entries) => {
            for (i, (_, item)) in entries.iter().enumerate() {
                path.push(i);
                sites(item, path, numbers, arrays);
                path.pop();
            }
        }
        Value::Null | Value::Bool(_) | Value::Str(_) => {}
    }
}

fn at<'a>(v: &'a mut Value, path: &[usize]) -> &'a mut Value {
    path.iter().fold(v, |v, &i| match v {
        Value::Seq(items) => &mut items[i],
        Value::Map(entries) => &mut entries[i].1,
        _ => unreachable!("paths lead through containers"),
    })
}

/// Applies one random mutation to `deck`'s JSON value, returning the
/// mutant and a description of the change.
fn mutate(deck: &Deck, rng: &mut SimRng) -> (Value, String) {
    let mut v = deck.to_value();
    let (mut numbers, mut arrays) = (Vec::new(), Vec::new());
    sites(&v, &mut Vec::new(), &mut numbers, &mut arrays);
    let pick = rng.below((numbers.len() + arrays.len()) as u64) as usize;
    if pick < numbers.len() {
        let n = at(&mut v, &numbers[pick]);
        let old = match *n {
            Value::Num(x) => x,
            Value::Int(i) => i as f64,
            _ => unreachable!("a numeric site"),
        };
        let new = [0.0, -1.0, old / 2.0, old * 2.0][rng.below(4) as usize];
        *n = Value::Num(new);
        let desc = format!("number at {:?}: {old} -> {new}", numbers[pick]);
        (v, desc)
    } else {
        let path = &arrays[pick - numbers.len()];
        let Value::Seq(items) = at(&mut v, path) else {
            unreachable!("an array site");
        };
        let i = rng.below(items.len() as u64) as usize;
        items.remove(i);
        (v, format!("array at {path:?}: dropped element {i}"))
    }
}

#[test]
fn mutated_decks_never_panic() {
    let decks = corpus();
    assert!(decks.len() > 20, "corpus has {} decks", decks.len());
    let mut rng = SimRng::new(SEED);
    let (mut unparsed, mut rejected, mut ran) = (0, 0, 0);
    let mut panics: Vec<String> = Vec::new();
    for case in 0..CASES {
        let deck = &decks[rng.below(decks.len() as u64) as usize];
        let (mutant, change) = mutate(deck, &mut rng);
        let json = serde_json::to_string(&mutant).expect("a value serializes");
        let tag = format!("case {case}, deck '{}', {change}", deck.name);
        let Ok(mutant) = serde_json::from_str::<Deck>(&json) else {
            unparsed += 1;
            continue;
        };
        match catch_unwind(AssertUnwindSafe(|| validate_deck(&mutant))) {
            Err(_) => panics.push(format!("{tag}: validate_deck panicked")),
            Ok(Err(e)) => {
                assert!(!e.contains('\n'), "{tag}: diagnostic is not one line: {e}");
                rejected += 1;
            }
            Ok(Ok(())) => {
                let shipped = deck.expand();
                for point in mutant.expand().iter().filter(|p| !shipped.contains(p)) {
                    ran += 1;
                    let run = catch_unwind(AssertUnwindSafe(|| {
                        run_scenario(point, None, Meter::Metrics)
                    }));
                    if run.is_err() {
                        panics.push(format!("{tag}: point '{}' panicked", point.name));
                    }
                }
            }
        }
    }
    assert!(
        panics.is_empty(),
        "{} panics in {CASES} cases:\n{}",
        panics.len(),
        panics.join("\n")
    );
    // The mutation space reaches all three outcomes.
    assert!(
        unparsed > 0 && rejected > 0 && ran > 0,
        "{unparsed} {rejected} {ran}"
    );
}
