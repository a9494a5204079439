//! Self-profiling harness: runs every builtin deck at the selected
//! scale through the metered executor and writes `BENCH_deck.json` —
//! one record per point with its wall-clock cost, flow-solver epoch
//! count and flow-group count, plus per-deck totals and throughput
//! (points/sec, solver epochs/sec). The artifact answers "where does
//! simulation time go" for the deck catalog the same way `hcs report`
//! answers it for a workload, and the throughput fields make the
//! equivalence-class planner's speedup a tracked trajectory across
//! commits (a `--scale datacenter` run pushes 10^6-client points
//! through the same harness).
//!
//! Usage: `hcs-bench [--scale <paper|smoke|datacenter>] [output-path]`
//! (default smoke scale, `BENCH_deck.json` in the current directory —
//! CI runs it from the repo root).

use serde::Serialize;
use std::time::Instant;

use hcs_core::scenario::Scale;
use hcs_experiments::{figures, run_chaos_campaign, run_deck, Meter};

#[derive(Serialize)]
struct PointRecord {
    deck: String,
    point: String,
    /// Registry key of the backend ("objstore", "daos", ...), the
    /// grouping key for `backends`.
    backend: String,
    system: String,
    nodes: u32,
    ppn: u32,
    headline: String,
    wall_seconds: f64,
    solver_epochs: u64,
    flow_groups: u64,
}

/// Per-backend simulation throughput across every deck in the run —
/// answers "which storage model is expensive to simulate" the way
/// `decks` answers it per sweep.
#[derive(Serialize)]
struct BackendRecord {
    system: String,
    points: usize,
    wall_seconds: f64,
    points_per_sec: f64,
}

#[derive(Serialize)]
struct DeckRecord {
    deck: String,
    points: usize,
    wall_seconds: f64,
    solver_epochs: u64,
    points_per_sec: f64,
    epochs_per_sec: f64,
}

#[derive(Serialize)]
struct BenchReport {
    scale: String,
    decks: Vec<DeckRecord>,
    backends: Vec<BackendRecord>,
    points: Vec<PointRecord>,
    total_wall_seconds: f64,
    total_solver_epochs: u64,
    points_per_sec: f64,
    epochs_per_sec: f64,
    chaos_timelines: usize,
    chaos_wall_seconds: f64,
    chaos_timelines_per_sec: f64,
    open_loop_ops: u64,
    open_loop_wall_seconds: f64,
    open_loop_ops_per_sec: f64,
    provenance_wall_seconds: f64,
    provenance_ops_per_sec: f64,
    provenance_overhead: f64,
}

/// Throughput over a wall-clock window, 0.0 for an empty window (a
/// sub-microsecond deck would otherwise print a meaningless spike).
fn per_sec(count: f64, wall: f64) -> f64 {
    if wall > 0.0 {
        count / wall
    } else {
        0.0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Smoke;
    let mut out_path = "BENCH_deck.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it.next().expect("--scale needs a value");
                scale = Scale::parse(v).unwrap_or_else(|| panic!("--scale: unknown scale '{v}'"));
            }
            other => out_path = other.to_string(),
        }
    }
    let mut points = Vec::new();
    let mut decks = Vec::new();
    for deck in figures::all_decks(scale) {
        let start = Instant::now();
        let result = run_deck(&deck, None, Meter::Metrics);
        let wall = start.elapsed().as_secs_f64();
        let mut epochs = 0;
        for p in &result.points {
            let m = p
                .metrics
                .as_ref()
                .expect("metered executor populates every point");
            epochs += m.solver_epochs;
            points.push(PointRecord {
                deck: deck.name.clone(),
                point: p.scenario.name.clone(),
                backend: p.scenario.system.clone(),
                system: p.system.clone(),
                nodes: p.nodes,
                ppn: p.ppn,
                headline: p.outcome.headline(),
                wall_seconds: m.wall_clock_seconds,
                solver_epochs: m.solver_epochs,
                flow_groups: m.flow_groups,
            });
        }
        eprintln!(
            "{:<22} {:>3} points  {:>7.3}s  {:>8} solver epochs  {:>9.1} points/sec",
            deck.name,
            result.points.len(),
            wall,
            epochs,
            per_sec(result.points.len() as f64, wall),
        );
        decks.push(DeckRecord {
            deck: deck.name.clone(),
            points: result.points.len(),
            wall_seconds: wall,
            solver_epochs: epochs,
            points_per_sec: per_sec(result.points.len() as f64, wall),
            epochs_per_sec: per_sec(epochs as f64, wall),
        });
    }
    // Cross-protocol mini-deck: every registry backend (including the
    // object gateway and DAOS, which no builtin figure sweeps yet) at
    // two transfer sizes, so `backends` below covers the whole registry
    // and a new backend's simulation cost is tracked from the commit
    // that lands it.
    let crossproto_deck = {
        use hcs_core::scenario::{IorConfig, WorkloadClass};
        use hcs_core::{Deck, Scenario, Workload};
        let base = Scenario::new(
            "vast-lassen",
            Workload::Ior(IorConfig::smoke(WorkloadClass::Scientific, 2, 8)),
        );
        let mut deck = Deck::single("bench-crossproto", base);
        deck.axes.systems = hcs_experiments::registry::names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        deck.axes.transfer_sizes = vec![4096.0, 1_048_576.0];
        deck
    };
    let start = Instant::now();
    let crossproto = run_deck(&crossproto_deck, None, Meter::Metrics);
    let crossproto_wall = start.elapsed().as_secs_f64();
    let mut crossproto_epochs = 0;
    for p in &crossproto.points {
        let m = p.metrics.as_ref().expect("metered");
        crossproto_epochs += m.solver_epochs;
        points.push(PointRecord {
            deck: crossproto_deck.name.clone(),
            point: p.scenario.name.clone(),
            backend: p.scenario.system.clone(),
            system: p.system.clone(),
            nodes: p.nodes,
            ppn: p.ppn,
            headline: p.outcome.headline(),
            wall_seconds: m.wall_clock_seconds,
            solver_epochs: m.solver_epochs,
            flow_groups: m.flow_groups,
        });
    }
    eprintln!(
        "{:<22} {:>3} points  {:>7.3}s  {:>8} solver epochs  {:>9.1} points/sec",
        crossproto_deck.name,
        crossproto.points.len(),
        crossproto_wall,
        crossproto_epochs,
        per_sec(crossproto.points.len() as f64, crossproto_wall),
    );
    decks.push(DeckRecord {
        deck: crossproto_deck.name.clone(),
        points: crossproto.points.len(),
        wall_seconds: crossproto_wall,
        solver_epochs: crossproto_epochs,
        points_per_sec: per_sec(crossproto.points.len() as f64, crossproto_wall),
        epochs_per_sec: per_sec(crossproto_epochs as f64, crossproto_wall),
    });

    // Per-backend totals across every deck, in first-seen order.
    let mut backends: Vec<BackendRecord> = Vec::new();
    for p in &points {
        match backends.iter_mut().find(|b| b.system == p.backend) {
            Some(b) => {
                b.points += 1;
                b.wall_seconds += p.wall_seconds;
            }
            None => backends.push(BackendRecord {
                system: p.backend.clone(),
                points: 1,
                wall_seconds: p.wall_seconds,
                points_per_sec: 0.0,
            }),
        }
    }
    for b in &mut backends {
        b.points_per_sec = per_sec(b.points as f64, b.wall_seconds);
    }

    let total_wall: f64 = decks.iter().map(|d| d.wall_seconds).sum();
    let total_epochs: u64 = decks.iter().map(|d| d.solver_epochs).sum();
    let total_points: usize = decks.iter().map(|d| d.points).sum();

    // Campaign throughput: a seeded chaos population over the first
    // builtin deck, so fuzzing cost is a tracked trajectory alongside
    // point throughput.
    let chaos_deck = figures::all_decks(scale)
        .into_iter()
        .next()
        .expect("catalog has at least one deck");
    let mut campaign = hcs_core::ChaosCampaign::new("bench-chaos", chaos_deck);
    campaign.seed = 7;
    campaign.population = 16;
    let start = Instant::now();
    let chaos = run_chaos_campaign(&campaign).expect("builtin deck fuzzes cleanly");
    let chaos_wall = start.elapsed().as_secs_f64();
    assert!(
        chaos.violations.is_empty(),
        "bench chaos campaign found invariant violations: {:?}",
        chaos.violations
    );
    eprintln!(
        "{:<22} {:>3} timelines {:>6.3}s  {:>9.1} timelines/sec",
        "chaos campaign",
        chaos.timelines,
        chaos_wall,
        per_sec(chaos.timelines as f64, chaos_wall),
    );

    // Open-loop throughput: a fixed offered-load sweep through the
    // per-operation arrival driver, so the cost of metering individual
    // operations (instead of whole phases) is tracked alongside.
    let open_deck = {
        use hcs_core::scenario::{IorConfig, WorkloadClass};
        use hcs_core::{Arrival, Deck, Discipline, Scenario, Workload};
        let base = Scenario::new(
            "vast-lassen",
            Workload::Ior(IorConfig::smoke(WorkloadClass::Scientific, 1, 4)),
        )
        .with_arrival(Arrival::Open {
            rate: 1.0,
            discipline: Discipline::Poisson,
            duration: 0.25,
            seed: 0x0417,
        });
        let mut deck = Deck::single("bench-open-loop", base);
        deck.axes.offered_load = vec![200.0, 800.0, 3200.0];
        deck
    };
    let start = Instant::now();
    let open_result = run_deck(&open_deck, None, Meter::Metrics);
    let open_wall = start.elapsed().as_secs_f64();
    let open_ops: u64 = open_result
        .points
        .iter()
        .flat_map(|p| &p.metrics.as_ref().expect("metered").latency)
        .map(|row| row.histogram.count())
        .sum();
    eprintln!(
        "{:<22} {:>3} points  {:>7.3}s  {:>8} ops       {:>9.1} ops/sec",
        "open-loop sweep",
        open_result.points.len(),
        open_wall,
        open_ops,
        per_sec(open_ops as f64, open_wall),
    );

    // The same sweep with the latency-provenance probe attached: the
    // probe observes every rate epoch per op, so its cost relative to
    // the plain metered run is the tracked observer overhead
    // (provenance_overhead = observed wall / plain wall).
    let start = Instant::now();
    let prov_result = run_deck(&open_deck, None, Meter::Provenance);
    let prov_wall = start.elapsed().as_secs_f64();
    assert!(
        prov_result
            .points
            .iter()
            .all(|p| p.metrics.as_ref().is_some_and(|m| m.provenance.is_some())),
        "provenance run must decompose every point"
    );
    eprintln!(
        "{:<22} {:>3} points  {:>7.3}s  {:>8} ops       {:>9.1} ops/sec  ({:.2}x plain)",
        "  + provenance",
        prov_result.points.len(),
        prov_wall,
        open_ops,
        per_sec(open_ops as f64, prov_wall),
        if open_wall > 0.0 {
            prov_wall / open_wall
        } else {
            0.0
        },
    );

    let report = BenchReport {
        scale: scale.label().to_string(),
        total_wall_seconds: total_wall,
        total_solver_epochs: total_epochs,
        points_per_sec: per_sec(total_points as f64, total_wall),
        epochs_per_sec: per_sec(total_epochs as f64, total_wall),
        chaos_timelines: chaos.timelines,
        chaos_wall_seconds: chaos_wall,
        chaos_timelines_per_sec: per_sec(chaos.timelines as f64, chaos_wall),
        open_loop_ops: open_ops,
        open_loop_wall_seconds: open_wall,
        open_loop_ops_per_sec: per_sec(open_ops as f64, open_wall),
        provenance_wall_seconds: prov_wall,
        provenance_ops_per_sec: per_sec(open_ops as f64, prov_wall),
        provenance_overhead: if open_wall > 0.0 {
            prov_wall / open_wall
        } else {
            0.0
        },
        decks,
        backends,
        points,
    };
    let json = serde_json::to_string_pretty(&report).expect("bench report serializes");
    std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    eprintln!("[wrote {out_path}]");
}
