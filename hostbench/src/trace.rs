//! The traced run's instrumentation: spans recorded around calls into
//! each layer's public functions, from this crate only (the simulator
//! itself is not modified), plus counts taken at the same boundaries.
//!
//! A traced pass re-executes the workload layer by layer — registry
//! build, plan, provision, first solve, workload run, phase runner,
//! observers, metrics distillation, report — so a layer whose cost can
//! only be seen as the difference of two public calls on the same input
//! (the drive loop is `run_phase` minus provisioning, an observer is
//! the observed run minus the plain one) is reported as such a
//! difference and labeled so in the layer table.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

use hcs_core::chaos::{generate_timeline, has_jitter, has_same_stage_overlap};
use hcs_core::graph::PlanOptions;
use hcs_core::runner::{
    resolve_faults_planned, run_phase, run_phase_chaos, run_phase_open_loop, run_phase_traced,
};
use hcs_core::{
    ChaosCampaign, Deck, PhaseSpec, Recorder, Scenario, StageKind, StorageSystem, Workload,
};
use hcs_dftrace::{EventCategory, Tracer};
use hcs_experiments::deck::{build_system, run_workload_on, run_workload_on_traced};
use hcs_experiments::sweep::parallel_sweep;
use hcs_experiments::{
    deck_metrics_summary, render_markdown, run_chaos_campaign, run_deck_with_provenance,
    run_scenario_metered, validate_deck, validate_provenance, DeckResult, PointResult,
};
use hcs_simkit::{FlowNet, FlowSpec, ResourceSpec};

use crate::stats::median;
use crate::workload::{Inputs, Kind, Output, Run};

/// One recorded span.
struct Span {
    /// The layer call ("graph.plan") or structural level ("point").
    layer: &'static str,
    /// Display label in the Chrome trace.
    label: String,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// Spans and counts of a traced run, kept in memory until the end.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Counts, and layer costs obtained as differences, summed over
    /// every traced pass.
    values: BTreeMap<&'static str, f64>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            values: BTreeMap::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span as a child of the innermost open one.
    fn begin(&mut self, layer: &'static str, label: impl Into<String>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            label: label.into(),
            start: self.now(),
            end: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost span, returning its duration.
    fn end(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let now = self.now();
        let span = &mut self.spans[id];
        span.end = now;
        now - span.start
    }

    /// Runs `f` inside a leaf span named after its layer call.
    fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(layer, layer);
        let out = f();
        (out, self.end(id))
    }

    fn add(&mut self, key: &'static str, v: f64) {
        *self.values.entry(key).or_insert(0.0) += v;
    }

    /// Per-layer rows: self time of every span layer (duration minus
    /// the time its child spans cover), then the differences and counts.
    pub fn layer_table(&self, passes: usize) -> Vec<LayerRow> {
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut by_layer: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = by_layer.entry(s.layer).or_insert((0.0, 0));
            e.0 += s.end - s.start - child_time[i];
            e.1 += 1;
        }
        let per_pass = passes.max(1) as f64;
        let mut rows: Vec<LayerRow> = by_layer
            .into_iter()
            .map(|(layer, (self_s, calls))| LayerRow {
                layer: layer.to_string(),
                kind: "span".into(),
                per_pass: self_s / per_pass,
                calls: calls as f64 / per_pass,
            })
            .collect();
        rows.extend(self.values.iter().map(|(k, v)| {
            LayerRow {
                layer: k.to_string(),
                kind: if k.ends_with("_s") {
                    "difference"
                } else {
                    "count"
                }
                .into(),
                per_pass: v / per_pass,
                calls: 0.0,
            }
        }));
        rows
    }

    /// The spans as a Chrome trace (one lane; nesting is by time).
    pub fn chrome_json(&self) -> String {
        let mut t = Tracer::new();
        for s in &self.spans {
            t.complete(
                s.label.clone(),
                EventCategory::Other(s.layer.to_string()),
                1,
                0,
                s.start,
                s.end,
            );
        }
        hcs_dftrace::chrome::to_json(&t)
    }

    /// Total self time of spans of `layer`, over all traced passes.
    fn self_seconds(&self, layer: &str) -> f64 {
        self.layer_table(1)
            .iter()
            .filter(|r| r.layer == layer && r.kind == "span")
            .fold(0.0, |sum, r| sum + r.per_pass)
    }

    fn value(&self, key: &str) -> f64 {
        self.values.get(key).copied().unwrap_or(0.0)
    }

    /// The benchmark's per-layer metrics, per traced pass.
    pub fn metrics(&self, passes: usize) -> Vec<(&'static str, f64, &'static str)> {
        let n = passes.max(1) as f64;
        let span = |l: &str| self.self_seconds(l) / n;
        let val = |k: &str| self.value(k) / n;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let drive = val("runner.drive_s");
        // Completions the drive loop handled: operations in open loop,
        // node flow groups in closed loop.
        let ops = val("runner.ops");
        vec![
            ("scenario.expand_s", span("scenario.expand"), "s"),
            ("scenario.validate_s", span("scenario.validate"), "s"),
            ("scenario.points", val("scenario.points"), "count"),
            ("registry.build_s", span("registry.build"), "s"),
            ("graph.plan_s", span("graph.plan"), "s"),
            ("graph.stages", val("graph.stages"), "count"),
            ("graph.provision_s", span("graph.provision"), "s"),
            ("graph.resources", val("graph.resources"), "count"),
            ("graph.flow_groups", val("graph.flow_groups"), "count"),
            (
                "graph.aggregated_points",
                val("graph.aggregated_points"),
                "count",
            ),
            ("flownet.solve_s", span("flownet.solve"), "s"),
            ("flownet.epochs", val("flownet.epochs"), "count"),
            (
                "flownet.epochs_per_s",
                ratio(val("flownet.epochs"), span("metrics.run_scenario_metered")),
                "1/s",
            ),
            ("ior.run_s", span("ior.run"), "s"),
            ("dlio.run_s", span("dlio.run"), "s"),
            ("mdtest.run_s", span("mdtest.run"), "s"),
            ("runner.drive_s", drive, "s"),
            ("runner.flows_started", val("runner.flows_started"), "count"),
            ("runner.ops", ops, "count"),
            ("runner.drive_us_per_op", ratio(drive * 1e6, ops), "us"),
            ("faults.resolve_s", span("faults.resolve"), "s"),
            ("faults.events", val("faults.events"), "count"),
            ("telemetry.observe_s", val("telemetry.observe_s"), "s"),
            ("provenance.observe_s", val("provenance.observe_s"), "s"),
            (
                "provenance.overhead",
                ratio(
                    span("provenance.run_phase_open_loop"),
                    span("runner.run_phase_open_loop"),
                ),
                "x",
            ),
            ("metrics.distill_s", val("metrics.distill_s"), "s"),
            ("metrics.summary_s", span("metrics.summary"), "s"),
            ("report.serialize_s", span("report.serialize"), "s"),
            ("report.render_s", span("report.render"), "s"),
            ("report.bytes", val("report.bytes"), "bytes"),
            ("chaos.generate_s", span("chaos.generate"), "s"),
            ("chaos.phase_runs", val("chaos.phase_runs"), "count"),
            ("chaos.campaign_s", val("chaos.campaign_s"), "s"),
        ]
    }
}

/// One row of the flat per-layer table.
#[derive(serde::Serialize, serde::Deserialize)]
pub struct LayerRow {
    pub layer: String,
    /// "span" (self time), "difference" (cost of one call minus another
    /// on the same input) or "count".
    pub kind: String,
    /// Seconds (or count) per traced pass.
    pub per_pass: f64,
    /// Calls per traced pass (spans only).
    pub calls: f64,
}

/// The phase a workload presents to the planner, where it has one.
fn phase_of(workload: &Workload, nodes: u32) -> Option<PhaseSpec> {
    match workload {
        Workload::Ior(c) => Some(c.phase()),
        Workload::Dlio(c) => Some(c.phase(nodes)),
        _ => None,
    }
}

fn family_span(workload: &Workload) -> &'static str {
    match workload {
        Workload::Ior(_) => "ior.run",
        Workload::Dlio(_) => "dlio.run",
        Workload::Mdtest(_) => "mdtest.run",
        Workload::Job(_) => "job.run",
        Workload::Replay(_) => "replay.run",
    }
}

/// Plans and provisions one point's deployment, loads one flow per
/// node path (or node class) and times the first solve. Returns the
/// planned stage kinds and the provisioning time.
#[allow(clippy::too_many_arguments)]
fn plan_and_solve(
    t: &mut Trace,
    system: &dyn StorageSystem,
    nodes: u32,
    ppn: u32,
    phase: &PhaseSpec,
    faults: &[hcs_core::FaultSpec],
) -> (Vec<StageKind>, f64) {
    let (graph, _) = t.time("graph.plan", || system.plan(nodes, ppn, phase));
    t.add("graph.stages", graph.stages.len() as f64);
    let mut kinds: Vec<StageKind> = Vec::new();
    for st in &graph.stages {
        if !kinds.contains(&st.kind) {
            kinds.push(st.kind);
        }
    }
    let mut net = FlowNet::new();
    let (prov, provision_s) = t.time("graph.provision", || {
        system.provision_classed(&mut net, nodes, ppn, phase, &PlanOptions::auto(faults))
    });
    t.add("graph.resources", net.resource_count() as f64);
    if prov.classes.is_empty() {
        t.add("graph.flow_groups", prov.node_paths.len() as f64);
        for path in &prov.node_paths {
            net.add_flow(FlowSpec::new(path.clone(), phase.bytes_per_rank).with_multiplicity(ppn));
        }
    } else {
        t.add("graph.flow_groups", prov.classes.len() as f64);
        t.add("graph.aggregated_points", 1.0);
        for class in &prov.classes {
            let members = class.members.len() as u32;
            net.add_flow(
                FlowSpec::new(class.path.clone(), phase.bytes_per_rank)
                    .with_multiplicity(members * ppn)
                    .with_represents(members),
            );
        }
    }
    t.time("flownet.solve", || {
        std::hint::black_box(net.aggregate_rate())
    });
    (kinds, provision_s)
}

/// One deck point, layer by layer. Returns the metered result the
/// untraced pass would have produced for it.
fn traced_point(t: &mut Trace, s: &Scenario) -> PointResult {
    let id = t.begin("point", s.name.clone());
    let ((system, full_ppn), build_s) = t.time("registry.build", || build_system(s));
    let system: &dyn StorageSystem = &*system;
    let workload = s.resolved_workload(full_ppn);
    let nodes = s.run_nodes();
    let ppn = s.run_ppn(full_ppn);
    let phase = phase_of(&workload, nodes);
    let provision_s = match &phase {
        Some(p) => plan_and_solve(t, system, nodes, ppn, p, &s.faults).1,
        None => 0.0,
    };
    // Time of the traced run the metered executor makes internally: the
    // metered cost minus the build and this run is the distillation.
    let mut traced_run_s = None;
    match (&workload, &phase) {
        (Workload::Ior(_), Some(phase)) if !s.arrival.is_closed() => {
            let run = |rec: Option<(&mut Recorder, &str)>, provenance: bool| {
                run_phase_open_loop(
                    system, nodes, ppn, phase, &s.arrival, &s.faults, rec, provenance,
                )
                .expect("validated open-loop point runs")
            };
            let (plain, plain_s) = t.time("runner.run_phase_open_loop", || run(None, false));
            t.add("runner.drive_s", plain_s - provision_s);
            t.add("runner.ops", plain.ops_completed as f64);
            t.add("runner.flows_started", plain.ops_offered as f64);
            let (_, probed_s) = t.time("provenance.run_phase_open_loop", || run(None, true));
            t.add("provenance.observe_s", probed_s - plain_s);
            let mut rec = Recorder::new();
            let (_, traced_s) = t.time("telemetry.run_phase_open_loop", || {
                run(Some((&mut rec, "hostbench")), false)
            });
            t.add("telemetry.observe_s", traced_s - plain_s);
            traced_run_s = Some(traced_s);
        }
        _ if s.faults.is_empty() => {
            t.time(family_span(&workload), || {
                run_workload_on(system, &workload, nodes, ppn)
            });
            if let (Workload::Ior(_), Some(phase)) = (&workload, &phase) {
                let (_, run_s) =
                    t.time("runner.run_phase", || run_phase(system, nodes, ppn, phase));
                t.add("runner.drive_s", run_s - provision_s);
                t.add("runner.flows_started", nodes as f64);
                t.add("runner.ops", nodes as f64);
                let mut rec = Recorder::new();
                let (_, traced_s) = t.time("telemetry.run_phase_traced", || {
                    run_phase_traced(system, nodes, ppn, phase, &mut rec)
                });
                t.add("telemetry.observe_s", traced_s - run_s);
            }
            let mut rec = Recorder::new();
            let (_, traced_s) = t.time("metrics.run_workload_on_traced", || {
                run_workload_on_traced(system, &workload, nodes, ppn, &mut rec)
            });
            traced_run_s = Some(traced_s);
        }
        _ => {}
    }
    let (point, metered_s) = t.time("metrics.run_scenario_metered", || run_scenario_metered(s));
    if let Some(traced_s) = traced_run_s {
        t.add("metrics.distill_s", metered_s - build_s - traced_s);
    }
    if let Some(m) = &point.metrics {
        t.add("flownet.epochs", m.solver_epochs as f64);
    }
    t.end(id);
    point
}

/// One traced pass of a deck workload.
fn traced_decks(t: &mut Trace, kind: Kind, decks: &[Deck]) -> Vec<Run> {
    let mut runs = Vec::new();
    for (i, deck) in decks.iter().enumerate() {
        let id = t.begin("deck", deck.name.clone());
        let start = Instant::now();
        t.time("scenario.validate", || {
            validate_deck(deck)
                .and_then(|()| match kind {
                    Kind::OpenLoop => validate_provenance(deck),
                    _ => Ok(()),
                })
                .expect("decks were validated at setup")
        });
        let (points, _) = t.time("scenario.expand", || deck.expand());
        t.add("scenario.points", points.len() as f64);
        let results: Option<Vec<PointResult>> = points
            .iter()
            .map(|s| catch_unwind(AssertUnwindSafe(|| traced_point(t, s))).ok())
            .collect();
        // A panicking point leaves spans open: drop back to this deck.
        while t.open.last().is_some_and(|&o| o != id) {
            let o = t.open[t.open.len() - 1];
            t.end(o);
        }
        let result = results.map(|points| {
            let mut r = DeckResult {
                name: deck.name.clone(),
                title: deck.title.clone(),
                points,
                metrics: None,
            };
            r.metrics = t.time("metrics.summary", || deck_metrics_summary(&r)).0;
            if kind == Kind::Paper {
                let (json, _) = t.time("report.serialize", || {
                    serde_json::to_string(&r).expect("deck result serializes")
                });
                t.add("report.bytes", json.len() as f64);
                t.time("report.render", || render_markdown(&r));
            }
            r
        });
        let part = match kind {
            Kind::Paper => "report",
            Kind::OpenLoop => "plain",
            _ => "metered",
        };
        runs.push(Run {
            part,
            index: i,
            seconds: start.elapsed().as_secs_f64(),
            output: Output::Deck(result),
        });
        if kind == Kind::OpenLoop {
            let start = Instant::now();
            let (prov, _) = t.time("provenance.run_deck_with_provenance", || {
                catch_unwind(AssertUnwindSafe(|| run_deck_with_provenance(deck))).ok()
            });
            runs.push(Run {
                part: "provenance",
                index: i,
                seconds: start.elapsed().as_secs_f64(),
                output: Output::Deck(prov),
            });
        }
        t.end(id);
    }
    runs
}

/// One traced pass of the chaos workload: the campaign itself, then its
/// phase runs replayed layer by layer to split the campaign's cost.
fn traced_chaos(t: &mut Trace, c: &ChaosCampaign) -> Vec<Run> {
    let (report, campaign_s) = t.time("chaos.run_chaos_campaign", || {
        catch_unwind(AssertUnwindSafe(|| run_chaos_campaign(c)))
            .ok()
            .and_then(Result::ok)
    });
    let runs = vec![Run {
        part: "campaign",
        index: 0,
        seconds: campaign_s,
        output: Output::Campaign(report),
    }];
    t.time("scenario.validate", || {
        validate_deck(&c.base).expect("campaign was validated at setup")
    });
    let (points, _) = t.time("scenario.expand", || c.base.expand());
    t.add("scenario.points", points.len() as f64);
    let mut phase_runs_s = 0.0;
    for s in &points {
        let id = t.begin("point", s.name.clone());
        let ((system, full_ppn), _) = t.time("registry.build", || build_system(s));
        let system: &dyn StorageSystem = &*system;
        let nodes = s.run_nodes();
        let ppn = s.run_ppn(full_ppn);
        let Some(phase) = phase_of(&s.resolved_workload(full_ppn), nodes) else {
            t.end(id);
            continue;
        };
        let (stages, provision_s) = plan_and_solve(t, system, nodes, ppn, &phase, &[]);
        let (twin, twin_s) = t.time("runner.run_phase", || run_phase(system, nodes, ppn, &phase));
        t.add("runner.drive_s", twin_s - provision_s);
        t.add("runner.flows_started", nodes as f64);
        t.add("runner.ops", nodes as f64);
        phase_runs_s += twin_s;
        let budget = c.budget.fitted(twin.duration);
        for k in 0..c.population {
            let (specs, _) = t.time("chaos.generate", || {
                generate_timeline(&budget, &stages, c.seed, &s.name, k)
            });
            let mut net = FlowNet::new();
            let (prov, provision_s) = t.time("graph.provision", || {
                system.provision_classed(&mut net, nodes, ppn, &phase, &PlanOptions::auto(&specs))
            });
            let (timeline, _) = t.time("faults.resolve", || {
                resolve_faults_planned(&specs, &net, &prov)
            });
            t.add("faults.events", timeline.map_or(0, |tl| tl.len()) as f64);
            let mut runs = vec![&specs[..]];
            if specs.len() >= 2 && !has_jitter(&specs) && !has_same_stage_overlap(&specs) {
                runs.push(&specs[..specs.len() - 1]);
            }
            for run in runs {
                let (_, run_s) = t.time("runner.run_phase_chaos", || {
                    run_phase_chaos(system, nodes, ppn, &phase, run)
                });
                t.add("runner.drive_s", run_s - provision_s);
                t.add("runner.flows_started", nodes as f64);
                t.add("runner.ops", nodes as f64);
                t.add("chaos.phase_runs", 1.0);
                phase_runs_s += run_s;
            }
        }
        t.end(id);
    }
    t.add("chaos.campaign_s", campaign_s - phase_runs_s);
    runs
}

/// One traced pass of any workload.
pub fn traced_pass(t: &mut Trace, inputs: &Inputs) -> Vec<Run> {
    let id = t.begin("pass", "pass");
    let runs = match inputs {
        Inputs::Decks { kind, decks, .. } => traced_decks(t, *kind, decks),
        Inputs::Chaos(c) => traced_chaos(t, c),
    };
    t.end(id);
    runs
}

/// Allocate-and-run of the flow solver at 16, 128 and 1024 flows, in
/// the shapes of the engine micro-benchmarks: one shared pool behind a
/// private mount per flow. Each is the median of repeated runs.
pub fn solver_micro_points() -> Vec<(&'static str, f64)> {
    [
        (16u32, "flownet.solve_s_16"),
        (128, "flownet.solve_s_128"),
        (1024, "flownet.solve_s_1024"),
    ]
    .into_iter()
    .map(|(n, name)| {
        let budget = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < 5 || (samples.len() < 50 && budget.elapsed().as_secs_f64() < 0.3) {
            let start = Instant::now();
            let mut net = FlowNet::new();
            let shared = net.add_resource(ResourceSpec::new("pool", 1e10));
            for i in 0..n {
                let mount = net.add_resource(ResourceSpec::new(format!("m{i}"), 2e9));
                net.add_flow(FlowSpec::new(vec![mount, shared], 1e8 + i as f64 * 1e6));
            }
            std::hint::black_box(net.run_to_completion(|_, _| {}));
            samples.push(start.elapsed().as_secs_f64());
        }
        (name, median(&samples))
    })
    .collect()
}

/// Maps the workload's points over the sweep pool with `workers`
/// workers, recording each worker's busy time. Returns the worker count
/// and the imbalance (max over mean busy time).
pub fn sweep_probe(inputs: &Inputs, workers: usize) -> (usize, f64) {
    let busy: Mutex<Vec<(std::thread::ThreadId, f64)>> = Mutex::new(Vec::new());
    let timed = |f: &dyn Fn()| {
        let start = Instant::now();
        f();
        let s = start.elapsed().as_secs_f64();
        let me = std::thread::current().id();
        let mut b = busy
            .lock()
            .expect("no worker panics while holding the lock");
        match b.iter_mut().find(|(id, _)| *id == me) {
            Some((_, v)) => *v += s,
            None => b.push((me, s)),
        }
    };
    std::env::set_var("RAYON_NUM_THREADS", workers.to_string());
    match inputs {
        Inputs::Decks { decks, .. } => {
            let points: Vec<Scenario> = decks.iter().flat_map(|d| d.expand()).collect();
            parallel_sweep(points, |s| {
                timed(&|| {
                    run_scenario_metered(s);
                })
            });
        }
        Inputs::Chaos(c) => {
            // The campaign's own fan-out: every (point, timeline) task.
            let tasks: Vec<(Scenario, u32)> = c
                .base
                .expand()
                .into_iter()
                .flat_map(|s| (0..c.population).map(move |k| (s.clone(), k)))
                .collect();
            parallel_sweep(tasks, |(s, k)| {
                timed(&|| {
                    let (system, full_ppn) = build_system(s);
                    let nodes = s.run_nodes();
                    let ppn = s.run_ppn(full_ppn);
                    let Some(phase) = phase_of(&s.resolved_workload(full_ppn), nodes) else {
                        return;
                    };
                    let graph = system.plan(nodes, ppn, &phase);
                    let mut stages: Vec<StageKind> = Vec::new();
                    for st in &graph.stages {
                        if !stages.contains(&st.kind) {
                            stages.push(st.kind);
                        }
                    }
                    let twin = run_phase(&*system, nodes, ppn, &phase);
                    let budget = c.budget.fitted(twin.duration);
                    let specs = generate_timeline(&budget, &stages, c.seed, &s.name, *k);
                    let _ = run_phase_chaos(&*system, nodes, ppn, &phase, &specs);
                })
            });
        }
    }
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let b = busy.into_inner().expect("sweep workers joined");
    let max = b.iter().map(|(_, v)| *v).fold(0.0, f64::max);
    let mean = b.iter().map(|(_, v)| v).sum::<f64>() / b.len().max(1) as f64;
    (b.len(), if mean > 0.0 { max / mean } else { 0.0 })
}
