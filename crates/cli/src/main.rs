//! The `hcs` command: one front door for the suite.
//!
//! ```text
//! hcs systems                               list deployments
//! hcs ior   <system> <workload> [nodes] [ppn]   run IOR
//! hcs dlio  <system> <resnet50|cosmoflow> [nodes]   run DLIO
//! hcs mdtest <system> [nodes] [ppn]         run the metadata benchmark
//! hcs replay <trace.json> <system>          what-if replay of a trace
//! hcs run <deck.json|name> [--scale smoke] [--metrics] [--provenance]  execute a scenario deck
//! hcs chaos <campaign.json|deck> [--seed N --population K --budget ...]  fuzz the failure space
//! hcs report <deck-result.json|chaos-report.json>  render a result as a report
//! hcs decks [--export <dir>]                list/export the builtin decks
//! hcs figures [--scale smoke]               regenerate every figure
//! hcs ablations [--scale smoke]             regenerate the ablation sweeps
//! hcs sensitivity [--scale smoke]           §VII claims under calibration perturbations
//! hcs takeaways [--scale smoke]             §VII paper-vs-measured
//! hcs table1 | fig1                         print Table I / Fig 1's architecture panels
//! ```

use hcs_core::scenario::Scale;
use hcs_core::telemetry::Recorder;
use hcs_core::{Deck, Scenario, Workload};
use hcs_dlio::{cosmoflow, resnet50};
use hcs_experiments::registry::{self, SystemEntry};
use hcs_experiments::{run_scenario, Figure, Meter};
use hcs_ior::{IorConfig, WorkloadClass};
use hcs_mdtest::{MdtestConfig, MetaOp};
use hcs_replay::{replay, ReplayConfig};

const USAGE: &str = "\
usage: hcs <command> [args]

commands:
  systems                                list storage deployments
  ior <system> <workload> [nodes] [ppn]  run the IOR-equivalent benchmark
  dlio <system> <workload> [nodes]       run the DLIO-equivalent (resnet50|cosmoflow)
  mdtest <system> [nodes] [ppn]          run the MDTest-equivalent
  explain <system> <workload> [nodes] [ppn]  show resources, utilization and the bottleneck
  replay <trace.json> <system>           what-if replay of a chrome trace
  run <deck.json|scenario.json|name>     execute a scenario deck (see `hcs decks`)
  chaos <campaign.json|deck.json|name>   run a seeded fault-fuzzing campaign over
                                         a deck and check metamorphic invariants
  report <result.json>                   render a deck result (`hcs run`) or a
                                         chaos report (`hcs chaos`) as markdown
  decks [--export <dir>]                 list builtin decks / export them as JSON
  figures                                regenerate every paper figure
  ablations                              regenerate the beyond-the-paper ablation sweeps
  sensitivity                            re-check the §VII claims under ±25% calibration
                                         perturbations
  takeaways                              print §VII paper-vs-measured
  table1                                 print Table I
  fig1                                   print Fig 1's architecture panels

systems: see `hcs systems` (the shared registry is the single source)
workloads (ior): scientific | analytics | ml

options:
  --scale <paper|smoke|datacenter>  run at paper scale (default), CI
                   smoke scale, or datacenter scale (10^5-10^7 clients
                   via the equivalence-class planner)
  --smoke                alias for --scale smoke
  --trace <path>   (ior, dlio, run) dump a Chrome trace of the run —
                   flows, per-resource utilization, bottleneck
                   hand-offs — and print the telemetry summary
  --metrics        (run) collect per-point I/O-time decomposition,
                   bottleneck shares and cross-rep statistics into the
                   result JSON (for `hcs report`); outcomes are
                   bit-identical with or without it
  --provenance     (run, needs --metrics) attach the per-op latency
                   provenance probe to every open-loop point: blame
                   each op's latency on the binding stage per rate
                   epoch, feed the report's Tail forensics section and
                   name the stage behind each knee; IOR open-loop
                   decks only, outcomes stay bit-identical
  --format <md|json>  (report) output format, default md
  --seed <N>       (chaos) master seed for timeline generation
  --population <K> (chaos) timelines generated per deck point
  --budget <k=v,...> (chaos) per-timeline fault bounds: max_faults,
                   max_outage_seconds, min_degrade_factor,
                   horizon_seconds, kinds (e.g. kinds=outage+degrade)";

/// Resolves a positional system argument through the shared registry
/// or dies listing every valid key, so a typo never leaves the user
/// guessing at names.
fn resolve_system(cmd: &str, name: Option<&String>) -> &'static SystemEntry {
    let known = registry::names().join(", ");
    match name {
        None => die(&format!("{cmd}: missing system (known: {known})")),
        Some(n) => registry::resolve(n)
            .unwrap_or_else(|| die(&format!("{cmd}: unknown system '{n}' (known: {known})"))),
    }
}

fn workload(name: &str) -> Option<WorkloadClass> {
    Some(match name {
        "scientific" | "sci" | "write" => WorkloadClass::Scientific,
        "analytics" | "da" | "read" => WorkloadClass::DataAnalytics,
        "ml" | "random" => WorkloadClass::MachineLearning,
        _ => return None,
    })
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}\n\n{USAGE}");
    std::process::exit(2)
}

/// The one-point deck a per-family command's arguments describe,
/// checked the way `hcs run` checks a deck point ([`Scenario::check`]):
/// an argument that makes the point invalid dies with its diagnostic.
fn one_point(cmd: &str, system: &SystemEntry, workload: Workload, nodes: u32) -> Scenario {
    let point = Scenario::new(system.key, workload).with_nodes(nodes);
    if let Err(e) = point.check(system.full_ppn) {
        die(&format!("{cmd}: {e}"));
    }
    point
}

/// Splits `--trace <path>` out of the arg list, returning the
/// remaining positional args and the path (if given).
fn trace_flag(args: &[String]) -> (Vec<String>, Option<String>) {
    let mut rest = Vec::with_capacity(args.len());
    let mut path = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--trace" {
            match it.next() {
                Some(p) => path = Some(p.clone()),
                None => die("--trace: missing path"),
            }
        } else {
            rest.push(a.clone());
        }
    }
    (rest, path)
}

/// Splits the boolean `--metrics` flag out of the arg list.
fn metrics_flag(args: &[String]) -> (Vec<String>, bool) {
    let rest: Vec<String> = args.iter().filter(|a| *a != "--metrics").cloned().collect();
    let metrics = rest.len() != args.len();
    (rest, metrics)
}

/// Splits the boolean `--provenance` flag out of the arg list.
fn provenance_flag(args: &[String]) -> (Vec<String>, bool) {
    let rest: Vec<String> = args
        .iter()
        .filter(|a| *a != "--provenance")
        .cloned()
        .collect();
    let provenance = rest.len() != args.len();
    (rest, provenance)
}

/// The positional argument at `i` as a number, or `default` when it is
/// absent or not a number.
fn num_arg(args: &[String], i: usize, default: u32) -> u32 {
    args.get(i).and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// Splits `--format <md|json>` out of the arg list.
fn format_flag(args: &[String]) -> (Vec<String>, String) {
    let mut rest = Vec::with_capacity(args.len());
    let mut format = "md".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--format" {
            match it.next().map(String::as_str) {
                Some(f @ ("md" | "json")) => format = f.to_string(),
                Some(f) => die(&format!("--format: unknown format '{f}' (md|json)")),
                None => die("--format: missing value (md|json)"),
            }
        } else {
            rest.push(a.clone());
        }
    }
    (rest, format)
}

/// Splits `--scale <paper|smoke|datacenter>` (and its `--smoke` shorthand) out of
/// the arg list, returning the remaining positional args and the scale.
fn scale_flag(args: &[String]) -> (Vec<String>, Scale) {
    let mut rest = Vec::with_capacity(args.len());
    let mut scale = Scale::Paper;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--smoke" {
            scale = Scale::Smoke;
        } else if a == "--scale" {
            scale = match it.next() {
                Some(s) => {
                    Scale::parse(s).unwrap_or_else(|| die(&format!("--scale: unknown scale '{s}'")))
                }
                None => die("--scale: missing value (paper|smoke|datacenter)"),
            };
        } else {
            rest.push(a.clone());
        }
    }
    (rest, scale)
}

/// Reads the JSON file at `path` for `cmd`, returning its text and
/// value. Text that is not JSON dies naming its syntax error once,
/// after `what`: the shapes the file could have held.
fn read_json(cmd: &str, path: &str, what: &str) -> (String, serde_json::Value) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(&format!("{cmd}: cannot read {path}: {e}")));
    let value =
        serde_json::from_str(&text).unwrap_or_else(|e| die(&format!("{cmd}: {path} {what}: {e}")));
    (text, value)
}

/// The deck a deck file's value holds: a `Deck`, or a bare `Scenario`
/// wrapped as a single-point deck. `tried` names the shapes `cmd`
/// already ruled out, with their errors, for the diagnostic.
fn deck_of(cmd: &str, target: &str, value: serde_json::Value, tried: &str) -> Deck {
    match serde_json::from_value::<Deck>(value.clone()) {
        Ok(deck) => deck,
        Err(deck_err) => match serde_json::from_value::<Scenario>(value) {
            Ok(sc) => {
                let name = if sc.name.is_empty() {
                    "scenario".to_string()
                } else {
                    sc.name.clone()
                };
                Deck::single(name, sc)
            }
            Err(sc_err) => die(&format!(
                "{cmd}: {target} parses as neither {tried}a deck ({deck_err}) nor a scenario \
                 ({sc_err})"
            )),
        },
    }
}

/// Loads a deck: a JSON file holding a `Deck`, a JSON file holding a
/// bare `Scenario` (wrapped as a single-point deck), or the name of a
/// builtin deck from the catalog.
fn load_deck(cmd: &str, target: &str, scale: Scale) -> Deck {
    if std::path::Path::new(target).exists() {
        let (_, value) = read_json(cmd, target, "parses as neither a deck nor a scenario");
        deck_of(cmd, target, value, "")
    } else {
        let decks = hcs_experiments::figures::all_decks(scale);
        match decks.iter().find(|d| d.name == target) {
            Some(d) => d.clone(),
            None => {
                let names: Vec<&str> = decks.iter().map(|d| d.name.as_str()).collect();
                die(&format!(
                    "{cmd}: '{target}' is neither a file nor a builtin deck; builtins: {}",
                    names.join(" ")
                ))
            }
        }
    }
}

/// Loads a chaos campaign: a JSON file holding a `ChaosCampaign`, or
/// anything `load_deck` accepts (deck file, bare scenario, builtin deck
/// name) wrapped in a default campaign named after the deck.
fn load_campaign(target: &str, scale: Scale) -> hcs_core::ChaosCampaign {
    let deck = if std::path::Path::new(target).exists() {
        let what = "parses as neither a campaign, a deck nor a scenario";
        let (_, value) = read_json("chaos", target, what);
        match serde_json::from_value(value.clone()) {
            Ok(campaign) => return campaign,
            Err(e) => deck_of("chaos", target, value, &format!("a campaign ({e}), ")),
        }
    } else {
        load_deck("chaos", target, scale)
    };
    hcs_core::ChaosCampaign::new(format!("chaos-{}", deck.name), deck)
}

/// Applies `--budget key=value,...` overrides to a fault budget.
fn apply_budget_overrides(budget: &mut hcs_core::FaultBudget, spec: &str) {
    for pair in spec.split(',').filter(|p| !p.is_empty()) {
        let (key, value) = pair
            .split_once('=')
            .unwrap_or_else(|| die(&format!("--budget: '{pair}' is not key=value")));
        let parse = |v: &str| -> f64 {
            v.parse()
                .unwrap_or_else(|_| die(&format!("--budget: {key}: '{v}' is not a number")))
        };
        match key {
            "max_faults" => budget.max_faults = parse(value) as u32,
            "max_outage_seconds" => budget.max_outage_seconds = parse(value),
            "min_degrade_factor" => budget.min_degrade_factor = parse(value),
            "horizon_seconds" => budget.horizon_seconds = parse(value),
            "kinds" => {
                budget.kinds = value
                    .split('+')
                    .map(|k| match k {
                        "outage" => hcs_core::ChaosFaultKind::Outage,
                        "degrade" => hcs_core::ChaosFaultKind::Degrade,
                        "jitter" => hcs_core::ChaosFaultKind::Jitter,
                        other => die(&format!(
                            "--budget: kinds: unknown kind '{other}' (outage|degrade|jitter)"
                        )),
                    })
                    .collect();
            }
            other => die(&format!(
                "--budget: unknown key '{other}' (max_faults, max_outage_seconds, \
                 min_degrade_factor, horizon_seconds, kinds)"
            )),
        }
    }
}

/// Prints each figure as an ASCII table and writes its CSV/JSON/SVG
/// under `results/`, dying with a one-line diagnostic if the write fails.
fn emit_figures(cmd: &str, figs: &[Figure]) {
    for f in figs {
        println!("{}", hcs_experiments::render::to_table(f));
    }
    let dir = std::path::Path::new("results");
    let n = hcs_experiments::output::write_figures(figs, dir)
        .unwrap_or_else(|e| die(&format!("{cmd}: cannot write {}: {e}", dir.display())));
    println!("[wrote {n} figures to {}]", dir.display());
}

/// Writes the recorder's Chrome trace to `path` and prints the metrics
/// summary (busy fractions, time-weighted bottleneck attribution).
fn dump_trace(recorder: &Recorder, path: &str) {
    let json = recorder.to_chrome_json();
    std::fs::write(path, &json)
        .unwrap_or_else(|e| die(&format!("--trace: cannot write {path}: {e}")));
    let m = recorder.metrics_summary();
    println!(
        "\n[trace] {} events over {:.2}s -> {path}",
        recorder.tracer().len(),
        m.span
    );
    for r in m.resources.iter().filter(|r| r.busy_seconds > 0.0) {
        println!(
            "  {:<24} busy {:>5.1}%  mean util {:>5.1}%",
            r.name,
            r.busy_fraction * 100.0,
            r.mean_utilization * 100.0
        );
    }
    for b in &m.bottlenecks {
        let stage = b.kind.map(|k| k.label()).unwrap_or("?");
        println!(
            "  bottleneck {:<13} {:<24} {:>6.2}s ({:>4.1}%)",
            stage,
            b.name,
            b.seconds,
            b.share * 100.0
        );
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (raw, trace) = trace_flag(&raw);
    let (raw, metrics) = metrics_flag(&raw);
    let (raw, provenance) = provenance_flag(&raw);
    let (raw, format) = format_flag(&raw);
    let (args, scale) = scale_flag(&raw);
    let cmd = args.first().map(String::as_str).unwrap_or("");
    match cmd {
        "systems" => {
            for e in registry::entries() {
                println!(
                    "{:<16} {:<56} [{}] (full node: {} ppn)",
                    e.key,
                    e.build().description(),
                    e.machine,
                    e.full_ppn
                );
            }
        }
        "table1" => print!("{}", hcs_experiments::figures::table1::render()),
        "fig1" => print!("{}", hcs_experiments::figures::fig1::render()),
        "ior" => {
            let system = resolve_system("ior", args.get(1));
            let w = args
                .get(2)
                .and_then(|s| workload(s))
                .unwrap_or_else(|| die("ior: unknown workload"));
            let (nodes, ppn) = (num_arg(&args, 3, 1), num_arg(&args, 4, system.full_ppn));
            let cfg = match scale {
                Scale::Smoke | Scale::Datacenter => IorConfig::smoke(w, nodes, ppn),
                Scale::Paper => IorConfig::paper_scalability(w, nodes, ppn),
            };
            let point = one_point("ior", system, Workload::Ior(cfg), nodes);
            let mut recorder = Recorder::new();
            let p = run_scenario(&point, trace.is_some().then_some(&mut recorder), Meter::Off);
            let rep = p.outcome.ior();
            println!(
                "{} — {} @ {} nodes x {} ppn:\n  {:.2} GB/s aggregate ({:.2} GB/s per node, ±{:.2} over {} reps)",
                rep.system,
                w.label(),
                p.nodes,
                p.ppn,
                rep.mean_bandwidth() / 1e9,
                rep.per_node_bandwidth() / 1e9,
                rep.outcome.summary.std_dev / 1e9,
                rep.config.reps
            );
            if let Some(path) = &trace {
                dump_trace(&recorder, path);
            }
        }
        "dlio" => {
            let system = resolve_system("dlio", args.get(1));
            let cfg = match args.get(2).map(String::as_str) {
                Some("resnet50") | Some("resnet") => resnet50(),
                Some("cosmoflow") | Some("cosmo") => cosmoflow(),
                _ => die("dlio: workload must be resnet50 or cosmoflow"),
            };
            let nodes = num_arg(&args, 3, 4);
            let point = one_point("dlio", system, Workload::Dlio(cfg), nodes);
            let mut recorder = Recorder::new();
            let p = run_scenario(&point, trace.is_some().then_some(&mut recorder), Meter::Off);
            let r = p.outcome.dlio();
            println!(
                "{} on {} @ {} nodes:\n  io {:.2}s/node (overlap {:.2}s, stall {:.3}s)  compute {:.2}s\n  app {:.1} samples/s   system {:.1} samples/s",
                r.workload,
                r.system,
                p.nodes,
                r.mean_per_node.io_total,
                r.mean_per_node.overlapping_io,
                r.mean_per_node.non_overlapping_io,
                r.mean_per_node.compute_total,
                r.app_throughput,
                r.system_throughput
            );
            if let Some(path) = &trace {
                dump_trace(&recorder, path);
            }
        }
        "explain" => {
            let system = resolve_system("explain", args.get(1));
            let w = args
                .get(2)
                .and_then(|s| workload(s))
                .unwrap_or_else(|| die("explain: unknown workload"));
            let (nodes, ppn) = (num_arg(&args, 3, 1), num_arg(&args, 4, system.full_ppn));
            let cfg = IorConfig::paper_scalability(w, nodes, ppn);
            let phase = cfg.phase();
            one_point("explain", system, Workload::Ior(cfg), nodes);
            let sys = system.build();
            let out = hcs_core::runner::run_phase(sys.as_ref(), nodes, ppn, &phase);
            println!(
                "{} — {} @ {} nodes x {} ppn: {:.2} GB/s\n",
                sys.description(),
                w.label(),
                nodes,
                ppn,
                out.agg_bandwidth / 1e9
            );
            println!(
                "{:<20} {:>14} {:>14} {:>8}",
                "resource", "allocated", "capacity", "util"
            );
            let mut rows = out.utilization.clone();
            rows.sort_by(|a, b| {
                (b.1 / b.2.max(1e-12))
                    .partial_cmp(&(a.1 / a.2.max(1e-12)))
                    .expect("finite")
            });
            for (name, alloc, cap) in rows.iter().take(12) {
                println!(
                    "{:<20} {:>11.2} GB {:>11.2} GB {:>7.1}%",
                    name,
                    alloc / 1e9,
                    cap / 1e9,
                    alloc / cap.max(1e-12) * 100.0
                );
            }
            match &out.bottleneck {
                Some(b) => println!("\nbottleneck: {b}"),
                None => println!("\nbottleneck: none (per-stream latency-bound)"),
            }
        }
        "mdtest" => {
            let system = resolve_system("mdtest", args.get(1));
            let (nodes, ppn) = (num_arg(&args, 2, 1), num_arg(&args, 3, system.full_ppn));
            let workload = Workload::Mdtest(MdtestConfig::new(nodes, ppn));
            let point = one_point("mdtest", system, workload, nodes);
            let p = run_scenario(&point, None, Meter::Off);
            let r = p.outcome.mdtest();
            println!("{} @ {} nodes x {} ppn:", r.system, p.nodes, p.ppn);
            for op in MetaOp::all() {
                println!("  {:<8} {:>12.0} ops/s", op.label(), r.rate(op).mean);
            }
        }
        "replay" => {
            let path = args
                .get(1)
                .unwrap_or_else(|| die("replay: missing trace path"));
            let sys = resolve_system("replay", args.get(2)).build();
            let tracer =
                hcs_replay::load_trace(path).unwrap_or_else(|e| die(&format!("replay: {e}")));
            let r = replay(&tracer, sys.as_ref(), &ReplayConfig::default());
            println!(
                "replayed {} events against {}:\n  io {:.3}s/process (stall {:.4}s), wall {:.2}s",
                tracer.len(),
                r.system,
                r.mean.io_total,
                r.mean.non_overlapping_io,
                r.duration
            );
        }
        "run" => {
            let target = args
                .get(1)
                .unwrap_or_else(|| die("run: missing scenario file or deck name"));
            let mut deck = load_deck("run", target, scale);
            if scale == Scale::Smoke {
                deck = deck.smoked();
            }
            if let Err(e) = hcs_experiments::validate_deck(&deck) {
                die(&format!("run: {e}"));
            }
            if provenance {
                if !metrics {
                    die("run: --provenance rides the metrics pipeline; add --metrics");
                }
                if let Err(e) = hcs_experiments::validate_provenance(&deck) {
                    die(&format!("run: {e}"));
                }
            }
            if trace.is_some() {
                let points = deck.expand();
                let mut untraced: Vec<&str> = points
                    .iter()
                    .filter(|s| !s.workload.capabilities().tracing)
                    .map(|s| s.workload.kind())
                    .collect();
                let count = untraced.len();
                if count > 0 {
                    untraced.sort_unstable();
                    untraced.dedup();
                    eprintln!(
                        "run: the trace omits {count} of {} points ({}): their families have \
                         no traced engine",
                        points.len(),
                        untraced.join(", ")
                    );
                }
            }
            println!(
                "deck {} — {} ({} points, {} scale)",
                deck.name,
                if deck.title.is_empty() {
                    "untitled"
                } else {
                    &deck.title
                },
                deck.expand().len(),
                scale.label()
            );
            let mut recorder = Recorder::new();
            let meter = if provenance {
                Meter::Provenance
            } else if metrics {
                Meter::Metrics
            } else {
                Meter::Off
            };
            let result =
                hcs_experiments::run_deck(&deck, trace.is_some().then_some(&mut recorder), meter);
            for p in &result.points {
                println!(
                    "  {:<28} {:<8} {:>4} x {:<3} {}",
                    p.scenario.name,
                    p.system,
                    p.nodes,
                    p.ppn,
                    p.outcome.headline()
                );
            }
            let dir = std::path::PathBuf::from("results/decks");
            std::fs::create_dir_all(&dir)
                .unwrap_or_else(|e| die(&format!("run: cannot create {}: {e}", dir.display())));
            let out = dir.join(format!("{}.json", result.name));
            let json = serde_json::to_string_pretty(&result)
                .unwrap_or_else(|e| die(&format!("run: cannot serialize results: {e}")));
            std::fs::write(&out, json)
                .unwrap_or_else(|e| die(&format!("run: cannot write {}: {e}", out.display())));
            println!("[wrote {}]", out.display());
            if metrics {
                println!(
                    "[metrics collected — render with `hcs report {}`]",
                    out.display()
                );
            }
            if let Some(path) = &trace {
                dump_trace(&recorder, path);
            }
        }
        "chaos" => {
            let target = args
                .get(1)
                .unwrap_or_else(|| die("chaos: missing campaign file, deck file or deck name"));
            let mut campaign = load_campaign(target, scale);
            let mut it = args[2..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--seed" => {
                        campaign.seed = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| die("--seed: missing or bad value"));
                    }
                    "--population" => {
                        campaign.population = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| die("--population: missing or bad value"));
                    }
                    "--budget" => {
                        let spec = it.next().unwrap_or_else(|| die("--budget: missing value"));
                        apply_budget_overrides(&mut campaign.budget, spec);
                    }
                    other => die(&format!("chaos: unknown argument '{other}'")),
                }
            }
            if scale == Scale::Smoke {
                campaign.base = campaign.base.smoked();
            }
            println!(
                "chaos campaign {} — {} points x {} timelines, seed {} ({} scale)",
                campaign.name,
                campaign.base.expand().len(),
                campaign.population,
                campaign.seed,
                scale.label()
            );
            let report = hcs_experiments::run_chaos_campaign(&campaign)
                .unwrap_or_else(|e| die(&format!("chaos: {e}")));
            for stat in &report.invariants {
                println!(
                    "  {:<40} {:>5}/{:<5} {}",
                    stat.invariant.label(),
                    stat.passed,
                    stat.checked,
                    if stat.passed == stat.checked {
                        "ok"
                    } else {
                        "VIOLATED"
                    }
                );
            }
            println!(
                "  pareto frontier: {} point{} · worst slowdown {:.2}x · most fragile stage: {}",
                report.pareto.len(),
                if report.pareto.len() == 1 { "" } else { "s" },
                report.max_slowdown,
                report
                    .fragility
                    .first()
                    .map(|r| r.stage.label())
                    .unwrap_or("n/a"),
            );
            let dir = std::path::PathBuf::from("results/chaos");
            std::fs::create_dir_all(&dir)
                .unwrap_or_else(|e| die(&format!("chaos: cannot create {}: {e}", dir.display())));
            let out = dir.join(format!("{}.json", report.campaign));
            let json = serde_json::to_string_pretty(&report)
                .unwrap_or_else(|e| die(&format!("chaos: cannot serialize report: {e}")));
            std::fs::write(&out, json)
                .unwrap_or_else(|e| die(&format!("chaos: cannot write {}: {e}", out.display())));
            println!("[wrote {}]", out.display());
            if !report.violations.is_empty() {
                eprintln!(
                    "chaos: {} invariant violation(s) — see the counterexamples in {}",
                    report.violations.len(),
                    out.display()
                );
                std::process::exit(1);
            }
        }
        "report" => {
            let path = args
                .get(1)
                .unwrap_or_else(|| die("report: missing deck result path (from `hcs run`)"));
            let what = "is neither a deck result nor a chaos report";
            let (json, value) = read_json("report", path, what);
            let result: hcs_experiments::DeckResult = match serde_json::from_value(value.clone()) {
                Ok(result) => result,
                // Not a deck result — try the chaos-report shape
                // before giving up, so `hcs report` fronts both
                // artifact kinds.
                Err(deck_err) => match serde_json::from_value::<hcs_core::ChaosReport>(value) {
                    Ok(chaos) => {
                        match format.as_str() {
                            "json" => println!("{json}"),
                            _ => print!("{}", hcs_experiments::render_chaos_markdown(&chaos)),
                        }
                        return;
                    }
                    Err(chaos_err) => die(&format!(
                        "report: {path} is neither a deck result ({deck_err}) \
                         nor a chaos report ({chaos_err})"
                    )),
                },
            };
            match format.as_str() {
                "json" => {
                    let out =
                        serde_json::to_string_pretty(&hcs_experiments::to_report_json(&result))
                            .unwrap_or_else(|e| die(&format!("report: cannot serialize: {e}")));
                    println!("{out}");
                }
                _ => print!("{}", hcs_experiments::render_markdown(&result)),
            }
        }
        "decks" => {
            let decks = hcs_experiments::figures::all_decks(scale);
            let export = args.iter().position(|a| a == "--export").map(|i| {
                args.get(i + 1)
                    .unwrap_or_else(|| die("decks: --export needs a directory"))
                    .clone()
            });
            for d in &decks {
                println!("{:<22} {:>3} points  {}", d.name, d.expand().len(), d.title);
            }
            if let Some(dir) = export {
                let dir = std::path::PathBuf::from(dir);
                std::fs::create_dir_all(&dir).unwrap_or_else(|e| {
                    die(&format!("decks: cannot create {}: {e}", dir.display()))
                });
                for d in &decks {
                    let path = dir.join(format!("{}.json", d.name));
                    let json = serde_json::to_string_pretty(d).unwrap_or_else(|e| {
                        die(&format!("decks: cannot serialize {}: {e}", d.name))
                    });
                    std::fs::write(&path, json).unwrap_or_else(|e| {
                        die(&format!("decks: cannot write {}: {e}", path.display()))
                    });
                }
                println!("[exported {} decks to {}]", decks.len(), dir.display());
            }
        }
        "figures" => emit_figures("figures", &hcs_experiments::figures::all_figures(scale)),
        "ablations" => emit_figures(
            "ablations",
            &hcs_experiments::figures::ablations::generate(scale),
        ),
        "sensitivity" => {
            let cases = hcs_experiments::figures::sensitivity::analyze(scale);
            print!("{}", hcs_experiments::figures::sensitivity::render(&cases));
        }
        "takeaways" => {
            let r = hcs_experiments::figures::takeaways::measure(scale);
            print!("{}", hcs_experiments::figures::takeaways::render(&r));
        }
        "" | "help" | "--help" | "-h" => println!("{USAGE}"),
        other => die(&format!("unknown command '{other}'")),
    }
}
