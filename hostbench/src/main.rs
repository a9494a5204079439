//! Host-time benchmark of the hcs simulator.
//!
//! Measures what the simulator costs to run, not the simulated
//! results: each workload runs closed loop at the host (the next pass
//! starts when the previous one returns) through the public API, from
//! one process, for a fixed wall-clock window. Simulated outputs are
//! checked, not measured — a wrong or panicking point counts as failed.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path hostbench/Cargo.toml -- \
//!     --workload <paper|open_loop|datacenter|chaos> [--seed N] [--seconds S] [--trace 0|1]
//! cargo run --release --offline -q --manifest-path hostbench/Cargo.toml -- compare OLD NEW
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it reports per-layer metrics from a separate traced run
//! (see [`trace`]). The last line of standard output is the result as
//! one JSON object; the full record (run metadata, pass statistics,
//! per-layer table) is written to `out/` next to this crate, plus a
//! Chrome trace of the spans for traced runs. `compare` prints the
//! deltas between two such sets of records.

mod compare;
mod gate;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::{Serialize, Value};

use gate::{Gate, Reference};
use workload::{Checked, Inputs, Kind, DEFAULT_SEED};

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fewest timed passes per run, however long they take.
const MIN_PASSES: usize = 5;
/// Most traced passes per traced run (keeps the Chrome trace small).
const MAX_TRACED_PASSES: usize = 5;

struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    /// File stem of this run's outputs under `out`.
    stem: String,
    record_reference: bool,
}

fn usage() -> String {
    "usage: hostbench --workload <paper|open_loop|datacenter|chaos> [--seed N] \
     [--seconds S] [--trace 0|1] [--out DIR] [--record-reference]\n       \
     hostbench compare <old result file or dir> <new result file or dir>"
        .into()
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut a = Args {
        workload: Kind::Paper,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        out: crate_dir().join("out"),
        stem: String::new(),
        record_reference: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Kind::parse(v).ok_or_else(|| format!("unknown workload '{v}'"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                }
            }
            "--out" => a.out = PathBuf::from(value()?),
            "--record-reference" => a.record_reference = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    a.workload = workload.ok_or("--workload is required")?;
    let ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    a.stem = format!(
        "{}-trace{}-seed{}-{ms}",
        a.workload.name(),
        u8::from(a.trace),
        a.seed
    );
    Ok(a)
}

/// This crate's directory (inputs and outputs are found from it, so
/// the benchmark runs from any working directory).
fn crate_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The commit the checkout is at, read from `.git` without running
/// git; "unknown" outside a git checkout.
fn git_commit(repo: &Path) -> String {
    let git = repo.join(".git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(git.join(r))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[derive(Serialize)]
struct Metric {
    value: f64,
    unit: String,
}

#[derive(Serialize)]
struct Meta {
    commit: String,
    nproc: usize,
    workers: usize,
    profile: String,
    seed: u64,
    reference_checked: bool,
    setups: usize,
    passes: usize,
    traced_passes: usize,
    run_seconds: f64,
}

#[derive(Serialize)]
struct Record {
    workload: String,
    trace: bool,
    correct: bool,
    attempted: usize,
    failed: usize,
    error_rate: f64,
    meta: Meta,
    metrics: BTreeMap<String, Metric>,
    /// Pass statistics, for information only.
    info: BTreeMap<String, f64>,
    layers: Vec<trace::LayerRow>,
}

/// Timed passes with their checked outputs.
#[derive(Default)]
struct Passes {
    seconds: Vec<f64>,
    checked: Vec<Checked>,
}

impl Passes {
    /// Runs passes until `window` seconds have passed (and at least
    /// `min` passes, at most `max`).
    fn run(
        window: f64,
        min: usize,
        max: usize,
        gate: &mut Gate,
        inputs: &Inputs,
        mut pass: impl FnMut() -> Vec<workload::Run>,
    ) -> Passes {
        let mut p = Passes::default();
        let start = Instant::now();
        while p.seconds.len() < max
            && (p.seconds.len() < min || start.elapsed().as_secs_f64() < window)
        {
            let t = Instant::now();
            let runs = pass();
            p.seconds.push(t.elapsed().as_secs_f64());
            p.checked.push(inputs.check(&runs, gate));
        }
        p
    }

    fn attempted(&self) -> usize {
        self.checked.iter().map(|c| c.attempted).sum()
    }

    fn failed(&self) -> usize {
        self.checked.iter().map(|c| c.failed).sum()
    }

    /// Median over passes of work units per host second.
    fn work_per_s(&self) -> f64 {
        let v: Vec<f64> = self
            .seconds
            .iter()
            .zip(&self.checked)
            .map(|(s, c)| c.units() / s)
            .collect();
        stats::median(&v)
    }

    /// Pass-time statistics and per-part throughputs, for information.
    fn info(&self, kind: Kind, info: &mut BTreeMap<String, f64>) {
        info.insert("passes".into(), self.seconds.len() as f64);
        info.insert("pass_s_median".into(), stats::median(&self.seconds));
        if let Some((p, v)) = stats::tail(&self.seconds) {
            info.insert(format!("pass_s_p{p}"), v);
        }
        let parts: Vec<&'static str> = self
            .checked
            .first()
            .map(|c| c.parts.iter().map(|(p, _, _)| *p).collect())
            .unwrap_or_default();
        for part in parts {
            let rates: Vec<f64> = self
                .checked
                .iter()
                .filter_map(|c| c.parts.iter().find(|(p, _, _)| *p == part))
                .map(|(_, s, u)| u / s)
                .collect();
            let name = match (kind, part) {
                (Kind::OpenLoop, "plain") => "ops_per_s",
                (Kind::OpenLoop, _) => "ops_per_s_provenance",
                (Kind::Chaos, _) => "timelines_per_s",
                _ => "points_per_s",
            };
            info.insert(name.into(), stats::median(&rates));
        }
    }
}

fn run(a: &Args) -> Result<Record, String> {
    let process_start = Instant::now();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The sweep pool is pinned by the benchmark, never inherited: at
    // most two workers (and at most nproc) end to end, one when traced.
    let workers = if a.trace { 1 } else { nproc.min(2) };
    std::env::set_var("RAYON_NUM_THREADS", workers.to_string());
    let repo = crate_dir().join("..");
    let examples = repo.join("examples").join("scenarios");
    let reference_dir = crate_dir().join("reference");
    let name = a.workload.name();

    let mut gate = Gate::new(Reference::load(&reference_dir, name, a.seed)?)?;
    let mut setups = Vec::with_capacity(SETUPS);
    let mut inputs = None;
    let mut warmup = None;
    for i in 0..SETUPS {
        let start = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        let inp = Inputs::load(a.workload, a.seed, &examples)?;
        inp.validate()?;
        let runs = inp.pass();
        setups.push(start.elapsed().as_secs_f64());
        let checked = inp.check(&runs, &mut gate);
        warmup.get_or_insert(checked);
        inputs = Some(inp);
    }
    let inputs = inputs.expect("at least one setup");
    let warmup = warmup.expect("at least one setup");
    if a.record_reference {
        if a.seed != DEFAULT_SEED || warmup.failed > 0 {
            return Err("a reference is recorded only from a clean run at the default seed".into());
        }
        Reference::record(&reference_dir, name, a.seed, &warmup.items)?;
        eprintln!(
            "[recorded reference for {name}: {} outputs]",
            warmup.items.len()
        );
    }

    let mut metrics = BTreeMap::new();
    let mut info = BTreeMap::new();
    let mut layers = Vec::new();
    let mut metric = |name: &str, value: f64, unit: &str| {
        metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit: unit.into(),
            },
        );
    };
    let (passes, traced_passes) = if a.trace {
        let plain = Passes::run(a.seconds / 2.0, 3, usize::MAX, &mut gate, &inputs, || {
            inputs.pass()
        });
        let mut t = trace::Trace::new();
        let traced = Passes::run(
            a.seconds / 2.0,
            1,
            MAX_TRACED_PASSES,
            &mut gate,
            &inputs,
            || trace::traced_pass(&mut t, &inputs),
        );
        let n = traced.seconds.len();
        for (name, value, unit) in t.metrics(n) {
            metric(name, value, unit);
        }
        for (name, value) in trace::solver_micro_points() {
            metric(name, value, "s");
        }
        let (sweep_workers, imbalance) = trace::sweep_probe(&inputs, nproc.min(2));
        metric("sweep.workers", sweep_workers as f64, "count");
        metric("sweep.imbalance", imbalance, "x");
        let overhead = stats::median(&traced.seconds) / stats::median(&plain.seconds);
        metric("trace.overhead", overhead, "x");
        layers = t.layer_table(n);
        std::fs::create_dir_all(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;
        let trace_path = a.out.join(format!("{}.trace.json", a.stem));
        std::fs::write(&trace_path, t.chrome_json())
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        plain.info(a.workload, &mut info);
        info.insert(
            "traced_pass_s_median".into(),
            stats::median(&traced.seconds),
        );
        let mut all = plain;
        all.seconds.extend(traced.seconds);
        all.checked.extend(traced.checked);
        (all, n)
    } else {
        let p = Passes::run(
            a.seconds,
            MIN_PASSES,
            usize::MAX,
            &mut gate,
            &inputs,
            || inputs.pass(),
        );
        metric("setup_s", stats::median(&setups), "s");
        metric("work_per_s", p.work_per_s(), "1/s");
        metric("peak_rss_mb", peak_rss_mb(), "MB");
        p.info(a.workload, &mut info);
        (p, 0)
    };
    info.insert("setup_s_median".into(), stats::median(&setups));

    let attempted = passes.attempted();
    let failed = passes.failed();
    Ok(Record {
        workload: name.into(),
        trace: a.trace,
        correct: failed == 0,
        attempted,
        failed,
        error_rate: failed as f64 / attempted.max(1) as f64,
        meta: Meta {
            commit: git_commit(&repo),
            nproc,
            workers,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
            seed: a.seed,
            reference_checked: gate.has_reference(),
            setups: setups.len(),
            passes: passes.seconds.len() - traced_passes,
            traced_passes,
            run_seconds: a.seconds,
        },
        metrics,
        info,
        layers,
    })
}

fn report(a: &Args, r: &Record) -> Result<(), String> {
    eprintln!(
        "{} (seed {}, {} passes{}, {} workers, commit {}): {} attempted, {} failed, error rate {}",
        r.workload,
        r.meta.seed,
        r.meta.passes,
        if r.trace {
            format!(" + {} traced", r.meta.traced_passes)
        } else {
            String::new()
        },
        r.meta.workers,
        r.meta.commit,
        r.attempted,
        r.failed,
        r.error_rate
    );
    eprintln!("  [work_per_s = {} per host second]", a.workload.unit());
    for (k, v) in &r.info {
        eprintln!("  {k:<28} {v:.6}");
    }
    if !r.layers.is_empty() {
        eprintln!(
            "  {:<40} {:<10} {:>14} {:>10}",
            "layer", "kind", "per pass", "calls"
        );
        for row in &r.layers {
            eprintln!(
                "  {:<40} {:<10} {:>14.6} {:>10.1}",
                row.layer, row.kind, row.per_pass, row.calls
            );
        }
    }
    std::fs::create_dir_all(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;
    let path = a.out.join(format!("{}.json", a.stem));
    let json = serde_json::to_string_pretty(r).expect("record serializes");
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("[wrote {}]", path.display());

    let metrics = r
        .metrics
        .iter()
        .map(|(k, m)| (k.clone(), m.to_value()))
        .collect();
    let line = Value::Map(vec![
        ("correct".into(), Value::Bool(r.correct)),
        ("attempted".into(), Value::Num(r.attempted as f64)),
        ("failed".into(), Value::Num(r.failed as f64)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).expect("result serializes")
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("compare") {
        match &args[1..] {
            [old, new] => compare::compare(
                Path::new(old),
                Path::new(new),
                &crate_dir().join("..").join("BENCHMARK.json"),
            ),
            _ => Err(usage()),
        }
    } else {
        parse_args(&args)
            .map_err(|e| format!("{e}\n{}", usage()))
            .and_then(|a| run(&a).and_then(|r| report(&a, &r)))
    };
    if let Err(e) = result {
        eprintln!("hostbench: {e}");
        std::process::exit(2);
    }
}
