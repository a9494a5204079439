//! Distills one deck point's run into [`PointMetrics`] and a whole
//! deck into a [`DeckMetricsSummary`].
//!
//! Collection rides the PR-2 telemetry hooks: the metered executor
//! runs every point into a fresh [`Recorder`] (a pure listener — the
//! outcome stays bit-identical to the un-metered run, which
//! `tests/report_golden.rs` pins) and this module converts what the
//! recorder saw — plus each family's own result — into the common
//! observability currency: an `IoDecomposition`, perceived vs. system
//! throughput, bottleneck shares, solver counters and cross-rep
//! spread.
//!
//! Decomposition fidelity follows the paper's method per family:
//! DLIO and replay results carry exact interval-arithmetic
//! decompositions (`hcs-dftrace::decompose`); IOR, MDTest and job
//! campaigns are accounted at phase level (an IOR run *is* one I/O
//! phase; a job's steps partition its wall time).

use hcs_core::metrics::{
    DeckMetricsSummary, KneeVerdict, LatencyHistogram, PointMetrics, ProvenanceMetrics, Stats,
    SystemMetrics,
};
use hcs_core::{Arrival, IoOp, JobStep, Recorder, Workload};
use hcs_dftrace::{EventCategory, IoDecomposition};
use hcs_simkit::Summary;

use crate::deck::{DeckResult, WorkloadOutcome};

/// Seconds a metadata phase took: total ops at the measured mean rate.
fn op_phase_seconds(total_ops: f64, rate: &Summary) -> f64 {
    if rate.mean > 0.0 {
        total_ops / rate.mean
    } else {
        0.0
    }
}

/// Builds the metrics bundle for one executed point from its workload,
/// outcome and the (per-point) recorder that listened to the run.
/// `wall_clock_seconds` is left at 0 — the executor stamps it.
pub(crate) fn collect_point_metrics(
    workload: &Workload,
    outcome: &WorkloadOutcome,
    recorder: &Recorder,
    nodes: u32,
    ppn: u32,
) -> PointMetrics {
    struct Parts {
        decomposition: IoDecomposition,
        read_seconds: f64,
        write_seconds: f64,
        perceived_throughput: f64,
        system_throughput: f64,
        throughput_unit: &'static str,
        headline_value: f64,
        headline_unit: &'static str,
        higher_is_better: bool,
        rep_values: Stats,
        rep_cv: f64,
    }

    let parts = match (workload, outcome) {
        (Workload::Ior(c), WorkloadOutcome::Ior(r)) => {
            // One pure-I/O phase: the recorder clock is the noise-free
            // base run's wall time (metadata cost included).
            let span = recorder.clock();
            let bytes = c.total_bytes();
            let bw = if span > 0.0 { bytes / span } else { 0.0 };
            let (read, write) = match c.phase().op {
                IoOp::Read => (span, 0.0),
                IoOp::Write => (0.0, span),
            };
            let rep_values = Stats::from_values(r.outcome.bandwidths.clone());
            let rep_cv = rep_values.cv();
            Parts {
                decomposition: IoDecomposition {
                    total_runtime: span,
                    io_total: span,
                    compute_total: 0.0,
                    overlapping_io: 0.0,
                    non_overlapping_io: span,
                },
                read_seconds: read,
                write_seconds: write,
                perceived_throughput: bw,
                system_throughput: bw,
                throughput_unit: "B/s",
                headline_value: r.outcome.summary.mean,
                headline_unit: "B/s",
                higher_is_better: true,
                rep_values,
                rep_cv,
            }
        }
        (Workload::Dlio(_), WorkloadOutcome::Dlio(r)) => Parts {
            decomposition: r.mean_per_node.clone(),
            read_seconds: r.mean_per_node.io_total,
            write_seconds: r.checkpoint_io,
            perceived_throughput: r.app_throughput,
            system_throughput: r.system_throughput,
            throughput_unit: "samples/s",
            headline_value: r.app_throughput,
            headline_unit: "samples/s",
            higher_is_better: true,
            rep_values: Stats::from_values(vec![r.app_throughput]),
            rep_cv: 0.0,
        },
        (Workload::Mdtest(c), WorkloadOutcome::Mdtest(r)) => {
            // Phase-level accounting: each op storm performs
            // `total_ops` operations at its measured mean rate.
            let total = c.total_ops();
            let create = op_phase_seconds(total, &r.create);
            let stat = op_phase_seconds(total, &r.stat);
            let unlink = op_phase_seconds(total, &r.unlink);
            let io = create + stat + unlink;
            let rate = if io > 0.0 { 3.0 * total / io } else { 0.0 };
            let rep_cv = if r.create.mean > 0.0 {
                r.create.std_dev / r.create.mean
            } else {
                0.0
            };
            Parts {
                decomposition: IoDecomposition {
                    total_runtime: io,
                    io_total: io,
                    compute_total: 0.0,
                    overlapping_io: 0.0,
                    non_overlapping_io: io,
                },
                read_seconds: stat,
                write_seconds: create + unlink,
                perceived_throughput: rate,
                system_throughput: rate,
                throughput_unit: "ops/s",
                headline_value: r.create.mean,
                headline_unit: "ops/s",
                higher_is_better: true,
                rep_values: Stats::from_values(vec![r.create.mean]),
                rep_cv,
            }
        }
        (Workload::Job(j), WorkloadOutcome::Job(r)) => {
            // Steps partition the job's wall time serially; `per_step`
            // aligns 1:1 with the script's steps, so the read/write
            // split follows each I/O step's direction.
            let mut read = 0.0;
            let mut write = 0.0;
            let mut bytes = 0.0;
            for (step, (_, dur)) in j.steps.iter().zip(&r.per_step) {
                if let JobStep::Io { phase, .. } = step {
                    bytes += phase.total_bytes(nodes, ppn);
                    match phase.op {
                        IoOp::Read => read += dur,
                        IoOp::Write => write += dur,
                    }
                }
            }
            Parts {
                decomposition: IoDecomposition {
                    total_runtime: r.total,
                    io_total: r.io,
                    compute_total: r.compute,
                    overlapping_io: 0.0,
                    non_overlapping_io: r.io,
                },
                read_seconds: read,
                write_seconds: write,
                perceived_throughput: if r.total > 0.0 { bytes / r.total } else { 0.0 },
                system_throughput: if r.io > 0.0 { bytes / r.io } else { 0.0 },
                throughput_unit: "B/s",
                headline_value: r.total,
                headline_unit: "s",
                higher_is_better: false,
                rep_values: Stats::from_values(vec![r.total]),
                rep_cv: 0.0,
            }
        }
        (Workload::Replay(_), WorkloadOutcome::Replay(r)) => {
            // Exact decomposition from the replayed trace; samples are
            // replayed read events, evenly attributed per process.
            let procs = r.per_process.len().max(1) as f64;
            let samples = r.tracer.by_category(&EventCategory::Read).count() as f64 / procs;
            Parts {
                decomposition: r.mean.clone(),
                read_seconds: r.mean.io_total,
                write_seconds: 0.0,
                perceived_throughput: r.mean.app_throughput(samples),
                system_throughput: r.mean.system_throughput(samples),
                throughput_unit: "samples/s",
                headline_value: r.duration,
                headline_unit: "s",
                higher_is_better: false,
                rep_values: Stats::from_values(vec![r.duration]),
                rep_cv: 0.0,
            }
        }
        _ => unreachable!("workload and outcome families always match"),
    };

    PointMetrics {
        decomposition: parts.decomposition,
        read_seconds: parts.read_seconds,
        write_seconds: parts.write_seconds,
        perceived_throughput: parts.perceived_throughput,
        system_throughput: parts.system_throughput,
        throughput_unit: parts.throughput_unit.to_string(),
        headline_value: parts.headline_value,
        headline_unit: parts.headline_unit.to_string(),
        higher_is_better: parts.higher_is_better,
        rep_values: parts.rep_values,
        rep_cv: parts.rep_cv,
        bottlenecks: recorder.metrics_summary().bottlenecks,
        solver_epochs: recorder.solver_epochs(),
        flow_groups: recorder.flow_groups(),
        wall_clock_seconds: 0.0,
        resilience: None,
        latency: Vec::new(),
        provenance: None,
    }
}

/// The p99 multiple over the low-load baseline that declares
/// saturation: the knee is the first offered-load point whose merged
/// p99 exceeds this factor times the first (lowest-rate) point's p99.
const KNEE_THRESHOLD: f64 = 2.0;

/// Extracts one throughput–latency knee verdict per system from an
/// offered-load sweep: within each `by_system` group (sweep order), the
/// first open-loop point is the baseline and the knee is the first
/// point whose merged p99 exceeds [`KNEE_THRESHOLD`]× the baseline p99.
/// Systems that never cross report `knee_rate: None` (no knee within
/// the swept range). Closed-loop points carry no latency and are
/// skipped, so fault-free closed decks produce no verdicts at all.
fn knee_verdicts(result: &DeckResult) -> Vec<KneeVerdict> {
    struct SeriesPoint {
        rate: f64,
        p99: f64,
        name: String,
        provenance: Option<ProvenanceMetrics>,
    }
    let mut knees = Vec::new();
    for (label, points) in result.by_system() {
        let mut series: Vec<SeriesPoint> = Vec::new();
        for p in &points {
            let Some(m) = &p.metrics else { continue };
            let Arrival::Open { rate, .. } = &p.scenario.arrival else {
                continue;
            };
            let mut merged = LatencyHistogram::new();
            for row in &m.latency {
                merged.merge(&row.histogram);
            }
            if let Some(p99) = merged.p99() {
                series.push(SeriesPoint {
                    rate: *rate,
                    p99,
                    name: p.scenario.name.clone(),
                    provenance: m.provenance.clone(),
                });
            }
        }
        let Some(first) = series.first() else {
            continue;
        };
        let (baseline_rate, baseline_p99) = (first.rate, first.p99);
        let knee = series
            .iter()
            .find(|pt| pt.p99 > KNEE_THRESHOLD * baseline_p99);
        knees.push(KneeVerdict {
            system: label.clone(),
            threshold: KNEE_THRESHOLD,
            baseline_p99,
            baseline_rate,
            knee_rate: knee.map(|pt| pt.rate),
            knee_point: knee.map(|pt| pt.name.clone()),
            knee_p99: knee.map(|pt| pt.p99),
            knee_blame: knee
                .and_then(|pt| knee_blame(series[0].provenance.as_ref(), pt.provenance.as_ref())),
        });
    }
    knees
}

/// Per-stage blame as a share of total measured latency — the
/// dimensionless currency in which blame growth is compared across
/// offered-load points.
fn blame_shares(prov: &ProvenanceMetrics) -> Vec<(&str, f64)> {
    if prov.latency_seconds <= 0.0 {
        return Vec::new();
    }
    prov.stages
        .iter()
        .map(|s| (s.resource.as_str(), s.blame_seconds / prov.latency_seconds))
        .collect()
}

/// Names the resource whose blame share grew most from the baseline
/// point to the knee point — the stage the knee verdict indicts. None
/// when the knee point carries no provenance record or no stage's
/// share grew (strict first-of-max over the knee point's stage order,
/// which is descending blame with alphabetical ties, so the pick is
/// deterministic).
fn knee_blame(
    baseline: Option<&ProvenanceMetrics>,
    knee: Option<&ProvenanceMetrics>,
) -> Option<String> {
    let knee = knee?;
    if knee.latency_seconds <= 0.0 {
        return None;
    }
    let before = baseline.map(blame_shares).unwrap_or_default();
    let mut best: Option<(&str, f64)> = None;
    for s in &knee.stages {
        let now = s.blame_seconds / knee.latency_seconds;
        let was = before
            .iter()
            .find(|(n, _)| *n == s.resource)
            .map(|(_, v)| *v)
            .unwrap_or(0.0);
        let growth = now - was;
        if growth > 0.0 && best.is_none_or(|(_, g)| growth > g) {
            best = Some((s.resource.as_str(), growth));
        }
    }
    best.map(|(n, _)| n.to_string())
}

/// The group's dominant bottleneck: the resource with the most
/// accumulated bottleneck seconds across its points, first-of-max on
/// ties, as "stage-label resource-name".
fn top_bottleneck(points: &[&crate::deck::PointResult]) -> Option<String> {
    let mut acc: Vec<(Option<hcs_core::StageKind>, String, f64)> = Vec::new();
    for p in points {
        let Some(m) = &p.metrics else { continue };
        for b in &m.bottlenecks {
            match acc
                .iter_mut()
                .find(|(k, n, _)| *k == b.kind && *n == b.name)
            {
                Some((_, _, secs)) => *secs += b.seconds,
                None => acc.push((b.kind, b.name.clone(), b.seconds)),
            }
        }
    }
    let mut best: Option<&(Option<hcs_core::StageKind>, String, f64)> = None;
    for entry in &acc {
        if best.is_none_or(|b| entry.2 > b.2) {
            best = Some(entry);
        }
    }
    best.map(|(kind, name, _)| format!("{} {}", kind.map(|k| k.label()).unwrap_or("?"), name))
}

/// Index of the best headline among `values` for the given direction,
/// first-of-max (or min) on ties.
fn best_index(values: &[f64], higher_is_better: bool) -> usize {
    let mut best = 0;
    for (i, v) in values.iter().enumerate().skip(1) {
        let better = if higher_is_better {
            *v > values[best]
        } else {
            *v < values[best]
        };
        if better {
            best = i;
        }
    }
    best
}

/// Rolls a metered deck up into its [`DeckMetricsSummary`]: per-system
/// cross-rep statistics over the `by_system` groups plus winner /
/// factor / crossover extraction. Returns `None` unless every point
/// carries metrics. Uses only deterministic per-point fields (never
/// wall clock), so the summary is bit-identical across rayon worker
/// counts.
pub fn deck_metrics_summary(result: &DeckResult) -> Option<DeckMetricsSummary> {
    if result.points.is_empty() || result.points.iter().any(|p| p.metrics.is_none()) {
        return None;
    }
    let first = result.points[0].metrics.as_ref().expect("checked above");
    let unit = first.headline_unit.clone();
    let higher_is_better = first.higher_is_better;

    let groups = result.by_system();
    let systems: Vec<SystemMetrics> = groups
        .iter()
        .map(|(label, points)| {
            let mut headline = Stats::new();
            let mut rep_cv = Stats::new();
            for p in points {
                let m = p.metrics.as_ref().expect("checked above");
                headline.push(m.headline_value);
                rep_cv.push(m.rep_cv);
            }
            SystemMetrics {
                system: label.clone(),
                points: points.len(),
                headline,
                rep_cv,
                top_bottleneck: top_bottleneck(points),
            }
        })
        .collect();

    let means: Vec<f64> = systems.iter().map(|s| s.headline.mean()).collect();
    let winner_idx = best_index(&means, higher_is_better);
    let winner = Some(systems[winner_idx].system.clone());
    let factor = if systems.len() < 2 {
        1.0
    } else {
        let runner_up = means
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != winner_idx)
            .map(|(_, v)| *v)
            .fold(
                if higher_is_better {
                    f64::NEG_INFINITY
                } else {
                    f64::INFINITY
                },
                |acc, v| {
                    if higher_is_better {
                        acc.max(v)
                    } else {
                        acc.min(v)
                    }
                },
            );
        let (top, bottom) = if higher_is_better {
            (means[winner_idx], runner_up)
        } else {
            (runner_up, means[winner_idx])
        };
        if bottom > 0.0 {
            top / bottom
        } else {
            1.0
        }
    };

    // Crossovers need a multi-system sweep with aligned point counts.
    let mut crossovers = Vec::new();
    let aligned = groups.len() >= 2 && groups.iter().all(|(_, p)| p.len() == groups[0].1.len());
    if aligned {
        let mut prev: Option<usize> = None;
        for i in 0..groups[0].1.len() {
            let at: Vec<f64> = groups
                .iter()
                .map(|(_, p)| p[i].metrics.as_ref().expect("checked above").headline_value)
                .collect();
            let w = best_index(&at, higher_is_better);
            if let Some(pw) = prev {
                if pw != w {
                    crossovers.push(format!(
                        "{} -> {} at {}",
                        groups[pw].0, groups[w].0, groups[w].1[i].scenario.name
                    ));
                }
            }
            prev = Some(w);
        }
    }

    Some(DeckMetricsSummary {
        unit,
        higher_is_better,
        systems,
        winner,
        factor,
        crossovers,
        knees: knee_verdicts(result),
    })
}
