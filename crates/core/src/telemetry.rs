//! Simulation-wide telemetry: one trace/metrics layer under every run.
//!
//! A [`Recorder`] turns the raw [`hcs_simkit::FlowLog`] a probe gathers
//! from each phase's `FlowNet` into the suite's common observability
//! currency: `hcs-dftrace` [`TraceEvent`]s (Chrome-trace dumpable) plus
//! per-resource utilization timelines and a [`MetricsSummary`]
//! (busy fractions, time-weighted bottleneck attribution). Every
//! layer's entry takes an optional recorder —
//! [`crate::runner::run_phase_repeated`]'s trace,
//! [`crate::JobScript::run_traced`], `run_ior_with`, `run_dlio_traced`,
//! `run_deck` — all feeding one recorder, so an entire campaign lands
//! in a single trace with a consistent clock.
//!
//! ## Event model
//!
//! Successive runs absorbed into one recorder are laid out end-to-end
//! on a single monotone clock ([`Recorder::clock`]). Each absorbed
//! phase contributes:
//!
//! * one [`EventCategory::Phase`] span on the reserved [`PHASE_PID`]
//!   track — the phase's full wall time (including metadata cost);
//! * one [`EventCategory::Flow`] event per flow group, `pid` = the
//!   flow's tag (the runner tags flows with the client-node index),
//!   `bytes` = the group's total bytes;
//! * one [`EventCategory::Resource`] event per resource per *rate
//!   epoch* on the reserved [`RESOURCE_PID`] track (`tid` = resource
//!   index) — the allocation step function over time, `bytes` = bytes
//!   moved through the resource during the epoch.
//!
//! ## Zero-perturbation guarantee
//!
//! The recorder only ever *listens*: the flow engine's recorder hook is
//! write-only, and the traced runner variants consult nothing the
//! recorder produced. `tests/telemetry_parity.rs` pins this by running
//! every backend × workload cell with and without a recorder and
//! asserting bit-exact [`PhaseOutcome`](crate::PhaseOutcome) equality.

use hcs_dftrace::chrome;
use hcs_dftrace::{EventCategory, TraceEvent, Tracer};
use hcs_simkit::{FlowLog, ResourceId};
use serde::{Deserialize, Serialize};

use crate::graph::StageKind;

/// Reserved `pid` for per-resource utilization events (real node pids
/// are small client-node indices).
pub const RESOURCE_PID: u32 = 1_000_000;

/// Reserved `pid` for phase span events.
pub const PHASE_PID: u32 = 1_000_001;

/// Reserved `pid` for per-op latency-blame annotation spans (emitted
/// only by provenance-enabled open-loop runs).
pub const PROVENANCE_PID: u32 = 1_000_002;

/// Utilization ratio at which a resource counts as saturated for
/// bottleneck attribution — matches the phase runner's threshold.
pub const SATURATION_RATIO: f64 = 0.99;

/// One resource's utilization timeline from one absorbed run.
///
/// `samples` is a step function on the recorder's global clock: each
/// `(t, allocated, capacity)` triple holds until the next sample, the
/// last one until `end`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct UtilizationTimeline {
    /// Resource name, as provisioned.
    pub name: String,
    /// Deployment stage the resource belongs to, when known.
    pub kind: Option<StageKind>,
    /// `(t, allocated bytes/s, capacity bytes/s)` steps, ascending `t`.
    pub samples: Vec<(f64, f64, f64)>,
    /// End of the observation window (global clock).
    pub end: f64,
}

impl UtilizationTimeline {
    /// Time-weighted busy seconds (allocation > 0). Zero-span
    /// timelines (no samples, or `end` at/before the first sample)
    /// report 0.0 — never NaN, and never phantom time from segments
    /// that would close before they open.
    pub fn busy_seconds(&self) -> f64 {
        if self.span() <= 0.0 {
            return 0.0;
        }
        self.segments()
            .filter(|(_, dt, alloc, _)| *alloc > 0.0 && *dt > 0.0)
            .map(|(_, dt, _, _)| dt)
            .sum()
    }

    /// Observation-window length, seconds.
    pub fn span(&self) -> f64 {
        match self.samples.first() {
            Some((t0, _, _)) => (self.end - t0).max(0.0),
            None => 0.0,
        }
    }

    /// Time-weighted mean utilization ratio (allocated / capacity) over
    /// the window; segments with zero capacity count as ratio 0.
    pub fn mean_utilization(&self) -> f64 {
        let span = self.span();
        if span <= 0.0 {
            return 0.0;
        }
        let weighted: f64 = self
            .segments()
            .filter(|(_, dt, _, cap)| *dt > 0.0 && *cap > 0.0)
            .map(|(_, dt, alloc, cap)| dt * (alloc / cap))
            .sum();
        weighted / span
    }

    /// Iterates `(t, dt, allocated, capacity)` segments of the step
    /// function, the last segment closed by [`Self::end`].
    fn segments(&self) -> impl Iterator<Item = (f64, f64, f64, f64)> + '_ {
        let end = self.end;
        self.samples.iter().enumerate().map(move |(i, &(t, a, c))| {
            let next = self.samples.get(i + 1).map_or(end, |s| s.0);
            (t, (next - t).max(0.0), a, c)
        })
    }
}

/// Per-resource roll-up in a [`MetricsSummary`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResourceMetrics {
    /// Resource name.
    pub name: String,
    /// Deployment stage, when known.
    pub kind: Option<StageKind>,
    /// Seconds the resource carried any traffic.
    pub busy_seconds: f64,
    /// Busy seconds over the trace span.
    pub busy_fraction: f64,
    /// Time-weighted mean allocated/capacity ratio over the resource's
    /// own observation windows.
    pub mean_utilization: f64,
}

/// Time-weighted bottleneck attribution: how long each resource was
/// *the* binding constraint.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BottleneckShare {
    /// Deployment stage of the bottleneck resource, when known.
    pub kind: Option<StageKind>,
    /// Resource name.
    pub name: String,
    /// Seconds this resource was the (most-saturated) bottleneck.
    pub seconds: f64,
    /// `seconds` over the total trace span.
    pub share: f64,
}

/// Roll-up of everything a [`Recorder`] saw.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricsSummary {
    /// Total recorded span, seconds (the recorder clock's final value).
    pub span: f64,
    /// Per-resource metrics, one entry per distinct `(name, kind)` in
    /// first-seen order.
    pub resources: Vec<ResourceMetrics>,
    /// Bottleneck attribution, descending by seconds.
    pub bottlenecks: Vec<BottleneckShare>,
}

/// Collects trace events and utilization timelines across runs.
///
/// Create one, pass it to any number of `*_traced` entry points, then
/// dump with [`Recorder::to_chrome_json`] / summarize with
/// [`Recorder::metrics_summary`].
#[derive(Debug, Default)]
pub struct Recorder {
    tracer: Tracer,
    timelines: Vec<UtilizationTimeline>,
    clock: f64,
    bottleneck_seconds: Vec<BottleneckShare>,
    solver_epochs: u64,
    flow_groups: u64,
}

impl Recorder {
    /// An empty recorder with its clock at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The global clock: where the next absorbed run will start.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// All trace events recorded so far.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// All utilization timelines recorded so far (one per resource per
    /// absorbed run, in absorption order).
    pub fn timelines(&self) -> &[UtilizationTimeline] {
        &self.timelines
    }

    /// Flow-solver rate epochs across all absorbed phases (one
    /// allocation sample is emitted per epoch, so this counts solver
    /// invocations the engine actually performed).
    pub fn solver_epochs(&self) -> u64 {
        self.solver_epochs
    }

    /// Flow groups across all absorbed phases.
    pub fn flow_groups(&self) -> u64 {
        self.flow_groups
    }

    /// Absorbs one run's flow log: shifts it onto the global clock,
    /// emits phase/flow/resource events, extends the timelines,
    /// attributes bottleneck time, and advances the clock by
    /// `duration` (the run's wall time, which may exceed the log's last
    /// event — e.g. metadata cost charged outside the flow network).
    ///
    /// `stage_kinds` maps provisioned resources to deployment stages
    /// (pass `&[]` when unknown — e.g. a bare `FlowNet` in a test).
    pub fn absorb_phase(
        &mut self,
        label: &str,
        log: &FlowLog,
        stage_kinds: &[(ResourceId, StageKind)],
        duration: f64,
    ) {
        assert!(duration >= 0.0, "phase duration must be non-negative");
        let t0 = self.clock;
        let end = t0 + duration;
        // Sim-engine counters: plain integer adds, visible to metrics
        // consumers without re-walking the log.
        self.solver_epochs += log.samples.len() as u64;
        // Sum `groups`, not record count: an aggregated class flow
        // stands for `groups` expanded flow groups, so the tally is
        // invariant under equivalence-class aggregation.
        self.flow_groups += log.flows.iter().map(|f| f.groups as u64).sum::<u64>();

        // Durations are computed in the phase's local frame and only
        // start times are shifted by the clock: `t0 + x` and `y - x`
        // never mix, so an event's duration is bitwise identical no
        // matter what clock the phase landed on. That makes stacking a
        // point's private recorder (`absorb_recorder`) reproduce the
        // shared-recorder trace exactly.
        self.tracer.record(TraceEvent {
            name: label.to_string(),
            cat: EventCategory::Phase,
            pid: PHASE_PID,
            tid: 0,
            ts: t0,
            dur: duration,
            bytes: None,
        });

        for f in &log.flows {
            self.tracer.record(TraceEvent {
                name: format!("{label}/flow"),
                cat: EventCategory::Flow,
                pid: f.tag as u32,
                tid: 0,
                ts: t0 + f.start,
                dur: (f.end.unwrap_or(duration) - f.start).max(0.0),
                bytes: Some(f.bytes * f.multiplicity as f64),
            });
        }

        let kind_of = |idx: usize| -> Option<StageKind> {
            stage_kinds
                .iter()
                .find(|(id, _)| id.index() == idx)
                .map(|(_, k)| *k)
        };

        // Per-resource timelines + one Resource event per rate epoch.
        // Segment lengths come from the local sample times (see above).
        for (idx, (name, _)) in log.resources.iter().enumerate() {
            for (i, s) in log.samples.iter().enumerate() {
                let seg = log.samples.get(i + 1).map_or(duration, |n| n.t) - s.t;
                if seg <= 0.0 {
                    continue;
                }
                self.tracer.record(TraceEvent {
                    name: name.clone(),
                    cat: EventCategory::Resource,
                    pid: RESOURCE_PID,
                    tid: idx as u32,
                    ts: t0 + s.t,
                    dur: seg,
                    bytes: Some(s.allocated[idx] * seg),
                });
            }
            self.timelines.push(UtilizationTimeline {
                name: name.clone(),
                kind: kind_of(idx),
                samples: log
                    .samples
                    .iter()
                    .map(|s| (t0 + s.t, s.allocated[idx], s.capacity[idx]))
                    .collect(),
                end,
            });
        }

        // Time-weighted bottleneck attribution, one winner per epoch:
        // highest utilization ratio at or above saturation, ties broken
        // toward the earliest resource in provisioning order (the same
        // rule the phase runner applies to its initial snapshot).
        for (i, s) in log.samples.iter().enumerate() {
            let seg_end = log.samples.get(i + 1).map_or(duration, |n| n.t);
            let dt = seg_end - s.t;
            if dt <= 0.0 {
                continue;
            }
            let mut best: Option<(usize, f64)> = None;
            for (idx, (&alloc, &cap)) in s.allocated.iter().zip(&s.capacity).enumerate() {
                if cap <= 0.0 {
                    continue;
                }
                let ratio = alloc / cap;
                if ratio >= SATURATION_RATIO && best.is_none_or(|(_, r)| ratio > r) {
                    best = Some((idx, ratio));
                }
            }
            if let Some((idx, _)) = best {
                let name = &log.resources[idx].0;
                let kind = kind_of(idx);
                match self
                    .bottleneck_seconds
                    .iter_mut()
                    .find(|b| b.name == *name && b.kind == kind)
                {
                    Some(b) => b.seconds += dt,
                    None => self.bottleneck_seconds.push(BottleneckShare {
                        kind,
                        name: name.clone(),
                        seconds: dt,
                        share: 0.0,
                    }),
                }
            }
        }

        self.clock = end;
    }

    /// Records a pure-compute span (a job's compute step) and advances
    /// the clock.
    pub fn record_compute(&mut self, label: &str, seconds: f64) {
        assert!(seconds >= 0.0, "compute time must be non-negative");
        // Shift-invariant like `absorb_phase`: the duration is the
        // local span, only the start is on the clock.
        self.tracer.record(TraceEvent {
            name: label.to_string(),
            cat: EventCategory::Compute,
            pid: PHASE_PID,
            tid: 0,
            ts: self.clock,
            dur: seconds,
            bytes: None,
        });
        self.clock += seconds;
    }

    /// Merges an application-level tracer (e.g. the DLIO pipeline's)
    /// into this recorder, shifting its events onto the global clock.
    /// Does not advance the clock — pair with [`Self::absorb_phase`]
    /// for the run the events came from.
    pub fn merge_events(&mut self, other: &Tracer) {
        let t0 = self.clock;
        for e in other.events() {
            let mut e = e.clone();
            e.ts += t0;
            self.tracer.record(e);
        }
    }

    /// Absorbs another recorder wholesale: its events, timelines and
    /// bottleneck seconds are shifted onto this recorder's clock, its
    /// counters are added, and the clock advances by its full span.
    ///
    /// This is how the metered deck executor keeps one coherent trace:
    /// each point runs into a fresh recorder (so metrics stay
    /// per-point) and is then stacked onto the shared deck recorder —
    /// the resulting trace is bit-identical to running every point
    /// into the shared recorder directly, because each phase would
    /// have started at the same global instant either way.
    pub fn absorb_recorder(&mut self, other: &Recorder) {
        let t0 = self.clock;
        self.merge_events(&other.tracer);
        for tl in &other.timelines {
            self.timelines.push(UtilizationTimeline {
                name: tl.name.clone(),
                kind: tl.kind,
                samples: tl.samples.iter().map(|&(t, a, c)| (t0 + t, a, c)).collect(),
                end: t0 + tl.end,
            });
        }
        for b in &other.bottleneck_seconds {
            match self
                .bottleneck_seconds
                .iter_mut()
                .find(|x| x.name == b.name && x.kind == b.kind)
            {
                Some(x) => x.seconds += b.seconds,
                None => self.bottleneck_seconds.push(b.clone()),
            }
        }
        self.solver_epochs += other.solver_epochs;
        self.flow_groups += other.flow_groups;
        self.clock = t0 + other.clock;
    }

    /// Serializes everything recorded so far to Chrome-trace JSON.
    pub fn to_chrome_json(&self) -> String {
        chrome::to_json(&self.tracer)
    }

    /// Rolls the recorded timelines up into per-resource metrics and
    /// time-weighted bottleneck attribution.
    pub fn metrics_summary(&self) -> MetricsSummary {
        let span = self.clock;
        // Accumulate (busy seconds, Σ window, window-weighted Σ ratio)
        // per distinct resource, in first-seen order.
        let mut acc: Vec<(String, Option<StageKind>, f64, f64, f64)> = Vec::new();
        for tl in &self.timelines {
            let (busy, window, mean) = (tl.busy_seconds(), tl.span(), tl.mean_utilization());
            match acc
                .iter_mut()
                .find(|(name, kind, ..)| *name == tl.name && *kind == tl.kind)
            {
                Some((_, _, b, w, wr)) => {
                    *b += busy;
                    *w += window;
                    *wr += mean * window;
                }
                None => acc.push((tl.name.clone(), tl.kind, busy, window, mean * window)),
            }
        }
        let resources = acc
            .into_iter()
            .map(|(name, kind, busy, window, weighted)| ResourceMetrics {
                name,
                kind,
                busy_seconds: busy,
                busy_fraction: if span > 0.0 { busy / span } else { 0.0 },
                mean_utilization: if window > 0.0 { weighted / window } else { 0.0 },
            })
            .collect();

        let mut bottlenecks = self.bottleneck_seconds.clone();
        for b in &mut bottlenecks {
            b.share = if span > 0.0 { b.seconds / span } else { 0.0 };
        }
        bottlenecks.sort_by(|a, b| b.seconds.total_cmp(&a.seconds));

        MetricsSummary {
            span,
            resources,
            bottlenecks,
        }
    }
}

/// Builds per-op blame annotation spans from a provenance log, in the
/// run's local clock frame: one span per nonzero blame component on
/// the reserved [`PROVENANCE_PID`] track (`tid` = blamed resource
/// index; stall spans sit one lane past the last resource). Merge into
/// a [`Recorder`] with [`Recorder::merge_events`] *before* the phase's
/// `absorb_phase` so both land on the same global clock offset.
pub fn blame_spans(label: &str, log: &hcs_simkit::ProvenanceLog) -> Tracer {
    let mut tracer = Tracer::new();
    let stall_lane = log.resources.len() as u32;
    for op in &log.ops {
        for &(r, seconds) in &op.blame {
            if seconds <= 0.0 {
                continue;
            }
            let resource = log
                .resources
                .get(r as usize)
                .map(|(name, _)| name.as_str())
                .unwrap_or("?");
            tracer.record(TraceEvent {
                name: format!("{label}/blame {resource}"),
                cat: EventCategory::Other("blame".to_string()),
                pid: PROVENANCE_PID,
                tid: r,
                ts: op.admitted_at,
                dur: seconds,
                bytes: None,
            });
        }
        if op.stall > 0.0 {
            tracer.record(TraceEvent {
                name: format!("{label}/stall"),
                cat: EventCategory::Other("stall".to_string()),
                pid: PROVENANCE_PID,
                tid: stall_lane,
                ts: op.admitted_at,
                dur: op.stall,
                bytes: None,
            });
        }
    }
    tracer
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcs_simkit::{FlowLogHandle, FlowNet, FlowSpec, ResourceSpec};

    fn one_flow_log() -> (FlowLog, f64) {
        let mut net = FlowNet::new();
        let log = FlowLogHandle::attach(&mut net);
        let r = net.add_resource(ResourceSpec::new("link", 100.0));
        net.add_flow(FlowSpec::new(vec![r], 1000.0).with_tag(0));
        let end = net.run_to_completion(|_, _| {});
        (log.snapshot(), end)
    }

    #[test]
    fn absorb_emits_phase_flow_and_resource_events() {
        let (log, dur) = one_flow_log();
        let mut rec = Recorder::new();
        rec.absorb_phase("write", &log, &[], dur);
        assert_eq!(rec.clock(), dur);
        let t = rec.tracer();
        assert_eq!(t.by_category(&EventCategory::Phase).count(), 1);
        assert_eq!(t.by_category(&EventCategory::Flow).count(), 1);
        assert_eq!(t.by_category(&EventCategory::Resource).count(), 1);
        let res = t.by_category(&EventCategory::Resource).next().unwrap();
        assert_eq!(res.pid, RESOURCE_PID);
        // 100 B/s for 10 s: the epoch moved all 1000 bytes.
        assert!((res.bytes.unwrap() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn successive_phases_stack_on_the_clock() {
        let (log, dur) = one_flow_log();
        let mut rec = Recorder::new();
        rec.absorb_phase("a", &log, &[], dur);
        rec.record_compute("compute", 5.0);
        rec.absorb_phase("b", &log, &[], dur);
        assert!((rec.clock() - (2.0 * dur + 5.0)).abs() < 1e-9);
        let phases: Vec<f64> = rec
            .tracer()
            .by_category(&EventCategory::Phase)
            .map(|e| e.ts)
            .collect();
        assert_eq!(phases, vec![0.0, dur + 5.0]);
        assert_eq!(rec.timelines().len(), 2);
        assert_eq!(rec.timelines()[1].samples[0].0, dur + 5.0);
    }

    #[test]
    fn metrics_attribute_the_saturated_link() {
        let (log, dur) = one_flow_log();
        let mut rec = Recorder::new();
        rec.absorb_phase("a", &log, &[], dur);
        rec.record_compute("compute", 10.0);
        let m = rec.metrics_summary();
        assert!((m.span - 20.0).abs() < 1e-9);
        assert_eq!(m.resources.len(), 1);
        let r = &m.resources[0];
        assert!((r.busy_seconds - 10.0).abs() < 1e-9);
        assert!((r.busy_fraction - 0.5).abs() < 1e-9);
        assert!((r.mean_utilization - 1.0).abs() < 1e-9);
        assert_eq!(m.bottlenecks.len(), 1);
        assert_eq!(m.bottlenecks[0].name, "link");
        assert!((m.bottlenecks[0].seconds - 10.0).abs() < 1e-9);
        assert!((m.bottlenecks[0].share - 0.5).abs() < 1e-9);
    }

    #[test]
    fn chrome_json_round_trips_through_dftrace() {
        let (log, dur) = one_flow_log();
        let mut rec = Recorder::new();
        rec.absorb_phase("a", &log, &[], dur);
        let json = rec.to_chrome_json();
        let back = chrome::from_json(&json).unwrap();
        assert_eq!(back.len(), rec.tracer().len());
        assert_eq!(
            back.by_category(&EventCategory::Resource).count(),
            rec.tracer().by_category(&EventCategory::Resource).count()
        );
    }

    #[test]
    fn zero_span_timelines_report_zero_not_nan() {
        // No samples at all.
        let empty = UtilizationTimeline {
            name: "idle".into(),
            kind: None,
            samples: vec![],
            end: 0.0,
        };
        // Samples, but the window closes at (and before) its opening
        // instant — the degenerate shapes a zero-duration phase
        // produces.
        let collapsed = UtilizationTimeline {
            name: "collapsed".into(),
            kind: None,
            samples: vec![(5.0, 50.0, 100.0)],
            end: 5.0,
        };
        let inverted = UtilizationTimeline {
            name: "inverted".into(),
            kind: None,
            samples: vec![(5.0, 50.0, 100.0)],
            end: 4.0,
        };
        for tl in [&empty, &collapsed, &inverted] {
            assert_eq!(tl.span(), 0.0, "{}", tl.name);
            assert_eq!(tl.busy_seconds(), 0.0, "{}", tl.name);
            assert_eq!(tl.mean_utilization(), 0.0, "{}", tl.name);
            assert!(!tl.mean_utilization().is_nan(), "{}", tl.name);
        }
    }

    #[test]
    fn recorder_counts_epochs_and_flow_groups() {
        let (log, dur) = one_flow_log();
        let mut rec = Recorder::new();
        assert_eq!((rec.solver_epochs(), rec.flow_groups()), (0, 0));
        rec.absorb_phase("a", &log, &[], dur);
        assert_eq!(rec.solver_epochs(), log.samples.len() as u64);
        assert_eq!(rec.flow_groups(), 1);
        rec.absorb_phase("b", &log, &[], dur);
        assert_eq!(rec.solver_epochs(), 2 * log.samples.len() as u64);
        assert_eq!(rec.flow_groups(), 2);
    }

    #[test]
    fn absorb_recorder_matches_direct_absorption() {
        let (log, dur) = one_flow_log();
        // Direct: both phases into one recorder.
        let mut direct = Recorder::new();
        direct.absorb_phase("a", &log, &[], dur);
        direct.absorb_phase("b", &log, &[], dur);
        // Stacked: each phase into its own recorder, then absorbed.
        let mut stacked = Recorder::new();
        for label in ["a", "b"] {
            let mut point = Recorder::new();
            point.absorb_phase(label, &log, &[], dur);
            stacked.absorb_recorder(&point);
        }
        assert_eq!(stacked.to_chrome_json(), direct.to_chrome_json());
        assert_eq!(stacked.metrics_summary(), direct.metrics_summary());
        assert_eq!(stacked.clock(), direct.clock());
        assert_eq!(stacked.solver_epochs(), direct.solver_epochs());
        assert_eq!(stacked.flow_groups(), direct.flow_groups());
    }

    #[test]
    fn merge_events_shifts_onto_clock() {
        let mut rec = Recorder::new();
        rec.record_compute("warmup", 3.0);
        let mut app = Tracer::new();
        app.complete("read_sample", EventCategory::Read, 0, 0, 1.0, 2.0);
        rec.merge_events(&app);
        let e = rec
            .tracer()
            .by_category(&EventCategory::Read)
            .next()
            .unwrap();
        assert!((e.ts - 4.0).abs() < 1e-9);
    }
}
