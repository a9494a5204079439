//! Deck-native metrics: deterministic cross-repetition statistics and
//! the per-point observability bundle.
//!
//! The paper's conclusions are statistical claims over repetitions
//! ("who wins, by what factor, how consistently") backed by I/O-time
//! decomposition. This module carries both through the deck executor:
//!
//! * [`Stats`] — a deterministic accumulator over repetition
//!   observations. It stores the raw values, so `merge` is plain
//!   concatenation: `(a ⊕ b) ⊕ c` and `a ⊕ (b ⊕ c)` hold the same
//!   values in the same order and every derived figure (mean, stddev,
//!   percentiles) is bit-identical — the property that keeps
//!   [`DeckMetricsSummary`] stable across rayon worker counts.
//! * [`PointMetrics`] — one deck point's self-explanation: the
//!   workload's [`IoDecomposition`], perceived vs. system throughput,
//!   time-weighted bottleneck shares (the PR-2
//!   [`MetricsSummary`](crate::telemetry::MetricsSummary) attribution)
//!   and sim-engine counters (flow-solver rate epochs, flow groups,
//!   wall clock).
//! * [`DeckMetricsSummary`] / [`SystemMetrics`] — per-system roll-ups
//!   plus winner/factor/crossover extraction across a deck's sweep.
//!
//! Everything here is pure data + arithmetic: collection happens in the
//! deck executor (`hcs-experiments`), behind the existing recorder
//! hooks, so an un-metered run pays nothing.

use hcs_dftrace::IoDecomposition;
use serde::{Deserialize, Serialize};

use crate::telemetry::BottleneckShare;

/// Deterministic statistics accumulator over repetition observations.
///
/// Values are kept in insertion order; [`Stats::merge`] appends, so the
/// merged value sequence — and therefore every derived statistic — is
/// independent of how the observations were grouped before merging.
/// Repetition counts are small (the paper runs 10 reps), so storing the
/// sample is cheaper than defending a streaming accumulator's
/// determinism.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Stats {
    values: Vec<f64>,
}

impl Stats {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// An accumulator seeded with `values` (kept in the given order).
    pub fn from_values(values: Vec<f64>) -> Self {
        Stats { values }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.values.push(x);
    }

    /// Merges another accumulator into this one by concatenation —
    /// associative and order-stable at the bit level.
    pub fn merge(&mut self, other: &Stats) {
        self.values.extend_from_slice(&other.values);
    }

    /// The raw observations, in insertion order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// True when no observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Sample mean (0 when empty), summed in insertion order.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Population standard deviation (0 with fewer than 2 values).
    pub fn std_dev(&self) -> f64 {
        if self.values.len() < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let var = self
            .values
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f64>()
            / self.values.len() as f64;
        var.sqrt()
    }

    /// Coefficient of variation (std/|mean|; 0 when the mean is 0).
    pub fn cv(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.std_dev() / m.abs()
        }
    }

    /// Smallest observation (0 when empty — infinities would not
    /// round-trip through JSON).
    pub fn min(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Percentile of the sample, `p` in `[0, 100]` (0 when empty).
    ///
    /// This doc comment is the suite's single statement of its quantile
    /// conventions:
    ///
    /// * **`n == 1`** — the lone sample *is* every quantile: p50, p95
    ///   and p999 all return it directly, with no interpolation
    ///   branching (the nearest — indeed only — rank).
    /// * **`n > 1`** — the fractional rank `p/100 · (n−1)` is linearly
    ///   interpolated between its two nearest order statistics (the
    ///   type-7 / NumPy-default estimator).
    /// * **[`LatencyHistogram`]** answers the same queries bucketwise:
    ///   nearest-rank over cumulative integer bucket counts, reporting
    ///   the matched bucket's upper edge (a conservative tail bound).
    ///
    /// Delegates to the suite's one shared percentile kernel
    /// ([`hcs_simkit::stats::percentile`]), so this layer and the
    /// simkit [`Summary`](hcs_simkit::Summary) are bit-identical by
    /// construction.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        hcs_simkit::stats::percentile(&self.values, p)
    }

    /// Median (p50).
    pub fn p50(&self) -> f64 {
        self.percentile(50.0)
    }

    /// 95th percentile.
    pub fn p95(&self) -> f64 {
        self.percentile(95.0)
    }

    /// All derived statistics as one serializable record.
    pub fn summary(&self) -> StatsSummary {
        StatsSummary {
            count: self.count(),
            mean: self.mean(),
            std_dev: self.std_dev(),
            cv: self.cv(),
            min: self.min(),
            max: self.max(),
            p50: self.p50(),
            p95: self.p95(),
        }
    }
}

/// The derived statistics of a [`Stats`] sample.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StatsSummary {
    /// Number of observations.
    pub count: usize,
    /// Sample mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Coefficient of variation (std/|mean|).
    pub cv: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (linear interpolation).
    pub p50: f64,
    /// 95th percentile (linear interpolation).
    pub p95: f64,
}

/// Number of sub-buckets per power-of-two decade (HDR-style layout
/// with 5 significant bits: ≤ 1/32 ≈ 3.1 % relative bucket width).
const SUB_BITS: u32 = 5;
const SUB_BUCKETS: u64 = 1 << SUB_BITS;

/// Log-bucketed fixed-point latency histogram with exact integer
/// counts (HDR-histogram style).
///
/// Latencies are quantized to **1 µs ticks** and bucketed with
/// [`SUB_BITS`] significant bits: ticks below 32 land in exact
/// width-1 buckets; above that, each power-of-two decade is split into
/// 32 sub-buckets, bounding relative bucket width by 1/32. Counts are
/// exact `u64` integers in a sparse sorted map, so [`merge`] is
/// bucketwise integer addition — associative, commutative and
/// bit-identical regardless of how recordings were grouped across
/// rayon workers. Quantile queries use nearest-rank over cumulative
/// counts and report the matched bucket's **upper edge** (see
/// [`Stats::percentile`] for the suite's quantile conventions).
///
/// [`merge`]: LatencyHistogram::merge
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    /// Sparse bucket-index → count map (sorted, so serialization and
    /// iteration order are canonical).
    counts: std::collections::BTreeMap<u32, u64>,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn ticks_of(seconds: f64) -> u64 {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "latency must be finite and non-negative: {seconds}"
        );
        (seconds * 1e6).round() as u64
    }

    fn bucket_index(ticks: u64) -> u32 {
        if ticks < SUB_BUCKETS {
            ticks as u32
        } else {
            let msb = 63 - ticks.leading_zeros();
            let decade = msb - SUB_BITS;
            let offset = ((ticks >> decade) - SUB_BUCKETS) as u32;
            (decade + 1) * SUB_BUCKETS as u32 + offset
        }
    }

    fn bucket_upper_ticks(index: u32) -> u64 {
        if u64::from(index) < SUB_BUCKETS {
            u64::from(index)
        } else {
            let decade = index / SUB_BUCKETS as u32 - 1;
            let offset = u64::from(index % SUB_BUCKETS as u32);
            let lower = (SUB_BUCKETS + offset) << decade;
            lower + ((1u64 << decade) - 1)
        }
    }

    /// Records one observation of `seconds`.
    ///
    /// # Panics
    /// Panics if `seconds` is negative or non-finite.
    pub fn record(&mut self, seconds: f64) {
        self.record_n(seconds, 1);
    }

    /// Records `n` identical observations of `seconds` — the
    /// aggregation path's primitive: an equivalence class of `m`
    /// members records its member-equivalent latency with count `m`,
    /// which is bit-identical to `m` separate [`record`] calls.
    ///
    /// [`record`]: LatencyHistogram::record
    pub fn record_n(&mut self, seconds: f64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = Self::bucket_index(Self::ticks_of(seconds));
        *self.counts.entry(idx).or_insert(0) += n;
    }

    /// Merges `other` into `self` by bucketwise integer addition —
    /// associative, commutative and order-stable at the bit level.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (idx, n) in &other.counts {
            *self.counts.entry(*idx).or_insert(0) += n;
        }
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.counts.values().sum()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Nearest-rank percentile in seconds, `p` in `[0, 100]`: the upper
    /// edge of the bucket holding the `ceil(p/100 · count)`-th smallest
    /// observation (at least the 1st). `None` when the histogram is
    /// empty — an empty histogram has no quantiles, and the former
    /// 0-edge answer read as "an observation at zero latency".
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((p / 100.0 * total as f64).ceil() as u64).clamp(1, total);
        let mut cumulative = 0u64;
        for (idx, n) in &self.counts {
            cumulative += n;
            if cumulative >= rank {
                return Some(Self::bucket_upper_ticks(*idx) as f64 / 1e6);
            }
        }
        unreachable!("rank {rank} not reached with total {total}");
    }

    /// Median (p50), seconds (`None` when empty).
    pub fn p50(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// 95th percentile, seconds (`None` when empty).
    pub fn p95(&self) -> Option<f64> {
        self.percentile(95.0)
    }

    /// 99th percentile, seconds (`None` when empty).
    pub fn p99(&self) -> Option<f64> {
        self.percentile(99.0)
    }

    /// 99.9th percentile, seconds (`None` when empty).
    pub fn p999(&self) -> Option<f64> {
        self.percentile(99.9)
    }
}

/// Per-op-class, size-bucketed latency: one histogram for one
/// `(op class, transfer size)` combination of an open-loop point.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OpLatency {
    /// Operation class label ("write", "read").
    pub op: String,
    /// Transfer size bucket, bytes per operation.
    pub size_bytes: u64,
    /// Submit→finish latency histogram for this class (queueing
    /// included when admission was deferred).
    pub histogram: LatencyHistogram,
}

/// One stage's (resource's) slice of a point's latency blame.
///
/// Part of [`ProvenanceMetrics`]; all seconds and counts are weighted
/// by each op's expanded-equivalent group count, so aggregated runs
/// report the same totals as expanded ones.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StageBlame {
    /// Resource (stage) name as registered in the flow network.
    pub resource: String,
    /// Contention seconds charged to this resource across all ops.
    pub blame_seconds: f64,
    /// Ops whose *dominant* blame component is this resource.
    pub ops_blamed: u64,
    /// Contention seconds charged to this resource by tail ops (ops
    /// whose latency exceeded [`ProvenanceMetrics::tail_threshold`]).
    pub tail_blame_seconds: f64,
    /// Submit→finish latency histogram of the ops dominated by this
    /// resource — the blame-conditioned histogram; merges bucketwise
    /// like every [`LatencyHistogram`].
    pub histogram: LatencyHistogram,
}

/// A point's aggregate latency provenance: where its ops' time went.
///
/// Built from the per-op exact decompositions the simkit provenance
/// probe records (queueing + stall + per-resource blame + ideal, the
/// shares summing bitwise to each op's measured latency) by weighted
/// summation in completion order — deterministic, so provenance
/// metrics are bit-identical across rayon worker counts.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProvenanceMetrics {
    /// Ops decomposed (expanded-equivalent count).
    pub ops: u64,
    /// Total measured submit→finish latency, seconds.
    pub latency_seconds: f64,
    /// Total submit→admission queueing delay, seconds.
    pub queueing_seconds: f64,
    /// Total rate-zero (fault stall) time, seconds.
    pub stall_seconds: f64,
    /// Total contention blame across all stages, seconds.
    pub blame_seconds: f64,
    /// Total ideal service time (ops running at full demand), seconds.
    pub ideal_seconds: f64,
    /// Per-stage blame breakdown, descending by blame seconds (ties
    /// alphabetically).
    pub stages: Vec<StageBlame>,
    /// Latency threshold classifying tail ops, seconds — the point's
    /// open-loop histogram p99.
    pub tail_threshold: f64,
    /// Ops above the threshold at the histogram's microsecond tick
    /// resolution (expanded-equivalent count).
    pub tail_ops: u64,
    /// Tail ops' queueing delay, seconds.
    pub tail_queueing_seconds: f64,
    /// Tail ops' stall time, seconds.
    pub tail_stall_seconds: f64,
    /// Tail ops' ideal service time, seconds.
    pub tail_ideal_seconds: f64,
}

impl ProvenanceMetrics {
    /// Aggregates a probe's per-op decompositions into the point-level
    /// record. `tail_threshold` (seconds) classifies tail ops — the
    /// caller passes the point's open-loop histogram p99. Every op is
    /// weighted by its expanded-equivalent group count; summation runs
    /// in completion order, so the result is deterministic.
    pub fn from_log(log: &hcs_simkit::ProvenanceLog, tail_threshold: f64) -> Self {
        struct Acc {
            blame_seconds: f64,
            ops_blamed: u64,
            tail_blame_seconds: f64,
            histogram: LatencyHistogram,
        }
        let mut out = ProvenanceMetrics {
            ops: 0,
            latency_seconds: 0.0,
            queueing_seconds: 0.0,
            stall_seconds: 0.0,
            blame_seconds: 0.0,
            ideal_seconds: 0.0,
            stages: Vec::new(),
            tail_threshold,
            tail_ops: 0,
            tail_queueing_seconds: 0.0,
            tail_stall_seconds: 0.0,
            tail_ideal_seconds: 0.0,
        };
        let mut stages: std::collections::BTreeMap<u32, Acc> = std::collections::BTreeMap::new();
        for op in &log.ops {
            let wn = op.groups as u64;
            let w = op.groups as f64;
            out.ops += wn;
            out.latency_seconds += w * op.latency;
            out.queueing_seconds += w * op.queueing;
            out.stall_seconds += w * op.stall;
            out.ideal_seconds += w * op.ideal;
            // Classify at the histogram's own tick resolution:
            // recorded latencies are rounded to the nearest
            // microsecond and the threshold is a bucket upper edge,
            // so comparing raw seconds would sweep a whole bucket of
            // ops into the tail whenever their sub-tick remainder
            // peeked past the edge.
            let is_tail =
                LatencyHistogram::ticks_of(op.latency) > LatencyHistogram::ticks_of(tail_threshold);
            if is_tail {
                out.tail_ops += wn;
                out.tail_queueing_seconds += w * op.queueing;
                out.tail_stall_seconds += w * op.stall;
                out.tail_ideal_seconds += w * op.ideal;
            }
            let mut dominant: Option<(u32, f64)> = None;
            for &(r, s) in &op.blame {
                out.blame_seconds += w * s;
                let e = stages.entry(r).or_insert_with(|| Acc {
                    blame_seconds: 0.0,
                    ops_blamed: 0,
                    tail_blame_seconds: 0.0,
                    histogram: LatencyHistogram::new(),
                });
                e.blame_seconds += w * s;
                if is_tail {
                    e.tail_blame_seconds += w * s;
                }
                // Blame entries are in ascending resource order, so a
                // strict `>` deterministically ties to the lowest index.
                if dominant.is_none_or(|(_, best)| s > best) {
                    dominant = Some((r, s));
                }
            }
            if let Some((r, _)) = dominant {
                let e = stages.get_mut(&r).expect("dominant stage accumulated");
                e.ops_blamed += wn;
                e.histogram.record_n(op.latency, wn);
            }
        }
        out.stages = stages
            .into_iter()
            .map(|(r, a)| StageBlame {
                resource: log
                    .resources
                    .get(r as usize)
                    .map(|(name, _)| name.clone())
                    .unwrap_or_else(|| format!("resource-{r}")),
                blame_seconds: a.blame_seconds,
                ops_blamed: a.ops_blamed,
                tail_blame_seconds: a.tail_blame_seconds,
                histogram: a.histogram,
            })
            .collect();
        out.stages.sort_by(|a, b| {
            b.blame_seconds
                .total_cmp(&a.blame_seconds)
                .then_with(|| a.resource.cmp(&b.resource))
        });
        out
    }

    /// Merges another point's provenance into this one: component
    /// seconds add, stages merge by resource name (histograms
    /// bucketwise), and tail tallies add — each op stays classified
    /// against its own point's threshold, of which the merged record
    /// keeps the largest. Deterministic regardless of merge grouping.
    pub fn merge(&mut self, other: &ProvenanceMetrics) {
        self.ops += other.ops;
        self.latency_seconds += other.latency_seconds;
        self.queueing_seconds += other.queueing_seconds;
        self.stall_seconds += other.stall_seconds;
        self.blame_seconds += other.blame_seconds;
        self.ideal_seconds += other.ideal_seconds;
        self.tail_threshold = self.tail_threshold.max(other.tail_threshold);
        self.tail_ops += other.tail_ops;
        self.tail_queueing_seconds += other.tail_queueing_seconds;
        self.tail_stall_seconds += other.tail_stall_seconds;
        self.tail_ideal_seconds += other.tail_ideal_seconds;
        for s in &other.stages {
            match self.stages.iter_mut().find(|m| m.resource == s.resource) {
                Some(m) => {
                    m.blame_seconds += s.blame_seconds;
                    m.ops_blamed += s.ops_blamed;
                    m.tail_blame_seconds += s.tail_blame_seconds;
                    m.histogram.merge(&s.histogram);
                }
                None => self.stages.push(s.clone()),
            }
        }
        self.stages.sort_by(|a, b| {
            b.blame_seconds
                .total_cmp(&a.blame_seconds)
                .then_with(|| a.resource.cmp(&b.resource))
        });
    }

    /// The blame share of each stage among tail ops: `(resource, tail
    /// blame seconds)` for stages that touched the tail, descending.
    pub fn tail_stages(&self) -> Vec<(&str, f64)> {
        let mut out: Vec<(&str, f64)> = self
            .stages
            .iter()
            .filter(|s| s.tail_blame_seconds > 0.0)
            .map(|s| (s.resource.as_str(), s.tail_blame_seconds))
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        out
    }
}

/// One deck point's observability bundle: decomposition, throughputs,
/// bottleneck attribution, cross-rep spread and sim-engine counters.
///
/// Collected only when metrics are requested (`hcs run --metrics`);
/// serialized with `skip_serializing_if` on the owning
/// `PointResult`, so result artifacts without metrics stay
/// byte-compatible.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PointMetrics {
    /// I/O-time decomposition of the point's (noise-free base) run —
    /// exact interval arithmetic for DLIO/replay (`hcs-dftrace`
    /// decompose), phase-level accounting for IOR/MDTest/job.
    pub decomposition: IoDecomposition,
    /// Seconds spent in read-side I/O phases.
    pub read_seconds: f64,
    /// Seconds spent in write-side I/O phases (checkpoints, creates,
    /// unlinks count as writes).
    pub write_seconds: f64,
    /// Application-perceived throughput (work over `|C| + |R \ C|`).
    pub perceived_throughput: f64,
    /// Storage-side throughput (work over `|R|`).
    pub system_throughput: f64,
    /// Unit of the two throughputs ("B/s", "samples/s", "ops/s").
    pub throughput_unit: String,
    /// The point's headline observable (mean over reps), in the units
    /// the workload family reports (bytes/s, samples/s, ops/s or
    /// seconds).
    pub headline_value: f64,
    /// Unit of [`Self::headline_value`] ("B/s", "samples/s", "ops/s",
    /// "s") — differs from [`Self::throughput_unit`] for families whose
    /// headline is a wall time.
    pub headline_unit: String,
    /// Whether a larger [`Self::headline_value`] is better (bandwidth
    /// and throughput: yes; job/replay wall time: no).
    pub higher_is_better: bool,
    /// Raw per-repetition headline observations, where the workload
    /// retains them (IOR keeps per-rep bandwidths; single-shot families
    /// hold one value).
    pub rep_values: Stats,
    /// Cross-repetition coefficient of variation of the headline (from
    /// raw reps where available, from the workload's own summary
    /// otherwise).
    pub rep_cv: f64,
    /// Time-weighted bottleneck shares, descending by seconds (the
    /// telemetry layer's attribution for this point's run).
    pub bottlenecks: Vec<BottleneckShare>,
    /// Flow-solver rate epochs the point's run triggered.
    pub solver_epochs: u64,
    /// Flow groups the point's run placed into the network.
    pub flow_groups: u64,
    /// Host wall-clock seconds spent executing the point. The only
    /// non-deterministic field — excluded from reports and from
    /// [`DeckMetricsSummary`] aggregation.
    pub wall_clock_seconds: f64,
    /// Resilience under the scenario's fault schedule, measured against
    /// a fault-free twin run. Present only for fault-injected points;
    /// skipped from serialization otherwise, so fault-free artifacts
    /// stay byte-compatible.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub resilience: Option<ResilienceMetrics>,
    /// Per-op-class latency histograms. Present only for open-loop
    /// points; skipped from serialization otherwise, so closed-loop
    /// artifacts stay byte-compatible.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub latency: Vec<OpLatency>,
    /// Per-resource latency-blame attribution (opt-in `hcs run
    /// --provenance`). Present only for provenance-enabled open-loop
    /// points; skipped from serialization otherwise, so existing
    /// artifacts stay byte-compatible.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub provenance: Option<ProvenanceMetrics>,
}

/// How a fault-injected point degraded relative to its fault-free twin.
///
/// All durations are noise-free base-run times in simulated seconds;
/// the twin is the same scenario executed without its fault schedule,
/// so the comparison is exact (common seeds, common graph).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResilienceMetrics {
    /// Faulted duration over fault-free duration (≥ 1 for pure
    /// capacity-loss faults; jitter can land marginally below 1).
    pub slowdown_factor: f64,
    /// Base-run duration of the fault-free twin, seconds.
    pub fault_free_seconds: f64,
    /// Base-run duration under the fault schedule, seconds.
    pub faulted_seconds: f64,
    /// Seconds during which every in-flight flow sat at rate zero
    /// waiting for a scheduled recovery (the stall window the
    /// utilization timeline shows at zero).
    pub stall_seconds: f64,
    /// Time-to-drain: seconds from the last applied fault event (the
    /// recovery instant) to the end of the run.
    pub drain_seconds: f64,
    /// Number of capacity events the schedule applied before the run
    /// completed.
    pub fault_events: usize,
}

/// Per-system cross-rep roll-up inside a [`DeckMetricsSummary`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SystemMetrics {
    /// System display label (one `by_system` group).
    pub system: String,
    /// Number of deck points in the group.
    pub points: usize,
    /// Per-point headline values, in sweep order.
    pub headline: Stats,
    /// Per-point cross-rep CVs, in sweep order.
    pub rep_cv: Stats,
    /// The resource that accumulated the most bottleneck seconds across
    /// the group's points, as "stage-label resource-name".
    pub top_bottleneck: Option<String>,
}

/// Deck-level verdict: per-system statistics plus winner / factor /
/// crossover extraction over the sweep.
///
/// Built from deterministic per-point fields only (never wall clock),
/// so it is bit-identical across rayon worker counts.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DeckMetricsSummary {
    /// Unit of the headline values being compared.
    pub unit: String,
    /// Whether larger headline values win.
    pub higher_is_better: bool,
    /// One roll-up per `by_system` group, in sweep order.
    pub systems: Vec<SystemMetrics>,
    /// The system with the best mean headline (`None` for an empty
    /// deck).
    pub winner: Option<String>,
    /// Mean-headline advantage of the winner over the runner-up
    /// (always ≥ 1; exactly 1 with a single system).
    pub factor: f64,
    /// Sweep positions where the per-point winner changes, as
    /// "loser -> winner at point-name" descriptions (empty without a
    /// multi-system aligned sweep).
    pub crossovers: Vec<String>,
    /// Per-system throughput–latency knee verdicts (empty unless the
    /// deck swept offered load with latency recording; skipped from
    /// serialization then, so closed-loop artifacts stay
    /// byte-compatible).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub knees: Vec<KneeVerdict>,
}

/// Where (if anywhere) a system's tail latency leaves its low-load
/// regime across an offered-load sweep.
///
/// The knee is the first sweep point whose merged p99 exceeds
/// `threshold ×` the first (lowest-load) point's p99 — the classic
/// throughput–latency saturation diagnostic.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct KneeVerdict {
    /// System display label (one `by_system` group).
    pub system: String,
    /// Multiplier `k` applied to the baseline p99.
    pub threshold: f64,
    /// p99 at the first (lowest-load) sweep point, seconds.
    pub baseline_p99: f64,
    /// Offered load of the baseline point, operations per second.
    pub baseline_rate: f64,
    /// Offered load at the knee (`None` when p99 never exceeded the
    /// threshold inside the sweep — the system never saturated).
    pub knee_rate: Option<f64>,
    /// Deck point name at the knee.
    pub knee_point: Option<String>,
    /// p99 at the knee, seconds.
    pub knee_p99: Option<f64>,
    /// The stage (resource) whose share of per-op latency blame grew
    /// most between the baseline point and the knee point — what the
    /// system saturated *on*. Present only when both points carried
    /// provenance metrics; skipped from serialization otherwise, so
    /// provenance-off artifacts stay byte-compatible.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub knee_blame: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_match_reference_values() {
        let s = Stats::from_values(vec![2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert!((s.cv() - 0.4).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.p50() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn percentiles_are_bit_identical_to_the_simkit_kernel() {
        // Both layers must answer percentile queries through the one
        // shared kernel — pinned by comparing raw bit patterns, not
        // approximate values, across unsorted and duplicated samples.
        let fixtures: [&[f64]; 4] = [
            &[3.0, 1.0, 2.0],
            &[9.0, 2.0, 4.0, 4.0, 5.0, 7.0, 5.0, 4.0],
            &[0.1],
            &[1e9, 1e-9, 5.5, 5.5, -3.25, 1e9],
        ];
        for values in fixtures {
            let stats = Stats::from_values(values.to_vec());
            let mut sorted = values.to_vec();
            sorted.sort_by(|a, b| a.total_cmp(b));
            for p in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
                let ours = stats.percentile(p);
                let kernel = hcs_simkit::stats::percentile(values, p);
                let sorted_kernel = hcs_simkit::stats::percentile_sorted(&sorted, p);
                assert_eq!(ours.to_bits(), kernel.to_bits(), "p={p} {values:?}");
                assert_eq!(ours.to_bits(), sorted_kernel.to_bits(), "p={p} {values:?}");
            }
        }
    }

    #[test]
    fn empty_stats_are_all_zero() {
        let s = Stats::new();
        for v in [
            s.mean(),
            s.std_dev(),
            s.cv(),
            s.min(),
            s.max(),
            s.p50(),
            s.p95(),
        ] {
            assert_eq!(v, 0.0);
        }
        assert!(s.is_empty());
    }

    #[test]
    fn merge_is_concatenation() {
        let mut a = Stats::from_values(vec![1.0, 2.0]);
        let b = Stats::from_values(vec![3.0]);
        let c = Stats::from_values(vec![4.0, 5.0]);
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut right_tail = b.clone();
        right_tail.merge(&c);
        a.merge(&right_tail);
        assert_eq!(left, a);
        assert_eq!(left.values(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn percentiles_interpolate() {
        let s = Stats::from_values(vec![10.0, 20.0, 30.0, 40.0]);
        assert!((s.percentile(50.0) - 25.0).abs() < 1e-12);
        assert!((s.percentile(100.0) - 40.0).abs() < 1e-12);
        assert!((s.percentile(0.0) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        // Pin the n=1 convention: the lone sample is returned for every
        // quantile, bit for bit — p50 == p95 == p999.
        let s = Stats::from_values(vec![42.5]);
        for p in [0.0, 50.0, 95.0, 99.9, 100.0] {
            assert_eq!(s.percentile(p).to_bits(), 42.5f64.to_bits(), "p={p}");
        }
    }

    #[test]
    fn histogram_small_ticks_are_exact() {
        let mut h = LatencyHistogram::new();
        for us in [0, 1, 17, 31] {
            h.record(us as f64 / 1e6);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.percentile(0.0), Some(0.0));
        assert_eq!(h.percentile(100.0), Some(31.0 / 1e6));
        // Sub-32-tick buckets have width 1: values round-trip exactly.
        let mut one = LatencyHistogram::new();
        one.record(17e-6);
        assert_eq!(one.p50(), Some(17e-6));
        assert_eq!(one.p50(), one.p999());
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        // An empty histogram must answer None, never a 0-second edge
        // that reads as a real zero-latency observation.
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        for p in [0.0, 50.0, 95.0, 99.0, 99.9, 100.0] {
            assert_eq!(h.percentile(p), None, "p={p}");
        }
        assert_eq!(h.p50(), None);
        assert_eq!(h.p95(), None);
        assert_eq!(h.p99(), None);
        assert_eq!(h.p999(), None);
    }

    #[test]
    fn histogram_bucket_width_is_bounded() {
        // Above 32 ticks the reported upper edge exceeds the recorded
        // value by at most one bucket width (1/32 relative).
        for seconds in [33e-6, 1e-3, 0.0427, 1.5, 97.3] {
            let mut h = LatencyHistogram::new();
            h.record(seconds);
            let got = h.p50().expect("non-empty");
            assert!(got >= seconds - 1e-6, "{seconds} -> {got}");
            assert!(
                got <= seconds * (1.0 + 1.0 / 32.0) + 1e-6,
                "{seconds} -> {got}"
            );
        }
    }

    #[test]
    fn histogram_merge_is_bucketwise_addition() {
        let mut a = LatencyHistogram::new();
        a.record(5e-6);
        a.record(1e-3);
        let mut b = LatencyHistogram::new();
        b.record(5e-6);
        b.record_n(2.0, 3);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge commutes");
        assert_eq!(ab.count(), 6);
        // record_n(x, m) ≡ m × record(x).
        let mut c = LatencyHistogram::new();
        for _ in 0..3 {
            c.record(2.0);
        }
        let mut d = LatencyHistogram::new();
        d.record_n(2.0, 3);
        assert_eq!(c, d);
    }

    #[test]
    fn histogram_percentiles_walk_the_tail() {
        let mut h = LatencyHistogram::new();
        h.record_n(1e-3, 99);
        h.record_n(1.0, 1);
        assert!(h.p50().unwrap() < 2e-3);
        assert!(h.p95().unwrap() < 2e-3);
        assert!(h.percentile(100.0).unwrap() >= 1.0);
        // The single 1 s outlier is exactly the 100th of 100 ranks, so
        // p99 still lands on the 99th (fast) observation.
        assert!(h.p99().unwrap() < 2e-3);
    }

    #[test]
    fn histogram_serde_round_trip() {
        let mut h = LatencyHistogram::new();
        h.record(3.7e-4);
        h.record_n(0.25, 7);
        let json = serde_json::to_string(&h).unwrap();
        let back: LatencyHistogram = serde_json::from_str(&json).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn summary_serde_round_trip() {
        let s = Stats::from_values(vec![1.5, 2.5, 3.5]);
        let json = serde_json::to_string(&s).unwrap();
        let back: Stats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.summary(), s.summary());
    }
}
