//! The scenario IR: every workload, sweep and figure as declarative,
//! executable data.
//!
//! The paper is a measurement *campaign* — a cross-product of
//! {storage system × workload class × scale × repetitions} (§V–§VI).
//! PR 1 made deployments data ([`crate::graph::DeploymentGraph`]); this
//! module makes *experiments* data, the same move one layer up:
//!
//! * a [`Workload`] is any of the suite's five benchmark families with
//!   its full parameter set ([`IorConfig`], [`DlioConfig`],
//!   [`MdtestConfig`], [`crate::campaign::JobScript`],
//!   [`ReplayConfig`]);
//! * a [`Scenario`] binds a workload to a *named* storage deployment
//!   (resolved through the executor's system registry), an optional
//!   list of [`GraphEdit`]s (the serializable counterparts of PR 1's
//!   graph mutators), and optional scale overrides;
//! * a [`Deck`] is a scenario plus declarative [`SweepAxes`]
//!   (systems, node counts, processes per node, transfer sizes, edit
//!   sets) that [`Deck::expand`]s into a deterministic, duplicate-free
//!   list of scenario points.
//!
//! Everything here is plain serde-round-trippable data — the executor
//! (`hcs_experiments::deck::run_deck`) lives next to the storage
//! backends it must construct. Decks are the repo's equivalent of the
//! declarative campaign records log-analysis studies of production
//! storage operate on.

use serde::{Deserialize, Serialize};

use crate::campaign::{JobScript, JobStep};
use crate::graph::{
    filter_ranges, resource_of_stage, DeploymentGraph, Stage, StageKind, StageScope,
};
use hcs_netsim::TransportSpec;

pub mod dlio;
pub mod ior;
pub mod mdtest;
pub mod replay;

pub use dlio::{DlioConfig, Scaling};
pub use ior::{IorConfig, WorkloadClass};
pub use mdtest::MdtestConfig;
pub use replay::ReplayConfig;

/// Experiment scale: full paper geometry or a fast smoke variant for
/// tests and CI.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Paper geometry: 3,000 segments, 10 repetitions, full node lists.
    Paper,
    /// Reduced geometry: same shapes, minutes → seconds.
    Smoke,
    /// Datacenter geometry: open-ended node sweeps into the 10^5–10^7
    /// client range, runnable only because the planner compiles node
    /// equivalence classes instead of per-node resources.
    Datacenter,
}

impl Scale {
    /// Parses a CLI-style scale name.
    pub fn parse(name: &str) -> Option<Scale> {
        match name {
            "paper" | "full" => Some(Scale::Paper),
            "smoke" | "ci" => Some(Scale::Smoke),
            "datacenter" | "dc" => Some(Scale::Datacenter),
            _ => None,
        }
    }

    /// The CLI-facing name.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Smoke => "smoke",
            Scale::Datacenter => "datacenter",
        }
    }

    /// IOR repetitions at this scale.
    pub fn reps(self) -> u32 {
        match self {
            Scale::Paper => 10,
            Scale::Smoke | Scale::Datacenter => 2,
        }
    }

    /// Node counts for the Lassen scalability sweep (full nodes,
    /// 44 ppn, up to 128 nodes — §V).
    pub fn lassen_nodes(self) -> Vec<u32> {
        match self {
            Scale::Paper => vec![1, 2, 4, 8, 16, 32, 64, 128],
            Scale::Smoke => vec![1, 4, 16, 64],
            Scale::Datacenter => vec![1_000, 10_000, 100_000, 1_000_000],
        }
    }

    /// Node counts for the Wombat scalability sweep (all 8 nodes,
    /// 48 ppn — §V).
    pub fn wombat_nodes(self) -> Vec<u32> {
        match self {
            Scale::Paper => vec![1, 2, 4, 8],
            Scale::Smoke => vec![1, 2, 4, 8],
            Scale::Datacenter => vec![1_000, 10_000, 100_000],
        }
    }

    /// Process counts for the single-node tests (§V: "scale the number
    /// of processes to 32").
    pub fn single_node_procs(self) -> Vec<u32> {
        match self {
            Scale::Paper => vec![1, 2, 4, 8, 16, 32],
            Scale::Smoke | Scale::Datacenter => vec![1, 4, 16, 32],
        }
    }

    /// Node counts for the ResNet-50 weak-scaling test (§VI.B: "to 32").
    pub fn resnet_nodes(self) -> Vec<u32> {
        match self {
            Scale::Paper => vec![1, 2, 4, 8, 16, 32],
            Scale::Smoke | Scale::Datacenter => vec![1, 4],
        }
    }

    /// Node counts for the Cosmoflow strong-scaling test.
    pub fn cosmoflow_nodes(self) -> Vec<u32> {
        match self {
            Scale::Paper => vec![1, 2, 4, 8, 16],
            Scale::Smoke | Scale::Datacenter => vec![1, 4],
        }
    }

    /// DLIO sample count override (`None` = paper dataset).
    pub fn dlio_samples(self) -> Option<u64> {
        match self {
            Scale::Paper => None,
            Scale::Smoke | Scale::Datacenter => Some(96),
        }
    }
}

/// A serializable deployment-graph edit — the data counterpart of the
/// PR 1 mutators ([`DeploymentGraph::widen_gateway`],
/// [`DeploymentGraph::swap_transport`],
/// [`DeploymentGraph::scale_pool`]). A scenario carries a list of these
/// and the executor applies them to every plan the named system
/// produces, so the paper's what-if questions ship as JSON.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum GraphEdit {
    /// Re-shard every gateway stage to `count` parallel gateways.
    WidenGateway {
        /// Number of parallel gateway shards.
        count: u32,
    },
    /// Multiply the capacity of every stage of `kind` by `factor`.
    ScalePool {
        /// Which stage kind to scale.
        kind: StageKind,
        /// Multiplicative factor (must be positive and finite).
        factor: f64,
    },
    /// Retarget the capacity of the stages of `kind` to an absolute
    /// value (bytes/s for bandwidth stages, ops/s for ops-rate stages).
    SetPoolCapacity {
        /// Which stage kind to retarget.
        kind: StageKind,
        /// New raw capacity.
        capacity: f64,
    },
    /// Swap the client transport (mount capacity, per-stream ceiling
    /// and metadata latency follow the new spec).
    SwapTransport {
        /// The replacement transport.
        transport: TransportSpec,
        /// Client NIC bandwidth clipping the connection pool, bytes/s.
        client_nic_bw: f64,
    },
}

impl GraphEdit {
    /// Checks the edit's own fields, returning a one-line diagnostic on
    /// failure. What the edit does to a particular plan is the
    /// planner's to judge when it provisions.
    pub fn check(&self) -> Result<(), String> {
        let positive = |x: f64| x > 0.0 && x.is_finite();
        match self {
            GraphEdit::WidenGateway { count: 0 } => {
                Err("WidenGateway: count must be at least 1 (got 0)".into())
            }
            GraphEdit::ScalePool { kind, factor } if !positive(*factor) => Err(format!(
                "ScalePool {}: factor must be positive and finite (got {factor})",
                kind.label()
            )),
            GraphEdit::SetPoolCapacity { kind, capacity } if !positive(*capacity) => Err(format!(
                "SetPoolCapacity {}: capacity must be positive and finite (got {capacity})",
                kind.label()
            )),
            GraphEdit::SwapTransport {
                transport: t,
                client_nic_bw: nic,
            } => {
                let problem = if t.nconnect == 0 {
                    "nconnect must be at least 1"
                } else if !(*nic > 0.0 && t.per_stream_bw > 0.0) {
                    "client_nic_bw and per_stream_bw must be positive"
                } else if !positive(t.node_connection_bw(*nic)) {
                    "client_nic_bw and per_stream_bw cannot both be unbounded"
                } else if !(t.metadata_latency >= 0.0 && t.metadata_latency.is_finite()) {
                    "metadata_latency must be finite and non-negative"
                } else {
                    return Ok(());
                };
                Err(format!(
                    "SwapTransport: {problem} (got nconnect {}, client_nic_bw {nic}, \
                     per_stream_bw {}, metadata_latency {})",
                    t.nconnect, t.per_stream_bw, t.metadata_latency
                ))
            }
            _ => Ok(()),
        }
    }

    /// Applies the edit to a planned deployment graph. An edit of a
    /// stage kind the graph does not plan leaves it unchanged.
    ///
    /// # Panics
    /// Panics on an edit that fails [`GraphEdit::check`] (or leaves the
    /// graph for the planner to reject).
    pub fn apply(&self, graph: &mut DeploymentGraph) {
        match self {
            GraphEdit::WidenGateway { count } => graph.widen_gateway(*count),
            GraphEdit::ScalePool { kind, factor } => graph.scale_pool(*kind, *factor),
            GraphEdit::SetPoolCapacity { kind, capacity } => {
                if let Some(current) = graph.capacity_of(*kind) {
                    graph.scale_pool(*kind, capacity / current);
                }
            }
            GraphEdit::SwapTransport {
                transport,
                client_nic_bw,
            } => graph.swap_transport(transport, *client_nic_bw),
        }
    }
}

/// One of the suite's five benchmark families, with its full parameter
/// set — the payload of a [`Scenario`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Workload {
    /// The IOR-equivalent bandwidth benchmark.
    Ior(IorConfig),
    /// The DLIO-equivalent deep-learning I/O pipeline.
    Dlio(DlioConfig),
    /// The MDTest-equivalent metadata storm.
    Mdtest(MdtestConfig),
    /// A multi-step compute/I-O campaign.
    Job(JobScript),
    /// Trace-driven what-if replay.
    Replay(ReplayConfig),
}

impl Workload {
    /// Short family label ("ior", "dlio", ...).
    pub fn kind(&self) -> &'static str {
        match self {
            Workload::Ior(_) => "ior",
            Workload::Dlio(_) => "dlio",
            Workload::Mdtest(_) => "mdtest",
            Workload::Job(_) => "job",
            Workload::Replay(_) => "replay",
        }
    }

    /// Checks the embedded configuration, returning a one-line
    /// diagnostic on failure: every config's own `check`, every job
    /// step, and a replay's transfer-size override.
    pub fn check(&self) -> Result<(), String> {
        match self {
            Workload::Ior(c) => c.check(),
            Workload::Dlio(c) => c.check(),
            Workload::Mdtest(c) => c.check(),
            Workload::Job(j) if j.steps.is_empty() => Err("job has no steps".into()),
            Workload::Job(j) => j.steps.iter().try_for_each(|step| match step {
                JobStep::Compute { seconds } if !(*seconds >= 0.0 && seconds.is_finite()) => {
                    Err(format!(
                        "job compute step must last a finite, non-negative time (got {seconds})"
                    ))
                }
                JobStep::Compute { .. } => Ok(()),
                JobStep::Io { label, phase } => phase
                    .check()
                    .map_err(|e| format!("job step '{label}': {e}")),
            }),
            Workload::Replay(c) => match c.transfer_size {
                Some(ts) if !(ts > 0.0 && ts.is_finite()) => Err(format!(
                    "replay transfer size must be positive and finite (got {ts})"
                )),
                _ => Ok(()),
            },
        }
    }

    /// The family's row of the capability table — what its engine
    /// supports beyond a plain closed-loop run. Every executor decision
    /// on faults, open-loop arrivals, provenance and tracing reads it:
    ///
    /// | family | faults | open loop | provenance | tracing |
    /// |--------|--------|-----------|------------|---------|
    /// | IOR    | yes    | yes       | yes        | yes     |
    /// | DLIO   | no     | no        | no         | yes     |
    /// | MDTest | no     | no        | no         | no      |
    /// | job    | no     | no        | no         | yes     |
    /// | replay | no     | no        | no         | no      |
    pub fn capabilities(&self) -> Capabilities {
        let traced = Capabilities {
            faults: false,
            open_loop: false,
            provenance: false,
            tracing: true,
        };
        match self {
            Workload::Ior(_) => Capabilities {
                faults: true,
                open_loop: true,
                provenance: true,
                ..traced
            },
            Workload::Dlio(_) | Workload::Job(_) => traced,
            Workload::Mdtest(_) | Workload::Replay(_) => Capabilities {
                tracing: false,
                ..traced
            },
        }
    }

    /// `Ok` when the family's row has the capability `has` picks, else
    /// the diagnostic `"{what} the IOR family only (got {kind})"` —
    /// IOR is the only row with faults, open-loop arrivals or
    /// provenance.
    pub fn require(&self, has: fn(Capabilities) -> bool, what: &str) -> Result<(), String> {
        if has(self.capabilities()) {
            Ok(())
        } else {
            Err(format!("{what} the IOR family only (got {})", self.kind()))
        }
    }

    /// Sets the transfer size where the family has one (IOR also grows
    /// its block size to stay valid; metadata and job workloads are
    /// unaffected).
    pub fn set_transfer_size(&mut self, transfer_size: f64) {
        match self {
            Workload::Ior(c) => {
                c.transfer_size = transfer_size;
                if c.block_size < transfer_size {
                    c.block_size = transfer_size;
                }
            }
            Workload::Dlio(c) => c.transfer_size = transfer_size,
            Workload::Replay(c) => c.transfer_size = Some(transfer_size),
            Workload::Mdtest(_) | Workload::Job(_) => {}
        }
    }

    /// A size-reduced variant for fast runs (same shape, less data) —
    /// what `--scale smoke` applies to a scenario file.
    pub fn smoked(mut self) -> Self {
        match &mut self {
            Workload::Ior(c) => {
                c.segments = c.segments.min(64);
                c.reps = c.reps.min(3);
            }
            Workload::Dlio(c) => {
                c.samples = c.samples.min(64);
                c.epochs = c.epochs.min(2);
            }
            Workload::Mdtest(c) => {
                c.files_per_proc = c.files_per_proc.min(200);
                c.reps = c.reps.min(3);
            }
            Workload::Job(_) | Workload::Replay(_) => {}
        }
        self
    }
}

/// One row of the capability table ([`Workload::capabilities`]): what a
/// workload family's engine supports beyond a plain closed-loop run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Capabilities {
    /// Windowed fault injection ([`Scenario::faults`]).
    pub faults: bool,
    /// Open-loop arrivals ([`Arrival::Open`]).
    pub open_loop: bool,
    /// The per-op latency-provenance probe.
    pub provenance: bool,
    /// Flow and resource telemetry into a recorder (`--trace`,
    /// `--metrics`); an untraced family contributes only its result.
    pub tracing: bool,
}

/// What happens to a faulted stage inside its `[start, end)` window.
///
/// Serialized externally tagged like [`GraphEdit`]:
/// `"Outage"`, `{"Degrade": {"factor": 0.1}}`,
/// `{"Jitter": {"seed": 7, "amplitude": 0.5, "steps": 8}}`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Full outage: the stage's capacity drops to zero for the window.
    /// Flows through it stall (the engine waits — no panic) until the
    /// scheduled recovery at `end`.
    Outage,
    /// Partial degradation: capacity is scaled to `factor` times its
    /// provisioned value for the window.
    Degrade {
        /// Capacity multiplier in `(0, 1]` applied during the window.
        factor: f64,
    },
    /// Deterministic capacity flapping: the window is cut into `steps`
    /// equal slices, each scaled by a mean-one multiplicative jitter
    /// factor drawn from a stream split off `seed` (per-resource
    /// substreams, so sharded stages flap independently but
    /// reproducibly).
    Jitter {
        /// Seed of the jitter stream (independent of the workload's
        /// noise seed).
        seed: u64,
        /// Jitter amplitude: the sigma of the mean-one factor.
        amplitude: f64,
        /// Number of equal capacity slices in the window (≥ 1).
        steps: u32,
    },
}

/// A windowed fault against one deployment stage, as scenario IR.
///
/// The target is named the way bottlenecks are reported: by
/// [`StageKind`], optionally narrowed to a stage name. The executor
/// resolves the spec against the scenario's planned
/// [`DeploymentGraph`](crate::graph::DeploymentGraph) into concrete
/// timed capacity events (`hcs_simkit::FaultTimeline`); sharded and
/// per-node stages fan out to every member resource.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// The stage kind to fault (every matching stage is hit).
    pub stage: StageKind,
    /// Optional name filter: a planned stage name (e.g. `"gw-eth"`)
    /// for graphs with several stages of one kind, or a sharded or
    /// per-node stage's name plus a decimal index, which selects every
    /// member whose index starts with those digits (`"vast:mount12"`:
    /// nodes 12, 120–129, 1200–1299, …).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub name: Option<String>,
    /// Window start, simulated seconds from phase start.
    pub start: f64,
    /// Window end (recovery instant), simulated seconds. Capacity is
    /// restored to the provisioned value at `end`.
    pub end: f64,
    /// What happens during the window.
    pub fault: FaultKind,
}

impl FaultSpec {
    /// A full outage of every `stage`-kind stage over `[start, end)`.
    pub fn outage(stage: StageKind, start: f64, end: f64) -> Self {
        FaultSpec {
            stage,
            name: None,
            start,
            end,
            fault: FaultKind::Outage,
        }
    }

    /// A capacity degradation to `factor` over `[start, end)`.
    pub fn degrade(stage: StageKind, start: f64, end: f64, factor: f64) -> Self {
        FaultSpec {
            stage,
            name: None,
            start,
            end,
            fault: FaultKind::Degrade { factor },
        }
    }

    /// Narrows the spec to stages with this exact planned name.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Validates the window and the variant parameters, returning a
    /// one-line diagnostic on failure (the CLI prints it and exits 2).
    pub fn check(&self) -> Result<(), String> {
        if !(self.start.is_finite() && self.start >= 0.0) {
            return Err(format!(
                "fault on {} stage: start must be finite and >= 0 (got {})",
                self.stage.label(),
                self.start
            ));
        }
        if self.end == self.start {
            return Err(format!(
                "fault on {} stage: zero-length window [{}, {}) — end must be strictly after start",
                self.stage.label(),
                self.start,
                self.end
            ));
        }
        if !(self.end.is_finite() && self.end > self.start) {
            return Err(format!(
                "fault on {} stage: end must be finite and after start (got [{}, {}))",
                self.stage.label(),
                self.start,
                self.end
            ));
        }
        match self.fault {
            FaultKind::Outage => Ok(()),
            FaultKind::Degrade { factor } => {
                if factor.is_finite() && factor > 0.0 && factor < 1.0 {
                    Ok(())
                } else {
                    Err(format!(
                        "fault on {} stage: Degrade factor must be in (0, 1) (got {factor}; factor 1 is a no-op — drop the fault or pick a factor below 1)",
                        self.stage.label()
                    ))
                }
            }
            FaultKind::Jitter {
                amplitude, steps, ..
            } => {
                if !(amplitude.is_finite() && amplitude > 0.0 && amplitude < 1.0) {
                    Err(format!(
                        "fault on {} stage: Jitter amplitude must be in (0, 1) (got {amplitude})",
                        self.stage.label()
                    ))
                } else if steps == 0 {
                    Err(format!(
                        "fault on {} stage: Jitter needs at least one step",
                        self.stage.label()
                    ))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Whether the runner's resolution of this spec faults a resource
    /// that `stage` compiles to in a plan for `nodes` client nodes: the
    /// stage's kind, and a name filter that selects the stage's own
    /// name or a member's (`"{name}{shard}"`, `"{name}{node}"`).
    pub fn targets(&self, stage: &Stage, nodes: u32) -> bool {
        self.stage == stage.kind
            && self.name.as_deref().is_none_or(|filter| {
                let members = match stage.scope {
                    StageScope::Shared => return resource_of_stage(filter, &stage.name),
                    StageScope::Sharded { count } => count,
                    StageScope::PerNode => nodes,
                };
                !filter_ranges(filter, &stage.name, members).is_empty()
            })
    }
}

/// How inter-arrival gaps of an open-loop schedule are drawn — the IR
/// counterpart of [`hcs_simkit::ArrivalDiscipline`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Discipline {
    /// Deterministic spacing: one arrival every `1/rate` seconds.
    FixedRate,
    /// Poisson process via inverse CDF over the seeded noise stream
    /// (the default — the memoryless arrival model latency studies
    /// assume).
    #[default]
    Poisson,
}

impl Discipline {
    /// The simkit discipline this IR value drives.
    pub fn as_simkit(self) -> hcs_simkit::ArrivalDiscipline {
        match self {
            Discipline::FixedRate => hcs_simkit::ArrivalDiscipline::FixedRate,
            Discipline::Poisson => hcs_simkit::ArrivalDiscipline::Poisson,
        }
    }
}

/// How operations are offered to the system.
///
/// `Closed` (the default) is the paper's regime: every rank re-issues
/// as soon as its previous operation completes, and the headline is
/// aggregate bandwidth. `Open` decouples offered load from service:
/// operations are injected at seeded deterministic inter-arrival
/// times and the headline becomes the per-operation latency
/// distribution. Serialized externally tagged (`"Closed"` or
/// `{"Open": {...}}`) and skipped when closed, so every pre-existing
/// scenario file and result artifact stays byte-identical.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum Arrival {
    /// Closed loop: ranks re-issue on completion (every rank's stream
    /// is present when the drive loop starts).
    #[default]
    Closed,
    /// Open loop: operations arrive at `rate` ops/s for `duration`
    /// simulated seconds, gaps drawn per `discipline` from a stream
    /// seeded by `seed`.
    Open {
        /// Offered load, operations per second across the whole client
        /// population (must be finite and positive).
        rate: f64,
        /// Inter-arrival gap discipline.
        #[serde(default)]
        discipline: Discipline,
        /// Injection window length, simulated seconds (must be finite
        /// and positive).
        duration: f64,
        /// Seed of the arrival stream (independent of the workload's
        /// noise seed).
        #[serde(default)]
        seed: u64,
    },
}

impl Arrival {
    /// True for the closed-loop default (drives
    /// `skip_serializing_if`).
    pub fn is_closed(&self) -> bool {
        matches!(self, Arrival::Closed)
    }

    /// The arrival with its offered rate replaced — how the
    /// `offered_load` sweep axis fans one open-loop base out. Inert on
    /// `Closed` (deck validation rejects that combination).
    pub fn with_rate(self, rate: f64) -> Arrival {
        match self {
            Arrival::Closed => Arrival::Closed,
            Arrival::Open {
                discipline,
                duration,
                seed,
                ..
            } => Arrival::Open {
                rate,
                discipline,
                duration,
                seed,
            },
        }
    }

    /// Validates the spec, returning a one-line diagnostic on failure
    /// (the CLI prints it and exits 2).
    pub fn check(&self) -> Result<(), String> {
        match self {
            Arrival::Closed => Ok(()),
            Arrival::Open { rate, duration, .. } => {
                if !(rate.is_finite() && *rate > 0.0) {
                    return Err(format!(
                        "open-loop arrival rate must be finite and positive (got {rate})"
                    ));
                }
                if !(duration.is_finite() && *duration > 0.0) {
                    return Err(format!(
                        "open-loop duration must be finite and positive (got {duration})"
                    ));
                }
                Ok(())
            }
        }
    }
}

/// One executable experiment point: a workload against a named storage
/// deployment, with optional graph edits and scale overrides.
///
/// The `system` string is resolved through the executor's system
/// registry (the same names `hcs systems` lists); `edits` are applied
/// to every deployment plan the system produces. The `Option` fields
/// override the corresponding workload-config fields when set, so one
/// base scenario can be fanned out by [`Deck::expand`] without
/// re-stating whole configs.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Point label (filled by [`Deck::expand`]; free-form otherwise).
    #[serde(default)]
    pub name: String,
    /// Registry name of the storage deployment ("vast-lassen", "gpfs",
    /// ...).
    pub system: String,
    /// Graph edits applied on top of the system's deployment plan.
    #[serde(default)]
    pub edits: Vec<GraphEdit>,
    /// Windowed faults injected into the run (empty = fault-free; the
    /// field is skipped from serialization then, so existing scenario
    /// files and result artifacts stay byte-identical).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub faults: Vec<FaultSpec>,
    /// Arrival discipline: closed loop (default) or open loop at a
    /// fixed offered rate. Skipped from serialization when closed, so
    /// existing scenario files and result artifacts stay
    /// byte-identical.
    #[serde(default, skip_serializing_if = "Arrival::is_closed")]
    pub arrival: Arrival,
    /// The workload to run.
    pub workload: Workload,
    /// Client node count override.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub nodes: Option<u32>,
    /// Processes-per-node override.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub ppn: Option<u32>,
    /// When `ppn` is unset, use the machine's full-node process count
    /// from the registry (44 on Lassen, 48 on Wombat, ...).
    #[serde(default)]
    pub full_node: bool,
    /// Repetition-count override.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub reps: Option<u32>,
    /// Noise-seed override.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub seed: Option<u64>,
    /// Reserved: a point is traced by the run that executes it (`hcs run
    /// --trace <path>`), not by a field, so [`Scenario::check`] rejects
    /// `true`. Kept in the serialized form, which every result carries.
    #[serde(default)]
    pub trace: bool,
}

impl Scenario {
    /// A scenario with no overrides.
    pub fn new(system: impl Into<String>, workload: Workload) -> Self {
        Scenario {
            name: String::new(),
            system: system.into(),
            edits: Vec::new(),
            faults: Vec::new(),
            arrival: Arrival::Closed,
            workload,
            nodes: None,
            ppn: None,
            full_node: false,
            reps: None,
            seed: None,
            trace: false,
        }
    }

    /// Sets the node-count override (builder style).
    pub fn with_nodes(mut self, nodes: u32) -> Self {
        self.nodes = Some(nodes);
        self
    }

    /// Sets the ppn override (builder style).
    pub fn with_ppn(mut self, ppn: u32) -> Self {
        self.ppn = Some(ppn);
        self
    }

    /// Requests the machine's full-node process count (builder style).
    pub fn at_full_node(mut self) -> Self {
        self.full_node = true;
        self
    }

    /// Sets the repetition override (builder style).
    pub fn with_reps(mut self, reps: u32) -> Self {
        self.reps = Some(reps);
        self
    }

    /// Adds a fault to the scenario's schedule (builder style).
    pub fn with_fault(mut self, fault: FaultSpec) -> Self {
        self.faults.push(fault);
        self
    }

    /// Sets the arrival discipline (builder style).
    pub fn with_arrival(mut self, arrival: Arrival) -> Self {
        self.arrival = arrival;
        self
    }

    /// The ppn this scenario resolves to given the machine's full-node
    /// process count, if any override applies.
    fn resolved_ppn(&self, full_ppn: u32) -> Option<u32> {
        self.ppn
            .or(if self.full_node { Some(full_ppn) } else { None })
    }

    /// The workload with every scenario-level override folded into its
    /// configuration. `full_ppn` is the machine's full-node process
    /// count (consumed when [`Scenario::full_node`] is set).
    pub fn resolved_workload(&self, full_ppn: u32) -> Workload {
        let mut w = self.workload.clone();
        let ppn = self.resolved_ppn(full_ppn);
        match &mut w {
            Workload::Ior(c) => {
                if let Some(n) = self.nodes {
                    c.nodes = n;
                }
                if let Some(p) = ppn {
                    c.tasks_per_node = p;
                }
                if let Some(r) = self.reps {
                    c.reps = r;
                }
                if let Some(s) = self.seed {
                    c.seed = s;
                }
            }
            Workload::Mdtest(c) => {
                if let Some(n) = self.nodes {
                    c.nodes = n;
                }
                if let Some(p) = ppn {
                    c.tasks_per_node = p;
                }
                if let Some(r) = self.reps {
                    c.reps = r;
                }
                if let Some(s) = self.seed {
                    c.seed = s;
                }
            }
            Workload::Dlio(c) => {
                if let Some(s) = self.seed {
                    c.seed = s;
                }
            }
            Workload::Job(_) | Workload::Replay(_) => {}
        }
        w
    }

    /// Checks everything about this point that needs neither the system
    /// registry nor a deployment plan, returning a one-line diagnostic
    /// on the first problem: the run shape (at least one node and one
    /// process, at most `u32::MAX` ranks), the workload with every
    /// override folded in, the graph edits, the arrival spec, the fault
    /// windows, the capability-table row for any faults or open-loop
    /// arrivals, and the reserved `trace` field. `full_ppn` is the
    /// machine's full-node process count. This is the one definition of
    /// a valid point: `validate_deck` calls it before planning anything,
    /// and `run_scenario` before running.
    pub fn check(&self, full_ppn: u32) -> Result<(), String> {
        let (nodes, ppn) = (self.run_nodes(), self.run_ppn(full_ppn));
        if nodes == 0 || ppn == 0 {
            return Err(format!(
                "need at least one node and one process per node (got {nodes} x {ppn})"
            ));
        }
        if nodes.checked_mul(ppn).is_none() {
            return Err(format!(
                "{nodes} nodes x {ppn} processes per node exceeds {} ranks",
                u32::MAX
            ));
        }
        self.resolved_workload(full_ppn).check()?;
        for edit in &self.edits {
            edit.check()?;
        }
        self.arrival.check()?;
        if !self.arrival.is_closed() {
            self.workload
                .require(|c| c.open_loop, "open-loop arrivals support")?;
        }
        if !self.faults.is_empty() {
            self.workload
                .require(|c| c.faults, "fault injection supports")?;
        }
        for spec in &self.faults {
            spec.check()?;
        }
        if self.trace {
            return Err(
                "\"trace\": true traces nothing; trace a run with `hcs run --trace <path>`".into(),
            );
        }
        Ok(())
    }

    /// Client node count the executor runs this scenario at.
    pub fn run_nodes(&self) -> u32 {
        self.nodes.unwrap_or(match &self.workload {
            Workload::Ior(c) => c.nodes,
            Workload::Mdtest(c) => c.nodes,
            Workload::Dlio(_) | Workload::Job(_) | Workload::Replay(_) => 1,
        })
    }

    /// Processes per node the executor runs this scenario at.
    pub fn run_ppn(&self, full_ppn: u32) -> u32 {
        self.resolved_ppn(full_ppn).unwrap_or(match &self.workload {
            Workload::Ior(c) => c.tasks_per_node,
            Workload::Mdtest(c) => c.tasks_per_node,
            Workload::Dlio(_) | Workload::Job(_) | Workload::Replay(_) => full_ppn,
        })
    }
}

/// Declarative sweep axes: each non-empty axis fans the base scenario
/// out over its values; empty axes leave the base untouched. The
/// cross-product is expanded in a fixed nesting order (systems → edit
/// sets → fault sets → nodes → ppn → transfer sizes) with
/// first-occurrence deduplication per axis, so expansion is
/// deterministic and duplicate-free by construction.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SweepAxes {
    /// Registry names to sweep.
    #[serde(default)]
    pub systems: Vec<String>,
    /// Node counts to sweep.
    #[serde(default)]
    pub nodes: Vec<u32>,
    /// Processes-per-node values to sweep.
    #[serde(default)]
    pub ppn: Vec<u32>,
    /// Transfer sizes (bytes) to sweep.
    #[serde(default)]
    pub transfer_sizes: Vec<f64>,
    /// Alternative graph-edit sets to sweep (each entry is appended to
    /// the base scenario's edits) — how ablations like the
    /// gateway-width sweep become one deck.
    #[serde(default)]
    pub edit_sets: Vec<Vec<GraphEdit>>,
    /// Alternative fault schedules to sweep (each entry is appended to
    /// the base scenario's faults) — outage/degradation what-ifs as a
    /// deck axis. An empty inner set is a valid fault-free twin point.
    /// Skipped from serialization when empty so pre-fault deck files
    /// round-trip byte-identically.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub fault_sets: Vec<Vec<FaultSpec>>,
    /// Offered-load values (ops/s) to sweep — each rewrites the rate of
    /// the base scenario's open-loop [`Arrival`], so a latency-vs-load
    /// saturation study is one deck. Requires an open-loop base
    /// (`validate_deck` rejects the axis on a closed-loop scenario).
    /// Skipped from serialization when empty so pre-latency deck files
    /// round-trip byte-identically.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub offered_load: Vec<f64>,
}

impl SweepAxes {
    /// True when every axis is empty (the deck is a single point).
    pub fn is_empty(&self) -> bool {
        self.systems.is_empty()
            && self.nodes.is_empty()
            && self.ppn.is_empty()
            && self.transfer_sizes.is_empty()
            && self.edit_sets.is_empty()
            && self.fault_sets.is_empty()
            && self.offered_load.is_empty()
    }
}

/// A deck: one base scenario plus sweep axes — the declarative form of
/// a whole figure, ablation, or campaign.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Deck {
    /// Deck name (doubles as the output artifact id).
    pub name: String,
    /// Human-readable description (figure title).
    #[serde(default)]
    pub title: String,
    /// The base scenario every point is derived from.
    pub base: Scenario,
    /// The sweep axes.
    #[serde(default)]
    pub axes: SweepAxes,
}

/// First-occurrence deduplication, preserving order.
fn dedup<T: PartialEq + Clone>(values: &[T]) -> Vec<T> {
    let mut out: Vec<T> = Vec::with_capacity(values.len());
    for v in values {
        if !out.contains(v) {
            out.push(v.clone());
        }
    }
    out
}

impl Deck {
    /// A single-point deck around `base`.
    pub fn single(name: impl Into<String>, base: Scenario) -> Self {
        Deck {
            name: name.into(),
            title: String::new(),
            base,
            axes: SweepAxes::default(),
        }
    }

    /// Sets the title (builder style).
    pub fn with_title(mut self, title: impl Into<String>) -> Self {
        self.title = title.into();
        self
    }

    /// Expands the axes into concrete scenario points.
    ///
    /// Deterministic: the nesting order is systems → edit sets → fault
    /// sets → nodes → ppn → transfer sizes → offered load, each axis
    /// deduplicated to its first occurrences. Duplicate-free: every
    /// point differs from every other in at least one swept coordinate
    /// (encoded in its name).
    pub fn expand(&self) -> Vec<Scenario> {
        let systems = if self.axes.systems.is_empty() {
            vec![self.base.system.clone()]
        } else {
            dedup(&self.axes.systems)
        };
        let edit_sets: Vec<Option<(usize, Vec<GraphEdit>)>> = if self.axes.edit_sets.is_empty() {
            vec![None]
        } else {
            dedup(&self.axes.edit_sets)
                .into_iter()
                .enumerate()
                .map(Some)
                .collect()
        };
        let fault_sets: Vec<Option<(usize, Vec<FaultSpec>)>> = if self.axes.fault_sets.is_empty() {
            vec![None]
        } else {
            dedup(&self.axes.fault_sets)
                .into_iter()
                .enumerate()
                .map(Some)
                .collect()
        };
        let nodes: Vec<Option<u32>> = if self.axes.nodes.is_empty() {
            vec![None]
        } else {
            dedup(&self.axes.nodes).into_iter().map(Some).collect()
        };
        let ppns: Vec<Option<u32>> = if self.axes.ppn.is_empty() {
            vec![None]
        } else {
            dedup(&self.axes.ppn).into_iter().map(Some).collect()
        };
        let transfers: Vec<Option<f64>> = if self.axes.transfer_sizes.is_empty() {
            vec![None]
        } else {
            dedup(&self.axes.transfer_sizes)
                .into_iter()
                .map(Some)
                .collect()
        };
        let rates: Vec<Option<f64>> = if self.axes.offered_load.is_empty() {
            vec![None]
        } else {
            dedup(&self.axes.offered_load)
                .into_iter()
                .map(Some)
                .collect()
        };

        let mut points = Vec::with_capacity(
            systems.len() * edit_sets.len() * fault_sets.len() * nodes.len() * ppns.len(),
        );
        for system in &systems {
            for edit_set in &edit_sets {
                for fault_set in &fault_sets {
                    for &n in &nodes {
                        for &p in &ppns {
                            for &ts in &transfers {
                                let mut s = self.base.clone();
                                let mut label = vec![system.clone()];
                                s.system = system.clone();
                                if let Some((i, edits)) = edit_set {
                                    s.edits.extend(edits.iter().cloned());
                                    label.push(format!("e{i}"));
                                }
                                if let Some((i, faults)) = fault_set {
                                    s.faults.extend(faults.iter().cloned());
                                    label.push(format!("f{i}"));
                                }
                                if let Some(n) = n {
                                    s.nodes = Some(n);
                                    label.push(format!("n{n}"));
                                }
                                if let Some(p) = p {
                                    s.ppn = Some(p);
                                    label.push(format!("p{p}"));
                                }
                                for &rate in &rates {
                                    let mut s = s.clone();
                                    let mut label = label.clone();
                                    if let Some(ts) = ts {
                                        s.workload.set_transfer_size(ts);
                                        label.push(format!("t{ts}"));
                                    }
                                    if let Some(rate) = rate {
                                        s.arrival = s.arrival.with_rate(rate);
                                        label.push(format!("r{rate}"));
                                    }
                                    s.name = label.join("/");
                                    points.push(s);
                                }
                            }
                        }
                    }
                }
            }
        }
        points
    }

    /// The deck with its base workload shrunk for fast runs — what
    /// `hcs run --scale smoke` applies to a scenario file.
    pub fn smoked(mut self) -> Self {
        self.base.workload = self.base.workload.smoked();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ior_scenario() -> Scenario {
        Scenario::new(
            "vast-lassen",
            Workload::Ior(IorConfig::smoke(WorkloadClass::DataAnalytics, 1, 44)),
        )
    }

    #[test]
    fn scale_parses_and_labels() {
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("smoke"), Some(Scale::Smoke));
        assert_eq!(Scale::parse("bogus"), None);
        assert_eq!(Scale::parse(Scale::Smoke.label()), Some(Scale::Smoke));
    }

    #[test]
    fn scales_differ() {
        assert!(Scale::Paper.lassen_nodes().len() > Scale::Smoke.lassen_nodes().len());
        assert_eq!(Scale::Paper.reps(), 10);
        assert!(Scale::Smoke.dlio_samples().is_some());
        assert_eq!(*Scale::Paper.lassen_nodes().last().unwrap(), 128);
        assert_eq!(*Scale::Paper.wombat_nodes().last().unwrap(), 8);
        assert_eq!(*Scale::Paper.single_node_procs().last().unwrap(), 32);
        assert_eq!(*Scale::Paper.resnet_nodes().last().unwrap(), 32);
    }

    #[test]
    fn overrides_fold_into_ior_config() {
        let mut s = ior_scenario().with_nodes(16).with_reps(5);
        s.seed = Some(99);
        s.full_node = true;
        match s.resolved_workload(44) {
            Workload::Ior(c) => {
                assert_eq!(c.nodes, 16);
                assert_eq!(c.tasks_per_node, 44);
                assert_eq!(c.reps, 5);
                assert_eq!(c.seed, 99);
            }
            _ => panic!("still an IOR workload"),
        }
        assert_eq!(s.run_nodes(), 16);
        assert_eq!(s.run_ppn(44), 44);
    }

    #[test]
    fn explicit_ppn_beats_full_node() {
        let s = ior_scenario().with_ppn(8).at_full_node();
        assert_eq!(s.run_ppn(44), 8);
    }

    #[test]
    fn unset_overrides_leave_config_alone() {
        let s = ior_scenario();
        assert_eq!(s.resolved_workload(44), s.workload);
        assert_eq!(s.run_nodes(), 1);
        assert_eq!(s.run_ppn(99), 44);
    }

    #[test]
    fn expansion_covers_cross_product_in_order() {
        let mut deck = Deck::single("d", ior_scenario());
        deck.axes.systems = vec!["vast-lassen".into(), "gpfs".into()];
        deck.axes.nodes = vec![1, 4];
        let points = deck.expand();
        assert_eq!(points.len(), 4);
        assert_eq!(
            points.iter().map(|p| p.name.as_str()).collect::<Vec<_>>(),
            vec!["vast-lassen/n1", "vast-lassen/n4", "gpfs/n1", "gpfs/n4"]
        );
        assert_eq!(points[3].system, "gpfs");
        assert_eq!(points[3].nodes, Some(4));
    }

    #[test]
    fn expansion_dedups_axis_values() {
        let mut deck = Deck::single("d", ior_scenario());
        deck.axes.nodes = vec![1, 4, 1, 4, 2];
        let points = deck.expand();
        assert_eq!(
            points.iter().map(|p| p.nodes.unwrap()).collect::<Vec<_>>(),
            vec![1, 4, 2]
        );

        // [A, A, B]: the deduplicated sets are A then B, named e0 and e1.
        let set = |count| vec![GraphEdit::WidenGateway { count }];
        let mut deck = Deck::single("d", ior_scenario());
        deck.axes.edit_sets = vec![set(2), set(2), set(4)];
        let points = deck.expand();
        assert_eq!(
            points
                .iter()
                .map(|p| (p.name.as_str(), p.edits.clone()))
                .collect::<Vec<_>>(),
            vec![("vast-lassen/e0", set(2)), ("vast-lassen/e1", set(4))]
        );
    }

    #[test]
    fn empty_axes_yield_the_base_point() {
        let deck = Deck::single("d", ior_scenario());
        assert!(deck.axes.is_empty());
        let points = deck.expand();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].system, "vast-lassen");
        assert_eq!(points[0].nodes, None);
    }

    #[test]
    fn edit_sets_append_to_base_edits() {
        let mut base = ior_scenario();
        base.edits = vec![GraphEdit::WidenGateway { count: 2 }];
        let mut deck = Deck::single("d", base);
        deck.axes.edit_sets = vec![
            vec![GraphEdit::ScalePool {
                kind: StageKind::Gateway,
                factor: 2.0,
            }],
            vec![GraphEdit::ScalePool {
                kind: StageKind::Gateway,
                factor: 4.0,
            }],
        ];
        let points = deck.expand();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].edits.len(), 2);
        assert_eq!(points[0].name, "vast-lassen/e0");
        assert_eq!(points[1].name, "vast-lassen/e1");
    }

    #[test]
    fn transfer_axis_rewrites_workload() {
        let mut deck = Deck::single("d", ior_scenario());
        deck.axes.transfer_sizes = vec![4096.0, 4.0 * 1024.0 * 1024.0];
        let points = deck.expand();
        match &points[1].workload {
            Workload::Ior(c) => {
                assert_eq!(c.transfer_size, 4.0 * 1024.0 * 1024.0);
                assert!(c.block_size >= c.transfer_size, "stays valid");
                assert_eq!(c.check(), Ok(()));
            }
            _ => panic!("ior workload"),
        }
    }

    #[test]
    fn smoked_workloads_shrink() {
        let w = Workload::Ior(IorConfig::paper_scalability(
            WorkloadClass::Scientific,
            4,
            44,
        ));
        match w.smoked() {
            Workload::Ior(c) => {
                assert_eq!(c.segments, 64);
                assert_eq!(c.reps, 3);
            }
            _ => unreachable!(),
        }
        let m = Workload::Mdtest(MdtestConfig::new(4, 16)).smoked();
        match m {
            Workload::Mdtest(c) => {
                assert_eq!(c.files_per_proc, 200);
                assert_eq!(c.reps, 3);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn scenario_serde_round_trip() {
        let mut s = ior_scenario().with_nodes(8).at_full_node();
        s.edits = vec![
            GraphEdit::WidenGateway { count: 4 },
            GraphEdit::SetPoolCapacity {
                kind: StageKind::Gateway,
                capacity: 5e10,
            },
        ];
        s.trace = true;
        let back: Scenario = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn deck_serde_round_trip() {
        let mut deck = Deck::single("fig", ior_scenario()).with_title("a title");
        deck.axes.systems = vec!["vast-lassen".into(), "nvme".into()];
        deck.axes.nodes = vec![1, 2, 4];
        deck.axes.transfer_sizes = vec![65536.0];
        let back: Deck = serde_json::from_str(&serde_json::to_string(&deck).unwrap()).unwrap();
        assert_eq!(back, deck);
        assert_eq!(back.expand(), deck.expand());
    }

    #[test]
    fn sparse_scenario_json_parses_with_defaults() {
        let json = r#"{
            "system": "gpfs",
            "workload": {"Mdtest": {"nodes": 2, "tasks_per_node": 4,
                                     "files_per_proc": 10, "reps": 2, "seed": 1}}
        }"#;
        let s: Scenario = serde_json::from_str(json).unwrap();
        assert_eq!(s.name, "");
        assert!(s.edits.is_empty());
        assert!(s.faults.is_empty());
        assert!(!s.full_node);
        assert!(!s.trace);
        assert_eq!(s.run_nodes(), 2);
    }

    #[test]
    fn fault_spec_serde_round_trips_every_kind() {
        let specs = vec![
            FaultSpec::outage(StageKind::Gateway, 1.0, 2.0),
            FaultSpec::degrade(StageKind::Media, 0.5, 3.5, 0.25).named("vast:media"),
            FaultSpec {
                stage: StageKind::ServerPool,
                name: None,
                start: 2.0,
                end: 4.0,
                fault: FaultKind::Jitter {
                    seed: 7,
                    amplitude: 0.5,
                    steps: 8,
                },
            },
        ];
        for spec in specs {
            let json = serde_json::to_string(&spec).unwrap();
            let back: FaultSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn fault_free_scenario_json_has_no_faults_key() {
        // Byte-compat: pre-fault scenario files and result artifacts
        // must serialize exactly as before this field existed.
        let json = serde_json::to_string(&ior_scenario()).unwrap();
        assert!(!json.contains("faults"), "{json}");
        let mut deck = Deck::single("d", ior_scenario());
        deck.axes.nodes = vec![1, 2];
        let deck_json = serde_json::to_string(&deck).unwrap();
        assert!(!deck_json.contains("fault_sets"), "{deck_json}");
    }

    #[test]
    fn faulted_scenario_round_trips_through_deck_json() {
        let mut deck = Deck::single(
            "d",
            ior_scenario().with_fault(FaultSpec::outage(StageKind::Gateway, 1.0, 2.0)),
        );
        deck.axes.fault_sets = vec![
            Vec::new(),
            vec![FaultSpec::degrade(StageKind::Media, 0.5, 1.5, 0.1)],
        ];
        let back: Deck = serde_json::from_str(&serde_json::to_string(&deck).unwrap()).unwrap();
        assert_eq!(back, deck);
        assert_eq!(back.expand(), deck.expand());
    }

    #[test]
    fn fault_sets_axis_expands_with_labels() {
        let mut deck = Deck::single("d", ior_scenario());
        deck.axes.fault_sets = vec![
            Vec::new(),
            vec![FaultSpec::outage(StageKind::Gateway, 1.0, 2.0)],
            vec![FaultSpec::degrade(StageKind::Media, 0.0, 5.0, 0.5)],
        ];
        let points = deck.expand();
        assert_eq!(points.len(), 3);
        assert_eq!(
            points.iter().map(|p| p.name.as_str()).collect::<Vec<_>>(),
            vec!["vast-lassen/f0", "vast-lassen/f1", "vast-lassen/f2"]
        );
        assert!(points[0].faults.is_empty());
        assert_eq!(points[1].faults[0].fault, FaultKind::Outage);
        assert_eq!(
            points[2].faults[0].fault,
            FaultKind::Degrade { factor: 0.5 }
        );
    }

    #[test]
    fn fault_sets_append_to_base_faults() {
        let base = ior_scenario().with_fault(FaultSpec::outage(StageKind::Gateway, 1.0, 2.0));
        let mut deck = Deck::single("d", base);
        deck.axes.fault_sets = vec![vec![FaultSpec::degrade(StageKind::Media, 3.0, 4.0, 0.5)]];
        let points = deck.expand();
        assert_eq!(points[0].faults.len(), 2);
        assert_eq!(points[0].faults[0].fault, FaultKind::Outage);
    }

    #[test]
    fn fault_spec_check_rejects_bad_windows_and_params() {
        assert!(FaultSpec::outage(StageKind::Gateway, 1.0, 2.0)
            .check()
            .is_ok());
        assert!(FaultSpec::outage(StageKind::Gateway, -1.0, 2.0)
            .check()
            .is_err());
        let zero = FaultSpec::outage(StageKind::Gateway, 2.0, 2.0)
            .check()
            .unwrap_err();
        assert!(zero.contains("zero-length window"), "{zero}");
        assert!(FaultSpec::outage(StageKind::Gateway, 0.0, f64::INFINITY)
            .check()
            .is_err());
        assert!(FaultSpec::degrade(StageKind::Media, 0.0, 1.0, 0.0)
            .check()
            .is_err());
        assert!(FaultSpec::degrade(StageKind::Media, 0.0, 1.0, 1.5)
            .check()
            .is_err());
        // factor == 1.0 is a silent no-op that would inflate chaos
        // fault budgets without degrading anything: rejected.
        let noop = FaultSpec::degrade(StageKind::Media, 0.0, 1.0, 1.0)
            .check()
            .unwrap_err();
        assert!(noop.contains("no-op"), "{noop}");
        assert!(FaultSpec::degrade(StageKind::Media, 0.0, 1.0, 0.999)
            .check()
            .is_ok());
        let jitter = |amplitude, steps| FaultSpec {
            stage: StageKind::Fabric,
            name: None,
            start: 0.0,
            end: 1.0,
            fault: FaultKind::Jitter {
                seed: 1,
                amplitude,
                steps,
            },
        };
        assert!(jitter(0.5, 4).check().is_ok());
        assert!(jitter(1.0, 4).check().is_err());
        assert!(jitter(0.5, 0).check().is_err());
    }

    #[test]
    fn closed_scenario_json_has_no_arrival_key() {
        // Byte-compat: pre-latency scenario files and result artifacts
        // must serialize exactly as before this field existed.
        let json = serde_json::to_string(&ior_scenario()).unwrap();
        assert!(!json.contains("arrival"), "{json}");
        let mut deck = Deck::single("d", ior_scenario());
        deck.axes.nodes = vec![1, 2];
        let deck_json = serde_json::to_string(&deck).unwrap();
        assert!(!deck_json.contains("offered_load"), "{deck_json}");
    }

    #[test]
    fn arrival_serde_round_trips_and_defaults() {
        let open = Arrival::Open {
            rate: 500.0,
            discipline: Discipline::FixedRate,
            duration: 2.0,
            seed: 9,
        };
        let s = ior_scenario().with_arrival(open);
        let back: Scenario = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(back, s);
        // Sparse JSON: discipline and seed default (Poisson, 0).
        let json = r#"{"Open": {"rate": 100.0, "duration": 1.0}}"#;
        let a: Arrival = serde_json::from_str(json).unwrap();
        assert_eq!(
            a,
            Arrival::Open {
                rate: 100.0,
                discipline: Discipline::Poisson,
                duration: 1.0,
                seed: 0,
            }
        );
    }

    #[test]
    fn arrival_check_rejects_bad_rates_and_durations() {
        let open = |rate, duration| Arrival::Open {
            rate,
            discipline: Discipline::Poisson,
            duration,
            seed: 0,
        };
        assert!(Arrival::Closed.check().is_ok());
        assert!(open(100.0, 1.0).check().is_ok());
        for bad in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let err = open(bad, 1.0).check().unwrap_err();
            assert!(
                err.contains("arrival rate must be finite and positive"),
                "{err}"
            );
            assert!(!err.contains('\n'), "one-line diagnostic: {err}");
        }
        for bad in [0.0, -1.0, f64::NAN] {
            let err = open(100.0, bad).check().unwrap_err();
            assert!(
                err.contains("duration must be finite and positive"),
                "{err}"
            );
        }
    }

    #[test]
    fn offered_load_axis_rewrites_open_arrivals() {
        let base = ior_scenario().with_arrival(Arrival::Open {
            rate: 1.0,
            discipline: Discipline::Poisson,
            duration: 2.0,
            seed: 3,
        });
        let mut deck = Deck::single("d", base);
        deck.axes.offered_load = vec![100.0, 400.0, 100.0];
        let points = deck.expand();
        assert_eq!(
            points.iter().map(|p| p.name.as_str()).collect::<Vec<_>>(),
            vec!["vast-lassen/r100", "vast-lassen/r400"]
        );
        match points[1].arrival {
            Arrival::Open {
                rate,
                duration,
                seed,
                ..
            } => {
                assert_eq!(rate, 400.0);
                assert_eq!(duration, 2.0, "other fields preserved");
                assert_eq!(seed, 3);
            }
            Arrival::Closed => panic!("still open"),
        }
    }

    #[test]
    fn offered_load_axis_is_inert_on_a_closed_base() {
        // The executor's validate_deck rejects this combination; the
        // expander itself just leaves the arrival closed.
        let mut deck = Deck::single("d", ior_scenario());
        deck.axes.offered_load = vec![100.0];
        let points = deck.expand();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].arrival, Arrival::Closed);
        assert_eq!(points[0].name, "vast-lassen/r100");
    }

    #[test]
    fn graph_edit_check_rejects_degenerate_fields() {
        let mut rdma = TransportSpec::nfs_rdma(8, 2);
        let good = [
            GraphEdit::WidenGateway { count: 1 },
            GraphEdit::ScalePool {
                kind: StageKind::OpsPool,
                factor: 3.0,
            },
            GraphEdit::SetPoolCapacity {
                kind: StageKind::Gateway,
                capacity: 5e10,
            },
            GraphEdit::SwapTransport {
                transport: rdma.clone(),
                client_nic_bw: 12.5e9,
            },
        ];
        for edit in &good {
            assert_eq!(edit.check(), Ok(()), "{edit:?}");
        }
        rdma.nconnect = 0;
        let bad = [
            (
                GraphEdit::WidenGateway { count: 0 },
                "count must be at least 1",
            ),
            (
                GraphEdit::ScalePool {
                    kind: StageKind::Gateway,
                    factor: -1.0,
                },
                "factor must be positive",
            ),
            (
                GraphEdit::SetPoolCapacity {
                    kind: StageKind::Gateway,
                    capacity: 0.0,
                },
                "capacity must be positive",
            ),
            (
                GraphEdit::SwapTransport {
                    transport: rdma,
                    client_nic_bw: 12.5e9,
                },
                "nconnect must be at least 1",
            ),
            (
                GraphEdit::SwapTransport {
                    transport: TransportSpec::nfs_rdma(8, 2),
                    client_nic_bw: 0.0,
                },
                "client_nic_bw and per_stream_bw must be positive",
            ),
        ];
        for (edit, needle) in bad {
            let err = edit.check().unwrap_err();
            assert!(err.contains(needle), "{needle}: {err}");
        }
    }

    #[test]
    fn set_pool_capacity_on_an_unplanned_kind_is_a_no_op() {
        let mut g = DeploymentGraph::new(1e9, 0.0, 0.0).stage(crate::graph::Stage::shared(
            "toy:pool",
            StageKind::ServerPool,
            1e9,
        ));
        let before = g.clone();
        GraphEdit::SetPoolCapacity {
            kind: StageKind::Gateway,
            capacity: 5e10,
        }
        .apply(&mut g);
        assert_eq!(g, before);
    }

    #[test]
    fn only_ior_has_faults_open_loop_and_provenance() {
        // Workload::require's diagnostic names IOR as the only family
        // with these capabilities; the table must agree.
        let families = [
            Workload::Ior(IorConfig::smoke(WorkloadClass::Scientific, 1, 1)),
            Workload::Dlio(DlioConfig {
                name: "toy".into(),
                framework: "PyTorch".into(),
                samples: 8,
                sample_bytes: 1e6,
                transfer_size: 1e6,
                file_per_sample: false,
                pattern: hcs_devices::AccessPattern::Sequential,
                scaling: Scaling::Weak,
                epochs: 1,
                batch_size: 1,
                read_threads: 1,
                compute_threads: 1,
                compute_time_per_batch: 0.0,
                prefetch_depth: 1,
                checkpoint_every_batches: 0,
                checkpoint_bytes: 0.0,
                seed: 1,
            }),
            Workload::Mdtest(MdtestConfig::new(1, 1)),
            Workload::Job(JobScript::checkpoint_restart(1.0, 1, 1e6, 1e6)),
            Workload::Replay(ReplayConfig::default()),
        ];
        for w in &families {
            let c = w.capabilities();
            let ior = w.kind() == "ior";
            assert_eq!(
                (c.faults, c.open_loop, c.provenance),
                (ior, ior, ior),
                "{}",
                w.kind()
            );
            assert_eq!(w.check(), Ok(()), "{}", w.kind());
        }
        let err = families[2]
            .require(|c| c.faults, "fault injection supports")
            .unwrap_err();
        assert_eq!(
            err,
            "fault injection supports the IOR family only (got mdtest)"
        );
    }

    #[test]
    fn workload_check_covers_job_steps_and_replay_transfer_size() {
        let mut job = JobScript::checkpoint_restart(1.0, 1, 1e6, 1e6);
        job.steps.push(JobStep::Compute { seconds: -1.0 });
        let err = Workload::Job(job).check().unwrap_err();
        assert!(err.contains("finite, non-negative time"), "{err}");
        let job = JobScript::checkpoint_restart(1.0, 1, 1e6, 2e6);
        let err = Workload::Job(job).check().unwrap_err();
        assert!(err.contains("job step 'restart': transfer"), "{err}");
        let err = Workload::Job(JobScript {
            name: "empty".into(),
            steps: Vec::new(),
        })
        .check()
        .unwrap_err();
        assert_eq!(err, "job has no steps");
        let replay = ReplayConfig {
            transfer_size: Some(-1.0),
            ..ReplayConfig::default()
        };
        let err = Workload::Replay(replay).check().unwrap_err();
        assert!(
            err.contains("replay transfer size must be positive"),
            "{err}"
        );
    }

    #[test]
    fn scenario_check_composes_shape_workload_edits_arrival_and_faults() {
        assert_eq!(ior_scenario().check(44), Ok(()));
        let err = ior_scenario().with_nodes(0).check(44).unwrap_err();
        assert!(err.contains("at least one node"), "{err}");
        let no_ppn = Scenario::new("gpfs", Workload::Mdtest(MdtestConfig::new(1, 1))).with_ppn(0);
        assert!(no_ppn.check(44).unwrap_err().contains("(got 1 x 0)"));
        let mut edited = ior_scenario();
        edited.edits = vec![GraphEdit::WidenGateway { count: 0 }];
        assert!(edited.check(44).unwrap_err().contains("WidenGateway"));
        let open = ior_scenario().with_arrival(Arrival::Open {
            rate: 0.0,
            discipline: Discipline::Poisson,
            duration: 1.0,
            seed: 0,
        });
        assert!(open.check(44).unwrap_err().contains("arrival rate"));
        let faulted = Scenario::new("gpfs", Workload::Mdtest(MdtestConfig::new(1, 1)))
            .with_fault(FaultSpec::outage(StageKind::Gateway, 1.0, 2.0));
        assert_eq!(
            faulted.check(44).unwrap_err(),
            "fault injection supports the IOR family only (got mdtest)"
        );
        let window = ior_scenario().with_fault(FaultSpec::outage(StageKind::Gateway, 2.0, 1.0));
        assert!(window.check(44).unwrap_err().contains("end must be finite"));
    }

    #[test]
    fn fault_spec_matching_honors_kind_and_name() {
        let gw = Stage::sharded("vast:gw", StageKind::Gateway, 2, 1e9);
        let media = Stage::shared("vast:gw", StageKind::Media, 1e9);
        let any_gw = FaultSpec::outage(StageKind::Gateway, 1.0, 2.0);
        assert!(any_gw.targets(&gw, 4));
        assert!(!any_gw.targets(&media, 4));
        let named = |name: &str| any_gw.clone().named(name);
        assert!(named("vast:gw").targets(&gw, 4));
        assert!(!named("other:gw").targets(&gw, 4));
        // Member names: shards 0..2 of the gateway, nodes 0..4 of a mount.
        assert!(named("vast:gw1").targets(&gw, 4));
        assert!(!named("vast:gw2").targets(&gw, 4));
        let mount = Stage::per_node("vast:mount", StageKind::ClientMount, 1e9);
        let degrade = |name: &str| FaultSpec::outage(StageKind::ClientMount, 1.0, 2.0).named(name);
        assert!(degrade("vast:mount3").targets(&mount, 4));
        assert!(!degrade("vast:mount4").targets(&mount, 4));
        assert!(degrade("vast:mount12").targets(&mount, 13));
    }
}
