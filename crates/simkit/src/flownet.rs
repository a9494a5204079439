//! Flow-level bandwidth sharing with max-min fairness.
//!
//! Storage and network activity is modeled as *flows*: a flow has a byte
//! size and a path through capacity-limited *resources* (a client NIC, a
//! gateway Ethernet link, a pool of NFS server CPUs, a flash array...).
//! At any instant, the set of active flows shares every resource
//! **max-min fairly** — the classic "progressive filling" allocation in
//! which no flow can gain rate without taking it from an already-slower
//! flow. Between arrivals and departures rates are constant, so the next
//! completion time is computed analytically and simulated time leaps
//! directly to it.
//!
//! Two features keep large benchmark simulations cheap:
//!
//! * **Multiplicity** — `n` identical flows (e.g. 44 IOR ranks on one
//!   node writing through the same NIC) are stored once with
//!   `multiplicity = n`. They receive identical rates and complete
//!   simultaneously, collapsing per-rank state into per-node state.
//! * **Per-flow rate caps** — a cap models a structural limit that is not
//!   a shared resource, e.g. a single TCP stream that cannot exceed
//!   ~1 GB/s regardless of how idle the 2×100 Gb gateway link is.
//!
//! Weighted sharing is supported: a flow with weight `w` receives `w`
//! shares at every bottleneck, which models nconnect-style transports
//! that open multiple streams per client.
//!
//! # Equivalence-class aggregation
//!
//! A [`ResourceSpec`] may declare `instances = m`: one registered
//! resource standing for `m` identical parallel instances (e.g. the
//! node-local mounts of `m` interchangeable client nodes), each with
//! the *per-instance* capacity. A flow group crossing such a resource
//! is assumed to spread evenly over the instances, so it contributes
//! `weight * multiplicity / instances` shares to the one registered
//! resource — exactly what each individual instance would see. Because
//! IEEE-754 division is exact when the quotient is representable
//! (`(m * k) / m == k` for the integer ranges used here, and `x / 1.0
//! == x` always), an aggregated network produces **bit-identical**
//! per-member rates to the fully expanded one; the differential suite
//! in `tests/` pins this.
//!
//! # Incremental solving
//!
//! Rates are a pure function of the active flow set and capacities, and
//! the constraint graph (flows ↔ resources) decomposes into connected
//! components that share nothing. `recompute_rates` therefore keeps
//! per-resource membership sets plus a dirty set seeded by each event
//! (flow start/finish, capacity change) and re-solves only the
//! components reachable from a dirty seed; untouched components keep
//! their cached rates, which are bit-equal to what a fresh solve would
//! produce. Debug builds re-derive every rate from scratch after each
//! epoch and assert bit-equality (the differential oracle).
//!
//! # Determinism
//!
//! Flows are kept in a `BTreeMap` keyed by creation order; the allocation
//! loop iterates in that order, so allocations are bit-reproducible.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::faults::{FaultRunReport, FaultTimeline, StallError};

/// Relative tolerance used when comparing rates and byte counts.
const REL_EPS: f64 = 1e-9;

/// Identifies a resource inside one [`FlowNet`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(u32);

impl ResourceId {
    /// The index of this resource within its `FlowNet`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifies a flow inside one [`FlowNet`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(u64);

impl FlowId {
    /// The creation-order key of this flow within its `FlowNet`.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Observes a [`FlowNet`]'s lifecycle without perturbing it.
///
/// A recorder is a pure listener: the network never reads anything back
/// from it, so attaching one cannot change a single simulated value —
/// the zero-perturbation guarantee the telemetry differential tests pin.
/// Every hook has a no-op default, so recorders implement only what they
/// need.
///
/// Allocation samples ([`FlowRecorder::on_allocation`]) are emitted once
/// per *rate epoch*: whenever the set of active flows or capacities
/// changes and the rates are subsequently recomputed. Between two
/// samples every rate is constant, so the samples form an exact step
/// function of each resource's utilization over time.
pub trait FlowRecorder {
    /// A resource was registered (or replayed at attach time).
    fn on_resource(&mut self, id: ResourceId, name: &str, capacity: f64) {
        let _ = (id, name, capacity);
    }

    /// A resource's capacity changed at `now` (degradation / recovery).
    fn on_capacity_change(&mut self, now: f64, id: ResourceId, capacity: f64) {
        let _ = (now, id, capacity);
    }

    /// A flow (group) was added at `now`.
    fn on_flow_start(&mut self, now: f64, id: FlowId, spec: &FlowSpec) {
        let _ = (now, id, spec);
    }

    /// A flow ended at `now`; `completed` is `false` for cancellations.
    fn on_flow_end(&mut self, now: f64, id: FlowId, tag: u64, completed: bool) {
        let _ = (now, id, tag, completed);
    }

    /// Rates were recomputed at `now`: per-resource allocated throughput
    /// and capacity, both indexed by [`ResourceId::index`]. The values
    /// hold from `now` until the next sample.
    fn on_allocation(&mut self, now: f64, allocated: &[f64], capacity: &[f64]) {
        let _ = (now, allocated, capacity);
    }

    /// Rates were recomputed at `now`: one [`EpochFlowSample`] per
    /// active flow (in flow-key order) carrying its achieved and
    /// standalone (demand) per-member rates, plus the same per-resource
    /// allocation and capacity vectors as
    /// [`FlowRecorder::on_allocation`]. Emitted immediately after that
    /// hook, once per rate epoch; the samples hold from `now` until the
    /// next epoch. This is the feed the latency-provenance probe
    /// attributes per-op blame from.
    fn on_epoch_rates(
        &mut self,
        now: f64,
        samples: &[EpochFlowSample],
        allocated: &[f64],
        capacity: &[f64],
    ) {
        let _ = (now, samples, allocated, capacity);
    }
}

/// One active flow's rate standing within a rate epoch, as passed to
/// [`FlowRecorder::on_epoch_rates`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpochFlowSample {
    /// The flow being sampled.
    pub id: FlowId,
    /// Achieved per-member rate (bytes/s) over this epoch.
    pub rate: f64,
    /// The per-member rate the flow would achieve standing *alone* at
    /// the current capacities: `min(rate_cap, min over the path of
    /// capacity_r / share_r)`. Comparing the achieved rate against this
    /// demand tells an observer whether the flow was contended during
    /// the epoch without re-running the solver.
    pub demand: f64,
}

/// Fans every [`FlowRecorder`] hook out to two recorders, first then
/// second — the glue behind [`FlowNet::stack_recorder`] that lets a
/// telemetry flow log and a latency-provenance probe observe one run
/// side by side. Like any recorder it is a pure listener, so stacking
/// cannot change a single simulated value.
pub struct TeeRecorder {
    first: Box<dyn FlowRecorder>,
    second: Box<dyn FlowRecorder>,
}

impl FlowRecorder for TeeRecorder {
    fn on_resource(&mut self, id: ResourceId, name: &str, capacity: f64) {
        self.first.on_resource(id, name, capacity);
        self.second.on_resource(id, name, capacity);
    }

    fn on_capacity_change(&mut self, now: f64, id: ResourceId, capacity: f64) {
        self.first.on_capacity_change(now, id, capacity);
        self.second.on_capacity_change(now, id, capacity);
    }

    fn on_flow_start(&mut self, now: f64, id: FlowId, spec: &FlowSpec) {
        self.first.on_flow_start(now, id, spec);
        self.second.on_flow_start(now, id, spec);
    }

    fn on_flow_end(&mut self, now: f64, id: FlowId, tag: u64, completed: bool) {
        self.first.on_flow_end(now, id, tag, completed);
        self.second.on_flow_end(now, id, tag, completed);
    }

    fn on_allocation(&mut self, now: f64, allocated: &[f64], capacity: &[f64]) {
        self.first.on_allocation(now, allocated, capacity);
        self.second.on_allocation(now, allocated, capacity);
    }

    fn on_epoch_rates(
        &mut self,
        now: f64,
        samples: &[EpochFlowSample],
        allocated: &[f64],
        capacity: &[f64],
    ) {
        self.first.on_epoch_rates(now, samples, allocated, capacity);
        self.second
            .on_epoch_rates(now, samples, allocated, capacity);
    }
}

/// Static description of a resource.
#[derive(Clone, Debug)]
pub struct ResourceSpec {
    /// Human-readable name, used in diagnostics.
    pub name: String,
    /// Capacity in bytes per second shared by all flows crossing it.
    /// With `instances > 1` this is the capacity of *each* instance.
    pub capacity: f64,
    /// Identical parallel instances this one registered resource stands
    /// for (≥ 1). Flows crossing it are assumed to spread evenly, so
    /// each contributes `weight * multiplicity / instances` shares —
    /// the per-instance load. Default 1 (a plain resource).
    pub instances: u32,
}

impl ResourceSpec {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, capacity: f64) -> Self {
        ResourceSpec {
            name: name.into(),
            capacity,
            instances: 1,
        }
    }

    /// Declares this resource an aggregate of `m` identical instances
    /// (capacity stays per-instance).
    pub fn with_instances(mut self, m: u32) -> Self {
        assert!(m >= 1, "instances must be >= 1");
        self.instances = m;
        self
    }
}

/// Optional operation identity carried by a flow and echoed on its
/// [`Completion`]: which operation class issued it and which size
/// bucket it belongs to. Purely descriptive — the engine never reads
/// it back, so tagging a flow cannot change any simulated value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpIdentity {
    /// Caller-defined operation class index (e.g. read vs. write, or a
    /// workload-class ordinal).
    pub class: u32,
    /// Caller-defined size-bucket index (e.g. a transfer-size rank).
    pub size_bucket: u32,
}

/// Static description of a flow (or group of identical flows).
#[derive(Clone, Debug)]
pub struct FlowSpec {
    /// Resources traversed, in order. May be empty for purely
    /// rate-capped local activity.
    pub path: Vec<ResourceId>,
    /// Bytes each member flow must transfer.
    pub bytes: f64,
    /// Number of identical member flows (≥ 1).
    pub multiplicity: u32,
    /// Optional per-member rate ceiling in bytes/s (e.g. a single TCP
    /// stream limit).
    pub rate_cap: Option<f64>,
    /// Fair-share weight per member (default 1.0). A weight of 16 models
    /// a client with 16 parallel streams (nconnect=16).
    pub weight: f64,
    /// Opaque caller tag returned in completion reports.
    pub tag: u64,
    /// How many expanded flow *groups* this spec stands for (≥ 1,
    /// default 1). An equivalence-class planner collapsing `g` identical
    /// per-node groups into one aggregate spec sets `represents = g` so
    /// counters ([`FlowNet::flows_started`], telemetry flow-group
    /// tallies) keep reporting expanded-equivalent values.
    pub represents: u32,
    /// Optional operation identity echoed on the completion.
    pub op: Option<OpIdentity>,
    /// When the operation was *submitted*, as opposed to when it was
    /// admitted into the network ([`FlowNet::add_flow`] time). `None`
    /// means "submitted at admission". The completion's latency is
    /// measured from this instant, so deferred admission counts as
    /// queueing time.
    pub submitted_at: Option<f64>,
}

impl FlowSpec {
    /// A unit-weight, single-member flow over `path`.
    pub fn new(path: Vec<ResourceId>, bytes: f64) -> Self {
        FlowSpec {
            path,
            bytes,
            multiplicity: 1,
            rate_cap: None,
            weight: 1.0,
            tag: 0,
            represents: 1,
            op: None,
            submitted_at: None,
        }
    }

    /// Sets how many expanded flow groups this spec stands for.
    pub fn with_represents(mut self, g: u32) -> Self {
        assert!(g >= 1, "represents must be >= 1");
        self.represents = g;
        self
    }

    /// Sets the member multiplicity.
    pub fn with_multiplicity(mut self, n: u32) -> Self {
        self.multiplicity = n;
        self
    }

    /// Sets the per-member rate cap.
    pub fn with_rate_cap(mut self, cap: f64) -> Self {
        self.rate_cap = Some(cap);
        self
    }

    /// Sets the per-member fair-share weight.
    pub fn with_weight(mut self, w: f64) -> Self {
        self.weight = w;
        self
    }

    /// Sets the caller tag.
    pub fn with_tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }

    /// Attaches an operation identity (echoed on the completion).
    pub fn with_op(mut self, class: u32, size_bucket: u32) -> Self {
        self.op = Some(OpIdentity { class, size_bucket });
        self
    }

    /// Sets the submit time the completion latency is measured from.
    pub fn submitted_at(mut self, t: f64) -> Self {
        self.submitted_at = Some(t);
        self
    }
}

#[derive(Clone, Debug)]
struct Flow {
    path: Vec<ResourceId>,
    remaining: f64,
    multiplicity: u32,
    rate_cap: Option<f64>,
    weight: f64,
    tag: u64,
    op: Option<OpIdentity>,
    submitted_at: f64,
    /// Current per-member rate, valid when `rates_valid`.
    rate: f64,
}

/// A completed flow as reported by [`FlowNet::take_completed`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Completion {
    /// The flow that finished.
    pub id: FlowId,
    /// Caller tag from the [`FlowSpec`].
    pub tag: u64,
    /// Completion time in seconds.
    pub at: f64,
    /// When the operation was submitted ([`FlowSpec::submitted_at`],
    /// defaulting to the admission instant).
    pub submitted_at: f64,
    /// Submit-to-finish latency in seconds (`at - submitted_at`) —
    /// queueing included when admission was deferred.
    pub latency: f64,
    /// Operation identity from the [`FlowSpec`], if any.
    pub op: Option<OpIdentity>,
}

/// The flow-sharing network: resources plus currently active flows.
pub struct FlowNet {
    resources: Vec<ResourceSpec>,
    flows: BTreeMap<u64, Flow>,
    next_flow: u64,
    /// Expanded-equivalent flow groups started (Σ `represents`), the
    /// value [`FlowNet::flows_started`] reports.
    started: u64,
    now: f64,
    rates_valid: bool,
    completed: Vec<Completion>,
    /// Rate epochs solved so far (one per [`FlowNet::recompute_rates`]
    /// run) — a plain integer add on the solver path, kept whether or
    /// not anything observes it.
    rate_epochs: u64,
    /// Active flow keys crossing each resource, parallel to
    /// `resources` — the constraint-graph adjacency the incremental
    /// solver walks.
    members: Vec<BTreeSet<u64>>,
    /// Flows added since the last solve.
    dirty_flows: BTreeSet<u64>,
    /// Resources whose constraint set changed since the last solve
    /// (capacity change, or a crossing flow finished/cancelled).
    dirty_resources: BTreeSet<u32>,
    /// Optional pure listener; never consulted for any computation.
    recorder: Option<Box<dyn FlowRecorder>>,
}

impl Default for FlowNet {
    fn default() -> Self {
        Self::new()
    }
}

impl FlowNet {
    /// Creates an empty network at time zero.
    pub fn new() -> Self {
        FlowNet {
            resources: Vec::new(),
            flows: BTreeMap::new(),
            next_flow: 0,
            started: 0,
            now: 0.0,
            rates_valid: true,
            completed: Vec::new(),
            rate_epochs: 0,
            members: Vec::new(),
            dirty_flows: BTreeSet::new(),
            dirty_resources: BTreeSet::new(),
            recorder: None,
        }
    }

    /// Current simulated time in seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Rate epochs solved so far: how many times the max-min solver ran
    /// because the flow set or capacities changed.
    pub fn rate_epochs(&self) -> u64 {
        self.rate_epochs
    }

    /// Flow groups placed into the network so far (completed groups
    /// included), in *expanded-equivalent* terms: an aggregate spec
    /// with `represents = g` counts as `g` groups, so the value is
    /// invariant under equivalence-class aggregation.
    pub fn flows_started(&self) -> u64 {
        self.started
    }

    /// Installs a [`FlowRecorder`]. Resources registered so far are
    /// replayed into it immediately so attachment order does not matter
    /// for the resource table; flows already active are *not* replayed —
    /// attach before adding flows to observe complete lifecycles.
    pub fn set_recorder(&mut self, mut recorder: Box<dyn FlowRecorder>) {
        for (i, r) in self.resources.iter().enumerate() {
            recorder.on_resource(ResourceId(i as u32), &r.name, r.capacity);
        }
        self.recorder = Some(recorder);
    }

    /// Installs an *additional* [`FlowRecorder`] without disturbing one
    /// already attached. Resources registered so far are replayed into
    /// the new recorder only (the existing one already saw them), and
    /// the two are combined into a [`TeeRecorder`] that forwards every
    /// hook to both. With no recorder attached this is exactly
    /// [`FlowNet::set_recorder`].
    pub fn stack_recorder(&mut self, mut recorder: Box<dyn FlowRecorder>) {
        for (i, r) in self.resources.iter().enumerate() {
            recorder.on_resource(ResourceId(i as u32), &r.name, r.capacity);
        }
        self.recorder = Some(match self.recorder.take() {
            Some(existing) => Box::new(TeeRecorder {
                first: existing,
                second: recorder,
            }),
            None => recorder,
        });
    }

    /// Removes and returns the installed recorder, if any.
    pub fn take_recorder(&mut self) -> Option<Box<dyn FlowRecorder>> {
        self.recorder.take()
    }

    /// Registers a resource and returns its id.
    ///
    /// # Panics
    /// Panics if `capacity` is negative or NaN.
    pub fn add_resource(&mut self, spec: ResourceSpec) -> ResourceId {
        assert!(
            spec.capacity >= 0.0 && !spec.capacity.is_nan(),
            "resource capacity must be a non-negative number: {} = {}",
            spec.name,
            spec.capacity
        );
        assert!(spec.instances >= 1, "instances must be >= 1");
        let id = ResourceId(u32::try_from(self.resources.len()).expect("too many resources"));
        if let Some(mut rec) = self.recorder.take() {
            rec.on_resource(id, &spec.name, spec.capacity);
            self.recorder = Some(rec);
        }
        self.resources.push(spec);
        self.members.push(BTreeSet::new());
        id
    }

    /// Number of registered resources.
    pub fn resource_count(&self) -> usize {
        self.resources.len()
    }

    /// Resource name (diagnostics).
    pub fn resource_name(&self, id: ResourceId) -> &str {
        &self.resources[id.index()].name
    }

    /// Resource capacity in bytes/s.
    pub fn resource_capacity(&self, id: ResourceId) -> f64 {
        self.resources[id.index()].capacity
    }

    /// The current capacity of every resource, in registration order
    /// (indexed by [`ResourceId::index`]); with `instances > 1` the
    /// value is per-instance. Fault-injection harnesses snapshot this
    /// before and after [`FlowNet::drive`] to check that
    /// recovery events restored every capacity to its provisioned value
    /// exactly — the terminal-rate evidence behind the chaos campaign's
    /// recovery invariant.
    pub fn capacity_snapshot(&self) -> Vec<f64> {
        self.resources.iter().map(|r| r.capacity).collect()
    }

    /// Changes a resource's capacity (failure injection / degradation).
    /// Takes effect from the current instant.
    ///
    /// # Panics
    /// Panics if `capacity` is negative or non-finite. The graph planner
    /// rejects non-finite capacities at provision time, so fault
    /// recovery must not be able to re-widen a resource into a state
    /// the planner would never have validated.
    pub fn set_resource_capacity(&mut self, id: ResourceId, capacity: f64) {
        assert!(
            capacity.is_finite() && capacity >= 0.0,
            "capacity must be finite and non-negative: {} = {capacity}",
            self.resources[id.index()].name
        );
        self.resources[id.index()].capacity = capacity;
        self.rates_valid = false;
        self.dirty_resources.insert(id.0);
        if let Some(mut rec) = self.recorder.take() {
            rec.on_capacity_change(self.now, id, capacity);
            self.recorder = Some(rec);
        }
    }

    /// Starts a flow (group). Rates of all flows are re-divided from the
    /// current instant.
    ///
    /// # Panics
    /// Panics if the spec references an unknown resource, has
    /// non-positive size/weight, or zero multiplicity.
    pub fn add_flow(&mut self, spec: FlowSpec) -> FlowId {
        assert!(spec.bytes > 0.0, "flow size must be positive");
        assert!(spec.multiplicity >= 1, "multiplicity must be >= 1");
        assert!(
            spec.weight > 0.0 && spec.weight.is_finite(),
            "weight must be positive and finite"
        );
        for r in &spec.path {
            assert!(
                r.index() < self.resources.len(),
                "flow path references unknown resource {r:?}"
            );
        }
        if let Some(cap) = spec.rate_cap {
            assert!(cap > 0.0, "rate cap must be positive");
        }
        assert!(spec.represents >= 1, "represents must be >= 1");
        let submitted_at = spec.submitted_at.unwrap_or(self.now);
        assert!(
            submitted_at.is_finite() && submitted_at <= self.now,
            "submit time must be finite and not after admission: {submitted_at} > {}",
            self.now
        );
        let key = self.next_flow;
        self.next_flow += 1;
        self.started += spec.represents as u64;
        if let Some(mut rec) = self.recorder.take() {
            rec.on_flow_start(self.now, FlowId(key), &spec);
            self.recorder = Some(rec);
        }
        for r in &spec.path {
            self.members[r.index()].insert(key);
        }
        self.flows.insert(
            key,
            Flow {
                path: spec.path,
                remaining: spec.bytes,
                multiplicity: spec.multiplicity,
                rate_cap: spec.rate_cap,
                weight: spec.weight,
                tag: spec.tag,
                op: spec.op,
                submitted_at,
                rate: 0.0,
            },
        );
        self.rates_valid = false;
        self.dirty_flows.insert(key);
        FlowId(key)
    }

    /// Cancels an active flow. Returns `true` if it existed.
    pub fn cancel(&mut self, id: FlowId) -> bool {
        let removed = self.flows.remove(&id.0);
        if let Some(f) = removed {
            self.forget_flow(id.0, &f.path);
            self.rates_valid = false;
            if let Some(mut rec) = self.recorder.take() {
                rec.on_flow_end(self.now, id, f.tag, false);
                self.recorder = Some(rec);
            }
            true
        } else {
            false
        }
    }

    /// Removes a departed flow from the adjacency and dirties the
    /// resources it crossed so their components re-solve.
    fn forget_flow(&mut self, key: u64, path: &[ResourceId]) {
        self.dirty_flows.remove(&key);
        for r in path {
            self.members[r.index()].remove(&key);
            self.dirty_resources.insert(r.0);
        }
    }

    /// Number of active flow groups.
    pub fn active_flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Current per-member rate of a flow, if active.
    pub fn flow_rate(&mut self, id: FlowId) -> Option<f64> {
        self.ensure_rates();
        self.flows.get(&id.0).map(|f| f.rate)
    }

    /// Remaining bytes (per member) of a flow, if active.
    pub fn flow_remaining(&self, id: FlowId) -> Option<f64> {
        self.flows.get(&id.0).map(|f| f.remaining)
    }

    /// Aggregate throughput currently allocated across all flows
    /// (bytes/s, members counted).
    pub fn aggregate_rate(&mut self) -> f64 {
        self.ensure_rates();
        self.flows
            .values()
            .map(|f| f.rate * f.multiplicity as f64)
            .sum()
    }

    /// Absolute time at which the next flow completes, or `None` when no
    /// flow is active or all active flows are stalled at rate zero.
    pub fn next_completion_time(&mut self) -> Option<f64> {
        self.ensure_rates();
        let mut best: Option<f64> = None;
        for f in self.flows.values() {
            if f.rate > 0.0 {
                let t = self.now + f.remaining / f.rate;
                best = Some(match best {
                    Some(b) => b.min(t),
                    None => t,
                });
            }
        }
        best
    }

    /// Advances simulated time to `t`, draining bytes from every active
    /// flow at its current rate, and moves any flows that finish by `t`
    /// into the completion buffer (retrieve with [`take_completed`]).
    ///
    /// [`take_completed`]: FlowNet::take_completed
    ///
    /// # Panics
    /// Panics if `t` is before the current time.
    pub fn advance_to(&mut self, t: f64) {
        assert!(
            t >= self.now - REL_EPS,
            "cannot advance backwards: {t} < {}",
            self.now
        );
        let dt = (t - self.now).max(0.0);
        if dt > 0.0 {
            self.ensure_rates();
            for f in self.flows.values_mut() {
                f.remaining -= f.rate * dt;
            }
        }
        self.now = t;
        // Collect completions deterministically (BTreeMap order).
        let done: Vec<u64> = self
            .flows
            .iter()
            .filter(|(_, f)| f.remaining <= f.rate.max(1.0) * REL_EPS * self.now.max(1.0) + 1e-6)
            .map(|(k, _)| *k)
            .collect();
        if !done.is_empty() {
            for k in done {
                let f = self.flows.remove(&k).expect("flow disappeared");
                self.forget_flow(k, &f.path);
                if let Some(mut rec) = self.recorder.take() {
                    rec.on_flow_end(self.now, FlowId(k), f.tag, true);
                    self.recorder = Some(rec);
                }
                self.completed.push(Completion {
                    id: FlowId(k),
                    tag: f.tag,
                    at: self.now,
                    submitted_at: f.submitted_at,
                    latency: self.now - f.submitted_at,
                    op: f.op,
                });
            }
            self.rates_valid = false;
        }
    }

    /// Drains the buffer of completions recorded by [`FlowNet::advance_to`].
    pub fn take_completed(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completed)
    }

    /// Runs the network until every active flow completes, invoking
    /// `on_complete` for each completion in order — [`FlowNet::drive`]
    /// with no arrivals and no capacity events. Flows added inside the
    /// callback are scheduled from the completion instant. Returns the
    /// final time.
    ///
    /// # Panics
    /// Panics if flows stall (every remaining flow has rate zero), which
    /// indicates a zero-capacity resource on every path. Call
    /// [`FlowNet::drive`] to receive the stall as a typed [`StallError`]
    /// instead.
    pub fn run_to_completion(&mut self, on_complete: impl FnMut(&mut FlowNet, Completion)) -> f64 {
        self.drive(Vec::new(), &FaultTimeline::empty(), on_complete)
            .unwrap_or_else(|e| panic!("{e}"))
            .end
    }

    /// The drive loop: runs the network until every active flow has
    /// completed and every arrival has been admitted and completed,
    /// applying a [`FaultTimeline`] of capacity events along the way.
    /// Closed loop is the case with no arrivals (every flow present at
    /// entry); fault-free is the case with an empty timeline.
    ///
    /// `arrivals` is a list of `(time, spec)` pairs (sorted by time
    /// here, stably, so same-instant arrivals keep their given order).
    /// Each spec is admitted when simulated time reaches its arrival
    /// instant; a spec without an explicit submit time gets the arrival
    /// instant as its [`FlowSpec::submitted_at`], so completions report
    /// submit→finish latency including any queueing behind earlier
    /// operations or outage windows.
    ///
    /// Each capacity event sets its resource's capacity to
    /// `base * factor`, where `base` is the capacity at entry — factors
    /// scale the original provisioned value, never the current one, so
    /// outage + recovery round-trips exactly.
    ///
    /// Interleaving is deterministic: time leaps to the earliest of
    /// (next completion, next capacity event, next arrival); completions
    /// are drained first at a shared instant, then every capacity event
    /// due by then applies as one batch (one re-solve), then arrivals
    /// are admitted. Capacity events past the last completion *and* last
    /// arrival are not applied. An interval in which every active flow
    /// sits at rate zero counts toward [`FaultRunReport::stall_seconds`];
    /// idle gaps with *no* active flow (waiting for the next arrival) do
    /// not. Only a stall with no event or arrival left returns
    /// [`StallError`].
    ///
    /// # Panics
    /// Panics if an arrival time is non-finite, before the current
    /// time, or an event references an unknown resource or would set a
    /// non-finite capacity.
    pub fn drive(
        &mut self,
        mut arrivals: Vec<(f64, FlowSpec)>,
        timeline: &FaultTimeline,
        mut on_complete: impl FnMut(&mut FlowNet, Completion),
    ) -> Result<FaultRunReport, StallError> {
        for e in timeline.events() {
            assert!(
                e.resource.index() < self.resources.len(),
                "fault event references unknown resource {:?}",
                e.resource
            );
        }
        for (t, _) in &arrivals {
            assert!(
                t.is_finite() && *t >= self.now,
                "arrival time must be finite and not before the current time: {t} < {}",
                self.now
            );
        }
        arrivals.sort_by(|a, b| a.0.total_cmp(&b.0));
        let base: Vec<f64> = self.resources.iter().map(|r| r.capacity).collect();
        let mut pending_events = timeline.events().iter().peekable();
        let mut pending_arrivals = arrivals.into_iter().peekable();
        let mut stall_seconds = 0.0;
        let mut events_applied = 0usize;
        let mut last_event_at = None;
        loop {
            let has_arrivals = pending_arrivals.peek().is_some();
            if self.active_flow_count() == 0 && !has_arrivals {
                break;
            }
            let completion = self.next_completion_time();
            let stalled = self.active_flow_count() > 0 && completion.is_none();
            let next_arrival = pending_arrivals.peek().map(|(t, _)| *t);
            let next_event = pending_events.peek().map(|e| e.at);
            let mut target = f64::INFINITY;
            for t in [completion, next_event, next_arrival].into_iter().flatten() {
                target = target.min(t);
            }
            if !target.is_finite() {
                // Active flows at rate zero with nothing scheduled to
                // lift them and nothing left to inject: unrecoverable.
                return Err(self.stall_error());
            }
            let at = target.max(self.now);
            if stalled {
                stall_seconds += at - self.now;
            }
            self.advance_to(at);
            for c in self.take_completed() {
                on_complete(self, c);
            }
            while pending_events.peek().is_some_and(|e| e.at <= self.now) {
                let e = pending_events.next().expect("peeked event");
                self.set_resource_capacity(e.resource, base[e.resource.index()] * e.factor);
                events_applied += self.resources[e.resource.index()].instances as usize;
                last_event_at = Some(e.at.max(at));
            }
            while pending_arrivals.peek().is_some_and(|(t, _)| *t <= self.now) {
                let (t, mut spec) = pending_arrivals.next().expect("peeked arrival");
                if spec.submitted_at.is_none() {
                    spec.submitted_at = Some(t);
                }
                self.add_flow(spec);
            }
        }
        Ok(FaultRunReport {
            end: self.now,
            stall_seconds,
            events_applied,
            last_event_at,
        })
    }

    /// Builds the typed stall diagnostic: which zero-capacity resources
    /// sit on the paths of the (rate-zero) active flows.
    fn stall_error(&mut self) -> StallError {
        self.ensure_rates();
        let mut starved: Vec<String> = Vec::new();
        for f in self.flows.values() {
            if f.rate > 0.0 {
                continue;
            }
            for r in &f.path {
                let spec = &self.resources[r.index()];
                if spec.capacity <= 0.0 && !starved.contains(&spec.name) {
                    starved.push(spec.name.clone());
                }
            }
        }
        starved.sort();
        StallError {
            at: self.now,
            starved,
        }
    }

    fn ensure_rates(&mut self) {
        if self.rates_valid {
            return;
        }
        self.recompute_rates();
        self.rates_valid = true;
        self.rate_epochs += 1;
        // One allocation sample per rate epoch. The recorder is a pure
        // listener, so emitting (or not emitting) a sample cannot change
        // any simulated value.
        if self.recorder.is_some() {
            let mut alloc = vec![0.0; self.resources.len()];
            let mut samples = Vec::with_capacity(self.flows.len());
            for (k, f) in &self.flows {
                for r in &f.path {
                    alloc[r.index()] += f.rate * self.share(f.multiplicity, r.index());
                }
                // Standalone rate at the *current* capacities — what the
                // flow would get with the network to itself.
                let mut demand = f.rate_cap.unwrap_or(f64::INFINITY);
                for r in &f.path {
                    demand = demand.min(
                        self.resources[r.index()].capacity / self.share(f.multiplicity, r.index()),
                    );
                }
                samples.push(EpochFlowSample {
                    id: FlowId(*k),
                    rate: f.rate,
                    demand,
                });
            }
            let caps: Vec<f64> = self.resources.iter().map(|r| r.capacity).collect();
            let mut rec = self.recorder.take().expect("recorder present");
            rec.on_allocation(self.now, &alloc, &caps);
            rec.on_epoch_rates(self.now, &samples, &alloc, &caps);
            self.recorder = Some(rec);
        }
    }

    /// Per-instance member count a flow group loads onto resource `ri`:
    /// `multiplicity / instances`. For a plain resource (`instances ==
    /// 1`) this is exactly `multiplicity as f64` (division by 1.0 is an
    /// identity); for an aggregate whose members divide evenly the IEEE
    /// quotient is exact, so aggregated arithmetic is bit-identical to
    /// expanded.
    #[inline]
    fn share(&self, multiplicity: u32, ri: usize) -> f64 {
        multiplicity as f64 / self.resources[ri].instances as f64
    }

    /// Weighted max-min fair allocation, solved incrementally.
    ///
    /// The constraint graph decomposes into connected components (flows
    /// joined by shared resources); each component's allocation is
    /// independent of every other's. Only components reachable from a
    /// dirty seed — a flow added, a resource whose capacity or crossing
    /// set changed — are re-solved by progressive filling; the rest
    /// keep their cached rates, which a fresh solve would reproduce
    /// bit-for-bit (the allocation is a pure function of component
    /// state, and the fill iterates in deterministic key order).
    fn recompute_rates(&mut self) {
        // Seeds: flows added since the last solve, plus every flow
        // crossing a dirtied resource.
        let mut seeds: Vec<u64> = self.dirty_flows.iter().copied().collect();
        for r in &self.dirty_resources {
            seeds.extend(self.members[*r as usize].iter().copied());
        }
        self.dirty_flows.clear();
        self.dirty_resources.clear();

        let mut visited_flows: BTreeSet<u64> = BTreeSet::new();
        let mut visited_res = vec![false; self.resources.len()];
        let mut scratch = SolveScratch::new(self.resources.len());
        let mut rates: Vec<(u64, f64)> = Vec::new();
        for s in seeds {
            if !self.flows.contains_key(&s) || visited_flows.contains(&s) {
                continue;
            }
            let (comp_flows, comp_res) = self.component(s, &mut visited_flows, &mut visited_res);
            rates.clear();
            self.fill_component(&comp_flows, &comp_res, &mut scratch, &mut rates);
            for (k, rate) in &rates {
                self.flows.get_mut(k).expect("flow").rate = *rate;
            }
        }

        #[cfg(debug_assertions)]
        self.assert_rates_match_scratch();
    }

    /// Collects the connected component of `seed` (BFS over the flow ↔
    /// resource adjacency), returning its flow keys and resource
    /// indices in ascending order.
    fn component(
        &self,
        seed: u64,
        visited_flows: &mut BTreeSet<u64>,
        visited_res: &mut [bool],
    ) -> (Vec<u64>, Vec<u32>) {
        let mut stack = vec![seed];
        visited_flows.insert(seed);
        let mut comp_flows: Vec<u64> = Vec::new();
        let mut comp_res: Vec<u32> = Vec::new();
        while let Some(k) = stack.pop() {
            comp_flows.push(k);
            for r in &self.flows[&k].path {
                let ri = r.index();
                if !visited_res[ri] {
                    visited_res[ri] = true;
                    comp_res.push(ri as u32);
                    for m in &self.members[ri] {
                        if visited_flows.insert(*m) {
                            stack.push(*m);
                        }
                    }
                }
            }
        }
        comp_flows.sort_unstable();
        comp_res.sort_unstable();
        (comp_flows, comp_res)
    }

    /// Progressive filling over one connected component. Pure with
    /// respect to flow state: resolved `(key, per-member rate)` pairs
    /// are pushed into `out`.
    fn fill_component(
        &self,
        comp_flows: &[u64],
        comp_res: &[u32],
        scratch: &mut SolveScratch,
        out: &mut Vec<(u64, f64)>,
    ) {
        let SolveScratch {
            frozen_alloc,
            weight_on,
            cap_rem,
        } = scratch;
        for &r in comp_res {
            frozen_alloc[r as usize] = 0.0;
        }
        let mut unfrozen: Vec<u64> = comp_flows.to_vec();
        while !unfrozen.is_empty() {
            // Recompute active weights exactly each round (incremental
            // subtraction leaves floating-point residue that can make a
            // fully-frozen resource look contended and stall the loop).
            for &r in comp_res {
                weight_on[r as usize] = 0.0;
            }
            for k in &unfrozen {
                let f = &self.flows[k];
                for r in &f.path {
                    weight_on[r.index()] += f.weight * self.share(f.multiplicity, r.index());
                }
            }
            for &r in comp_res {
                let ri = r as usize;
                cap_rem[ri] = (self.resources[ri].capacity - frozen_alloc[ri]).max(0.0);
            }
            // Candidate fill level from resources.
            let mut level = f64::INFINITY;
            for &r in comp_res {
                let ri = r as usize;
                if weight_on[ri] > 0.0 {
                    level = level.min((cap_rem[ri].max(0.0)) / weight_on[ri]);
                }
            }
            // Candidate fill level from per-flow caps.
            for k in &unfrozen {
                let f = &self.flows[k];
                if let Some(cap) = f.rate_cap {
                    level = level.min(cap / f.weight);
                }
            }
            if !level.is_finite() {
                // No shared resources and no caps: unconstrained flows.
                for k in &unfrozen {
                    out.push((*k, f64::INFINITY));
                }
                break;
            }

            // Freeze: cap-limited flows at their cap; flows through a
            // saturated bottleneck at weight * level.
            let tol = level.abs() * 1e-12 + 1e-30;
            let mut still = Vec::with_capacity(unfrozen.len());
            let mut froze_any = false;
            for k in unfrozen {
                let f = &self.flows[&k];
                let cap_level = f.rate_cap.map(|c| c / f.weight).unwrap_or(f64::INFINITY);
                let on_bottleneck = f.path.iter().any(|r| {
                    weight_on[r.index()] > 0.0
                        && (cap_rem[r.index()].max(0.0) / weight_on[r.index()]) <= level + tol
                });
                if cap_level <= level + tol || on_bottleneck {
                    let rate = f.weight * level.min(cap_level);
                    out.push((k, rate));
                    for r in &f.path {
                        frozen_alloc[r.index()] += rate * self.share(f.multiplicity, r.index());
                    }
                    froze_any = true;
                } else {
                    still.push(k);
                }
            }
            debug_assert!(froze_any, "progressive filling made no progress");
            if !froze_any {
                // Defensive: freeze everything at the current level.
                for k in &still {
                    out.push((*k, self.flows[k].weight * level));
                }
                break;
            }
            unfrozen = still;
        }
    }

    /// The differential oracle: every active flow's rate re-derived
    /// from scratch (full progressive filling, component by component),
    /// ignoring all cached state. Sorted by flow key. Debug builds
    /// assert after every epoch that the incremental solver matches
    /// this bit-for-bit; the proptest differential suite does the same
    /// in release builds.
    pub fn scratch_rates(&self) -> Vec<(FlowId, f64)> {
        let mut visited_flows: BTreeSet<u64> = BTreeSet::new();
        let mut visited_res = vec![false; self.resources.len()];
        let mut scratch = SolveScratch::new(self.resources.len());
        let mut all: Vec<(u64, f64)> = Vec::with_capacity(self.flows.len());
        for &k in self.flows.keys() {
            if visited_flows.contains(&k) {
                continue;
            }
            let (comp_flows, comp_res) = self.component(k, &mut visited_flows, &mut visited_res);
            self.fill_component(&comp_flows, &comp_res, &mut scratch, &mut all);
        }
        all.sort_unstable_by_key(|(k, _)| *k);
        all.into_iter().map(|(k, r)| (FlowId(k), r)).collect()
    }

    #[cfg(debug_assertions)]
    fn assert_rates_match_scratch(&self) {
        for (id, want) in self.scratch_rates() {
            let got = self.flows[&id.0].rate;
            assert!(
                got.to_bits() == want.to_bits(),
                "incremental solver drifted from scratch solve at t={}: \
                 flow {id:?} rate {got:e} (bits {:016x}) != scratch {want:e} (bits {:016x})",
                self.now,
                got.to_bits(),
                want.to_bits()
            );
        }
    }

    /// Returns, for diagnostics, each resource's currently allocated
    /// throughput as `(name, allocated, capacity)` — per instance for
    /// aggregate resources, so the saturation ratio reads the same
    /// aggregated or expanded.
    pub fn resource_utilization(&mut self) -> Vec<(String, f64, f64)> {
        self.ensure_rates();
        let mut alloc = vec![0.0; self.resources.len()];
        for f in self.flows.values() {
            for r in &f.path {
                alloc[r.index()] += f.rate * self.share(f.multiplicity, r.index());
            }
        }
        self.resources
            .iter()
            .zip(alloc)
            .map(|(r, a)| (r.name.clone(), a, r.capacity))
            .collect()
    }
}

/// Reusable per-resource solver buffers, full network width. Each is
/// only ever read for a component's own resources and reset before
/// use, so one set serves every component of an epoch.
struct SolveScratch {
    /// Capacity consumed by frozen flows, per resource (per instance).
    frozen_alloc: Vec<f64>,
    weight_on: Vec<f64>,
    cap_rem: Vec<f64>,
}

impl SolveScratch {
    fn new(n_res: usize) -> Self {
        SolveScratch {
            frozen_alloc: vec![0.0; n_res],
            weight_on: vec![0.0; n_res],
            cap_rem: vec![0.0; n_res],
        }
    }
}

impl fmt::Debug for FlowNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlowNet")
            .field("now", &self.now)
            .field("resources", &self.resources.len())
            .field("active_flows", &self.flows.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net_with(caps: &[f64]) -> (FlowNet, Vec<ResourceId>) {
        let mut net = FlowNet::new();
        let ids = caps
            .iter()
            .enumerate()
            .map(|(i, &c)| net.add_resource(ResourceSpec::new(format!("r{i}"), c)))
            .collect();
        (net, ids)
    }

    #[test]
    fn single_flow_single_resource() {
        let (mut net, r) = net_with(&[100.0]);
        let id = net.add_flow(FlowSpec::new(vec![r[0]], 1000.0));
        assert_eq!(net.flow_rate(id), Some(100.0));
        let t = net.next_completion_time().unwrap();
        assert!((t - 10.0).abs() < 1e-9);
        net.advance_to(t);
        let done = net.take_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, id);
    }

    #[test]
    fn rate_epoch_and_flow_counters_track_the_solver() {
        let (mut net, r) = net_with(&[100.0]);
        assert_eq!((net.rate_epochs(), net.flows_started()), (0, 0));
        net.add_flow(FlowSpec::new(vec![r[0]], 1000.0));
        net.add_flow(FlowSpec::new(vec![r[0]], 500.0));
        net.run_to_completion(|_, _| {});
        assert_eq!(net.flows_started(), 2);
        // Epoch 1: both flows at 50 B/s until the short one finishes at
        // t=10; epoch 2: the long one alone. Queries between
        // invalidations reuse the cached rates, so exactly two solves.
        assert_eq!(net.rate_epochs(), 2);
    }

    #[test]
    fn two_flows_share_fairly() {
        let (mut net, r) = net_with(&[100.0]);
        let a = net.add_flow(FlowSpec::new(vec![r[0]], 1000.0));
        let b = net.add_flow(FlowSpec::new(vec![r[0]], 500.0));
        assert_eq!(net.flow_rate(a), Some(50.0));
        assert_eq!(net.flow_rate(b), Some(50.0));
        // b finishes at t=10; a then speeds up to 100 and finishes at 15.
        let end = net.run_to_completion(|_, _| {});
        assert!((end - 15.0).abs() < 1e-6, "end = {end}");
    }

    #[test]
    fn bottleneck_on_shared_middle_link() {
        // Two flows with private first hops (fast) share a slow middle.
        let (mut net, r) = net_with(&[1000.0, 1000.0, 100.0]);
        net.add_flow(FlowSpec::new(vec![r[0], r[2]], 1000.0));
        net.add_flow(FlowSpec::new(vec![r[1], r[2]], 1000.0));
        let util = net.resource_utilization();
        assert!((util[2].1 - 100.0).abs() < 1e-9, "middle link saturated");
        assert!((util[0].1 - 50.0).abs() < 1e-9);
    }

    #[test]
    fn max_min_not_proportional() {
        // Flow a is capped elsewhere; flow b should soak up the slack
        // (max-min), not split 50/50 (proportional would waste capacity).
        let (mut net, r) = net_with(&[30.0, 100.0]);
        let a = net.add_flow(FlowSpec::new(vec![r[0], r[1]], 1e9));
        let b = net.add_flow(FlowSpec::new(vec![r[1]], 1e9));
        assert_eq!(net.flow_rate(a), Some(30.0));
        assert_eq!(net.flow_rate(b), Some(70.0));
    }

    #[test]
    fn rate_cap_limits_single_flow() {
        let (mut net, r) = net_with(&[1000.0]);
        let a = net.add_flow(FlowSpec::new(vec![r[0]], 1e6).with_rate_cap(10.0));
        assert_eq!(net.flow_rate(a), Some(10.0));
        // A second uncapped flow gets the remainder.
        let b = net.add_flow(FlowSpec::new(vec![r[0]], 1e6));
        assert_eq!(net.flow_rate(a), Some(10.0));
        assert_eq!(net.flow_rate(b), Some(990.0));
    }

    #[test]
    fn weights_bias_shares() {
        let (mut net, r) = net_with(&[100.0]);
        let a = net.add_flow(FlowSpec::new(vec![r[0]], 1e6).with_weight(3.0));
        let b = net.add_flow(FlowSpec::new(vec![r[0]], 1e6));
        assert!((net.flow_rate(a).unwrap() - 75.0).abs() < 1e-9);
        assert!((net.flow_rate(b).unwrap() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn multiplicity_counts_members() {
        let (mut net, r) = net_with(&[100.0]);
        let grp = net.add_flow(FlowSpec::new(vec![r[0]], 1000.0).with_multiplicity(4));
        let solo = net.add_flow(FlowSpec::new(vec![r[0]], 1000.0));
        // 5 members total, 20 each.
        assert!((net.flow_rate(grp).unwrap() - 20.0).abs() < 1e-9);
        assert!((net.flow_rate(solo).unwrap() - 20.0).abs() < 1e-9);
        assert!((net.aggregate_rate() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_path_uncapped_is_infinite() {
        let (mut net, _) = net_with(&[]);
        let a = net.add_flow(FlowSpec::new(vec![], 100.0));
        assert_eq!(net.flow_rate(a), Some(f64::INFINITY));
        let t = net.next_completion_time().unwrap();
        assert_eq!(t, 0.0);
    }

    #[test]
    fn empty_path_with_cap_is_cap() {
        let (mut net, _) = net_with(&[]);
        let a = net.add_flow(FlowSpec::new(vec![], 100.0).with_rate_cap(50.0));
        assert_eq!(net.flow_rate(a), Some(50.0));
    }

    #[test]
    fn capacity_degradation_slows_flows() {
        let (mut net, r) = net_with(&[100.0]);
        let a = net.add_flow(FlowSpec::new(vec![r[0]], 1000.0));
        net.advance_to(5.0); // 500 bytes drained
        net.set_resource_capacity(r[0], 10.0);
        assert_eq!(net.flow_rate(a), Some(10.0));
        let t = net.next_completion_time().unwrap();
        assert!((t - 55.0).abs() < 1e-6, "t = {t}");
    }

    #[test]
    fn cancel_releases_bandwidth() {
        let (mut net, r) = net_with(&[100.0]);
        let a = net.add_flow(FlowSpec::new(vec![r[0]], 1e6));
        let b = net.add_flow(FlowSpec::new(vec![r[0]], 1e6));
        assert_eq!(net.flow_rate(b), Some(50.0));
        assert!(net.cancel(a));
        assert_eq!(net.flow_rate(b), Some(100.0));
        assert!(!net.cancel(a));
    }

    #[test]
    fn run_to_completion_handles_cascading_adds() {
        let (mut net, r) = net_with(&[100.0]);
        net.add_flow(FlowSpec::new(vec![r[0]], 100.0).with_tag(1));
        let mut seen = Vec::new();
        let end = net.run_to_completion(|net, c| {
            seen.push(c.tag);
            if c.tag == 1 {
                net.add_flow(FlowSpec::new(vec![r[0]], 200.0).with_tag(2));
            }
        });
        assert_eq!(seen, vec![1, 2]);
        assert!((end - 3.0).abs() < 1e-6, "end = {end}");
    }

    #[test]
    fn zero_capacity_stalls() {
        let (mut net, r) = net_with(&[0.0]);
        let a = net.add_flow(FlowSpec::new(vec![r[0]], 100.0));
        assert_eq!(net.flow_rate(a), Some(0.0));
        assert_eq!(net.next_completion_time(), None);
    }

    #[test]
    fn set_capacity_rejects_infinity() {
        let (mut net, r) = net_with(&[100.0]);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            net.set_resource_capacity(r[0], f64::INFINITY);
        }))
        .expect_err("infinite capacity must be rejected");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("finite"), "panic names the rule: {msg}");
    }

    #[test]
    fn try_run_reports_starved_resource() {
        let (mut net, r) = net_with(&[100.0, 0.0]);
        net.add_flow(FlowSpec::new(vec![r[0], r[1]], 100.0));
        net.advance_to(2.0);
        let err = net
            .drive(Vec::new(), &FaultTimeline::empty(), |_, _| {})
            .expect_err("stalled network must error");
        assert_eq!(err.at, 2.0);
        assert_eq!(err.starved, vec!["r1".to_string()]);
        assert!(err.to_string().contains("r1"));
    }

    /// Asserts a fault-free drive report: the given end time (as bits),
    /// no stall, no event applied.
    fn assert_healthy(report: &FaultRunReport, end: f64) {
        assert_eq!(report.end.to_bits(), end.to_bits(), "end = {}", report.end);
        assert_eq!(report.stall_seconds.to_bits(), 0.0f64.to_bits());
        assert_eq!(report.events_applied, 0);
        assert_eq!(report.last_event_at, None);
    }

    /// Asserts `(tag, at)` completions match `want` in order, instants
    /// compared as bits.
    fn assert_completions(got: &[(u64, f64)], want: &[(u64, f64)]) {
        assert_eq!(got.len(), want.len(), "{got:?}");
        for ((gt, ga), (wt, wa)) in got.iter().zip(want) {
            assert_eq!(gt, wt, "{got:?}");
            assert_eq!(ga.to_bits(), wa.to_bits(), "{got:?}");
        }
    }

    #[test]
    fn try_run_matches_run_to_completion_when_healthy() {
        // Both flows share 100 B/s: the 500 B one finishes at t=10, the
        // 1000 B one then runs alone and finishes at t=15.
        let make = || {
            let (mut net, r) = net_with(&[100.0]);
            net.add_flow(FlowSpec::new(vec![r[0]], 1000.0).with_tag(1));
            net.add_flow(FlowSpec::new(vec![r[0]], 500.0).with_tag(2));
            net
        };
        let mut done = Vec::new();
        let report = make()
            .drive(Vec::new(), &FaultTimeline::empty(), |_, c| {
                done.push((c.tag, c.at))
            })
            .unwrap();
        assert_healthy(&report, 15.0);
        assert_completions(&done, &[(2, 10.0), (1, 15.0)]);
        let end = make().run_to_completion(|_, _| {});
        assert_eq!(end.to_bits(), report.end.to_bits());
    }

    #[test]
    fn empty_timeline_is_bit_identical_to_plain_run() {
        // The shared 77 B/s link splits evenly: the 700 B flow finishes
        // at 700/38.5, then the 1000 B flow drains its last 300 B alone.
        let make = || {
            let (mut net, r) = net_with(&[123.0, 77.0]);
            net.add_flow(FlowSpec::new(vec![r[0], r[1]], 1000.0).with_tag(1));
            net.add_flow(FlowSpec::new(vec![r[1]], 700.0).with_tag(2));
            net
        };
        let want = [(2, 18.181818181818183), (1, 22.07792207792208)];
        let mut plain_done = Vec::new();
        let plain_end = make().run_to_completion(|_, c| plain_done.push((c.tag, c.at)));
        assert_eq!(plain_end.to_bits(), 22.07792207792208f64.to_bits());
        assert_completions(&plain_done, &want);
        let mut done = Vec::new();
        let report = make()
            .drive(Vec::new(), &FaultTimeline::empty(), |_, c| {
                done.push((c.tag, c.at))
            })
            .unwrap();
        assert_healthy(&report, 22.07792207792208);
        assert_completions(&done, &want);
    }

    #[test]
    fn outage_and_recovery_complete_without_panic() {
        // Automates the manual model in tests/failure_injection.rs:
        // 100 B/s link, 1000 B flow; outage at t=1 (100 B drained),
        // recovery at t=5; remaining 900 B drain by t=14.
        use crate::faults::CapacityEvent;
        let (mut net, r) = net_with(&[100.0]);
        net.add_flow(FlowSpec::new(vec![r[0]], 1000.0));
        let tl = FaultTimeline::new(vec![
            CapacityEvent::new(1.0, r[0], 0.0),
            CapacityEvent::new(5.0, r[0], 1.0),
        ]);
        let report = net.drive(Vec::new(), &tl, |_, _| {}).unwrap();
        assert!((report.end - 14.0).abs() < 1e-6, "end = {}", report.end);
        assert!(
            (report.stall_seconds - 4.0).abs() < 1e-9,
            "stall = {}",
            report.stall_seconds
        );
        assert_eq!(report.events_applied, 2);
        assert_eq!(report.last_event_at, Some(5.0));
    }

    #[test]
    fn degradation_factor_scales_base_capacity() {
        // Degrade to 10% at t=2 (200 B drained), restore at t=4:
        // 20 B drain during the window, 780 B at full rate after.
        use crate::faults::CapacityEvent;
        let (mut net, r) = net_with(&[100.0]);
        net.add_flow(FlowSpec::new(vec![r[0]], 1000.0));
        let tl = FaultTimeline::new(vec![
            CapacityEvent::new(2.0, r[0], 0.1),
            CapacityEvent::new(4.0, r[0], 1.0),
        ]);
        let report = net.drive(Vec::new(), &tl, |_, _| {}).unwrap();
        assert!((report.end - 11.8).abs() < 1e-6, "end = {}", report.end);
        assert_eq!(report.stall_seconds, 0.0);
    }

    #[test]
    fn unrecovered_outage_returns_typed_stall() {
        use crate::faults::CapacityEvent;
        let (mut net, r) = net_with(&[100.0]);
        net.add_flow(FlowSpec::new(vec![r[0]], 1000.0));
        let tl = FaultTimeline::new(vec![CapacityEvent::new(1.0, r[0], 0.0)]);
        let err = net
            .drive(Vec::new(), &tl, |_, _| {})
            .expect_err("no recovery scheduled");
        assert_eq!(err.at, 1.0);
        assert_eq!(err.starved, vec!["r0".to_string()]);
    }

    #[test]
    fn trailing_events_after_completion_are_not_applied() {
        use crate::faults::CapacityEvent;
        let (mut net, r) = net_with(&[100.0]);
        net.add_flow(FlowSpec::new(vec![r[0]], 100.0));
        let tl = FaultTimeline::new(vec![CapacityEvent::new(50.0, r[0], 0.0)]);
        let report = net.drive(Vec::new(), &tl, |_, _| {}).unwrap();
        assert!((report.end - 1.0).abs() < 1e-9);
        assert_eq!(report.events_applied, 0);
        assert_eq!(net.resource_capacity(r[0]), 100.0, "event never applied");
    }

    #[test]
    fn instanced_resource_is_bit_identical_to_expanded_clones() {
        // Expanded: 3 private mounts (40 B/s each) + one shared pool;
        // one 4-member flow group per mount.
        let expanded = || {
            let mut net = FlowNet::new();
            let pool = net.add_resource(ResourceSpec::new("pool", 90.0));
            for i in 0..3u64 {
                let m = net.add_resource(ResourceSpec::new(format!("m{i}"), 40.0));
                net.add_flow(
                    FlowSpec::new(vec![m, pool], 1000.0)
                        .with_multiplicity(4)
                        .with_tag(i),
                );
            }
            net
        };
        // Aggregated: one 3-instance mount resource, one 12-member flow.
        let aggregated = || {
            let mut net = FlowNet::new();
            let pool = net.add_resource(ResourceSpec::new("pool", 90.0));
            let m = net.add_resource(ResourceSpec::new("m", 40.0).with_instances(3));
            net.add_flow(
                FlowSpec::new(vec![m, pool], 1000.0)
                    .with_multiplicity(12)
                    .with_represents(3),
            );
            net
        };
        let (mut e, mut a) = (expanded(), aggregated());
        let te = e.run_to_completion(|_, _| {});
        let ta = a.run_to_completion(|_, _| {});
        assert_eq!(te.to_bits(), ta.to_bits());
        // Counters report expanded-equivalent values either way.
        assert_eq!(e.flows_started(), 3);
        assert_eq!(a.flows_started(), 3);
    }

    #[test]
    fn instanced_fault_counts_every_member_event() {
        use crate::faults::CapacityEvent;
        let mut net = FlowNet::new();
        let m = net.add_resource(ResourceSpec::new("m", 100.0).with_instances(4));
        net.add_flow(
            FlowSpec::new(vec![m], 1000.0)
                .with_multiplicity(4)
                .with_represents(4),
        );
        let tl = FaultTimeline::new(vec![
            CapacityEvent::new(1.0, m, 0.0),
            CapacityEvent::new(5.0, m, 1.0),
        ]);
        let report = net.drive(Vec::new(), &tl, |_, _| {}).unwrap();
        // One aggregate event per edge, but it stands for 4 per-node
        // events — the expanded run would have applied 8.
        assert_eq!(report.events_applied, 8);
        assert!((report.stall_seconds - 4.0).abs() < 1e-9);
    }

    #[test]
    fn open_loop_serial_ops_have_service_latency() {
        // 100 B/s link, 100 B ops arriving far apart: no queueing, each
        // op's latency is its pure service time.
        let (mut net, r) = net_with(&[100.0]);
        let arrivals = vec![
            (1.0, FlowSpec::new(vec![r[0]], 100.0).with_tag(1)),
            (10.0, FlowSpec::new(vec![r[0]], 100.0).with_tag(2)),
        ];
        let mut done = Vec::new();
        let report = net
            .drive(arrivals, &FaultTimeline::empty(), |_, c| {
                done.push((c.tag, c.latency))
            })
            .unwrap();
        assert_eq!(done.len(), 2);
        assert!((done[0].1 - 1.0).abs() < 1e-6, "{done:?}");
        assert!((done[1].1 - 1.0).abs() < 1e-6, "{done:?}");
        assert!((report.end - 11.0).abs() < 1e-6);
        assert_eq!(report.stall_seconds, 0.0);
    }

    #[test]
    fn open_loop_contention_inflates_latency() {
        // Two simultaneous 100 B ops share the 100 B/s link: both take
        // 2 s instead of 1 s.
        let (mut net, r) = net_with(&[100.0]);
        let arrivals = vec![
            (0.5, FlowSpec::new(vec![r[0]], 100.0)),
            (0.5, FlowSpec::new(vec![r[0]], 100.0)),
        ];
        let mut latencies = Vec::new();
        net.drive(arrivals, &FaultTimeline::empty(), |_, c| {
            latencies.push(c.latency)
        })
        .unwrap();
        assert_eq!(latencies.len(), 2);
        for l in &latencies {
            assert!((l - 2.0).abs() < 1e-6, "{latencies:?}");
        }
    }

    #[test]
    fn open_loop_composes_with_outage_and_accounts_stall() {
        // Op arrives at t=0; outage [0.5, 1.5) stalls it mid-transfer;
        // a second op arrives after recovery and is unaffected.
        use crate::faults::CapacityEvent;
        let (mut net, r) = net_with(&[100.0]);
        let arrivals = vec![
            (0.0, FlowSpec::new(vec![r[0]], 100.0).with_tag(1)),
            (3.0, FlowSpec::new(vec![r[0]], 100.0).with_tag(2)),
        ];
        let tl = FaultTimeline::new(vec![
            CapacityEvent::new(0.5, r[0], 0.0),
            CapacityEvent::new(1.5, r[0], 1.0),
        ]);
        let mut done = Vec::new();
        let report = net
            .drive(arrivals, &tl, |_, c| done.push((c.tag, c.latency)))
            .unwrap();
        assert_eq!(done.len(), 2);
        assert!((done[0].1 - 2.0).abs() < 1e-6, "{done:?}");
        assert!((done[1].1 - 1.0).abs() < 1e-6, "{done:?}");
        assert!((report.stall_seconds - 1.0).abs() < 1e-9);
        assert_eq!(report.events_applied, 2);
        assert!((report.end - 4.0).abs() < 1e-6);
    }

    #[test]
    fn open_loop_deferred_submit_counts_queueing() {
        // The op was submitted at t=0 but only admitted at t=2 (deferred
        // admission): its latency includes the 2 s queue.
        let (mut net, r) = net_with(&[100.0]);
        let arrivals = vec![(2.0, FlowSpec::new(vec![r[0]], 100.0).submitted_at(0.0))];
        let mut latencies = Vec::new();
        net.drive(arrivals, &FaultTimeline::empty(), |_, c| {
            latencies.push(c.latency)
        })
        .unwrap();
        assert!((latencies[0] - 3.0).abs() < 1e-6, "{latencies:?}");
    }

    #[test]
    fn open_loop_echoes_op_identity() {
        let (mut net, r) = net_with(&[100.0]);
        let arrivals = vec![(0.0, FlowSpec::new(vec![r[0]], 100.0).with_op(3, 7))];
        let mut ops = Vec::new();
        net.drive(arrivals, &FaultTimeline::empty(), |_, c| ops.push(c.op))
            .unwrap();
        assert_eq!(
            ops,
            vec![Some(OpIdentity {
                class: 3,
                size_bucket: 7
            })]
        );
    }

    #[test]
    fn open_loop_trailing_events_are_not_applied() {
        use crate::faults::CapacityEvent;
        let (mut net, r) = net_with(&[100.0]);
        let arrivals = vec![(0.0, FlowSpec::new(vec![r[0]], 100.0))];
        let tl = FaultTimeline::new(vec![CapacityEvent::new(50.0, r[0], 0.0)]);
        let report = net.drive(arrivals, &tl, |_, _| {}).unwrap();
        assert!((report.end - 1.0).abs() < 1e-9);
        assert_eq!(report.events_applied, 0);
        assert_eq!(net.resource_capacity(r[0]), 100.0);
    }

    #[test]
    fn open_loop_unrecovered_outage_is_a_typed_stall() {
        use crate::faults::CapacityEvent;
        let (mut net, r) = net_with(&[100.0]);
        let arrivals = vec![(0.0, FlowSpec::new(vec![r[0]], 100.0))];
        let tl = FaultTimeline::new(vec![CapacityEvent::new(0.5, r[0], 0.0)]);
        let err = net
            .drive(arrivals, &tl, |_, _| {})
            .expect_err("no recovery and no arrival left");
        assert_eq!(err.starved, vec!["r0".to_string()]);
    }

    #[test]
    fn drive_with_preloaded_flows_and_faults_is_pinned() {
        // No arrivals, every flow present at entry: r0 degrades to 25%
        // over [1, 4). The 700 B flow picks up the slack the capped
        // 1000 B flow leaves on the shared link and finishes earlier
        // than in the healthy run; the other flow ends at the same
        // instant as in the healthy run.
        use crate::faults::CapacityEvent;
        let (mut net, r) = net_with(&[123.0, 77.0]);
        net.add_flow(FlowSpec::new(vec![r[0], r[1]], 1000.0).with_tag(1));
        net.add_flow(FlowSpec::new(vec![r[1]], 700.0).with_tag(2));
        let tl = FaultTimeline::new(vec![
            CapacityEvent::new(1.0, r[0], 0.25),
            CapacityEvent::new(4.0, r[0], 1.0),
        ]);
        let mut done = Vec::new();
        let report = net
            .drive(Vec::new(), &tl, |_, c| done.push((c.tag, c.at)))
            .unwrap();
        assert_eq!(report.end.to_bits(), 22.07792207792208f64.to_bits());
        assert_completions(&done, &[(2, 17.57792207792208), (1, 22.07792207792208)]);
        assert_eq!(report.stall_seconds, 0.0);
        assert_eq!(report.events_applied, 2);
        assert_eq!(report.last_event_at, Some(4.0));
    }

    #[test]
    fn coincident_capacity_events_apply_as_one_batch() {
        // Three events at one instant (a fault fanned out to three
        // member resources) cost one re-solve, not three.
        use crate::faults::CapacityEvent;
        let make = || {
            let (mut net, r) = net_with(&[100.0, 100.0, 100.0]);
            net.add_flow(FlowSpec::new(r.clone(), 1000.0));
            (net, r)
        };
        let (mut healthy, _) = make();
        healthy.run_to_completion(|_, _| {});
        let (mut net, r) = make();
        let tl = FaultTimeline::new(
            r.iter()
                .map(|&id| CapacityEvent::new(1.0, id, 0.5))
                .collect(),
        );
        let report = net.drive(Vec::new(), &tl, |_, _| {}).unwrap();
        assert_eq!(net.rate_epochs(), healthy.rate_epochs() + 1);
        assert_eq!(report.events_applied, 3);
        assert_eq!(report.last_event_at, Some(1.0));
        // 100 B at full rate, then 900 B at half rate.
        assert_eq!(report.end, 19.0);
    }

    #[test]
    fn incremental_solver_matches_scratch_through_event_churn() {
        let (mut net, r) = net_with(&[100.0, 60.0, 250.0, 9.0]);
        let check = |net: &mut FlowNet| {
            net.aggregate_rate(); // force an epoch
            for (id, want) in net.scratch_rates() {
                let got = net.flow_rate(id).unwrap();
                assert_eq!(got.to_bits(), want.to_bits());
            }
        };
        let a = net.add_flow(FlowSpec::new(vec![r[0], r[2]], 1e6).with_weight(2.0));
        check(&mut net);
        let b = net.add_flow(FlowSpec::new(vec![r[1], r[2]], 1e6).with_multiplicity(3));
        net.add_flow(FlowSpec::new(vec![r[3]], 1e6));
        check(&mut net);
        net.advance_to(5.0);
        net.set_resource_capacity(r[2], 120.0);
        check(&mut net);
        net.cancel(a);
        check(&mut net);
        net.add_flow(FlowSpec::new(vec![r[0], r[1]], 1e5).with_rate_cap(7.0));
        check(&mut net);
        net.cancel(b);
        check(&mut net);
        net.run_to_completion(|_, _| {});
    }

    #[test]
    fn untouched_component_keeps_cached_rates_bit_for_bit() {
        // Two disjoint components; churn in one must reproduce the
        // other's rates exactly (they are never re-solved).
        let (mut net, r) = net_with(&[100.0, 70.0]);
        let quiet = net.add_flow(FlowSpec::new(vec![r[1]], 1e6).with_weight(0.3));
        let before = net.flow_rate(quiet).unwrap();
        for i in 0..5 {
            let f = net.add_flow(FlowSpec::new(vec![r[0]], 1e3 * (i + 1) as f64));
            net.flow_rate(f);
            if i % 2 == 0 {
                net.cancel(f);
            }
        }
        net.set_resource_capacity(r[0], 55.0);
        assert_eq!(net.flow_rate(quiet).unwrap().to_bits(), before.to_bits());
    }

    #[test]
    fn conservation_at_every_resource() {
        // Random-ish topology, checked exactly.
        let (mut net, r) = net_with(&[123.0, 77.0, 500.0, 9.0]);
        net.add_flow(FlowSpec::new(vec![r[0], r[2]], 1e6).with_weight(2.0));
        net.add_flow(FlowSpec::new(vec![r[1], r[2]], 1e6).with_multiplicity(3));
        net.add_flow(FlowSpec::new(vec![r[3]], 1e6));
        net.add_flow(FlowSpec::new(vec![r[0], r[1], r[2]], 1e6).with_rate_cap(5.0));
        for (name, alloc, cap) in net.resource_utilization() {
            assert!(
                alloc <= cap * (1.0 + 1e-9),
                "{name}: allocated {alloc} exceeds capacity {cap}"
            );
        }
    }
}
