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
//! # Equivalence-class aggregation
//!
//! A [`ResourceSpec`] may declare `instances = m`: one registered
//! resource standing for `m` identical parallel instances (e.g. the
//! node-local mounts of `m` interchangeable client nodes), each with
//! the *per-instance* capacity. A flow group crossing such a resource
//! is assumed to spread evenly over the instances, so it contributes
//! `multiplicity / instances` shares to the one registered resource —
//! exactly what each individual instance would see. Because IEEE-754
//! division is exact when the quotient is representable (`(m * k) / m
//! == k` for the integer ranges used here, and `x / 1.0 == x` always),
//! an aggregated network produces **bit-identical** per-member rates to
//! the fully expanded one; the differential suite in `tests/` pins
//! this.
//!
//! # Incremental solving
//!
//! Rates are a pure function of the active flow set and capacities, and
//! the constraint graph (flows ↔ resources) decomposes into connected
//! components that share nothing. Each event marks what it touched: a
//! flow start or finish and a capacity change set a dirty bit on the
//! resources involved, and a new flow is *fresh* until its first solve.
//! A solve rebuilds the components with one union-find pass over the
//! active flows' paths and re-solves only those holding a dirty
//! resource or a fresh path-less flow (a path-less flow is its own
//! component). Untouched components keep their cached rates, which are
//! bit-equal to what a fresh solve would produce. The solver's buffers
//! live in the network and are reused, so a solve allocates nothing
//! once they have grown. Debug builds re-derive every rate from scratch
//! after each epoch and assert bit-equality (the differential oracle,
//! [`FlowNet::scratch_rates`]).
//!
//! # Determinism
//!
//! Active flows live in one flat table in ascending creation-order key:
//! keys are issued in increasing order, so a start appends, and a
//! finish or cancellation removes in place without reordering. The
//! filling loop walks a component's flows in that order and its
//! resources in ascending index, so every floating-point sum
//! accumulates in the same order on every run; completions, observer
//! events and rate samples come out in key order too.

use std::fmt;

use crate::faults::{FaultRunReport, FaultTimeline, StallError};
use crate::flowlog::FlowLog;
use crate::provenance::{Probe, ProvenanceLog};

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

/// One active flow's rate standing within a rate epoch, as the
/// provenance probe reads it from the [`EpochFeed`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct EpochFlowSample {
    /// The flow being sampled.
    pub(crate) id: FlowId,
    /// Achieved per-member rate (bytes/s) over this epoch.
    pub(crate) rate: f64,
    /// The per-member rate the flow would achieve standing *alone* at
    /// the current capacities: `min(rate_cap, min over the path of
    /// capacity_r / share_r)`. Comparing the achieved rate against this
    /// demand tells an observer whether the flow was contended during
    /// the epoch without re-running the solver.
    pub(crate) demand: f64,
}

/// What the observers read about the current rate epoch, refilled once
/// per epoch into buffers the network keeps. The values hold from the
/// epoch's start until the next epoch.
#[derive(Default)]
pub(crate) struct EpochFeed {
    /// Allocated throughput per resource, indexed by
    /// [`ResourceId::index`], bytes/s.
    pub(crate) alloc: Vec<f64>,
    /// Capacity per resource, bytes/s.
    pub(crate) caps: Vec<f64>,
    /// One sample per active flow, in key order; filled only while the
    /// provenance probe is on.
    pub(crate) flows: Vec<EpochFlowSample>,
}

/// The network's optional observers: the flow log and the provenance
/// probe. Both are pure listeners — the network never reads anything
/// back from them — so starting one cannot change a single simulated
/// value (the telemetry and provenance differential tests pin this
/// bit-for-bit).
#[derive(Default)]
struct Observers {
    flow_log: Option<FlowLog>,
    provenance: Option<Probe>,
    feed: EpochFeed,
}

impl Observers {
    fn resource(&mut self, name: &str, capacity: f64) {
        if let Some(log) = &mut self.flow_log {
            log.resources.push((name.to_string(), capacity));
        }
        if let Some(p) = &mut self.provenance {
            p.log.resources.push((name.to_string(), capacity));
        }
    }

    fn flow_started(&mut self, now: f64, id: FlowId, spec: &FlowSpec) {
        if let Some(log) = &mut self.flow_log {
            log.flow_started(now, id, spec);
        }
        if let Some(p) = &mut self.provenance {
            p.flow_started(now, id, spec);
        }
    }

    fn flow_ended(&mut self, now: f64, id: FlowId, completed: bool) {
        if let Some(log) = &mut self.flow_log {
            log.flow_ended(now, id, completed);
        }
        if let Some(p) = &mut self.provenance {
            p.flow_ended(now, id, completed, &self.feed);
        }
    }

    /// A rate epoch begins at `now`: provenance charges the outgoing
    /// epoch at the rates the feed still holds, then the feed is
    /// refilled from the new rates and the flow log samples it.
    fn epoch(&mut self, now: f64, flows: &[Flow], resources: &[ResourceSpec]) {
        if self.flow_log.is_none() && self.provenance.is_none() {
            return;
        }
        if let Some(p) = &mut self.provenance {
            p.close_epoch(now, &self.feed);
        }
        let feed = &mut self.feed;
        feed.alloc.clear();
        feed.alloc.resize(resources.len(), 0.0);
        feed.flows.clear();
        for f in flows {
            for h in &f.path {
                feed.alloc[h.res] += f.rate * h.share;
            }
            if self.provenance.is_some() {
                // Standalone rate at the *current* capacities — what the
                // flow would get with the network to itself.
                let mut demand = f.rate_cap.unwrap_or(f64::INFINITY);
                for h in &f.path {
                    demand = demand.min(resources[h.res].capacity / h.share);
                }
                feed.flows.push(EpochFlowSample {
                    id: FlowId(f.key),
                    rate: f.rate,
                    demand,
                });
            }
        }
        feed.caps.clear();
        feed.caps.extend(resources.iter().map(|r| r.capacity));
        if let Some(log) = &mut self.flow_log {
            log.sample(now, &feed.alloc, &feed.caps);
        }
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
    /// each contributes `multiplicity / instances` shares — the
    /// per-instance load. Default 1 (a plain resource).
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

    /// Per-instance member count a flow group of `multiplicity` members
    /// loads onto this resource: `multiplicity / instances`. For a
    /// plain resource (`instances == 1`) this is exactly `multiplicity
    /// as f64` (division by 1.0 is an identity); for an aggregate whose
    /// members divide evenly the IEEE quotient is exact, so aggregated
    /// arithmetic is bit-identical to expanded.
    #[inline]
    fn share(&self, multiplicity: u32) -> f64 {
        multiplicity as f64 / self.instances as f64
    }
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
    /// Opaque caller tag returned in completion reports.
    pub tag: u64,
    /// How many expanded flow *groups* this spec stands for (≥ 1,
    /// default 1). An equivalence-class planner collapsing `g` identical
    /// per-node groups into one aggregate spec sets `represents = g` so
    /// the observers' flow-group tallies (the flow log's, provenance's)
    /// keep reporting expanded-equivalent values.
    pub represents: u32,
    /// When the operation was *submitted*, as opposed to when it was
    /// admitted into the network ([`FlowNet::add_flow`] time). `None`
    /// means "submitted at admission". The completion's latency is
    /// measured from this instant, so deferred admission counts as
    /// queueing time.
    pub submitted_at: Option<f64>,
}

impl FlowSpec {
    /// A single-member flow over `path`.
    pub fn new(path: Vec<ResourceId>, bytes: f64) -> Self {
        FlowSpec {
            path,
            bytes,
            multiplicity: 1,
            rate_cap: None,
            tag: 0,
            represents: 1,
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

    /// Sets the caller tag.
    pub fn with_tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }

    /// Sets the submit time the completion latency is measured from.
    pub fn submitted_at(mut self, t: f64) -> Self {
        self.submitted_at = Some(t);
        self
    }
}

/// One resource on a flow's path, with the per-instance member count
/// the flow loads onto it ([`ResourceSpec::share`]). Instance counts
/// never change, so the share is computed once, at admission.
#[derive(Clone, Copy, Debug)]
struct Hop {
    /// [`ResourceId::index`] of the resource.
    res: usize,
    share: f64,
}

#[derive(Clone, Debug)]
struct Flow {
    /// Creation-order key ([`FlowId::raw`]).
    key: u64,
    path: Vec<Hop>,
    remaining: f64,
    multiplicity: u32,
    rate_cap: Option<f64>,
    tag: u64,
    submitted_at: f64,
    /// Current per-member rate, valid when `rates_valid`.
    rate: f64,
    /// Not solved yet. Only a path-less flow needs the bit: a flow with
    /// a path dirties its resources, which schedules its component.
    fresh: bool,
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
    /// Submit-to-finish latency in seconds: `at` minus the submit
    /// instant ([`FlowSpec::submitted_at`], defaulting to admission) —
    /// queueing included when admission was deferred.
    pub latency: f64,
}

/// A [`FlowNet::drive`] client: it hears every completion and may keep
/// a timer of its own, as the data loader does for compute steps. Any
/// `FnMut(&mut FlowNet, Completion)` closure is a client without a
/// timer (spell out its argument types: they are not inferred through
/// this trait).
pub trait DriveHooks {
    /// Called for each completion at its instant; flows added here
    /// start from that instant.
    fn on_complete(&mut self, net: &mut FlowNet, c: Completion);

    /// The client's next wake-up instant, if any; asked once per pass.
    fn next_timer(&mut self) -> Option<f64> {
        None
    }

    /// Called when simulated time ([`FlowNet::now`]) reaches the timer.
    fn on_timer(&mut self, _net: &mut FlowNet) {}
}

impl<F: FnMut(&mut FlowNet, Completion)> DriveHooks for F {
    fn on_complete(&mut self, net: &mut FlowNet, c: Completion) {
        self(net, c)
    }
}

/// The flow-sharing network: resources plus currently active flows.
pub struct FlowNet {
    resources: Vec<ResourceSpec>,
    /// Active flows in ascending key order (see the module docs).
    flows: Vec<Flow>,
    next_flow: u64,
    now: f64,
    rates_valid: bool,
    completed: Vec<Completion>,
    /// Rate epochs solved so far (one per [`FlowNet::recompute_rates`]
    /// run) — a plain integer add on the solver path, kept whether or
    /// not anything observes it.
    rate_epochs: u64,
    /// Per resource (parallel to `resources`): its constraint set
    /// changed since the last solve — a crossing flow started, finished
    /// or was cancelled, or its capacity changed — so its component
    /// must re-solve.
    dirty: Vec<bool>,
    /// The solver's buffers, reused by every solve.
    scratch: SolveScratch,
    /// The flow log and provenance probe, when started; never consulted
    /// for any computation.
    observers: Observers,
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
            flows: Vec::new(),
            next_flow: 0,
            now: 0.0,
            rates_valid: true,
            completed: Vec::new(),
            rate_epochs: 0,
            dirty: Vec::new(),
            scratch: SolveScratch::default(),
            observers: Observers::default(),
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

    /// Starts (or restarts) the flow log ([`FlowLog`]): resource
    /// registrations, flow lifetimes and one allocation sample per rate
    /// epoch. The log starts with the resources registered so far;
    /// flows already active are not included, so start it before adding
    /// flows to observe complete lifecycles.
    pub fn record_flows(&mut self) {
        self.observers.flow_log = Some(FlowLog {
            resources: self.resource_table(),
            ..FlowLog::default()
        });
    }

    /// Stops the flow log and returns it, or `None` if it was not
    /// started.
    pub fn take_flow_log(&mut self) -> Option<FlowLog> {
        self.observers.flow_log.take()
    }

    /// Starts (or restarts) the latency-provenance probe
    /// ([`crate::provenance`]), which decomposes every flow completed
    /// from now on. Like [`FlowNet::record_flows`], it starts with the
    /// resources registered so far.
    pub fn record_provenance(&mut self) {
        self.observers.provenance = Some(Probe::new(self.resource_table()));
        self.observers.feed.flows.clear();
    }

    /// Stops the provenance probe and returns its log, or `None` if it
    /// was not started.
    pub fn take_provenance(&mut self) -> Option<ProvenanceLog> {
        self.observers.provenance.take().map(|p| p.log)
    }

    /// `(name, capacity)` of every registered resource, in id order.
    fn resource_table(&self) -> Vec<(String, f64)> {
        self.resources
            .iter()
            .map(|r| (r.name.clone(), r.capacity))
            .collect()
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
        self.observers.resource(&spec.name, spec.capacity);
        self.resources.push(spec);
        self.dirty.push(false);
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
        self.dirty[id.index()] = true;
    }

    /// Starts a flow (group). Rates of all flows are re-divided from the
    /// current instant.
    ///
    /// # Panics
    /// Panics if the spec references an unknown resource, has a
    /// non-positive size, or zero multiplicity.
    pub fn add_flow(&mut self, spec: FlowSpec) -> FlowId {
        assert!(spec.bytes > 0.0, "flow size must be positive");
        assert!(spec.multiplicity >= 1, "multiplicity must be >= 1");
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
        self.observers.flow_started(self.now, FlowId(key), &spec);
        let mut path = Vec::with_capacity(spec.path.len());
        for r in &spec.path {
            self.dirty[r.index()] = true;
            path.push(Hop {
                res: r.index(),
                share: self.resources[r.index()].share(spec.multiplicity),
            });
        }
        self.flows.push(Flow {
            key,
            path,
            remaining: spec.bytes,
            multiplicity: spec.multiplicity,
            rate_cap: spec.rate_cap,
            tag: spec.tag,
            submitted_at,
            rate: 0.0,
            fresh: true,
        });
        self.rates_valid = false;
        FlowId(key)
    }

    /// Cancels an active flow. Returns `true` if it existed.
    pub fn cancel(&mut self, id: FlowId) -> bool {
        let Some(slot) = self.slot(id) else {
            return false;
        };
        let f = self.flows.remove(slot);
        for h in &f.path {
            self.dirty[h.res] = true;
        }
        self.rates_valid = false;
        self.observers.flow_ended(self.now, id, false);
        true
    }

    /// The table slot of an active flow.
    fn slot(&self, id: FlowId) -> Option<usize> {
        self.flows.binary_search_by_key(&id.0, |f| f.key).ok()
    }

    /// Number of active flow groups.
    pub fn active_flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Current per-member rate of a flow, if active.
    pub fn flow_rate(&mut self, id: FlowId) -> Option<f64> {
        self.ensure_rates();
        self.slot(id).map(|s| self.flows[s].rate)
    }

    /// Remaining bytes (per member) of a flow, if active.
    pub fn flow_remaining(&self, id: FlowId) -> Option<f64> {
        self.slot(id).map(|s| self.flows[s].remaining)
    }

    /// Aggregate throughput currently allocated across all flows
    /// (bytes/s, members counted).
    pub fn aggregate_rate(&mut self) -> f64 {
        self.ensure_rates();
        self.flows
            .iter()
            .map(|f| f.rate * f.multiplicity as f64)
            .sum()
    }

    /// Absolute time at which the next flow completes, or `None` when no
    /// flow is active or all active flows are stalled at rate zero.
    ///
    /// This, [`FlowNet::advance_to`] and [`FlowNet::take_completed`] are
    /// the stepping primitives [`FlowNet::drive`] is built on; clients
    /// drive the net through `drive`, and only differential tests step
    /// it by hand.
    pub fn next_completion_time(&mut self) -> Option<f64> {
        self.ensure_rates();
        let mut best: Option<f64> = None;
        for f in &self.flows {
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
            for f in &mut self.flows {
                f.remaining -= f.rate * dt;
            }
        }
        self.now = t;
        // Completions leave the table in one order-keeping pass, so they
        // are reported in ascending key order.
        let now = self.now;
        let active = self.flows.len();
        let FlowNet {
            flows,
            dirty,
            completed,
            observers,
            ..
        } = self;
        flows.retain(|f| {
            let done = f.remaining <= f.rate.max(1.0) * REL_EPS * now.max(1.0) + 1e-6;
            if !done {
                return true;
            }
            for h in &f.path {
                dirty[h.res] = true;
            }
            observers.flow_ended(now, FlowId(f.key), true);
            completed.push(Completion {
                id: FlowId(f.key),
                tag: f.tag,
                at: now,
                latency: now - f.submitted_at,
            });
            false
        });
        if self.flows.len() < active {
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
    /// completed, every arrival has been admitted and completed and the
    /// client has no timer left, applying a [`FaultTimeline`] of
    /// capacity events along the way.
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
    /// `hooks` hears every completion and may keep a client timer
    /// ([`DriveHooks`]); a plain closure is a client without one.
    ///
    /// Interleaving is deterministic: time leaps to the earliest of
    /// (next completion, next capacity event, next arrival, client
    /// timer); completions are drained first at a shared instant, then
    /// every capacity event due by then applies as one batch (one
    /// re-solve), then arrivals are admitted, then a due timer fires.
    /// A timer due at the instant of a completion waits one pass and
    /// fires after the re-solve, so completions win ties with timers.
    /// Capacity events past the end of the run are not applied. An
    /// interval in which every active flow sits at rate zero counts
    /// toward [`FaultRunReport::stall_seconds`]; idle gaps with *no*
    /// active flow (waiting for the next arrival or timer) do not. Only
    /// a stall with no event, arrival or timer left returns
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
        mut hooks: impl DriveHooks,
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
            let timer = hooks.next_timer();
            let has_arrivals = pending_arrivals.peek().is_some();
            if self.active_flow_count() == 0 && !has_arrivals && timer.is_none() {
                break;
            }
            let completion = self.next_completion_time();
            let stalled = self.active_flow_count() > 0 && completion.is_none();
            let next_arrival = pending_arrivals.peek().map(|(t, _)| *t);
            let next_event = pending_events.peek().map(|e| e.at);
            let target = [completion, next_event, next_arrival, timer]
                .into_iter()
                .flatten()
                .fold(f64::INFINITY, f64::min);
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
                hooks.on_complete(self, c);
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
            // A timer tied with a completion waits for the next pass.
            if timer.is_some_and(|t| t <= at) && completion.is_none_or(|c| c > at) {
                hooks.on_timer(self);
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
        for f in &self.flows {
            if f.rate > 0.0 {
                continue;
            }
            for h in &f.path {
                let spec = &self.resources[h.res];
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
        self.observers.epoch(self.now, &self.flows, &self.resources);
    }

    /// Max-min fair allocation, solved incrementally.
    ///
    /// The constraint graph decomposes into connected components (flows
    /// joined by shared resources); each component's allocation is
    /// independent of every other's. Only components holding a dirty
    /// resource or a fresh path-less flow are re-solved by progressive
    /// filling; the rest keep their cached rates, which a fresh solve
    /// would reproduce bit-for-bit (the allocation is a pure function of
    /// component state, and the fill iterates in ascending key order).
    fn recompute_rates(&mut self) {
        let n_comp =
            self.scratch
                .components(&self.flows, self.resources.len(), Some(&mut self.dirty));
        for c in 0..n_comp {
            self.scratch.fill(c, &self.flows, &self.resources);
        }
        for &(slot, rate) in &self.scratch.out {
            let f = &mut self.flows[slot as usize];
            f.rate = rate;
            f.fresh = false;
        }

        #[cfg(debug_assertions)]
        self.assert_rates_match_scratch();
    }

    /// The differential oracle: every active flow's rate re-derived
    /// from scratch (full progressive filling, component by component),
    /// ignoring all cached state. Sorted by flow key. Debug builds
    /// assert after every epoch that the incremental solver matches
    /// this bit-for-bit; the proptest differential suite does the same
    /// in release builds.
    pub fn scratch_rates(&self) -> Vec<(FlowId, f64)> {
        let mut scratch = SolveScratch::default();
        let n_comp = scratch.components(&self.flows, self.resources.len(), None);
        for c in 0..n_comp {
            scratch.fill(c, &self.flows, &self.resources);
        }
        let mut all = scratch.out;
        all.sort_unstable_by_key(|&(slot, _)| slot);
        all.into_iter()
            .map(|(slot, rate)| (FlowId(self.flows[slot as usize].key), rate))
            .collect()
    }

    #[cfg(debug_assertions)]
    fn assert_rates_match_scratch(&self) {
        for (f, (id, want)) in self.flows.iter().zip(self.scratch_rates()) {
            let got = f.rate;
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
        for f in &self.flows {
            for h in &f.path {
                alloc[h.res] += f.rate * h.share;
            }
        }
        self.resources
            .iter()
            .zip(alloc)
            .map(|(r, a)| (r.name.clone(), a, r.capacity))
            .collect()
    }
}

/// Marks a union-find root that has no component to solve.
const NO_COMPONENT: u32 = u32::MAX;

/// The solver's reusable buffers. Per-resource vectors span the whole
/// network. The union-find tables are rebuilt by every solve; the fill
/// buffers are only read for a component's own resources and reset
/// before use, so one set serves every component of an epoch. Flows
/// are named by their slot in the key-ordered flow table.
#[derive(Default)]
struct SolveScratch {
    /// Capacity consumed by frozen flows, per resource (per instance).
    frozen_alloc: Vec<f64>,
    /// Shares the unfrozen flows load onto each resource this round.
    shares_on: Vec<f64>,
    /// The fill level at which the resource saturates this round;
    /// infinite when no unfrozen flow crosses it.
    fill_at: Vec<f64>,
    /// Union-find parent per resource; resources crossed by one flow
    /// share a root.
    parent: Vec<u32>,
    /// Per root: whether its component holds a dirty resource.
    root_dirty: Vec<bool>,
    /// Per root: its index among this solve's components, or
    /// [`NO_COMPONENT`].
    comp_of: Vec<u32>,
    /// Per component to solve: flow slots and resource indices, both
    /// ascending. Only as many as [`SolveScratch::components`] last
    /// returned are live; the rest keep their capacity for later solves.
    comp_flows: Vec<Vec<u32>>,
    comp_res: Vec<Vec<u32>>,
    /// A component's flows not yet frozen, and the next round's.
    unfrozen: Vec<u32>,
    still: Vec<u32>,
    /// `(slot, per-member rate)` for every flow solved since the last
    /// [`SolveScratch::components`] call.
    out: Vec<(u32, f64)>,
}

impl SolveScratch {
    /// Partitions the active flows into connected components and lists
    /// the ones to solve: all of them when `dirty` is `None`; otherwise
    /// those holding a dirty resource or a fresh path-less flow, and the
    /// dirty bits are cleared. Returns how many components it listed,
    /// and empties `out` for the solve that follows.
    fn components(&mut self, flows: &[Flow], n_res: usize, dirty: Option<&mut [bool]>) -> usize {
        let solve_all = dirty.is_none();
        self.frozen_alloc.resize(n_res, 0.0);
        self.shares_on.resize(n_res, 0.0);
        self.fill_at.resize(n_res, 0.0);
        self.out.clear();
        self.parent.clear();
        self.parent.extend(0..n_res as u32);
        for f in flows {
            if let Some((first, rest)) = f.path.split_first() {
                let mut root = self.find(first.res);
                for h in rest {
                    let other = self.find(h.res);
                    if other != root {
                        let (a, b) = (root.min(other), root.max(other));
                        self.parent[b] = a as u32;
                        root = a;
                    }
                }
            }
        }
        self.root_dirty.clear();
        self.root_dirty.resize(n_res, solve_all);
        if let Some(dirty) = dirty {
            for (r, d) in dirty.iter_mut().enumerate() {
                if std::mem::take(d) {
                    let root = self.find(r);
                    self.root_dirty[root] = true;
                }
            }
        }
        self.comp_of.clear();
        self.comp_of.resize(n_res, NO_COMPONENT);
        let mut n_comp = 0;
        for (slot, f) in flows.iter().enumerate() {
            let c = match f.path.first() {
                None if solve_all || f.fresh => self.open_component(&mut n_comp),
                None => continue,
                Some(h) => {
                    let root = self.find(h.res);
                    if !self.root_dirty[root] {
                        continue;
                    }
                    if self.comp_of[root] == NO_COMPONENT {
                        self.comp_of[root] = self.open_component(&mut n_comp);
                    }
                    self.comp_of[root]
                }
            };
            self.comp_flows[c as usize].push(slot as u32);
        }
        for r in 0..n_res {
            let root = self.find(r);
            let c = self.comp_of[root];
            if c != NO_COMPONENT {
                self.comp_res[c as usize].push(r as u32);
            }
        }
        n_comp as usize
    }

    /// Union-find root of resource `r`, halving the path on the way.
    fn find(&mut self, mut r: usize) -> usize {
        let parent = &mut self.parent;
        while parent[r] as usize != r {
            let grand = parent[parent[r] as usize];
            parent[r] = grand;
            r = grand as usize;
        }
        r
    }

    /// Opens component `n_comp` (then counts it), reusing the lists an
    /// earlier solve left there.
    fn open_component(&mut self, n_comp: &mut u32) -> u32 {
        let c = *n_comp;
        if self.comp_flows.len() == c as usize {
            self.comp_flows.push(Vec::new());
            self.comp_res.push(Vec::new());
        } else {
            self.comp_flows[c as usize].clear();
            self.comp_res[c as usize].clear();
        }
        *n_comp += 1;
        c
    }

    /// Progressive filling over component `c` of the last
    /// [`SolveScratch::components`] call. Pure with respect to flow
    /// state: resolved `(slot, per-member rate)` pairs are pushed into
    /// `out`.
    fn fill(&mut self, c: usize, flows: &[Flow], resources: &[ResourceSpec]) {
        let SolveScratch {
            frozen_alloc,
            shares_on,
            fill_at,
            comp_flows,
            comp_res,
            unfrozen,
            still,
            out,
            ..
        } = self;
        let comp_res = &comp_res[c];
        for &r in comp_res {
            frozen_alloc[r as usize] = 0.0;
        }
        unfrozen.clear();
        unfrozen.extend_from_slice(&comp_flows[c]);
        while !unfrozen.is_empty() {
            // Recompute active shares exactly each round (incremental
            // subtraction leaves floating-point residue that can make a
            // fully-frozen resource look contended and stall the loop).
            for &r in comp_res {
                shares_on[r as usize] = 0.0;
            }
            for &s in unfrozen.iter() {
                for h in &flows[s as usize].path {
                    shares_on[h.res] += h.share;
                }
            }
            // Candidate fill level from resources.
            let mut level = f64::INFINITY;
            for &r in comp_res {
                let ri = r as usize;
                let cap_rem = (resources[ri].capacity - frozen_alloc[ri]).max(0.0);
                fill_at[ri] = if shares_on[ri] > 0.0 {
                    cap_rem.max(0.0) / shares_on[ri]
                } else {
                    f64::INFINITY
                };
                level = level.min(fill_at[ri]);
            }
            // Candidate fill level from per-flow caps.
            for &s in unfrozen.iter() {
                if let Some(cap) = flows[s as usize].rate_cap {
                    level = level.min(cap);
                }
            }
            if !level.is_finite() {
                // No shared resources and no caps: unconstrained flows.
                out.extend(unfrozen.iter().map(|&s| (s, f64::INFINITY)));
                break;
            }

            // Freeze: cap-limited flows at their cap; flows through a
            // saturated bottleneck at the level.
            let tol = level.abs() * 1e-12 + 1e-30;
            still.clear();
            let mut froze_any = false;
            for &s in unfrozen.iter() {
                let f = &flows[s as usize];
                let cap_level = f.rate_cap.unwrap_or(f64::INFINITY);
                let on_bottleneck = f.path.iter().any(|h| fill_at[h.res] <= level + tol);
                if cap_level <= level + tol || on_bottleneck {
                    let rate = level.min(cap_level);
                    out.push((s, rate));
                    for h in &f.path {
                        frozen_alloc[h.res] += rate * h.share;
                    }
                    froze_any = true;
                } else {
                    still.push(s);
                }
            }
            debug_assert!(froze_any, "progressive filling made no progress");
            if !froze_any {
                // Defensive: freeze everything at the current level.
                out.extend(still.iter().map(|&s| (s, level)));
                break;
            }
            std::mem::swap(unfrozen, still);
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
        assert_eq!((net.rate_epochs(), net.active_flow_count()), (0, 0));
        net.add_flow(FlowSpec::new(vec![r[0]], 1000.0));
        net.add_flow(FlowSpec::new(vec![r[0]], 500.0));
        assert_eq!(net.active_flow_count(), 2);
        net.run_to_completion(|_, _| {});
        assert_eq!(net.active_flow_count(), 0);
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
    fn a_timer_tied_with_a_completion_fires_after_the_re_solve() {
        /// Logs (hook, instant, rate epochs so far).
        struct Client {
            timers: Vec<f64>,
            log: Vec<(&'static str, f64, u64)>,
        }
        impl DriveHooks for &mut Client {
            fn on_complete(&mut self, net: &mut FlowNet, c: Completion) {
                self.log.push(("done", c.at, net.rate_epochs()));
            }
            fn next_timer(&mut self) -> Option<f64> {
                self.timers.first().copied()
            }
            fn on_timer(&mut self, net: &mut FlowNet) {
                self.timers.remove(0);
                self.log.push(("timer", net.now(), net.rate_epochs()));
            }
        }
        // The flow finishes at t=1, tied with the first timer; the
        // second timer keeps the loop going with no flow left.
        let (mut net, r) = net_with(&[100.0]);
        net.add_flow(FlowSpec::new(vec![r[0]], 100.0));
        let mut client = Client {
            timers: vec![1.0, 2.0],
            log: Vec::new(),
        };
        let report = net
            .drive(Vec::new(), &FaultTimeline::empty(), &mut client)
            .unwrap();
        let want = [("done", 1.0, 1), ("timer", 1.0, 2), ("timer", 2.0, 2)];
        assert_eq!(client.log, want);
        assert_healthy(&report, 2.0);
    }

    #[test]
    fn try_run_reports_starved_resource() {
        let (mut net, r) = net_with(&[100.0, 0.0]);
        net.add_flow(FlowSpec::new(vec![r[0], r[1]], 100.0));
        net.advance_to(2.0);
        let err = net
            .drive(
                Vec::new(),
                &FaultTimeline::empty(),
                |_: &mut FlowNet, _: Completion| {},
            )
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
            .drive(
                Vec::new(),
                &FaultTimeline::empty(),
                |_: &mut FlowNet, c: Completion| done.push((c.tag, c.at)),
            )
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
            .drive(
                Vec::new(),
                &FaultTimeline::empty(),
                |_: &mut FlowNet, c: Completion| done.push((c.tag, c.at)),
            )
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
        let report = net
            .drive(Vec::new(), &tl, |_: &mut FlowNet, _: Completion| {})
            .unwrap();
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
        let report = net
            .drive(Vec::new(), &tl, |_: &mut FlowNet, _: Completion| {})
            .unwrap();
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
            .drive(Vec::new(), &tl, |_: &mut FlowNet, _: Completion| {})
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
        let report = net
            .drive(Vec::new(), &tl, |_: &mut FlowNet, _: Completion| {})
            .unwrap();
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
        let report = net
            .drive(Vec::new(), &tl, |_: &mut FlowNet, _: Completion| {})
            .unwrap();
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
            .drive(
                arrivals,
                &FaultTimeline::empty(),
                |_: &mut FlowNet, c: Completion| done.push((c.tag, c.latency)),
            )
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
        net.drive(
            arrivals,
            &FaultTimeline::empty(),
            |_: &mut FlowNet, c: Completion| latencies.push(c.latency),
        )
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
            .drive(arrivals, &tl, |_: &mut FlowNet, c: Completion| {
                done.push((c.tag, c.latency))
            })
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
        net.drive(
            arrivals,
            &FaultTimeline::empty(),
            |_: &mut FlowNet, c: Completion| latencies.push(c.latency),
        )
        .unwrap();
        assert!((latencies[0] - 3.0).abs() < 1e-6, "{latencies:?}");
    }

    #[test]
    fn open_loop_trailing_events_are_not_applied() {
        use crate::faults::CapacityEvent;
        let (mut net, r) = net_with(&[100.0]);
        let arrivals = vec![(0.0, FlowSpec::new(vec![r[0]], 100.0))];
        let tl = FaultTimeline::new(vec![CapacityEvent::new(50.0, r[0], 0.0)]);
        let report = net
            .drive(arrivals, &tl, |_: &mut FlowNet, _: Completion| {})
            .unwrap();
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
            .drive(arrivals, &tl, |_: &mut FlowNet, _: Completion| {})
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
            .drive(Vec::new(), &tl, |_: &mut FlowNet, c: Completion| {
                done.push((c.tag, c.at))
            })
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
        let report = net
            .drive(Vec::new(), &tl, |_: &mut FlowNet, _: Completion| {})
            .unwrap();
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
        let a = net.add_flow(FlowSpec::new(vec![r[0], r[2]], 1e6).with_multiplicity(2));
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
        let quiet = net.add_flow(FlowSpec::new(vec![r[1]], 1e6).with_multiplicity(3));
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
        net.add_flow(FlowSpec::new(vec![r[0], r[2]], 1e6).with_multiplicity(2));
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
