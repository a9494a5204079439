//! Per-op latency provenance: exact critical-path blame attribution.
//!
//! [`ProvenanceHandle::attach`] installs a probe into a [`FlowNet`]
//! that decomposes every completed flow's submit→finish latency into
//! four exhaustive components:
//!
//! * **queueing** — submit→admission delay (open-loop arrivals held
//!   behind earlier work),
//! * **stall** — time spent in rate-zero epochs (fault outages),
//! * **per-resource blame** — time spent in epochs where the flow's
//!   achieved rate fell short of its standalone demand, charged to the
//!   most-saturated resource on its path (the binding constraint),
//! * **ideal service** — the remainder: epochs where the flow ran at
//!   its demand rate (including alone on a saturated resource —
//!   self-saturation is service, not contention).
//!
//! The network emits its rate table once per *rate epoch*
//! ([`FlowRecorder::on_epoch_rates`]) and rates are constant between
//! epochs, so the attribution is exact, not sampled: every in-flight
//! second of every op lands in exactly one bucket.
//!
//! # Conservation
//!
//! Floating-point addition does not invert subtraction under
//! round-to-nearest (`fl(x + fl(L - x))` can differ from `L` by one
//! ulp), so "the shares sum to the latency" is pinned the only way
//! IEEE-754 allows it to be exact: **ideal service is defined as the
//! canonical subtraction-chain remainder**
//!
//! ```text
//! ideal = ((((latency ⊖ queueing) ⊖ stall) ⊖ blame₀) … ⊖ blameₖ)
//! ```
//!
//! with blames in ascending resource-index order. Recomputing that
//! chain from the stored components reproduces `ideal` bit-for-bit —
//! the conservation property the proptest in `tests/provenance.rs`
//! pins on real runs.
//!
//! Like the [`crate::flowlog`] probe, the provenance probe is a pure
//! listener: the network never reads anything back from it, so an
//! attached probe cannot change a single simulated value — the
//! differential tests pin provenance-on runs bit-identical to
//! provenance-off.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::flownet::{EpochFlowSample, FlowId, FlowNet, FlowRecorder, FlowSpec, OpIdentity};

/// Relative slack below which a flow's achieved rate counts as equal to
/// its standalone demand. Achieved and demand are computed by different
/// (mathematically equal) expressions in the solver, so bitwise
/// equality cannot be expected; one part in 10⁹ is far above
/// accumulated rounding and far below any real contention.
const CONTENTION_REL_TOL: f64 = 1e-9;

/// The exact latency decomposition of one completed flow (group).
#[derive(Clone, Debug, PartialEq)]
pub struct OpProvenance {
    /// The flow's id in the observed network.
    pub id: FlowId,
    /// Caller tag from the [`FlowSpec`].
    pub tag: u64,
    /// Operation identity from the [`FlowSpec`], if any.
    pub op: Option<OpIdentity>,
    /// Expanded flow groups this op stands for (spec `represents`).
    /// Aggregating layers weight by this so blame totals are invariant
    /// under equivalence-class aggregation.
    pub groups: u32,
    /// When the op was submitted (latency is measured from here).
    pub submitted_at: f64,
    /// When the op was admitted into the network.
    pub admitted_at: f64,
    /// When the op completed.
    pub finished_at: f64,
    /// Measured submit→finish latency: `finished_at - submitted_at`,
    /// the same expression the engine's [`crate::flownet::Completion`]
    /// uses, so the two agree bitwise.
    pub latency: f64,
    /// Submit→admission queueing delay: `admitted_at - submitted_at`.
    pub queueing: f64,
    /// Seconds spent in rate-zero epochs (fault stall windows).
    pub stall: f64,
    /// Seconds of contention charged to each binding resource, as
    /// `(resource index, seconds)` in ascending index order.
    pub blame: Vec<(u32, f64)>,
    /// Ideal service time: the canonical subtraction-chain remainder
    /// (see the module docs) — epochs at full demand rate.
    pub ideal: f64,
}

impl OpProvenance {
    /// Recomputes the canonical subtraction chain from the stored
    /// components. Equal to [`OpProvenance::ideal`] bit-for-bit by
    /// construction — the conservation invariant.
    pub fn remainder(&self) -> f64 {
        let mut r = self.latency - self.queueing;
        r -= self.stall;
        for &(_, s) in &self.blame {
            r -= s;
        }
        r
    }
}

/// Everything a [`ProvenanceHandle`] probe gathered from one network.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProvenanceLog {
    /// Registered resources: `(name, capacity at registration)`, in id
    /// order — the index space `OpProvenance::blame` refers into.
    pub resources: Vec<(String, f64)>,
    /// One decomposition per completed flow, in completion order.
    pub ops: Vec<OpProvenance>,
}

/// A flow currently in flight, from the probe's point of view.
#[derive(Clone, Debug)]
struct Pending {
    tag: u64,
    op: Option<OpIdentity>,
    groups: u32,
    submitted_at: f64,
    admitted_at: f64,
    path: Vec<u32>,
    stall: f64,
    blame: BTreeMap<u32, f64>,
}

/// Probe-internal state: the current epoch's rate table plus per-flow
/// accumulators.
#[derive(Default)]
struct State {
    log: ProvenanceLog,
    pending: BTreeMap<u64, Pending>,
    /// Start time of the current rate epoch.
    epoch_t: f64,
    /// Per-flow `(achieved, demand)` rates holding since `epoch_t`.
    epoch: BTreeMap<u64, (f64, f64)>,
    /// Per-resource allocation and capacity holding since `epoch_t`.
    alloc: Vec<f64>,
    caps: Vec<f64>,
}

impl State {
    /// Charges the interval `[epoch_t, now)` of one pending flow to
    /// stall, a blamed resource, or (implicitly) the ideal remainder,
    /// using the current epoch's rate table.
    fn attribute(&mut self, key: u64, now: f64) {
        let Some((rate, demand)) = self.epoch.get(&key).copied() else {
            // Admitted and finished without ever appearing in a rate
            // epoch (sub-tolerance flow): the remainder absorbs it.
            return;
        };
        let Some(p) = self.pending.get_mut(&key) else {
            return;
        };
        let t0 = self.epoch_t.max(p.admitted_at);
        let dt = now - t0;
        if dt <= 0.0 {
            return;
        }
        if rate == 0.0 {
            p.stall += dt;
        } else if rate < demand * (1.0 - CONTENTION_REL_TOL) {
            // Contended: charge the most-saturated resource on the
            // path (highest allocated/capacity ratio; ties break to
            // the lowest index for determinism).
            let mut binding: Option<(u32, f64)> = None;
            for &r in &p.path {
                let cap = self.caps[r as usize];
                if cap <= 0.0 {
                    continue;
                }
                let ratio = self.alloc[r as usize] / cap;
                if binding.map_or(true, |(_, best)| ratio > best) {
                    binding = Some((r, ratio));
                }
            }
            if let Some((r, _)) = binding {
                *p.blame.entry(r).or_insert(0.0) += dt;
            }
        }
        // else: running at demand — ideal service, left to the
        // remainder so conservation is exact by construction.
    }
}

/// The probe installed into the network.
struct Probe(Rc<RefCell<State>>);

impl FlowRecorder for Probe {
    fn on_resource(&mut self, _id: crate::flownet::ResourceId, name: &str, capacity: f64) {
        self.0
            .borrow_mut()
            .log
            .resources
            .push((name.to_string(), capacity));
    }

    fn on_flow_start(&mut self, now: f64, id: FlowId, spec: &FlowSpec) {
        let mut st = self.0.borrow_mut();
        st.pending.insert(
            id.raw(),
            Pending {
                tag: spec.tag,
                op: spec.op,
                groups: spec.represents,
                submitted_at: spec.submitted_at.unwrap_or(now),
                admitted_at: now,
                path: spec.path.iter().map(|r| r.index() as u32).collect(),
                stall: 0.0,
                blame: BTreeMap::new(),
            },
        );
    }

    fn on_flow_end(&mut self, now: f64, id: FlowId, _tag: u64, completed: bool) {
        let mut st = self.0.borrow_mut();
        // Close the flow's slice of the in-progress epoch: `advance_to`
        // reports completions before the post-completion re-solve, so
        // the interval `[epoch_t, now)` still ran at the current
        // epoch's rates.
        st.attribute(id.raw(), now);
        let Some(p) = st.pending.remove(&id.raw()) else {
            return;
        };
        if !completed {
            return; // cancelled — no latency to decompose
        }
        // Same expression as the engine's Completion::latency, so the
        // two agree bitwise.
        let latency = now - p.submitted_at;
        let queueing = p.admitted_at - p.submitted_at;
        let blame: Vec<(u32, f64)> = p.blame.into_iter().collect();
        let op = OpProvenance {
            id,
            tag: p.tag,
            op: p.op,
            groups: p.groups,
            submitted_at: p.submitted_at,
            admitted_at: p.admitted_at,
            finished_at: now,
            latency,
            queueing,
            stall: p.stall,
            blame,
            ideal: 0.0,
        };
        let ideal = op.remainder();
        st.log.ops.push(OpProvenance { ideal, ..op });
    }

    fn on_epoch_rates(
        &mut self,
        now: f64,
        samples: &[EpochFlowSample],
        allocated: &[f64],
        capacity: &[f64],
    ) {
        let mut st = self.0.borrow_mut();
        // The previous epoch's rates held from epoch_t until now:
        // charge that interval to every still-pending flow it covered.
        let keys: Vec<u64> = st.epoch.keys().copied().collect();
        for k in keys {
            st.attribute(k, now);
        }
        st.epoch_t = now;
        st.epoch = samples
            .iter()
            .map(|s| (s.id.raw(), (s.rate, s.demand)))
            .collect();
        st.alloc = allocated.to_vec();
        st.caps = capacity.to_vec();
    }
}

/// Caller-side handle to a provenance probe installed in a network.
pub struct ProvenanceHandle(Rc<RefCell<State>>);

impl ProvenanceHandle {
    /// Creates a probe and installs it into `net` *alongside* any
    /// recorder already attached (via [`FlowNet::stack_recorder`], so a
    /// telemetry flow log and the provenance probe observe the same
    /// run). Attach before adding flows to observe complete lifecycles.
    pub fn attach(net: &mut FlowNet) -> Self {
        let state = Rc::new(RefCell::new(State::default()));
        net.stack_recorder(Box::new(Probe(Rc::clone(&state))));
        ProvenanceHandle(state)
    }

    /// A snapshot of every completed-op decomposition recorded so far.
    pub fn snapshot(&self) -> ProvenanceLog {
        self.0.borrow().log.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultTimeline;
    use crate::flownet::ResourceSpec;

    fn assert_conserved(log: &ProvenanceLog) {
        for op in &log.ops {
            assert_eq!(
                op.ideal.to_bits(),
                op.remainder().to_bits(),
                "conservation broken for tag {}",
                op.tag
            );
        }
    }

    #[test]
    fn lone_saturating_flow_is_all_ideal() {
        let mut net = FlowNet::new();
        let prov = ProvenanceHandle::attach(&mut net);
        let r = net.add_resource(ResourceSpec::new("link", 100.0));
        net.add_flow(FlowSpec::new(vec![r], 1000.0).with_tag(1));
        net.run_to_completion(|_, _| {});
        let log = prov.snapshot();
        assert_eq!(log.ops.len(), 1);
        let op = &log.ops[0];
        // Alone on a saturated link: self-saturation is service.
        assert!(op.blame.is_empty(), "no contention blame: {:?}", op.blame);
        assert_eq!(op.stall, 0.0);
        assert_eq!(op.queueing, 0.0);
        assert_eq!(op.ideal.to_bits(), op.latency.to_bits());
        assert_conserved(&log);
    }

    #[test]
    fn contended_interval_is_blamed_on_the_shared_link() {
        let mut net = FlowNet::new();
        let prov = ProvenanceHandle::attach(&mut net);
        let r = net.add_resource(ResourceSpec::new("link", 100.0));
        net.add_flow(FlowSpec::new(vec![r], 1000.0).with_tag(1));
        net.add_flow(FlowSpec::new(vec![r], 1000.0).with_tag(2));
        net.run_to_completion(|_, _| {});
        let log = prov.snapshot();
        assert_eq!(log.ops.len(), 2);
        // Both flows share the link at 50 each for 20s; both finish at
        // t=20 having spent their whole life contended.
        for op in &log.ops {
            assert!((op.latency - 20.0).abs() < 1e-9);
            assert_eq!(op.blame.len(), 1);
            assert_eq!(op.blame[0].0, r.index() as u32);
            assert!((op.blame[0].1 - 20.0).abs() < 1e-9);
        }
        assert_conserved(&log);
    }

    #[test]
    fn survivor_turns_ideal_after_the_rival_departs() {
        let mut net = FlowNet::new();
        let prov = ProvenanceHandle::attach(&mut net);
        let r = net.add_resource(ResourceSpec::new("link", 100.0));
        net.add_flow(FlowSpec::new(vec![r], 500.0).with_tag(1));
        net.add_flow(FlowSpec::new(vec![r], 1000.0).with_tag(2));
        net.run_to_completion(|_, _| {});
        let log = prov.snapshot();
        let long = log.ops.iter().find(|o| o.tag == 2).expect("tag 2");
        // Contended at 50 B/s until t=10 (rival's 500 B done), then
        // alone at 100 B/s for the remaining 500 B: 5 more seconds.
        assert!((long.latency - 15.0).abs() < 1e-9);
        assert_eq!(long.blame.len(), 1);
        assert!((long.blame[0].1 - 10.0).abs() < 1e-9, "{:?}", long.blame);
        assert!((long.ideal - 5.0).abs() < 1e-9);
        assert_conserved(&log);
    }

    #[test]
    fn outage_windows_land_in_stall() {
        let mut net = FlowNet::new();
        let prov = ProvenanceHandle::attach(&mut net);
        let r = net.add_resource(ResourceSpec::new("link", 100.0));
        net.add_flow(FlowSpec::new(vec![r], 1000.0).with_tag(7));
        // Dead from t=4 to t=7, then fully recovered.
        let tl = FaultTimeline::new(vec![
            crate::faults::CapacityEvent::new(4.0, r, 0.0),
            crate::faults::CapacityEvent::new(7.0, r, 1.0),
        ]);
        net.drive(Vec::new(), &tl, |_, _| {}).expect("recovers");
        let log = prov.snapshot();
        assert_eq!(log.ops.len(), 1);
        let op = &log.ops[0];
        assert!((op.stall - 3.0).abs() < 1e-9, "stall {}", op.stall);
        assert!((op.latency - 13.0).abs() < 1e-9);
        assert!(op.blame.is_empty(), "outage is stall, not contention");
        assert_conserved(&log);
    }

    #[test]
    fn deferred_admission_counts_as_queueing() {
        let mut net = FlowNet::new();
        let prov = ProvenanceHandle::attach(&mut net);
        let r = net.add_resource(ResourceSpec::new("link", 100.0));
        net.advance_to(2.0);
        net.add_flow(FlowSpec::new(vec![r], 100.0).with_tag(1).submitted_at(0.5));
        net.run_to_completion(|_, _| {});
        let log = prov.snapshot();
        let op = &log.ops[0];
        assert!((op.queueing - 1.5).abs() < 1e-9);
        assert!((op.latency - 2.5).abs() < 1e-9);
        assert_conserved(&log);
    }

    #[test]
    fn cancelled_flows_are_dropped() {
        let mut net = FlowNet::new();
        let prov = ProvenanceHandle::attach(&mut net);
        let r = net.add_resource(ResourceSpec::new("link", 100.0));
        let id = net.add_flow(FlowSpec::new(vec![r], 1e6));
        net.advance_to(1.0);
        net.cancel(id);
        assert!(prov.snapshot().ops.is_empty());
    }

    #[test]
    fn stacks_beside_a_flow_log_without_disturbing_it() {
        use crate::flowlog::FlowLogHandle;
        let mut net = FlowNet::new();
        let flowlog = FlowLogHandle::attach(&mut net);
        let prov = ProvenanceHandle::attach(&mut net);
        let r = net.add_resource(ResourceSpec::new("link", 100.0));
        net.add_flow(FlowSpec::new(vec![r], 1000.0).with_tag(3));
        net.run_to_completion(|_, _| {});
        let flog = flowlog.snapshot();
        assert_eq!(flog.resources, vec![("link".to_string(), 100.0)]);
        assert_eq!(flog.flows.len(), 1);
        assert!(flog.flows[0].completed);
        let plog = prov.snapshot();
        assert_eq!(plog.resources, vec![("link".to_string(), 100.0)]);
        assert_eq!(plog.ops.len(), 1);
        assert_conserved(&plog);
    }
}
