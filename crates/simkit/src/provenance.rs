//! Per-op latency provenance: exact critical-path blame attribution.
//!
//! [`FlowNet::record_provenance`](crate::FlowNet::record_provenance)
//! starts a probe in the network that decomposes every completed flow's
//! submit→finish latency into four exhaustive components, and
//! [`FlowNet::take_provenance`](crate::FlowNet::take_provenance) hands
//! back the log by value:
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
//! The network feeds the probe its rate table once per *rate epoch* —
//! each flow's achieved and standalone (demand) rate, plus every
//! resource's allocation and capacity — and rates are constant between
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
//! Like the flow log ([`crate::flowlog`]), the provenance probe is a
//! pure listener: the network never reads anything back from it, so a
//! running probe cannot change a single simulated value — the
//! differential tests pin provenance-on runs bit-identical to
//! provenance-off.

use std::collections::BTreeMap;

use crate::flownet::{EpochFeed, EpochFlowSample, FlowId, FlowSpec};

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

/// Everything the provenance probe gathered from one network.
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
    groups: u32,
    submitted_at: f64,
    admitted_at: f64,
    path: Vec<u32>,
    stall: f64,
    blame: BTreeMap<u32, f64>,
}

/// The probe a [`FlowNet`](crate::FlowNet) runs while provenance is
/// on: the log so far plus per-flow accumulators. The epoch's rate
/// table lives in the network's [`EpochFeed`].
pub(crate) struct Probe {
    pub(crate) log: ProvenanceLog,
    pending: BTreeMap<u64, Pending>,
    /// Start time of the current rate epoch.
    epoch_t: f64,
}

impl Pending {
    /// Charges this flow's slice of the epoch that began at `epoch_t`,
    /// up to `now`, to stall, a blamed resource, or (implicitly) the
    /// ideal remainder, from the flow's `sample` and the epoch's
    /// per-resource allocation and capacity.
    fn charge(&mut self, sample: &EpochFlowSample, epoch_t: f64, now: f64, feed: &EpochFeed) {
        let t0 = epoch_t.max(self.admitted_at);
        let dt = now - t0;
        if dt <= 0.0 {
            return;
        }
        if sample.rate == 0.0 {
            self.stall += dt;
        } else if sample.rate < sample.demand * (1.0 - CONTENTION_REL_TOL) {
            // Contended: charge the most-saturated resource on the
            // path (highest allocated/capacity ratio; ties break to
            // the lowest index for determinism).
            let mut binding: Option<(u32, f64)> = None;
            for &r in &self.path {
                let cap = feed.caps[r as usize];
                if cap <= 0.0 {
                    continue;
                }
                let ratio = feed.alloc[r as usize] / cap;
                if binding.is_none_or(|(_, best)| ratio > best) {
                    binding = Some((r, ratio));
                }
            }
            if let Some((r, _)) = binding {
                *self.blame.entry(r).or_insert(0.0) += dt;
            }
        }
        // else: running at demand — ideal service, left to the
        // remainder so conservation is exact by construction.
    }
}

impl Probe {
    /// A probe whose index space starts with `resources`.
    pub(crate) fn new(resources: Vec<(String, f64)>) -> Self {
        Probe {
            log: ProvenanceLog {
                resources,
                ops: Vec::new(),
            },
            pending: BTreeMap::new(),
            epoch_t: 0.0,
        }
    }

    pub(crate) fn flow_started(&mut self, now: f64, id: FlowId, spec: &FlowSpec) {
        self.pending.insert(
            id.raw(),
            Pending {
                tag: spec.tag,
                groups: spec.represents,
                submitted_at: spec.submitted_at.unwrap_or(now),
                admitted_at: now,
                path: spec.path.iter().map(|r| r.index() as u32).collect(),
                stall: 0.0,
                blame: BTreeMap::new(),
            },
        );
    }

    /// A flow ended at `now`; `feed` still holds the epoch it ran in.
    pub(crate) fn flow_ended(&mut self, now: f64, id: FlowId, completed: bool, feed: &EpochFeed) {
        let Some(mut p) = self.pending.remove(&id.raw()) else {
            return;
        };
        // Close the flow's slice of the in-progress epoch: `advance_to`
        // reports completions before the post-completion re-solve, so
        // the interval `[epoch_t, now)` still ran at the current
        // epoch's rates. A flow admitted and finished without ever
        // appearing in a rate epoch (sub-tolerance) has no sample: the
        // remainder absorbs it.
        if let Ok(i) = feed.flows.binary_search_by_key(&id.raw(), |s| s.id.raw()) {
            p.charge(&feed.flows[i], self.epoch_t, now, feed);
        }
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
        self.log.ops.push(OpProvenance { ideal, ..op });
    }

    /// A new rate epoch begins at `now`. The outgoing epoch's rates,
    /// which `feed` still holds, ran from `epoch_t` until now: charge
    /// that interval to every still-pending flow it covered, in one
    /// merge-walk (both sides are in flow-key order).
    pub(crate) fn close_epoch(&mut self, now: f64, feed: &EpochFeed) {
        let mut open = self.pending.iter_mut().peekable();
        for s in &feed.flows {
            let key = s.id.raw();
            while open.next_if(|(k, _)| **k < key).is_some() {}
            if let Some((_, p)) = open.next_if(|(k, _)| **k == key) {
                p.charge(s, self.epoch_t, now, feed);
            }
        }
        self.epoch_t = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultTimeline;
    use crate::flownet::{Completion, FlowNet, ResourceSpec};

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
        net.record_provenance();
        let r = net.add_resource(ResourceSpec::new("link", 100.0));
        net.add_flow(FlowSpec::new(vec![r], 1000.0).with_tag(1));
        net.run_to_completion(|_, _| {});
        let log = net.take_provenance().expect("started");
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
        net.record_provenance();
        let r = net.add_resource(ResourceSpec::new("link", 100.0));
        net.add_flow(FlowSpec::new(vec![r], 1000.0).with_tag(1));
        net.add_flow(FlowSpec::new(vec![r], 1000.0).with_tag(2));
        net.run_to_completion(|_, _| {});
        let log = net.take_provenance().expect("started");
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
        net.record_provenance();
        let r = net.add_resource(ResourceSpec::new("link", 100.0));
        net.add_flow(FlowSpec::new(vec![r], 500.0).with_tag(1));
        net.add_flow(FlowSpec::new(vec![r], 1000.0).with_tag(2));
        net.run_to_completion(|_, _| {});
        let log = net.take_provenance().expect("started");
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
        net.record_provenance();
        let r = net.add_resource(ResourceSpec::new("link", 100.0));
        net.add_flow(FlowSpec::new(vec![r], 1000.0).with_tag(7));
        // Dead from t=4 to t=7, then fully recovered.
        let tl = FaultTimeline::new(vec![
            crate::faults::CapacityEvent::new(4.0, r, 0.0),
            crate::faults::CapacityEvent::new(7.0, r, 1.0),
        ]);
        net.drive(Vec::new(), &tl, |_: &mut FlowNet, _: Completion| {})
            .expect("recovers");
        let log = net.take_provenance().expect("started");
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
        net.record_provenance();
        let r = net.add_resource(ResourceSpec::new("link", 100.0));
        net.advance_to(2.0);
        net.add_flow(FlowSpec::new(vec![r], 100.0).with_tag(1).submitted_at(0.5));
        net.run_to_completion(|_, _| {});
        let log = net.take_provenance().expect("started");
        let op = &log.ops[0];
        assert!((op.queueing - 1.5).abs() < 1e-9);
        assert!((op.latency - 2.5).abs() < 1e-9);
        assert_conserved(&log);
    }

    #[test]
    fn cancelled_flows_are_dropped() {
        let mut net = FlowNet::new();
        net.record_provenance();
        let r = net.add_resource(ResourceSpec::new("link", 100.0));
        let id = net.add_flow(FlowSpec::new(vec![r], 1e6));
        net.advance_to(1.0);
        net.cancel(id);
        assert!(net.take_provenance().expect("started").ops.is_empty());
    }

    #[test]
    fn stacks_beside_a_flow_log_without_disturbing_it() {
        // Either start order: neither observer may disturb the other.
        for provenance_first in [false, true] {
            let mut net = FlowNet::new();
            if provenance_first {
                net.record_provenance();
                net.record_flows();
            } else {
                net.record_flows();
                net.record_provenance();
            }
            let r = net.add_resource(ResourceSpec::new("link", 100.0));
            net.add_flow(FlowSpec::new(vec![r], 1000.0).with_tag(3));
            net.run_to_completion(|_, _| {});
            let flog = net.take_flow_log().expect("started");
            assert_eq!(flog.resources, vec![("link".to_string(), 100.0)]);
            assert_eq!(flog.flows.len(), 1);
            assert!(flog.flows[0].completed);
            let plog = net.take_provenance().expect("started");
            assert_eq!(
                plog.resources,
                vec![("link".to_string(), 100.0)],
                "provenance first: {provenance_first}"
            );
            assert_eq!(plog.ops.len(), 1, "provenance first: {provenance_first}");
            assert_conserved(&plog);
        }
    }
}
