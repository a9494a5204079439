//! A collecting [`FlowRecorder`]: raw lifecycle events plus
//! per-resource allocation timelines.
//!
//! [`FlowLogHandle::attach`] installs a probe into a [`FlowNet`] and
//! keeps a shared handle to the data it gathers. The probe is a pure
//! listener — the network never reads anything back from it — so an
//! attached log cannot perturb the simulation (the telemetry
//! differential tests pin this bit-for-bit).
//!
//! The log is deliberately *raw*: resource names and capacities, flow
//! lifetimes, and the step-function allocation samples the network
//! emits once per rate epoch. Higher layers (``hcs-core``'s telemetry
//! recorder) attach deployment-stage semantics and convert to trace
//! events; tests drive a bare `FlowNet` and read the timelines
//! directly.

use std::cell::RefCell;
use std::rc::Rc;

use crate::flownet::{FlowId, FlowNet, FlowRecorder, FlowSpec, ResourceId};

/// One recorded flow (group) lifetime.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowRecord {
    /// The flow's id in the observed network.
    pub id: FlowId,
    /// Caller tag from the [`FlowSpec`].
    pub tag: u64,
    /// Bytes per member flow.
    pub bytes: f64,
    /// Member count.
    pub multiplicity: u32,
    /// Expanded flow groups this record stands for (spec `represents`);
    /// 1 for a plain flow. Group tallies sum this so they are invariant
    /// under equivalence-class aggregation.
    pub groups: u32,
    /// Start time, seconds.
    pub start: f64,
    /// End time, seconds; `None` while still active.
    pub end: Option<f64>,
    /// `true` if the flow completed, `false` if cancelled (or active).
    pub completed: bool,
}

/// One allocation sample: the step-function value holding from `t`
/// until the next sample (or the end of the observation window).
#[derive(Clone, Debug, PartialEq)]
pub struct AllocSample {
    /// Sample time, seconds.
    pub t: f64,
    /// Allocated throughput per resource, indexed by
    /// [`ResourceId::index`], bytes/s.
    pub allocated: Vec<f64>,
    /// Capacity per resource at `t`, bytes/s.
    pub capacity: Vec<f64>,
}

/// Everything a [`FlowLogHandle`] probe gathered from one network.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FlowLog {
    /// Registered resources: `(name, capacity at registration)`, in id
    /// order.
    pub resources: Vec<(String, f64)>,
    /// Flow lifetimes, in start order.
    pub flows: Vec<FlowRecord>,
    /// Allocation samples, ascending in time (at most one per instant —
    /// a later sample at the same time replaces the earlier one, which
    /// only ever happens when several rate epochs collapse onto one
    /// timestamp).
    pub samples: Vec<AllocSample>,
    /// Capacity changes: `(t, resource, new capacity)`, in event order.
    pub capacity_changes: Vec<(f64, ResourceId, f64)>,
}

impl FlowLog {
    /// The utilization timeline of one resource as `(t, allocated,
    /// capacity)` triples — a step function: each entry holds until the
    /// next one.
    pub fn utilization_of(&self, id: ResourceId) -> Vec<(f64, f64, f64)> {
        self.samples
            .iter()
            .map(|s| (s.t, s.allocated[id.index()], s.capacity[id.index()]))
            .collect()
    }
}

/// The probe installed into the network.
struct Probe(Rc<RefCell<FlowLog>>);

impl FlowRecorder for Probe {
    fn on_resource(&mut self, _id: ResourceId, name: &str, capacity: f64) {
        self.0
            .borrow_mut()
            .resources
            .push((name.to_string(), capacity));
    }

    fn on_capacity_change(&mut self, now: f64, id: ResourceId, capacity: f64) {
        self.0
            .borrow_mut()
            .capacity_changes
            .push((now, id, capacity));
    }

    fn on_flow_start(&mut self, now: f64, id: FlowId, spec: &FlowSpec) {
        self.0.borrow_mut().flows.push(FlowRecord {
            id,
            tag: spec.tag,
            bytes: spec.bytes,
            multiplicity: spec.multiplicity,
            groups: spec.represents,
            start: now,
            end: None,
            completed: false,
        });
    }

    fn on_flow_end(&mut self, now: f64, id: FlowId, _tag: u64, completed: bool) {
        let mut log = self.0.borrow_mut();
        if let Some(f) = log.flows.iter_mut().rev().find(|f| f.id == id) {
            f.end = Some(now);
            f.completed = completed;
        }
    }

    fn on_allocation(&mut self, now: f64, allocated: &[f64], capacity: &[f64]) {
        let mut log = self.0.borrow_mut();
        let sample = AllocSample {
            t: now,
            allocated: allocated.to_vec(),
            capacity: capacity.to_vec(),
        };
        match log.samples.last_mut() {
            Some(last) if last.t == now => *last = sample,
            _ => log.samples.push(sample),
        }
    }
}

/// Caller-side handle to a [`FlowLog`] probe installed in a network.
pub struct FlowLogHandle(Rc<RefCell<FlowLog>>);

impl FlowLogHandle {
    /// Creates a probe, installs it into `net` *alongside* any recorder
    /// already attached (via [`FlowNet::stack_recorder`]), and returns
    /// the handle. Attach before adding flows to observe complete
    /// lifecycles (already-registered resources are replayed
    /// automatically).
    pub fn attach(net: &mut FlowNet) -> Self {
        let log = Rc::new(RefCell::new(FlowLog::default()));
        net.stack_recorder(Box::new(Probe(Rc::clone(&log))));
        FlowLogHandle(log)
    }

    /// A snapshot of everything recorded so far.
    pub fn snapshot(&self) -> FlowLog {
        self.0.borrow().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flownet::{FlowSpec, ResourceSpec};

    #[test]
    fn records_resources_flows_and_samples() {
        let mut net = FlowNet::new();
        let log = FlowLogHandle::attach(&mut net);
        let r = net.add_resource(ResourceSpec::new("link", 100.0));
        let a = net.add_flow(FlowSpec::new(vec![r], 1000.0).with_tag(7));
        assert_eq!(net.flow_rate(a), Some(100.0));
        let end = net.run_to_completion(|_, _| {});
        assert!((end - 10.0).abs() < 1e-9);

        let snap = log.snapshot();
        assert_eq!(snap.resources, vec![("link".to_string(), 100.0)]);
        assert_eq!(snap.flows.len(), 1);
        let f = &snap.flows[0];
        assert_eq!(f.tag, 7);
        assert_eq!(f.start, 0.0);
        assert!(f.completed);
        assert!((f.end.unwrap() - 10.0).abs() < 1e-9);
        // One rate epoch: a single sample at t=0 with the link saturated.
        assert_eq!(snap.samples.len(), 1);
        assert_eq!(snap.utilization_of(r), vec![(0.0, 100.0, 100.0)]);
    }

    #[test]
    fn attach_after_resources_replays_them() {
        let mut net = FlowNet::new();
        let r0 = net.add_resource(ResourceSpec::new("a", 1.0));
        let log = FlowLogHandle::attach(&mut net);
        let r1 = net.add_resource(ResourceSpec::new("b", 2.0));
        let snap = log.snapshot();
        assert_eq!(
            snap.resources,
            vec![("a".to_string(), 1.0), ("b".to_string(), 2.0)]
        );
        assert_eq!((r0.index(), r1.index()), (0, 1));
    }

    #[test]
    fn capacity_changes_and_cancellations_are_logged() {
        let mut net = FlowNet::new();
        let log = FlowLogHandle::attach(&mut net);
        let r = net.add_resource(ResourceSpec::new("link", 100.0));
        let a = net.add_flow(FlowSpec::new(vec![r], 1e6));
        net.advance_to(1.0);
        net.set_resource_capacity(r, 50.0);
        net.cancel(a);
        let snap = log.snapshot();
        assert_eq!(snap.capacity_changes, vec![(1.0, r, 50.0)]);
        assert_eq!(snap.flows.len(), 1);
        assert!(!snap.flows[0].completed);
        assert_eq!(snap.flows[0].end, Some(1.0));
    }

    #[test]
    fn samples_form_a_step_function_across_epochs() {
        let mut net = FlowNet::new();
        let log = FlowLogHandle::attach(&mut net);
        let r = net.add_resource(ResourceSpec::new("link", 100.0));
        net.add_flow(FlowSpec::new(vec![r], 1000.0));
        net.add_flow(FlowSpec::new(vec![r], 500.0));
        net.run_to_completion(|_, _| {});
        let tl = log.snapshot().utilization_of(r);
        // Epoch 1 (two flows, saturated) then epoch 2 (one flow left).
        assert_eq!(tl.len(), 2);
        assert_eq!(tl[0], (0.0, 100.0, 100.0));
        assert!((tl[1].0 - 10.0).abs() < 1e-9);
        assert!((tl[1].1 - 100.0).abs() < 1e-9, "still work-conserving");
    }
}
