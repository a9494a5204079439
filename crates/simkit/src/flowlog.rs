//! The flow log: raw lifecycle events plus per-resource allocation
//! timelines, gathered by a [`FlowNet`](crate::FlowNet) observer.
//!
//! [`FlowNet::record_flows`](crate::FlowNet::record_flows) starts the
//! log and [`FlowNet::take_flow_log`](crate::FlowNet::take_flow_log)
//! hands it back by value. The log is a pure listener — the network
//! never reads anything back from it — so recording cannot perturb the
//! simulation (the telemetry differential tests pin this bit-for-bit).
//!
//! The log is deliberately *raw*: resource names and capacities, flow
//! lifetimes, and the step-function allocation samples the network
//! emits once per rate epoch. Higher layers (``hcs-core``'s telemetry
//! recorder) attach deployment-stage semantics and convert to trace
//! events; tests drive a bare `FlowNet` and read the timelines
//! directly.

use crate::flownet::{FlowId, FlowSpec, ResourceId};

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
    /// Capacity per resource at `t`, bytes/s. A capacity change shows
    /// here, in the sample of the epoch it starts.
    pub capacity: Vec<f64>,
}

/// Everything the flow log gathered from one network.
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

    pub(crate) fn flow_started(&mut self, now: f64, id: FlowId, spec: &FlowSpec) {
        self.flows.push(FlowRecord {
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

    pub(crate) fn flow_ended(&mut self, now: f64, id: FlowId, completed: bool) {
        // Records are pushed in start order, which is id order.
        if let Ok(i) = self.flows.binary_search_by_key(&id, |f| f.id) {
            self.flows[i].end = Some(now);
            self.flows[i].completed = completed;
        }
    }

    pub(crate) fn sample(&mut self, now: f64, allocated: &[f64], capacity: &[f64]) {
        let sample = AllocSample {
            t: now,
            allocated: allocated.to_vec(),
            capacity: capacity.to_vec(),
        };
        match self.samples.last_mut() {
            Some(last) if last.t == now => *last = sample,
            _ => self.samples.push(sample),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::flownet::{FlowNet, FlowSpec, ResourceSpec};

    #[test]
    fn records_resources_flows_and_samples() {
        let mut net = FlowNet::new();
        net.record_flows();
        let r = net.add_resource(ResourceSpec::new("link", 100.0));
        let a = net.add_flow(FlowSpec::new(vec![r], 1000.0).with_tag(7));
        assert_eq!(net.flow_rate(a), Some(100.0));
        let end = net.run_to_completion(|_, _| {});
        assert!((end - 10.0).abs() < 1e-9);

        let snap = net.take_flow_log().expect("started");
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
        net.record_flows();
        let r1 = net.add_resource(ResourceSpec::new("b", 2.0));
        let snap = net.take_flow_log().expect("started");
        assert_eq!(
            snap.resources,
            vec![("a".to_string(), 1.0), ("b".to_string(), 2.0)]
        );
        assert_eq!((r0.index(), r1.index()), (0, 1));
    }

    #[test]
    fn capacity_changes_and_cancellations_are_logged() {
        let mut net = FlowNet::new();
        net.record_flows();
        let r = net.add_resource(ResourceSpec::new("link", 100.0));
        let a = net.add_flow(FlowSpec::new(vec![r], 1e6));
        net.advance_to(1.0);
        net.set_resource_capacity(r, 50.0);
        // The next rate epoch samples the new capacity.
        assert_eq!(net.flow_rate(a), Some(50.0));
        net.cancel(a);
        let snap = net.take_flow_log().expect("started");
        assert_eq!(
            snap.utilization_of(r),
            vec![(0.0, 100.0, 100.0), (1.0, 50.0, 50.0)]
        );
        assert_eq!(snap.flows.len(), 1);
        assert!(!snap.flows[0].completed);
        assert_eq!(snap.flows[0].end, Some(1.0));
    }

    #[test]
    fn samples_form_a_step_function_across_epochs() {
        let mut net = FlowNet::new();
        net.record_flows();
        let r = net.add_resource(ResourceSpec::new("link", 100.0));
        net.add_flow(FlowSpec::new(vec![r], 1000.0));
        net.add_flow(FlowSpec::new(vec![r], 500.0));
        net.run_to_completion(|_, _| {});
        let tl = net.take_flow_log().expect("started").utilization_of(r);
        // Epoch 1 (two flows, saturated) then epoch 2 (one flow left).
        assert_eq!(tl.len(), 2);
        assert_eq!(tl[0], (0.0, 100.0, 100.0));
        assert!((tl[1].0 - 10.0).abs() < 1e-9);
        assert!((tl[1].1 - 100.0).abs() < 1e-9, "still work-conserving");
    }
}
