//! Timed fault injection: deterministic capacity schedules for a
//! [`FlowNet`](crate::FlowNet).
//!
//! A [`FaultTimeline`] is an ordered list of [`CapacityEvent`]s — at an
//! absolute simulated time, one resource's capacity becomes
//! `base_capacity * factor`, where the base is the capacity the
//! resource had when the drive loop started. Factors always scale the
//! *base*, never the current value, so an outage (`factor = 0.0`)
//! followed by a recovery (`factor = 1.0`) restores the resource
//! exactly, and overlapping degradations never compound by accident.
//!
//! The timeline is consumed by [`FlowNet::drive`](crate::FlowNet::drive),
//! which interleaves events with the analytic completion leap: a
//! zero-capacity window no longer panics the engine — fully stalled
//! flows simply wait for the next scheduled event, and the stalled
//! interval is accounted in the returned [`FaultRunReport`]. Only a
//! *genuinely* unrecoverable stall (no events left, every active flow
//! at rate zero) is an error, and it is a typed [`StallError`] naming
//! the starved resources instead of a bare `expect`.

use std::fmt;

use crate::flownet::ResourceId;

/// One scheduled capacity change: at time `at`, `resource`'s capacity
/// becomes `base * factor` (base = capacity at drive-loop start).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CapacityEvent {
    /// Absolute simulated time in seconds.
    pub at: f64,
    /// The resource whose capacity changes.
    pub resource: ResourceId,
    /// Multiplier applied to the resource's base capacity. `0.0` is a
    /// full outage; `1.0` restores the base capacity.
    pub factor: f64,
}

impl CapacityEvent {
    /// Convenience constructor.
    pub fn new(at: f64, resource: ResourceId, factor: f64) -> Self {
        CapacityEvent {
            at,
            resource,
            factor,
        }
    }
}

/// A deterministic, time-ordered schedule of capacity events.
///
/// Construction sorts events by time (stable, so same-instant events
/// keep their given order — the last one wins for a given resource) and
/// validates every event.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultTimeline {
    events: Vec<CapacityEvent>,
}

impl FaultTimeline {
    /// An empty timeline: a fault-free drive.
    pub fn empty() -> Self {
        FaultTimeline { events: Vec::new() }
    }

    /// Builds a timeline from events, sorting them by time.
    ///
    /// # Panics
    /// Panics if any event has a non-finite or negative time, or a
    /// non-finite or negative factor.
    pub fn new(mut events: Vec<CapacityEvent>) -> Self {
        for e in &events {
            assert!(
                e.at.is_finite() && e.at >= 0.0,
                "fault event time must be finite and non-negative: {}",
                e.at
            );
            assert!(
                e.factor.is_finite() && e.factor >= 0.0,
                "fault capacity factor must be finite and non-negative: {}",
                e.factor
            );
        }
        events.sort_by(|a, b| a.at.total_cmp(&b.at));
        FaultTimeline { events }
    }

    /// The events in time order.
    pub fn events(&self) -> &[CapacityEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// An unrecoverable stall: every active flow is at rate zero and no
/// scheduled capacity event remains to unblock them.
#[derive(Clone, Debug, PartialEq)]
pub struct StallError {
    /// Simulated time at which the stall was detected.
    pub at: f64,
    /// Names of the zero-capacity resources on the stalled flows'
    /// paths, in resource-registration order.
    pub starved: Vec<String>,
}

impl fmt::Display for StallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "all active flows stalled at rate zero at t={}s; starved resource(s): {}",
            self.at,
            if self.starved.is_empty() {
                "<none on path — rate caps or empty network?>".to_string()
            } else {
                self.starved.join(", ")
            }
        )
    }
}

impl std::error::Error for StallError {}

/// Outcome of a [`FlowNet::drive`](crate::FlowNet::drive) run that
/// reached completion.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultRunReport {
    /// Final simulated time (all flows complete).
    pub end: f64,
    /// Total seconds during which *every* active flow was stalled at
    /// rate zero, waiting for a scheduled event.
    pub stall_seconds: f64,
    /// Number of timeline events actually applied before the last flow
    /// completed (trailing events past completion are not applied).
    pub events_applied: usize,
    /// Time of the last applied event, if any — the recovery instant
    /// from which time-to-drain is measured.
    pub last_event_at: Option<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flownet::{FlowNet, ResourceSpec};

    fn rid(net: &mut FlowNet, name: &str, cap: f64) -> ResourceId {
        net.add_resource(ResourceSpec::new(name, cap))
    }

    #[test]
    fn timeline_sorts_events_by_time() {
        let mut net = FlowNet::new();
        let r = rid(&mut net, "link", 100.0);
        let tl = FaultTimeline::new(vec![
            CapacityEvent::new(5.0, r, 1.0),
            CapacityEvent::new(1.0, r, 0.0),
        ]);
        assert_eq!(tl.len(), 2);
        assert_eq!(tl.events()[0].at, 1.0);
        assert_eq!(tl.events()[1].at, 5.0);
        assert!(!tl.is_empty());
        assert!(FaultTimeline::empty().is_empty());
    }

    #[test]
    #[should_panic(expected = "fault event time must be finite")]
    fn timeline_rejects_nonfinite_time() {
        let mut net = FlowNet::new();
        let r = rid(&mut net, "link", 100.0);
        FaultTimeline::new(vec![CapacityEvent::new(f64::NAN, r, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "fault capacity factor must be finite")]
    fn timeline_rejects_nonfinite_factor() {
        let mut net = FlowNet::new();
        let r = rid(&mut net, "link", 100.0);
        FaultTimeline::new(vec![CapacityEvent::new(1.0, r, f64::INFINITY)]);
    }

    #[test]
    fn stall_error_names_the_resource() {
        let err = StallError {
            at: 3.0,
            starved: vec!["gateway".to_string()],
        };
        let msg = err.to_string();
        assert!(msg.contains("t=3"), "{msg}");
        assert!(msg.contains("gateway"), "{msg}");
    }
}
