//! The data-loader pipeline, per process: prefetching reader threads
//! feeding a trainer. It is the workload executor behind DLIO and trace
//! replay, beside [`crate::runner`] for IOR phases and
//! [`crate::campaign`] for job scripts.
//!
//! A [`Loader`]'s reader threads issue its reads in order, each a flow
//! over its resource path capped at one stream's bandwidth with the
//! per-read open latency folded in, into a prefetch queue of `depth`
//! samples (reads in flight count against it). Its trainer runs one
//! step at a time, taking the step's samples off the queue when the step
//! starts, and stalls while the queue is short: the non-overlapping I/O
//! of §VI.A. The next epoch's reads start only once the epoch is
//! consumed and the queue is empty. Synchronous [`Checkpoints`] block
//! the trainer while a write streams to storage.
//!
//! The pipeline is a [`FlowNet::drive`] client: reads and checkpoints
//! are flows whose completions feed it, and its timer ends compute
//! steps. Flow completions win ties with compute ends, as they win
//! every tie with a drive timer; compute ends within 1e-12 s of each
//! other are handled in loader order.

use std::collections::BTreeMap;

use hcs_dftrace::{decompose, EventCategory, IoDecomposition, Tracer};
use hcs_simkit::{Completion, DriveHooks, FaultTimeline, FlowId, FlowNet, FlowSpec, ResourceId};

/// Thread id of the trainer in traces.
const TRAINER_TID: u32 = 1000;

/// One process's data loader.
#[derive(Clone, Debug, PartialEq)]
pub struct Loader {
    /// Process id its trace events carry.
    pub pid: u32,
    /// Resource path every read crosses.
    pub path: Vec<ResourceId>,
    /// One epoch's reads in issue order, bytes.
    pub reads: Vec<f64>,
    /// One epoch's compute steps in order: (seconds, samples consumed).
    pub steps: Vec<(f64, u32)>,
    /// Reader threads.
    pub threads: u32,
    /// Prefetch queue depth, samples.
    pub depth: u32,
}

/// Synchronous checkpoints: after every `every`-th step of an epoch the
/// trainer blocks while `bytes` stream over its write path.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoints {
    /// Steps between checkpoints, at least one (the count restarts
    /// each epoch).
    pub every: u32,
    /// Bytes per checkpoint.
    pub bytes: f64,
    /// Write path per loader, parallel to [`LoaderRun::loaders`].
    pub paths: Vec<Vec<ResourceId>>,
    /// Per-stream write bandwidth; uncapped unless finite and positive.
    pub stream_bw: f64,
}

/// A loader pipeline over an already provisioned [`FlowNet`].
#[derive(Clone, Debug, PartialEq)]
pub struct LoaderRun {
    /// One loader per process.
    pub loaders: Vec<Loader>,
    /// Times each loader repeats its reads and steps.
    pub epochs: u32,
    /// Effective bandwidth of one reader thread's stream.
    pub stream_bw: f64,
    /// Open latency every read pays (file-per-sample datasets), seconds.
    pub open_latency: f64,
    /// Optional synchronous checkpoints.
    pub checkpoints: Option<Checkpoints>,
    /// Trace event names of a read and of a compute step.
    pub event_names: (&'static str, &'static str),
}

/// What a loader run produced.
#[derive(Clone, Debug, PartialEq)]
pub struct LoaderOutcome {
    /// Every read, step and checkpoint as a trace event.
    pub tracer: Tracer,
    /// I/O decomposition per loader, parallel to the loaders.
    pub per_loader: Vec<IoDecomposition>,
    /// Mean of the per-loader decompositions.
    pub mean: IoDecomposition,
    /// Span of the trace, seconds.
    pub duration: f64,
}

#[derive(Clone, Default)]
struct State {
    next_read: usize,
    next_step: usize,
    /// Steps completed this epoch (the checkpoint cadence).
    steps_done: u32,
    queued: u32,
    in_flight: u32,
    /// Reads issued over all epochs (reader thread ids cycle with it).
    issued: u32,
    epochs_done: u32,
    /// The running step: (end, seconds).
    computing: Option<(f64, f64)>,
    checkpointing: bool,
}

/// An in-flight flow: (loader, reader thread or `None` for a
/// checkpoint, start, bytes).
type Pending = (usize, Option<u32>, f64, f64);

struct Pipeline<'a> {
    run: &'a LoaderRun,
    states: Vec<State>,
    pending: BTreeMap<FlowId, Pending>,
    tracer: Tracer,
    /// Drive passes left before the run counts as a deadlock.
    budget: u64,
}

impl LoaderRun {
    /// Drives every loader to completion over `net`, which must already
    /// hold the resources their paths cross.
    ///
    /// A loader whose reads outlast its steps (or the reverse) stops
    /// when it can make no more progress, as a replayed trace with
    /// uneven counts does.
    ///
    /// # Panics
    /// Panics if a loader stalls with both reads and steps left, a flow
    /// stalls at rate zero, or the run exceeds its event budget; each
    /// means a deadlock.
    pub fn run(&self, net: &mut FlowNet) -> LoaderOutcome {
        let n = self.loaders.len();
        let mut p = Pipeline {
            run: self,
            states: vec![State::default(); n],
            pending: BTreeMap::new(),
            tracer: Tracer::new(),
            budget: self
                .loaders
                .iter()
                .map(|l| 6 * (l.reads.len() + l.steps.len()) as u64 * self.epochs as u64)
                .sum::<u64>()
                + 1000,
        };
        for i in 0..n {
            p.start_reads(net, i, 0.0);
        }
        net.drive(Vec::new(), &FaultTimeline::empty(), &mut p)
            .unwrap_or_else(|e| panic!("{e}"));
        for (l, s) in self.loaders.iter().zip(&p.states) {
            let stalled = s.next_read < l.reads.len() && s.next_step < l.steps.len();
            assert!(!stalled, "loader {} deadlocked", l.pid);
        }
        let tracer = p.tracer;
        let per_loader: Vec<IoDecomposition> = self
            .loaders
            .iter()
            .map(|l| decompose(&tracer, Some(l.pid)))
            .collect();
        let mut mean = IoDecomposition::default();
        for d in &per_loader {
            mean.accumulate(d);
        }
        LoaderOutcome {
            mean: mean.scaled(1.0 / n as f64),
            per_loader,
            duration: tracer.span().map(|(a, b)| b - a).unwrap_or(0.0),
            tracer,
        }
    }

    /// A read's rate ceiling: one stream's bandwidth with the open
    /// latency folded into the read's service time.
    fn read_cap(&self, bytes: f64) -> Option<f64> {
        if self.stream_bw.is_finite() && self.stream_bw > 0.0 {
            Some(bytes / (bytes / self.stream_bw + self.open_latency))
        } else if self.open_latency > 0.0 {
            Some(bytes / self.open_latency)
        } else {
            None
        }
    }
}

impl Pipeline<'_> {
    /// Starts as many reads as idle threads and queue space allow.
    fn start_reads(&mut self, net: &mut FlowNet, i: usize, now: f64) {
        let (run, s) = (self.run, &mut self.states[i]);
        let l = &run.loaders[i];
        while s.in_flight < l.threads
            && s.next_read < l.reads.len()
            && s.queued + s.in_flight < l.depth
        {
            let bytes = l.reads[s.next_read];
            // The flow engine has no empty flows: a read moves at least
            // one byte, and its event still records its own size.
            let moved = bytes.max(1.0);
            let mut spec = FlowSpec::new(l.path.clone(), moved);
            if let Some(cap) = run.read_cap(moved) {
                spec = spec.with_rate_cap(cap);
            }
            let id = net.add_flow(spec);
            self.pending
                .insert(id, (i, Some(s.issued % l.threads), now, bytes));
            s.next_read += 1;
            s.issued += 1;
            s.in_flight += 1;
        }
    }

    /// Starts the next step if the trainer is free and its samples are
    /// queued.
    fn try_step(&mut self, i: usize, now: f64) {
        let s = &mut self.states[i];
        if s.computing.is_some() || s.checkpointing {
            return;
        }
        if let Some(&(seconds, samples)) = self.run.loaders[i].steps.get(s.next_step) {
            if s.queued >= samples {
                s.queued -= samples;
                s.next_step += 1;
                s.computing = Some((now + seconds, seconds));
            }
        }
    }

    fn flow_done(&mut self, net: &mut FlowNet, id: FlowId, t: f64) {
        let (i, tid, start, bytes) = self.pending.remove(&id).expect("unknown flow completed");
        let (run, s) = (self.run, &mut self.states[i]);
        let (name, cat, tid) = match tid {
            Some(tid) => {
                s.in_flight -= 1;
                s.queued += 1;
                (run.event_names.0, EventCategory::Read, tid)
            }
            None => {
                s.checkpointing = false;
                ("checkpoint", EventCategory::Write, TRAINER_TID)
            }
        };
        let pid = run.loaders[i].pid;
        self.tracer
            .complete_with_bytes(name, cat, pid, tid, start, t, bytes);
        self.try_step(i, t);
        self.start_reads(net, i, t);
    }

    fn step_done(&mut self, net: &mut FlowNet, i: usize, t: f64) {
        let (run, s) = (self.run, &mut self.states[i]);
        let l = &run.loaders[i];
        let (_, seconds) = s.computing.take().expect("a step is running");
        let (name, cat) = (run.event_names.1, EventCategory::Compute);
        self.tracer
            .complete(name, cat, l.pid, TRAINER_TID, t - seconds, t);
        s.steps_done += 1;
        if let Some(ck) = run
            .checkpoints
            .as_ref()
            .filter(|c| s.steps_done % c.every == 0)
        {
            let mut spec = FlowSpec::new(ck.paths[i].clone(), ck.bytes);
            if ck.stream_bw.is_finite() && ck.stream_bw > 0.0 {
                spec = spec.with_rate_cap(ck.stream_bw);
            }
            let id = net.add_flow(spec);
            self.pending.insert(id, (i, None, t, ck.bytes));
            s.checkpointing = true;
        }
        // Epoch boundary: the epoch is consumed and drained; re-read.
        if s.next_step == l.steps.len() && s.next_read == l.reads.len() && s.queued == 0 {
            s.epochs_done += 1;
            if s.epochs_done < run.epochs {
                (s.next_read, s.next_step, s.steps_done) = (0, 0, 0);
            }
        }
        self.try_step(i, t);
        self.start_reads(net, i, t);
    }
}

impl DriveHooks for &mut Pipeline<'_> {
    fn on_complete(&mut self, net: &mut FlowNet, c: Completion) {
        self.flow_done(net, c.id, c.at);
    }

    /// The earliest running step's end.
    fn next_timer(&mut self) -> Option<f64> {
        assert!(self.budget > 0, "loader pipeline over its event budget");
        self.budget -= 1;
        self.states
            .iter()
            .filter_map(|s| s.computing.map(|(end, _)| end))
            .reduce(f64::min)
    }

    /// Ends every step due now, in loader order.
    fn on_timer(&mut self, net: &mut FlowNet) {
        let t = net.now();
        for i in 0..self.states.len() {
            if self.states[i]
                .computing
                .is_some_and(|(end, _)| (end - t).abs() < 1e-12)
            {
                self.step_done(net, i, t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcs_simkit::ResourceSpec;

    /// A net with one 1 GB/s resource and a run of `loaders` reading
    /// across it at 100 MB/s per stream.
    fn setup(loaders: Vec<Loader>, epochs: u32) -> (FlowNet, LoaderRun) {
        let mut net = FlowNet::new();
        let r = net.add_resource(ResourceSpec::new("disk", 1e9));
        let loaders = loaders
            .into_iter()
            .map(|l| Loader { path: vec![r], ..l })
            .collect();
        let run = LoaderRun {
            loaders,
            epochs,
            stream_bw: 100e6,
            open_latency: 0.0,
            checkpoints: None,
            event_names: ("read", "step"),
        };
        (net, run)
    }

    fn loader(reads: usize, steps: &[(f64, u32)], threads: u32, depth: u32) -> Loader {
        Loader {
            pid: 0,
            path: Vec::new(),
            reads: vec![1e6; reads],
            steps: steps.to_vec(),
            threads,
            depth,
        }
    }

    fn count(out: &LoaderOutcome, cat: EventCategory) -> usize {
        out.tracer.by_category(&cat).count()
    }

    #[test]
    fn epochs_drain_before_the_next_reads() {
        let (mut net, run) = setup(vec![loader(4, &[(0.05, 2), (0.05, 2)], 2, 4)], 2);
        let out = run.run(&mut net);
        assert_eq!(count(&out, EventCategory::Read), 8);
        assert_eq!(count(&out, EventCategory::Compute), 4);
        // The second epoch's first read starts when its first epoch's
        // last step ends.
        let steps: Vec<_> = out.tracer.by_category(&EventCategory::Compute).collect();
        let reads: Vec<_> = out.tracer.by_category(&EventCategory::Read).collect();
        assert_eq!(reads[4].ts, steps[1].end());
        assert_eq!(out.per_loader.len(), 1);
        assert_eq!(out.mean, out.per_loader[0]);
    }

    #[test]
    fn checkpoints_follow_every_nth_step_and_block_the_trainer() {
        let (mut net, mut run) = setup(vec![loader(6, &[(0.01, 1); 6], 1, 2)], 1);
        run.checkpoints = Some(Checkpoints {
            every: 2,
            bytes: 50e6,
            paths: vec![run.loaders[0].path.clone()],
            stream_bw: f64::INFINITY,
        });
        let out = run.run(&mut net);
        let writes: Vec<_> = out.tracer.by_category(&EventCategory::Write).collect();
        assert_eq!(writes.len(), 3);
        for w in writes {
            assert!(out
                .tracer
                .by_category(&EventCategory::Compute)
                .all(|c| c.end() <= w.ts || c.ts >= w.end()));
        }
    }

    #[test]
    fn uneven_reads_and_steps_stop_without_a_deadlock() {
        // Reads outlast steps: the queue fills and the rest never issue.
        let (mut net, run) = setup(vec![loader(10, &[(0.01, 1); 3], 1, 2)], 1);
        assert_eq!(count(&run.run(&mut net), EventCategory::Read), 5);
        // Steps outlast reads: the trainer stops when the queue runs dry.
        let (mut net, run) = setup(vec![loader(2, &[(0.01, 1); 5], 1, 2)], 1);
        assert_eq!(count(&run.run(&mut net), EventCategory::Compute), 2);
    }

    #[test]
    fn a_read_ending_within_tolerance_of_a_step_end_lands_there() {
        // Loader 0 reads for 0.01 s, then computes until 0.01 + 0.05.
        // Loader 1's read is 1e-4 B longer than that span at its stream
        // rate, so the engine counts it finished at the step end.
        let long = (1e6 / 1e8 + 0.05) * 1e8 + 1e-4;
        let late = Loader {
            pid: 1,
            reads: vec![long],
            ..loader(0, &[(0.01, 1)], 1, 1)
        };
        let (mut net, run) = setup(vec![loader(1, &[(0.05, 1)], 1, 1), late], 1);
        let out = run.run(&mut net);
        assert_eq!(count(&out, EventCategory::Read), 2);
        assert_eq!(count(&out, EventCategory::Compute), 2);
        let step_end = 0.060000000000000005;
        let read = out.tracer.by_category(&EventCategory::Read).nth(1);
        assert_eq!(read.map(|r| (r.pid, r.end())), Some((1, step_end)));
        let steps: Vec<u32> = out
            .tracer
            .by_category(&EventCategory::Compute)
            .map(|e| e.pid)
            .collect();
        assert_eq!(steps, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "deadlocked")]
    fn a_step_larger_than_the_queue_deadlocks() {
        let (mut net, run) = setup(vec![loader(4, &[(0.01, 4)], 1, 2)], 1);
        run.run(&mut net);
    }
}
