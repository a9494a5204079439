//! The prefetching data-loader pipeline simulation.
//!
//! Per node, the simulated pipeline mirrors a framework data loader
//! (§VI.A: "Data loaders, such as TensorFlow, create a task graph to
//! fetch these batches from storage to memory before the training
//! begins ... AI workloads allow the input pipeline to execute
//! asynchronously in conjunction with the compute"):
//!
//! * `read_threads` workers each fetch one sample at a time from the
//!   storage system into a bounded prefetch queue;
//! * the trainer pops `batch_size` samples, computes for
//!   `compute_time_per_batch`, and repeats; it stalls when the queue is
//!   empty — that stall is exactly the *non-overlapping I/O* of §VI.A;
//! * at an epoch boundary the pipeline drains and the dataset is
//!   re-read.
//!
//! This module builds that pipeline, one [`hcs_core::loader::Loader`]
//! per node, from a [`DlioConfig`]; the result carries the per-node
//! overlap decompositions and the application/system throughputs of
//! Fig 4–6.

use hcs_core::loader::{Checkpoints, Loader, LoaderRun};
use hcs_core::telemetry::Recorder;
use hcs_core::StorageSystem;
use hcs_dftrace::EventCategory;
use hcs_simkit::{FlowNet, IntervalSet};

use crate::config::DlioConfig;
use crate::result::DlioResult;

/// Runs a DLIO workload on a storage system at the given node count.
///
/// With a `recorder`, the pipeline's application events (sample reads,
/// train steps, checkpoints) *and* the flow engine's
/// resource-utilization timelines land in it on its global clock. The
/// result is bit-identical with or without one.
///
/// # Panics
/// Panics with [`DlioConfig::check`]'s diagnostic on an invalid
/// configuration, on zero nodes, or if the pipeline deadlocks (which
/// would indicate a simulator bug).
pub fn run_dlio(
    system: &dyn StorageSystem,
    config: &DlioConfig,
    nodes: u32,
    recorder: Option<&mut Recorder>,
) -> DlioResult {
    config.check().unwrap_or_else(|e| panic!("{e}"));
    assert!(nodes >= 1, "need at least one node");

    let phase = config.phase(nodes);
    let mut net = FlowNet::new();
    // Pure listener — recording cannot change the run (pinned by
    // tests/telemetry_parity.rs).
    if recorder.is_some() {
        net.record_flows();
    }
    let prov = system.provision(&mut net, nodes, 1, &phase);

    // Optional checkpoint write path: a second provisioning pass adds
    // the write-side resources to the same network, so checkpoint
    // traffic and sample reads contend where they share components.
    let wphase = config.checkpoint_phase();
    let wprov = (config.checkpoint_every_batches > 0)
        .then(|| system.provision(&mut net, nodes, 1, &wphase));

    // One loader per node: the node's samples, read one per request,
    // and its batches, the final one partial when the batch size does
    // not divide the node's share.
    let (batch, step) = (config.batch_size as u64, config.compute_time_per_batch);
    let loaders = (0..nodes)
        .map(|n| {
            let per_epoch = config.samples_per_node(nodes, n);
            Loader {
                pid: n,
                path: prov.node_paths[n as usize].clone(),
                reads: vec![config.sample_bytes; per_epoch as usize],
                steps: (0..per_epoch)
                    .step_by(batch as usize)
                    .map(|k| (step, (per_epoch - k).min(batch) as u32))
                    .collect(),
                threads: config.read_threads,
                depth: config.prefetch_depth,
            }
        })
        .collect();
    let out = LoaderRun {
        loaders,
        epochs: config.epochs,
        stream_bw: prov.effective_stream_bw(config.transfer_size),
        // File-per-sample datasets pay the per-file open on every read.
        open_latency: if config.file_per_sample {
            prov.metadata_latency
        } else {
            0.0
        },
        checkpoints: wprov.as_ref().map(|w| Checkpoints {
            every: config.checkpoint_every_batches,
            bytes: config.checkpoint_bytes,
            paths: w.node_paths.clone(),
            stream_bw: w.effective_stream_bw(wphase.transfer_size),
        }),
        event_names: ("read_sample", "train_step"),
    }
    .run(&mut net);

    let checkpoint_io = (0..nodes)
        .map(|n| {
            IntervalSet::from_intervals(
                out.tracer
                    .by_pid(n)
                    .filter(|e| e.cat == EventCategory::Write)
                    .map(|e| e.interval()),
            )
            .total()
        })
        .sum::<f64>()
        / nodes as f64;

    let mut app = 0.0;
    let mut sys = 0.0;
    for (n, d) in out.per_loader.iter().enumerate() {
        let samples = (config.samples_per_node(nodes, n as u32) * config.epochs as u64) as f64;
        app += d.app_throughput(samples);
        sys += d.system_throughput(samples);
    }

    if let (Some(rec), Some(flow_log)) = (recorder, net.take_flow_log()) {
        // Stage attribution covers both provisioning passes (read path
        // and, when checkpointing, the write path into the same net).
        let mut kinds = prov.stage_kinds.clone();
        if let Some(w) = &wprov {
            kinds.extend(w.stage_kinds.iter().copied());
        }
        rec.merge_events(&out.tracer);
        let label = format!("dlio {} {}n", config.name, nodes);
        rec.absorb_phase(&label, &flow_log, &kinds, out.duration);
    }

    DlioResult {
        system: system.description(),
        workload: config.name.clone(),
        nodes,
        duration: out.duration,
        samples_processed: config.total_sample_reads(nodes),
        per_node: out.per_loader,
        mean_per_node: out.mean,
        app_throughput: app,
        system_throughput: sys,
        checkpoint_io,
        tracer: out.tracer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{cosmoflow, resnet50};
    use hcs_gpfs::GpfsConfig;
    use hcs_vast::vast_on_lassen;

    #[test]
    fn completes_all_samples_and_epochs() {
        let sys = GpfsConfig::on_lassen();
        let cfg = resnet50().smoke();
        let r = run_dlio(&sys, &cfg, 2, None);
        assert_eq!(r.samples_processed, cfg.samples * 2);
        let reads = r.tracer.by_category(&EventCategory::Read).count() as u64;
        assert_eq!(reads, cfg.samples * 2);
        let steps = r.tracer.by_category(&EventCategory::Compute).count() as u64;
        assert_eq!(steps, cfg.samples * 2);
    }

    #[test]
    fn epochs_reread_dataset() {
        let sys = GpfsConfig::on_lassen();
        let cfg = cosmoflow().smoke(); // 2 epochs after smoke
        let r = run_dlio(&sys, &cfg, 2, None);
        let reads = r.tracer.by_category(&EventCategory::Read).count() as u64;
        assert_eq!(reads, cfg.samples * cfg.epochs as u64);
    }

    #[test]
    fn deterministic() {
        let sys = vast_on_lassen();
        let cfg = resnet50().smoke();
        let a = run_dlio(&sys, &cfg, 2, None);
        let b = run_dlio(&sys, &cfg, 2, None);
        assert_eq!(a.duration, b.duration);
        assert_eq!(a.mean_per_node, b.mean_per_node);
    }

    #[test]
    fn decomposition_identity_holds() {
        let sys = vast_on_lassen();
        let r = run_dlio(&sys, &resnet50().smoke(), 1, None);
        let d = &r.mean_per_node;
        assert!((d.overlapping_io + d.non_overlapping_io - d.io_total).abs() < 1e-9);
        assert!(d.io_total > 0.0);
        assert!(d.compute_total > 0.0);
    }

    #[test]
    fn compute_dominates_resnet_runtime() {
        // §VI.A: ~97% of runtime is computation when storage keeps up.
        let sys = GpfsConfig::on_lassen();
        let r = run_dlio(&sys, &resnet50(), 1, None);
        assert!(
            r.compute_fraction() > 0.9,
            "compute fraction = {}",
            r.compute_fraction()
        );
    }

    #[test]
    fn vast_tcp_spends_more_io_time_than_gpfs_on_resnet() {
        // Fig 4a: VAST I/O time exceeds GPFS's, but most overlaps.
        let vast = vast_on_lassen();
        let gpfs = GpfsConfig::on_lassen();
        let rv = run_dlio(&vast, &resnet50(), 4, None);
        let rg = run_dlio(&gpfs, &resnet50(), 4, None);
        assert!(
            rv.io_total() > rg.io_total(),
            "{} vs {}",
            rv.io_total(),
            rg.io_total()
        );
        assert!(
            rv.overlapping_io() > rv.non_overlapping_io(),
            "most VAST I/O hides behind compute: {} vs {}",
            rv.overlapping_io(),
            rv.non_overlapping_io()
        );
    }

    #[test]
    fn app_throughput_gap_smaller_than_system_gap_on_resnet() {
        // Fig 5: system throughput differs wildly; application
        // throughput only slightly.
        let vast = vast_on_lassen();
        let gpfs = GpfsConfig::on_lassen();
        let rv = run_dlio(&vast, &resnet50(), 4, None);
        let rg = run_dlio(&gpfs, &resnet50(), 4, None);
        let app_ratio = rg.app_throughput / rv.app_throughput;
        let sys_ratio = rg.system_throughput / rv.system_throughput;
        assert!(app_ratio < 1.3, "app ratio = {app_ratio}");
        assert!(sys_ratio > 2.0, "system ratio = {sys_ratio}");
    }

    #[test]
    fn cosmoflow_starves_on_vast_not_on_gpfs() {
        // Fig 4b / Fig 6: non-overlapping I/O dramatically increases
        // for VAST; GPFS serves Cosmoflow better.
        let vast = vast_on_lassen();
        let gpfs = GpfsConfig::on_lassen();
        let rv = run_dlio(&vast, &cosmoflow(), 4, None);
        let rg = run_dlio(&gpfs, &cosmoflow(), 4, None);
        assert!(
            rv.non_overlapping_io() > 5.0 * rg.non_overlapping_io(),
            "VAST stalls: {} vs GPFS {}",
            rv.non_overlapping_io(),
            rg.non_overlapping_io()
        );
        assert!(rg.app_throughput > 1.3 * rv.app_throughput);
    }

    #[test]
    fn checkpointing_blocks_trainer_and_is_traced() {
        let sys = GpfsConfig::on_lassen();
        let base = resnet50().smoke();
        let ckpt = base.clone().with_checkpointing(16, 500e6);
        let plain = run_dlio(&sys, &base, 2, None);
        let with = run_dlio(&sys, &ckpt, 2, None);
        // 64 samples / 16 = 4 checkpoints per node.
        let writes = with.tracer.by_category(&EventCategory::Write).count();
        assert_eq!(writes, 8);
        assert!(with.checkpoint_io > 0.0);
        assert_eq!(plain.checkpoint_io, 0.0);
        assert!(
            with.duration > plain.duration,
            "synchronous checkpoints lengthen the run: {} vs {}",
            with.duration,
            plain.duration
        );
        // The interval counts batches: 64 samples in batches of 4 are
        // 16 steps, and a checkpoint every 4 batches writes 4.
        let mut batched = base.with_checkpointing(4, 500e6);
        batched.batch_size = 4;
        let r = run_dlio(&sys, &batched, 1, None);
        assert_eq!(r.tracer.by_category(&EventCategory::Compute).count(), 16);
        assert_eq!(r.tracer.by_category(&EventCategory::Write).count(), 4);
    }

    #[test]
    fn checkpoint_cost_scales_with_bytes() {
        let sys = vast_on_lassen();
        let small = run_dlio(
            &sys,
            &resnet50().smoke().with_checkpointing(32, 100e6),
            1,
            None,
        );
        let large = run_dlio(
            &sys,
            &resnet50().smoke().with_checkpointing(32, 1000e6),
            1,
            None,
        );
        assert!(
            large.checkpoint_io > 5.0 * small.checkpoint_io,
            "{} vs {}",
            large.checkpoint_io,
            small.checkpoint_io
        );
    }

    #[test]
    fn partial_final_batch_does_not_deadlock() {
        let sys = GpfsConfig::on_lassen();
        let mut cfg = resnet50().smoke();
        cfg.samples = 13;
        cfg.batch_size = 4; // 3 full batches + 1 partial
        cfg.prefetch_depth = 8;
        let r = run_dlio(&sys, &cfg, 2, None);
        assert_eq!(r.samples_processed, 26);
        let steps = r.tracer.by_category(&EventCategory::Compute).count();
        assert_eq!(steps, 8, "4 steps per node (3 full + 1 partial)");
    }

    #[test]
    fn batched_training_consumes_whole_batches() {
        let sys = GpfsConfig::on_lassen();
        let mut cfg = resnet50().smoke();
        cfg.samples = 32;
        cfg.batch_size = 8;
        let r = run_dlio(&sys, &cfg, 1, None);
        let steps = r.tracer.by_category(&EventCategory::Compute).count();
        assert_eq!(steps, 4);
    }

    #[test]
    fn single_sample_edge_case() {
        let sys = GpfsConfig::on_lassen();
        let mut cfg = resnet50();
        cfg.samples = 1;
        let r = run_dlio(&sys, &cfg, 1, None);
        assert_eq!(r.samples_processed, 1);
        assert!(r.duration > 0.0);
    }

    #[test]
    fn more_nodes_than_samples_strong_scaling() {
        let sys = GpfsConfig::on_lassen();
        let mut cfg = cosmoflow().smoke();
        cfg.samples = 3;
        cfg.epochs = 1;
        let r = run_dlio(&sys, &cfg, 8, None); // 5 nodes idle
        assert_eq!(r.samples_processed, 3);
    }
}
