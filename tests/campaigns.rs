//! Job-campaign integration: checkpoint/restart cycles across the real
//! deployments, including the Young-interval planning question the
//! checkpoint literature (§III.B refs) asks.

use hcs_core::{young_interval, JobScript};
use hcs_gpfs::GpfsConfig;
use hcs_nvme::LocalNvmeConfig;
use hcs_simkit::units::{GIB, MIB};
use hcs_unifyfs::UnifyFsConfig;
use hcs_vast::vast_on_wombat;

#[test]
fn checkpoint_campaign_orders_storage_systems() {
    // 8 Wombat nodes, 48 ppn, 0.5 GiB of state per rank, 10 cycles.
    let job = JobScript::checkpoint_restart(60.0, 10, 0.5 * GIB, MIB);
    let vast = job.run(&vast_on_wombat(), 8, 48, None);
    let nvme = job.run(&LocalNvmeConfig::on_wombat(), 8, 48, None);
    let unify = job.run(&UnifyFsConfig::on_wombat(), 8, 48, None);

    // All agree on compute; only I/O differs.
    assert_eq!(vast.compute, nvme.compute);
    // The log-structured burst buffer absorbs synchronized checkpoints
    // best at full scale; raw NVMe pays the flush; the shared appliance
    // is contended by all 8 nodes at once.
    assert!(
        unify.step_total("checkpoint") < nvme.step_total("checkpoint"),
        "unify {} vs nvme {}",
        unify.step_total("checkpoint"),
        nvme.step_total("checkpoint")
    );
    assert!(
        unify.step_total("checkpoint") < vast.step_total("checkpoint"),
        "unify {} vs vast {}",
        unify.step_total("checkpoint"),
        vast.step_total("checkpoint")
    );
    assert!(unify.io_fraction() < vast.io_fraction());
}

#[test]
fn young_interval_shifts_with_storage_choice() {
    // Faster checkpoints => checkpoint more often for the same MTBF.
    let job = JobScript::checkpoint_restart(0.0, 1, 0.5 * GIB, MIB);
    let mtbf = 24.0 * 3600.0;
    let vast_ckpt = job
        .run(&vast_on_wombat(), 8, 48, None)
        .step_total("checkpoint");
    let unify_ckpt = job
        .run(&UnifyFsConfig::on_wombat(), 8, 48, None)
        .step_total("checkpoint");
    let vast_interval = young_interval(vast_ckpt, mtbf);
    let unify_interval = young_interval(unify_ckpt, mtbf);
    assert!(
        unify_interval < vast_interval,
        "cheaper checkpoints happen more often: {unify_interval} vs {vast_interval}"
    );
}

#[test]
fn gpfs_campaign_on_lassen_is_deterministic() {
    let job = JobScript::checkpoint_restart(30.0, 5, GIB, MIB);
    let a = job.run(&GpfsConfig::on_lassen(), 16, 44, None);
    let b = job.run(&GpfsConfig::on_lassen(), 16, 44, None);
    assert_eq!(a, b);
    assert_eq!(a.per_step.len(), 11);
}
