//! What-if trace replay: profile a training job once, predict its I/O
//! behaviour on every other storage deployment without re-running it.
//!
//! This is the workflow DFTracer enables in the paper (§IV.C.2) taken
//! one step further: the captured trace's compute timeline is kept
//! verbatim and its reads are re-driven through each candidate system.
//!
//! ```sh
//! cargo run --release --example what_if
//! ```

use hcs_core::StorageSystem;
use hcs_dlio::{resnet50, run_dlio};
use hcs_gpfs::GpfsConfig;
use hcs_replay::{replay, ReplayConfig};
use hcs_unifyfs::UnifyFsConfig;
use hcs_vast::{vast_on_lassen, vast_on_wombat};

fn main() {
    // 1. Capture: run ResNet-50 on the TCP-mounted VAST, 4 nodes, and
    //    keep the DFTracer-style trace.
    let source_sys = vast_on_lassen();
    let captured = run_dlio(&source_sys, &resnet50(), 4, None);
    println!(
        "captured: {} on {} — {} events, io {:.2}s/node (stall {:.3}s)\n",
        captured.workload,
        captured.system,
        captured.tracer.len(),
        captured.mean_per_node.io_total,
        captured.mean_per_node.non_overlapping_io,
    );

    // 2. Replay the same trace against every candidate.
    let gpfs = GpfsConfig::on_lassen();
    let rdma = vast_on_wombat();
    let unify = UnifyFsConfig::on_wombat();
    let candidates: Vec<&dyn StorageSystem> = vec![&source_sys, &gpfs, &rdma, &unify];

    println!(
        "{:<52} {:>10} {:>10} {:>10}",
        "replayed against", "io s/node", "stall s", "wall s"
    );
    for sys in candidates {
        let r = replay(&captured.tracer, sys, &ReplayConfig::default());
        println!(
            "{:<52} {:>10.3} {:>10.4} {:>10.2}",
            r.system, r.mean.io_total, r.mean.non_overlapping_io, r.duration
        );
    }

    println!(
        "\nthe first row is the self-replay control: it should reproduce the\n\
         captured io time. The rest answer: was the storage the problem?"
    );
}
