//! Trace export and re-analysis: run a DLIO simulation, write the
//! DFTracer-style chrome trace to disk, load it back, and re-derive the
//! I/O-time decomposition from the file — the paper's §VI.A offline
//! analysis workflow. Open the JSON in `chrome://tracing` or Perfetto.
//!
//! ```sh
//! cargo run --release --example trace_analysis -- /tmp/resnet50.trace.json
//! ```

use hcs_dftrace::{chrome, decompose};
use hcs_dlio::{resnet50, run_dlio};
use hcs_vast::vast_on_lassen;

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "/tmp/hcs-resnet50.trace.json".to_string());

    // Simulate ResNet-50 on the TCP-mounted VAST, two nodes.
    let vast = vast_on_lassen();
    let cfg = resnet50();
    let result = run_dlio(&vast, &cfg, 2, None);

    // Export the trace the way DFTracer would.
    let json = chrome::to_json(&result.tracer);
    std::fs::write(&path, &json).expect("write trace");
    println!(
        "wrote {} events ({} bytes) to {path}",
        result.tracer.len(),
        json.len()
    );

    // Re-load and re-analyze from the file alone.
    let loaded = chrome::from_json(&std::fs::read_to_string(&path).expect("read trace"))
        .expect("parse trace");
    println!("\nper-node decomposition recovered from the trace file:");
    for pid in loaded.pids() {
        let d = decompose(&loaded, Some(pid));
        println!(
            "  node {pid}: runtime {:6.2}s  io {:5.2}s (overlap {:5.2}s, stall {:5.2}s)  compute {:6.2}s",
            d.total_runtime, d.io_total, d.overlapping_io, d.non_overlapping_io, d.compute_total
        );
    }

    // The file-based analysis must agree with the in-memory one.
    let live = &result.per_node[0];
    let from_file = decompose(&loaded, Some(0));
    assert!((live.io_total - from_file.io_total).abs() < 1e-6);
    println!("\nfile-based analysis matches the live decomposition ✓");
}
