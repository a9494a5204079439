//! DLIO training simulation: ResNet-50 or Cosmoflow on VAST vs GPFS,
//! with the paper's I/O-time decomposition and throughput analysis.
//!
//! ```sh
//! cargo run --release --example dlio_training -- resnet50 8
//! cargo run --release --example dlio_training -- cosmoflow 4
//! ```

use hcs_dlio::{cosmoflow, resnet50, run_dlio, DlioResult};
use hcs_gpfs::GpfsConfig;
use hcs_vast::vast_on_lassen;

fn report(r: &DlioResult) {
    let d = &r.mean_per_node;
    println!("  {}:", r.system);
    println!("    wall time           {:8.2} s", r.duration);
    println!("    I/O total           {:8.2} s per node", d.io_total);
    println!("      overlapping       {:8.2} s", d.overlapping_io);
    println!(
        "      non-overlapping   {:8.2} s  <- the pipeline stall",
        d.non_overlapping_io
    );
    println!("    compute             {:8.2} s", d.compute_total);
    println!(
        "    compute-only frac   {:8.1} %",
        d.compute_fraction() * 100.0
    );
    println!("    app throughput      {:8.1} samples/s", r.app_throughput);
    println!(
        "    system throughput   {:8.1} samples/s",
        r.system_throughput
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = args.first().map(String::as_str).unwrap_or("resnet50");
    let nodes: u32 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(8);

    let cfg = match workload {
        "resnet50" | "resnet" => resnet50(),
        "cosmoflow" | "cosmo" => cosmoflow(),
        other => {
            eprintln!("unknown workload '{other}', expected resnet50|cosmoflow");
            std::process::exit(2);
        }
    };

    println!(
        "# {} ({}), {} nodes, {} epochs, {} I/O threads, batch {}",
        cfg.name, cfg.framework, nodes, cfg.epochs, cfg.read_threads, cfg.batch_size
    );
    println!(
        "# dataset: {} samples x {:.0} KB, {:?} scaling\n",
        cfg.samples,
        cfg.sample_bytes / 1e3,
        cfg.scaling
    );

    let vast = vast_on_lassen();
    let gpfs = GpfsConfig::on_lassen();
    let rv = run_dlio(&vast, &cfg, nodes, None);
    let rg = run_dlio(&gpfs, &cfg, nodes, None);
    report(&rv);
    println!();
    report(&rg);

    println!(
        "\nGPFS/VAST app-throughput ratio: {:.2}   system-throughput ratio: {:.2}",
        rg.app_throughput / rv.app_throughput,
        rg.system_throughput / rv.system_throughput
    );
}
