//! Ablation experiments beyond the paper — isolating the design choices
//! DESIGN.md calls out.
//!
//! The paper itself motivates the first of these (§V.A: "we plan on
//! deploying a custom VAST configuration on cloud-like resources ... to
//! test this" — the gateway-width hypothesis the authors could not test
//! on production hardware, and the simulator can).
//!
//! Ablations that only touch the *deployment graph* (gateway width,
//! transport swap) or only sweep registry systems (burst buffer,
//! metadata) are declarative [`Deck`]s with [`GraphEdit`] axes — fully
//! expressible as scenario JSON. The rest mutate backend calibration
//! fields a registry name cannot express; they build their systems
//! directly but run through the same executor
//! ([`crate::deck::run_workload_on`]).

use hcs_core::scenario::{GraphEdit, IorConfig, MdtestConfig, Scenario, Workload, WorkloadClass};
use hcs_core::{Deck, StageKind};
use hcs_dlio::cosmoflow;
use hcs_gpfs::GpfsConfig;
use hcs_lustre::LustreConfig;
use hcs_mdtest::MetaOp;
use hcs_simkit::units::gbit_per_s;
use hcs_vast::{vast_on_lassen, vast_on_wombat};

use crate::deck::{run_deck, run_workload_on, Meter};
use crate::series::{Figure, Point, Series};
use crate::sweep::{parallel_sweep, Scale};

/// Gateway uplink widths swept by [`gateway_width_deck`], Gb.
const GATEWAY_WIDTHS: [f64; 5] = [100.0, 200.0, 400.0, 800.0, 1600.0];

/// `nconnect` values swept by [`nconnect_deck`].
const NCONNECT_COUNTS: [u32; 5] = [1, 2, 4, 8, 16];

/// Gateway-uplink width deck on Lassen: each edit set retargets the
/// gateway stage's capacity — a pure deployment-graph edit, no backend
/// change.
pub fn gateway_width_deck(scale: Scale) -> Deck {
    let base = Scenario::new(
        "vast-lassen",
        Workload::Ior(IorConfig::paper_scalability(
            WorkloadClass::DataAnalytics,
            64,
            44,
        )),
    )
    .with_reps(scale.reps());
    let mut deck = Deck::single("ablation.gateway", base)
        .with_title("VAST@Lassen aggregate seq-read bandwidth vs gateway uplink");
    deck.axes.edit_sets = GATEWAY_WIDTHS
        .iter()
        .map(|&gb| {
            vec![GraphEdit::SetPoolCapacity {
                kind: StageKind::Gateway,
                capacity: gbit_per_s(gb),
            }]
        })
        .collect();
    deck
}

/// Gateway-uplink width sweep on Lassen: how much aggregate VAST
/// bandwidth would wider gateway Ethernet buy at 64 nodes?
pub fn gateway_width_sweep(scale: Scale) -> Figure {
    let result = run_deck(&gateway_width_deck(scale), None, Meter::Off);
    let mut fig = Figure::new(
        result.name.clone(),
        result.title.clone(),
        "gateway uplink (Gb)",
        "aggregate bandwidth (GB/s)",
    );
    fig.series.push(Series {
        label: "VAST (wider gateway)".into(),
        points: result
            .points
            .iter()
            .zip(GATEWAY_WIDTHS)
            .map(|(p, gb)| Point::new(gb, p.outcome.ior().mean_bandwidth() / 1e9))
            .collect(),
    });
    fig
}

/// `nconnect` deck on Wombat: each edit set swaps the client transport
/// for the same RDMA spec with a different connection count.
pub fn nconnect_deck(scale: Scale) -> Deck {
    let base_sys = vast_on_wombat();
    let base = Scenario::new(
        "vast-wombat",
        Workload::Ior(IorConfig::paper_scalability(
            WorkloadClass::DataAnalytics,
            1,
            48,
        )),
    )
    .with_reps(scale.reps());
    let mut deck = Deck::single("ablation.nconnect", base)
        .with_title("VAST@Wombat per-node seq-read bandwidth vs nconnect");
    deck.axes.edit_sets = NCONNECT_COUNTS
        .iter()
        .map(|&n| {
            let mut t = base_sys.transport.clone();
            t.nconnect = n;
            vec![GraphEdit::SwapTransport {
                transport: t,
                client_nic_bw: base_sys.client_nic_bw,
            }]
        })
        .collect();
    deck
}

/// `nconnect` sweep on Wombat: per-node read bandwidth vs connection
/// count (the knob behind the 8× takeaway).
pub fn nconnect_sweep(scale: Scale) -> Figure {
    let result = run_deck(&nconnect_deck(scale), None, Meter::Off);
    let mut fig = Figure::new(
        result.name.clone(),
        result.title.clone(),
        "nconnect",
        "per-node bandwidth (GB/s)",
    );
    fig.series.push(Series {
        label: "VAST (RDMA)".into(),
        points: result
            .points
            .iter()
            .zip(NCONNECT_COUNTS)
            .map(|(p, n)| Point::new(n as f64, p.outcome.ior().mean_bandwidth() / 1e9))
            .collect(),
    });
    fig
}

/// Similarity-reduction ablation: write bandwidth with the reduction
/// pipeline on (CPU-bound CNodes, less media traffic) vs off (faster
/// CNodes, full media traffic).
///
/// Mutates VAST calibration fields, so it builds its systems directly
/// and shares only the executor.
pub fn similarity_ablation(scale: Scale) -> Figure {
    let mut fig = Figure::new(
        "ablation.similarity",
        "VAST@Wombat aggregate seq-write bandwidth, similarity reduction on/off",
        "nodes",
        "aggregate bandwidth (GB/s)",
    );
    let nodes = scale.wombat_nodes();
    for (label, on) in [("similarity on", true), ("similarity off", false)] {
        let points = parallel_sweep(nodes.clone(), |&n| {
            let mut v = vast_on_wombat();
            v.similarity_reduction = on;
            if !on {
                // The CNode CPU freed from hashing/compression speeds
                // the write path up.
                v.cnode_write_bw *= 1.6;
            }
            let mut cfg = IorConfig::paper_scalability(WorkloadClass::Scientific, n, 48);
            cfg.reps = scale.reps();
            let out = run_workload_on(&v, &Workload::Ior(cfg), n, 48);
            Point::new(n as f64, out.ior().mean_bandwidth() / 1e9)
        });
        fig.series.push(Series {
            label: label.into(),
            points,
        });
    }
    fig
}

/// GPFS read-ahead ablation: the seq/random gap with the server cache
/// crippled. Mutates GPFS calibration fields.
pub fn gpfs_cache_ablation(scale: Scale) -> Figure {
    let mut fig = Figure::new(
        "ablation.gpfs-cache",
        "GPFS aggregate read bandwidth at 32 nodes, with and without read-ahead cache",
        "variant (0=cache on seq, 1=cache off seq, 2=cache on rand, 3=cache off rand)",
        "aggregate bandwidth (GB/s)",
    );
    let variants: Vec<(u32, bool, WorkloadClass)> = vec![
        (0, true, WorkloadClass::DataAnalytics),
        (1, false, WorkloadClass::DataAnalytics),
        (2, true, WorkloadClass::MachineLearning),
        (3, false, WorkloadClass::MachineLearning),
    ];
    let points = parallel_sweep(variants, |&(i, cache_on, w)| {
        let mut g = GpfsConfig::on_lassen();
        if !cache_on {
            g.server_cache.seq_hit_ratio = 0.0;
            g.server_cache.rand_hit_ratio = 0.0;
            g.server_cache.capacity = 0.0;
        }
        // Measured at scale: the cache's bandwidth contribution shows
        // at the server pool, not through a single node's NIC.
        let mut cfg = IorConfig::paper_scalability(w, 32, 44);
        cfg.reps = scale.reps();
        let out = run_workload_on(&g, &Workload::Ior(cfg), 32, 44);
        Point::new(i as f64, out.ior().mean_bandwidth() / 1e9)
    });
    fig.series.push(Series {
        label: "GPFS".into(),
        points,
    });
    fig
}

/// I/O-thread-count sweep for Cosmoflow on VAST: the paper contrasts
/// ResNet-50's eight pipeline threads with Cosmoflow's four (§VI.C);
/// how much of the stall is thread starvation?
pub fn dlio_thread_sweep(scale: Scale) -> Figure {
    let threads = [1u32, 2, 4, 8, 16];
    let mut fig = Figure::new(
        "ablation.dlio-threads",
        "Cosmoflow on VAST@Lassen: non-overlapping I/O vs pipeline threads",
        "I/O threads",
        "non-overlapping I/O per node (s)",
    );
    let vast = vast_on_lassen();
    let points = parallel_sweep(threads.to_vec(), |&t| {
        let mut cfg = cosmoflow();
        cfg.read_threads = t;
        cfg.prefetch_depth = (2 * t).max(cfg.batch_size);
        if let Some(s) = scale.dlio_samples() {
            cfg.samples = cfg.samples.min(s);
        }
        cfg.epochs = if scale == Scale::Smoke { 1 } else { cfg.epochs };
        let out = run_workload_on(&vast, &Workload::Dlio(cfg), 4, 44);
        Point::new(t as f64, out.dlio().non_overlapping_io())
    });
    fig.series.push(Series {
        label: "VAST".into(),
        points,
    });
    fig
}

/// Burst-buffer deck: synchronized checkpoint writes on Wombat across
/// VAST, raw node-local NVMe, and a UnifyFS-style user-level burst
/// buffer over the same drives.
pub fn burst_buffer_deck(scale: Scale) -> Deck {
    let mut cfg = IorConfig::paper_scalability(WorkloadClass::Scientific, 1, 48);
    cfg.fsync = true;
    let base = Scenario::new("vast-wombat", Workload::Ior(cfg)).with_reps(scale.reps());
    let mut deck = Deck::single("ablation.burst-buffer", base)
        .with_title("Synchronized checkpoint writes on Wombat: VAST vs NVMe vs UnifyFS");
    deck.axes.systems = vec!["vast-wombat".into(), "nvme".into(), "unifyfs".into()];
    deck.axes.nodes = scale.wombat_nodes();
    deck
}

/// Burst-buffer study — the question the paper's intro raises by naming
/// UnifyFS as the other configurable storage system.
pub fn burst_buffer_checkpoint(scale: Scale) -> Figure {
    let result = run_deck(&burst_buffer_deck(scale), None, Meter::Off);
    let mut fig = Figure::new(
        result.name.clone(),
        result.title.clone(),
        "nodes",
        "aggregate bandwidth (GB/s)",
    );
    for (label, points) in result.by_system() {
        fig.series.push(Series {
            label,
            points: points
                .iter()
                .map(|p| Point::new(p.nodes as f64, p.outcome.ior().mean_bandwidth() / 1e9))
                .collect(),
        });
    }
    fig
}

/// Metadata-rates deck: one MDTest storm per deployment.
pub fn metadata_deck() -> Deck {
    let base = Scenario::new("vast-lassen", Workload::Mdtest(MdtestConfig::new(8, 32)));
    let mut deck = Deck::single("ablation.mdtest", base)
        .with_title("MDTest-equivalent stat rates across deployments (8 nodes x 32 tasks)");
    deck.axes.systems = vec![
        "vast-lassen".into(),
        "vast-wombat".into(),
        "gpfs".into(),
        "unifyfs".into(),
    ];
    deck
}

/// Metadata rates (MDTest-equivalent) across the deployments.
pub fn metadata_rates(scale: Scale) -> Figure {
    let _ = scale;
    let result = run_deck(&metadata_deck(), None, Meter::Off);
    let mut fig = Figure::new(
        result.name.clone(),
        result.title.clone(),
        "variant (0=VAST/TCP 1=VAST/RDMA 2=GPFS 3=UnifyFS)",
        "stat ops/s",
    );
    fig.series.push(Series {
        label: "stat/s".into(),
        points: result
            .points
            .iter()
            .enumerate()
            .map(|(i, p)| Point::new(i as f64, p.outcome.mdtest().rate(MetaOp::Stat).mean))
            .collect(),
    });
    fig
}

/// Lustre stripe-count sweep: single-rank read bandwidth vs stripe
/// width (§II: prior work tunes exactly this knob). Mutates the Lustre
/// layout, so it builds its systems directly.
pub fn lustre_stripe_sweep(scale: Scale) -> Figure {
    let stripes = [1u32, 2, 4, 8, 16, 64];
    let mut fig = Figure::new(
        "ablation.lustre-stripes",
        "Lustre@Ruby single-rank seq-read bandwidth vs stripe count",
        "stripe count",
        "bandwidth (GB/s)",
    );
    let points = parallel_sweep(stripes.to_vec(), |&c| {
        let l = LustreConfig::on_ruby().with_stripe_count(c);
        let mut cfg = IorConfig::paper_scalability(WorkloadClass::DataAnalytics, 1, 1);
        cfg.reps = scale.reps();
        let out = run_workload_on(&l, &Workload::Ior(cfg), 1, 1);
        Point::new(c as f64, out.ior().mean_bandwidth() / 1e9)
    });
    fig.series.push(Series {
        label: "Lustre".into(),
        points,
    });
    fig
}

/// The declarative ablation decks (the ones expressible as pure
/// scenario JSON), for the builtin catalog.
pub fn decks(scale: Scale) -> Vec<Deck> {
    vec![
        gateway_width_deck(scale),
        nconnect_deck(scale),
        burst_buffer_deck(scale),
        metadata_deck(),
    ]
}

/// All ablation figures.
pub fn generate(scale: Scale) -> Vec<Figure> {
    vec![
        gateway_width_sweep(scale),
        nconnect_sweep(scale),
        similarity_ablation(scale),
        gpfs_cache_ablation(scale),
        dlio_thread_sweep(scale),
        burst_buffer_checkpoint(scale),
        metadata_rates(scale),
        lustre_stripe_sweep(scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapes;

    #[test]
    fn wider_gateway_lifts_the_ceiling() {
        let f = gateway_width_sweep(Scale::Smoke);
        let s = &f.series[0];
        assert!(shapes::is_nondecreasing(s, 0.02));
        assert!(
            s.points.last().unwrap().y > 3.0 * s.points[0].y,
            "16x the uplink should lift the 64-node ceiling several-fold"
        );
    }

    #[test]
    fn nconnect_scales_then_saturates() {
        let f = nconnect_sweep(Scale::Smoke);
        let s = &f.series[0];
        assert!(shapes::is_nondecreasing(s, 0.02));
        assert!(s.y_at(16.0).unwrap() > 4.0 * s.y_at(1.0).unwrap());
    }

    #[test]
    fn more_threads_hide_more_io() {
        let f = dlio_thread_sweep(Scale::Smoke);
        let s = &f.series[0];
        assert!(
            s.y_at(1.0).unwrap() > s.y_at(16.0).unwrap(),
            "stall should shrink with threads: {:?}",
            s.points
        );
    }

    #[test]
    fn burst_buffer_ordering() {
        let f = burst_buffer_checkpoint(Scale::Smoke);
        let unify = f.series_named("UnifyFS").unwrap();
        let nvme = f.series_named("NVMe").unwrap();
        let vast = f.series_named("VAST").unwrap();
        for p in &unify.points {
            // Log-structured local writes beat raw in-place NVMe fsync
            // and, at full scale, the shared appliance.
            assert!(p.y >= nvme.y_at(p.x).unwrap());
        }
        // VAST wins at one node (SCM absorbs fsync); local scaling wins at 8.
        assert!(vast.y_at(1.0).unwrap() > nvme.y_at(1.0).unwrap());
        assert!(unify.y_at(8.0).unwrap() > vast.y_at(8.0).unwrap());
    }

    #[test]
    fn metadata_rates_order_by_transport() {
        let f = metadata_rates(Scale::Smoke);
        let s = &f.series[0];
        let tcp = s.y_at(0.0).unwrap();
        let rdma = s.y_at(1.0).unwrap();
        let unify = s.y_at(3.0).unwrap();
        assert!(rdma > 3.0 * tcp, "rdma {rdma} vs tcp {tcp}");
        assert!(unify > tcp);
    }

    #[test]
    fn stripe_sweep_rises_then_plateaus() {
        let f = lustre_stripe_sweep(Scale::Smoke);
        let s = &f.series[0];
        assert!(shapes::is_nondecreasing(s, 0.05));
        assert!(s.y_at(8.0).unwrap() > 2.0 * s.y_at(1.0).unwrap());
        assert!(s.y_at(64.0).unwrap() < 1.2 * s.y_at(8.0).unwrap());
    }

    #[test]
    fn cache_off_kills_gpfs_seq_reads() {
        let f = gpfs_cache_ablation(Scale::Smoke);
        let s = &f.series[0];
        let on_seq = s.y_at(0.0).unwrap();
        let off_seq = s.y_at(1.0).unwrap();
        assert!(on_seq > 2.0 * off_seq, "{on_seq} vs {off_seq}");
    }
}
