//! Fig 2 — "Scalability test results for scientific simulations, data
//! analytics and ML applications."
//!
//! Panel (a): Lassen, VAST vs GPFS, full nodes (44 ppn), 1–128 nodes.
//! Panel (b): Wombat, VAST vs NVMe, full nodes (48 ppn), 1–8 nodes.
//! Three workloads each (§V): sequential write, sequential read,
//! random read — all with the paper's IOR geometry (1 MiB block and
//! transfer, 3,000 segments, task reordering, 10 reps).

use hcs_core::scenario::{IorConfig, Scenario, Workload, WorkloadClass};
use hcs_core::Deck;

use crate::deck::{run_deck, Meter};
use crate::figures::{ior_bandwidth_figure, workload_tag};
use crate::series::Figure;
use crate::sweep::Scale;

/// One panel as a deck: sweep systems × node counts.
fn deck(
    id: &str,
    title: &str,
    systems: &[&str],
    nodes: &[u32],
    ppn: u32,
    workload: WorkloadClass,
    reps: u32,
) -> Deck {
    let base = Scenario::new(
        systems[0],
        Workload::Ior(IorConfig::paper_scalability(workload, 1, ppn)),
    )
    .with_reps(reps);
    let mut deck = Deck::single(format!("{id}.{}", workload_tag(workload)), base)
        .with_title(format!("{title} — {}", workload.label()));
    deck.axes.systems = systems.iter().map(|s| s.to_string()).collect();
    deck.axes.nodes = nodes.to_vec();
    deck
}

/// The six Fig 2 decks (two panels × three workloads), in figure order.
pub fn decks(scale: Scale) -> Vec<Deck> {
    let mut decks = Vec::new();
    for w in WorkloadClass::all() {
        decks.push(deck(
            "fig2a",
            "Scalability on Lassen (44 ppn)",
            &["vast-lassen", "gpfs"],
            &scale.lassen_nodes(),
            44,
            w,
            scale.reps(),
        ));
        decks.push(deck(
            "fig2b",
            "Scalability on Wombat (48 ppn)",
            &["vast-wombat", "nvme"],
            &scale.wombat_nodes(),
            48,
            w,
            scale.reps(),
        ));
    }
    decks
}

/// Generates Fig 2a and Fig 2b (three workloads each → six figures).
pub fn generate(scale: Scale) -> Vec<Figure> {
    decks(scale)
        .iter()
        .map(|d| {
            ior_bandwidth_figure(
                &run_deck(d, None, Meter::Off),
                "nodes",
                "aggregate bandwidth (GB/s)",
                |p| p.nodes as f64,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapes;

    #[test]
    fn fig2_shapes_hold_at_smoke_scale() {
        let figs = generate(Scale::Smoke);
        assert_eq!(figs.len(), 6);

        // Panel a, sequential reads: GPFS dominates TCP VAST (§V.B).
        let a_da = figs
            .iter()
            .find(|f| f.id == "fig2a.analytics")
            .expect("fig2a analytics");
        let gpfs = a_da.series_named("GPFS").unwrap();
        let vast = a_da.series_named("VAST").unwrap();
        assert!(shapes::dominates(gpfs, vast));

        // VAST on Lassen flattens at the gateway (~25 GB/s).
        assert!(vast.y_max() < 30.0, "VAST@Lassen ceiling: {}", vast.y_max());

        // Panel b, ML: VAST wins small scales, NVMe wins at 8 nodes
        // ("VAST is able to outperform the NVMe on small scales").
        let b_ml = figs.iter().find(|f| f.id == "fig2b.ml").expect("fig2b ml");
        let vast_w = b_ml.series_named("VAST").unwrap();
        let nvme = b_ml.series_named("NVMe").unwrap();
        assert!(vast_w.y_at(1.0).unwrap() > nvme.y_at(1.0).unwrap());
        assert!(nvme.y_at(8.0).unwrap() > vast_w.y_at(8.0).unwrap());
    }
}
