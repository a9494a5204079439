//! Fig 3 — "Single node test with fsync results for scientific
//! simulations and data analytics."
//!
//! Four panels, one per machine (§V): (a) Lassen — VAST vs GPFS,
//! (b) Quartz — VAST vs Lustre, (c) Ruby — VAST vs Lustre,
//! (d) Wombat — VAST vs NVMe. One node, 1–32 processes,
//! synchronization on writes ("our purpose is to test the raw
//! performance of the file systems").

use hcs_core::scenario::{IorConfig, Scenario, Workload, WorkloadClass};
use hcs_core::Deck;

use crate::deck::{run_deck, Meter};
use crate::figures::{ior_bandwidth_figure, workload_tag};
use crate::series::Figure;
use crate::sweep::Scale;

/// One panel as a deck: sweep systems × process counts on one node.
fn deck(
    id: &str,
    machine: &str,
    systems: &[&str],
    procs: &[u32],
    workload: WorkloadClass,
    reps: u32,
) -> Deck {
    let base = Scenario::new(
        systems[0],
        Workload::Ior(IorConfig::paper_single_node(workload, 1)),
    )
    .with_reps(reps);
    let mut deck = Deck::single(format!("{id}.{}", workload_tag(workload)), base).with_title(
        format!("Single node with fsync on {machine} — {}", workload.label()),
    );
    deck.axes.systems = systems.iter().map(|s| s.to_string()).collect();
    deck.axes.ppn = procs.to_vec();
    deck
}

/// The eight Fig 3 decks (four machines × two workloads), in figure
/// order.
pub fn decks(scale: Scale) -> Vec<Deck> {
    let procs = scale.single_node_procs();
    let reps = scale.reps();
    let mut decks = Vec::new();
    for w in [WorkloadClass::Scientific, WorkloadClass::DataAnalytics] {
        decks.push(deck(
            "fig3a",
            "Lassen",
            &["vast-lassen", "gpfs"],
            &procs,
            w,
            reps,
        ));
        decks.push(deck(
            "fig3b",
            "Quartz",
            &["vast-quartz", "lustre-quartz"],
            &procs,
            w,
            reps,
        ));
        decks.push(deck(
            "fig3c",
            "Ruby",
            &["vast-ruby", "lustre-ruby"],
            &procs,
            w,
            reps,
        ));
        decks.push(deck(
            "fig3d",
            "Wombat",
            &["vast-wombat", "nvme"],
            &procs,
            w,
            reps,
        ));
    }
    decks
}

/// Generates Fig 3a–3d for both single-node workloads (eight figures).
pub fn generate(scale: Scale) -> Vec<Figure> {
    decks(scale)
        .iter()
        .map(|d| {
            ior_bandwidth_figure(
                &run_deck(d, None, Meter::Off),
                "processes",
                "bandwidth (GB/s)",
                |p| p.ppn as f64,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapes;

    #[test]
    fn fig3_shapes_hold_at_smoke_scale() {
        let figs = generate(Scale::Smoke);
        assert_eq!(figs.len(), 8);
        let get = |id: &str| figs.iter().find(|f| f.id == id).expect("figure");

        // (b)/(c): Lustre ramps near-linearly and beats gateway-starved
        // VAST at full process counts.
        for id in ["fig3b.scientific", "fig3c.scientific"] {
            let f = get(id);
            let lustre = f.series_named("Lustre").unwrap();
            let vast = f.series_named("VAST").unwrap();
            assert!(shapes::scales_with_factor(lustre, 1.6), "{id}");
            assert!(
                lustre.y_at(32.0).unwrap() > 4.0 * vast.y_at(32.0).unwrap(),
                "{id}: Lustre should dwarf VAST at 32 procs"
            );
        }

        // (d): VAST ≈ 5× NVMe at 32 procs (§V.A).
        let f = get("fig3d.scientific");
        let r = shapes::ratio_at(
            f.series_named("VAST").unwrap(),
            f.series_named("NVMe").unwrap(),
            32.0,
        )
        .unwrap();
        assert!((3.0..8.0).contains(&r), "VAST/NVMe at 32 procs = {r}");

        // (a): VAST flat at its TCP ceiling; GPFS fsync ramps past it.
        let f = get("fig3a.scientific");
        let vast = f.series_named("VAST").unwrap();
        assert!(shapes::saturates_from(vast, 4.0, 0.25));

        // VAST single-node ordering across machines: Lassen > Ruby > Quartz.
        let va = get("fig3a.analytics")
            .series_named("VAST")
            .unwrap()
            .y_at(32.0)
            .unwrap();
        let vr = get("fig3c.analytics")
            .series_named("VAST")
            .unwrap()
            .y_at(32.0)
            .unwrap();
        let vq = get("fig3b.analytics")
            .series_named("VAST")
            .unwrap()
            .y_at(32.0)
            .unwrap();
        assert!(va > vr && vr > vq, "ordering: {va} {vr} {vq}");
    }
}
