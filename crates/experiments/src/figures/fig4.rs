//! Fig 4 — "I/O time analysis" for the DLIO workloads.
//!
//! Panel (a): ResNet-50, weak scaling to 32 nodes, one epoch (§VI.B).
//! Panel (b): Cosmoflow, strong scaling, four epochs (§VI.C).
//! Each panel stacks, per storage system, the mean per-node
//! *overlapping* and *non-overlapping* I/O time.

use hcs_core::scenario::{DlioConfig, Scenario, Workload};
use hcs_core::Deck;
use hcs_dlio::{cosmoflow, resnet50};

use crate::deck::{run_deck, DeckResult, Meter};
use crate::series::{Figure, Point, Series};
use crate::sweep::Scale;

pub(crate) fn apply_scale(mut cfg: DlioConfig, scale: Scale) -> DlioConfig {
    if let Some(samples) = scale.dlio_samples() {
        cfg.samples = cfg.samples.min(samples);
    }
    cfg
}

/// A VAST-vs-GPFS DLIO deck over node counts — the sweep behind
/// Figs 4, 5 and 6.
pub(crate) fn dlio_deck(id: &str, title: String, cfg: DlioConfig, nodes: &[u32]) -> Deck {
    let base = Scenario::new("vast-lassen", Workload::Dlio(cfg));
    let mut deck = Deck::single(id, base).with_title(title);
    deck.axes.systems = vec!["vast-lassen".into(), "gpfs".into()];
    deck.axes.nodes = nodes.to_vec();
    deck
}

/// The two Fig 4 decks.
pub fn decks(scale: Scale) -> Vec<Deck> {
    let resnet = apply_scale(resnet50(), scale);
    let cosmo = apply_scale(cosmoflow(), scale);
    vec![
        dlio_deck(
            "fig4a",
            format!("I/O time analysis — {}", resnet.name),
            resnet,
            &scale.resnet_nodes(),
        ),
        dlio_deck(
            "fig4b",
            format!("I/O time analysis — {}", cosmo.name),
            cosmo,
            &scale.cosmoflow_nodes(),
        ),
    ]
}

/// Converts an executed DLIO deck into the stacked I/O-time panel:
/// per-system overlapping and non-overlapping series.
fn io_time_figure(result: &DeckResult) -> Figure {
    let mut fig = Figure::new(
        result.name.clone(),
        result.title.clone(),
        "nodes",
        "I/O time per node (s)",
    );
    for (label, points) in result.by_system() {
        fig.series.push(Series {
            label: format!("{label} overlapping"),
            points: points
                .iter()
                .map(|p| Point::new(p.nodes as f64, p.outcome.dlio().overlapping_io()))
                .collect(),
        });
        fig.series.push(Series {
            label: format!("{label} non-overlapping"),
            points: points
                .iter()
                .map(|p| Point::new(p.nodes as f64, p.outcome.dlio().non_overlapping_io()))
                .collect(),
        });
    }
    fig
}

/// Generates Fig 4a and Fig 4b.
pub fn generate(scale: Scale) -> Vec<Figure> {
    decks(scale)
        .iter()
        .map(|d| io_time_figure(&run_deck(d, None, Meter::Off)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_shapes_hold_at_smoke_scale() {
        let figs = generate(Scale::Smoke);
        assert_eq!(figs.len(), 2);

        // (a) ResNet-50: VAST spends more I/O time than GPFS, and most
        // of VAST's I/O overlaps with compute (§VI.B).
        let a = &figs[0];
        let v_over = a.series_named("VAST overlapping").unwrap();
        let v_non = a.series_named("VAST non-overlapping").unwrap();
        let g_over = a.series_named("GPFS overlapping").unwrap();
        let g_non = a.series_named("GPFS non-overlapping").unwrap();
        for p in &v_over.points {
            let x = p.x;
            let v_io = p.y + v_non.y_at(x).unwrap();
            let g_io = g_over.y_at(x).unwrap() + g_non.y_at(x).unwrap();
            assert!(v_io > g_io, "VAST I/O time exceeds GPFS at {x} nodes");
            assert!(
                p.y > v_non.y_at(x).unwrap(),
                "VAST I/O mostly hidden at {x}"
            );
        }

        // (b) Cosmoflow: the VAST non-overlapping share dominates its
        // GPFS counterpart (§VI.C "dramatically increased").
        let b = &figs[1];
        let v_non = b.series_named("VAST non-overlapping").unwrap();
        let g_non = b.series_named("GPFS non-overlapping").unwrap();
        for p in &v_non.points {
            assert!(
                p.y > 3.0 * g_non.y_at(p.x).unwrap().max(1e-9),
                "VAST stalls on Cosmoflow at {} nodes",
                p.x
            );
        }
    }
}
