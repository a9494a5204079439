//! Fig 5 — "ResNet-50 Throughput": (a) application throughput, (b)
//! system throughput, VAST vs GPFS, weak scaling (§VI.B).
//!
//! "Although the system throughput looks very different for the two
//! file systems, the throughput that the application perceives is only
//! slightly higher for GPFS compared to that of VAST, with the
//! difference becoming more apparent only for larger scales."

use hcs_core::Deck;
use hcs_dlio::resnet50;

use crate::deck::{run_deck, DeckResult, Meter};
use crate::figures::fig4::{apply_scale, dlio_deck};
use crate::series::{Figure, Point, Series};
use crate::sweep::Scale;

/// The Fig 5 deck (one run per point feeds both panels).
pub fn deck(scale: Scale) -> Deck {
    let cfg = apply_scale(resnet50(), scale);
    dlio_deck(
        "fig5",
        format!("{} throughput", cfg.name),
        cfg,
        &scale.resnet_nodes(),
    )
}

/// Converts an executed DLIO deck into the (application, system)
/// throughput panels.
pub(crate) fn throughput_figures(result: &DeckResult, id_app: &str, id_sys: &str) -> Vec<Figure> {
    let name = result
        .points
        .first()
        .map(|p| p.outcome.dlio().workload.clone())
        .unwrap_or_default();
    let mut app = Figure::new(
        id_app,
        format!("{name} application throughput"),
        "nodes",
        "samples/s",
    );
    let mut sysfig = Figure::new(
        id_sys,
        format!("{name} system throughput"),
        "nodes",
        "samples/s",
    );
    for (label, points) in result.by_system() {
        app.series.push(Series {
            label: label.clone(),
            points: points
                .iter()
                .map(|p| Point::new(p.nodes as f64, p.outcome.dlio().app_throughput))
                .collect(),
        });
        sysfig.series.push(Series {
            label,
            points: points
                .iter()
                .map(|p| Point::new(p.nodes as f64, p.outcome.dlio().system_throughput))
                .collect(),
        });
    }
    vec![app, sysfig]
}

/// Generates Fig 5a and Fig 5b.
pub fn generate(scale: Scale) -> Vec<Figure> {
    throughput_figures(&run_deck(&deck(scale), None, Meter::Off), "fig5a", "fig5b")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_shapes_hold_at_smoke_scale() {
        let figs = generate(Scale::Smoke);
        let app = &figs[0];
        let sys = &figs[1];
        let last = app.series_named("VAST").unwrap().points.last().unwrap().x;

        // App throughput: GPFS only slightly ahead.
        let g_app = app.series_named("GPFS").unwrap().y_at(last).unwrap();
        let v_app = app.series_named("VAST").unwrap().y_at(last).unwrap();
        assert!(g_app >= v_app * 0.99, "GPFS at least matches VAST");
        assert!(g_app < v_app * 1.4, "but only slightly: {}", g_app / v_app);

        // System throughput: wildly different (§VI.B).
        let g_sys = sys.series_named("GPFS").unwrap().y_at(last).unwrap();
        let v_sys = sys.series_named("VAST").unwrap().y_at(last).unwrap();
        assert!(g_sys > 2.0 * v_sys, "system ratio = {}", g_sys / v_sys);
    }
}
