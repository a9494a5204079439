//! Fig 6 — "Cosmoflow Throughput": (a) application throughput, (b)
//! system throughput, VAST vs GPFS, strong scaling (§VI.C).
//!
//! "Unsurprisingly, GPFS serves Cosmoflow better than VAST ... The
//! system throughput of VAST is also lower than that of GPFS."

use hcs_core::Deck;
use hcs_dlio::cosmoflow;

use crate::deck::{run_deck, Meter};
use crate::figures::fig4::{apply_scale, dlio_deck};
use crate::figures::fig5::throughput_figures;
use crate::series::Figure;
use crate::sweep::Scale;

/// The Fig 6 deck (one run per point feeds both panels).
pub fn deck(scale: Scale) -> Deck {
    let cfg = apply_scale(cosmoflow(), scale);
    dlio_deck(
        "fig6",
        format!("{} throughput", cfg.name),
        cfg,
        &scale.cosmoflow_nodes(),
    )
}

/// Generates Fig 6a and Fig 6b.
pub fn generate(scale: Scale) -> Vec<Figure> {
    throughput_figures(&run_deck(&deck(scale), None, Meter::Off), "fig6a", "fig6b")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_shapes_hold_at_smoke_scale() {
        let figs = generate(Scale::Smoke);
        let app = &figs[0];
        let sys = &figs[1];
        for p in &app.series_named("GPFS").unwrap().points {
            let v = app.series_named("VAST").unwrap().y_at(p.x).unwrap();
            assert!(
                p.y > 1.2 * v,
                "GPFS clearly ahead on Cosmoflow app throughput at {} nodes: {} vs {v}",
                p.x,
                p.y
            );
        }
        for p in &sys.series_named("GPFS").unwrap().points {
            let v = sys.series_named("VAST").unwrap().y_at(p.x).unwrap();
            assert!(p.y > v, "GPFS ahead on system throughput at {} nodes", p.x);
        }
    }
}
