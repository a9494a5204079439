//! Run-to-run consistency (§IV.C): "Our experiments are not performed
//! in an isolated environment and all file systems, including VAST, are
//! shared ... To test performance consistency in the shared environment
//! we repeated our tests 10 times."
//!
//! This figure reports each deployment's coefficient of variation over
//! the 10 repetitions of the paper's scalability workload — the
//! dedicated appliance should sit measurably below the facility's
//! shared parallel file systems.

use hcs_core::scenario::{IorConfig, Scenario, Workload, WorkloadClass};
use hcs_core::Deck;

use crate::deck::{run_deck, Meter};
use crate::series::{Figure, Point, Series};
use crate::sweep::Scale;

/// The consistency deck: one 4-node full-node point per deployment,
/// always at the paper's 10 repetitions.
pub fn deck() -> Deck {
    let base = Scenario::new(
        "vast-lassen",
        Workload::Ior(IorConfig::paper_scalability(
            WorkloadClass::DataAnalytics,
            4,
            44,
        )),
    )
    .with_reps(10) // the paper's repetition count, at every scale
    .at_full_node();
    let mut deck = Deck::single("consistency", base)
        .with_title("Run-to-run variability over 10 repetitions (coefficient of variation)");
    deck.axes.systems = vec![
        "vast-lassen".into(),
        "vast-wombat".into(),
        "gpfs".into(),
        "lustre-ruby".into(),
        "nvme".into(),
    ];
    deck
}

/// Generates the consistency figure: CV (%) of repeated runs per
/// deployment.
pub fn generate(scale: Scale) -> Figure {
    let _ = scale;
    let result = run_deck(&deck(), None, Meter::Off);
    let mut fig = Figure::new(
        result.name.clone(),
        result.title.clone(),
        "variant (0=VAST/TCP 1=VAST/RDMA 2=GPFS 3=Lustre 4=NVMe)",
        "CV (%)",
    );
    let points = result
        .points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let s = &p.outcome.ior().outcome.summary;
            Point::new(i as f64, s.std_dev / s.mean * 100.0)
        })
        .collect();
    fig.series.push(Series {
        label: "CV over 10 reps".into(),
        points,
    });
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_systems_wobble_more_than_dedicated() {
        let f = generate(Scale::Smoke);
        let s = &f.series[0];
        let gpfs_cv = s.y_at(2.0).unwrap();
        let nvme_cv = s.y_at(4.0).unwrap();
        let rdma_cv = s.y_at(1.0).unwrap();
        assert!(
            gpfs_cv > nvme_cv,
            "the facility file system varies more than dedicated drives: {gpfs_cv} vs {nvme_cv}"
        );
        assert!(gpfs_cv > rdma_cv);
        // Everything stays single-digit percent — the paper reports
        // consistent results across its 10 repetitions.
        for p in &s.points {
            assert!(p.y < 15.0, "CV runaway: {}", p.y);
        }
    }
}
