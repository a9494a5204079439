//! # hcs-experiments
//!
//! The experiment harness that regenerates **every table and figure** of
//! the paper from the simulation stack:
//!
//! | Artifact | Module | Content |
//! |---|---|---|
//! | Table I  | [`figures::table1`] | cluster specifications |
//! | Fig 2a/2b | [`figures::fig2`] | IOR scalability, Lassen & Wombat, three workloads |
//! | Fig 3a–3d | [`figures::fig3`] | single-node fsync tests on all four machines |
//! | Fig 4a/4b | [`figures::fig4`] | DLIO I/O-time decomposition (ResNet-50, Cosmoflow) |
//! | Fig 5a/5b | [`figures::fig5`] | ResNet-50 application & system throughput |
//! | Fig 6a/6b | [`figures::fig6`] | Cosmoflow application & system throughput |
//! | §VII takeaways | [`figures::takeaways`] | the three quantified takeaways + the 97 % compute fraction |
//! | — | [`figures::ablations`] | design-choice sweeps beyond the paper (gateway width, nconnect, similarity reduction, cache off, I/O threads) |
//!
//! Each generator returns [`series::Figure`] values that can be rendered
//! as ASCII charts ([`render`]), written as CSV/JSON ([`output`]), and
//! checked against the paper's qualitative shapes ([`shapes`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chaos;
pub mod deck;
pub mod figures;
pub mod metrics;
pub mod output;
pub mod registry;
pub mod render;
pub mod report;
pub mod series;
pub mod shapes;
pub mod svg;
pub mod sweep;

pub use chaos::run_chaos_campaign;
pub use deck::{
    run_deck, run_deck_with_metrics, run_deck_with_provenance, run_scenario, run_scenario_metered,
    validate_deck, validate_provenance, DeckResult, Meter, PointResult, WorkloadOutcome,
};
pub use metrics::deck_metrics_summary;
pub use report::{render_chaos_markdown, render_markdown, to_report_json, ReportJson};
pub use series::{Figure, Point, Series};
pub use sweep::Scale;
