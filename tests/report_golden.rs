//! Differential and golden tests for deck-native observability.
//!
//! The metered executors are specified the same way the recorder was in
//! PR 2: collection is a *pure listener*. Running a deck with
//! `--metrics` must not change a single bit of any workload outcome or
//! of the Chrome trace a traced run emits — metrics ride alongside, in
//! optional fields that do not even appear in un-metered JSON.
//!
//! A golden markdown fixture additionally pins the `hcs report` output
//! for the shipped `examples/scenarios/fig2a.json` deck at smoke scale.
//! Regenerate after an intentional report change:
//!
//! ```text
//! HCS_BLESS_REPORT=1 cargo test -p hcs-apps --test report_golden
//! ```

use hcs_core::telemetry::Recorder;
use hcs_experiments::figures::example_deck;
use hcs_experiments::{render_markdown, run_deck, to_report_json, Meter};

const FIXTURE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/report_fig2a.md"
);

#[test]
fn metrics_do_not_perturb_outcomes() {
    let deck = example_deck().smoked();
    let plain = run_deck(&deck, None, Meter::Off);
    let metered = run_deck(&deck, None, Meter::Metrics);
    assert_eq!(plain.points.len(), metered.points.len());
    for (p, m) in plain.points.iter().zip(&metered.points) {
        assert_eq!(p.scenario, m.scenario);
        assert_eq!(
            p.outcome, m.outcome,
            "metrics collection perturbed {}",
            p.scenario.name
        );
        assert!(p.metrics.is_none(), "plain runs must not carry metrics");
        assert!(m.metrics.is_some(), "metered runs must carry metrics");
    }
    // Un-metered serialization is byte-compatible with pre-metrics
    // releases: the optional fields must not appear at all.
    let json = serde_json::to_string_pretty(&plain).expect("serialize");
    assert!(
        !json.contains("\"metrics\""),
        "plain deck JSON must not mention metrics"
    );
    let back: hcs_experiments::DeckResult = serde_json::from_str(&json).expect("parse");
    assert_eq!(back, plain, "plain deck JSON round-trips");
    // And the metered result round-trips too, metrics included.
    let mjson = serde_json::to_string_pretty(&metered).expect("serialize");
    let mback: hcs_experiments::DeckResult = serde_json::from_str(&mjson).expect("parse");
    assert_eq!(mback, metered, "metered deck JSON round-trips");
}

#[test]
fn traced_metrics_match_plain_trace() {
    // A traced deck runs each point into a private recorder and stacks
    // them; metering reads those recorders without writing to them, so
    // the trace must be bit-identical with metrics off or on, and the
    // outcomes identical to all other paths.
    let deck = example_deck().smoked();
    let mut plain_rec = Recorder::new();
    let plain = run_deck(&deck, Some(&mut plain_rec), Meter::Off);
    let mut metered_rec = Recorder::new();
    let metered = run_deck(&deck, Some(&mut metered_rec), Meter::Metrics);
    for (p, m) in plain.points.iter().zip(&metered.points) {
        assert_eq!(p.outcome, m.outcome);
    }
    assert_eq!(
        plain_rec.to_chrome_json(),
        metered_rec.to_chrome_json(),
        "metering must not perturb the stacked trace"
    );
    assert_eq!(plain_rec.clock(), metered_rec.clock());
    assert_eq!(plain_rec.metrics_summary(), metered_rec.metrics_summary());
}

#[test]
fn report_matches_golden_fixture() {
    let deck = example_deck().smoked();
    let result = run_deck(&deck, None, Meter::Metrics);
    let markdown = render_markdown(&result);

    if std::env::var_os("HCS_BLESS_REPORT").is_some() {
        std::fs::write(FIXTURE_PATH, &markdown).expect("write fixture");
        return;
    }
    let golden = std::fs::read_to_string(FIXTURE_PATH).unwrap_or_else(|e| {
        panic!("missing report fixture at {FIXTURE_PATH} ({e}); run with HCS_BLESS_REPORT=1")
    });
    assert_eq!(
        golden, markdown,
        "report drifted from the golden fixture; bless with HCS_BLESS_REPORT=1 if intentional"
    );
}

#[test]
fn report_json_mirrors_the_markdown() {
    let deck = example_deck().smoked();
    let result = run_deck(&deck, None, Meter::Metrics);
    let json = to_report_json(&result);
    assert_eq!(json.name, result.name);
    assert_eq!(json.points.len(), result.points.len());
    assert!(json.summary.is_some(), "metered deck carries a summary");
    for (jp, p) in json.points.iter().zip(&result.points) {
        assert_eq!(jp.headline, p.outcome.headline());
        assert_eq!(jp.metrics, p.metrics);
    }
}

#[test]
fn unmetered_report_renders_a_hint() {
    let deck = example_deck().smoked();
    let result = run_deck(&deck, None, Meter::Off);
    let markdown = render_markdown(&result);
    assert!(
        markdown.contains("hcs run"),
        "hint to re-run with --metrics"
    );
    assert!(
        !markdown.contains("## Cross-rep"),
        "no stats without metrics"
    );
}
