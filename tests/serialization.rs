//! Serialization round-trips for every public configuration and result
//! type — the suite's configs are meant to be stored, diffed and
//! shared as JSON.

use hcs_core::scenario::{MdtestConfig, SweepAxes};
use hcs_core::{Deck, GraphEdit, Scale, Scenario, StageKind, Workload};
use hcs_dlio::{cosmoflow, resnet50, run_dlio};
use hcs_gpfs::GpfsConfig;
use hcs_ior::{run_ior, IorConfig, WorkloadClass};
use hcs_lustre::LustreConfig;
use hcs_nvme::LocalNvmeConfig;
use hcs_topology::all_clusters;
use hcs_vast::{vast_on_lassen, vast_on_quartz, vast_on_ruby, vast_on_wombat};
use proptest::prelude::*;

fn round_trip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    serde_json::from_str(&serde_json::to_string(value).expect("serialize")).expect("deserialize")
}

#[test]
fn all_storage_configs_round_trip() {
    for v in [
        vast_on_lassen(),
        vast_on_ruby(),
        vast_on_quartz(),
        vast_on_wombat(),
    ] {
        assert_eq!(round_trip(&v), v);
    }
    let g = GpfsConfig::on_lassen();
    assert_eq!(round_trip(&g), g);
    for l in [LustreConfig::on_ruby(), LustreConfig::on_quartz()] {
        assert_eq!(round_trip(&l), l);
    }
    let n = LocalNvmeConfig::on_wombat();
    assert_eq!(round_trip(&n), n);
}

#[test]
fn clusters_round_trip() {
    for c in all_clusters() {
        assert_eq!(round_trip(&c), c);
    }
}

#[test]
fn benchmark_configs_round_trip() {
    for w in WorkloadClass::all() {
        let c = IorConfig::paper_scalability(w, 8, 44);
        assert_eq!(round_trip(&c), c);
    }
    for d in [resnet50(), cosmoflow()] {
        assert_eq!(round_trip(&d), d);
    }
}

#[test]
fn results_round_trip() {
    let sys = vast_on_wombat();
    let rep = run_ior(&sys, &IorConfig::smoke(WorkloadClass::Scientific, 2, 4));
    assert_eq!(round_trip(&rep), rep);

    let dlio = run_dlio(&GpfsConfig::on_lassen(), &resnet50().smoke(), 1, None);
    assert_eq!(round_trip(&dlio), dlio);
}

#[test]
fn scenarios_and_decks_round_trip() {
    for scale in [Scale::Paper, Scale::Smoke] {
        assert_eq!(round_trip(&scale), scale);
        for deck in hcs_experiments::figures::all_decks(scale) {
            assert_eq!(round_trip(&deck), deck, "deck {}", deck.name);
            for point in deck.expand() {
                assert_eq!(round_trip(&point), point, "point {}", point.name);
            }
        }
    }
    // Graph edits survive inside a scenario.
    let sc = Scenario::new("vast-lassen", Workload::Mdtest(MdtestConfig::new(2, 4))).with_reps(3);
    let mut sc = sc;
    sc.edits = vec![
        GraphEdit::WidenGateway { count: 4 },
        GraphEdit::ScalePool {
            kind: StageKind::Gateway,
            factor: 2.0,
        },
    ];
    assert_eq!(round_trip(&sc), sc);
}

#[test]
fn shipped_example_deck_is_the_golden_fixture() {
    // examples/scenarios/fig2a.json is what `hcs decks --export` writes
    // for the example deck; `hcs run examples/scenarios/fig2a.json`
    // must execute exactly the builtin.
    let json = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/scenarios/fig2a.json"
    ))
    .expect("shipped fixture exists");
    let deck: Deck = serde_json::from_str(&json).expect("fixture parses as a deck");
    assert_eq!(deck, hcs_experiments::figures::example_deck());
}

proptest! {
    /// Deck expansion is duplicate-free (every point name is unique)
    /// and stable-ordered (expanding twice yields the same list), for
    /// arbitrary axis contents including duplicated axis values.
    #[test]
    fn deck_expansion_is_duplicate_free_and_stable(
        systems in proptest::collection::vec(
            prop_oneof![
                Just("vast-lassen".to_string()),
                Just("vast-wombat".to_string()),
                Just("gpfs".to_string()),
                Just("nvme".to_string()),
            ],
            0..4,
        ),
        nodes in proptest::collection::vec(1u32..6, 0..4),
        ppn in proptest::collection::vec(1u32..5, 0..3),
        transfer_sizes in proptest::collection::vec(
            prop_oneof![Just(4096.0f64), Just(65536.0f64), Just(1048576.0f64)],
            0..3,
        ),
        widen in 0u32..3,
    ) {
        let base = Scenario::new(
            "gpfs",
            Workload::Ior(IorConfig::smoke(WorkloadClass::Scientific, 1, 2)),
        );
        let mut deck = Deck::single("prop", base);
        deck.axes = SweepAxes {
            systems,
            nodes,
            ppn,
            transfer_sizes,
            edit_sets: (0..widen)
                .map(|i| vec![GraphEdit::WidenGateway { count: i + 1 }])
                .collect(),
            fault_sets: Vec::new(),
            offered_load: Vec::new(),
        };
        let points = deck.expand();
        let mut names: Vec<&str> = points.iter().map(|p| p.name.as_str()).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        prop_assert_eq!(names.len(), total, "duplicate point names");
        prop_assert_eq!(deck.expand(), points, "expansion is not stable");
    }
}

/// Printing streams each result straight into the JSON writer; the tree
/// that `to_value` builds must print to the same bytes, compact and
/// pretty, and so must the tree parsed back from either output.
#[test]
fn direct_and_tree_serialization_agree_on_metered_results() {
    use serde::Serialize;
    use serde_json::{from_str, to_string, to_string_pretty, Value};
    let mut decks: Vec<Deck> = hcs_experiments::figures::all_decks(Scale::Smoke)
        .into_iter()
        .filter(|d| ["fig2a", "fig4a", "ablation.mdtest"].contains(&d.name.as_str()))
        .collect();
    for file in ["crossproto.json", "fault.gateway-outage.json"] {
        let path = format!(
            "{}/../../examples/scenarios/{file}",
            env!("CARGO_MANIFEST_DIR")
        );
        let json = std::fs::read_to_string(&path).expect("shipped deck exists");
        decks.push(serde_json::from_str(&json).expect("shipped deck parses"));
    }
    assert_eq!(decks.len(), 5);
    for deck in decks.into_iter().map(Deck::smoked) {
        let r = hcs_experiments::run_deck_with_metrics(&deck);
        let tree = r.to_value();
        let json = to_string(&r).expect("serialize");
        let pretty = to_string_pretty(&r).expect("serialize");
        assert_eq!(json, to_string(&tree).expect("serialize"), "{}", deck.name);
        assert_eq!(
            pretty,
            to_string_pretty(&tree).expect("serialize"),
            "{}",
            deck.name
        );
        let parsed: Value = from_str(&json).expect("parse");
        assert_eq!(
            to_string(&parsed).expect("serialize"),
            json,
            "{}",
            deck.name
        );
        let parsed: Value = from_str(&pretty).expect("parse");
        assert_eq!(
            to_string_pretty(&parsed).expect("serialize"),
            pretty,
            "{}",
            deck.name
        );
        assert!(json.contains(r#""metrics":{"#), "{} is metered", deck.name);
        if deck.name == "fig4a" {
            assert!(
                json.contains(r#""events":[{"#),
                "fig4a carries tracer events"
            );
        }
    }
}

#[test]
fn chrome_trace_round_trips_through_disk_format() {
    let result = run_dlio(&vast_on_lassen(), &resnet50().smoke(), 1, None);
    let json = hcs_dftrace::chrome::to_json(&result.tracer);
    let back = hcs_dftrace::chrome::from_json(&json).expect("parse");
    assert_eq!(back.len(), result.tracer.len());
    // The re-derived decomposition matches.
    let orig = hcs_dftrace::decompose(&result.tracer, None);
    let re = hcs_dftrace::decompose(&back, None);
    assert!((orig.io_total - re.io_total).abs() < 1e-9);
    assert!((orig.overlapping_io - re.overlapping_io).abs() < 1e-9);
}
