//! Determinism guarantees: identical inputs produce bit-identical
//! outputs across the whole stack — the property that makes the
//! experiment suite reviewable.

use hcs_dlio::{cosmoflow, resnet50, run_dlio};
use hcs_gpfs::GpfsConfig;
use hcs_ior::{run_ior, IorConfig, WorkloadClass};
use hcs_lustre::LustreConfig;
use hcs_nvme::LocalNvmeConfig;
use hcs_simkit::SimRng;
use hcs_vast::{vast_on_lassen, vast_on_wombat};

#[test]
fn ior_reports_are_bit_identical() {
    let systems: Vec<Box<dyn hcs_core::StorageSystem>> = vec![
        Box::new(vast_on_lassen()),
        Box::new(vast_on_wombat()),
        Box::new(GpfsConfig::on_lassen()),
        Box::new(LustreConfig::on_ruby()),
        Box::new(LocalNvmeConfig::on_wombat()),
    ];
    for sys in &systems {
        for w in WorkloadClass::all() {
            let cfg = IorConfig::smoke(w, 2, 8);
            let a = run_ior(sys.as_ref(), &cfg);
            let b = run_ior(sys.as_ref(), &cfg);
            assert_eq!(
                a.outcome.bandwidths,
                b.outcome.bandwidths,
                "{} / {:?}",
                sys.name(),
                w
            );
        }
    }
}

#[test]
fn dlio_runs_are_bit_identical() {
    let vast = vast_on_lassen();
    let gpfs = GpfsConfig::on_lassen();
    for cfg in [resnet50().smoke(), cosmoflow().smoke()] {
        let a = run_dlio(&vast, &cfg, 2, None);
        let b = run_dlio(&vast, &cfg, 2, None);
        assert_eq!(a.tracer.events(), b.tracer.events(), "{} on VAST", cfg.name);
        let c = run_dlio(&gpfs, &cfg, 2, None);
        let d = run_dlio(&gpfs, &cfg, 2, None);
        assert_eq!(c.duration, d.duration, "{} on GPFS", cfg.name);
    }
}

#[test]
fn seeds_matter_but_only_seeds() {
    let sys = GpfsConfig::on_lassen();
    let mut a = IorConfig::smoke(WorkloadClass::DataAnalytics, 2, 8);
    let mut b = a.clone();
    b.seed = a.seed + 1;
    let ra = run_ior(&sys, &a);
    let rb = run_ior(&sys, &b);
    assert_ne!(
        ra.outcome.bandwidths, rb.outcome.bandwidths,
        "seed changes noise"
    );
    // But the underlying (noise-free) mean is stable within noise.
    let ratio = ra.mean_bandwidth() / rb.mean_bandwidth();
    assert!((0.8..1.2).contains(&ratio), "means stay close: {ratio}");
    a.seed += 1;
    assert_eq!(run_ior(&sys, &a).outcome.bandwidths, rb.outcome.bandwidths);
}

#[test]
fn rng_streams_are_stable_across_runs() {
    // Pin a few draws so an accidental RNG swap is caught loudly.
    let mut r = SimRng::new(42).split("pinned");
    let draws: Vec<u64> = (0..4).map(|_| r.below(1_000_000)).collect();
    let mut r2 = SimRng::new(42).split("pinned");
    let again: Vec<u64> = (0..4).map(|_| r2.below(1_000_000)).collect();
    assert_eq!(draws, again);
}

#[test]
fn parallel_figure_generation_is_deterministic() {
    // rayon sweeps must not leak scheduling order into results.
    use hcs_experiments::figures::fig2;
    use hcs_experiments::Scale;
    let a = fig2::generate(Scale::Smoke);
    let b = fig2::generate(Scale::Smoke);
    assert_eq!(a, b);
}

#[test]
fn deck_results_are_independent_of_worker_count() {
    // The deck executor fans points out over the rayon pool; a run
    // pinned to one worker must be bit-identical to a run on several —
    // the scheduling never reaches the physics.
    use hcs_experiments::{run_deck, Meter};
    let deck = hcs_experiments::figures::example_deck().smoked();
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let serial = run_deck(&deck, None, Meter::Off);
    std::env::set_var("RAYON_NUM_THREADS", "4");
    let parallel = run_deck(&deck, None, Meter::Off);
    std::env::remove_var("RAYON_NUM_THREADS");
    assert_eq!(serial.points.len(), parallel.points.len());
    for (a, b) in serial.points.iter().zip(&parallel.points) {
        assert_eq!(a, b, "point {} differs across pool sizes", a.scenario.name);
    }
}

#[test]
fn deck_metrics_are_independent_of_worker_count() {
    // The metered executor also fans out over the pool. Wall clock is
    // the *only* non-deterministic metric (and is excluded from the
    // deck summary and reports); everything else must be bit-identical
    // across pool sizes.
    use hcs_experiments::{run_deck, Meter};
    let deck = hcs_experiments::figures::example_deck().smoked();
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let serial = run_deck(&deck, None, Meter::Metrics);
    std::env::set_var("RAYON_NUM_THREADS", "4");
    let parallel = run_deck(&deck, None, Meter::Metrics);
    std::env::remove_var("RAYON_NUM_THREADS");
    assert_eq!(serial.metrics, parallel.metrics, "deck summaries differ");
    for (a, b) in serial.points.iter().zip(&parallel.points) {
        let (ma, mb) = (a.metrics.as_ref().unwrap(), b.metrics.as_ref().unwrap());
        let mut mb = mb.clone();
        mb.wall_clock_seconds = ma.wall_clock_seconds;
        assert_eq!(
            *ma, mb,
            "metrics for {} differ across pool sizes",
            a.scenario.name
        );
    }
}

#[test]
fn open_loop_deck_metrics_are_independent_of_worker_count() {
    // Open-loop points carry latency histograms and the deck summary
    // gains knee verdicts; both are built from integer bucket counts,
    // so they must be bit-identical across pool sizes too.
    use hcs_core::{Arrival, Deck, Discipline, Scenario, Workload};
    use hcs_experiments::{run_deck, Meter};
    let scenario = Scenario::new(
        "vast-lassen",
        Workload::Ior(IorConfig::smoke(WorkloadClass::DataAnalytics, 1, 4)),
    )
    .with_arrival(Arrival::Open {
        rate: 1.0,
        discipline: Discipline::Poisson,
        duration: 0.3,
        seed: 11,
    });
    let mut deck = Deck::single("open-parity", scenario);
    deck.axes.offered_load = vec![100.0, 200.0];
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let serial = run_deck(&deck, None, Meter::Metrics);
    std::env::set_var("RAYON_NUM_THREADS", "4");
    let parallel = run_deck(&deck, None, Meter::Metrics);
    std::env::remove_var("RAYON_NUM_THREADS");
    assert_eq!(serial.metrics, parallel.metrics, "deck summaries differ");
    let knees = &serial.metrics.as_ref().unwrap().knees;
    assert_eq!(knees.len(), 1, "offered-load sweep yields a knee verdict");
    for (a, b) in serial.points.iter().zip(&parallel.points) {
        let (ma, mb) = (a.metrics.as_ref().unwrap(), b.metrics.as_ref().unwrap());
        assert!(!ma.latency.is_empty(), "open-loop points carry latency");
        let mut mb = mb.clone();
        mb.wall_clock_seconds = ma.wall_clock_seconds;
        assert_eq!(
            *ma, mb,
            "metrics for {} differ across pool sizes",
            a.scenario.name
        );
    }
}

#[test]
fn provenance_blame_reports_are_independent_of_worker_count() {
    // The blame probe attributes per-op latency in completion order
    // and the report renderer omits wall clock, so a provenance deck
    // pinned to one worker must render the same blame report — Tail
    // forensics section included — as a run on several.
    use hcs_core::{Arrival, Deck, Discipline, Scenario, Workload};
    use hcs_experiments::{render_markdown, run_deck, Meter};
    let scenario = Scenario::new(
        "vast-lassen",
        Workload::Ior(IorConfig::smoke(WorkloadClass::DataAnalytics, 1, 4)),
    )
    .with_arrival(Arrival::Open {
        rate: 1.0,
        discipline: Discipline::Poisson,
        duration: 0.3,
        seed: 11,
    });
    let mut deck = Deck::single("blame-parity", scenario);
    deck.axes.offered_load = vec![100.0, 2000.0];
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let serial = run_deck(&deck, None, Meter::Provenance);
    std::env::set_var("RAYON_NUM_THREADS", "4");
    let parallel = run_deck(&deck, None, Meter::Provenance);
    std::env::remove_var("RAYON_NUM_THREADS");
    for (a, b) in serial.points.iter().zip(&parallel.points) {
        let pa = a.metrics.as_ref().unwrap().provenance.as_ref();
        let pb = b.metrics.as_ref().unwrap().provenance.as_ref();
        assert!(pa.is_some(), "provenance deck decomposes every point");
        assert_eq!(
            pa, pb,
            "blame attribution for {} differs across pool sizes",
            a.scenario.name
        );
    }
    let (ra, rb) = (render_markdown(&serial), render_markdown(&parallel));
    assert_eq!(ra, rb, "blame reports differ across pool sizes");
    assert!(ra.contains("## Tail forensics"), "{ra}");
}

#[test]
fn open_loop_points_past_the_knee_are_pinned() {
    // The shipped latency.saturation deck's shape at 25,600 ops/s, far
    // past the knee on both systems: the backlog of in-flight flows
    // shares one solver component, re-solved at every arrival and
    // completion. The other open-loop tests compare two runs with each
    // other; this one pins literals, so a solver change that moves a
    // bit (rates, completion order, epoch count, provenance
    // attribution) fails here. A 10 ms injection window keeps the
    // debug build near one second.
    use hcs_core::{Arrival, Deck};
    use hcs_experiments::{run_deck, Meter};
    let json = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/scenarios/latency.saturation.json"
    ))
    .expect("shipped saturation deck");
    let mut deck: Deck = serde_json::from_str(&json).expect("deck parses");
    deck.axes.systems = vec!["vast-lassen".into(), "nvme".into()];
    deck.axes.offered_load = vec![25600.0];
    if let Arrival::Open { duration, .. } = &mut deck.base.arrival {
        *duration = 0.01;
    }
    let result = run_deck(&deck, None, Meter::Provenance);
    /// One point's pinned values, seconds as IEEE-754 bits.
    struct Pin {
        system: &'static str,
        /// p99 of each latency class.
        p99: &'static [u64],
        blame: u64,
        queueing: u64,
        ideal: u64,
        solver_epochs: u64,
    }
    let want = [
        Pin {
            system: "vast-lassen",
            p99: &[0x3fce68986fcdee35],
            blame: 0x404d9e62a93a5ee3,
            queueing: 0x0000000000000000,
            ideal: 0x3ed351c3d7a80000,
            solver_epochs: 509,
        },
        Pin {
            system: "nvme",
            p99: &[0x3f981dc0db2702a3],
            blame: 0x40148c22d7037935,
            queueing: 0x0000000000000000,
            ideal: 0x3ed3082ae2b0b880,
            solver_epochs: 509,
        },
    ];
    assert_eq!(result.points.len(), want.len());
    for (p, pin) in result.points.iter().zip(want) {
        let system = pin.system;
        assert_eq!(p.scenario.system, system);
        let m = p.metrics.as_ref().unwrap();
        let p99: Vec<u64> = m
            .latency
            .iter()
            .map(|l| l.histogram.p99().unwrap().to_bits())
            .collect();
        assert_eq!(p99, pin.p99, "{system}: p99");
        let prov = m.provenance.as_ref().unwrap();
        assert_eq!(prov.blame_seconds.to_bits(), pin.blame, "{system}: blame");
        assert_eq!(
            prov.queueing_seconds.to_bits(),
            pin.queueing,
            "{system}: queueing"
        );
        assert_eq!(prov.ideal_seconds.to_bits(), pin.ideal, "{system}: ideal");
        assert_eq!(m.solver_epochs, pin.solver_epochs, "{system}: epochs");
    }
}

#[test]
fn dlio_points_are_pinned() {
    // ResNet-50 and Cosmoflow smoke runs on two nodes, metered. The
    // data loader rides the drive loop, whose tie rule (flow completions
    // before compute ends) orders every step; the other DLIO test
    // compares two runs with each other, this one pins literals, so a
    // loader or drive-loop change that moves a bit (an instant, a
    // solver epoch) fails here. No config checkpoints, so every run
    // ends on a compute step.
    use hcs_core::{Scenario, Workload};
    use hcs_experiments::{run_scenario, Meter};
    // (system, workload, duration bits, solver epochs).
    let want: [(&str, &str, u64, u64); 4] = [
        ("vast-lassen", "ResNet-50", 0x3ff4877b14c16bae, 98),
        ("vast-lassen", "Cosmoflow", 0x3fffb586fb586fb6, 18),
        ("gpfs", "ResNet-50", 0x3ff47d6b65a9a808, 98),
        ("gpfs", "Cosmoflow", 0x3ff0027525460aa9, 96),
    ];
    for (system, workload, duration, epochs) in want {
        let cfg = [resnet50().smoke(), cosmoflow().smoke()]
            .into_iter()
            .find(|c| c.name == workload)
            .expect("known workload");
        let scenario = Scenario::new(system, Workload::Dlio(cfg)).with_nodes(2);
        let p = run_scenario(&scenario, None, Meter::Metrics);
        let got = (
            p.outcome.dlio().duration.to_bits(),
            p.metrics.as_ref().unwrap().solver_epochs,
        );
        assert_eq!(got, (duration, epochs), "{system} / {workload}");
    }
}

mod latency_histogram {
    //! The latency histogram is the other merge algebra behind
    //! worker-count independence: counts are exact integers, so merge
    //! must be a bitwise-exact commutative monoid, and a recorded value
    //! must read back from `percentile` within its own bucket width.
    use hcs_core::LatencyHistogram;
    use proptest::prelude::*;

    fn from_ticks(ticks: &[u64]) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for &t in ticks {
            h.record(t as f64 / 1e6);
        }
        h
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn merge_is_associative_and_commutative(
            a in prop::collection::vec(0u64..10_000_000_000, 0..16),
            b in prop::collection::vec(0u64..10_000_000_000, 0..16),
            c in prop::collection::vec(0u64..10_000_000_000, 0..16),
        ) {
            let (ha, hb, hc) = (from_ticks(&a), from_ticks(&b), from_ticks(&c));
            // ((a ⊕ b) ⊕ c) == (a ⊕ (b ⊕ c)) bitwise.
            let mut left = ha.clone();
            left.merge(&hb);
            left.merge(&hc);
            let mut bc = hb.clone();
            bc.merge(&hc);
            let mut right = ha.clone();
            right.merge(&bc);
            prop_assert_eq!(&left, &right);
            // b ⊕ a == a ⊕ b bitwise.
            let mut ab = ha.clone();
            ab.merge(&hb);
            let mut ba = hb.clone();
            ba.merge(&ha);
            prop_assert_eq!(&ab, &ba);
            // And the merge equals recording every value in one pass.
            let all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
            prop_assert_eq!(&left, &from_ticks(&all));
        }

        #[test]
        fn percentile_round_trips_within_one_bucket_width(
            ticks in 0u64..10_000_000_000,
            p in 0.0f64..=100.0,
        ) {
            // A lone sample is every quantile; the reported value is its
            // bucket's upper edge, which bounds the sample from above
            // within 1/32 relative error (exact below 32 µs).
            let h = from_ticks(&[ticks]);
            let got = (h.percentile(p).expect("one sample recorded") * 1e6).round() as u64;
            prop_assert!(got >= ticks, "{got} < {ticks}");
            prop_assert!(
                got <= ticks + ticks / 32,
                "{got} beyond one bucket width above {ticks}"
            );
        }
    }
}

mod stats_merge {
    //! The deck summary is built from [`hcs_core::Stats`] accumulators
    //! merged across points; merge is concatenation, so it must be
    //! associative *at the bit level* and equal to sequential pushes —
    //! the algebra behind the worker-count independence above.
    use hcs_core::Stats;
    use proptest::prelude::*;

    fn merged(chunks: &[&[f64]]) -> Stats {
        let mut out = Stats::new();
        for c in chunks {
            out.merge(&Stats::from_values(c.to_vec()));
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn merge_is_associative_and_matches_pushes(
            a in prop::collection::vec(-1e12f64..1e12, 0..8),
            b in prop::collection::vec(-1e12f64..1e12, 0..8),
            c in prop::collection::vec(-1e12f64..1e12, 0..8),
        ) {
            // ((a ⊕ b) ⊕ c) == (a ⊕ (b ⊕ c)) bitwise.
            let mut left = merged(&[&a, &b]);
            left.merge(&Stats::from_values(c.clone()));
            let mut bc = Stats::from_values(b.clone());
            bc.merge(&Stats::from_values(c.clone()));
            let mut right = Stats::from_values(a.clone());
            right.merge(&bc);
            prop_assert_eq!(&left, &right);
            // And both equal pushing every value in order.
            let mut seq = Stats::new();
            for v in a.iter().chain(&b).chain(&c) {
                seq.push(*v);
            }
            prop_assert_eq!(&left, &seq);
            // Derived statistics are recomputed from the stored values,
            // so they agree bitwise too.
            prop_assert_eq!(left.summary(), seq.summary());
        }
    }
}
