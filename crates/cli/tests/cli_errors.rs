//! CLI error paths: a bad deck must exit 2 with a one-line diagnostic,
//! never a panic backtrace. Exercises the `hcs run` front door with
//! malformed JSON, an unknown registry key, and a fault deck whose
//! target stage the planned deployment graph does not contain.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs the built `hcs` binary with `args`, capturing output.
fn hcs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hcs"))
        .args(args)
        .output()
        .expect("spawn hcs")
}

/// Writes `content` to a unique temp file and returns its path.
fn temp_deck(tag: &str, content: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("hcs-cli-errors-{}-{tag}.json", std::process::id()));
    std::fs::write(&path, content).expect("write temp deck");
    path
}

/// A well-formed single-point IOR deck body with `faults` injected into
/// the base scenario.
fn fault_deck(faults: &str) -> String {
    format!(
        r#"{{
  "name": "err-test",
  "base": {{
    "system": "vast-lassen",
    "faults": {faults},
    "workload": {{
      "Ior": {{
        "nodes": 1, "tasks_per_node": 4,
        "block_size": 1048576.0, "transfer_size": 1048576.0,
        "segments": 8, "workload": "Scientific",
        "fsync": false, "file_per_proc": true, "reorder_tasks": true,
        "reps": 2, "seed": 7
      }}
    }},
    "full_node": false,
    "trace": false
  }}
}}"#
    )
}

/// Asserts the invocation died cleanly: exit code 2, the diagnostic as
/// stderr's first line (the usage text follows it) with no run of
/// spaces, and no panic backtrace anywhere.
fn assert_dies_with(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(
        first.contains(needle),
        "first stderr line missing '{needle}': {stderr}"
    );
    assert!(
        !first.contains("  "),
        "diagnostic has a run of spaces: {first}"
    );
    for s in [&stderr, &stdout] {
        assert!(!s.contains("panicked"), "panic leaked to output: {s}");
        assert!(!s.contains("RUST_BACKTRACE"), "backtrace hint leaked: {s}");
    }
}

#[test]
fn malformed_deck_json_exits_2() {
    let path = temp_deck("malformed", "{ this is not json");
    let out = hcs(&["run", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_dies_with(&out, "parses as neither a deck");
}

#[test]
fn unknown_system_key_exits_2() {
    let deck = fault_deck("[]").replace("vast-lassen", "no-such-system");
    let path = temp_deck("unknown-system", &deck);
    let out = hcs(&["run", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_dies_with(&out, "unknown system 'no-such-system'");
}

#[test]
fn fault_on_missing_stage_exits_2() {
    // VAST@Lassen's gateway stage is planned as "vast:gw", so a name
    // filter for anything else targets nothing.
    let deck = fault_deck(
        r#"[{ "stage": "Gateway", "name": "no-such-gw", "start": 1.0, "end": 2.0, "fault": "Outage" }]"#,
    );
    let path = temp_deck("missing-stage", &deck);
    let out = hcs(&["run", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_dies_with(&out, "fault targets no planned stage");
}

#[test]
fn invalid_fault_window_exits_2() {
    // end <= start is rejected by FaultSpec::check before any run.
    let deck =
        fault_deck(r#"[{ "stage": "Gateway", "start": 5.0, "end": 1.0, "fault": "Outage" }]"#);
    let path = temp_deck("bad-window", &deck);
    let out = hcs(&["run", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_dies_with(&out, "end must be finite and after start");
}

#[test]
fn nonexistent_deck_name_exits_2() {
    let out = hcs(&["run", "no-such-deck-or-file"]);
    assert_dies_with(&out, "neither a file nor a builtin deck");
}

#[test]
fn zero_length_fault_window_exits_2() {
    // start == end is a distinct diagnostic from end < start: the
    // window is well-ordered but covers no time at all.
    let deck =
        fault_deck(r#"[{ "stage": "Gateway", "start": 2.0, "end": 2.0, "fault": "Outage" }]"#);
    let path = temp_deck("zero-window", &deck);
    let out = hcs(&["run", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_dies_with(&out, "zero-length window");
}

/// A well-formed single-point IOR deck body with an open `arrival` spec
/// injected into the base scenario.
fn arrival_deck(rate: &str, duration: &str) -> String {
    fault_deck("[]").replace(
        r#""faults": [],"#,
        &format!(
            r#""faults": [],
    "arrival": {{ "Open": {{ "rate": {rate}, "duration": {duration}, "seed": 1 }} }},"#
        ),
    )
}

#[test]
fn zero_arrival_rate_exits_2() {
    let path = temp_deck("zero-rate", &arrival_deck("0.0", "1.0"));
    let out = hcs(&["run", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_dies_with(&out, "arrival rate must be finite and positive");
}

#[test]
fn negative_arrival_rate_exits_2() {
    let path = temp_deck("negative-rate", &arrival_deck("-50.0", "1.0"));
    let out = hcs(&["run", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_dies_with(&out, "arrival rate must be finite and positive");
}

#[test]
fn nan_arrival_rate_exits_2() {
    // JSON has no NaN literal, so a NaN rate dies at the parser with
    // the usual one-line deck diagnostic rather than reaching check().
    let path = temp_deck("nan-rate", &arrival_deck("NaN", "1.0"));
    let out = hcs(&["run", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_dies_with(&out, "parses as neither a deck");
}

#[test]
fn zero_arrival_duration_exits_2() {
    let path = temp_deck("zero-duration", &arrival_deck("100.0", "0.0"));
    let out = hcs(&["run", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_dies_with(&out, "duration must be finite and positive");
}

#[test]
fn open_loop_on_unsupported_family_exits_2() {
    // Open-loop arrival injection drives the flow-level phase runner,
    // which only the IOR family exposes today.
    let deck = r#"{
  "name": "err-open-family",
  "base": {
    "system": "gpfs",
    "arrival": { "Open": { "rate": 100.0, "duration": 1.0, "seed": 1 } },
    "workload": {
      "Mdtest": {
        "nodes": 1, "tasks_per_node": 4, "files_per_proc": 10,
        "reps": 2, "seed": 7
      }
    },
    "full_node": false,
    "trace": false
  }
}"#;
    let path = temp_deck("open-family", deck);
    let out = hcs(&["run", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_dies_with(&out, "open-loop arrivals support the IOR family only");
}

#[test]
fn offered_load_sweep_over_closed_base_exits_2() {
    let deck = fault_deck("[]").replace(
        r#""base": {"#,
        r#""axes": { "offered_load": [100.0, 200.0] },
  "base": {"#,
    );
    let path = temp_deck("closed-sweep", &deck);
    let out = hcs(&["run", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_dies_with(&out, "sweeps offered_load");
}

#[test]
fn chaos_without_target_exits_2() {
    let out = hcs(&["chaos"]);
    assert_dies_with(&out, "chaos: missing campaign file");
}

#[test]
fn chaos_campaign_with_literal_faults_exits_2() {
    // A chaos campaign generates its own timelines; a base deck that
    // schedules literal faults is rejected before any run.
    let deck =
        fault_deck(r#"[{ "stage": "Gateway", "start": 1.0, "end": 2.0, "fault": "Outage" }]"#);
    let campaign = format!(r#"{{ "name": "bad-campaign", "population": 2, "base": {deck} }}"#);
    let path = temp_deck("chaos-literal-faults", &campaign);
    let out = hcs(&["chaos", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_dies_with(&out, "literal faults");
}

#[test]
fn provenance_without_metrics_exits_2() {
    // --provenance decorates the metrics pipeline; alone it has
    // nowhere to put the decomposition.
    let path = temp_deck("prov-no-metrics", &arrival_deck("50.0", "0.2"));
    let out = hcs(&["run", path.to_str().unwrap(), "--provenance"]);
    std::fs::remove_file(&path).ok();
    assert_dies_with(
        &out,
        "--provenance rides the metrics pipeline; add --metrics",
    );
}

#[test]
fn provenance_on_closed_loop_deck_exits_2() {
    // Per-op latency exists only under an open arrival process, so a
    // closed-loop point cannot carry the blame probe.
    let path = temp_deck("prov-closed", &fault_deck("[]"));
    let out = hcs(&["run", path.to_str().unwrap(), "--metrics", "--provenance"]);
    std::fs::remove_file(&path).ok();
    assert_dies_with(&out, "latency provenance needs open-loop arrivals");
}

#[test]
fn provenance_on_non_ior_workload_exits_2() {
    // The blame probe rides the IOR open-loop phase runner; other
    // families have no per-op latency stream to decompose.
    let deck = fault_deck("[]").replace(
        r#""workload": {
      "Ior": {
        "nodes": 1, "tasks_per_node": 4,
        "block_size": 1048576.0, "transfer_size": 1048576.0,
        "segments": 8, "workload": "Scientific",
        "fsync": false, "file_per_proc": true, "reorder_tasks": true,
        "reps": 2, "seed": 7
      }
    },"#,
        r#""workload": {
      "Mdtest": {
        "nodes": 1, "tasks_per_node": 4,
        "files_per_proc": 10, "reps": 2, "seed": 7
      }
    },"#,
    );
    let path = temp_deck("prov-family", &deck);
    let out = hcs(&["run", path.to_str().unwrap(), "--metrics", "--provenance"]);
    std::fs::remove_file(&path).ok();
    assert_dies_with(&out, "latency provenance supports the IOR family only");
}

#[test]
fn degrade_factor_one_exits_2() {
    // factor 1.0 multiplies capacity by 1 — a silent no-op that makes a
    // resilience sweep lie. Rejected up front with a one-liner.
    let deck = fault_deck(
        r#"[{ "stage": "Media", "start": 1.0, "end": 2.0, "fault": { "Degrade": { "factor": 1.0 } } }]"#,
    );
    let path = temp_deck("degrade-one", &deck);
    let out = hcs(&["run", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_dies_with(&out, "Degrade factor must be in (0, 1)");
    assert_dies_with(&out, "no-op");
}

#[test]
fn unknown_system_in_deck_lists_valid_keys() {
    // The exit-2 one-liner must name every registry key, including the
    // cross-protocol backends, so the fix is in the message itself.
    let deck = fault_deck("[]").replace("vast-lassen", "no-such-system");
    let path = temp_deck("unknown-system-keys", &deck);
    let out = hcs(&["run", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_dies_with(&out, "unknown system 'no-such-system'");
    assert_dies_with(&out, "objstore");
    assert_dies_with(&out, "daos");
}

#[test]
fn subcommand_unknown_system_lists_valid_keys() {
    // Every positional-system subcommand resolves through the same
    // helper: exit 2, the bad name quoted, and the full key list.
    let invocations: &[&[&str]] = &[
        &["ior", "no-such-system", "write"],
        &["dlio", "no-such-system", "resnet50"],
        &["explain", "no-such-system", "write"],
        &["mdtest", "no-such-system"],
        &["replay", "some-trace.json", "no-such-system"],
    ];
    for args in invocations {
        let out = hcs(args);
        assert_dies_with(&out, "unknown system 'no-such-system'");
        assert_dies_with(&out, "known:");
        assert_dies_with(&out, "objstore");
        assert_dies_with(&out, "daos");
    }
}

#[test]
fn cross_protocol_fault_on_unplanned_kind_exits_2() {
    // Local NVMe plans only a Media stage and DAOS's library stack has
    // no gateway either, so a Gateway fault swept across both targets
    // nothing anywhere: the deck-level union check calls the whole deck
    // impossible instead of blaming the first expanded point.
    let deck =
        fault_deck(r#"[{ "stage": "Gateway", "start": 1.0, "end": 2.0, "fault": "Outage" }]"#)
            .replace(
                r#""base": {"#,
                r#""axes": { "systems": ["nvme", "daos"] },
  "base": {"#,
            );
    let path = temp_deck("crossproto-union", &deck);
    let out = hcs(&["run", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_dies_with(&out, "fault targets no planned stage in any swept system");
}
