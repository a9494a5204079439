//! CLI error paths: a bad deck must exit 2 with a one-line diagnostic,
//! never a panic backtrace. Exercises the `hcs run` front door with
//! malformed JSON, an unknown registry key, a fault deck whose target
//! stage the planned deployment graph does not contain, and a table of
//! one-bad-value probes over every workload family, graph edit and
//! per-family command, plus the artifact commands' `results/` writes
//! and a per-family command's trace against its one-point deck's.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Runs the built `hcs` binary with `args`, capturing output.
fn hcs(args: &[&str]) -> Output {
    hcs_in(Path::new("."), args)
}

/// Runs the built `hcs` binary with `args` from working directory `dir`.
fn hcs_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hcs"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn hcs")
}

/// Creates a fresh, empty working directory unique to this process.
fn temp_workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hcs-cli-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp workdir");
    dir
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
fn truncated_deck_names_its_syntax_error_once() {
    // Text that is not JSON fails before either shape is tried, so the
    // syntax error is named once, not once per shape.
    let deck = fault_deck("[]");
    let cut = deck.find(r#""segments": "#).expect("an IOR field") + r#""segments": "#.len();
    let path = temp_deck("truncated", &deck[..cut]);
    let error = format!("unexpected end of input at byte {cut}");
    for (cmd, shapes) in [
        ("run", "parses as neither a deck nor a scenario"),
        ("report", "is neither a deck result nor a chaos report"),
    ] {
        let out = hcs(&[cmd, path.to_str().unwrap()]);
        assert_dies_with(&out, &format!("{shapes}: {error}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.matches(&error).count(), 1, "{stderr}");
    }
    std::fs::remove_file(&path).ok();
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
fn chaos_names_the_campaign_error() {
    // A campaign whose own field is the wrong type names that field,
    // before the deck and scenario shapes it also fails.
    let shipped = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/scenarios/chaos.vast-smoke.json"
    );
    let campaign = std::fs::read_to_string(shipped).expect("shipped campaign");
    let bad = edit(&campaign, r#""population": 25"#, r#""population": "many""#);
    let path = temp_deck("chaos-population-type", &bad);
    let out = hcs(&["chaos", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_dies_with(
        &out,
        "parses as neither a campaign (population: expected integer u32), a deck (",
    );
}

#[test]
fn one_point_commands_trace_like_a_one_point_deck() {
    // `hcs ior` runs its arguments as a one-point deck, so its Chrome
    // trace is byte for byte the trace `hcs run` writes for that deck.
    let dir = temp_workdir("one-point-trace");
    let (direct, deck) = (dir.join("ior.trace.json"), dir.join("deck.trace.json"));
    let args = ["ior", "vast-lassen", "scientific", "1", "4", "--trace"];
    let out = hcs_in(&dir, &[&args[..], &[direct.to_str().unwrap()]].concat());
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let point = r#"{
  "name": "one-point",
  "base": {
    "system": "vast-lassen",
    "nodes": 1,
    "workload": {
      "Ior": {
        "nodes": 1, "tasks_per_node": 4,
        "block_size": 1048576.0, "transfer_size": 1048576.0,
        "segments": 3000, "workload": "Scientific",
        "fsync": false, "file_per_proc": true, "reorder_tasks": true,
        "reps": 10, "seed": 276963364
      }
    }
  }
}"#;
    let path = dir.join("one-point.json");
    std::fs::write(&path, point).expect("write deck");
    let run = [
        "run",
        path.to_str().unwrap(),
        "--scale",
        "paper",
        "--trace",
        deck.to_str().unwrap(),
    ];
    let out = hcs_in(&dir, &run);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let (a, b) = (
        std::fs::read(&direct).unwrap(),
        std::fs::read(&deck).unwrap(),
    );
    assert!(!a.is_empty());
    assert!(a == b, "the one-point traces differ");
    std::fs::remove_dir_all(&dir).ok();
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

#[test]
fn unwritable_results_dir_exits_2() {
    // `results` is a regular file, so no figure can be written under it.
    let dir = temp_workdir("unwritable-results");
    std::fs::write(dir.join("results"), "").expect("write blocker file");
    for cmd in ["figures", "ablations"] {
        let out = hcs_in(&dir, &[cmd, "--smoke"]);
        assert_dies_with(&out, &format!("{cmd}: cannot write results: "));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn artifact_commands_print_and_write_their_artifacts() {
    let dir = temp_workdir("artifacts");
    for (args, header) in [
        (&["fig1"][..], "Fig 1a — VAST@Lassen"),
        (
            &["sensitivity", "--smoke"][..],
            "calibration sensitivity — the §VII claims",
        ),
        (&["ablations", "--smoke"][..], "# ablation.gateway — "),
    ] {
        let out = hcs_in(&dir, args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stdout}");
        assert!(
            stdout.contains(header),
            "{args:?} missing '{header}': {stdout}"
        );
    }
    // Eight ablation figures, each as CSV, JSON and SVG.
    let written = std::fs::read_dir(dir.join("results"))
        .expect("ablations writes results/")
        .count();
    assert_eq!(written, 24);
    std::fs::remove_dir_all(&dir).ok();
}

/// A single-point replay deck on GPFS whose replay parameters are the
/// JSON object `replay`.
fn replay_deck(replay: &str) -> String {
    format!(
        r#"{{
  "name": "err-replay",
  "base": {{ "system": "gpfs", "workload": {{ "Replay": {replay} }} }}
}}"#
    )
}

#[test]
fn replay_deck_with_bad_trace_exits_2() {
    let missing = std::env::temp_dir().join(format!("hcs-no-trace-{}.json", std::process::id()));
    let garbage = temp_deck("replay-garbage", "{ not a trace");
    // A well-formed trace whose only read carries no byte count.
    let byteless = temp_deck(
        "replay-byteless",
        r#"{ "traceEvents": [ { "name": "r", "cat": "read", "ph": "X", "ts": 0.0,
             "dur": 5.0, "pid": 0, "tid": 0 } ], "displayTimeUnit": "ms" }"#,
    );
    let cases = [
        (
            "{}".to_string(),
            "scenario 'gpfs': replay needs a 'trace' path".to_string(),
        ),
        (
            format!(r#"{{ "trace": "{}" }}"#, missing.display()),
            format!(
                "scenario 'gpfs': cannot read replay trace '{}'",
                missing.display()
            ),
        ),
        (
            format!(r#"{{ "trace": "{}" }}"#, garbage.display()),
            format!(
                "scenario 'gpfs': cannot parse replay trace '{}'",
                garbage.display()
            ),
        ),
        (
            format!(r#"{{ "trace": "{}" }}"#, byteless.display()),
            format!(
                "scenario 'gpfs': replay trace '{}' has no read events",
                byteless.display()
            ),
        ),
    ];
    for (i, (replay, needle)) in cases.iter().enumerate() {
        let path = temp_deck(&format!("replay-{i}"), &replay_deck(replay));
        let out = hcs(&["run", path.to_str().unwrap()]);
        std::fs::remove_file(&path).ok();
        assert_dies_with(&out, needle);
    }
    let out = hcs(&["replay", byteless.to_str().unwrap(), "gpfs"]);
    assert_dies_with(&out, "nothing to replay");
    std::fs::remove_file(&garbage).ok();
    std::fs::remove_file(&byteless).ok();
}

/// `body` with its single occurrence of `from` replaced by `to`.
fn edit(body: &str, from: &str, to: &str) -> String {
    assert_eq!(body.matches(from).count(), 1, "'{from}' in {body}");
    body.replace(from, to)
}

/// The IOR probe deck with one IOR field's `from` text set to `to`.
fn ior_with(from: &str, to: &str) -> String {
    edit(&fault_deck("[]"), from, to)
}

/// The IOR probe deck with `edits` as the base scenario's edit list.
fn ior_edits(edits: &str) -> String {
    ior_with(r#""faults": [],"#, &format!(r#""edits": {edits},"#))
}

/// A `SwapTransport` edit to VAST@Wombat's RDMA transport with the given
/// connection count and client NIC bandwidth.
fn swap_transport(nconnect: u32, client_nic_bw: f64) -> String {
    format!(
        r#"[{{ "SwapTransport": {{ "transport": {{ "kind": "RdmaNfs", "nconnect": {nconnect},
            "multipath": 2, "per_stream_bw": 750000000, "per_op_latency": 0.00004,
            "metadata_latency": 0.0003 }}, "client_nic_bw": {client_nic_bw} }} }}]"#
    )
}

/// A single-point eight-sample ResNet-50 deck on VAST@Lassen with one
/// DLIO field's `from` text set to `to`.
fn dlio_with(from: &str, to: &str) -> String {
    let deck = r#"{
  "name": "err-dlio",
  "base": {
    "system": "vast-lassen",
    "workload": {
      "Dlio": {
        "name": "ResNet-50", "framework": "PyTorch", "samples": 8,
        "sample_bytes": 150000, "transfer_size": 150000, "file_per_sample": true,
        "pattern": "Random", "scaling": "Weak", "epochs": 1, "batch_size": 1,
        "read_threads": 8, "compute_threads": 8, "compute_time_per_batch": 0.02,
        "prefetch_depth": 16, "checkpoint_every_batches": 0, "checkpoint_bytes": 0,
        "seed": 7
      }
    }
  }
}"#;
    edit(deck, from, to)
}

/// A single-point MDTest deck on GPFS with one field's `from` text set
/// to `to`.
fn mdtest_with(from: &str, to: &str) -> String {
    let deck = r#"{
  "name": "err-mdtest",
  "base": {
    "system": "gpfs",
    "workload": {
      "Mdtest": { "nodes": 1, "tasks_per_node": 4, "files_per_proc": 10, "reps": 2, "seed": 7 }
    }
  }
}"#;
    edit(deck, from, to)
}

#[test]
fn bad_value_probes_exit_2_with_one_line() {
    const ONE_NODE: &str = "need at least one node and one process per node";
    const TS: &str = r#""transfer_size": 1048576.0"#;
    let outage = r#"[{ "stage": "Gateway", "start": 0.01, "end": 0.02, "fault": "Outage" }]"#;
    let decks: Vec<(&str, String, &str)> = vec![
        // IOR parameters.
        (
            "ior-ts0",
            ior_with(TS, r#""transfer_size": 0"#),
            "transfer size must be positive",
        ),
        (
            "ior-seg0",
            ior_with(r#""segments": 8"#, r#""segments": 0"#),
            "at least one segment",
        ),
        (
            "ior-reps0",
            ior_with(r#""reps": 2"#, r#""reps": 0"#),
            "at least one repetition",
        ),
        (
            "ior-tpn0",
            ior_with(r#""tasks_per_node": 4"#, r#""tasks_per_node": 0"#),
            ONE_NODE,
        ),
        (
            "ior-nodes0",
            ior_with(r#""nodes": 1,"#, r#""nodes": 0,"#),
            ONE_NODE,
        ),
        (
            "ior-ppn0",
            ior_with(r#""full_node": false,"#, r#""ppn": 0, "full_node": false,"#),
            ONE_NODE,
        ),
        (
            "ior-block",
            ior_with(r#""block_size": 1048576.0"#, r#""block_size": 4096"#),
            "IOR requires transferSize <= blockSize",
        ),
        (
            "ior-block-multiple",
            ior_with(TS, r#""transfer_size": 1000000"#),
            "IOR requires blockSize to be a multiple of transferSize (got 1048576 and 1000000)",
        ),
        (
            "ior-segments-type",
            ior_with(r#""segments": 8"#, r#""segments": "many""#),
            "a deck (base.workload.Ior.segments: expected integer u32)",
        ),
        (
            "scenario-trace",
            ior_with(r#""trace": false"#, r#""trace": true"#),
            "\"trace\": true traces nothing; trace a run with `hcs run --trace <path>`",
        ),
        (
            "ior-axis-ts0",
            ior_with(
                r#""base": {"#,
                r#""axes": { "transfer_sizes": [65536, 0] }, "base": {"#,
            ),
            "transfer size must be positive",
        ),
        (
            "ior-axis-nodes0",
            ior_with(r#""base": {"#, r#""axes": { "nodes": [1, 0] }, "base": {"#),
            ONE_NODE,
        ),
        (
            "ior-nodes-neg",
            ior_with(r#""nodes": 1,"#, r#""nodes": -1,"#),
            "expected integer u32",
        ),
        (
            "ior-nodes-leading-zero",
            ior_with(r#""nodes": 1,"#, r#""nodes": 01,"#),
            "invalid number `01`",
        ),
        (
            "ior-ranks-overflow",
            ior_with(
                r#""nodes": 1, "tasks_per_node": 4"#,
                r#""nodes": 2000, "tasks_per_node": 3000000"#,
            ),
            "2000 nodes x 3000000 processes per node exceeds 4294967295 ranks",
        ),
        // Graph edits.
        (
            "edit-scale0",
            ior_edits(r#"[{ "ScalePool": { "kind": "Gateway", "factor": 0 } }]"#),
            "factor must be positive and finite",
        ),
        (
            "edit-scale-neg",
            ior_edits(r#"[{ "ScalePool": { "kind": "Gateway", "factor": -1 } }]"#),
            "factor must be positive and finite",
        ),
        (
            "edit-set0",
            ior_edits(r#"[{ "SetPoolCapacity": { "kind": "Gateway", "capacity": 0 } }]"#),
            "capacity must be positive and finite",
        ),
        (
            "edit-nic0",
            ior_edits(&swap_transport(8, 0.0)),
            "client_nic_bw and per_stream_bw must be positive",
        ),
        (
            "edit-nconnect0",
            ior_edits(&swap_transport(0, 12.5e9)),
            "nconnect must be at least 1",
        ),
        (
            "edit-widen0",
            ior_edits(r#"[{ "WidenGateway": { "count": 0 } }]"#),
            "count must be at least 1",
        ),
        // DLIO parameters.
        (
            "dlio-samples0",
            dlio_with(r#""samples": 8"#, r#""samples": 0"#),
            "at least one sample",
        ),
        (
            "dlio-bytes0",
            dlio_with(r#""sample_bytes": 150000"#, r#""sample_bytes": 0"#),
            "sample bytes must be positive",
        ),
        (
            "dlio-batch0",
            dlio_with(r#""batch_size": 1"#, r#""batch_size": 0"#),
            "batch size must be positive",
        ),
        (
            "dlio-threads0",
            dlio_with(r#""read_threads": 8"#, r#""read_threads": 0"#),
            "at least one read thread",
        ),
        (
            "dlio-prefetch0",
            dlio_with(r#""prefetch_depth": 16"#, r#""prefetch_depth": 0"#),
            "prefetch queue must hold at least one batch",
        ),
        (
            "dlio-epochs0",
            dlio_with(r#""epochs": 1"#, r#""epochs": 0"#),
            "at least one epoch",
        ),
        (
            "dlio-nodes0",
            dlio_with(
                r#""system": "vast-lassen","#,
                r#""system": "vast-lassen", "nodes": 0,"#,
            ),
            ONE_NODE,
        ),
        (
            "dlio-compute-neg",
            dlio_with(
                r#""compute_time_per_batch": 0.02"#,
                r#""compute_time_per_batch": -0.02"#,
            ),
            "compute time must be finite and non-negative",
        ),
        (
            "dlio-ckpt0",
            dlio_with(
                r#""checkpoint_every_batches": 0"#,
                r#""checkpoint_every_batches": 4"#,
            ),
            "checkpoint_bytes is not positive",
        ),
        // MDTest parameters.
        (
            "mdtest-files0",
            mdtest_with(r#""files_per_proc": 10"#, r#""files_per_proc": 0"#),
            "at least one file",
        ),
        (
            "mdtest-reps0",
            mdtest_with(r#""reps": 2"#, r#""reps": 0"#),
            "at least one repetition",
        ),
        // A bad workload on a fault deck is caught before the planner.
        (
            "fault-ts-neg",
            edit(&fault_deck(outage), TS, r#""transfer_size": -1"#),
            "transfer size must be positive",
        ),
    ];
    for (tag, deck, needle) in &decks {
        let path = temp_deck(tag, deck);
        let out = hcs(&["run", path.to_str().unwrap(), "--smoke"]);
        std::fs::remove_file(&path).ok();
        assert_dies_with(&out, needle);
    }
    let commands: [(&[&str], &str); 6] = [
        (
            &["ior", "vast-lassen", "scientific", "0"],
            "ior: need at least one node",
        ),
        (
            &["ior", "vast-lassen", "scientific", "2000", "3000000"],
            "ior: 2000 nodes x 3000000 processes per node exceeds 4294967295 ranks",
        ),
        (
            &["dlio", "vast-lassen", "resnet50", "0"],
            "dlio: need at least one node",
        ),
        (&["mdtest", "gpfs", "0"], "mdtest: need at least one node"),
        (
            &["explain", "gpfs", "scientific", "0"],
            "explain: need at least one node",
        ),
        (
            &["chaos", "no-such-campaign.json"],
            "chaos: 'no-such-campaign.json' is neither a file nor a builtin deck",
        ),
    ];
    for (args, needle) in commands {
        assert_dies_with(&hcs(args), needle);
    }
}

#[test]
fn set_pool_capacity_on_an_unplanned_stage_runs() {
    // Local NVMe plans no gateway: retargeting one leaves the plan as
    // is, as ScalePool does, and the deck runs.
    let deck = ior_edits(r#"[{ "SetPoolCapacity": { "kind": "Gateway", "capacity": 5e10 } }]"#)
        .replace("vast-lassen", "nvme");
    let dir = temp_workdir("set-pool-nvme");
    let path = temp_deck("set-pool-nvme", &deck);
    let out = hcs_in(&dir, &["run", path.to_str().unwrap(), "--smoke"]);
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
}

#[test]
fn trace_names_the_points_it_omits() {
    // MDTest has no traced engine: the run and its trace go ahead, and
    // one stderr line says which points the trace leaves out.
    let dir = temp_workdir("untraced");
    let trace = dir.join("trace.json");
    let out = hcs_in(
        &dir,
        &[
            "run",
            "ablation.mdtest",
            "--smoke",
            "--trace",
            trace.to_str().unwrap(),
        ],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(trace.exists(), "the trace is still written");
    assert_eq!(
        stderr.trim_end(),
        "run: the trace omits 4 of 4 points (mdtest): their families have no traced engine"
    );
    std::fs::remove_dir_all(&dir).ok();
}
