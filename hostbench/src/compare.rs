//! `compare`: the deltas between two sets of benchmark outputs.
//!
//! Each side is a result file or a directory of them (as written to
//! `out/`). Runs are grouped by workload; for every end-to-end metric
//! the command prints each side's median and quartiles over its runs,
//! the relative delta of the medians, and whether the delta is a
//! regression beyond the bound `BENCHMARK.json` fixes for the metric.
//! Traced runs are compared per layer, for information only.

use std::collections::BTreeMap;
use std::path::Path;

use serde::Value;

use crate::stats::{median, quartiles};

/// Values of every metric, per (workload, traced) group, over runs.
type Runs = BTreeMap<(String, bool), BTreeMap<String, Vec<f64>>>;

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Num(n) => Some(*n),
        _ => None,
    }
}

fn load(side: &Path) -> Result<Runs, String> {
    let files: Vec<std::path::PathBuf> = if side.is_dir() {
        let mut f: Vec<_> = std::fs::read_dir(side)
            .map_err(|e| format!("{}: {e}", side.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.extension().is_some_and(|x| x == "json")
                    && !p.to_string_lossy().ends_with(".trace.json")
            })
            .collect();
        f.sort();
        f
    } else {
        vec![side.to_path_buf()]
    };
    let mut runs = Runs::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let v: Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        let (Some(Value::Str(workload)), Some(Value::Bool(traced)), Some(Value::Map(metrics))) = (
            v.get_field("workload"),
            v.get_field("trace"),
            v.get_field("metrics"),
        ) else {
            continue;
        };
        let group = runs.entry((workload.clone(), *traced)).or_default();
        for (name, m) in metrics {
            if let Some(x) = m.get_field("value").and_then(num) {
                group.entry(name.clone()).or_default().push(x);
            }
        }
    }
    if runs.is_empty() {
        return Err(format!("{}: no benchmark results found", side.display()));
    }
    Ok(runs)
}

/// Bound and direction of each end-to-end metric, from `BENCHMARK.json`.
fn bounds(benchmark: &Path) -> BTreeMap<String, (f64, bool)> {
    let Ok(text) = std::fs::read_to_string(benchmark) else {
        return BTreeMap::new();
    };
    let Ok(v) = serde_json::from_str::<Value>(&text) else {
        return BTreeMap::new();
    };
    let Some(Value::Seq(metrics)) = v.get_field("end_to_end") else {
        return BTreeMap::new();
    };
    metrics
        .iter()
        .filter_map(|m| {
            let Some(Value::Str(name)) = m.get_field("name") else {
                return None;
            };
            let bound = m.get_field("bound").and_then(num)?;
            let higher = matches!(m.get_field("better"), Some(Value::Str(b)) if b == "higher");
            Some((name.clone(), (bound, higher)))
        })
        .collect()
}

/// Prints the comparison of `old` and `new`; `benchmark` is the path
/// of `BENCHMARK.json`.
pub fn compare(old: &Path, new: &Path, benchmark: &Path) -> Result<(), String> {
    let (old, new) = (load(old)?, load(new)?);
    let bounds = bounds(benchmark);
    for ((workload, traced), new_metrics) in &new {
        let Some(old_metrics) = old.get(&(workload.clone(), *traced)) else {
            println!("{workload}: no baseline runs");
            continue;
        };
        println!(
            "\n{workload} ({})",
            if *traced {
                "traced, per layer, information only"
            } else {
                "end to end"
            }
        );
        println!(
            "  {:<26} {:>12} {:>23} {:>12} {:>23} {:>8}  verdict",
            "metric", "old median", "old q1..q3", "new median", "new q1..q3", "delta"
        );
        for (name, nv) in new_metrics {
            let Some(ov) = old_metrics.get(name) else {
                continue;
            };
            let (om, nm) = (median(ov), median(nv));
            let (oq1, oq3) = quartiles(ov);
            let (nq1, nq3) = quartiles(nv);
            let delta = if om != 0.0 { (nm - om) / om } else { 0.0 };
            let verdict = match bounds.get(name) {
                Some(&(bound, higher)) if !*traced => {
                    let worse = if higher { -delta } else { delta };
                    if worse > bound {
                        format!("REGRESSION (bound {:.0}%)", bound * 100.0)
                    } else {
                        format!("within bound {:.0}%", bound * 100.0)
                    }
                }
                _ => String::new(),
            };
            println!(
                "  {name:<26} {om:>12.6} {:>23} {nm:>12.6} {:>23} {:>+7.1}%  {verdict}",
                format!("{oq1:.6}..{oq3:.6}"),
                format!("{nq1:.6}..{nq3:.6}"),
                delta * 100.0
            );
        }
    }
    Ok(())
}
