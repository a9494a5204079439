//! The output-correctness gate.
//!
//! Every point's simulated output (outcome plus metrics, with the
//! host-dependent `wall_clock_seconds` zeroed) is reduced to a 64-bit
//! FNV-1a digest of its JSON form. With the default seed the digests
//! are checked against the reference recorded under `reference/`; with
//! any other seed there is no reference, so the first pass becomes the
//! baseline and every later pass must reproduce it bit for bit (the
//! simulator is deterministic). A mismatch counts as a failed point.

use std::collections::BTreeMap;
use std::path::Path;

use serde::{Deserialize, Serialize};

use hcs_experiments::PointResult;

/// FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of anything serializable, through its JSON form.
pub fn digest<T: Serialize + ?Sized>(value: &T) -> u64 {
    fnv1a(
        serde_json::to_string(value)
            .expect("simulator outputs serialize")
            .as_bytes(),
    )
}

/// Digest of one point's simulated output, host wall time excluded.
pub fn point_digest(point: &PointResult) -> u64 {
    let mut p = point.clone();
    if let Some(m) = p.metrics.as_mut() {
        m.wall_clock_seconds = 0.0;
    }
    digest(&p)
}

/// The recorded reference digests of one workload at one seed.
#[derive(Serialize, Deserialize)]
pub struct Reference {
    /// Workload name.
    pub workload: String,
    /// The seed the digests were recorded at.
    pub seed: u64,
    /// Output key → digest (hex, since JSON numbers are doubles).
    pub digests: BTreeMap<String, String>,
}

impl Reference {
    /// Loads the reference for `workload` if one was recorded at `seed`.
    pub fn load(dir: &Path, workload: &str, seed: u64) -> Result<Option<Reference>, String> {
        let path = dir.join(format!("{workload}.json"));
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => return Ok(None),
        };
        let r: Reference = serde_json::from_str(&text)
            .map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
        Ok((r.seed == seed).then_some(r))
    }

    /// Writes the digests of `items` as the reference for `workload`.
    pub fn record(
        dir: &Path,
        workload: &str,
        seed: u64,
        items: &[(String, u64)],
    ) -> Result<(), String> {
        let r = Reference {
            workload: workload.to_string(),
            seed,
            digests: items
                .iter()
                .map(|(k, d)| (k.clone(), format!("{d:016x}")))
                .collect(),
        };
        let path = dir.join(format!("{workload}.json"));
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let json = serde_json::to_string_pretty(&r).expect("reference serializes");
        std::fs::write(&path, json + "\n").map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Compares pass outputs with the expected digests.
pub struct Gate {
    expected: BTreeMap<String, u64>,
    /// True when `expected` came from a recorded reference (unknown
    /// keys then fail); false when it is learned from the first pass.
    fixed: bool,
}

impl Gate {
    /// A gate against `reference` when there is one, learning its
    /// baseline from the first pass otherwise.
    pub fn new(reference: Option<Reference>) -> Result<Gate, String> {
        let Some(r) = reference else {
            return Ok(Gate {
                expected: BTreeMap::new(),
                fixed: false,
            });
        };
        let expected = r
            .digests
            .into_iter()
            .map(|(k, hex)| {
                u64::from_str_radix(&hex, 16)
                    .map(|d| (k, d))
                    .map_err(|e| format!("reference digest '{hex}': {e}"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Gate {
            expected,
            fixed: true,
        })
    }

    /// Whether checking against a recorded reference.
    pub fn has_reference(&self) -> bool {
        self.fixed
    }

    /// Checks one output; `true` when it matches (or is newly learned).
    pub fn check(&mut self, key: &str, digest: u64) -> bool {
        match self.expected.get(key) {
            Some(&d) => d == digest,
            None if self.fixed => false,
            None => {
                self.expected.insert(key.to_string(), digest);
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcs_core::scenario::{IorConfig, Scenario, Workload, WorkloadClass};
    use hcs_experiments::{run_scenario_metered, WorkloadOutcome};

    fn point() -> PointResult {
        let mut s = Scenario::new(
            "vast-lassen",
            Workload::Ior(IorConfig::smoke(WorkloadClass::Scientific, 1, 4)),
        );
        s.name = "vast-lassen".into();
        run_scenario_metered(&s)
    }

    #[test]
    fn perturbed_outcome_trips_the_gate() {
        let good = point();
        let reference = Reference {
            workload: "t".into(),
            seed: 1,
            digests: [("p".to_string(), format!("{:016x}", point_digest(&good)))].into(),
        };
        let mut gate = Gate::new(Some(reference)).unwrap();
        assert!(gate.check("p", point_digest(&good)));

        // Host wall time is not part of the simulated output.
        let mut rerun = good.clone();
        rerun.metrics.as_mut().unwrap().wall_clock_seconds += 1.0;
        assert!(gate.check("p", point_digest(&rerun)));

        // One ulp of simulated bandwidth is.
        let mut bad = good.clone();
        if let WorkloadOutcome::Ior(r) = &mut bad.outcome {
            r.outcome.summary.mean = f64::from_bits(r.outcome.summary.mean.to_bits() + 1);
        }
        assert!(!gate.check("p", point_digest(&bad)));
        // So is a point the reference does not know.
        assert!(!gate.check("q", point_digest(&good)));
    }

    #[test]
    fn learned_baseline_catches_nondeterminism() {
        let good = point();
        let mut gate = Gate::new(None).unwrap();
        assert!(gate.check("p", point_digest(&good)));
        assert!(gate.check("p", point_digest(&good)));
        let mut bad = good.clone();
        bad.metrics.as_mut().unwrap().solver_epochs += 1;
        assert!(!gate.check("p", point_digest(&bad)));
    }
}
