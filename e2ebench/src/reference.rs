//! Committed reference fingerprints: the report digest and simulated
//! statistics of each workload at the default seed.
//!
//! A simulator-only speed-up must leave every one of them identical; a
//! change to simulated behaviour shows up here first. Regenerate with
//! `--write-reference` only when the simulated behaviour is meant to
//! change.

use std::path::PathBuf;

use qic::core::scenario::ScenarioReport;
use qic::sweep::json::{get, obj, Json, JsonError};

use crate::measure::sum_metric;

/// What a workload's reports must reproduce at the default seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Digest of every report's JSON, in spec order.
    pub digest: String,
    pub points: u64,
    /// Simulated events.
    pub events: u64,
    /// Simulated makespans summed over points, in microseconds.
    pub makespan_us_sum: f64,
    /// Teleporter, wire and storage stalls.
    pub stalls: u64,
}

impl Fingerprint {
    pub fn of(reports: &[ScenarioReport]) -> Fingerprint {
        let mut text = String::new();
        for r in reports {
            text.push_str(&r.to_json());
        }
        let sum = |name: &str| reports.iter().map(|r| sum_metric(r, name)).sum::<f64>();
        Fingerprint {
            digest: format!("{:016x}", qic::sweep::digest_str(&text)),
            points: reports.iter().map(|r| r.report.points.len() as u64).sum(),
            events: sum("events") as u64,
            makespan_us_sum: sum("makespan_us"),
            stalls: (sum("teleporter_stalls") + sum("wire_stalls") + sum("storage_stalls")) as u64,
        }
    }

    /// Each field that differs from `expected`, described.
    pub fn diff(&self, expected: &Fingerprint) -> Vec<String> {
        let fields = |f: &Fingerprint| {
            [
                ("digest", f.digest.clone()),
                ("points", f.points.to_string()),
                ("net.events", f.events.to_string()),
                ("net.makespan_us_sum", f.makespan_us_sum.to_string()),
                ("net.stalls", f.stalls.to_string()),
            ]
        };
        fields(self)
            .into_iter()
            .zip(fields(expected))
            .filter(|((_, got), (_, want))| got != want)
            .map(|((name, got), (_, want))| format!("{name}: {got}, reference {want}"))
            .collect()
    }

    fn to_json(&self) -> Json {
        obj(vec![
            ("digest", Json::Str(self.digest.clone())),
            ("points", Json::Int(self.points.into())),
            ("events", Json::Int(self.events.into())),
            ("makespan_us_sum", Json::Float(self.makespan_us_sum)),
            ("stalls", Json::Int(self.stalls.into())),
        ])
    }

    fn from_json(j: &Json) -> Result<Fingerprint, JsonError> {
        let f = j.obj_of("fingerprint")?;
        Ok(Fingerprint {
            digest: get(f, "digest", "fingerprint")?
                .str_of("digest")?
                .to_string(),
            points: get(f, "points", "fingerprint")?.u64_of("points")?,
            events: get(f, "events", "fingerprint")?.u64_of("events")?,
            makespan_us_sum: get(f, "makespan_us_sum", "fingerprint")?.f64_of("makespan_us_sum")?,
            stalls: get(f, "stalls", "fingerprint")?.u64_of("stalls")?,
        })
    }
}

/// The committed reference file, as compiled into the benchmark.
const COMMITTED: &str = include_str!("../reference.json");

fn path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("reference.json")
}

fn entries(text: &str) -> Result<Vec<(String, Json)>, JsonError> {
    Ok(Json::parse(text)?.obj_of("reference file")?.to_vec())
}

/// The committed fingerprint of a workload, if one is recorded.
pub fn committed(workload: &str) -> Result<Option<Fingerprint>, JsonError> {
    entries(COMMITTED)?
        .iter()
        .find(|(name, _)| name == workload)
        .map(|(_, j)| Fingerprint::from_json(j))
        .transpose()
}

/// Records a workload's fingerprint in the reference file on disk (the
/// benchmark reads it at its next build).
pub fn write(workload: &str, fp: &Fingerprint) -> std::io::Result<PathBuf> {
    let path = path();
    let text = std::fs::read_to_string(&path).unwrap_or_else(|_| "{}".into());
    let mut all = entries(&text).map_err(std::io::Error::other)?;
    match all.iter_mut().find(|(name, _)| name == workload) {
        Some((_, j)) => *j = fp.to_json(),
        None => all.push((workload.to_string(), fp.to_json())),
    }
    all.sort_by(|a, b| a.0.cmp(&b.0));
    std::fs::write(&path, Json::Obj(all).emit() + "\n")?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_round_trip_exactly() {
        let fp = Fingerprint {
            digest: "00ff00ff00ff00ff".into(),
            points: 20,
            events: 12_345_678,
            makespan_us_sum: 1_234.567_890_123_4,
            stalls: 42,
        };
        let back = Fingerprint::from_json(&Json::parse(&fp.to_json().emit()).unwrap()).unwrap();
        assert_eq!(back, fp);
        assert!(back.diff(&fp).is_empty());
        let mut other = fp.clone();
        other.stalls = 43;
        assert_eq!(other.diff(&fp), vec!["net.stalls: 43, reference 42"]);
    }

    #[test]
    fn every_workload_has_a_committed_fingerprint() {
        for w in crate::inputs::Workload::ALL {
            assert!(committed(w.name()).unwrap().is_some(), "{}", w.name());
        }
    }
}
