//! Campaign results: per-point records, replicate aggregation, and
//! deterministic CSV / JSON emitters.
//!
//! The emitters format directly: floats use Rust's shortest-roundtrip
//! `Display`, non-finite values become `null` (JSON) or empty cells
//! (CSV), and every collection is emitted in point-index order. Two runs of the same
//! campaign therefore produce byte-identical output regardless of
//! worker count.

use std::fmt::Write as _;

use qic_des::stats::Tally;

use crate::json::{check_fields, get, obj, record, write_str, Exact, Field, Json, JsonError};
use crate::space::{Axis, AxisValue};
use qic_des::metrics::Metrics;

/// Schema version of the lossless record codec
/// ([`CampaignReport::to_record_json`] and the point records inside
/// checkpoint manifests). Bumped on any incompatible change; decoding
/// surfaces a mismatch instead of guessing.
pub const RECORD_VERSION: u32 = 1;

/// Replicate aggregate of one metric at one point.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSummary {
    /// Metric name.
    pub name: String,
    /// Mean over replicates.
    pub mean: f64,
    /// 95% confidence half-width (normal approximation); `None` with
    /// fewer than two replicates.
    pub ci95: Option<f64>,
    /// Smallest replicate value.
    pub min: f64,
    /// Largest replicate value.
    pub max: f64,
    /// Replicates aggregated.
    pub n: u64,
}

/// Results at one sweep point: raw replicates plus their aggregation.
#[derive(Debug, Clone, PartialEq)]
pub struct PointReport {
    /// The point's row-major index in the campaign's space.
    pub index: usize,
    /// `(axis name, value)` pairs, in axis order.
    pub params: Vec<(String, AxisValue)>,
    /// Raw metrics, one entry per replicate.
    pub replicates: Vec<Metrics>,
    /// Replicate aggregates, in first-replicate metric order.
    pub summaries: Vec<MetricSummary>,
}

impl PointReport {
    /// Aggregates a point's replicates.
    ///
    /// Metric order is the union over all replicates in first-appearance
    /// order (a metric may be conditional — e.g. latency percentiles
    /// exist only when communications completed); replicates missing a
    /// metric simply contribute no sample to it.
    pub fn from_replicates(
        index: usize,
        params: Vec<(String, AxisValue)>,
        replicates: Vec<Metrics>,
    ) -> PointReport {
        let mut names: Vec<&str> = Vec::new();
        for rep in &replicates {
            for name in rep.names() {
                if !names.contains(&name) {
                    names.push(name);
                }
            }
        }
        let mut summaries = Vec::new();
        for name in names {
            let mut tally = Tally::new();
            for rep in &replicates {
                if let Some(v) = rep.get(name) {
                    tally.record(v);
                }
            }
            summaries.push(MetricSummary {
                name: name.to_string(),
                mean: tally.mean().unwrap_or(f64::NAN),
                ci95: tally.ci95_half_width(),
                min: tally.min().unwrap_or(f64::NAN),
                max: tally.max().unwrap_or(f64::NAN),
                n: tally.count(),
            });
        }
        PointReport {
            index,
            params,
            replicates,
            summaries,
        }
    }

    /// Builds a point report from streamed per-metric tallies instead
    /// of buffered replicates (the constant-memory aggregation of a
    /// checkpointed run — see [`RunOptions::checkpoint`]).
    ///
    /// `tallies` must be in first-appearance metric order with samples
    /// recorded in replicate order; the summaries are then bit-for-bit
    /// identical to [`PointReport::from_replicates`] over the same
    /// evaluations. [`PointReport::replicates`] stays empty — raw
    /// samples are exactly what streaming aggregation does not retain.
    ///
    /// [`RunOptions::checkpoint`]: crate::campaign::RunOptions::checkpoint
    pub fn from_tallies(
        index: usize,
        params: Vec<(String, AxisValue)>,
        tallies: Vec<(String, Tally)>,
    ) -> PointReport {
        let summaries = tallies
            .into_iter()
            .map(|(name, tally)| MetricSummary {
                name,
                mean: tally.mean().unwrap_or(f64::NAN),
                ci95: tally.ci95_half_width(),
                min: tally.min().unwrap_or(f64::NAN),
                max: tally.max().unwrap_or(f64::NAN),
                n: tally.count(),
            })
            .collect();
        PointReport {
            index,
            params,
            replicates: Vec::new(),
            summaries,
        }
    }

    /// The replicate mean of a metric, if it was reported.
    pub fn mean(&self, metric: &str) -> Option<f64> {
        self.summaries
            .iter()
            .find(|s| s.name == metric)
            .map(|s| s.mean)
    }

    /// Per-replicate values of a metric, in replicate order (replicates
    /// that did not report it are skipped). The raw data lives once, in
    /// [`PointReport::replicates`]; this is a view over it.
    pub fn samples(&self, metric: &str) -> Vec<f64> {
        self.replicates
            .iter()
            .filter_map(|r| r.get(metric))
            .collect()
    }

    /// The named parameter value of this point.
    ///
    /// # Panics
    ///
    /// Panics if the campaign has no such axis.
    pub fn param(&self, name: &str) -> &AxisValue {
        self.params
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no axis named {name:?}"))
    }
}

/// The full, deterministic result of a campaign run.
///
/// Contains everything needed to regenerate a figure or table: the
/// campaign identity, the swept axes, and one [`PointReport`] per point
/// in row-major index order. Worker count is deliberately *not*
/// recorded — the report of a campaign is identical however it was
/// scheduled.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Campaign name (figure/table identifier).
    pub name: String,
    /// Campaign-level seed the per-point seeds derive from.
    pub seed: u64,
    /// Replicates evaluated per point.
    pub replicates: u32,
    /// The swept axes.
    pub axes: Vec<Axis>,
    /// Per-point results, ordered by point index.
    pub points: Vec<PointReport>,
    /// Wall-clock nanoseconds spent evaluating each point (replicate
    /// times summed), indexed like [`CampaignReport::points`]. An
    /// evaluator may reuse work across points (the scenario runner
    /// simulates each distinct machine once per run), so a point that
    /// reads a result another point computed records only its lookup,
    /// or its wait for that result. Measurement noise: excluded from report equality and from the
    /// [`to_json`](CampaignReport::to_json) /
    /// [`to_csv`](CampaignReport::to_csv) emitters, so the determinism
    /// contract is untouched.
    pub wall_ns: Vec<u64>,
}

/// Wall times are scheduling noise; equality covers only the
/// deterministic payload, so reports from different worker counts (or
/// machines) compare equal when their results agree.
impl PartialEq for CampaignReport {
    fn eq(&self, other: &CampaignReport) -> bool {
        self.name == other.name
            && self.seed == other.seed
            && self.replicates == other.replicates
            && self.axes == other.axes
            && self.points == other.points
    }
}

impl CampaignReport {
    /// Total wall-clock nanoseconds spent evaluating points (excludes
    /// scheduling overhead; overlapping worker time sums, so this can
    /// exceed the campaign's elapsed time).
    pub fn total_wall_ns(&self) -> u64 {
        self.wall_ns.iter().fold(0, |acc, w| acc.saturating_add(*w))
    }

    /// The replicate mean of `metric` at point `index`.
    ///
    /// # Panics
    ///
    /// Panics if the point index is out of range.
    pub fn mean_at(&self, index: usize, metric: &str) -> Option<f64> {
        self.points[index].mean(metric)
    }

    /// Serialises the report as deterministic JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"campaign\": ");
        write_str(&self.name, &mut out);
        let _ = writeln!(out, ",\n  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"replicates\": {},", self.replicates);
        out.push_str("  \"axes\": [\n");
        for (i, axis) in self.axes.iter().enumerate() {
            out.push_str("    {\"name\": ");
            write_str(axis.name(), &mut out);
            out.push_str(", \"values\": [");
            for (j, value) in axis.values().iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                json_value(value, &mut out);
            }
            out.push_str(if i + 1 < self.axes.len() {
                "]},\n"
            } else {
                "]}\n"
            });
        }
        out.push_str("  ],\n  \"points\": [\n");
        for (i, point) in self.points.iter().enumerate() {
            let _ = write!(out, "    {{\"index\": {}, \"params\": {{", point.index);
            for (j, (name, value)) in point.params.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                write_str(name, &mut out);
                out.push_str(": ");
                json_value(value, &mut out);
            }
            out.push_str("}, \"metrics\": {");
            for (j, s) in point.summaries.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let samples = point
                    .samples(&s.name)
                    .iter()
                    .map(|v| json_f64(*v))
                    .collect::<Vec<_>>()
                    .join(", ");
                write_str(&s.name, &mut out);
                let _ = write!(
                    out,
                    ": {{\"mean\": {}, \"ci95\": {}, \"min\": {}, \"max\": {}, \"n\": {}, \"samples\": [{}]}}",
                    json_f64(s.mean),
                    s.ci95.map_or("null".to_string(), json_f64),
                    json_f64(s.min),
                    json_f64(s.max),
                    s.n,
                    samples
                );
            }
            out.push_str("}}");
            out.push_str(if i + 1 < self.points.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Serialises the report as CSV: one row per point, columns for
    /// every axis followed by `mean/ci95/min/max` per metric.
    ///
    /// Metric columns are the union across all points in
    /// first-appearance order, so conditional metrics (e.g. latency
    /// percentiles of a point that completed no communication) leave
    /// empty cells instead of shifting the row. `ci95` is empty with
    /// fewer than two replicates; non-finite values are empty cells.
    pub fn to_csv(&self) -> String {
        let mut columns: Vec<&str> = Vec::new();
        for point in &self.points {
            for s in &point.summaries {
                if !columns.contains(&s.name.as_str()) {
                    columns.push(&s.name);
                }
            }
        }
        let mut out = String::new();
        out.push_str("index");
        for axis in &self.axes {
            let _ = write!(out, ",{}", csv_str(axis.name()));
        }
        for name in &columns {
            for stat in ["mean", "ci95", "min", "max"] {
                // Quote the whole cell, not just the metric-name part.
                let _ = write!(out, ",{}", csv_str(&format!("{name}.{stat}")));
            }
        }
        out.push_str(",replicates\n");
        for point in &self.points {
            let _ = write!(out, "{}", point.index);
            for (_, value) in &point.params {
                out.push(',');
                match value {
                    AxisValue::Int(v) => {
                        let _ = write!(out, "{v}");
                    }
                    AxisValue::F64(v) => out.push_str(&csv_f64(*v)),
                    AxisValue::Text(s) => out.push_str(&csv_str(s)),
                }
            }
            for name in &columns {
                match point.summaries.iter().find(|s| &s.name == name) {
                    Some(s) => {
                        let _ = write!(
                            out,
                            ",{},{},{},{}",
                            csv_f64(s.mean),
                            s.ci95.map(csv_f64).unwrap_or_default(),
                            csv_f64(s.min),
                            csv_f64(s.max)
                        );
                    }
                    None => out.push_str(",,,,"),
                }
            }
            // The campaign-level replicate count, not the buffered
            // replicate list: every point runs exactly this many, and
            // streaming-mode reports (which keep no raw replicates)
            // must emit the same bytes as buffered ones.
            let _ = writeln!(out, ",{}", self.replicates);
        }
        out
    }

    /// Serialises the report as a **lossless** single-line JSON record:
    /// everything [`PartialEq`] compares — name, seed, replicates,
    /// axes, and every point with raw replicates and summaries, floats
    /// bit-exact (including `-0.0`, `NaN` and infinities) — and nothing
    /// it does not: [`CampaignReport::wall_ns`] is deliberately
    /// excluded, so records from different processes or machines merge
    /// and compare cleanly.
    ///
    /// This is the shard hand-off and checkpoint format;
    /// [`CampaignReport::to_json`] stays the human-facing emitter.
    pub fn to_record_json(&self) -> String {
        self.to_record().emit()
    }

    /// The record [`CampaignReport::to_record_json`] emits, as a value,
    /// for documents that embed it as an object rather than re-encoding
    /// it as a string.
    pub fn to_record(&self) -> Json {
        self.encode()
    }

    /// Parses a record produced by [`CampaignReport::to_record_json`].
    ///
    /// Strict: unknown or duplicate fields, a wrong `record` tag and a
    /// [`RECORD_VERSION`] mismatch are all rejected with a structured
    /// error. Wall times are not part of the record;
    /// [`CampaignReport::wall_ns`] comes back zeroed (and is excluded
    /// from equality and the emitters, so round-tripped reports compare
    /// and emit identically).
    ///
    /// # Errors
    ///
    /// [`JsonError`] on syntax, schema or version problems.
    pub fn from_record_json(text: &str) -> Result<CampaignReport, JsonError> {
        CampaignReport::from_record(&Json::parse(text)?)
    }

    /// Decodes a record value built by [`CampaignReport::to_record`],
    /// with the same strictness as [`CampaignReport::from_record_json`].
    ///
    /// # Errors
    ///
    /// [`JsonError`] on schema or version problems.
    pub fn from_record(value: &Json) -> Result<CampaignReport, JsonError> {
        CampaignReport::decode(value, "campaign record")
    }
}

// --- Lossless record codec -------------------------------------------------
//
// The campaign record, which shard records and the checkpoint manifest
// (`crate::checkpoint`) reuse. Every f64 survives the round trip
// bit-for-bit: summaries and metric values are `Exact`.

record! {
    CampaignReport "campaign record" envelope "campaign_report" RECORD_VERSION {
        name as "campaign", seed, replicates, axes, points;
        wall_ns = vec![0; Vec::len(&points)],
    }
    Axis "axis" { name, values }
    PointReport "point record" { index, params, replicates, summaries }
    MetricSummary "summary" {
        name, #[exact] mean, #[exact] ci95, #[exact] min, #[exact] max, n,
    }
}

/// Axis values are untagged: an integer, a float or a string literal. A
/// non-finite float cannot ride a bare string (it would decode as
/// `Text`), so it is tagged as a one-field object, `{"f64": "NaN"}`.
impl Field for AxisValue {
    fn encode(&self) -> Json {
        match self {
            AxisValue::Int(i) => Json::Int(i128::from(*i)),
            AxisValue::F64(f) if !f.is_finite() => obj(vec![("f64", f.to_exact())]),
            AxisValue::F64(f) => Json::Float(*f),
            AxisValue::Text(s) => Json::Str(s.clone()),
        }
    }
    fn decode(v: &Json, ctx: &str) -> Result<Self, JsonError> {
        match v {
            Json::Int(_) => i64::decode(v, ctx).map(AxisValue::Int),
            Json::Float(f) => Ok(AxisValue::F64(*f)),
            Json::Str(s) => Ok(AxisValue::Text(s.clone())),
            Json::Obj(fields) => {
                check_fields(fields, &["f64"], ctx)?;
                Ok(AxisValue::F64(f64::from_exact(
                    get(fields, "f64", ctx)?,
                    ctx,
                )?))
            }
            other => Err(Json::schema_err(format!(
                "{ctx}: expected an axis value, got {}",
                other.kind()
            ))),
        }
    }
}

/// JSON number; non-finite floats become `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Writes an axis value as a JSON literal.
fn json_value(v: &AxisValue, out: &mut String) {
    match v {
        AxisValue::Int(i) => {
            let _ = write!(out, "{i}");
        }
        AxisValue::F64(f) => out.push_str(&json_f64(*f)),
        AxisValue::Text(s) => write_str(s, out),
    }
}

/// CSV cell; quoted only when it contains a delimiter, quote or newline.
fn csv_str(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// CSV number; non-finite floats become empty cells.
fn csv_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        String::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> CampaignReport {
        let axes = vec![Axis::ints("t", [2, 4])];
        let points = vec![
            PointReport::from_replicates(
                0,
                vec![("t".into(), AxisValue::Int(2))],
                vec![
                    Metrics::new().with("lat", 10.0),
                    Metrics::new().with("lat", 14.0),
                ],
            ),
            PointReport::from_replicates(
                1,
                vec![("t".into(), AxisValue::Int(4))],
                vec![
                    Metrics::new().with("lat", 6.0),
                    Metrics::new().with("lat", 8.0),
                ],
            ),
        ];
        CampaignReport {
            name: "demo".into(),
            seed: 7,
            replicates: 2,
            axes,
            points,
            wall_ns: vec![1_000, 2_000],
        }
    }

    #[test]
    fn aggregation_mean_min_max_ci() {
        let r = report();
        let s = &r.points[0].summaries[0];
        assert_eq!(s.mean, 12.0);
        assert_eq!(s.min, 10.0);
        assert_eq!(s.max, 14.0);
        assert_eq!(s.n, 2);
        assert_eq!(r.points[0].samples("lat"), vec![10.0, 14.0]);
        assert!(s.ci95.unwrap() > 0.0);
        assert_eq!(r.mean_at(1, "lat"), Some(7.0));
        assert_eq!(r.mean_at(1, "nope"), None);
        assert_eq!(r.points[1].param("t"), &AxisValue::Int(4));
    }

    #[test]
    fn single_replicate_has_no_ci() {
        let p = PointReport::from_replicates(0, vec![], vec![Metrics::new().with("x", 1.0)]);
        assert_eq!(p.summaries[0].ci95, None);
        assert_eq!(p.mean("x"), Some(1.0));
    }

    #[test]
    fn replicate_metric_union_keeps_conditional_metrics() {
        // A metric absent from replicate 0 but present later (e.g.
        // latency percentiles of a seed whose run completed no comms)
        // must still be summarised.
        let p = PointReport::from_replicates(
            0,
            vec![],
            vec![
                Metrics::new().with("makespan", 5.0),
                Metrics::new().with("makespan", 7.0).with("lat_p95", 40.0),
            ],
        );
        let lat = p.summaries.iter().find(|s| s.name == "lat_p95").unwrap();
        assert_eq!(lat.n, 1);
        assert_eq!(lat.mean, 40.0);
        assert_eq!(p.mean("makespan"), Some(6.0));
    }

    #[test]
    fn csv_columns_are_the_union_across_points() {
        // Point 0 lacks a metric point 1 reports: its row must keep
        // empty cells under that metric's columns, not shift.
        let points = vec![
            PointReport::from_replicates(
                0,
                vec![("t".into(), AxisValue::Int(2))],
                vec![Metrics::new().with("a", 1.0)],
            ),
            PointReport::from_replicates(
                1,
                vec![("t".into(), AxisValue::Int(4))],
                vec![Metrics::new().with("a", 2.0).with("b", 3.0)],
            ),
        ];
        let r = CampaignReport {
            name: "u".into(),
            seed: 0,
            replicates: 1,
            axes: vec![Axis::ints("t", [2, 4])],
            points,
            wall_ns: vec![0, 0],
        };
        let csv = r.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert_eq!(
            header,
            "index,t,a.mean,a.ci95,a.min,a.max,b.mean,b.ci95,b.min,b.max,replicates"
        );
        let cols = header.split(',').count();
        let row0 = lines.next().unwrap();
        assert_eq!(row0.split(',').count(), cols, "row 0 must not shift");
        assert_eq!(row0, "0,2,1,,1,1,,,,,1");
        let row1 = lines.next().unwrap();
        assert_eq!(row1.split(',').count(), cols);
        assert!(row1.ends_with(",3,,3,3,1"));
    }

    #[test]
    fn wall_times_are_outside_the_equality_and_emitters() {
        let a = report();
        let mut b = report();
        b.wall_ns = vec![999_999, 888_888];
        assert_eq!(a, b, "wall time must not affect report equality");
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(a.total_wall_ns(), 3_000);
        assert!(!a.to_json().contains("wall"), "wall time leaked into JSON");
    }

    #[test]
    fn json_shape() {
        let j = report().to_json();
        assert!(j.starts_with("{\n"));
        assert!(j.contains("\"campaign\": \"demo\""));
        assert!(j.contains("\"seed\": 7"));
        assert!(j.contains("{\"name\": \"t\", \"values\": [2, 4]}"));
        assert!(j.contains("\"params\": {\"t\": 2}"));
        assert!(j.contains("\"mean\": 12"));
        assert!(j.contains("\"samples\": [10, 14]"));
        assert!(j.ends_with("}\n"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "unbalanced braces:\n{j}"
        );
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn json_escapes_and_nulls() {
        let json_str = |s: &str| Json::Str(s.into()).emit();
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(2.5), "2.5");
    }

    #[test]
    fn csv_shape() {
        let c = report().to_csv();
        let mut lines = c.lines();
        assert_eq!(
            lines.next().unwrap(),
            "index,t,lat.mean,lat.ci95,lat.min,lat.max,replicates"
        );
        let row = lines.next().unwrap();
        assert!(row.starts_with("0,2,12,"));
        assert!(row.ends_with(",10,14,2"));
        assert_eq!(c.lines().count(), 3);
    }

    #[test]
    fn csv_escaping() {
        assert_eq!(csv_str("plain"), "plain");
        assert_eq!(csv_str("a,b"), "\"a,b\"");
        assert_eq!(csv_str("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_f64(f64::NAN), "");
    }

    #[test]
    fn record_codec_round_trips_and_excludes_wall_times() {
        let mut a = report();
        a.wall_ns = vec![123, 456];
        let text = a.to_record_json();
        assert!(!text.contains("wall"), "wall time leaked into the record");
        let back = CampaignReport::from_record_json(&text).unwrap();
        assert_eq!(back, a, "equality excludes wall times");
        assert_eq!(back.wall_ns, vec![0, 0], "records carry no wall times");
        assert_eq!(back.to_json(), a.to_json());
        assert_eq!(back.to_csv(), a.to_csv());
        assert_eq!(back.to_record_json(), text, "record codec is a fixpoint");
    }

    #[test]
    fn record_codec_is_bit_exact_for_hostile_floats() {
        let p = PointReport::from_replicates(
            0,
            vec![("x".into(), AxisValue::F64(0.1 + 0.2))],
            vec![Metrics::new()
                .with("neg_zero", -0.0)
                .with("nan", f64::NAN)
                .with("inf", f64::INFINITY)
                .with("ninf", f64::NEG_INFINITY)
                .with("tiny", 5e-324)],
        );
        let r = CampaignReport {
            name: "bits".into(),
            seed: 1,
            replicates: 1,
            axes: vec![Axis::f64s("x", [0.1 + 0.2])],
            points: vec![p],
            wall_ns: vec![0],
        };
        let back = CampaignReport::from_record_json(&r.to_record_json()).unwrap();
        let m = &back.points[0].replicates[0];
        assert_eq!(m.get("neg_zero").unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(m.get("nan").unwrap().is_nan());
        assert_eq!(m.get("inf"), Some(f64::INFINITY));
        assert_eq!(m.get("ninf"), Some(f64::NEG_INFINITY));
        assert_eq!(m.get("tiny").unwrap().to_bits(), 5e-324f64.to_bits());
        assert_eq!(
            back.axes[0].values()[0].as_f64().unwrap().to_bits(),
            (0.1 + 0.2f64).to_bits()
        );
        // NaN makes summaries non-equal under ==; compare re-emission.
        assert_eq!(back.to_record_json(), r.to_record_json());
    }

    #[test]
    fn record_codec_rejects_unknown_fields_and_versions() {
        let text = report().to_record_json();
        let unknown = text.replacen("\"seed\"", "\"sneed\"", 1);
        let err = CampaignReport::from_record_json(&unknown).unwrap_err();
        assert!(err.problem.contains("unknown field"), "{err}");
        let wrong_version = text.replacen("\"version\": 1", "\"version\": 99", 1);
        let err = CampaignReport::from_record_json(&wrong_version).unwrap_err();
        assert!(err.problem.contains("version 99"), "{err}");
        let wrong_tag = text.replacen("campaign_report", "campaign_riport", 1);
        assert!(CampaignReport::from_record_json(&wrong_tag).is_err());
        assert!(CampaignReport::from_record_json("{\"record\":").is_err());
    }

    #[test]
    fn from_tallies_matches_from_replicates_bitwise() {
        let replicates = vec![
            Metrics::new().with("lat", 10.0).with("bw", 0.5),
            Metrics::new().with("lat", 14.5),
            Metrics::new().with("lat", 11.25).with("bw", 0.75),
        ];
        let buffered = PointReport::from_replicates(3, vec![], replicates.clone());
        // The streaming fold: first-appearance names, replicate order.
        let mut names: Vec<String> = Vec::new();
        let mut tallies: Vec<Tally> = Vec::new();
        for rep in &replicates {
            for name in rep.names() {
                let v = rep.get(name).unwrap();
                match names.iter().position(|n| n == name) {
                    Some(i) => tallies[i].record(v),
                    None => {
                        names.push(name.to_string());
                        let mut t = Tally::new();
                        t.record(v);
                        tallies.push(t);
                    }
                }
            }
        }
        let streamed =
            PointReport::from_tallies(3, vec![], names.into_iter().zip(tallies).collect());
        assert!(streamed.replicates.is_empty());
        assert_eq!(streamed.summaries, buffered.summaries);
        for (s, b) in streamed.summaries.iter().zip(&buffered.summaries) {
            assert_eq!(s.mean.to_bits(), b.mean.to_bits(), "{}", s.name);
            assert_eq!(s.ci95.map(f64::to_bits), b.ci95.map(f64::to_bits));
        }
    }

    #[test]
    fn csv_quotes_whole_header_cell_for_odd_metric_names() {
        let r = CampaignReport {
            name: "q".into(),
            seed: 0,
            replicates: 1,
            axes: vec![],
            points: vec![PointReport::from_replicates(
                0,
                vec![],
                vec![Metrics::new().with("lat,us", 1.0)],
            )],
            wall_ns: vec![0],
        };
        let header = r.to_csv().lines().next().unwrap().to_string();
        // The delimiter lives inside one fully quoted cell.
        assert!(header.contains("\"lat,us.mean\""));
        assert!(!header.contains("\"lat,us\".mean"));
    }
}
