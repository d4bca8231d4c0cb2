//! Series for the paper's analytical figures (8–12).
//!
//! Figures 8 and 9 are generated here directly: each function returns
//! the exact `(x, y)` series the figure plots, labelled with the paper's
//! legend strings. Figures 10–12 are the `fig10`–`fig12` scenario
//! presets; this module supplies their per-point evaluation
//! ([`pair_budget`]), their placement axis and the unpacking of a
//! report into series ([`placement_series_of`]).

use qic_physics::error::ErrorRates;

use qic_purify::analysis::figure8_series;
use qic_purify::protocol::{Protocol, RoundNoise};
use qic_sweep::{Axis, CampaignReport};

use crate::chain::chained_error_series;
use crate::plan::ChannelModel;
use crate::strategy::PurifyPlacement;

/// One labelled data series.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label (matches the paper's legends).
    pub label: String,
    /// `(x, y)` points; `y = f64::INFINITY` marks an infeasible point
    /// (a curve's "abrupt end" in Figure 12).
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// The largest finite `y` in the series, if any.
    pub fn max_finite(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|p| p.1)
            .filter(|y| y.is_finite())
            .fold(None, |acc, y| Some(acc.map_or(y, |a: f64| a.max(y))))
    }

    /// The `x` past which every point is infeasible, if the series ends.
    pub fn breakdown_x(&self) -> Option<f64> {
        let mut last_finite = None;
        for (x, y) in &self.points {
            if y.is_finite() {
                last_finite = Some(*x);
            }
        }
        let any_infinite = self.points.iter().any(|p| !p.1.is_finite());
        any_infinite.then_some(last_finite).flatten()
    }
}

/// **Figure 8**: EPR error after purification vs rounds, for both
/// protocols at initial fidelities 0.99, 0.999 and 0.9999.
pub fn figure8(rates: &ErrorRates, rounds: u32) -> Vec<Series> {
    let noise = RoundNoise::from_rates(rates);
    let mut out = Vec::new();
    for &f0 in &[0.99, 0.999, 0.9999] {
        for protocol in [Protocol::Bbpssw, Protocol::Dejmps] {
            let pts = figure8_series(protocol, f0, rounds, &noise)
                .into_iter()
                .map(|(r, e)| (f64::from(r), e))
                .collect();
            out.push(Series {
                label: format!("{protocol} protocol, initial fidelity={f0}"),
                points: pts,
            });
        }
    }
    out
}

/// **Figure 9**: final EPR error vs teleportation hops, for initial link
/// errors 1e-4 … 1e-8.
pub fn figure9(rates: &ErrorRates, max_hops: u32) -> Vec<Series> {
    [1e-4, 1e-5, 1e-6, 1e-7, 1e-8]
        .iter()
        .map(|&e0| Series {
            label: format!("{e0:.0e} initial error"),
            points: chained_error_series(e0, max_hops, rates)
                .into_iter()
                .map(|(h, e)| (f64::from(h), e))
                .collect(),
        })
        .collect()
}

/// Cap used to keep the exponential "after each teleport" schemes plottable,
/// mirroring the paper's axes (Figure 10/11 top out at 1e8).
pub const PAIR_COUNT_CAP: f64 = 1e12;

/// Which EPR-pair budget a channel sweep reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PairMetric {
    /// Total pairs consumed end to end (Figure 10's y-axis).
    TotalPairs,
    /// Pairs actually teleported through T' nodes (Figures 11–12).
    TeleportedPairs,
}

impl PairMetric {
    /// A compact machine-readable label (`"total_pairs"` /
    /// `"teleported_pairs"`) that [`PairMetric::parse`] round-trips.
    pub fn label(self) -> &'static str {
        match self {
            PairMetric::TotalPairs => "total_pairs",
            PairMetric::TeleportedPairs => "teleported_pairs",
        }
    }

    /// Parses a [`PairMetric::label`] back into a metric.
    pub fn parse(label: &str) -> Option<PairMetric> {
        match label {
            "total_pairs" => Some(PairMetric::TotalPairs),
            "teleported_pairs" => Some(PairMetric::TeleportedPairs),
            _ => None,
        }
    }
}

qic_sweep::json::labels! {
    PairMetric: "metric", label;
}

/// The Figure 10–12 per-point evaluation: the chosen pair budget of a
/// `hops`-teleport channel under `model`, `f64::INFINITY` when the plan
/// is infeasible or exceeds [`PAIR_COUNT_CAP`].
///
/// The Scenario runner in `qic-core` evaluates every channel point
/// through it.
pub fn pair_budget(model: &ChannelModel, hops: u32, metric: PairMetric) -> f64 {
    match model.plan(hops) {
        Ok(plan) => {
            let v = match metric {
                PairMetric::TotalPairs => plan.total_pairs,
                PairMetric::TeleportedPairs => plan.teleported_pairs,
            };
            if v > PAIR_COUNT_CAP {
                f64::INFINITY
            } else {
                v
            }
        }
        Err(_) => f64::INFINITY,
    }
}

/// The placement axis the Figure 10–12 presets sweep: one
/// categorical value per [`PurifyPlacement::FIGURE_SET`] entry, labelled
/// with the paper's legend strings. Point coordinate 0 indexes back into
/// `FIGURE_SET`.
pub fn placement_axis() -> Axis {
    Axis::labels(
        "placement",
        PurifyPlacement::FIGURE_SET
            .iter()
            .map(PurifyPlacement::legend),
    )
}

/// Unpacks a placement × x-axis campaign (the report of the `fig10`,
/// `fig11` or `fig12` scenario preset) into one [`Series`] per
/// placement, in `FIGURE_SET` order, reading the `metric` means.
///
/// # Panics
///
/// Panics if the report's first axis is not the placement axis those
/// campaigns sweep.
pub fn placement_series_of(report: &CampaignReport, metric: &str) -> Vec<Series> {
    assert!(
        report.axes.len() == 2 && report.axes[0] == placement_axis(),
        "campaign {:?} does not sweep placement × x",
        report.name
    );
    let n_x = report.axes[1].len();
    PurifyPlacement::FIGURE_SET
        .iter()
        .enumerate()
        .map(|(pi, placement)| Series {
            label: placement.legend(),
            points: (0..n_x)
                .map(|xi| {
                    let point = &report.points[pi * n_x + xi];
                    let x = point
                        .param(report.axes[1].name())
                        .as_f64()
                        .expect("x axes are numeric");
                    (x, point.mean(metric).expect("metric reported"))
                })
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qic_physics::constants::THRESHOLD_ERROR;
    use qic_sweep::{Campaign, CampaignProgress, Metrics, ParamSpace, RunOptions};

    #[test]
    fn figure8_has_six_series() {
        let series = figure8(&ErrorRates::ion_trap(), 25);
        assert_eq!(series.len(), 6);
        for s in &series {
            assert_eq!(s.points.len(), 26);
            // Error decreases from round 0 to the end.
            assert!(s.points.last().unwrap().1 < s.points[0].1);
        }
    }

    #[test]
    fn figure9_threshold_crossings() {
        let series = figure9(&ErrorRates::ion_trap(), 70);
        assert_eq!(series.len(), 5);
        // The 1e-4 series is above threshold almost immediately; the 1e-8
        // series stays below it much longer.
        let worst = &series[0];
        let best = &series[4];
        assert!(worst.points[2].1 > THRESHOLD_ERROR);
        assert!(best.points[40].1 < THRESHOLD_ERROR);
    }

    #[test]
    #[should_panic(expected = "does not sweep placement")]
    fn series_of_rejects_foreign_campaigns() {
        let space = ParamSpace::new()
            .axis(Axis::ints("a", [1, 2]))
            .axis(Axis::ints("b", [1, 2]));
        let report = Campaign::new("not-a-figure", space)
            .run(&RunOptions::default(), |_, _| {
                Metrics::new().with("pairs", 1.0)
            })
            .ok()
            .and_then(CampaignProgress::complete)
            .expect("an uncheckpointed run completes");
        let _ = placement_series_of(&report, "pairs");
    }

    #[test]
    fn series_helpers() {
        let s = Series {
            label: "x".into(),
            points: vec![
                (1.0, 5.0),
                (2.0, f64::INFINITY),
                (3.0, 7.0),
                (4.0, f64::INFINITY),
            ],
        };
        assert_eq!(s.max_finite(), Some(7.0));
        assert_eq!(s.breakdown_x(), Some(3.0));
        let all_finite = Series {
            label: "y".into(),
            points: vec![(1.0, 2.0)],
        };
        assert_eq!(all_finite.breakdown_x(), None);
    }
}
