//! Series generators for the paper's analytical figures (8–12).
//!
//! Each function returns the exact `(x, y)` series a figure plots, labelled
//! with the paper's legend strings, so the bench harness and the plotting
//! examples stay trivially thin.

use qic_physics::error::ErrorRates;

use qic_purify::analysis::figure8_series;
use qic_purify::protocol::{Protocol, RoundNoise};
use qic_sweep::{
    Axis, Campaign, CampaignProgress, CampaignReport, Metrics, ParamSpace, RunCtx, RunOptions,
    SweepPoint,
};

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

/// The Figure 10–12 per-point evaluation: the chosen pair budget of a
/// `hops`-teleport channel under `model`, `f64::INFINITY` when the plan
/// is infeasible or exceeds [`PAIR_COUNT_CAP`].
///
/// Shared by the figure campaign constructors below and the Scenario
/// runner in `qic-core`, so both paths are byte-identical by
/// construction.
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

/// The placement axis shared by the Figure 10–12 campaigns: one
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

/// Unpacks a placement × x-axis campaign (as produced by
/// [`figure10_campaign`], [`figure11_campaign`] or [`figure12_campaign`])
/// into one [`Series`] per placement, in `FIGURE_SET` order, reading the
/// `metric` means.
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

/// Runs a closed-form campaign to completion on a per-call pool.
fn run_to_completion<F>(campaign: Campaign, eval: F) -> CampaignReport
where
    F: Fn(&SweepPoint<'_>, RunCtx) -> Metrics + Send + Sync + 'static,
{
    campaign
        .run(&RunOptions::default(), eval)
        .ok()
        .and_then(CampaignProgress::complete)
        .expect("an uncheckpointed, unbudgeted run completes")
}

fn pairs_campaign(model: &ChannelModel, max_hops: u32, metric: PairMetric) -> CampaignReport {
    let space = ParamSpace::new().axis(placement_axis()).axis(Axis::ints(
        "hops",
        (10..=max_hops).step_by(2).map(i64::from),
    ));
    let name = match metric {
        PairMetric::TotalPairs => "figure10",
        PairMetric::TeleportedPairs => "figure11",
    };
    let model = model.clone();
    run_to_completion(Campaign::new(name, space), move |point, _ctx| {
        let placement = PurifyPlacement::FIGURE_SET[point.coord(0)];
        let m = model.clone().with_placement(placement);
        Metrics::new().with("pairs", pair_budget(&m, point.u32("hops"), metric))
    })
}

/// The Figure 10 sweep as a campaign: placement × distance, total EPR
/// pairs per point (capped at [`PAIR_COUNT_CAP`], infeasible = `∞`).
pub fn figure10_campaign(model: &ChannelModel, max_hops: u32) -> CampaignReport {
    pairs_campaign(model, max_hops, PairMetric::TotalPairs)
}

/// The Figure 11 sweep as a campaign: placement × distance, teleported
/// EPR pairs per point.
pub fn figure11_campaign(model: &ChannelModel, max_hops: u32) -> CampaignReport {
    pairs_campaign(model, max_hops, PairMetric::TeleportedPairs)
}

/// **Figure 10**: total EPR pairs consumed vs distance (10–60 teleports)
/// for the five purification placements.
pub fn figure10(model: &ChannelModel, max_hops: u32) -> Vec<Series> {
    placement_series_of(&figure10_campaign(model, max_hops), "pairs")
}

/// **Figure 11**: EPR pairs teleported vs distance for the same placements.
pub fn figure11(model: &ChannelModel, max_hops: u32) -> Vec<Series> {
    placement_series_of(&figure11_campaign(model, max_hops), "pairs")
}

/// The Figure 12 sweep as a campaign: placement × log-spaced uniform
/// error rate at a fixed distance, teleported EPR pairs per point.
pub fn figure12_campaign(hops: u32, points_per_decade: u32) -> CampaignReport {
    let base = ChannelModel::ion_trap();
    let space = ParamSpace::new()
        .axis(placement_axis())
        .axis(Axis::log_spaced("error_rate", -9, -4, points_per_decade));
    run_to_completion(Campaign::new("figure12", space), move |point, _ctx| {
        let placement = PurifyPlacement::FIGURE_SET[point.coord(0)];
        let p = point.f64("error_rate");
        let rates = ErrorRates::uniform(p).expect("sweep values are probabilities");
        let m = base.clone().with_rates(rates).with_placement(placement);
        Metrics::new().with("pairs", pair_budget(&m, hops, PairMetric::TeleportedPairs))
    })
}

/// **Figure 12**: EPR pairs teleported vs uniform operation error rate
/// (1e-9 … 1e-4) at a fixed distance; every curve ends abruptly near 1e-5
/// where purification stops reaching the threshold. A 16-hop channel keeps
/// the nested schemes inside the paper's 1e12 axis at low error rates.
pub fn figure12(hops: u32, points_per_decade: u32) -> Vec<Series> {
    placement_series_of(&figure12_campaign(hops, points_per_decade), "pairs")
}

#[cfg(test)]
mod tests {
    use super::*;
    use qic_physics::constants::THRESHOLD_ERROR;

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

    /// Geometric mean of the finite y-values of a series.
    fn geo_mean(s: &Series) -> f64 {
        let logs: Vec<f64> = s
            .points
            .iter()
            .map(|p| p.1)
            .filter(|y| y.is_finite())
            .map(f64::ln)
            .collect();
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }

    #[test]
    fn figure10_endpoints_only_is_lowest() {
        // The paper's claim is aggregate: "the Endpoints Only scheme uses
        // the fewest total EPR resources". Individual distances can flip
        // briefly where the endpoint-round count steps (the staircase
        // visible in the published curves), so compare geometric means and
        // bound any local excursion.
        let series = figure10(&ChannelModel::ion_trap(), 60);
        assert_eq!(series.len(), 5);
        let only = series
            .iter()
            .find(|s| s.label.contains("only at end"))
            .unwrap();
        let m_only = geo_mean(only);
        for other in series.iter().filter(|s| !s.label.contains("only at end")) {
            assert!(
                m_only < geo_mean(other),
                "{} beat endpoints-only on average",
                other.label
            );
            for (a, b) in only.points.iter().zip(&other.points) {
                assert!(
                    a.1 <= b.1 * 2.5 + 1e-9,
                    "{} beat endpoints-only by >2.5x at x={}",
                    other.label,
                    a.0
                );
            }
        }
        // The two virtual-wire schemes order by rounds on average.
        let once = series
            .iter()
            .find(|s| s.label.contains("once before"))
            .unwrap();
        let twice = series
            .iter()
            .find(|s| s.label.contains("2x before"))
            .unwrap();
        assert!(geo_mean(once) < geo_mean(twice));
    }

    #[test]
    fn figure11_before_teleport_is_lowest() {
        let series = figure11(&ChannelModel::ion_trap(), 60);
        let twice_before = series
            .iter()
            .find(|s| s.label.contains("2x before"))
            .unwrap();
        for other in series.iter().filter(|s| !s.label.contains("2x before")) {
            for (a, b) in twice_before.points.iter().zip(&other.points) {
                assert!(
                    a.1 <= b.1 + 1e-9,
                    "{} beat 2x-before at x={}",
                    other.label,
                    a.0
                );
            }
        }
    }

    #[test]
    fn after_each_teleport_leaves_the_chart() {
        // The nested schemes exceed any plottable budget well before 60
        // hops — their curves "run off the top" like the paper's.
        let series = figure10(&ChannelModel::ion_trap(), 60);
        let nested = series
            .iter()
            .find(|s| s.label.contains("once after"))
            .unwrap();
        assert!(nested.points.last().unwrap().1.is_infinite());
        assert!(nested.breakdown_x().is_some());
    }

    #[test]
    fn figure12_breaks_down_near_1e5() {
        let series = figure12(16, 4);
        for s in &series {
            let bx = s
                .breakdown_x()
                .unwrap_or_else(|| panic!("{} should break down", s.label));
            assert!(
                (1e-6..=1e-4).contains(&bx),
                "{}: breakdown at {bx:.2e}, expected near 1e-5",
                s.label
            );
        }
        // Working-regime spread: over the span where all curves are finite,
        // resources vary far less than the error rate does (paper: "only
        // differ by a factor of up to 100 for a 10,000x difference").
        let endpoints = series
            .iter()
            .find(|s| s.label.contains("only at end"))
            .unwrap();
        let finite: Vec<f64> = endpoints
            .points
            .iter()
            .map(|p| p.1)
            .filter(|y| y.is_finite())
            .collect();
        let spread = finite.iter().cloned().fold(f64::MIN, f64::max)
            / finite.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread < 1000.0, "spread {spread}");
    }

    #[test]
    #[should_panic(expected = "does not sweep placement")]
    fn series_of_rejects_foreign_campaigns() {
        let space = ParamSpace::new()
            .axis(Axis::ints("a", [1, 2]))
            .axis(Axis::ints("b", [1, 2]));
        let report = run_to_completion(Campaign::new("not-a-figure", space), |_, _| {
            Metrics::new().with("pairs", 1.0)
        });
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
