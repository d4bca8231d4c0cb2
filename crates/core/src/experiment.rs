//! Experiment presets: the Figure 16 resource sweep and the
//! multi-topology faceoff campaign.
//!
//! **Figure 16** — "By fixing the area dedicated to the interconnection
//! network (T', G, and P nodes) and varying the size of T' and G nodes
//! relative to P nodes, we can demonstrate where the bottlenecks in the
//! system arise." The sweep holds `t + g + p` (in unit-area terms)
//! constant while varying the ratio `t = g = R·p` for `R ∈ {1, 2, 4, 8}`,
//! runs the QFT benchmark under both layouts, and normalises every
//! execution time to the `t = g = p = 1024` run ("a close approximation
//! of unlimited resources").
//!
//! **Topology faceoff** — the question the paper could not ask: the same
//! workload on the same node count across mesh, torus and hypercube
//! fabrics under both routing policies.
//!
//! Since the Scenario API redesign both presets are **declarative
//! specs** — [`crate::scenario::fig16_spec`] and
//! [`crate::scenario::faceoff_spec`], registered as `fig16` and
//! `topology_faceoff` in the [`crate::scenario::ScenarioRegistry`] —
//! and run through the single `qic::run` entry point (the deprecated
//! `figure16*`/`topology_faceoff*` shims are gone; the registry specs
//! are the only entry points, byte-identical to the pre-redesign
//! campaigns — golden tests hold the line).
//! [`figure16_from_campaign`] remains the supported way to unpack a
//! Figure 16 campaign report into the paper's normalized dataset.

use qic_sweep::CampaignReport;

use crate::layout::Layout;
use crate::scenario::ratio_resources;

/// Scale of the Figure 16 reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig16Scale {
    /// The paper's configuration: QFT-256 on a 16×16 grid, 49 qubits per
    /// logical qubit, depth-3 purifiers. Minutes of wall-clock time.
    Paper,
    /// QFT-64 on an 8×8 grid with a level-1 code (7 qubits per logical
    /// qubit). Seconds of wall-clock time; same contention shape.
    Reduced,
    /// QFT-16 on a 4×4 grid, for tests.
    Tiny,
}

impl Fig16Scale {
    /// The QFT size the sweep runs at this scale.
    pub(crate) fn qft_size(self) -> u32 {
        match self {
            Fig16Scale::Paper => 256,
            Fig16Scale::Reduced => 64,
            Fig16Scale::Tiny => 16,
        }
    }

    /// Interconnect area budget (unit-area resource slots per node group).
    /// Large enough that every ratio in the sweep changes `p`:
    /// at 90, `t=g=R·p` gives (30,30), (36,18), (40,10), (40,5); at 36 it
    /// gives (12,12), (14,7), (16,4), (16,2).
    pub(crate) fn area(self) -> u32 {
        match self {
            Fig16Scale::Paper | Fig16Scale::Reduced => 90,
            Fig16Scale::Tiny => 36,
        }
    }
}

/// One x-axis point of Figure 16.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig16Point {
    /// Human-readable configuration label (e.g. `"t=g=4p"`).
    pub label: String,
    /// Teleporters per T' node.
    pub t: u32,
    /// Generators per G node.
    pub g: u32,
    /// Queue purifiers per P node.
    pub p: u32,
    /// Home-Base execution time normalized to the unlimited baseline.
    pub home_base: f64,
    /// Mobile-Qubit execution time normalized to the unlimited baseline.
    pub mobile: f64,
}

/// The full Figure 16 dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig16Result {
    /// Scale the sweep ran at.
    pub scale: Fig16Scale,
    /// Baseline (t=g=p=1024) makespans in microseconds, per layout
    /// `[home_base, mobile]`.
    pub baseline_us: [f64; 2],
    /// Sweep points in increasing `t:p` ratio.
    pub points: Vec<Fig16Point>,
}

/// The `t:p` ratios of the Figure 16 x-axis; `0` encodes the unlimited
/// `t = g = p = 1024` baseline point.
pub(crate) const RATIOS: [i64; 5] = [0, 1, 2, 4, 8];

/// Extracts the paper's normalized Figure 16 dataset from an
/// already-run campaign (the report of
/// [`crate::scenario::fig16_spec`] through `qic::run`).
///
/// # Panics
///
/// Panics if `report` is not a Figure 16 campaign run at `scale`
/// (campaign name or shape mismatch).
pub fn figure16_from_campaign(scale: Fig16Scale, report: &CampaignReport) -> Fig16Result {
    let n_layouts = Layout::ALL.len();
    assert_eq!(
        report.name,
        format!("figure16:{scale:?}"),
        "not a Figure 16 campaign for this scale"
    );
    assert_eq!(
        report.points.len(),
        RATIOS.len() * n_layouts,
        "campaign shape mismatch"
    );
    let makespan = |ratio_idx: usize, layout_idx: usize| {
        report
            .mean_at(ratio_idx * n_layouts + layout_idx, "makespan_us")
            .expect("every point reports a makespan")
    };
    let baseline = [makespan(0, 0), makespan(0, 1)];
    let area = scale.area();
    let points = RATIOS[1..]
        .iter()
        .enumerate()
        .map(|(i, &ratio)| {
            let (t, g, p) = ratio_resources(ratio, area);
            Fig16Point {
                label: format!("t=g={}p", ratio),
                t,
                g,
                p,
                home_base: makespan(i + 1, 0) / baseline[0],
                mobile: makespan(i + 1, 1) / baseline[1],
            }
        })
        .collect();
    Fig16Result {
        scale,
        baseline_us: baseline,
        points,
    }
}

/// Scale of the topology faceoff campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaceoffScale {
    /// 64 nodes (8×8 grid / dimension-6 hypercube), QFT-64, level-1
    /// code. Seconds of wall-clock time.
    Full,
    /// 16 nodes (4×4 grid / dimension-4 hypercube), QFT-16, for tests.
    Tiny,
}

impl FaceoffScale {
    /// The QFT size the faceoff runs at this scale.
    pub(crate) fn qft_size(self) -> u32 {
        match self {
            FaceoffScale::Full => 64,
            FaceoffScale::Tiny => 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{faceoff_spec, fig16_spec, run};
    use qic_net::routing::RoutingPolicy;
    use qic_net::topology::TopologyKind;

    fn fig16_report(scale: Fig16Scale) -> CampaignReport {
        run(&fig16_spec(scale)).expect("preset validates").report
    }

    fn faceoff_report(scale: FaceoffScale) -> CampaignReport {
        run(&faceoff_spec(scale)).expect("preset validates").report
    }

    #[test]
    fn campaign_shape_and_metrics() {
        let report = fig16_report(Fig16Scale::Tiny);
        assert_eq!(report.name, "figure16:Tiny");
        assert_eq!(report.points.len(), RATIOS.len() * Layout::ALL.len());
        for p in &report.points {
            assert!(p.mean("makespan_us").unwrap() > 0.0);
            assert!(p.mean("comms_completed").unwrap() > 0.0);
            assert!(p.mean("latency_p95_us").unwrap() >= p.mean("latency_p50_us").unwrap());
        }
        let csv = report.to_csv();
        assert!(csv.starts_with("index,ratio,layout,makespan_us.mean"));
        assert_eq!(csv.lines().count(), report.points.len() + 1);
    }

    #[test]
    #[should_panic(expected = "not a Figure 16 campaign for this scale")]
    fn mismatched_scale_is_rejected() {
        let report = fig16_report(Fig16Scale::Tiny);
        let _ = figure16_from_campaign(Fig16Scale::Reduced, &report);
    }

    #[test]
    fn tiny_sweep_shape() {
        let result = figure16_from_campaign(Fig16Scale::Tiny, &fig16_report(Fig16Scale::Tiny));
        assert_eq!(result.points.len(), 4);
        for pt in &result.points {
            assert!(pt.home_base >= 0.99, "{}: constrained ≥ baseline", pt.label);
            assert!(pt.mobile >= 0.99, "{}", pt.label);
            assert_eq!(
                pt.t, pt.g,
                "paper matches generator and teleporter bandwidth"
            );
            assert!(pt.t >= pt.p || pt.label == "t=g=1p");
        }
        assert!(result.baseline_us[0] > 0.0);
        assert!(result.baseline_us[1] > 0.0);
        // Mobile baseline beats Home-Base baseline (mostly 1-hop walks).
        assert!(result.baseline_us[1] < result.baseline_us[0]);
    }

    #[test]
    fn faceoff_covers_every_fabric_and_policy() {
        let report = faceoff_report(FaceoffScale::Tiny);
        assert_eq!(report.name, "topology_faceoff:Tiny");
        assert_eq!(
            report.points.len(),
            TopologyKind::ALL.len() * RoutingPolicy::ALL.len()
        );
        let csv = report.to_csv();
        assert!(csv.starts_with("index,topology,routing,makespan_us.mean"));
        for p in &report.points {
            assert!(p.mean("makespan_us").unwrap() > 0.0);
            assert!(p.mean("comms_completed").unwrap() > 0.0);
            // The label axes round-trip onto domain types.
            let kind = p.param("topology").as_text().unwrap();
            assert!(TopologyKind::parse(kind).is_some(), "{kind}");
            let routing = p.param("routing").as_text().unwrap();
            assert!(RoutingPolicy::parse(routing).is_some(), "{routing}");
        }
    }

    #[test]
    fn faceoff_orders_fabrics_by_connectivity() {
        let report = faceoff_report(FaceoffScale::Tiny);
        let metric = |topo: &str, name: &str| {
            report
                .points
                .iter()
                .find(|p| {
                    p.param("topology").as_text() == Some(topo)
                        && p.param("routing").as_text() == Some("dor")
                })
                .and_then(|p| p.mean(name))
                .expect("point exists")
        };
        // Shorter routes mean strictly less teleport work on identical
        // traffic: wrap links and Hamming routes both beat the mesh.
        let ops = |t: &str| metric(t, "teleport_ops");
        assert!(
            ops("torus") < ops("mesh"),
            "{} vs {}",
            ops("torus"),
            ops("mesh")
        );
        assert!(ops("hypercube") < ops("mesh"));
        // The torus converts that into wall-clock wins; the hypercube
        // does not necessarily (its higher radix splits the same t
        // teleporters across more dimension sets — at small t each set
        // serialises, which is exactly the trade the faceoff surfaces).
        let makespan = |t: &str| metric(t, "makespan_us");
        assert!(
            makespan("torus") <= makespan("mesh"),
            "torus {} vs mesh {}",
            makespan("torus"),
            makespan("mesh")
        );
    }

    #[test]
    fn faceoff_is_worker_count_independent() {
        // The acceptance gate: the real faceoff campaign sweeps
        // topology × routing and emits byte-identical reports for 1 and
        // 4 workers.
        let serial = run(&faceoff_spec(FaceoffScale::Tiny).with_workers(1))
            .unwrap()
            .report;
        let parallel = run(&faceoff_spec(FaceoffScale::Tiny).with_workers(4))
            .unwrap()
            .report;
        assert_eq!(serial.to_csv(), parallel.to_csv());
        assert_eq!(serial.to_json(), parallel.to_json());
    }

    #[test]
    fn mobile_suffers_at_extreme_purifier_starvation() {
        // The paper's key Mobile observation: taking resources away from
        // P nodes eventually hurts (t=g=8p worse than t=g=4p).
        let result = figure16_from_campaign(Fig16Scale::Tiny, &fig16_report(Fig16Scale::Tiny));
        let at = |label: &str| {
            result
                .points
                .iter()
                .find(|p| p.label == label)
                .unwrap_or_else(|| panic!("{label} missing"))
        };
        let r4 = at("t=g=4p");
        let r8 = at("t=g=8p");
        assert!(
            r8.mobile >= r4.mobile,
            "mobile at 8p ({}) should not beat 4p ({})",
            r8.mobile,
            r4.mobile
        );
    }
}
