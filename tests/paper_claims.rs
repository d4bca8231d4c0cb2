//! The paper's quantitative claims as one executable ledger.
//!
//! Each row names the figure or table, the claim, the paper's value,
//! the tolerance factor and the value this reproduction measures; a
//! value row holds when `measured / paper` lies within
//! `[1 / tolerance, tolerance]`. Fig. 16's claims are about shape, so
//! its rows hold or fail on the ordering they state. Every test checks
//! all of its rows and fails listing each row that does not hold.
//!
//! The Fig. 16 rows run at `Fig16Scale::Tiny` here; the paper's own
//! QFT-256 on 16×16 runs in the ignored test, with
//! `cargo test --release --test paper_claims -- --include-ignored`.

use std::fmt;

use qic::analytic::crossover;
use qic::analytic::figures::{self, Series};
use qic::analytic::plan::ChannelModel;
use qic::core::experiment::{figure16_from_campaign, Fig16Point, Fig16Result, Fig16Scale};
use qic::core::scenario::fig16_spec;
use qic::iontrap::waveform::ShuttlePlan;
use qic::physics::constants::{LEVEL2_STEANE_QUBITS, THRESHOLD_ERROR};
use qic::physics::error::ErrorRates;
use qic::physics::optime::OpTimes;
use qic::physics::transport;

/// One claim of the paper and how this reproduction measures up to it.
struct Row {
    figure: &'static str,
    claim: String,
    check: Check,
}

enum Check {
    /// `measured / paper` within `[1 / tolerance, tolerance]`.
    Value {
        paper: f64,
        tolerance: f64,
        measured: f64,
    },
    /// An ordering claim, with the numbers it was judged on.
    Shape { holds: bool, measured: String },
}

fn value(figure: &'static str, claim: &str, paper: f64, tolerance: f64, measured: f64) -> Row {
    Row {
        figure,
        claim: claim.to_string(),
        check: Check::Value {
            paper,
            tolerance,
            measured,
        },
    }
}

fn shape(figure: &'static str, claim: &str, holds: bool, measured: String) -> Row {
    Row {
        figure,
        claim: claim.to_string(),
        check: Check::Shape { holds, measured },
    }
}

impl Row {
    fn holds(&self) -> bool {
        match self.check {
            Check::Value {
                paper,
                tolerance,
                measured,
            } => {
                let ratio = measured / paper;
                ratio.is_finite() && ratio >= 1.0 / tolerance && ratio <= tolerance
            }
            Check::Shape { holds, .. } => holds,
        }
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:<8} {:<52} ", self.figure, self.claim)?;
        match &self.check {
            Check::Value {
                paper,
                tolerance,
                measured,
            } => write!(
                f,
                "paper={paper:>10.4e} measured={measured:>10.4e} ratio={:>7.3} tol={tolerance}",
                measured / paper
            )?,
            Check::Shape { measured, .. } => write!(f, "{measured}")?,
        }
        f.write_str(if self.holds() { "  OK" } else { "  FAIL" })
    }
}

/// The rows that do not hold, each rendered as its ledger line.
fn failures(rows: &[Row]) -> Vec<String> {
    rows.iter()
        .filter(|r| !r.holds())
        .map(Row::to_string)
        .collect()
}

/// Prints the ledger and fails listing every row that does not hold.
fn assert_ledger(rows: &[Row]) {
    for row in rows {
        println!("{row}");
    }
    let failed = failures(rows);
    assert!(
        failed.is_empty(),
        "{} of {} paper claims fail:\n{}",
        failed.len(),
        rows.len(),
        failed.join("\n")
    );
}

/// The `y` of the point at `x` on the series whose label contains `frag`.
fn y_at(series: &[Series], frag: &str, x: f64) -> f64 {
    series
        .iter()
        .find(|s| s.label.contains(frag))
        .and_then(|s| s.points.iter().find(|p| p.0 == x))
        .map_or(f64::NAN, |p| p.1)
}

/// The closed-form claims: Tables 1–2, Figs. 2 and 8–12, the §4.6
/// crossover and the §5.3 pair count.
fn analytic_rows() -> Vec<Row> {
    let t = OpTimes::ion_trap();
    let r = ErrorRates::ion_trap();
    let model = ChannelModel::ion_trap();

    // Fig. 2: shuttling an ion from cell 3 to cell 9.
    let shuttle = ShuttlePlan::new(3, 9)
        .expect("distinct cells")
        .waveforms(&t);
    // Fig. 8: rounds to reach error 1e-5 from F=0.99.
    let fig8 = figures::figure8(&r, 25);
    let rounds_to_1e5 = |protocol: &str| {
        fig8.iter()
            .find(|s| s.label.contains(protocol) && s.label.ends_with("=0.99"))
            .and_then(|s| s.points.iter().find(|p| p.1 <= 1e-5))
            .map_or(f64::INFINITY, |p| p.0)
    };
    let (dejmps, bbpssw) = (rounds_to_1e5("DEJMPS"), rounds_to_1e5("BBPSSW"));
    // Fig. 9: error against teleport hops, per initial link error.
    let fig9 = figures::figure9(&r, 70);
    let e6 = &fig9
        .iter()
        .find(|s| s.label.starts_with("1e-6"))
        .expect("1e-6 series")
        .points;
    let growth_64 = e6[64].1 / e6[0].1;
    let e5_crossing = fig9
        .iter()
        .find(|s| s.label.starts_with("1e-5"))
        .and_then(|s| s.points.iter().find(|p| p.1 > THRESHOLD_ERROR))
        .map_or(f64::NAN, |p| p.0);
    // Figs. 10–11: total and teleported pairs per placement.
    let fig10 = figures::placement_series_of(&figures::figure10_campaign(&model, 60), "pairs");
    let fig11 = figures::figure11(&model, 60);
    // §5.3: the longest dimension-order path on the 16×16 grid, 30 hops.
    let plan = model.plan(30).expect("feasible channel");
    let crossover = crossover::crossover_cells(&t).expect("crossover exists") as f64;

    #[rustfmt::skip]
    let mut rows = vec![
        value("Table 1", "one-qubit gate t1q (µs)", 1.0, 1.0001, t.one_qubit_gate().as_us_f64()),
        value("Table 1", "two-qubit gate t2q (µs)", 20.0, 1.0001, t.two_qubit_gate().as_us_f64()),
        value("Table 1", "move one cell tmv (µs)", 0.2, 1.0001, t.move_cell().as_us_f64()),
        value("Table 1", "measure tms (µs)", 100.0, 1.0001, t.measure().as_us_f64()),
        value("Table 1", "generate tgen (µs)", 122.0, 1.0001, t.generate().as_us_f64()),
        value("Table 1", "teleport ttprt, local part (µs)", 122.0, 1.0001, t.teleport_local().as_us_f64()),
        value("Table 1", "purify tprfy, ~600-cell channel (µs)", 121.0, 1.02, t.purify_round(600).as_us_f64()),
        value("Table 2", "one-qubit gate p1q", 1e-8, 1.0001, r.one_qubit_gate()),
        value("Table 2", "two-qubit gate p2q", 1e-7, 1.0001, r.two_qubit_gate()),
        value("Table 2", "move one cell pmv", 1e-6, 1.0001, r.move_cell()),
        value("Table 2", "measure pms", 1e-8, 1.0001, r.measure()),
        value("Table 2", "movement error across 100 cells", 1e-4, 1.1, 1.0 - transport::survival(100, &r)),
        value("Fig. 2", "phases (one per cell)", 6.0, 1.0001, f64::from(shuttle.phases())),
        value("Fig. 2", "total shuttle time (µs, Eq. 2)", 1.2, 1.0001, shuttle.total_time().as_us_f64()),
        value("Fig. 8", "DEJMPS rounds to 1e-5 from F=0.99", 3.0, 2.0, dejmps),
        value("Fig. 8", "BBPSSW rounds to 1e-5 from F=0.99", 20.0, 2.0, bbpssw),
        value("Fig. 8", "BBPSSW/DEJMPS round ratio (paper: 5-10x)", 7.0, 2.0, bbpssw / dejmps),
        value("Fig. 9", "error growth over 64 hops, 1e-6 links (~100x)", 100.0, 3.0, growth_64),
        value("Fig. 9", "hops until 1e-5 links cross threshold", 7.0, 2.0, e5_crossing),
        value("Fig. 10", "endpoints-only total pairs at 60 hops", 5.0e2, 2.0, y_at(&fig10, "only at end", 60.0)),
        value("Fig. 10", "once-before total at 60 hops", 5.7e2, 2.0, y_at(&fig10, "once before", 60.0)),
        value("Fig. 10", "2x-before total at 60 hops", 6.6e2, 2.0, y_at(&fig10, "2x before", 60.0)),
        value("Fig. 11", "endpoints-only teleported at 60 hops", 5.3e2, 2.0, y_at(&fig11, "only at end", 60.0)),
        value("Fig. 11", "once-before teleported (lower)", 2.5e2, 2.0, y_at(&fig11, "once before", 60.0)),
        value("Fig. 11", "2x-before teleported (lowest)", 1.2e2, 2.0, y_at(&fig11, "2x before", 60.0)),
        value("§4.6", "ballistic/teleport crossover (cells)", 600.0, 1.1, crossover),
        value("§5.3", "endpoint purification rounds", 3.0, 1.0001, f64::from(plan.endpoint_rounds)),
        value("§5.3", "raw pairs per purified pair (2^3 plus failures)", 8.0, 1.25, plan.endpoint_pairs),
        value("§5.3", "pairs per logical communication", 392.0, 1.25, plan.pairs_per_logical_comm(LEVEL2_STEANE_QUBITS)),
    ];
    // Fig. 12: every placement breaks down near a 1e-5 op error rate.
    let fig12 = figures::placement_series_of(&figures::figure12_campaign(16, 4), "pairs");
    rows.extend(fig12.iter().map(|s| {
        let claim = format!(
            "breakdown error rate [{}]",
            &s.label[..28.min(s.label.len())]
        );
        value(
            "Fig. 12",
            &claim,
            1e-5,
            4.0,
            s.breakdown_x().unwrap_or(f64::NAN),
        )
    }));
    rows
}

/// Fig. 16's shape: Home Base tolerates trading purifiers for
/// teleporters and generators; Mobile suffers at t=g=8p.
fn fig16_rows(result: &Fig16Result) -> Vec<Row> {
    let at = |label: &str| {
        result
            .points
            .iter()
            .find(|p| p.label == label)
            .unwrap_or_else(|| panic!("sweep point {label}"))
    };
    let (p1, p2, p4, p8) = (at("t=g=1p"), at("t=g=2p"), at("t=g=4p"), at("t=g=8p"));
    let series = |pick: fn(&Fig16Point) -> f64| {
        [p1, p2, p4, p8]
            .map(|p| format!("{:.3}", pick(p)))
            .join(" / ")
    };
    let home = series(|p| p.home_base);
    let mobile = series(|p| p.mobile);
    let (home_rise, mobile_rise) = (p8.home_base / p4.home_base, p8.mobile / p4.mobile);
    vec![
        shape(
            "Fig. 16",
            "Home Base does not slow from t=g=1p to 2p to 4p",
            p2.home_base <= p1.home_base && p4.home_base <= p2.home_base,
            format!("Home Base {home}"),
        ),
        shape(
            "Fig. 16",
            "Mobile's worst point is t=g=8p",
            [p1, p2, p4].iter().all(|p| p.mobile < p8.mobile),
            format!("Mobile {mobile}"),
        ),
        shape(
            "Fig. 16",
            "Mobile rises more than Home Base from 4p to 8p",
            mobile_rise > home_rise,
            format!("Mobile x{mobile_rise:.3} vs Home Base x{home_rise:.3}"),
        ),
    ]
}

fn fig16_at(scale: Fig16Scale) -> Fig16Result {
    let report = qic::run(&fig16_spec(scale)).expect("figure presets validate");
    figure16_from_campaign(scale, &report.report)
}

#[test]
fn analytic_claims_hold() {
    let rows = analytic_rows();
    assert_eq!(rows.len(), 34, "one row per closed-form claim");
    assert_ledger(&rows);
}

#[test]
fn fig16_shape_holds_at_tiny_scale() {
    assert_ledger(&fig16_rows(&fig16_at(Fig16Scale::Tiny)));
}

/// The paper's configuration: QFT-256 on 16×16, 49 qubits per logical
/// qubit, depth-3 purifiers. About 2¼ minutes on two cores in release.
#[test]
#[ignore = "paper scale; run with --release -- --include-ignored"]
fn fig16_shape_holds_at_paper_scale() {
    assert_ledger(&fig16_rows(&fig16_at(Fig16Scale::Paper)));
}

#[test]
fn ledger_reports_every_failing_row() {
    let rows = [
        value("T", "exact", 2.0, 1.0001, 2.0),
        value("T", "twice the paper", 2.0, 1.5, 4.0),
        value("T", "unmeasured", 2.0, 1.5, f64::NAN),
        shape("T", "ordering", false, "3 / 2".to_string()),
    ];
    let failed = failures(&rows);
    assert_eq!(failed.len(), 3, "{failed:?}");
    assert!(failed[0].contains("twice the paper") && failed[0].ends_with("FAIL"));
    assert!(failed[2].contains("ordering") && failed[2].contains("3 / 2"));
}
