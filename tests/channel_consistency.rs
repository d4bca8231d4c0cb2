//! Cross-crate integration: the analytical channel plans must be
//! internally consistent and consistent with the physics layer, and the
//! Figure 10–12 scenario presets must keep the paper's orderings.

use qic::prelude::*;
use qic_analytic::link;
use qic_analytic::plan::ChannelError;
use qic_analytic::strategy::PurifyPlacement;
use qic_physics::bell::BellDiagonal;

#[test]
fn plans_meet_threshold_across_all_distances_and_placements() {
    let base = ChannelModel::ion_trap();
    for placement in PurifyPlacement::FIGURE_SET {
        let model = base.clone().with_placement(placement);
        for hops in [1u32, 4, 16, 40, 64] {
            let plan = model
                .plan(hops)
                .unwrap_or_else(|e| panic!("{placement}, {hops} hops: {e}"));
            assert!(
                plan.final_state.error() <= constants::THRESHOLD_ERROR,
                "{placement} at {hops} hops delivered {:.2e}",
                plan.final_state.error()
            );
            assert!(
                plan.endpoint_rounds >= 1,
                "endpoint purification always runs"
            );
            assert!(
                plan.teleported_pairs >= f64::from(hops),
                "at least one pair crosses"
            );
            assert!(plan.total_pairs >= plan.teleported_pairs);
        }
    }
}

#[test]
fn endpoints_only_identity_total_equals_endpoint_pairs_times_hops_plus_one() {
    let model = ChannelModel::ion_trap();
    for hops in [5u32, 17, 33, 60] {
        let plan = model.plan(hops).expect("feasible");
        let expect = plan.endpoint_pairs * f64::from(hops + 1);
        assert!(
            (plan.total_pairs - expect).abs() < 1e-6 * expect,
            "hops={hops}: {} vs {}",
            plan.total_pairs,
            expect
        );
    }
}

#[test]
fn arriving_state_matches_manual_chain_composition() {
    // Rebuild the endpoints-only arriving state by hand from physics
    // primitives and compare against the plan.
    let model = ChannelModel::ion_trap();
    let hops = 12u32;
    let plan = model.plan(hops).expect("feasible");
    let rates = ErrorRates::ion_trap();
    let link = link::raw_link_state(600, &rates);
    let mut state = link;
    for _ in 0..hops {
        state = teleport::teleport_pair(&state, &link, &rates);
    }
    assert!(
        state.approx_eq(&plan.arriving_state, 1e-12),
        "manual {state} vs plan {}",
        plan.arriving_state
    );
}

#[test]
fn tighter_targets_cost_more() {
    let loose = ChannelModel::ion_trap().with_target_error(1e-3);
    let tight = ChannelModel::ion_trap().with_target_error(1e-5);
    let a = loose.plan(30).expect("loose feasible");
    let b = tight.plan(30).expect("tight feasible");
    assert!(b.endpoint_rounds >= a.endpoint_rounds);
    assert!(b.total_pairs >= a.total_pairs);
    assert!(b.final_state.error() <= 1e-5);
}

#[test]
fn breakdown_point_is_between_1e6_and_1e4() {
    // Figure 12's claim through the public API: find the uniform error
    // rate where channels become infeasible.
    let mut lo = 1e-7f64;
    let mut hi = 1e-3f64;
    for _ in 0..40 {
        let mid = (lo.ln() + hi.ln()).div_euclid(2.0).exp();
        let rates = ErrorRates::uniform(mid).expect("valid probability");
        let model = ChannelModel::ion_trap().with_rates(rates);
        match model.plan(30) {
            Ok(_) => lo = mid,
            Err(ChannelError::Unreachable { .. }) => hi = mid,
            Err(other) => panic!("unexpected error {other}"),
        }
    }
    assert!(
        (1e-6..=1e-4).contains(&hi),
        "breakdown near 1e-5 (got {hi:.2e})"
    );
}

#[test]
fn purified_links_really_are_what_the_planner_says() {
    // The planner's link state equals running the purify crate manually.
    let rates = ErrorRates::ion_trap();
    let noise = RoundNoise::from_rates(&rates);
    let spec = link::LinkSpec::raw_default().with_rounds(2);
    let from_link = link::link_state(&spec, &rates, &noise);
    let mut manual = link::raw_link_state(600, &rates);
    for _ in 0..2 {
        manual = Protocol::Dejmps.noisy_step(&manual, &noise).state;
    }
    assert!(from_link.approx_eq(&manual, 1e-15));
    let _unused: BellDiagonal = manual;
}

/// The named Figure 10–12 preset at `Full`, run through `qic::run`, as
/// one series per purification placement.
fn preset_series(name: &str) -> Vec<figures::Series> {
    let spec = ScenarioRegistry::builtin()
        .spec(name, ScenarioScale::Full)
        .expect("registered");
    let report = qic::run(&spec).expect("preset validates");
    figures::placement_series_of(&report.report, "pairs")
}

/// The series whose legend contains `frag`.
fn series<'a>(all: &'a [figures::Series], frag: &str) -> &'a figures::Series {
    all.iter()
        .find(|s| s.label.contains(frag))
        .unwrap_or_else(|| panic!("no series labelled {frag:?}"))
}

/// Geometric mean of the finite y-values of a series.
fn geo_mean(s: &figures::Series) -> f64 {
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
    let all = preset_series("fig10");
    assert_eq!(all.len(), 5);
    let only = series(&all, "only at end");
    let m_only = geo_mean(only);
    for other in all.iter().filter(|s| !s.label.contains("only at end")) {
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
    assert!(geo_mean(series(&all, "once before")) < geo_mean(series(&all, "2x before")));
}

#[test]
fn figure11_before_teleport_is_lowest() {
    let all = preset_series("fig11");
    let twice_before = series(&all, "2x before");
    for other in all.iter().filter(|s| !s.label.contains("2x before")) {
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
    let all = preset_series("fig10");
    let nested = series(&all, "once after");
    assert!(nested.points.last().unwrap().1.is_infinite());
    assert!(nested.breakdown_x().is_some());
}

#[test]
fn figure12_breaks_down_near_1e5() {
    let all = preset_series("fig12");
    for s in &all {
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
    let finite: Vec<f64> = series(&all, "only at end")
        .points
        .iter()
        .map(|p| p.1)
        .filter(|y| y.is_finite())
        .collect();
    let spread = finite.iter().cloned().fold(f64::MIN, f64::max)
        / finite.iter().cloned().fold(f64::MAX, f64::min);
    assert!(spread < 1000.0, "spread {spread}");
}
