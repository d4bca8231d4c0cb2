//! Golden-file tests: the Scenario API reproduces the pre-redesign
//! figure campaigns **byte for byte**.
//!
//! The files under `tests/golden/` were captured from the legacy
//! per-figure functions (`figure10_campaign`, `figure12_campaign`,
//! `figure16_campaign`, `topology_faceoff_campaign`) immediately before
//! the redesign. Any drift in the new path — campaign identity, axis
//! values, per-point evaluation, emitter formatting — fails here.
//!
//! The `*_small` files pin the modular and degraded presets at
//! `SmallTest` scale, captured before fabric construction moved onto
//! the shared flat-adjacency BFS and the per-campaign fabric memo: a
//! fabric build that changed a distance, a port order or a cost column
//! would move their bytes.

use qic::core::experiment::{FaceoffScale, Fig16Scale};
use qic::core::scenario::{faceoff_spec, fig16_spec, ScenarioRegistry, ScenarioScale};
use qic::ScenarioReport;

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden file {path}: {e}"))
}

fn assert_matches_golden(report: &ScenarioReport, stem: &str) {
    assert_eq!(
        report.to_csv(),
        golden(&format!("{stem}.csv")),
        "{stem}: CSV drifted from its golden file"
    );
    assert_eq!(
        report.to_json(),
        golden(&format!("{stem}.json")),
        "{stem}: JSON drifted from its golden file"
    );
}

#[test]
fn fig10_is_byte_identical_to_the_legacy_campaign() {
    let spec = ScenarioRegistry::builtin()
        .spec("fig10", ScenarioScale::Full)
        .expect("registered");
    assert_matches_golden(&qic::run(&spec).expect("preset validates"), "fig10");
}

#[test]
fn fig12_is_byte_identical_to_the_legacy_campaign() {
    let spec = ScenarioRegistry::builtin()
        .spec("fig12", ScenarioScale::Full)
        .expect("registered");
    assert_matches_golden(&qic::run(&spec).expect("preset validates"), "fig12");
}

#[test]
fn fig16_is_byte_identical_to_the_legacy_campaign() {
    // Tiny scale: the same configuration the legacy unit suite ran.
    let report = qic::run(&fig16_spec(Fig16Scale::Tiny)).expect("preset validates");
    assert_matches_golden(&report, "fig16_tiny");
}

#[test]
fn faceoff_is_byte_identical_to_the_legacy_campaign() {
    let report = qic::run(&faceoff_spec(FaceoffScale::Tiny)).expect("preset validates");
    assert_matches_golden(&report, "faceoff_tiny");
}

/// Runs a registry preset at `SmallTest` scale against its `_small`
/// golden pair.
fn assert_small_preset_matches_golden(name: &str) {
    let spec = ScenarioRegistry::builtin()
        .spec(name, ScenarioScale::SmallTest)
        .expect("registered");
    let report = qic::run(&spec).expect("preset validates");
    assert_matches_golden(&report, &format!("{name}_small"));
}

#[test]
fn cost_fidelity_pareto_is_byte_identical_to_its_golden() {
    assert_small_preset_matches_golden("cost_fidelity_pareto");
}

#[test]
fn modular_faceoff_is_byte_identical_to_its_golden() {
    assert_small_preset_matches_golden("modular_faceoff");
}

#[test]
fn resilience_sweep_is_byte_identical_to_its_golden() {
    assert_small_preset_matches_golden("resilience_sweep");
}

#[test]
fn json_round_trip_preserves_golden_outputs() {
    // Serialize → parse → run must hit the same bytes: the spec really
    // is the whole experiment.
    let spec = fig16_spec(Fig16Scale::Tiny);
    let reloaded = qic::ScenarioSpec::from_json(&spec.to_json()).expect("round-trip");
    assert_matches_golden(&qic::run(&reloaded).expect("validates"), "fig16_tiny");
}
