//! Scenario smoke: every registry entry, at `small_test` scale, must
//! validate, JSON round-trip, and run to a well-formed report through
//! the single `qic::run` entry point. CI runs this as its
//! scenario-smoke step; golden drift on the figure presets is caught by
//! `tests/scenario_golden.rs`.

use qic::prelude::*;

#[test]
fn every_registered_scenario_runs_at_small_test_scale() {
    let registry = ScenarioRegistry::builtin();
    assert!(
        registry.entries().len() >= 8,
        "the gallery promises at least eight presets"
    );
    for entry in registry.entries() {
        let spec = entry.spec(ScenarioScale::SmallTest);
        spec.validate()
            .unwrap_or_else(|e| panic!("{}: {e}", entry.name));

        // The spec is data: it must survive serialization before it
        // ever runs.
        let reloaded = ScenarioSpec::from_json(&spec.to_json())
            .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        assert_eq!(spec, reloaded, "{}: JSON round trip drifted", entry.name);

        let report = qic::run(&reloaded).unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        assert_eq!(report.spec.name, spec.name);
        assert!(
            !report.report.points.is_empty(),
            "{}: empty report",
            entry.name
        );
        let metric = match spec.experiment {
            ExperimentSpec::Machine { .. } => "makespan_us",
            ExperimentSpec::Channel { .. } => "pairs",
        };
        for point in &report.report.points {
            let v = point
                .mean(metric)
                .unwrap_or_else(|| panic!("{}: point missing {metric}", entry.name));
            assert!(
                v > 0.0 || v.is_infinite(),
                "{}: nonsense {metric} {v}",
                entry.name
            );
        }
        // Emitters never fail and stay non-empty.
        assert!(report.to_csv().lines().count() > report.report.points.len());
        assert!(report.to_json().ends_with("}\n"));
    }
}

#[test]
fn full_scale_specs_validate_without_running() {
    // The whole Full registry runs in about 3 s on one worker, but this
    // test only validates: `degraded_faceoff` still panics at Full
    // scale (the adaptive-routing deadlock on damaged fabrics, ROADMAP
    // item 1). Validation must be instant and clean for every preset.
    for entry in ScenarioRegistry::builtin().entries() {
        entry
            .spec(ScenarioScale::Full)
            .validate()
            .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
    }
}
