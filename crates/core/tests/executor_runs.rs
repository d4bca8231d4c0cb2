//! `run_with` on a shared executor versus `run` (per-call pool): the
//! report must be byte-identical — the service layer's cache keys on a
//! spec digest and then serves shared-pool output as if it were `run`
//! output.

use std::sync::Arc;

use qic_core::scenario::{
    self, ScenarioProgress, ScenarioRegistry, ScenarioReport, ScenarioScale, ScenarioSpec,
    SpecDigest,
};
use qic_sweep::{CancelToken, Executor, JsonlProgress, RunOptions};

fn preset(name: &str) -> ScenarioSpec {
    ScenarioRegistry::builtin()
        .spec(name, ScenarioScale::SmallTest)
        .unwrap_or_else(|| panic!("{name} is registered"))
}

/// Runs `spec` on the shared pool `exec` to completion.
fn run_on(spec: &ScenarioSpec, exec: &Executor) -> ScenarioReport {
    let opts = RunOptions {
        exec: Some(exec),
        ..RunOptions::default()
    };
    match scenario::run_with(spec, &opts).expect("executor run") {
        ScenarioProgress::Complete(report) => *report,
        ScenarioProgress::Partial { .. } => panic!("uncancelled runs complete"),
    }
}

#[test]
fn run_on_matches_run_byte_for_byte() {
    let exec = Executor::new(2);
    // One machine preset (simulator path) and one channel spec
    // (closed-form path) — both families go through the executor.
    for spec in [
        preset("design_space"),
        preset("topology_faceoff"),
        preset("fig12"),
    ] {
        let direct = scenario::run(&spec).expect("direct run");
        let shared = run_on(&spec, &exec);
        assert_eq!(shared, direct, "{}", spec.name);
        assert_eq!(
            shared.report.to_json(),
            direct.report.to_json(),
            "{}",
            spec.name
        );
        assert_eq!(
            shared.report.to_csv(),
            direct.report.to_csv(),
            "{}",
            spec.name
        );
        assert_eq!(
            shared.report.to_record_json(),
            direct.report.to_record_json(),
            "{}",
            spec.name
        );
    }
}

#[test]
fn run_on_ignores_the_workers_hint() {
    let exec = Executor::new(1);
    let spec = preset("design_space");
    let hinted = spec.clone().with_workers(6);
    assert_eq!(
        SpecDigest::of(&hinted),
        SpecDigest::of(&spec),
        "workers is not identity"
    );
    assert_eq!(
        run_on(&hinted, &exec).report.to_json(),
        scenario::run(&spec).unwrap().report.to_json()
    );
}

#[test]
fn run_on_cancellable_streams_progress_and_stops() {
    let exec = Executor::new(2);
    let spec = preset("design_space");
    // Uncancelled: completes, and the sink hears one finish per point.
    let sink = Arc::new(JsonlProgress::new(Vec::new(), 8));
    let opts = RunOptions {
        exec: Some(&exec),
        progress: Some(Arc::clone(&sink) as _),
        ..RunOptions::default()
    };
    let ScenarioProgress::Complete(report) = scenario::run_with(&spec, &opts).expect("valid spec")
    else {
        panic!("uncancelled runs complete");
    };
    assert_eq!(sink.done(), report.report.points.len());
    // Pre-cancelled: no points run, no report.
    let token = CancelToken::new();
    token.cancel();
    let opts = RunOptions {
        exec: Some(&exec),
        cancel: token,
        ..RunOptions::default()
    };
    let cancelled = scenario::run_with(&spec, &opts).expect("valid spec");
    assert!(
        matches!(cancelled, ScenarioProgress::Partial { done: 0, .. }),
        "cancelled runs yield no report"
    );
}
