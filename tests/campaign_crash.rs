//! Crash/resume differentials at the scenario level: a checkpointed
//! run killed at a commit boundary (budgeted stop) — or crashed mid-
//! write (torn `.tmp`) — resumes to the byte-identical report, and a
//! damaged manifest surfaces a structured error, never a wrong report.

use std::fs;
use std::path::{Path, PathBuf};

use std::sync::Arc;

use qic::prelude::*;
use qic::sweep::CheckpointError;
use qic::RunOptions;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("campaign_crash")
        .join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

fn preset() -> ScenarioSpec {
    ScenarioRegistry::builtin()
        .spec("synthetic_stress", ScenarioScale::SmallTest)
        .expect("preset exists")
}

fn checkpointed(dir: &Path, every: u32) -> ScenarioSpec {
    preset().with_checkpoint(CheckpointSpec::to_dir(dir.display().to_string()).with_every(every))
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("synthetic_stress.ckpt.json")
}

/// Evaluates at most `budget` more points of `spec`, then stops.
fn run_budgeted(spec: &ScenarioSpec, budget: usize) -> Result<ScenarioProgress, ScenarioError> {
    let opts = RunOptions {
        budget: Some(budget),
        ..RunOptions::default()
    };
    qic::run_with(spec, &opts)
}

fn complete(progress: ScenarioProgress) -> ScenarioReport {
    match progress {
        ScenarioProgress::Complete(report) => *report,
        ScenarioProgress::Partial { done, total } => panic!("stopped at {done}/{total}"),
    }
}

#[test]
fn killed_scenario_resumes_to_the_byte_identical_report() {
    let dir = tmp_dir("kill_resume");
    let spec = checkpointed(&dir, 1);

    // Kill the campaign dead after 1 of its points: a budgeted run
    // stops exactly at a commit boundary, like a SIGKILL landing right
    // after a manifest rename.
    let progress = run_budgeted(&spec, 1).unwrap();
    let ScenarioProgress::Partial { done, total } = progress else {
        panic!("a 1-point budget cannot finish the sweep");
    };
    assert_eq!(done, 1);
    assert!(manifest_path(&dir).exists(), "partial manifest committed");

    // Resume to completion; compare against an un-killed checkpointed
    // run in a fresh directory (both use streaming aggregation).
    let resumed = qic::run(&spec).unwrap();
    let fresh_dir = tmp_dir("kill_resume_fresh");
    let fresh = qic::run(&checkpointed(&fresh_dir, 1)).unwrap();
    assert_eq!(resumed.report, fresh.report);
    assert_eq!(resumed.to_json(), fresh.to_json());
    assert_eq!(resumed.to_csv(), fresh.to_csv());
    assert_eq!(
        resumed.report.to_record_json(),
        fresh.report.to_record_json()
    );
    assert_eq!(done + (total - done), resumed.report.points.len());

    // Streaming vs buffered: the CSV bytes also match the ordinary
    // uncheckpointed run (summaries are bitwise identical; only raw
    // samples are not retained).
    let plain = qic::run(&preset()).unwrap();
    assert_eq!(resumed.to_csv(), plain.to_csv());
}

#[test]
fn a_torn_tmp_from_a_mid_write_crash_does_not_poison_resume() {
    let dir = tmp_dir("torn_tmp");
    let spec = checkpointed(&dir, 1);
    run_budgeted(&spec, 1).unwrap();

    // A crash mid-commit leaves a torn `.tmp` beside the intact
    // manifest (the rename never happened). Resume must ignore it.
    let torn = PathBuf::from(format!("{}.tmp", manifest_path(&dir).display()));
    fs::write(&torn, "{\"record\":\"campaign_ch").unwrap();

    let resumed = qic::run(&spec).unwrap();
    let plain = qic::run(&preset()).unwrap();
    assert_eq!(resumed.to_csv(), plain.to_csv());
}

#[test]
fn corrupted_manifest_is_a_structured_error_not_a_wrong_report() {
    let dir = tmp_dir("corrupt");
    let spec = checkpointed(&dir, 1);
    run_budgeted(&spec, 1).unwrap();

    // Truncate the manifest mid-document.
    let path = manifest_path(&dir);
    let good = fs::read_to_string(&path).unwrap();
    fs::write(&path, &good[..good.len() / 2]).unwrap();

    let err = qic::run(&spec).unwrap_err();
    let ScenarioError::Checkpoint(inner) = err else {
        panic!("expected a checkpoint error, got {err}");
    };
    assert!(
        matches!(inner, CheckpointError::Corrupt { .. }),
        "expected Corrupt, got {inner}"
    );
}

#[test]
fn editing_the_spec_under_a_manifest_is_a_mismatch() {
    let dir = tmp_dir("spec_drift");
    run_budgeted(&checkpointed(&dir, 1), 1).unwrap();

    // Same scenario, different seed: the manifest no longer matches.
    let mut drifted = checkpointed(&dir, 1);
    drifted.seed ^= 1;
    let err = qic::run(&drifted).unwrap_err();
    let ScenarioError::Checkpoint(inner) = err else {
        panic!("expected a checkpoint error, got {err}");
    };
    assert!(
        matches!(inner, CheckpointError::Mismatch { .. }),
        "expected Mismatch, got {inner}"
    );
}

#[test]
fn budgeted_runs_without_a_checkpoint_block_are_rejected() {
    let err = run_budgeted(&preset(), 1).unwrap_err();
    assert!(matches!(err, ScenarioError::Spec { .. }), "{err}");
}

#[test]
fn wall_times_are_excluded_from_equality_and_emitters() {
    // Regression for merge/resume wall-clock bookkeeping: resumed
    // reports carry zero wall times for previously committed points,
    // fresh ones carry real measurements — nothing observable differs.
    let dir = tmp_dir("wall_ns");
    let spec = checkpointed(&dir, 1);
    run_budgeted(&spec, 2).unwrap();
    let resumed = qic::run(&spec).unwrap();
    let fresh_dir = tmp_dir("wall_ns_fresh");
    let fresh = qic::run(&checkpointed(&fresh_dir, 1)).unwrap();
    assert_eq!(resumed.report.wall_ns.len(), fresh.report.wall_ns.len());
    assert_eq!(
        resumed.report, fresh.report,
        "wall_ns must not affect equality"
    );
    assert_eq!(resumed.to_json(), fresh.to_json());
    assert_eq!(resumed.to_csv(), fresh.to_csv());
    assert_eq!(
        resumed.report.to_record_json(),
        fresh.report.to_record_json()
    );
}

#[test]
fn killed_run_on_a_shared_executor_resumes_to_the_byte_identical_report() {
    let dir = tmp_dir("shared_exec");
    let spec = checkpointed(&dir, 1);
    let pool = Executor::new(2);
    let on_pool = |budget| RunOptions {
        exec: Some(&pool),
        budget,
        ..RunOptions::default()
    };

    let progress = qic::run_with(&spec, &on_pool(Some(1))).unwrap();
    assert!(
        matches!(progress, ScenarioProgress::Partial { done: 1, .. }),
        "{progress:?}"
    );
    assert!(manifest_path(&dir).exists(), "partial manifest committed");

    let resumed = complete(qic::run_with(&spec, &on_pool(None)).unwrap());
    let fresh_dir = tmp_dir("shared_exec_fresh");
    let fresh = qic::run(&checkpointed(&fresh_dir, 1)).unwrap();
    assert_eq!(resumed.to_csv(), fresh.to_csv());
    assert_eq!(
        resumed.report.to_record_json(),
        fresh.report.to_record_json()
    );
}

/// Trips its token as the first point finishes.
struct CancelOnFirstPoint(CancelToken);

impl ProgressSink for CancelOnFirstPoint {
    fn on_finish(&self, _task: usize, _worker: usize, _wall_ns: u64) {
        self.0.cancel();
    }
}

#[test]
fn cancelled_run_is_partial_and_resumes_to_the_byte_identical_report() {
    let dir = tmp_dir("cancel_resume");
    // One worker: exactly one point is in flight when the token trips.
    let spec = checkpointed(&dir, 1).with_workers(1);
    let cancel = CancelToken::new();
    let opts = RunOptions {
        progress: Some(Arc::new(CancelOnFirstPoint(cancel.clone()))),
        cancel,
        ..RunOptions::default()
    };
    let progress = qic::run_with(&spec, &opts).unwrap();
    let ScenarioProgress::Partial { done, total } = progress else {
        panic!("a run cancelled after its first point cannot finish");
    };
    assert_eq!(done, 1);
    assert!(total > done);
    assert!(manifest_path(&dir).exists(), "cancelled run committed");

    let resumed = qic::run(&spec).unwrap();
    let fresh_dir = tmp_dir("cancel_resume_fresh");
    let fresh = qic::run(&checkpointed(&fresh_dir, 1)).unwrap();
    assert_eq!(resumed.to_csv(), fresh.to_csv());
    assert_eq!(
        resumed.report.to_record_json(),
        fresh.report.to_record_json()
    );
}
