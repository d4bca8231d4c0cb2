//! Filesystem-backed checkpoint/resume tests: interrupted campaigns
//! resume to byte-identical reports, and damaged manifests surface
//! structured errors instead of wrong results.

use std::fs;
use std::path::PathBuf;

use qic_sweep::prelude::*;

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("checkpoint");
    fs::create_dir_all(&dir).expect("create tmp dir");
    dir.join(name)
}

fn space() -> ParamSpace {
    ParamSpace::new()
        .axis(Axis::ints("a", [1, 2, 3, 4, 5]))
        .axis(Axis::ints("b", [0, 100]))
}

fn campaign() -> Campaign {
    Campaign::new("ckpt", space())
        .replicates(2)
        .seed(77)
        .workers(2)
}

fn eval(point: &SweepPoint<'_>, ctx: RunCtx) -> Metrics {
    Metrics::new()
        .with("v", (point.i64("a") * 10 + point.i64("b")) as f64)
        .with("jitter", (ctx.seed % 4096) as f64 / 4096.0)
}

fn opts(ckpt: &CheckpointConfig, budget: Option<usize>) -> RunOptions<'static> {
    RunOptions {
        checkpoint: Some(ckpt.clone()),
        budget,
        ..RunOptions::default()
    }
}

/// Runs `campaign` against the manifest until it completes.
fn resume(campaign: &Campaign, ckpt: &CheckpointConfig) -> Result<CampaignReport, CheckpointError> {
    let progress = campaign.run(&opts(ckpt, None), eval)?;
    Ok(progress.complete().expect("an unbudgeted run completes"))
}

/// Evaluates at most `budget` more points against the manifest.
fn budgeted(campaign: Campaign, ckpt: &CheckpointConfig, budget: usize) -> CampaignProgress {
    campaign.run(&opts(ckpt, Some(budget)), eval).unwrap()
}

/// The reference every resume is held to: one uninterrupted
/// checkpointed run over a fresh manifest.
fn uninterrupted() -> CampaignReport {
    let path = tmp(&format!(
        "uninterrupted-{:?}.ckpt.json",
        std::thread::current().id()
    ));
    let _ = fs::remove_file(&path);
    resume(&campaign(), &CheckpointConfig::new(&path)).unwrap()
}

#[test]
fn fresh_resumable_run_matches_streaming() {
    let path = tmp("fresh.ckpt.json");
    let _ = fs::remove_file(&path);
    let ckpt = CheckpointConfig::new(&path).every(3);
    let resumable = resume(&campaign(), &ckpt).unwrap();
    let streaming = uninterrupted();
    assert_eq!(resumable, streaming);
    assert_eq!(resumable.to_record_json(), streaming.to_record_json());
    assert_eq!(resumable.to_csv(), streaming.to_csv());
    assert!(path.exists(), "final manifest stays on disk");
}

#[test]
fn killed_campaign_resumes_to_the_byte_identical_report() {
    let path = tmp("killed.ckpt.json");
    let _ = fs::remove_file(&path);
    let ckpt = CheckpointConfig::new(&path).every(2);

    // "Kill" the campaign dead after 4 of 10 points: a budgeted run
    // stops exactly at a checkpoint boundary, like a SIGKILL landing
    // right after a commit.
    let progress = budgeted(campaign(), &ckpt, 4);
    assert_eq!(progress, CampaignProgress::Partial { done: 4, total: 10 });
    assert!(path.exists(), "partial manifest committed");

    // A second partial pass, then resume to completion.
    let progress = budgeted(campaign(), &ckpt, 3);
    assert_eq!(progress, CampaignProgress::Partial { done: 7, total: 10 });
    let resumed = resume(&campaign(), &ckpt).unwrap();

    let fresh = uninterrupted();
    assert_eq!(resumed, fresh);
    assert_eq!(resumed.to_record_json(), fresh.to_record_json());
    assert_eq!(resumed.to_csv(), fresh.to_csv());
}

#[test]
fn a_stale_tmp_file_from_a_mid_write_crash_is_harmless() {
    let path = tmp("midwrite.ckpt.json");
    let _ = fs::remove_file(&path);
    let ckpt = CheckpointConfig::new(&path).every(2);
    budgeted(campaign(), &ckpt, 4);

    // A crash mid-commit leaves a torn `.tmp` next to the (intact)
    // manifest; the rename never happened. Resume must ignore it.
    let tmp_path = PathBuf::from(format!("{}.tmp", path.display()));
    fs::write(&tmp_path, "{\"record\":\"campaign_ch").unwrap();

    let resumed = resume(&campaign(), &ckpt).unwrap();
    assert_eq!(resumed, uninterrupted());
}

#[test]
fn corrupted_manifest_is_a_structured_error_not_a_wrong_report() {
    let path = tmp("corrupt.ckpt.json");
    let ckpt = CheckpointConfig::new(&path).every(2);

    // Truncated JSON → Corrupt.
    fs::write(&path, "{\"record\":\"campaign_checkpoint\",\"vers").unwrap();
    let err = resume(&campaign(), &ckpt).unwrap_err();
    assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");

    // Valid JSON, wrong record tag → Corrupt with a schema problem.
    fs::write(&path, "{\"record\":\"campaign_report\"}").unwrap();
    let err = resume(&campaign(), &ckpt).unwrap_err();
    assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");
    assert!(err.to_string().contains("unexpected record tag"), "{err}");
}

#[test]
fn manifest_version_and_unknown_fields_are_rejected() {
    let path = tmp("versioned.ckpt.json");
    let _ = fs::remove_file(&path);
    let ckpt = CheckpointConfig::new(&path).every(4);
    budgeted(campaign(), &ckpt, 4);
    let good = fs::read_to_string(&path).unwrap();

    // Version bump → structured rejection naming both versions.
    let doctored = good.replacen("\"version\": 1", "\"version\": 99", 1);
    assert_ne!(doctored, good, "version field located");
    fs::write(&path, doctored).unwrap();
    let err = resume(&campaign(), &ckpt).unwrap_err();
    assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");
    assert!(err.to_string().contains("version 99"), "{err}");

    // A typo'd field name → rejected, not silently ignored.
    fs::write(&path, good.replacen("\"seed\"", "\"sneed\"", 1)).unwrap();
    let err = resume(&campaign(), &ckpt).unwrap_err();
    assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");
}

#[test]
fn manifest_of_a_different_campaign_is_a_mismatch() {
    let path = tmp("drift.ckpt.json");
    let _ = fs::remove_file(&path);
    let ckpt = CheckpointConfig::new(&path).every(4);
    budgeted(campaign(), &ckpt, 4);

    // Same name, different seed: the spec changed under the manifest.
    let err = resume(&campaign().seed(78), &ckpt).unwrap_err();
    assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err}");

    // Different axes (space) with everything else equal: spec hash.
    let other = Campaign::new("ckpt", ParamSpace::new().axis(Axis::ints("a", [1, 2])))
        .replicates(2)
        .seed(77);
    let err = resume(&other, &ckpt).unwrap_err();
    assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err}");
}

#[test]
fn doctored_bitmap_is_detected() {
    let path = tmp("bitmap.ckpt.json");
    let _ = fs::remove_file(&path);
    let ckpt = CheckpointConfig::new(&path).every(4);
    budgeted(campaign(), &ckpt, 4);
    let good = fs::read_to_string(&path).unwrap();

    // Flip the completion bitmap to claim everything is done while the
    // point records say otherwise.
    let start = good.find("\"completed\": \"").unwrap() + "\"completed\": \"".len();
    let end = good[start..].find('"').unwrap() + start;
    let doctored = format!("{}{}{}", &good[..start], "ff03", &good[end..]);
    fs::write(&path, doctored).unwrap();
    let err = resume(&campaign(), &ckpt).unwrap_err();
    assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err}");
    assert!(err.to_string().contains("bitmap"), "{err}");
}

#[test]
fn wall_times_never_leak_into_resumed_output() {
    // A resumed report has zero wall times for previously committed
    // points; equality, JSON records and CSV must not notice.
    let path = tmp("wall.ckpt.json");
    let _ = fs::remove_file(&path);
    let ckpt = CheckpointConfig::new(&path).every(1);
    budgeted(campaign(), &ckpt, 9);
    let resumed = resume(&campaign(), &ckpt).unwrap();
    let fresh = uninterrupted();
    // Wall vectors genuinely differ...
    assert_eq!(resumed.wall_ns.len(), fresh.wall_ns.len());
    // ...but nothing observable does.
    assert_eq!(resumed, fresh);
    assert_eq!(resumed.to_json(), fresh.to_json());
    assert_eq!(resumed.to_csv(), fresh.to_csv());
    assert_eq!(resumed.to_record_json(), fresh.to_record_json());
}
