//! Campaign sharding differentials: for arbitrary parameter spaces and
//! every registry preset, K shard reports merge byte-identically to the
//! one-worker serial run — the contract `scenario_run --shard i/K`
//! plus `--merge K` is built on.

use proptest::prelude::*;

use qic::prelude::*;
use qic::sweep::prelude::{
    Axis, Campaign, CampaignReport, CheckpointConfig, Metrics, ParamSpace, RunCtx, SweepPoint,
};
use qic::sweep::Shard;
use qic::RunOptions;

/// A synthetic evaluation with enough structure to expose index or
/// seed cross-wiring: every metric depends on the point's values, the
/// derived seed, and the replicate number.
fn eval(point: &SweepPoint<'_>, ctx: RunCtx) -> Metrics {
    let sum: i64 = (0..point.params().len() as u32)
        .map(|a| point.i64(&format!("ax{a}")))
        .sum();
    Metrics::new()
        .with("sum", sum as f64)
        .with("seeded", (ctx.seed % 100_003) as f64 / 7.0)
        .with("rep", f64::from(ctx.replicate))
}

fn campaign(axes: &[Vec<i64>], replicates: u32, seed: u64, workers: usize) -> Campaign {
    let space = axes
        .iter()
        .enumerate()
        .fold(ParamSpace::new(), |s, (i, v)| {
            s.axis(Axis::ints(format!("ax{i}"), v.iter().copied()))
        });
    Campaign::new("prop", space)
        .replicates(replicates)
        .seed(seed)
        .workers(workers)
}

/// Runs `campaign` under `opts` to completion.
fn run(campaign: &Campaign, opts: &RunOptions<'_>) -> CampaignReport {
    campaign
        .run(opts, eval)
        .expect("manifest usable")
        .complete()
        .expect("run completes")
}

fn shard(i: usize, k: usize) -> RunOptions<'static> {
    RunOptions {
        shard: Some(Shard::new(i, k)),
        ..RunOptions::default()
    }
}

/// Streaming aggregation: a checkpointed run over a fresh manifest.
fn streaming() -> RunOptions<'static> {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("campaign_sharding");
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    let path = dir.join("streaming.ckpt.json");
    let _ = std::fs::remove_file(&path);
    RunOptions {
        checkpoint: Some(CheckpointConfig::new(path)),
        ..RunOptions::default()
    }
}

proptest! {
    /// Arbitrary axes x shard count x worker count: the merged shard
    /// reports are byte-identical (JSON and CSV) to the one-worker
    /// serial run.
    #[test]
    fn merged_shards_equal_the_serial_run(
        axes in proptest::collection::vec(
            proptest::collection::vec(-50i64..50, 1..5), 1..4),
        replicates in 1u32..=3,
        shards in 1usize..=8,
        workers in 1usize..=4,
        seed in any::<u64>(),
    ) {
        let serial = run(&campaign(&axes, replicates, seed, 1), &RunOptions::default());
        let parts: Vec<CampaignReport> = (0..shards)
            .map(|i| run(&campaign(&axes, replicates, seed, workers), &shard(i, shards)))
            .collect();
        let merged = CampaignReport::merge(parts).unwrap();
        prop_assert_eq!(&merged, &serial);
        prop_assert_eq!(merged.to_json(), serial.to_json());
        prop_assert_eq!(merged.to_csv(), serial.to_csv());
        prop_assert_eq!(merged.to_record_json(), serial.to_record_json());
    }

    /// Streaming aggregation emits the same CSV bytes and summaries as
    /// the buffered engine, for any space and worker count.
    #[test]
    fn streaming_csv_equals_buffered_csv(
        axes in proptest::collection::vec(
            proptest::collection::vec(-50i64..50, 1..5), 1..4),
        replicates in 1u32..=3,
        workers in 1usize..=4,
        seed in any::<u64>(),
    ) {
        let buffered = run(&campaign(&axes, replicates, seed, 1), &RunOptions::default());
        let streamed = run(&campaign(&axes, replicates, seed, workers), &streaming());
        prop_assert_eq!(buffered.to_csv(), streamed.to_csv());
        for (b, s) in buffered.points.iter().zip(&streamed.points) {
            prop_assert_eq!(&b.summaries, &s.summaries);
        }
    }
}

/// Every registry preset, sharded two ways at SmallTest scale, merges
/// back to the serial report — JSON and CSV bytes alike. This is the
/// acceptance differential for `--shard`, run against real simulator
/// and channel-model evaluations rather than synthetic metrics.
#[test]
fn every_preset_shards_and_merges_byte_identically() {
    for entry in ScenarioRegistry::builtin().entries() {
        let spec = entry.spec(ScenarioScale::SmallTest);
        let serial = qic::run(&spec).unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        let parts: Vec<CampaignReport> = (0..2)
            .map(|i| match qic::run_with(&spec, &shard(i, 2)) {
                Ok(ScenarioProgress::Complete(report)) => report.report,
                other => panic!("{} shard {i}: {other:?}", entry.name),
            })
            .collect();
        let merged = CampaignReport::merge(parts)
            .unwrap_or_else(|e| panic!("{}: merge failed: {e}", entry.name));
        assert_eq!(merged, serial.report, "{}: reports differ", entry.name);
        assert_eq!(
            merged.to_json(),
            serial.report.to_json(),
            "{}: JSON bytes differ",
            entry.name
        );
        assert_eq!(
            merged.to_csv(),
            serial.report.to_csv(),
            "{}: CSV bytes differ",
            entry.name
        );
    }
}

/// A shard of a checkpointed spec is rejected up front: silently
/// skipping the manifest would be worse than refusing.
#[test]
fn sharding_a_checkpointed_spec_is_an_error() {
    let spec = ScenarioRegistry::builtin()
        .spec("synthetic_stress", ScenarioScale::SmallTest)
        .unwrap()
        .with_checkpoint(CheckpointSpec::to_dir("target/shard_ckpt_conflict"));
    let err = qic::run_with(&spec, &shard(0, 2)).unwrap_err();
    assert!(
        matches!(err, ScenarioError::Spec { .. }),
        "expected a spec error, got {err}"
    );
}
