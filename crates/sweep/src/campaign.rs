//! Campaign definition and execution: one [`Campaign::run`] entry
//! point, configured by [`RunOptions`].

use std::sync::Arc;

use crate::checkpoint::{CheckpointConfig, CheckpointError, Manifest};
use crate::derive_seed;
use crate::exec::{default_workers, CancelToken, Executor};
use crate::progress::{NoProgress, ProgressSink};
use crate::report::{CampaignReport, PointReport};
use crate::shard::Shard;
use crate::space::{AxisValue, ParamSpace, SweepPoint};
use qic_des::metrics::Metrics;
use qic_des::stats::Tally;

/// Per-evaluation context handed to the campaign's evaluation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunCtx {
    /// The seed for this `(point, replicate)` evaluation, derived by
    /// [`derive_seed`] — identical whatever thread or order ran it.
    /// An evaluator that draws nothing from it may treat the
    /// replicates of a point as one evaluation: the scenario runner's
    /// simulator reads no seed, so its replicates share one simulation
    /// and report identical samples.
    pub seed: u64,
    /// Replicate number, `0..replicates`.
    pub replicate: u32,
}

/// How one [`Campaign::run`] executes. Every field is optional; the
/// default runs the whole campaign on a transient pool, buffered, to
/// completion.
///
/// None of these choices changes a point's result: seeds derive from
/// absolute point indices and results are index-addressed, so any
/// combination produces the same per-point records.
///
/// ```
/// use qic_sweep::{Executor, RunOptions, Shard};
///
/// let pool = Executor::new(2);
/// let opts = RunOptions {
///     exec: Some(&pool),
///     shard: Some(Shard::new(0, 2)),
///     ..RunOptions::default()
/// };
/// assert!(opts.checkpoint.is_none());
/// ```
#[derive(Clone, Default)]
pub struct RunOptions<'a> {
    /// A shared pool to submit to. `None` builds a transient
    /// [`Executor`] of `min(workers, points)` threads for this call and
    /// drops it on return; a shared pool ignores
    /// [`Campaign::workers`] (it was sized at [`Executor::new`]).
    pub exec: Option<&'a Executor>,
    /// Evaluate and report only this contiguous slice of the point
    /// space. Merging every shard's report with
    /// [`CampaignReport::merge`] reproduces the whole run byte for
    /// byte — the cross-process fan-out primitive.
    pub shard: Option<Shard>,
    /// Commit completed points to this manifest as they land, and skip
    /// the points a previous run already committed there. A
    /// checkpointed run aggregates **streaming** (replicates folded
    /// into tallies, raw samples not retained); an uncheckpointed one
    /// is **buffered**. Summaries, and so the CSV bytes, are identical
    /// in both; only the JSON `samples` arrays differ.
    pub checkpoint: Option<CheckpointConfig>,
    /// Evaluate at most this many not-yet-completed points, then
    /// return [`CampaignProgress::Partial`].
    pub budget: Option<usize>,
    /// Hears every point claim and finish, with pool-worker
    /// attribution. Task indices are positions in this run's list of
    /// points to evaluate — the point index itself for a whole, fresh
    /// run.
    pub progress: Option<Arc<dyn ProgressSink + Send + Sync>>,
    /// Tripping this token stops further point claims; points in
    /// flight finish (and are committed, when checkpointing), and the
    /// run returns [`CampaignProgress::Partial`]. A panicking `eval`
    /// trips it too. Tokens are one-shot: use a fresh one per run.
    pub cancel: CancelToken,
}

/// How far a [`Campaign::run`] got: the finished report, or how many
/// points are complete.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignProgress {
    /// Every point of the run (of its shard, when sharded) completed.
    Complete(Box<CampaignReport>),
    /// The budget ran out or the run was cancelled first. When
    /// checkpointing, the manifest was committed and a later run picks
    /// up from here.
    Partial {
        /// Points completed so far (across all runs of the manifest).
        done: usize,
        /// Points in the run (in its shard, when sharded).
        total: usize,
    },
}

impl CampaignProgress {
    /// The finished report; `None` for a partial run.
    pub fn complete(self) -> Option<CampaignReport> {
        match self {
            CampaignProgress::Complete(report) => Some(*report),
            CampaignProgress::Partial { .. } => None,
        }
    }
}

/// A declarative sweep: a parameter space, replication, seeding and a
/// worker budget.
///
/// The evaluation function is supplied at [`Campaign::run`] time, so
/// one campaign definition can drive simulators, analytic models, or
/// anything else that maps a point to [`Metrics`].
///
/// # Example
///
/// ```
/// use qic_sweep::{Axis, Campaign, Metrics, ParamSpace, RunOptions};
///
/// let space = ParamSpace::new()
///     .axis(Axis::ints("n", [1, 2, 3]))
///     .axis(Axis::ints("k", [10, 20]));
/// let report = Campaign::new("toy", space)
///     .workers(4)
///     .run(&RunOptions::default(), |point, _ctx| {
///         let v = (point.i64("n") * point.i64("k")) as f64;
///         Metrics::new().with("product", v)
///     })?
///     .complete()
///     .expect("an unbudgeted, uncancelled run completes");
/// assert_eq!(report.points.len(), 6);
/// assert_eq!(report.mean_at(5, "product"), Some(60.0));
/// # Ok::<(), qic_sweep::CheckpointError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Campaign {
    name: String,
    space: ParamSpace,
    replicates: u32,
    seed: u64,
    workers: usize,
}

impl Campaign {
    /// A campaign over `space` with one replicate, seed 0, and the
    /// default worker budget.
    pub fn new(name: impl Into<String>, space: ParamSpace) -> Campaign {
        Campaign {
            name: name.into(),
            space,
            replicates: 1,
            seed: 0,
            workers: 0,
        }
    }

    /// Sets the replicates evaluated per point (default 1).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn replicates(mut self, n: u32) -> Campaign {
        assert!(n > 0, "campaigns need at least one replicate");
        self.replicates = n;
        self
    }

    /// Sets the campaign-level seed (default 0).
    pub fn seed(mut self, seed: u64) -> Campaign {
        self.seed = seed;
        self
    }

    /// Pins the worker-thread count of the transient pool; `0` (the
    /// default) uses [`default_workers`].
    pub fn workers(mut self, workers: usize) -> Campaign {
        self.workers = workers;
        self
    }

    /// The campaign name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The parameter space.
    pub fn space(&self) -> &ParamSpace {
        &self.space
    }

    /// Replicates evaluated per point.
    pub fn replicate_count(&self) -> u32 {
        self.replicates
    }

    /// The campaign-level seed per-point seeds derive from.
    pub fn campaign_seed(&self) -> u64 {
        self.seed
    }

    /// The [`RunCtx`] for one `(point, replicate)` evaluation — the
    /// same derivation whether the campaign runs whole, sharded or
    /// resumed.
    fn ctx(&self, point_index: usize, replicate: u32) -> RunCtx {
        RunCtx {
            seed: derive_seed(self.seed, point_index as u64, u64::from(replicate)),
            replicate,
        }
    }

    /// Runs the campaign as `opts` selects, evaluating one executor
    /// task per point (its replicates in order, in-task) and
    /// aggregating the streamed results by point index.
    ///
    /// The report is byte-identical for any worker count, pool, or
    /// concurrent load; a checkpointed run killed and resumed any
    /// number of times reports the same bytes as an uninterrupted
    /// checkpointed run. See [`RunOptions`] for what each option
    /// changes.
    ///
    /// A panic inside `eval` cancels the remaining points of this run
    /// and propagates here; concurrent submissions to a shared pool are
    /// unaffected.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] if the manifest cannot be read, written, or
    /// does not belong to this campaign. Evaluation work committed
    /// before the error is preserved in the manifest. A run without a
    /// checkpoint cannot fail.
    pub fn run<F>(
        &self,
        opts: &RunOptions<'_>,
        eval: F,
    ) -> Result<CampaignProgress, CheckpointError>
    where
        F: Fn(&SweepPoint<'_>, RunCtx) -> Metrics + Send + Sync + 'static,
    {
        let total = self.space.len();
        let range = opts.shard.map_or(0..total, |s| s.point_range(total));
        let manifest = opts
            .checkpoint
            .as_ref()
            .map(|ckpt| (Manifest::new(self, ckpt.path()), ckpt.interval()));
        let mut slots: Vec<Option<PointReport>> = match &manifest {
            Some((manifest, _)) => manifest.load(total)?,
            None => (0..total).map(|_| None).collect(),
        };
        let mut wall_ns: Vec<u64> = vec![0; total];
        let todo: Arc<[usize]> = range
            .clone()
            .filter(|&i| slots[i].is_none())
            .take(opts.budget.unwrap_or(usize::MAX))
            .collect();

        if !todo.is_empty() {
            let streaming = manifest.is_some();
            let campaign = self.clone();
            let points = Arc::clone(&todo);
            let task = move |t: usize| campaign.evaluate(points[t], &eval, streaming);
            // The sink runs on this thread, so committing from it is
            // ordinary sequential file I/O; an error stops further
            // commits and surfaces once the in-flight points drain.
            let mut commit_error: Option<CheckpointError> = None;
            let mut fresh = 0usize;
            let sink = |_t: usize, point: PointReport, wall: u64| {
                let index = point.index;
                wall_ns[index] = wall;
                slots[index] = Some(point);
                fresh += 1;
                if let Some((manifest, every)) = &manifest {
                    if commit_error.is_none() && fresh % every == 0 {
                        commit_error = manifest.commit(&slots).err();
                    }
                }
            };
            let progress = opts
                .progress
                .clone()
                .unwrap_or_else(|| Arc::new(NoProgress));
            let transient;
            let exec = match opts.exec {
                Some(shared) => shared,
                None => {
                    let workers = if self.workers == 0 {
                        default_workers()
                    } else {
                        self.workers
                    };
                    transient = Executor::new(workers.min(todo.len()));
                    &transient
                }
            };
            exec.run(todo.len(), task, sink, progress, &opts.cancel);
            if let Some(e) = commit_error {
                return Err(e);
            }
            if let Some((manifest, _)) = &manifest {
                manifest.commit(&slots)?;
            }
        }

        let done = slots[range.clone()].iter().flatten().count();
        if done < range.len() {
            return Ok(CampaignProgress::Partial {
                done,
                total: range.len(),
            });
        }
        let points = slots
            .drain(range.clone())
            .map(|s| s.expect("all points complete"))
            .collect();
        Ok(CampaignProgress::Complete(Box::new(
            self.report_of(points, wall_ns[range].to_vec()),
        )))
    }

    /// Evaluates every replicate of point `index` in order and folds
    /// them into its report: buffered (raw replicates retained) or
    /// streaming (per-metric Welford tallies, each replicate dropped
    /// once folded). Both folds visit the same samples in the same
    /// first-appearance metric order, so their summaries are bitwise
    /// identical.
    fn evaluate<F>(&self, index: usize, eval: &F, streaming: bool) -> PointReport
    where
        F: Fn(&SweepPoint<'_>, RunCtx) -> Metrics,
    {
        let point = self.space.point(index);
        let params = point_params(&point);
        let replicates = (0..self.replicates).map(|r| eval(&point, self.ctx(index, r)));
        if !streaming {
            return PointReport::from_replicates(index, params, replicates.collect());
        }
        let mut names: Vec<String> = Vec::new();
        let mut tallies: Vec<Tally> = Vec::new();
        for metrics in replicates {
            for (name, v) in metrics.iter() {
                match names.iter().position(|n| n == name) {
                    Some(i) => tallies[i].record(v),
                    None => {
                        names.push(name.to_string());
                        let mut t = Tally::new();
                        t.record(v);
                        tallies.push(t);
                    }
                }
            }
        }
        PointReport::from_tallies(index, params, names.into_iter().zip(tallies).collect())
    }

    /// Wraps completed points into the campaign's report envelope.
    fn report_of(&self, points: Vec<PointReport>, wall_ns: Vec<u64>) -> CampaignReport {
        CampaignReport {
            name: self.name.clone(),
            seed: self.seed,
            replicates: self.replicates,
            axes: self.space.axes().to_vec(),
            points,
            wall_ns,
        }
    }
}

fn point_params(point: &SweepPoint<'_>) -> Vec<(String, AxisValue)> {
    point
        .params()
        .into_iter()
        .map(|(n, v)| (n.to_string(), v.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Axis;

    fn toy_space() -> ParamSpace {
        ParamSpace::new()
            .axis(Axis::ints("a", [1, 2, 3]))
            .axis(Axis::ints("b", [0, 10]))
    }

    /// A synthetic evaluation that depends on point values, the derived
    /// seed and the replicate — enough structure to catch any
    /// cross-wiring of task indices.
    fn eval(point: &SweepPoint<'_>, ctx: RunCtx) -> Metrics {
        Metrics::new()
            .with("v", (point.i64("a") + point.i64("b")) as f64)
            .with("seed_lo", (ctx.seed % 1000) as f64)
            .with("rep", f64::from(ctx.replicate))
    }

    /// Runs `campaign` under `opts` and unwraps the finished report.
    fn run(campaign: &Campaign, opts: &RunOptions<'_>) -> CampaignReport {
        campaign
            .run(opts, eval)
            .expect("manifest usable")
            .complete()
            .expect("run completes")
    }

    fn plain(campaign: &Campaign) -> CampaignReport {
        run(campaign, &RunOptions::default())
    }

    /// Checkpointed (streaming) options over a fresh manifest path.
    fn checkpointed(name: &str) -> RunOptions<'static> {
        let path = std::env::temp_dir().join(format!(
            "qic_sweep_campaign_{}_{name}.ckpt.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        RunOptions {
            checkpoint: Some(CheckpointConfig::new(path)),
            ..RunOptions::default()
        }
    }

    #[test]
    fn points_land_at_their_index() {
        let report = plain(&Campaign::new("t", toy_space()).workers(3));
        assert_eq!(report.points.len(), 6);
        for (i, p) in report.points.iter().enumerate() {
            assert_eq!(p.index, i);
        }
        // Point 3 is a=2, b=10.
        assert_eq!(report.mean_at(3, "v"), Some(12.0));
        assert_eq!(report.points[3].param("a"), &AxisValue::Int(2));
    }

    #[test]
    fn replicates_aggregate() {
        let report = plain(&Campaign::new("t", toy_space()).replicates(3).workers(2));
        let p = &report.points[0];
        assert_eq!(p.replicates.len(), 3);
        // Replicate numbers 0,1,2 in order.
        let reps: Vec<f64> = p.replicates.iter().map(|m| m.get("rep").unwrap()).collect();
        assert_eq!(reps, vec![0.0, 1.0, 2.0]);
        assert_eq!(p.mean("rep"), Some(1.0));
        let s = p.summaries.iter().find(|s| s.name == "rep").unwrap();
        assert!(s.ci95.is_some());
        assert_eq!(s.n, 3);
    }

    #[test]
    fn worker_count_does_not_change_the_report() {
        let runs: Vec<CampaignReport> = [1, 2, 4, 8]
            .iter()
            .map(|&w| {
                plain(
                    &Campaign::new("det", toy_space())
                        .replicates(2)
                        .seed(42)
                        .workers(w),
                )
            })
            .collect();
        for other in &runs[1..] {
            assert_eq!(&runs[0], other);
            assert_eq!(runs[0].to_json(), other.to_json());
            assert_eq!(runs[0].to_csv(), other.to_csv());
        }
    }

    #[test]
    fn progress_run_matches_plain_run_and_captures_wall_times() {
        use crate::progress::JsonlProgress;
        let campaign = Campaign::new("p", toy_space())
            .replicates(2)
            .seed(9)
            .workers(2);
        let sink = Arc::new(JsonlProgress::new(Vec::new(), 6));
        let observed = run(
            &campaign,
            &RunOptions {
                progress: Some(Arc::clone(&sink) as _),
                ..RunOptions::default()
            },
        );
        let plain = plain(&campaign);
        assert_eq!(plain, observed, "observation must not perturb results");
        assert_eq!(plain.to_json(), observed.to_json());
        assert_eq!(observed.wall_ns.len(), 6, "one wall time per point");
        let sink = Arc::into_inner(sink).expect("the run released the sink");
        assert_eq!(sink.done(), 6, "one task per point, replicates in-task");
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text.lines().count(), 12, "a start and done line per task");
    }

    #[test]
    fn seeds_differ_by_point_and_replicate() {
        let report = plain(
            &Campaign::new("t", toy_space())
                .replicates(2)
                .seed(7)
                .workers(1),
        );
        let mut lows: Vec<f64> = report
            .points
            .iter()
            .flat_map(|p| p.replicates.iter().map(|m| m.get("seed_lo").unwrap()))
            .collect();
        let n = lows.len();
        lows.sort_by(f64::total_cmp);
        lows.dedup();
        // 12 derived seeds; their low digits should essentially all
        // differ (splitmix64 scrambles well).
        assert!(lows.len() >= n - 1, "derived seeds collide: {lows:?}");
    }

    #[test]
    fn empty_space_runs_zero_points() {
        let space = ParamSpace::new().axis(Axis::ints("a", []));
        let report = Campaign::new("empty", space)
            .run(&RunOptions::default(), |_, _| unreachable!())
            .unwrap()
            .complete()
            .unwrap();
        assert!(report.points.is_empty());
        assert!(report.to_csv().starts_with("index,a"));
    }

    #[test]
    #[should_panic(expected = "at least one replicate")]
    fn zero_replicates_rejected() {
        let _ = Campaign::new("t", toy_space()).replicates(0);
    }

    #[test]
    #[should_panic(expected = "task 3 exploded")]
    fn worker_panic_propagates() {
        let space = ParamSpace::new().axis(Axis::ints("i", 0..8));
        let _ = Campaign::new("boom", space)
            .workers(2)
            .run(&RunOptions::default(), |point, _| {
                if point.index() == 3 {
                    panic!("task 3 exploded");
                }
                Metrics::new()
            });
    }

    #[test]
    fn panic_cancels_outstanding_tasks() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let evaluated = Arc::new(AtomicUsize::new(0));
        let tasks = 10_000;
        let space = ParamSpace::new().axis(Axis::ints("i", 0..tasks as i64));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let evaluated = Arc::clone(&evaluated);
            Campaign::new("boom", space)
                .workers(4)
                .run(&RunOptions::default(), move |point, _| {
                    if point.index() == 0 {
                        panic!("first task fails");
                    }
                    evaluated.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(std::time::Duration::from_micros(20));
                    Metrics::new()
                })
        }));
        assert!(result.is_err(), "the panic must propagate");
        // Without cancellation the surviving workers would evaluate every
        // remaining task before the panic surfaced.
        assert!(
            evaluated.load(Ordering::Relaxed) < tasks - 1,
            "workers kept draining after the panic"
        );
    }

    fn toy_campaign() -> Campaign {
        Campaign::new("t", toy_space())
            .replicates(3)
            .seed(2006)
            .workers(3)
    }

    fn shard(campaign: &Campaign, i: usize, k: usize) -> CampaignReport {
        run(
            campaign,
            &RunOptions {
                shard: Some(Shard::new(i, k)),
                ..RunOptions::default()
            },
        )
    }

    #[test]
    fn merged_shards_reproduce_the_serial_report_byte_for_byte() {
        let serial = plain(&toy_campaign().workers(1));
        for count in 1..=6usize {
            let parts: Vec<CampaignReport> = (0..count)
                .map(|i| shard(&toy_campaign(), i, count))
                .collect();
            let merged = CampaignReport::merge(parts).unwrap();
            assert_eq!(merged, serial, "{count} shards");
            assert_eq!(merged.to_json(), serial.to_json(), "{count} shards");
            assert_eq!(merged.to_csv(), serial.to_csv(), "{count} shards");
            assert_eq!(
                merged.to_record_json(),
                serial.to_record_json(),
                "{count} shards"
            );
        }
    }

    #[test]
    fn shard_merge_order_does_not_matter() {
        let serial = plain(&toy_campaign());
        let mut parts: Vec<CampaignReport> = (0..3).map(|i| shard(&toy_campaign(), i, 3)).collect();
        parts.reverse();
        assert_eq!(CampaignReport::merge(parts).unwrap(), serial);
    }

    #[test]
    fn shard_merge_rejects_gaps_overlaps_and_foreign_parts() {
        use crate::shard::MergeError;
        let half = |i: usize| shard(&toy_campaign(), i, 2);
        // Missing the second half.
        let err = CampaignReport::merge(vec![half(0)]).unwrap_err();
        assert!(matches!(err, MergeError::Gap { index: 3 }), "{err}");
        // The same half twice.
        let err = CampaignReport::merge(vec![half(0), half(0)]).unwrap_err();
        assert!(matches!(err, MergeError::Overlap { index: 0 }), "{err}");
        // A shard of a different campaign seed.
        let foreign = shard(&toy_campaign().seed(7), 1, 2);
        let err = CampaignReport::merge(vec![half(0), foreign]).unwrap_err();
        assert!(
            matches!(err, MergeError::Mismatch { field: "seed" }),
            "{err}"
        );
        assert!(CampaignReport::merge(vec![]).is_err());
    }

    #[test]
    fn streaming_matches_buffered_summaries_and_csv() {
        let buffered = plain(&toy_campaign());
        let streamed = run(&toy_campaign(), &checkpointed("summaries"));
        // Summaries are bitwise identical (same fold, same order)...
        for (b, s) in buffered.points.iter().zip(&streamed.points) {
            assert_eq!(b.index, s.index);
            assert_eq!(b.params, s.params);
            assert_eq!(b.summaries, s.summaries);
            // ...but streaming keeps no raw replicates.
            assert_eq!(b.replicates.len(), 3);
            assert!(s.replicates.is_empty());
        }
        // The CSV emitter reads only summaries — identical bytes.
        assert_eq!(buffered.to_csv(), streamed.to_csv());
    }

    #[test]
    fn streaming_is_deterministic_across_worker_counts() {
        let one = run(&toy_campaign().workers(1), &checkpointed("w1"));
        for w in [2, 4, 8] {
            let many = run(&toy_campaign().workers(w), &checkpointed(&format!("w{w}")));
            assert_eq!(one, many, "{w} workers");
            assert_eq!(one.to_record_json(), many.to_record_json(), "{w} workers");
        }
    }

    #[test]
    fn merged_streaming_shards_match_the_streaming_run() {
        let whole = run(&toy_campaign(), &checkpointed("whole"));
        let parts: Vec<CampaignReport> = (0..4)
            .map(|i| {
                let opts = RunOptions {
                    shard: Some(Shard::new(i, 4)),
                    ..checkpointed(&format!("shard{i}"))
                };
                run(&toy_campaign(), &opts)
            })
            .collect();
        let merged = CampaignReport::merge(parts).unwrap();
        assert_eq!(merged, whole);
        assert_eq!(merged.to_record_json(), whole.to_record_json());
        assert_eq!(merged.to_csv(), whole.to_csv());
    }
}
