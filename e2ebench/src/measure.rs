//! The timed runs: batch workloads through `qic::run` at 1 and 2
//! workers, and every workload's specs through the scenario service's
//! cache tiers.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qic::core::scenario::{ScenarioReport, ScenarioSpec};
use qic::serve::{CacheSource, JobState, Serve, ServeConfig, ServeHandle};

use crate::inputs::{prepare, Prepared};
use crate::stats::{median, Ledger, MIN_BEYOND};

/// Executor workers of the service runs that job latencies are read
/// from (`nproc` of the 2-core reference container).
pub const SERVE_WORKERS: usize = 2;

/// Samples a `job_p95_ms` needs: p95 with ten samples beyond it.
const TAIL_SAMPLES: usize = 20 * MIN_BEYOND;

/// Set-ups timed at the start of every pass; `setup_s` is the median of
/// all of them. Timed in one block before the passes, 201 set-ups took
/// a tenth of a second and caught the host in one state, and their
/// median moved by half from one set of runs to the next.
pub const SETUPS_PER_PASS: usize = 25;

/// Timed passes stop here even if sample targets are unmet, so a run
/// always ends well inside its time limit.
const HARD_CAP: Duration = Duration::from_secs(120);

/// The source of each spec's first job in each phase. Phase A starts on
/// an empty cache directory; phase B restarts the service on the same
/// one. Every later job of the phase is a memory hit.
const PROTOCOL: [CacheSource; 2] = [CacheSource::Computed, CacheSource::Disk];

/// Fewest memory hits a leg takes. A hit costs about 0.05 ms, most of it
/// two wake-ups across threads, and those spread widely on a shared
/// host: one hit per spec and phase gave `qft_paper`, with two specs, four
/// samples a pass, too few for a steady median. Workloads with 32 specs
/// or more take one hit per spec and phase, which keeps `serve_mixed`'s
/// mix at ½ memory, ¼ disk, ¼ computed.
const MEMORY_HITS: usize = 64;

/// One job as its client saw it.
pub struct Job {
    /// Client-side latency: parse the spec text, submit, wait.
    pub ms: f64,
    pub source: CacheSource,
    pub report: Arc<ScenarioReport>,
}

/// One run of the service protocol over a workload's specs.
pub struct Leg {
    /// Completed jobs, in submission order (failed jobs are left out and
    /// counted in the ledger).
    pub jobs: Vec<Job>,
    /// `ServeHandle::metrics` counters, summed over both service
    /// instances.
    pub counters: Vec<(String, f64)>,
}

/// Runs the service protocol: a fresh service on an empty cache
/// directory takes each spec once computed, then as a memory hit; a
/// restarted service on the same directory takes each spec as a disk
/// hit, then as a memory hit again. Each memory hit is repeated until
/// the leg holds [`MEMORY_HITS`]. One closed-loop client submits each
/// spec as JSON text and waits for it before sending the next.
pub fn serve_leg(texts: &[String], workers: usize, dir: &Path, ledger: &mut Ledger) -> Leg {
    let config = ServeConfig::default()
        .with_workers(workers)
        .with_cache_dir(dir);
    let memory_hits = MEMORY_HITS.div_ceil(2 * texts.len().max(1));
    let mut leg = Leg {
        jobs: Vec::with_capacity(2 * (1 + memory_hits) * texts.len()),
        counters: Vec::new(),
    };
    for first in PROTOCOL {
        let serve = Serve::start(config.clone());
        let handle = serve.handle();
        for text in texts {
            let memory = std::iter::repeat_n(CacheSource::Memory, memory_hits);
            for source in std::iter::once(first).chain(memory) {
                if let Some(job) = job(&handle, text, source, ledger) {
                    leg.jobs.push(job);
                }
            }
        }
        for (name, value) in handle.metrics().iter() {
            match leg.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, sum)) => *sum += value,
                None => leg.counters.push((name.to_string(), value)),
            }
        }
        serve.shutdown();
    }
    let _ = std::fs::remove_dir_all(dir);
    leg
}

fn job(handle: &ServeHandle, text: &str, expect: CacheSource, ledger: &mut Ledger) -> Option<Job> {
    ledger.attempted += 1;
    let start = Instant::now();
    let state = ScenarioSpec::from_json(text)
        .map_err(|e| e.to_string())
        .and_then(|spec| handle.submit(spec).map_err(|e| e.to_string()))
        .and_then(|id| handle.wait(id).ok_or_else(|| format!("{id} vanished")));
    let ms = start.elapsed().as_secs_f64() * 1e3;
    match state {
        Ok(JobState::Done { report, source, .. }) => {
            ledger.check(source == expect, 1, || {
                format!(
                    "{}: served from {}, expected {}",
                    report.spec.name,
                    source.label(),
                    expect.label()
                )
            });
            Some(Job { ms, source, report })
        }
        Ok(JobState::Failed { message }) => {
            ledger.fail(1, format!("job failed: {message}"));
            None
        }
        Ok(JobState::Rejected { reason }) => {
            ledger.fail(1, format!("job rejected: {reason}"));
            None
        }
        Ok(other) => {
            ledger.fail(1, format!("job ended {}", other.label()));
            None
        }
        Err(e) => {
            ledger.fail(1, e);
            None
        }
    }
}

/// Timing samples, grouped by the pass that took them.
#[derive(Debug, Default)]
pub struct Timing(Vec<Vec<f64>>);

impl Timing {
    fn pass(&mut self, samples: impl IntoIterator<Item = f64>) {
        self.0.push(samples.into_iter().collect());
    }

    /// Every sample of every pass.
    pub fn pooled(&self) -> Vec<f64> {
        self.0.concat()
    }

    /// Each pass's samples summed.
    pub fn pass_totals(&self) -> Vec<f64> {
        self.0.iter().map(|p| p.iter().sum()).collect()
    }

    /// For passes that time the same units in the same order (one
    /// `qic::run` call per spec, one job per spec and source): each
    /// unit's best (lowest) time over the passes. The host is shared, and
    /// its neighbours slow the memory system by a fifth or more in bursts
    /// of a second or so: a unit's median over ten passes still moved by
    /// 10–15% from run to run, where its best moved by 2–3%. Host noise
    /// only ever adds time, so the best is the unit's own cost.
    pub fn bests(&self) -> Vec<f64> {
        let units = self.0.iter().map(Vec::len).max().unwrap_or(0);
        (0..units)
            .map(|u| {
                self.0
                    .iter()
                    .filter_map(|p| p.get(u).copied())
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    }

    /// Every sample replaced by its unit's best: the distribution of the
    /// units' costs, each unit counted once per pass that timed it. Tail
    /// percentiles are read off it: over few units, the pooled samples'
    /// p95 is the worst sample of one unit, which host noise sets.
    pub fn best_filtered(&self) -> Vec<f64> {
        let bests = self.bests();
        self.0
            .iter()
            .flat_map(|p| bests[..p.len()].iter().copied())
            .collect()
    }

    /// The median over units of each unit's best.
    pub fn p50(&self) -> Option<f64> {
        median(&self.bests())
    }

    /// The sum over units of each unit's best.
    pub fn sum_of_bests(&self) -> Option<f64> {
        let bests = self.bests();
        (!bests.is_empty()).then(|| bests.iter().sum())
    }
}

/// Everything a run's timed passes measured.
#[derive(Debug, Default)]
pub struct Samples {
    /// Seconds per timed unit at 1 worker: each spec's `qic::run` call
    /// for batch workloads, each job of the service protocol for
    /// `serve_mixed`.
    pub w1_s: Timing,
    /// The same at 2 workers.
    pub w2_s: Timing,
    /// Simulated events per pass (1-worker run; computed jobs only for
    /// the service).
    pub events: f64,
    /// Sweep points per pass (points of every served job for the
    /// service).
    pub points: f64,
    /// Jobs per pass: sweep points for batch workloads (at 1 worker),
    /// service jobs for `serve_mixed` (at 2 workers).
    pub jobs: f64,
    pub job_ms: Timing,
    /// Each spec's mean latency over its four service jobs
    /// (`serve_mixed`).
    pub spec_ms: Timing,
    pub cold_ms: Timing,
    pub mem_hit_ms: Timing,
    pub disk_hit_ms: Timing,
    /// Seconds per set-up.
    pub setup_s: Vec<f64>,
    pub passes: usize,
}

impl Samples {
    fn add_tiers(&mut self, leg: &Leg) {
        let tier = |source: CacheSource| {
            leg.jobs
                .iter()
                .filter(move |j| j.source == source)
                .map(|j| j.ms)
        };
        self.cold_ms.pass(tier(CacheSource::Computed));
        self.mem_hit_ms.pass(tier(CacheSource::Memory));
        self.disk_hit_ms.pass(tier(CacheSource::Disk));
    }

    /// Job latency samples so far.
    fn job_samples(&self) -> usize {
        self.job_ms.0.iter().map(Vec::len).sum()
    }
}

/// Times `reps` set-ups of the workload: build, validate and serialise
/// its specs, generate their programs, and start the service (its
/// shutdown is not timed). Every set-up opens the same cache
/// directory, as a restarted service does: creating and removing it
/// each time made `setup_s` time the file system, whose metadata writes
/// moved its median by half from one set of runs to the next.
pub fn setups(prepared: &Prepared, scratch: &Path, reps: usize) -> Vec<f64> {
    let dir = scratch.join("setup");
    let secs = (0..reps)
        .map(|_| {
            let start = Instant::now();
            let again = prepare(prepared.workload, prepared.seed);
            let serve = Serve::start(
                ServeConfig::default()
                    .with_workers(SERVE_WORKERS)
                    .with_cache_dir(&dir),
            );
            let secs = start.elapsed().as_secs_f64();
            serve.shutdown();
            std::hint::black_box(again).expect("the first set-up of these inputs succeeded");
            secs
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    secs
}

/// Sweep points a spec evaluates (replicates included).
pub fn points_of(spec: &ScenarioSpec) -> u64 {
    (spec.param_space().len() * spec.replicates as usize) as u64
}

/// Sum of a metric over every replicate of every point.
pub fn sum_metric(report: &ScenarioReport, name: &str) -> f64 {
    report
        .report
        .points
        .iter()
        .flat_map(|p| p.replicates.iter())
        .filter_map(|m| m.get(name))
        .sum()
}

/// Runs every spec through `qic::run` on `workers` workers, timing each
/// call; a panic or error fails the spec's points.
pub fn run_all(
    specs: &[ScenarioSpec],
    workers: usize,
    ledger: &mut Ledger,
) -> Vec<(Option<ScenarioReport>, f64)> {
    specs
        .iter()
        .map(|spec| {
            let spec = spec.clone().with_workers(workers);
            let points = points_of(&spec);
            let start = Instant::now();
            let outcome = ledger.guard(points, &spec.name, || qic::run(&spec));
            let secs = start.elapsed().as_secs_f64();
            let report = match outcome {
                Some(Ok(report)) => Some(report),
                Some(Err(e)) => {
                    ledger.fail(points, format!("{}: {e}", spec.name));
                    None
                }
                None => None,
            };
            (report, secs)
        })
        .collect()
}

fn keep_going(start: Instant, seconds: f64, passes: usize, enough: bool) -> bool {
    let elapsed = start.elapsed();
    passes < 2 || ((elapsed.as_secs_f64() < seconds || !enough) && elapsed < HARD_CAP)
}

/// Timed passes of a batch workload. Each pass runs every spec at 1
/// worker, again at 2, and then through the service protocol; outputs
/// are checked as they arrive. Returns the samples and the first pass's
/// 1-worker reports.
pub fn batch(
    prepared: &Prepared,
    seconds: f64,
    scratch: &Path,
    ledger: &mut Ledger,
) -> (Samples, Vec<Option<ScenarioReport>>) {
    let mut s = Samples::default();
    let mut first: Option<Vec<Option<ScenarioReport>>> = None;
    let start = Instant::now();
    while keep_going(start, seconds, s.passes, s.job_samples() >= TAIL_SAMPLES) {
        s.setup_s.extend(setups(prepared, scratch, SETUPS_PER_PASS));
        let w1 = run_all(&prepared.specs, 1, ledger);
        let w2 = run_all(&prepared.specs, 2, ledger);
        let direct: Vec<Option<String>> = w1
            .iter()
            .map(|(r, _)| r.as_ref().map(ScenarioReport::to_json))
            .collect();
        for (i, spec) in prepared.specs.iter().enumerate() {
            let points = points_of(spec);
            if let ((Some(a), _), (Some(b), _)) = (&w1[i], &w2[i]) {
                ledger.check(
                    direct[i].as_deref() == Some(b.to_json().as_str()) && a.to_csv() == b.to_csv(),
                    points,
                    || format!("{}: 1- and 2-worker reports differ", spec.name),
                );
            }
            if let (Some(Some(a)), Some(b)) = (first.as_ref().map(|f| &f[i]), &direct[i]) {
                ledger.check(a.to_json() == *b, points, || {
                    format!("{}: report changed between passes", spec.name)
                });
            }
        }
        let dir = scratch.join(format!("serve-{}", s.passes));
        let leg = serve_leg(&prepared.texts, SERVE_WORKERS, &dir, ledger);
        check_jobs(&leg, &prepared.specs, &direct, ledger);

        let reports: Vec<&ScenarioReport> = w1.iter().filter_map(|(r, _)| r.as_ref()).collect();
        s.w1_s.pass(w1.iter().map(|(_, t)| *t));
        s.w2_s.pass(w2.iter().map(|(_, t)| *t));
        s.events = reports.iter().map(|r| sum_metric(r, "events")).sum();
        s.points = prepared.specs.iter().map(points_of).sum::<u64>() as f64;
        s.jobs = s.points;
        s.job_ms.pass(
            reports
                .iter()
                .flat_map(|r| r.report.wall_ns.iter())
                .map(|&ns| ns as f64 / 1e6),
        );
        s.add_tiers(&leg);
        s.passes += 1;
        if first.is_none() {
            first = Some(w1.into_iter().map(|(r, _)| r).collect());
        }
    }
    (s, first.unwrap_or_default())
}

/// Checks each served job against the direct report of its spec. Jobs
/// are matched to specs by their spec, since failed jobs leave gaps.
fn check_jobs(leg: &Leg, specs: &[ScenarioSpec], direct: &[Option<String>], ledger: &mut Ledger) {
    for job in &leg.jobs {
        let Some(i) = specs.iter().position(|s| *s == job.report.spec) else {
            ledger.fail(
                1,
                format!("{}: job carries an unknown spec", job.report.spec.name),
            );
            continue;
        };
        if let Some(expected) = &direct[i] {
            ledger.check(job.report.to_json() == *expected, 1, || {
                format!(
                    "{}: {} report differs from qic::run",
                    job.report.spec.name,
                    job.source.label()
                )
            });
        }
    }
}

/// Timed passes of the service workload: the protocol on a 1-worker
/// executor (`wall_s`, events and points per second) and on a 2-worker
/// executor (`wall_s_w2`, jobs per second and every job latency).
pub fn serve(
    prepared: &Prepared,
    direct: &[Option<String>],
    seconds: f64,
    scratch: &Path,
    ledger: &mut Ledger,
) -> Samples {
    let mut s = Samples::default();
    let start = Instant::now();
    while keep_going(start, seconds, s.passes, s.job_samples() >= TAIL_SAMPLES) {
        s.setup_s.extend(setups(prepared, scratch, SETUPS_PER_PASS));
        let dir = |w: usize| scratch.join(format!("serve-{}-w{w}", s.passes));
        let leg1 = serve_leg(&prepared.texts, 1, &dir(1), ledger);
        let leg2 = serve_leg(&prepared.texts, SERVE_WORKERS, &dir(2), ledger);
        check_jobs(&leg1, &prepared.specs, direct, ledger);
        check_jobs(&leg2, &prepared.specs, direct, ledger);

        s.w1_s.pass(leg1.jobs.iter().map(|j| j.ms / 1e3));
        s.w2_s.pass(leg2.jobs.iter().map(|j| j.ms / 1e3));
        s.events = leg1
            .jobs
            .iter()
            .filter(|j| j.source == CacheSource::Computed)
            .map(|j| sum_metric(&j.report, "events"))
            .sum();
        s.points = leg1
            .jobs
            .iter()
            .map(|j| points_of(&j.report.spec))
            .sum::<u64>() as f64;
        s.jobs = leg2.jobs.len() as f64;
        s.job_ms.pass(leg2.jobs.iter().map(|j| j.ms));
        s.spec_ms.pass(spec_means(&leg2, &prepared.specs));
        s.add_tiers(&leg2);
        s.passes += 1;
    }
    s
}

/// Each spec's mean latency over its jobs in the leg. Half the jobs are
/// memory hits, so the median job sits on the edge between the memory
/// hits and the rest and jumps with either; a spec's mean over its four
/// jobs has no such edge.
fn spec_means(leg: &Leg, specs: &[ScenarioSpec]) -> Vec<f64> {
    let mut sums = vec![(0.0, 0u32); specs.len()];
    for job in &leg.jobs {
        if let Some(i) = specs.iter().position(|s| *s == job.report.spec) {
            sums[i].0 += job.ms;
            sums[i].1 += 1;
        }
    }
    sums.into_iter()
        .filter(|&(_, n)| n > 0)
        .map(|(sum, n)| sum / f64::from(n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_take_each_units_best_over_passes() {
        let mut t = Timing::default();
        t.pass([1.0, 30.0, 5.0]);
        t.pass([2.0, 20.0, 7.0]);
        t.pass([100.0, 10.0, 6.0]);
        assert_eq!(
            t.bests(),
            vec![1.0, 10.0, 5.0],
            "the 100 s burst is dropped"
        );
        assert_eq!(t.sum_of_bests(), Some(16.0));
        assert_eq!(t.p50(), Some(5.0));
        assert_eq!(t.pass_totals(), vec![36.0, 29.0, 116.0]);
        assert_eq!(t.best_filtered(), [[1.0, 10.0, 5.0]; 3].concat());
        assert_eq!(t.pooled().len(), 9);
        assert_eq!(Timing::default().sum_of_bests(), None);
        assert_eq!(Timing::default().p50(), None);
    }
}
