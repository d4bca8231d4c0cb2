//! The service core: [`Serve`] (the running instance), [`ServeHandle`]
//! (the submission API), and the dispatcher threads that tie the queue,
//! the cache, and the shared executor together.
//!
//! # Life of a job
//!
//! ```text
//! submit ──validate──▶ Rejected            (bad spec, observe/checkpoint)
//!        ──memory hit─▶ Done{Memory}        (no queue slot, no dispatcher)
//!        ──admit──────▶ Queued              (or ServeError::QueueFull)
//! dispatcher: memory hit ───────────▶ Done{Memory}  (filled while queued)
//!             identical in flight ──▶ (follower) … Done{Coalesced}
//!             disk hit ────────────▶ Done{Disk}  (+ memory fill)
//!             miss ────────────────▶ Running{done,total} ─▶ Done{Computed}
//! cancel: queued → Failed("cancelled"); running → token tripped,
//!         in-flight points finish, then Failed("cancelled") and any
//!         followers are requeued (each gets its own attempt).
//! ```
//!
//! Every `Done` carries the same campaign payload for a given digest —
//! the engine's determinism contract makes cached, coalesced and
//! computed reports byte-identical (`wall_ns` excluded) — so provenance
//! is pure observability. The memory tier holds one
//! `Arc<ScenarioReport>` per digest, and every `Done` whose spec equals
//! the cached spec shares it; a spec that differs only in execution
//! hints (`workers`) gets its own report carrying its own spec.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use qic_core::scenario::{self, ScenarioProgress, ScenarioReport, ScenarioSpec, SpecDigest};
use qic_sweep::{CancelToken, Executor, Metrics, ProgressSink, RunOptions};

use crate::cache::CacheDir;
use crate::job::{CacheSource, JobId, JobState};

/// Service configuration. `Default` is a small general-purpose
/// instance: auto-sized executor, 2 dispatchers, a 64-deep queue, a
/// 128-entry memory cache, no disk cache.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Executor worker threads. `0` (default) defers to `QIC_WORKERS`,
    /// then to the machine's available parallelism — the same
    /// precedence as every `qic-sweep` pool (see [`Executor::new`]).
    pub workers: usize,
    /// Dispatcher threads = jobs *preparing or computing* concurrently
    /// (each computing job's points still spread over all workers).
    /// `0` is clamped to 1.
    pub parallel_jobs: usize,
    /// Admission bound: submissions beyond this many queued jobs get
    /// [`ServeError::QueueFull`]. A memory hit is answered at submit
    /// and takes no slot. `0` is clamped to 1.
    pub queue_limit: usize,
    /// On-disk result cache directory; `None` disables disk caching.
    pub cache_dir: Option<PathBuf>,
    /// In-memory cache capacity in reports (FIFO eviction); `0`
    /// disables the memory tier.
    pub memory_entries: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 0,
            parallel_jobs: 2,
            queue_limit: 64,
            cache_dir: None,
            memory_entries: 128,
        }
    }
}

impl ServeConfig {
    /// Sets the executor worker count (`0` = env/auto).
    pub fn with_workers(mut self, workers: usize) -> ServeConfig {
        self.workers = workers;
        self
    }

    /// Sets the dispatcher-thread count.
    pub fn with_parallel_jobs(mut self, jobs: usize) -> ServeConfig {
        self.parallel_jobs = jobs;
        self
    }

    /// Sets the admission bound.
    pub fn with_queue_limit(mut self, limit: usize) -> ServeConfig {
        self.queue_limit = limit;
        self
    }

    /// Enables the on-disk cache at `dir`.
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> ServeConfig {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Sets the in-memory cache capacity.
    pub fn with_memory_entries(mut self, entries: usize) -> ServeConfig {
        self.memory_entries = entries;
        self
    }
}

/// Why a submission was not admitted. Rejected *jobs* (bad specs) are
/// not errors — they get a [`JobId`] whose state is
/// [`JobState::Rejected`]; this type is for the service itself pushing
/// back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The queue is at its configured bound; retry later. Structured
    /// backpressure instead of unbounded memory.
    QueueFull {
        /// The configured [`ServeConfig::queue_limit`].
        limit: usize,
    },
    /// The service is draining: it finishes admitted jobs but accepts
    /// no new ones.
    ShuttingDown,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull { limit } => {
                write!(f, "queue full: {limit} jobs already waiting")
            }
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Monotonic service counters, reported via [`ServeHandle::metrics`].
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    submitted: u64,
    rejected: u64,
    computed: u64,
    hits_memory: u64,
    hits_disk: u64,
    coalesced: u64,
    failed: u64,
    cancelled: u64,
    cache_errors: u64,
    wall_ns_total: u64,
}

struct JobRecord {
    spec: Arc<ScenarioSpec>,
    digest: SpecDigest,
    state: JobState,
    cancel: CancelToken,
    admitted: Instant,
}

/// The in-flight registration for one digest: the job computing it and
/// the identical jobs waiting on that computation.
struct InFlight {
    followers: Vec<u64>,
}

struct State {
    next_id: u64,
    jobs: HashMap<u64, JobRecord>,
    queue: VecDeque<u64>,
    inflight: HashMap<u64, InFlight>,
    memory: HashMap<u64, Arc<ScenarioReport>>,
    memory_order: VecDeque<u64>,
    counters: Counters,
    draining: bool,
}

struct Core {
    state: Mutex<State>,
    /// Signals dispatchers: queue non-empty, or draining.
    work: Condvar,
    /// Signals watchers: some job's state changed.
    settle: Condvar,
    executor: Executor,
    cache: Option<CacheDir>,
    queue_limit: usize,
    memory_entries: usize,
}

impl Core {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn memory_insert(&self, st: &mut State, digest: u64, report: Arc<ScenarioReport>) {
        if self.memory_entries == 0 {
            return;
        }
        if !st.memory.contains_key(&digest) {
            st.memory_order.push_back(digest);
            if st.memory_order.len() > self.memory_entries {
                if let Some(evicted) = st.memory_order.pop_front() {
                    st.memory.remove(&evicted);
                }
            }
        }
        st.memory.insert(digest, report);
    }

    /// Moves job `id` to `Done` with `payload` — shared when the job's
    /// spec is the payload's, otherwise a report carrying the job's
    /// *own* spec around a copy of the campaign.
    fn resolve_done(
        &self,
        st: &mut State,
        id: u64,
        payload: &Arc<ScenarioReport>,
        source: CacheSource,
    ) {
        if let Some(rec) = st.jobs.get_mut(&id) {
            if rec.state.is_terminal() {
                return;
            }
            let wall_ns = rec.admitted.elapsed().as_nanos() as u64;
            st.counters.wall_ns_total = st.counters.wall_ns_total.saturating_add(wall_ns);
            match source {
                CacheSource::Computed => st.counters.computed += 1,
                CacheSource::Memory => st.counters.hits_memory += 1,
                CacheSource::Disk => st.counters.hits_disk += 1,
                CacheSource::Coalesced => {}
            }
            let report = if *rec.spec == payload.spec {
                Arc::clone(payload)
            } else {
                Arc::new(ScenarioReport {
                    spec: (*rec.spec).clone(),
                    report: payload.report.clone(),
                })
            };
            rec.state = JobState::Done {
                report,
                source,
                wall_ns,
            };
        }
    }

    fn resolve_failed(&self, st: &mut State, id: u64, message: &str, cancelled: bool) {
        if let Some(rec) = st.jobs.get_mut(&id) {
            if rec.state.is_terminal() {
                return;
            }
            if cancelled {
                st.counters.cancelled += 1;
            } else {
                st.counters.failed += 1;
            }
            rec.state = JobState::Failed {
                message: message.to_string(),
            };
        }
    }
}

/// The cheap, clonable submission API. Every handle talks to the same
/// service; handles stay valid until the [`Serve`] they came from is
/// shut down (after which [`ServeHandle::submit`] returns
/// [`ServeError::ShuttingDown`]).
#[derive(Clone)]
pub struct ServeHandle {
    core: Arc<Core>,
}

impl ServeHandle {
    /// Submits a scenario for execution (or cache service).
    ///
    /// Returns a [`JobId`] immediately. Specs that fail validation, or
    /// that carry `observe`/`checkpoint` blocks (which write
    /// server-local files and conflict with executor scheduling), get a
    /// job in [`JobState::Rejected`] — query it like any other job.
    /// A valid spec whose digest the memory tier holds is answered here:
    /// its job is created `Done { source: Memory }`, takes no queue slot
    /// and wakes no dispatcher.
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueFull`] at the admission bound;
    /// [`ServeError::ShuttingDown`] once draining has begun. In both
    /// cases no job is created.
    pub fn submit(&self, spec: ScenarioSpec) -> Result<JobId, ServeError> {
        let rejection = if let Err(e) = spec.validate() {
            Some(e.to_string())
        } else if spec.observe.is_some() {
            Some(
                "observe blocks are not served: trace export writes server-local files; \
                  run such specs locally via qic::run"
                    .into(),
            )
        } else if spec.checkpoint.is_some() {
            Some(
                "checkpoint blocks are not served: the cache already makes reruns cheap; \
                  use qic::run_with and a budget for resumable local execution"
                    .into(),
            )
        } else {
            None
        };
        let digest = SpecDigest::of(&spec);
        let mut st = self.core.lock();
        if st.draining {
            return Err(ServeError::ShuttingDown);
        }
        st.counters.submitted += 1;
        let hit = match rejection {
            None => st.memory.get(&digest.as_u64()).cloned(),
            Some(_) => None,
        };
        let queued = rejection.is_none() && hit.is_none();
        if queued && st.queue.len() >= self.core.queue_limit {
            return Err(ServeError::QueueFull {
                limit: self.core.queue_limit,
            });
        }
        let id = st.next_id;
        st.next_id += 1;
        let state = match rejection {
            Some(reason) => {
                st.counters.rejected += 1;
                JobState::Rejected { reason }
            }
            None => JobState::Queued,
        };
        st.jobs.insert(
            id,
            JobRecord {
                spec: Arc::new(spec),
                digest,
                state,
                cancel: CancelToken::new(),
                admitted: Instant::now(),
            },
        );
        if let Some(payload) = hit {
            // Answered here: a job born terminal has no watchers to wake.
            self.core
                .resolve_done(&mut st, id, &payload, CacheSource::Memory);
        } else if queued {
            st.queue.push_back(id);
            drop(st);
            self.core.work.notify_one();
        }
        Ok(JobId(id))
    }

    /// A snapshot of the job's current state; `None` for unknown ids.
    pub fn status(&self, id: JobId) -> Option<JobState> {
        self.core.lock().jobs.get(&id.0).map(|r| r.state.clone())
    }

    /// Blocks until the job reaches a terminal state and returns it;
    /// `None` for unknown ids.
    pub fn wait(&self, id: JobId) -> Option<JobState> {
        self.wait_for(id, JobState::is_terminal)
    }

    /// Blocks until the job's state differs from `seen` — another phase,
    /// another `done` count, or any terminal state (so a terminal `seen`
    /// returns at once) — and returns it; `None` for unknown ids. A
    /// watcher that passes back what it last got sees every change of
    /// `done` without polling.
    pub fn wait_change(&self, id: JobId, seen: &JobState) -> Option<JobState> {
        self.wait_for(id, |now| match (seen, now) {
            (JobState::Queued, JobState::Queued) => false,
            (JobState::Running { done: was, .. }, JobState::Running { done, .. }) => was != done,
            _ => true,
        })
    }

    fn wait_for(&self, id: JobId, ready: impl Fn(&JobState) -> bool) -> Option<JobState> {
        let mut st = self.core.lock();
        loop {
            let state = &st.jobs.get(&id.0)?.state;
            if ready(state) {
                return Some(state.clone());
            }
            st = self.core.settle.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Requests cancellation. Queued jobs fail immediately
    /// (`Failed{"cancelled"}`); running jobs stop claiming points —
    /// in-flight points finish first — and then fail; identical jobs
    /// coalesced onto a cancelled leader are requeued for their own
    /// attempt. Returns `false` if the job is unknown or already
    /// terminal.
    pub fn cancel(&self, id: JobId) -> bool {
        let mut st = self.core.lock();
        let Some(rec) = st.jobs.get(&id.0) else {
            return false;
        };
        if matches!(rec.state, JobState::Running { .. }) {
            rec.cancel.cancel();
            return true;
        }
        if !matches!(rec.state, JobState::Queued) {
            return false;
        }
        st.queue.retain(|&q| q != id.0);
        for fl in st.inflight.values_mut() {
            fl.followers.retain(|&f| f != id.0);
        }
        self.core.resolve_failed(&mut st, id.0, "cancelled", true);
        drop(st);
        self.core.settle.notify_all();
        true
    }

    /// A `serve.*` metrics snapshot (monotonic counters plus current
    /// queue depth / in-flight count), in the workspace's dotted-name
    /// convention. Wall time lives here and in [`JobState::Done`] —
    /// never inside a report.
    pub fn metrics(&self) -> Metrics {
        let st = self.core.lock();
        let c = st.counters;
        Metrics::new()
            .with("serve.submitted", c.submitted as f64)
            .with("serve.rejected", c.rejected as f64)
            .with("serve.computed", c.computed as f64)
            .with("serve.hits.memory", c.hits_memory as f64)
            .with("serve.hits.disk", c.hits_disk as f64)
            .with("serve.coalesced", c.coalesced as f64)
            .with("serve.failed", c.failed as f64)
            .with("serve.cancelled", c.cancelled as f64)
            .with("serve.cache.errors", c.cache_errors as f64)
            .with("serve.queue.depth", st.queue.len() as f64)
            .with("serve.inflight", st.inflight.len() as f64)
            .with("serve.wall_ms.total", c.wall_ns_total as f64 / 1e6)
    }

    /// The executor's worker count (after `QIC_WORKERS`/auto
    /// resolution).
    pub fn workers(&self) -> usize {
        self.core.executor.workers()
    }
}

/// A running service instance: dispatcher threads plus the shared
/// executor. Dropping (or calling [`Serve::shutdown`]) drains
/// gracefully — admitted jobs finish, new submissions are refused.
pub struct Serve {
    core: Arc<Core>,
    dispatchers: Vec<JoinHandle<()>>,
}

impl Serve {
    /// Starts a service: spawns the executor and
    /// [`ServeConfig::parallel_jobs`] dispatcher threads.
    ///
    /// # Panics
    ///
    /// If a configured [`ServeConfig::cache_dir`] cannot be created —
    /// a service without its cache would silently recompute everything.
    pub fn start(config: ServeConfig) -> Serve {
        let cache = config
            .cache_dir
            .as_ref()
            .map(|dir| CacheDir::open(dir).unwrap_or_else(|e| panic!("opening result cache: {e}")));
        let core = Arc::new(Core {
            state: Mutex::new(State {
                next_id: 1,
                jobs: HashMap::new(),
                queue: VecDeque::new(),
                inflight: HashMap::new(),
                memory: HashMap::new(),
                memory_order: VecDeque::new(),
                counters: Counters::default(),
                draining: false,
            }),
            work: Condvar::new(),
            settle: Condvar::new(),
            executor: Executor::new(config.workers),
            cache,
            queue_limit: config.queue_limit.max(1),
            memory_entries: config.memory_entries,
        });
        let dispatchers = (0..config.parallel_jobs.max(1))
            .map(|i| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("qic-serve-{i}"))
                    .spawn(move || dispatcher_loop(&core))
                    .expect("spawning dispatcher thread")
            })
            .collect();
        Serve { core, dispatchers }
    }

    /// A handle for submitting and querying jobs.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            core: Arc::clone(&self.core),
        }
    }

    /// Graceful drain: refuses new submissions, finishes every admitted
    /// job (queued and running), then joins the dispatchers.
    pub fn shutdown(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        {
            let mut st = self.core.lock();
            st.draining = true;
        }
        self.core.work.notify_all();
        for handle in self.dispatchers.drain(..) {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
        self.core.settle.notify_all();
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        if !self.dispatchers.is_empty() {
            self.drain();
        }
    }
}

/// Per-job progress: mirrors point completions into
/// [`JobState::Running`] so `status`/`wait` watchers (and the JSONL
/// front-end) can stream them.
struct JobProgress {
    core: Arc<Core>,
    id: u64,
}

impl ProgressSink for JobProgress {
    fn on_finish(&self, _task: usize, _worker: usize, _wall_ns: u64) {
        {
            let mut st = self.core.lock();
            if let Some(rec) = st.jobs.get_mut(&self.id) {
                if let JobState::Running { done, .. } = &mut rec.state {
                    *done += 1;
                }
            }
        }
        self.core.settle.notify_all();
    }
}

fn dispatcher_loop(core: &Arc<Core>) {
    loop {
        // Claim the next queued job — or exit once draining finds the
        // queue empty (running jobs belong to other dispatchers).
        let id = {
            let mut st = core.lock();
            loop {
                if let Some(id) = st.queue.pop_front() {
                    break id;
                }
                if st.draining {
                    return;
                }
                st = core.work.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        serve_job(core, id);
        core.settle.notify_all();
    }
}

/// Drives one claimed job through cache lookup, coalescing, or compute.
fn serve_job(core: &Arc<Core>, id: u64) {
    // Phase 1 (locked): memory hit (a digest filled while this job was
    // queued — `submit` answers the others), single-flight
    // registration, or leadership.
    let (spec, digest, cancel) = {
        let mut st = core.lock();
        let Some(rec) = st.jobs.get(&id) else { return };
        if rec.state.is_terminal() {
            return; // cancelled between claim and here
        }
        let spec = Arc::clone(&rec.spec);
        let digest = rec.digest.as_u64();
        let cancel = rec.cancel.clone();
        if cancel.is_cancelled() {
            core.resolve_failed(&mut st, id, "cancelled", true);
            return;
        }
        if let Some(payload) = st.memory.get(&digest).cloned() {
            core.resolve_done(&mut st, id, &payload, CacheSource::Memory);
            return;
        }
        if let Some(fl) = st.inflight.get_mut(&digest) {
            // Identical job already executing: wait on it instead of
            // re-running (single-flight). This dispatcher is free.
            fl.followers.push(id);
            st.counters.coalesced += 1;
            return;
        }
        st.inflight.insert(digest, InFlight { followers: vec![] });
        let total = spec.param_space().len();
        if let Some(rec) = st.jobs.get_mut(&id) {
            rec.state = JobState::Running { done: 0, total };
        }
        (spec, digest, cancel)
    };

    // Phase 2 (unlocked): the disk tier. Corruption of any flavour is a
    // *structured miss* — counted, then recomputed.
    if let Some(cache) = &core.cache {
        match cache.load(&spec) {
            Ok(Some(report)) => {
                let payload = Arc::new(ScenarioReport {
                    spec: (*spec).clone(),
                    report,
                });
                let mut st = core.lock();
                core.memory_insert(&mut st, digest, Arc::clone(&payload));
                core.resolve_done(&mut st, id, &payload, CacheSource::Disk);
                settle_followers(core, &mut st, digest, &payload);
                return;
            }
            Ok(None) => {}
            Err(_) => {
                core.lock().counters.cache_errors += 1;
            }
        }
    }

    // Phase 3 (unlocked): compute on the shared executor. Panics are
    // contained to this job; the pool and the other dispatchers
    // survive.
    let progress = Arc::new(JobProgress {
        core: Arc::clone(core),
        id,
    });
    let opts = RunOptions {
        exec: Some(&core.executor),
        progress: Some(progress),
        cancel,
        ..RunOptions::default()
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| scenario::run_with(&spec, &opts)));
    match outcome {
        Ok(Ok(ScenarioProgress::Complete(report))) => {
            let payload = Arc::<ScenarioReport>::from(report);
            if let Some(cache) = &core.cache {
                if cache.store(&spec, &payload.report).is_err() {
                    core.lock().counters.cache_errors += 1;
                }
            }
            let mut st = core.lock();
            core.memory_insert(&mut st, digest, Arc::clone(&payload));
            core.resolve_done(&mut st, id, &payload, CacheSource::Computed);
            settle_followers(core, &mut st, digest, &payload);
        }
        Ok(Ok(ScenarioProgress::Partial { .. })) => {
            // Cancelled mid-run. Followers asked for the same result
            // but did not ask to cancel — requeue each for its own
            // attempt.
            let mut st = core.lock();
            core.resolve_failed(&mut st, id, "cancelled", true);
            requeue_followers(core, &mut st, digest);
        }
        Ok(Err(e)) => {
            // Validation passed at submit, so this is unexpected — but
            // deterministic: identical followers would fail identically.
            let message = e.to_string();
            let mut st = core.lock();
            core.resolve_failed(&mut st, id, &message, false);
            if let Some(fl) = st.inflight.remove(&digest) {
                for follower in fl.followers {
                    core.resolve_failed(&mut st, follower, &message, false);
                }
            }
        }
        Err(payload) => {
            let message = panic_message(payload.as_ref());
            let mut st = core.lock();
            core.resolve_failed(
                &mut st,
                id,
                &format!("evaluation panicked: {message}"),
                false,
            );
            // A panic may be environmental — give followers their own
            // attempt (bounded: each job computes at most once).
            requeue_followers(core, &mut st, digest);
        }
    }
}

/// Resolves every follower of `digest` with the finished payload and
/// clears the in-flight registration.
fn settle_followers(core: &Core, st: &mut State, digest: u64, payload: &Arc<ScenarioReport>) {
    if let Some(fl) = st.inflight.remove(&digest) {
        for follower in fl.followers {
            core.resolve_done(st, follower, payload, CacheSource::Coalesced);
        }
    }
}

/// Pushes every follower of `digest` back to the queue front (they were
/// admitted earlier than anything behind them) and clears the
/// registration.
fn requeue_followers(core: &Arc<Core>, st: &mut State, digest: u64) {
    if let Some(fl) = st.inflight.remove(&digest) {
        let n = fl.followers.len();
        for follower in fl.followers.into_iter().rev() {
            st.queue.push_front(follower);
        }
        for _ in 0..n {
            core.work.notify_one();
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
