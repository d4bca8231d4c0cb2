//! The worker pool behind every campaign run: the [`Executor`].
//!
//! An `Executor` keeps its worker threads alive and multiplexes every
//! concurrent submission over them with fair round-robin claiming,
//! bounded admission, cooperative cancellation ([`CancelToken`]) and
//! panic propagation. [`Campaign::run`] submits to a shared executor
//! when [`RunOptions::exec`] names one (the multi-tenant path behind
//! `qic-serve`); otherwise it builds a transient `Executor` sized
//! `min(workers, points)` and drops it on return.
//!
//! Work distribution is a shared cursor per submission: each worker
//! repeatedly claims the next unclaimed task index and evaluates it,
//! so stragglers never idle the pool (work stealing without queues —
//! cheap, fair, and contention-free for simulator-sized tasks).
//! Finished results stream back to the submitting thread over a
//! channel tagged with their task index, so aggregation order never
//! depends on thread scheduling.
//!
//! # Worker-count precedence
//!
//! A worker count of `0` resolves through [`default_workers`]: an
//! explicit count always wins, then the `QIC_WORKERS` environment
//! variable (parsed by [`parse_workers`]), then the machine's available
//! parallelism capped at 8.
//!
//! [`Campaign::run`]: crate::campaign::Campaign::run
//! [`RunOptions::exec`]: crate::campaign::RunOptions::exec

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::thread::JoinHandle;
use std::time::Instant;

use crate::progress::ProgressSink;

/// Worker count to use when a campaign does not pin one.
///
/// The `QIC_WORKERS` environment variable, when set to a positive
/// integer, overrides the choice (clamped to 64) — CI and the bench
/// gate pin worker counts this way without code changes. Otherwise:
/// the machine's available parallelism, capped at 8 (simulator tasks
/// are CPU-bound; more threads only add scheduling noise).
pub fn default_workers() -> usize {
    if let Some(w) = std::env::var("QIC_WORKERS")
        .ok()
        .as_deref()
        .and_then(parse_workers)
    {
        return w;
    }
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 8)
}

/// Parses a `QIC_WORKERS` value: a positive integer, clamped to 64.
/// Anything else (empty, zero, garbage) yields `None` and falls back to
/// the automatic choice.
///
/// Public so service layers (`qic-serve`) resolve the same precedence —
/// explicit config > `QIC_WORKERS` > automatic — from the same parser.
pub fn parse_workers(v: &str) -> Option<usize> {
    let n: usize = v.trim().parse().ok()?;
    (n > 0).then(|| n.min(64))
}

/// A cooperative cancellation latch shared between the submitter of an
/// [`Executor`] run and the workers evaluating it.
///
/// Cancelling stops further task *claims*; tasks already in flight
/// finish normally. A cancelled run returns incomplete (some indices
/// never reach [`Executor::run`]'s sink), and the token stays tripped —
/// tokens are one-shot, one per run.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Trips the latch: no further tasks of the associated run are
    /// claimed.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// What a submission streams back to the thread that registered it.
enum Verdict<R> {
    /// Task `index` finished in `wall_ns` nanoseconds.
    Done(usize, R, u64),
    /// A task panicked; the payload re-raises on the submitter.
    Panicked(Box<dyn Any + Send>),
    /// Every claimed task has finished and no more will be claimed.
    Closed,
}

/// One registered submission as the worker ring sees it: claim task
/// indices until drained, run each claimed index. Object-safe so the
/// ring can hold submissions of any result type.
trait TaskSource: Send + Sync {
    /// Claims the next unclaimed task index; `None` once the source is
    /// exhausted or cancelled (monotone — `None` is permanent, and the
    /// ring drops the source on seeing it).
    fn claim(&self) -> Option<usize>;

    /// Runs claimed task `index` on pool worker `worker`, delivering
    /// the result to the submitter internally.
    fn run(&self, index: usize, worker: usize);

    /// The ring dropped the source; once in-flight tasks finish, the
    /// submitter is released.
    fn detached(&self);
}

/// The state behind one [`Executor`] submission: the shared claim
/// cursor, the accounting that closes the result stream exactly once,
/// and the caller's sink channel.
struct Submission<R, F> {
    tasks: usize,
    cursor: AtomicUsize,
    claimed: AtomicUsize,
    finished: AtomicUsize,
    detached: AtomicBool,
    closed: AtomicBool,
    cancel: CancelToken,
    progress: Arc<dyn ProgressSink + Send + Sync>,
    eval: F,
    tx: mpsc::Sender<Verdict<R>>,
}

impl<R, F> Submission<R, F>
where
    R: Send + 'static,
    F: Fn(usize) -> R + Send + Sync + 'static,
{
    /// Sends the one `Closed` sentinel once the ring has let go of the
    /// source and every claimed task has finished.
    fn maybe_close(&self) {
        if self.detached.load(Ordering::SeqCst)
            && self.finished.load(Ordering::SeqCst) == self.claimed.load(Ordering::SeqCst)
            && !self.closed.swap(true, Ordering::SeqCst)
        {
            let _ = self.tx.send(Verdict::Closed);
        }
    }
}

impl<R, F> TaskSource for Submission<R, F>
where
    R: Send + 'static,
    F: Fn(usize) -> R + Send + Sync + 'static,
{
    fn claim(&self) -> Option<usize> {
        if self.cancel.is_cancelled() {
            return None;
        }
        let i = self.cursor.fetch_add(1, Ordering::SeqCst);
        if i >= self.tasks {
            return None;
        }
        self.claimed.fetch_add(1, Ordering::SeqCst);
        Some(i)
    }

    fn run(&self, index: usize, worker: usize) {
        self.progress.on_start(index, worker);
        let begun = Instant::now();
        match catch_unwind(AssertUnwindSafe(|| (self.eval)(index))) {
            Ok(result) => {
                let wall_ns = u64::try_from(begun.elapsed().as_nanos()).unwrap_or(u64::MAX);
                self.progress.on_finish(index, worker, wall_ns);
                let _ = self.tx.send(Verdict::Done(index, result, wall_ns));
            }
            Err(payload) => {
                // Stop claiming the rest of this submission, carry the
                // payload home; other submissions are unaffected.
                self.cancel.cancel();
                let _ = self.tx.send(Verdict::Panicked(payload));
            }
        }
        self.finished.fetch_add(1, Ordering::SeqCst);
        self.maybe_close();
    }

    fn detached(&self) {
        self.detached.store(true, Ordering::SeqCst);
        self.maybe_close();
    }
}

/// The ring of live submissions, guarded by [`Shared::ring`].
struct Ring {
    /// Live submissions, claimed from round-robin for fairness.
    sources: Vec<Arc<dyn TaskSource>>,
    /// Next ring slot to claim from (reduced modulo the ring length at
    /// use, so removals need no fix-up).
    next: usize,
    /// Admission bound: registrations block while the ring is full.
    admit: usize,
    /// Workers exit once this is set and the ring has drained.
    shutdown: bool,
}

/// State shared between the [`Executor`] handle and its workers.
struct Shared {
    ring: Mutex<Ring>,
    /// Workers wait here for work; submitters notify on registration.
    work: Condvar,
    /// Submitters wait here for an admission slot; workers notify when
    /// a drained source leaves the ring.
    space: Condvar,
}

/// The worker pool every campaign runs on: shared by many concurrent
/// submissions, or built per call and dropped on return.
///
/// An `Executor` keeps `workers` threads alive and multiplexes every
/// concurrent submission over them with **fair round-robin claiming**:
/// each idle worker takes the next task from the next submission in the
/// ring, so two concurrent campaigns make interleaved progress instead
/// of queueing behind each other. Submissions beyond the admission
/// bound block until a slot frees.
///
/// # Worker-count precedence
///
/// `Executor::new(0)` resolves the pool size through
/// [`default_workers`]: an explicit non-zero count always wins, then a
/// positive-integer `QIC_WORKERS` environment variable (via
/// [`parse_workers`], clamped to 64), then the machine's available
/// parallelism capped at 8.
///
/// # Determinism
///
/// The executor only schedules; results are index-addressed, so
/// anything built on it (notably [`Campaign::run`]) inherits the
/// byte-identical determinism contract regardless of pool size or
/// concurrent load.
///
/// Dropping the executor drains in-flight submissions, then joins the
/// workers.
///
/// [`Campaign::run`]: crate::campaign::Campaign::run
pub struct Executor {
    shared: Arc<Shared>,
    workers: usize,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

impl Executor {
    /// A pool of `workers` threads (`0` resolves via
    /// [`default_workers`]: `QIC_WORKERS`, then auto) with unbounded
    /// admission.
    pub fn new(workers: usize) -> Executor {
        Executor::with_admission(workers, usize::MAX)
    }

    /// A pool with at most `admit` concurrently registered submissions;
    /// further submissions block (in their calling thread) until a slot
    /// frees. Service layers that need *non-blocking* backpressure
    /// bound their own job queue in front (see `qic-serve`'s
    /// `ServeError::QueueFull`) and keep the executor bound as a
    /// backstop.
    pub fn with_admission(workers: usize, admit: usize) -> Executor {
        let workers = if workers == 0 {
            default_workers()
        } else {
            workers
        };
        let shared = Arc::new(Shared {
            ring: Mutex::new(Ring {
                sources: Vec::new(),
                next: 0,
                admit: admit.max(1),
                shutdown: false,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("qic-exec-{worker}"))
                    .spawn(move || worker_loop(&shared, worker))
                    .expect("spawn executor worker")
            })
            .collect();
        Executor {
            shared,
            workers,
            handles,
        }
    }

    /// The pool's worker-thread count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Evaluates task indices `0..tasks` on the pool, streaming each
    /// `(index, result, wall_ns)` into `sink` on this thread as it
    /// completes.
    ///
    /// `progress` hears every claim and finish (with pool-worker
    /// attribution); tripping `cancel` stops further claims, and the
    /// indices never claimed never reach `sink`. The submitting thread
    /// blocks until every claimed task has finished. A panicking task
    /// cancels the rest of **this** submission and re-raises here;
    /// concurrent submissions are unaffected.
    ///
    /// Which worker runs which index is scheduling-dependent, but
    /// `sink` receives each delivered index exactly once, so an
    /// index-addressed collection is deterministic. Wall times and
    /// progress callbacks are measurement side channels and must not
    /// feed anything that claims determinism.
    pub fn run<R, F, S>(
        &self,
        tasks: usize,
        task: F,
        mut sink: S,
        progress: Arc<dyn ProgressSink + Send + Sync>,
        cancel: &CancelToken,
    ) where
        R: Send + 'static,
        F: Fn(usize) -> R + Send + Sync + 'static,
        S: FnMut(usize, R, u64),
    {
        if tasks == 0 {
            return;
        }
        let (tx, rx) = mpsc::channel();
        let submission: Arc<Submission<R, F>> = Arc::new(Submission {
            tasks,
            cursor: AtomicUsize::new(0),
            claimed: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            detached: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            cancel: cancel.clone(),
            progress,
            eval: task,
            tx,
        });
        {
            let mut ring = self.shared.ring.lock().expect("executor ring poisoned");
            while ring.sources.len() >= ring.admit {
                ring = self
                    .shared
                    .space
                    .wait(ring)
                    .expect("executor ring poisoned");
            }
            ring.sources.push(submission);
            self.shared.work.notify_all();
        }
        let mut payload: Option<Box<dyn Any + Send>> = None;
        // `Closed` always arrives: the ring drops the source once its
        // claims dry up, and the last in-flight task closes the stream.
        while let Ok(verdict) = rx.recv() {
            match verdict {
                Verdict::Done(i, r, wall_ns) => sink(i, r, wall_ns),
                Verdict::Panicked(p) => payload = Some(p),
                Verdict::Closed => break,
            }
        }
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        {
            let mut ring = self.shared.ring.lock().expect("executor ring poisoned");
            ring.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in self.handles.drain(..) {
            if let Err(payload) = handle.join() {
                resume_unwind(payload);
            }
        }
    }
}

/// One pool worker: round-robin over the ring, claim, run, repeat;
/// drop drained sources; sleep when the ring is idle.
fn worker_loop(shared: &Shared, worker: usize) {
    let mut ring = shared.ring.lock().expect("executor ring poisoned");
    loop {
        let mut claimed = None;
        while !ring.sources.is_empty() {
            let slot = ring.next % ring.sources.len();
            match ring.sources[slot].claim() {
                Some(index) => {
                    ring.next = slot + 1;
                    claimed = Some((Arc::clone(&ring.sources[slot]), index));
                    break;
                }
                None => {
                    // Exhausted or cancelled: out of the ring, release
                    // its submitter and anyone waiting for admission.
                    let source = ring.sources.remove(slot);
                    source.detached();
                    shared.space.notify_all();
                }
            }
        }
        match claimed {
            Some((source, index)) => {
                drop(ring);
                source.run(index, worker);
                ring = shared.ring.lock().expect("executor ring poisoned");
            }
            None => {
                if ring.shutdown {
                    return;
                }
                ring = shared.work.wait(ring).expect("executor ring poisoned");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progress::{JsonlProgress, NoProgress};

    /// Runs `task` over `0..tasks` on `exec` and collects the results
    /// by index, asserting each index arrives exactly once.
    fn collect<F>(exec: &Executor, tasks: usize, task: F) -> Vec<usize>
    where
        F: Fn(usize) -> usize + Send + Sync + 'static,
    {
        let mut slots = vec![None; tasks];
        exec.run(
            tasks,
            task,
            |i, r, _wall| {
                assert!(slots[i].is_none(), "index {i} delivered twice");
                slots[i] = Some(r);
            },
            Arc::new(NoProgress),
            &CancelToken::new(),
        );
        slots
            .into_iter()
            .map(|s| s.expect("every task index reported exactly once"))
            .collect()
    }

    #[test]
    fn covers_every_index_once() {
        for workers in [1, 2, 4, 7] {
            let got = collect(&Executor::new(workers), 23, |i| i * i);
            let want: Vec<usize> = (0..23).map(|i| i * i).collect();
            assert_eq!(got, want, "workers={workers}");
        }
    }

    #[test]
    fn zero_tasks_is_fine() {
        let got = collect(&Executor::new(4), 0, |_| unreachable!());
        assert!(got.is_empty());
    }

    #[test]
    fn worker_count_is_clamped() {
        // Idle workers must not deadlock or skip work.
        let got = collect(&Executor::new(64), 3, |i| i);
        assert_eq!(got, vec![0, 1, 2]);
        assert!(default_workers() >= 1);
    }

    #[test]
    fn parse_workers_accepts_positive_clamped_integers() {
        assert_eq!(parse_workers("4"), Some(4));
        assert_eq!(parse_workers(" 12 \n"), Some(12));
        assert_eq!(parse_workers("1000"), Some(64), "clamped to 64");
        assert_eq!(parse_workers("0"), None, "zero falls back");
        assert_eq!(parse_workers(""), None);
        assert_eq!(parse_workers("all"), None);
        assert_eq!(parse_workers("-2"), None);
    }

    #[test]
    fn observed_run_reports_progress_and_wall_times() {
        let sink = Arc::new(JsonlProgress::new(Vec::new(), 6));
        let mut walls = [0u64; 6];
        Executor::new(2).run(
            6,
            |i| i * 10,
            |i, r, wall_ns| {
                assert_eq!(r, i * 10);
                walls[i] = wall_ns;
            },
            Arc::clone(&sink) as _,
            &CancelToken::new(),
        );
        assert_eq!(sink.done(), 6);
        let sink = Arc::into_inner(sink).expect("the pool released the sink");
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text.lines().count(), 12, "one start + one done per task");
        for i in 0..6 {
            assert!(
                text.contains(&format!("\"event\":\"start\",\"task\":{i},")),
                "missing start line for task {i}:\n{text}"
            );
        }
        let final_line = text.lines().last().unwrap();
        assert!(final_line.contains("\"done\":6,\"total\":6,\"in_flight\":0"));
    }
}
