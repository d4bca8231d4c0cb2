//! Campaign-level observability: progress sinks for the executor.
//!
//! A [`ProgressSink`] receives a callback when a worker claims a task
//! and when it finishes one, from whichever thread ran it. The default
//! [`NoProgress`] does nothing; [`JsonlProgress`] streams
//! machine-readable JSON Lines (points done, in-flight, ETA, per-worker
//! attribution) suitable for a dashboard or log tail.
//!
//! Unlike everything else a campaign emits, progress output reports
//! **wall-clock** measurements — it exists to watch a run, not to
//! characterise it. It is therefore not covered by the campaign
//! determinism contract: two runs of the same campaign produce
//! identical reports and different progress streams.

use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Observer of executor progress. Callbacks arrive from worker threads
/// (hence `Sync`); both have empty default bodies.
pub trait ProgressSink: Sync {
    /// Worker `worker` claimed task index `task` and is about to run it.
    fn on_start(&self, task: usize, worker: usize) {
        let _ = (task, worker);
    }

    /// Worker `worker` finished task `task` after `wall_ns` nanoseconds
    /// of wall-clock time.
    fn on_finish(&self, task: usize, worker: usize, wall_ns: u64) {
        let _ = (task, worker, wall_ns);
    }
}

/// The inert sink: campaign runs without observation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoProgress;

impl ProgressSink for NoProgress {}

/// Streams progress as JSON Lines into any writer.
///
/// Two line shapes, one object per line:
///
/// ```text
/// {"event":"start","task":3,"worker":1}
/// {"event":"done","task":3,"worker":1,"wall_ms":12.5,"done":4,"total":96,"in_flight":3,"eta_ms":310.0}
/// ```
///
/// `eta_ms` is the naive remaining-work estimate
/// `elapsed / done × (total − done)`. Write errors are ignored —
/// observability must never fail the campaign it watches.
#[derive(Debug)]
pub struct JsonlProgress<W: Write + Send> {
    out: Mutex<W>,
    total: usize,
    started: Instant,
    done: AtomicUsize,
    in_flight: AtomicUsize,
}

impl<W: Write + Send> JsonlProgress<W> {
    /// A sink over `out` for a campaign of `total` tasks.
    pub fn new(out: W, total: usize) -> JsonlProgress<W> {
        JsonlProgress {
            out: Mutex::new(out),
            total,
            started: Instant::now(),
            done: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
        }
    }

    /// Tasks finished so far.
    pub fn done(&self) -> usize {
        self.done.load(Ordering::Relaxed)
    }

    /// Recovers the writer (e.g. to flush or inspect a buffer).
    pub fn into_inner(self) -> W {
        self.out.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<W: Write + Send> ProgressSink for JsonlProgress<W> {
    fn on_start(&self, task: usize, worker: usize) {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        if let Ok(mut out) = self.out.lock() {
            let _ = writeln!(
                out,
                "{{\"event\":\"start\",\"task\":{task},\"worker\":{worker}}}"
            );
        }
    }

    fn on_finish(&self, task: usize, worker: usize, wall_ns: u64) {
        // Count under the writer lock so lines appear in `done` order:
        // the last line always reports the final count. A poisoned lock
        // at worst holds a torn progress line, never a wrong count.
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        let in_flight = self.in_flight.fetch_sub(1, Ordering::Relaxed) - 1;
        let elapsed_ms = self.started.elapsed().as_secs_f64() * 1e3;
        let eta_ms = elapsed_ms / done as f64 * self.total.saturating_sub(done) as f64;
        let _ = writeln!(
            out,
            "{{\"event\":\"done\",\"task\":{task},\"worker\":{worker},\"wall_ms\":{:.3},\"done\":{done},\"total\":{},\"in_flight\":{in_flight},\"eta_ms\":{:.1}}}",
            wall_ns as f64 / 1e6,
            self.total,
            eta_ms
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_sink_counts_and_emits_lines() {
        let sink = JsonlProgress::new(Vec::new(), 2);
        sink.on_start(0, 0);
        sink.on_finish(0, 0, 1_500_000);
        sink.on_start(1, 1);
        sink.on_finish(1, 1, 2_000_000);
        assert_eq!(sink.done(), 2);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "{\"event\":\"start\",\"task\":0,\"worker\":0}");
        assert!(
            lines[1].starts_with("{\"event\":\"done\",\"task\":0,\"worker\":0,\"wall_ms\":1.500,")
        );
        assert!(lines[1].contains("\"done\":1,\"total\":2,\"in_flight\":0,"));
        assert!(lines[3].contains("\"done\":2,\"total\":2"));
        assert!(lines[3].contains("\"eta_ms\":0.0"));
    }

    #[test]
    fn no_progress_is_inert() {
        let sink = NoProgress;
        sink.on_start(0, 0);
        sink.on_finish(0, 0, 1);
    }
}
