//! Job identity and lifecycle: [`JobId`], [`JobState`], [`CacheSource`].

use std::fmt;
use std::sync::Arc;

use qic_core::scenario::ScenarioReport;

/// A submitted job's identity: dense, process-local, never reused.
/// [`fmt::Display`] renders the wire form the JSONL front-end uses
/// (`job-7`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Where a completed job's report came from.
///
/// Provenance is observability, not identity: the engine's determinism
/// contract means the report bytes are the same whichever variant
/// served them (the regression tests pin this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheSource {
    /// Evaluated on the shared executor by this job.
    Computed,
    /// Served from the in-memory cache.
    Memory,
    /// Loaded (and verified) from the on-disk [`crate::CacheDir`].
    Disk,
    /// Coalesced onto an identical job that was already in flight
    /// (single-flight): this job never executed anything.
    Coalesced,
}

impl CacheSource {
    /// The wire label (`computed` / `memory` / `disk` / `coalesced`).
    pub fn label(self) -> &'static str {
        match self {
            CacheSource::Computed => "computed",
            CacheSource::Memory => "memory",
            CacheSource::Disk => "disk",
            CacheSource::Coalesced => "coalesced",
        }
    }
}

/// A job's lifecycle state.
///
/// Terminal states (`Done` / `Failed` / `Rejected`) never change once
/// entered; [`crate::ServeHandle::wait`] blocks until one is reached.
/// Cancellation surfaces as `Failed` with a `"cancelled"` message —
/// cancelling is a way for a run to fail, not a seventh state.
#[derive(Debug, Clone)]
pub enum JobState {
    /// Admitted, waiting for a dispatcher.
    Queued,
    /// Executing on the shared pool; `done` of `total` points finished.
    Running {
        /// Points completed so far.
        done: usize,
        /// Points in the scenario's sweep.
        total: usize,
    },
    /// Finished; the report plus its provenance.
    Done {
        /// The scenario report. Its `spec` is *this* job's submission;
        /// jobs with an equal spec share one report, and jobs of the
        /// same digest carry byte-identical campaigns (the determinism
        /// contract).
        report: Arc<ScenarioReport>,
        /// Where the report came from.
        source: CacheSource,
        /// Serve-side wall clock from admission to completion, in
        /// nanoseconds. Deliberately **outside** the report — cached
        /// and freshly computed reports compare equal and emit
        /// identical JSON/CSV (the `wall_ns` exclusion contract).
        wall_ns: u64,
    },
    /// The run did not produce a report (evaluation panicked, or the
    /// job was cancelled).
    Failed {
        /// What went wrong.
        message: String,
    },
    /// Refused at submission: the spec failed validation, or carries a
    /// block the service does not execute (`observe` / `checkpoint`).
    Rejected {
        /// Why the spec was refused.
        reason: String,
    },
}

impl JobState {
    /// `true` once the state can no longer change.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done { .. } | JobState::Failed { .. } | JobState::Rejected { .. }
        )
    }

    /// The wire label (`queued` / `running` / `done` / `failed` /
    /// `rejected`).
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running { .. } => "running",
            JobState::Done { .. } => "done",
            JobState::Failed { .. } => "failed",
            JobState::Rejected { .. } => "rejected",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_labels_are_wire_stable() {
        assert_eq!(JobId(7).to_string(), "job-7");
        assert_eq!(CacheSource::Memory.label(), "memory");
        assert_eq!(CacheSource::Computed.label(), "computed");
        assert_eq!(JobState::Queued.label(), "queued");
        assert!(!JobState::Queued.is_terminal());
        assert!(JobState::Failed {
            message: "x".into()
        }
        .is_terminal());
    }
}
