//! # qic-serve — a long-lived scenario service
//!
//! Every caller of [`qic_core::scenario::run`] pays for its own worker
//! pool and recomputes results from scratch. This crate is the serving
//! substrate the ROADMAP's "heavy traffic" north star asks for: a
//! process-wide service that admits scenario documents, deduplicates
//! identical work, and schedules many campaigns fairly onto one
//! machine. Three pillars:
//!
//! * **One shared executor.** A [`qic_sweep::Executor`] serves every
//!   job; concurrent campaigns interleave at *point* granularity
//!   (round-robin), so a large study cannot starve a small one and no
//!   request spawns threads of its own.
//! * **A content-addressed result cache.** Jobs are keyed on
//!   [`qic_core::scenario::SpecDigest`] — the hash of the scenario's
//!   canonical identity. Because reports are byte-identical however a
//!   campaign was scheduled (the engine's determinism contract), a
//!   digest fully determines the report: identical submissions are
//!   cache hits (in memory, then on disk via [`CacheDir`]), and
//!   identical submissions *in flight* coalesce onto one execution
//!   (single-flight).
//! * **A job API.** [`ServeHandle::submit`] returns a [`JobId`];
//!   jobs move through [`JobState`] (`Queued` → `Running` → `Done` /
//!   `Failed` / `Rejected`) with live progress counts, cooperative
//!   cancellation, bounded admission ([`ServeError::QueueFull`] instead
//!   of unbounded memory), and graceful drain on shutdown. A JSONL
//!   front-end ([`serve_lines`], driven by `examples/serve.rs`) makes
//!   the service scriptable from the shell over stdin/stdout or TCP.
//!
//! # Worker-count precedence
//!
//! The service sizes its executor exactly like `qic-sweep` sizes a
//! per-call pool: an explicit [`ServeConfig::workers`] wins; `0` (the
//! default) defers to the `QIC_WORKERS` environment variable (parsed by
//! [`qic_sweep::parse_workers`]); when that is unset or unparsable, the
//! machine's available parallelism decides. See [`qic_sweep::Executor::new`].
//!
//! # Example
//!
//! ```
//! use qic_core::scenario::{ScenarioRegistry, ScenarioScale};
//! use qic_serve::{JobState, Serve, ServeConfig};
//!
//! let serve = Serve::start(ServeConfig::default());
//! let handle = serve.handle();
//! let spec = ScenarioRegistry::builtin()
//!     .spec("design_space", ScenarioScale::SmallTest)
//!     .expect("registered");
//! let first = handle.submit(spec.clone()).expect("admitted");
//! let second = handle.submit(spec).expect("admitted");
//! let a = handle.wait(first).expect("known job");
//! let b = handle.wait(second).expect("known job");
//! // Identical submissions: one computed, one served from cache or
//! // coalesced — and the report bytes are identical either way.
//! match (&a, &b) {
//!     (JobState::Done { report: ra, .. }, JobState::Done { report: rb, .. }) => {
//!         assert_eq!(ra.report.to_json(), rb.report.to_json());
//!     }
//!     other => panic!("both jobs complete: {other:?}"),
//! }
//! serve.shutdown();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
pub mod front;
pub mod job;
pub mod service;

pub use cache::{CacheDir, CacheError};
pub use front::serve_lines;
pub use job::{CacheSource, JobId, JobState};
pub use service::{Serve, ServeConfig, ServeError, ServeHandle};
