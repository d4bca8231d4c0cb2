//! Deterministic discrete-event simulation engine.
//!
//! This is the Rust counterpart of the Java event-driven simulator the
//! paper built for Section 5. It is deliberately generic: the engine knows
//! nothing about qubits — `qic-net` supplies the event type and world
//! state.
//!
//! Design properties:
//!
//! * **Determinism** — ties in time are broken by insertion sequence
//!   (FIFO), and the engine draws no random numbers, so a simulation is
//!   a pure function of its inputs. The SplitMix64 primitives in
//!   [`rng`] derive the workspace's seeds and digests.
//! * **Exact time** — simulated time is integer nanoseconds
//!   ([`time::SimTime`], offset by the workspace-wide
//!   [`qic_physics::time::Duration`]); no floating-point drift can reorder
//!   events.
//! * **Measurements built in** — [`stats`] provides the running
//!   tallies (with replicate confidence intervals) and exact latency
//!   percentiles that the network simulator's and the campaign engine's
//!   reports carry.
//! * **One JSON reader** — [`json`] is the strict, depth-limited
//!   reader and deterministic writer every workspace document uses.
//!
//! # Example
//!
//! ```
//! use qic_des::prelude::*;
//! use qic_physics::time::Duration;
//!
//! #[derive(Debug)]
//! enum Ev { Ping(u32) }
//!
//! let mut q = EventQueue::new();
//! q.schedule_after(Duration::from_micros(10), Ev::Ping(1));
//! q.schedule_after(Duration::from_micros(5), Ev::Ping(2));
//! let mut order = Vec::new();
//! while let Some((t, Ev::Ping(n))) = q.pop() {
//!     order.push((t.as_duration().as_us_f64(), n));
//! }
//! assert_eq!(order, vec![(5.0, 2), (10.0, 1)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

/// Convenient glob-import surface: `use qic_des::prelude::*;`.
pub mod prelude {
    pub use crate::metrics::Metrics;
    pub use crate::queue::EventQueue;
    pub use crate::stats::{Percentiles, Tally};
    pub use crate::time::SimTime;
}

pub use queue::EventQueue;
pub use time::SimTime;
