//! Ion-trap physics substrate for the `qic` quantum-interconnect simulator.
//!
//! This crate implements the physical models of *Isailovic, Patel, Whitney,
//! Kubiatowicz, "Interconnection Networks for Scalable Quantum Computers",
//! ISCA 2006* (Section 4 and Tables 1–2):
//!
//! * [`optime::OpTimes`] — the operation time constants of Table 1,
//! * [`error::ErrorRates`] — the operation error probabilities of Table 2,
//! * [`fidelity::Fidelity`] — the fidelity measure of Section 4.1,
//! * [`bell::BellDiagonal`] — Bell-diagonal EPR-pair states (the state space
//!   on which purification and teleportation act),
//! * [`density`] — an exact two-qubit density-matrix simulator used to
//!   validate the Bell-diagonal fast path,
//! * [`transport`] — the ballistic-movement model (Equations 1–2),
//! * [`waveform`] — the electrode pulse schedule of one shuttle
//!   (Figure 2), with well-continuity checks,
//! * [`teleport`] — the teleportation and EPR-generation models
//!   (Equations 3–5).
//!
//! # Example
//!
//! Compute the fidelity of a qubit after one teleportation that uses an EPR
//! pair degraded by 300 cells of ballistic movement:
//!
//! ```
//! use qic_physics::prelude::*;
//!
//! let times = OpTimes::ion_trap();
//! let rates = ErrorRates::ion_trap();
//! let epr = transport::ballistic_fidelity(Fidelity::ONE, 300, &rates);
//! let data = teleport::teleport_fidelity(Fidelity::ONE, epr, &rates);
//! assert!(data.infidelity() > 1e-4 && data.infidelity() < 1e-3);
//! assert_eq!(teleport::teleport_time(0, &times), times.teleport_local());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bell;
pub mod complex;
pub mod constants;
pub mod density;
pub mod error;
pub mod fidelity;
pub mod gates;
pub mod matrix;
pub mod optime;
pub mod teleport;
pub mod time;
pub mod transport;
pub mod waveform;

/// Convenient glob-import surface: `use qic_physics::prelude::*;`.
pub mod prelude {
    pub use crate::bell::{BellDiagonal, BellState};
    pub use crate::constants;
    pub use crate::error::ErrorRates;
    pub use crate::fidelity::Fidelity;
    pub use crate::optime::OpTimes;
    pub use crate::teleport;
    pub use crate::time::Duration;
    pub use crate::transport;
}

pub use bell::{BellDiagonal, BellState};
pub use error::ErrorRates;
pub use fidelity::Fidelity;
pub use optime::OpTimes;
pub use time::Duration;
