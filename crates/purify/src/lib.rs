//! Entanglement purification for the `qic` quantum-interconnect simulator.
//!
//! Purification combines two noisy EPR pairs with local operations and
//! classical communication to produce (probabilistically) one pair of
//! higher fidelity (Section 4.5 of Isailovic et al., ISCA 2006). This crate
//! implements:
//!
//! * [`protocol`] — the DEJMPS and BBPSSW recurrence protocols and Dür-style
//!   entanglement pumping, in ideal and noisy variants,
//! * [`frame`] — an independent Pauli-frame simulation of the bilateral-CNOT
//!   purification circuit, used to *derive* (and in tests, validate) the
//!   closed-form recurrences,
//! * [`analysis`] — round trajectories, convergence and resource counts
//!   behind Figure 8.
//!
//! The queue purifiers of Figure 14 are not modelled here: the
//! event-driven simulator runs their cascade itself, at every endpoint
//! site (`qic_net::sim`, endpoint purification).
//!
//! # Example
//!
//! ```
//! use qic_physics::bell::BellDiagonal;
//! use qic_purify::prelude::*;
//!
//! // Three noisy DEJMPS rounds clean a 0.99-fidelity pair by ~3 orders of
//! // magnitude.
//! let noise = RoundNoise::ion_trap();
//! let start = BellDiagonal::werner_f64(0.99)?;
//! let traj = trajectory(Protocol::Dejmps, start, 3, &noise);
//! assert!(traj.last().unwrap().state.error() < 1e-4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod frame;
pub mod protocol;

/// Convenient glob-import surface: `use qic_purify::prelude::*;`.
pub mod prelude {
    pub use crate::analysis::{
        max_achievable, pairs_for_rounds, rounds_to_reach, trajectory, RoundPoint,
    };
    pub use crate::protocol::{Protocol, PurifyOutcome, RoundNoise};
}

pub use analysis::{max_achievable, rounds_to_reach, trajectory};
pub use protocol::{Protocol, PurifyOutcome, RoundNoise};
