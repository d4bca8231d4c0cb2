//! Analytical quantum-channel models — **Section 4.6–4.7** of Isailovic
//! et al. (ISCA 2006).
//!
//! A *quantum channel* between two functional units is set up by
//! distributing EPR pairs to its endpoints over a chain of teleporter
//! nodes, then purifying at the endpoints until the pairs meet the
//! fault-tolerance threshold (`1 − 7.5e-5`). This crate answers, in closed
//! form, the questions the paper's Figures 9–12 pose:
//!
//! * [`link`] — what state do virtual-wire (link) pairs arrive in, and
//!   what do purified links cost?
//! * [`chain`] — how does error accumulate over chained teleportation
//!   (Figure 9)?
//! * [`plan`] — given a placement strategy, how many EPR pairs must be
//!   teleported and consumed per data communication (Figures 10–11), and
//!   when does the whole scheme break down (Figure 12)?
//! * [`crossover`] — where does teleportation beat ballistic transport
//!   (the ~600-cell rule)?
//! * [`degraded`] — how much cross-bisection throughput survives when
//!   links die (the closed-form cross-check for `qic-fault` runs)?
//! * [`cost`] — what does a (possibly modular) machine cost in dollars
//!   and area, and what latency/throughput does its shape predict (the
//!   cost-fidelity Pareto axis for `qic-modular` sweeps)?
//! * [`figures`] — the Figure 8–9 series, and the pair-budget evaluation
//!   and series unpacking behind the Figure 10–12 scenario presets.
//!
//! # Example
//!
//! ```
//! use qic_analytic::prelude::*;
//!
//! let model = ChannelModel::ion_trap();
//! let plan = model.plan(30)?;
//! // Endpoint purification needs 3 rounds at this distance (§5.3)...
//! assert_eq!(plan.endpoint_rounds, 3);
//! // ...so a logical communication needs ~2³·49 ≈ 392 teleported pairs.
//! assert!((plan.pairs_per_logical_comm(49) - 392.0).abs() / 392.0 < 0.2);
//! # Ok::<(), qic_analytic::plan::ChannelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod cost;
pub mod crossover;
pub mod degraded;
pub mod figures;
pub mod link;
pub mod plan;
pub mod strategy;

/// Convenient glob-import surface: `use qic_analytic::prelude::*;`.
pub mod prelude {
    pub use crate::chain::chained_error_series;
    pub use crate::cost::{pareto_front, ComponentCounts, CostEstimate, CostModel, NetworkShape};
    pub use crate::crossover::{ballistic_vs_teleport, CrossoverPoint};
    pub use crate::degraded::{bisection_comm_throughput, degradation_factor};
    pub use crate::figures;
    pub use crate::link::{link_cost, link_state, LinkSpec};
    pub use crate::plan::{ChannelError, ChannelModel, ChannelPlan};
    pub use crate::strategy::PurifyPlacement;
}

pub use plan::{ChannelError, ChannelModel, ChannelPlan};
pub use strategy::PurifyPlacement;
