//! The EPR distribution network — **Sections 3 and 5** of Isailovic et al.
//!
//! This crate is the event-driven communication simulator the paper built
//! (in Java) to study resource contention. It models:
//!
//! * an **interconnect fabric of teleporter (T') nodes** — the paper's 2D
//!   [`topology::Mesh`], plus a wrap-around [`topology::Torus`] and a
//!   [`topology::Hypercube`] behind the [`topology::Topology`] trait —
//!   with per-node teleporter pools split into per-dimension sets
//!   (Figure 6), time-multiplexed among the channels crossing them,
//! * **generator (G) nodes** on every fabric link, continuously producing
//!   link EPR pairs into bounded buffers ("virtual wires", Figure 5),
//! * **per-link, non-multiplexed storage** at each router (deadlock
//!   avoidance, Section 5.3; cyclic fabrics add bubble flow control),
//! * **queue purifiers** (Figure 14) at every endpoint site,
//! * pluggable **routing policies** ([`routing::Router`]): the paper's
//!   dimension-order routing and a contention-aware minimal-adaptive
//!   policy, both deterministic,
//! * a logical-communication lifecycle: open channel → stream pairs →
//!   endpoint purification → data teleport → gate. A teleport's two
//!   classical correction bits change no timing, so the simulator draws
//!   none and the same inputs always replay the same run.
//!
//! The machine-level layer (`qic-core`) drives the simulator through the
//! [`sim::Driver`] trait: it submits logical communications and reacts to
//! their completions, which is how the Home-Base and Mobile-Qubit layouts
//! of Figure 15 are expressed.
//!
//! # Example
//!
//! ```
//! use qic_net::prelude::*;
//!
//! // One communication corner-to-corner on a 4×4 mesh.
//! let config = NetConfig::small_test();
//! let mut driver = OneShotDriver::new(Coord::new(0, 0), Coord::new(3, 3));
//! let report = NetworkSim::new(config).run(&mut driver);
//! assert_eq!(report.comms_completed, 1);
//! assert!(report.makespan.as_us_f64() > 0.0);
//!
//! // The same traffic on a torus rides the wrap-around links instead.
//! let config = NetConfig::small_test().with_topology(TopologyKind::Torus);
//! let mut driver = OneShotDriver::new(Coord::new(0, 0), Coord::new(3, 3));
//! let wrapped = NetworkSim::new(config).run(&mut driver);
//! assert!(wrapped.makespan < report.makespan);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod config;
pub mod report;
pub mod routing;
pub mod sim;
pub mod topology;

/// Convenient glob-import surface: `use qic_net::prelude::*;`.
pub mod prelude {
    pub use crate::config::NetConfig;
    pub use crate::report::{FaultStats, NetReport};
    pub use crate::routing::{DimensionOrder, MinimalAdaptive, Router, RoutingPolicy};
    pub use crate::sim::{CommId, CommOutcome, Driver, NetworkSim, OneShotDriver, SimApi};
    pub use crate::topology::{
        Coord, Dir, Fabric, Hypercube, Mesh, Port, Topology, TopologyKind, Torus,
    };
}

pub use config::NetConfig;
pub use report::{FaultStats, NetReport};
pub use routing::{Router, RoutingPolicy};
pub use sim::{CommId, CommOutcome, Driver, NetworkSim, SimApi};
pub use topology::{Coord, Dir, Fabric, Hypercube, Mesh, Port, Topology, TopologyKind, Torus};
