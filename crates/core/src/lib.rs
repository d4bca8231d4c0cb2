//! Machine-level layer of the `qic` quantum-interconnect simulator.
//!
//! This crate binds the workload generators (`qic-workload`) to the
//! event-driven network (`qic-net`) the way Section 5 of Isailovic et al.
//! does: a classical scheduler issues two-logical-qubit instructions in
//! dependency order, each instruction becomes one or more channel
//! set-ups on the mesh, and the chosen **layout** decides who moves:
//!
//! * [`layout::Layout::HomeBase`] — every logical qubit owns a home site;
//!   the second operand teleports in, interacts, and teleports home.
//! * [`layout::Layout::MobileQubit`] — operands walk: the first operand
//!   teleports to the second's site and *stays* (Figure 15's optimisation
//!   for QFT's sequential structure), returning home only when its
//!   instruction stream ends.
//!
//! [`scenario`] is the declarative layer on top: one serializable
//! [`scenario::ScenarioSpec`] describes any experiment (machine ×
//! fabric × routing × workload × purification strategy, swept), runs
//! through [`scenario::run`] (re-exported as `qic::run` by the facade),
//! and the named figure presets live in the
//! [`scenario::ScenarioRegistry`]. [`experiment`] keeps the figure
//! datatypes (`Fig16Result` & friends) that unpack registry reports.
//!
//! # Example
//!
//! ```
//! use qic_core::prelude::*;
//!
//! let machine = MachineSpec::preset(NetPreset::Paper)
//!     .with_grid(4, 4)
//!     .with_resources(4, 4, 2)
//!     .with_outputs_per_comm(2)
//!     .with_purify_depth(1)
//!     .with_layout(Layout::HomeBase);
//! let spec = ScenarioSpec::machine("qft4", machine, WorkloadSpec::Qft { qubits: 4 });
//! let report = qic_core::scenario::run(&spec)?;
//! // QFT-4 is 6 interactions; Home Base moves each operand out and back.
//! assert_eq!(report.report.points[0].mean("comms_completed"), Some(12.0));
//! # Ok::<(), qic_core::scenario::ScenarioError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod layout;
pub mod scenario;
pub mod scheduler;

/// Convenient glob-import surface: `use qic_core::prelude::*;`.
pub mod prelude {
    pub use crate::experiment::{figure16_from_campaign, Fig16Point, Fig16Result, Fig16Scale};
    pub use crate::layout::{Layout, Placement};
    pub use crate::scenario::{
        fig16_spec, CheckpointSpec, ExperimentSpec, MachineSpec, NetPreset, ObserveSpec,
        ScenarioAxis, ScenarioError, ScenarioProgress, ScenarioRegistry, ScenarioReport,
        ScenarioScale, ScenarioSpec, WorkloadSpec,
    };
    pub use crate::scheduler::ProgramDriver;
    pub use qic_fault::{DegradedFabric, FaultPlan, Hotspot};
}

pub use layout::{Layout, Placement};
pub use scenario::{ScenarioReport, ScenarioSpec};
