//! # qic — quantum interconnect simulator
//!
//! Facade crate for the `qic` workspace, a Rust reproduction of
//! *Isailovic, Patel, Whitney, Kubiatowicz, "Interconnection Networks for
//! Scalable Quantum Computers", ISCA 2006* (arXiv:quant-ph/0604048).
//!
//! The workspace models how a large ion-trap quantum computer communicates:
//! logical qubits move by teleportation, teleportation consumes high-fidelity
//! EPR pairs, and those pairs are distributed across a mesh of teleporter
//! nodes, purified, and delivered to communication endpoints.
//!
//! Each subsystem lives in its own crate, re-exported here under a short
//! module name:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`physics`] | `qic-physics` | fidelity algebra, Bell-diagonal states, transport/teleport models, Fig. 2 shuttle waveforms (Tables 1–2, Eqs 1–5) |
//! | [`purify`] | `qic-purify` | DEJMPS / BBPSSW / pumping protocols, Pauli-frame check, round analysis (Fig. 8) |
//! | [`analytic`] | `qic-analytic` | chained-channel error & resource models (Figs 9–12) |
//! | [`des`] | `qic-des` | deterministic discrete-event engine |
//! | [`net`] | `qic-net` | interconnect fabrics (mesh/torus/hypercube), routing policies, virtual wires, the communication simulator (Figs 4–6, 13, 16) |
//! | [`fault`] | `qic-fault` | deterministic fault injection: declarative `FaultPlan`s compiled into `DegradedFabric` wrappers (dead links/nodes/modules, degraded pools, hot spots) |
//! | [`modular`] | `qic-modular` | hierarchical multi-module fabrics: K on-module fabrics joined by an optical-switch or fat-tree tier with per-tier link parameters |
//! | [`workload`] | `qic-workload` | QFT / modular-arithmetic instruction streams |
//! | [`core`] | `qic-core` | layouts, logical scheduler, the Scenario API (spec/registry/[`run`]) |
//! | [`sweep`] | `qic-sweep` | parallel campaign engine: declarative parameter sweeps, deterministic seeding, CSV/JSON reports |
//! | [`probe`] | `qic-probe` | zero-cost structured tracing: per-resource time series, JSONL event logs, Chrome-trace (Perfetto) export |
//! | [`serve`] | `qic-serve` | scenario service: shared executor, content-addressed result cache, streaming JSONL job API |
//!
//! # Quickstart
//!
//! Every experiment is a declarative [`ScenarioSpec`] — *machine ×
//! fabric × routing × workload × purification strategy, swept* — run
//! through [`run`] ([`run_with`] adds shard, budget, shared pool,
//! progress and cancel options). Named presets for the paper's figures
//! (and beyond) live in the scenario registry:
//!
//! ```
//! use qic::prelude::*;
//!
//! // A registered preset: the topology faceoff at test scale …
//! let spec = ScenarioRegistry::builtin()
//!     .spec("topology_faceoff", ScenarioScale::SmallTest)
//!     .expect("registered");
//! // … is pure data: it round-trips through JSON.
//! let spec = ScenarioSpec::from_json(&spec.to_json())?;
//! let report = qic::run(&spec)?;
//! assert_eq!(report.report.points.len(), 6); // 3 fabrics × 2 policies
//! println!("{}", report.to_csv());
//! # Ok::<(), qic::core::scenario::ScenarioError>(())
//! ```
//!
//! The layers underneath stay available for direct use:
//!
//! ```
//! use qic::prelude::*;
//!
//! // Set up a quantum channel across 20 mesh hops and check that, after
//! // endpoint purification, it meets the fault-tolerance threshold.
//! let model = ChannelModel::ion_trap();
//! let plan = model.plan(20).expect("channel is realisable");
//! assert!(plan.final_state.fidelity() >= constants::threshold_fidelity());
//! ```

pub use qic_analytic as analytic;
pub use qic_core as core;
pub use qic_des as des;
pub use qic_fault as fault;
pub use qic_modular as modular;
pub use qic_net as net;
pub use qic_physics as physics;
pub use qic_probe as probe;
pub use qic_purify as purify;
pub use qic_serve as serve;
pub use qic_sweep as sweep;
pub use qic_workload as workload;

pub use qic_core::scenario::{
    CheckpointSpec, ObserveSpec, ScenarioProgress, ScenarioReport, ScenarioSpec, SpecDigest,
};
pub use qic_sweep::{CancelToken, Executor, RunOptions, Shard};

/// Runs a scenario: the entry point for every experiment.
///
/// Validates the spec (structured errors with scenario context), builds
/// the campaign its axes describe, evaluates every point on the worker
/// pool, and returns the deterministic report. See
/// [`qic_core::scenario`] for the spec format, the JSON round-trip and
/// the preset registry.
///
/// # Errors
///
/// [`qic_core::scenario::ScenarioError`] if the spec fails validation
/// or its checkpoint manifest is unusable.
pub fn run(spec: &ScenarioSpec) -> Result<ScenarioReport, qic_core::scenario::ScenarioError> {
    qic_core::scenario::run(spec)
}

/// Runs a scenario under explicit [`RunOptions`] — a shared
/// [`Executor`] (the [`serve`] layer's path), one [`Shard`] of the
/// sweep, a point budget for checkpointed specs, a progress sink, a
/// [`CancelToken`]. Every combination reports the bytes [`run`] would.
/// See [`qic_core::scenario::run_with`].
///
/// # Errors
///
/// [`qic_core::scenario::ScenarioError`] if the spec fails validation,
/// the options conflict with it (a shard of a checkpointed spec, a
/// budget without a checkpoint), or setup I/O or the manifest fails.
pub fn run_with(
    spec: &ScenarioSpec,
    opts: &RunOptions<'_>,
) -> Result<ScenarioProgress, qic_core::scenario::ScenarioError> {
    qic_core::scenario::run_with(spec, opts)
}

/// One-stop imports for examples and downstream users.
///
/// The purification placement strategy is [`prelude::PurifyPlacement`]
/// (`qic-analytic`); the qubit-to-site placement keeps the plain
/// `Placement` name (`qic-core`).
pub mod prelude {
    pub use qic_analytic::cost::{
        pareto_front, ComponentCounts, CostEstimate, CostModel, NetworkShape,
    };
    pub use qic_analytic::figures;
    pub use qic_analytic::figures::PairMetric;
    pub use qic_analytic::link::{link_cost, link_state, raw_link_state, LinkSpec};
    pub use qic_analytic::plan::{ChannelError, ChannelModel, ChannelPlan};
    pub use qic_analytic::strategy::PurifyPlacement;
    pub use qic_core::prelude::*;
    pub use qic_fault::prelude::*;
    pub use qic_modular::{Interconnect, LinkParams, ModularFabric, ModularSpec, RouteProfile};
    pub use qic_net::routing::{Router, RoutingPolicy};
    pub use qic_net::topology::{
        Coord, Fabric, Hypercube, Mesh, Port, Topology, TopologyKind, Torus,
    };
    pub use qic_net::{NetConfig, NetReport};
    pub use qic_physics::prelude::*;
    pub use qic_probe::{NoProbe, Probe, RecordingProbe, TimelineReport};
    pub use qic_purify::prelude::*;
    pub use qic_sweep::prelude::*;
    pub use qic_workload::prelude::*;
}
