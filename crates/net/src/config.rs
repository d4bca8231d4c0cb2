//! Simulator configuration — the resource-allocation knobs of Section 5.

use std::fmt;

use qic_physics::constants;
use qic_physics::error::ErrorRates;
use qic_physics::optime::OpTimes;

use crate::routing::RoutingPolicy;
use crate::topology::{Fabric, TopologyKind};

/// Errors raised by [`NetConfig::validate`].
///
/// Every variant names the offending knob, the value it held and what a
/// valid value looks like, so callers (e.g. the Scenario layer in
/// `qic-core`) can attach context without string matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A configuration field holds a value outside its valid range.
    Field {
        /// The `NetConfig` field (or field combination) at fault.
        field: &'static str,
        /// The offending value, rendered.
        got: String,
        /// What a valid value looks like.
        expected: String,
    },
    /// The addressing grid does not fit the configured fabric.
    Fabric {
        /// The fabric that rejected the grid.
        topology: TopologyKind,
        /// Grid width it was offered.
        width: u16,
        /// Grid height it was offered.
        height: u16,
        /// The fabric's explanation (see [`TopologyKind::build`]).
        reason: String,
    },
}

impl ConfigError {
    fn field(field: &'static str, got: impl fmt::Display, expected: impl Into<String>) -> Self {
        ConfigError::Field {
            field,
            got: got.to_string(),
            expected: expected.into(),
        }
    }

    /// The name of the offending configuration field.
    pub fn field_name(&self) -> &'static str {
        match self {
            ConfigError::Field { field, .. } => field,
            ConfigError::Fabric { .. } => "topology",
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Field {
                field,
                got,
                expected,
            } => {
                write!(
                    f,
                    "invalid network config: {field} = {got}, expected {expected}"
                )
            }
            ConfigError::Fabric {
                topology,
                width,
                height,
                reason,
            } => {
                write!(
                    f,
                    "invalid network config: {topology} does not fit a \
                     {width}\u{d7}{height} grid: {reason}"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Full configuration of the communication simulator.
///
/// The three headline knobs are the paper's `t`, `g` and `p`
/// (Section 5.3): teleporters per T' node, generators per G node and
/// queue purifiers per P node.
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// Grid width in T'/LQ sites (the historical field name predates the
    /// multi-topology refactor; it sizes every fabric's addressing grid).
    pub mesh_width: u16,
    /// Grid height in T'/LQ sites.
    pub mesh_height: u16,
    /// Which interconnect fabric joins the sites (the paper: a mesh).
    pub topology: TopologyKind,
    /// Which policy routes channels over the fabric (the paper:
    /// dimension-order).
    pub routing: RoutingPolicy,
    /// Teleporters per T' node (`t`), split between the X and Y sets.
    pub teleporters_per_node: u32,
    /// Generators per G node (`g`), one G node per mesh edge.
    pub generators_per_edge: u32,
    /// Queue purifiers per endpoint P node (`p`).
    pub purifiers_per_site: u32,
    /// Queue purifier depth (purification rounds per delivered pair);
    /// the paper uses 3.
    pub purify_depth: u32,
    /// Purified pairs needed per logical communication (qubits per
    /// logical qubit; the paper uses 49).
    pub outputs_per_comm: u32,
    /// Physical cells per mesh hop (teleporter spacing; ~600).
    pub hop_cells: u64,
    /// Extra ballistic cells for a turn between a router's X and Y
    /// teleporter sets (Figure 6's bold arrows).
    pub turn_cells: u64,
    /// Raw link pairs consumed per teleport (1.0 unless modelling
    /// virtual-wire purification overhead).
    pub link_cost_factor: f64,
    /// Operation time constants.
    pub times: OpTimes,
    /// Operation error rates.
    pub rates: ErrorRates,
    /// Workload seed, carried into reports for provenance. The classical
    /// correction bits it once seeded are pure coin flips with no timing
    /// effect, so the simulator no longer draws them: the seed does not
    /// change simulation behaviour.
    pub seed: u64,
    /// Safety valve: abort after this many events.
    pub max_events: u64,
}

impl NetConfig {
    /// The paper's simulation scale: 16×16 logical qubits, queue purifiers
    /// of depth 3, 49 physical qubits per logical qubit, 600-cell hops.
    pub fn paper_scale() -> Self {
        NetConfig {
            mesh_width: constants::SIM_GRID_EDGE as u16,
            mesh_height: constants::SIM_GRID_EDGE as u16,
            topology: TopologyKind::Mesh,
            routing: RoutingPolicy::DimensionOrder,
            teleporters_per_node: 16,
            generators_per_edge: 16,
            purifiers_per_site: 16,
            purify_depth: constants::SIM_PURIFY_ROUNDS,
            outputs_per_comm: constants::LEVEL2_STEANE_QUBITS,
            hop_cells: constants::DEFAULT_HOP_CELLS,
            turn_cells: 10,
            link_cost_factor: 1.0,
            times: OpTimes::ion_trap(),
            rates: ErrorRates::ion_trap(),
            seed: 2006,
            max_events: 2_000_000_000,
        }
    }

    /// A reduced scale for fast benchmarking: 8×8 grid, level-1 code
    /// (7 qubits per logical qubit), same purifier depth.
    pub fn reduced() -> Self {
        NetConfig {
            mesh_width: 8,
            mesh_height: 8,
            outputs_per_comm: constants::LEVEL1_STEANE_QUBITS,
            ..NetConfig::paper_scale()
        }
    }

    /// A tiny deterministic configuration for unit tests.
    pub fn small_test() -> Self {
        NetConfig {
            mesh_width: 4,
            mesh_height: 4,
            teleporters_per_node: 4,
            generators_per_edge: 4,
            purifiers_per_site: 2,
            purify_depth: 1,
            outputs_per_comm: 2,
            max_events: 10_000_000,
            ..NetConfig::paper_scale()
        }
    }

    /// Sets `t`, `g` and `p` together (the Figure 16 sweep axis).
    pub fn with_resources(mut self, t: u32, g: u32, p: u32) -> Self {
        self.teleporters_per_node = t;
        self.generators_per_edge = g;
        self.purifiers_per_site = p;
        self
    }

    /// Selects the interconnect fabric (the topology sweep axis).
    pub fn with_topology(mut self, kind: TopologyKind) -> Self {
        self.topology = kind;
        self
    }

    /// Selects the routing policy.
    pub fn with_routing(mut self, routing: RoutingPolicy) -> Self {
        self.routing = routing;
        self
    }

    /// Builds the configured fabric.
    ///
    /// # Panics
    ///
    /// Panics if the grid does not fit the fabric kind (checked by
    /// [`NetConfig::validate`]).
    pub fn fabric(&self) -> Fabric {
        self.topology
            .build(self.mesh_width, self.mesh_height)
            .expect("validated configs build")
    }

    /// Raw chained pairs needed per communication
    /// (`outputs × 2^depth`; 392 at paper scale).
    pub fn raw_pairs_per_comm(&self) -> u64 {
        u64::from(self.outputs_per_comm) << self.purify_depth.min(62)
    }

    /// Whether the simulator applies bubble flow control (two free
    /// downstream storage cells required at ring-entry hops).
    ///
    /// Dimension-order routing on the mesh or hypercube is cycle-free in
    /// the channel-dependency graph, so the paper's per-link storage
    /// alone prevents deadlock. Torus wrap links and adaptive routing
    /// both close cycles; the bubble rule keeps a free cell in every
    /// ring so those configurations drain too.
    pub fn needs_bubble(&self) -> bool {
        self.routing == RoutingPolicy::MinimalAdaptive || self.topology == TopologyKind::Torus
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on a zero-sized mesh, zero resource counts,
    /// zero purifier depth/outputs, or a non-positive link cost factor.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.mesh_width == 0 || self.mesh_height == 0 {
            return Err(ConfigError::field(
                "mesh_width\u{d7}mesh_height",
                format_args!("{}\u{d7}{}", self.mesh_width, self.mesh_height),
                "positive grid dimensions",
            ));
        }
        if u32::from(self.mesh_width) * u32::from(self.mesh_height) < 2 {
            return Err(ConfigError::field(
                "mesh_width\u{d7}mesh_height",
                format_args!("{}\u{d7}{}", self.mesh_width, self.mesh_height),
                "a grid of at least two sites",
            ));
        }
        let fabric = match self.topology.build(self.mesh_width, self.mesh_height) {
            Ok(f) => f,
            Err(reason) => {
                return Err(ConfigError::Fabric {
                    topology: self.topology,
                    width: self.mesh_width,
                    height: self.mesh_height,
                    reason,
                })
            }
        };
        if self.teleporters_per_node == 0 {
            return Err(ConfigError::field(
                "teleporters_per_node",
                0,
                "at least one teleporter per node",
            ));
        }
        let classes = crate::topology::Topology::port_classes(&fabric);
        if (self.teleporters_per_node as usize) < classes {
            return Err(ConfigError::field(
                "teleporters_per_node",
                self.teleporters_per_node,
                format!(
                    "coverage of the fabric's {classes} port classes \
                     (one teleporter set per dimension)"
                ),
            ));
        }
        if self.needs_bubble() && self.teleporters_per_node < 2 {
            return Err(ConfigError::field(
                "teleporters_per_node",
                self.teleporters_per_node,
                "at least two teleporters (storage cells) per node — torus \
                 fabrics and adaptive routing use bubble flow control",
            ));
        }
        if self.generators_per_edge == 0 {
            return Err(ConfigError::field(
                "generators_per_edge",
                0,
                "at least one generator per edge",
            ));
        }
        if self.purifiers_per_site == 0 {
            return Err(ConfigError::field(
                "purifiers_per_site",
                0,
                "at least one purifier per site",
            ));
        }
        if self.purify_depth == 0 || self.purify_depth > 20 {
            return Err(ConfigError::field(
                "purify_depth",
                self.purify_depth,
                "a purifier depth in 1..=20",
            ));
        }
        if self.outputs_per_comm == 0 {
            return Err(ConfigError::field(
                "outputs_per_comm",
                0,
                "at least one purified pair per communication",
            ));
        }
        if !(self.link_cost_factor.is_finite() && self.link_cost_factor >= 1.0) {
            return Err(ConfigError::field(
                "link_cost_factor",
                self.link_cost_factor,
                "a finite factor \u{2265} 1",
            ));
        }
        if self.hop_cells == 0 {
            return Err(ConfigError::field(
                "hop_cells",
                0,
                "at least one cell per hop",
            ));
        }
        Ok(())
    }
}

impl Default for NetConfig {
    /// Same as [`NetConfig::paper_scale`].
    fn default() -> Self {
        NetConfig::paper_scale()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_constants() {
        let c = NetConfig::paper_scale();
        assert_eq!(c.mesh_width, 16);
        assert_eq!(c.purify_depth, 3);
        assert_eq!(c.outputs_per_comm, 49);
        assert_eq!(c.raw_pairs_per_comm(), 392);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn presets_validate() {
        assert!(NetConfig::reduced().validate().is_ok());
        assert!(NetConfig::small_test().validate().is_ok());
        assert_eq!(NetConfig::default(), NetConfig::paper_scale());
    }

    #[test]
    fn with_resources() {
        let c = NetConfig::small_test().with_resources(8, 6, 2);
        assert_eq!(c.teleporters_per_node, 8);
        assert_eq!(c.generators_per_edge, 6);
        assert_eq!(c.purifiers_per_site, 2);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let base = NetConfig::small_test();
        let mut c = base.clone();
        c.mesh_width = 0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.teleporters_per_node = 0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.purify_depth = 0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.link_cost_factor = 0.5;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.outputs_per_comm = 0;
        assert!(c.validate().is_err());
        let mut c = base;
        c.hop_cells = 0;
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("at least one cell"));
    }

    #[test]
    fn errors_are_structured() {
        let mut c = NetConfig::small_test();
        c.purify_depth = 40;
        match c.validate().unwrap_err() {
            ConfigError::Field {
                field,
                got,
                expected,
            } => {
                assert_eq!(field, "purify_depth");
                assert_eq!(got, "40");
                assert!(expected.contains("1..=20"));
            }
            other => panic!("expected a field error, got {other}"),
        }
        let mut c = NetConfig::small_test().with_topology(TopologyKind::Hypercube);
        c.mesh_width = 5;
        let err = c.validate().unwrap_err();
        assert_eq!(err.field_name(), "topology");
        match err {
            ConfigError::Fabric {
                topology,
                width,
                height,
                reason,
            } => {
                assert_eq!(topology, TopologyKind::Hypercube);
                assert_eq!((width, height), (5, 4));
                assert!(reason.contains("power-of-two"));
            }
            other => panic!("expected a fabric error, got {other}"),
        }
        let mut c = NetConfig::small_test();
        c.link_cost_factor = 0.25;
        assert_eq!(c.validate().unwrap_err().field_name(), "link_cost_factor");
    }

    #[test]
    fn topology_and_routing_default_to_the_paper() {
        let c = NetConfig::paper_scale();
        assert_eq!(c.topology, TopologyKind::Mesh);
        assert_eq!(c.routing, RoutingPolicy::DimensionOrder);
        assert!(!c.needs_bubble());
    }

    #[test]
    fn topology_validation() {
        // 4×4 fits every fabric.
        for kind in TopologyKind::ALL {
            let c = NetConfig::small_test().with_topology(kind);
            assert!(c.validate().is_ok(), "{kind}");
            let _ = c.fabric();
        }
        // 5×4 is not a power of two: no hypercube.
        let mut c = NetConfig::small_test().with_topology(TopologyKind::Hypercube);
        c.mesh_width = 5;
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("power-of-two"), "{err}");
    }

    #[test]
    fn teleporters_must_cover_port_classes() {
        // A dim-4 hypercube has 4 teleporter sets: t=2 would silently
        // over-provision (each set keeps ≥ 1), so validation rejects it.
        let mut c = NetConfig::small_test().with_topology(TopologyKind::Hypercube);
        c.teleporters_per_node = 2;
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("port classes"), "{err}");
        c.teleporters_per_node = 4;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn bubble_configs_need_two_teleporters() {
        let mut c = NetConfig::small_test().with_topology(TopologyKind::Torus);
        assert!(c.needs_bubble());
        assert!(c.validate().is_ok());
        c.teleporters_per_node = 1;
        assert!(c.validate().is_err());

        let mut c = NetConfig::small_test().with_routing(RoutingPolicy::MinimalAdaptive);
        assert!(c.needs_bubble());
        c.teleporters_per_node = 1;
        assert!(c.validate().is_err());
        c.teleporters_per_node = 2;
        assert!(c.validate().is_ok());
    }
}
