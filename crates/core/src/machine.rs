//! The machine builder: one object tying the whole stack together.

use std::fmt;

use qic_net::config::NetConfig;
use qic_net::report::NetReport;
use qic_net::routing::RoutingPolicy;
use qic_net::sim::NetworkSim;
use qic_net::topology::TopologyKind;
use qic_physics::time::Duration;
use qic_workload::Program;

use crate::layout::Layout;
use crate::scheduler::ProgramDriver;

/// Errors raised when building or running a [`Machine`].
#[derive(Debug, Clone, PartialEq)]
pub enum MachineError {
    /// The network configuration failed validation.
    InvalidConfig(String),
    /// The program needs more logical qubits than the grid has sites.
    Capacity {
        /// Qubits requested.
        qubits: u32,
        /// Sites available.
        sites: u32,
    },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::InvalidConfig(msg) => write!(f, "invalid machine config: {msg}"),
            MachineError::Capacity { qubits, sites } => {
                write!(f, "program needs {qubits} qubits, grid has {sites} sites")
            }
        }
    }
}

impl std::error::Error for MachineError {}

/// Results of one program execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Total simulated execution time.
    pub makespan: Duration,
    /// Logical instructions completed.
    pub instructions: u64,
    /// The layout used.
    pub layout: Layout,
    /// Full network-level statistics.
    pub net: NetReport,
}

impl RunReport {
    /// Makespan ratio against a baseline run (Figure 16's y-axis).
    pub fn normalized_to(&self, baseline: &RunReport) -> f64 {
        self.makespan / baseline.makespan
    }
}

/// A fully configured quantum machine: grid, resources and layout.
///
/// Construct via [`Machine::builder`]; run programs with
/// [`Machine::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    net: NetConfig,
    layout: Layout,
    gate_time: Duration,
}

impl Machine {
    /// Starts a builder with paper-scale defaults.
    pub fn builder() -> MachineBuilder {
        MachineBuilder::default()
    }

    /// The network configuration.
    pub fn net_config(&self) -> &NetConfig {
        &self.net
    }

    /// The layout.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Runs a program to completion.
    ///
    /// # Panics
    ///
    /// Panics if the program needs more qubits than the grid has sites
    /// (use [`Machine::try_run`] for a fallible variant) or if the
    /// simulation exceeds its event budget.
    pub fn run(&self, program: &Program) -> RunReport {
        self.try_run(program).expect("program must fit the machine")
    }

    /// Runs a program, validating capacity first.
    ///
    /// # Errors
    ///
    /// [`MachineError::Capacity`] if the program does not fit the grid.
    pub fn try_run(&self, program: &Program) -> Result<RunReport, MachineError> {
        let mut driver =
            ProgramDriver::with_gate_time(&self.net, self.layout, program, self.gate_time)
                .map_err(|e| MachineError::Capacity {
                    qubits: e.qubits,
                    sites: e.sites,
                })?;
        let net = NetworkSim::new(self.net.clone()).run(&mut driver);
        driver.assert_finished();
        Ok(RunReport {
            makespan: net.makespan,
            instructions: driver.completed(),
            layout: self.layout,
            net,
        })
    }
}

/// Builder for [`Machine`] (guideline C-BUILDER).
#[derive(Debug, Clone)]
pub struct MachineBuilder {
    net: NetConfig,
    layout: Layout,
    gate_time: Duration,
}

impl Default for MachineBuilder {
    fn default() -> Self {
        MachineBuilder {
            net: NetConfig::paper_scale(),
            layout: Layout::HomeBase,
            gate_time: Duration::from_micros(20),
        }
    }
}

impl MachineBuilder {
    /// Sets the grid dimensions (LQ/T' sites).
    pub fn grid(&mut self, width: u16, height: u16) -> &mut Self {
        self.net.mesh_width = width;
        self.net.mesh_height = height;
        self
    }

    /// Selects the interconnect fabric joining the sites (default: the
    /// paper's mesh).
    pub fn topology(&mut self, kind: TopologyKind) -> &mut Self {
        self.net.topology = kind;
        self
    }

    /// Selects the channel routing policy (default: dimension-order).
    pub fn routing(&mut self, routing: RoutingPolicy) -> &mut Self {
        self.net.routing = routing;
        self
    }

    /// Sets the three resource knobs `t`, `g`, `p` of Section 5.3.
    pub fn resources(&mut self, t: u32, g: u32, p: u32) -> &mut Self {
        self.net.teleporters_per_node = t;
        self.net.generators_per_edge = g;
        self.net.purifiers_per_site = p;
        self
    }

    /// Sets purified pairs needed per logical communication (qubits per
    /// logical qubit).
    pub fn outputs_per_comm(&mut self, outputs: u32) -> &mut Self {
        self.net.outputs_per_comm = outputs;
        self
    }

    /// Sets the queue purifier depth.
    pub fn purify_depth(&mut self, depth: u32) -> &mut Self {
        self.net.purify_depth = depth;
        self
    }

    /// Sets the layout.
    pub fn layout(&mut self, layout: Layout) -> &mut Self {
        self.layout = layout;
        self
    }

    /// Sets the logical gate latency charged between channel completion
    /// and the follow-up movement.
    pub fn gate_time(&mut self, d: Duration) -> &mut Self {
        self.gate_time = d;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.net.seed = seed;
        self
    }

    /// Replaces the whole network configuration (advanced).
    pub fn net_config(&mut self, net: NetConfig) -> &mut Self {
        self.net = net;
        self
    }

    /// Builds the machine.
    ///
    /// # Errors
    ///
    /// [`MachineError::InvalidConfig`] if the network configuration fails
    /// validation.
    pub fn build(&self) -> Result<Machine, MachineError> {
        self.net
            .validate()
            .map_err(|e| MachineError::InvalidConfig(e.to_string()))?;
        Ok(Machine {
            net: self.net.clone(),
            layout: self.layout,
            gate_time: self.gate_time,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_machine(layout: Layout) -> Machine {
        let mut b = Machine::builder();
        b.net_config(NetConfig::small_test()).layout(layout);
        b.build().unwrap()
    }

    #[test]
    fn builder_round_trip() {
        let mut b = Machine::builder();
        b.grid(4, 4)
            .resources(4, 4, 2)
            .outputs_per_comm(2)
            .purify_depth(1)
            .gate_time(Duration::from_micros(20))
            .seed(7)
            .topology(TopologyKind::Torus)
            .routing(RoutingPolicy::MinimalAdaptive)
            .layout(Layout::MobileQubit);
        let m = b.build().unwrap();
        assert_eq!(m.layout(), Layout::MobileQubit);
        assert_eq!(m.net_config().mesh_width, 4);
        assert_eq!(m.net_config().purifiers_per_site, 2);
        assert_eq!(m.net_config().topology, TopologyKind::Torus);
        assert_eq!(m.net_config().routing, RoutingPolicy::MinimalAdaptive);
    }

    #[test]
    fn programs_run_on_every_fabric() {
        let program = Program::qft(8);
        let mut makespans = Vec::new();
        for kind in TopologyKind::ALL {
            let mut b = Machine::builder();
            b.net_config(NetConfig::small_test()).topology(kind);
            let report = b.build().unwrap().run(&program);
            assert_eq!(report.instructions as usize, program.len(), "{kind}");
            makespans.push(report.makespan);
        }
        // Wrap-around links shorten Home-Base return trips: the torus
        // cannot be slower than the mesh on identical traffic.
        assert!(makespans[1] <= makespans[0], "{makespans:?}");
    }

    #[test]
    fn invalid_config_is_reported() {
        let mut b = Machine::builder();
        b.resources(0, 4, 4);
        let err = b.build().unwrap_err();
        assert!(matches!(err, MachineError::InvalidConfig(_)));
        assert!(err.to_string().contains("teleporter"));
    }

    #[test]
    fn capacity_is_checked() {
        let m = small_machine(Layout::HomeBase);
        let program = Program::qft(64); // 4×4 grid holds 16
        let err = m.try_run(&program).unwrap_err();
        assert_eq!(
            err,
            MachineError::Capacity {
                qubits: 64,
                sites: 16
            }
        );
    }

    #[test]
    fn qft_runs_end_to_end() {
        let m = small_machine(Layout::HomeBase);
        let program = Program::qft(8);
        let report = m.run(&program);
        assert_eq!(report.instructions as usize, program.len());
        assert_eq!(report.layout, Layout::HomeBase);
        assert!(report.makespan.as_ms_f64() > 0.0);
        assert_eq!(report.net.comms_completed, 2 * program.len() as u64);
    }

    #[test]
    fn normalization_against_rich_machine() {
        let program = Program::qft(8);
        let poor = small_machine(Layout::HomeBase).run(&program);
        let mut b = Machine::builder();
        b.net_config(NetConfig::small_test()).resources(64, 64, 64);
        let rich_machine = b.build().unwrap();
        let rich = rich_machine.run(&program);
        let ratio = poor.normalized_to(&rich);
        assert!(ratio >= 1.0, "scarce resources cannot be faster: {ratio}");
    }
}
