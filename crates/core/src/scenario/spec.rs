//! `ScenarioSpec`: the declarative, serializable experiment description.

use std::fmt;

use qic_analytic::figures::PairMetric;
use qic_analytic::strategy::PurifyPlacement;
use qic_fault::FaultPlan;
use qic_modular::ModularSpec;
use qic_net::config::{ConfigError, NetConfig};
use qic_net::routing::RoutingPolicy;
use qic_net::topology::TopologyKind;
use qic_physics::error::ErrorRates;
use qic_sweep::{Axis, CheckpointError, ParamSpace};
use qic_workload::Program;

use super::codec::Field;
use crate::layout::Layout;
use qic_sweep::json::{Json, JsonError};

/// A named base network configuration a [`MachineSpec`] starts from.
///
/// The preset supplies the physics constants (operation times, error
/// rates, hop/turn cells, event budget); everything a scenario sweeps
/// or overrides is an explicit [`MachineSpec`] field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetPreset {
    /// [`NetConfig::paper_scale`] — the paper's 16×16, depth-3 setup.
    Paper,
    /// [`NetConfig::reduced`] — 8×8, level-1 code, fast benchmarking.
    Reduced,
    /// [`NetConfig::small_test`] — 4×4 deterministic test scale.
    SmallTest,
}

impl NetPreset {
    /// The preset's base configuration.
    pub fn net(self) -> NetConfig {
        match self {
            NetPreset::Paper => NetConfig::paper_scale(),
            NetPreset::Reduced => NetConfig::reduced(),
            NetPreset::SmallTest => NetConfig::small_test(),
        }
    }

    /// A compact label (`"paper"` / `"reduced"` / `"small_test"`).
    pub fn label(self) -> &'static str {
        match self {
            NetPreset::Paper => "paper",
            NetPreset::Reduced => "reduced",
            NetPreset::SmallTest => "small_test",
        }
    }

    /// Parses a [`NetPreset::label`].
    pub fn parse(label: &str) -> Option<NetPreset> {
        match label {
            "paper" => Some(NetPreset::Paper),
            "reduced" => Some(NetPreset::Reduced),
            "small_test" => Some(NetPreset::SmallTest),
            _ => None,
        }
    }
}

/// The machine side of a simulation scenario: scale, fabric, routing,
/// layout and the Section 5.3 resource knobs, all as data.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Base preset supplying physics constants.
    pub preset: NetPreset,
    /// Grid width in sites.
    pub width: u16,
    /// Grid height in sites.
    pub height: u16,
    /// Interconnect fabric.
    pub topology: TopologyKind,
    /// Channel routing policy.
    pub routing: RoutingPolicy,
    /// Logical-qubit layout.
    pub layout: Layout,
    /// Teleporters per T' node (`t`).
    pub teleporters: u32,
    /// Generators per G node (`g`).
    pub generators: u32,
    /// Queue purifiers per P node (`p`).
    pub purifiers: u32,
    /// Purification rounds per delivered pair.
    pub purify_depth: u32,
    /// Purified pairs per logical communication.
    pub outputs_per_comm: u32,
    /// Optional fault model (`qic-fault`): when set, every point runs
    /// over the compiled `DegradedFabric` and reports resilience
    /// metrics. `None` (the default, and the only value the figure
    /// presets use) is the healthy machine — byte-identical to the
    /// pre-fault-layer simulator.
    pub fault: Option<FaultPlan>,
    /// Optional modular block (`qic-modular`): when set, `modules`
    /// copies of the `width`×`height` fabric are composed through the
    /// chosen inter-module tier and every point runs over the
    /// `ModularFabric`. `None` (the default; all pre-modular presets)
    /// is the flat machine — byte-identical to the single-tier
    /// simulator. (Boxed: the block only exists on modular machines,
    /// and every flat spec would otherwise carry its footprint.)
    pub modular: Option<Box<ModularSpec>>,
}

impl MachineSpec {
    /// A machine spec whose fields mirror `preset` exactly (Home-Base
    /// layout, the preset's grid and resources).
    pub fn preset(preset: NetPreset) -> MachineSpec {
        let net = preset.net();
        MachineSpec {
            preset,
            width: net.mesh_width,
            height: net.mesh_height,
            topology: net.topology,
            routing: net.routing,
            layout: Layout::HomeBase,
            teleporters: net.teleporters_per_node,
            generators: net.generators_per_edge,
            purifiers: net.purifiers_per_site,
            purify_depth: net.purify_depth,
            outputs_per_comm: net.outputs_per_comm,
            fault: None,
            modular: None,
        }
    }

    /// Sets the grid dimensions.
    pub fn with_grid(mut self, width: u16, height: u16) -> MachineSpec {
        self.width = width;
        self.height = height;
        self
    }

    /// Sets the fabric.
    pub fn with_topology(mut self, kind: TopologyKind) -> MachineSpec {
        self.topology = kind;
        self
    }

    /// Sets the routing policy.
    pub fn with_routing(mut self, routing: RoutingPolicy) -> MachineSpec {
        self.routing = routing;
        self
    }

    /// Sets the layout.
    pub fn with_layout(mut self, layout: Layout) -> MachineSpec {
        self.layout = layout;
        self
    }

    /// Sets `t`, `g`, `p` together.
    pub fn with_resources(mut self, t: u32, g: u32, p: u32) -> MachineSpec {
        self.teleporters = t;
        self.generators = g;
        self.purifiers = p;
        self
    }

    /// Sets the purifier depth.
    pub fn with_purify_depth(mut self, depth: u32) -> MachineSpec {
        self.purify_depth = depth;
        self
    }

    /// Sets purified pairs per communication.
    pub fn with_outputs_per_comm(mut self, outputs: u32) -> MachineSpec {
        self.outputs_per_comm = outputs;
        self
    }

    /// Attaches a fault model: the machine runs degraded by `plan`
    /// (a [`ScenarioAxis::FaultRate`] axis overrides its link-kill rate
    /// per point).
    pub fn with_fault(mut self, plan: FaultPlan) -> MachineSpec {
        self.fault = Some(plan);
        self
    }

    /// Attaches a modular block: the machine becomes `spec.modules`
    /// copies of its fabric joined through the block's inter-module
    /// tier (the `Modules` / `InterTierLatency` / `InterTierCost` axes
    /// override its knobs per point).
    pub fn with_modular(mut self, spec: ModularSpec) -> MachineSpec {
        self.modular = Some(Box::new(spec));
        self
    }

    /// Materialises the full [`NetConfig`]: the preset's physics
    /// constants with this spec's declarative fields applied. The
    /// config keeps the preset's seed; at run time the campaign
    /// engine's derived per-point seed replaces it (see
    /// [`ScenarioSpec::seed`]).
    pub fn net_config(&self) -> NetConfig {
        let mut net = self.preset.net();
        net.mesh_width = self.width;
        net.mesh_height = self.height;
        net.topology = self.topology;
        net.routing = self.routing;
        net.teleporters_per_node = self.teleporters;
        net.generators_per_edge = self.generators;
        net.purifiers_per_site = self.purifiers;
        net.purify_depth = self.purify_depth;
        net.outputs_per_comm = self.outputs_per_comm;
        net
    }
}

/// The workload a simulation scenario drives through the machine.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// The Quantum Fourier Transform on `qubits` logical qubits.
    Qft {
        /// Logical qubit count (≥ 2).
        qubits: u32,
    },
    /// Modular multiplication over two `register`-qubit registers.
    ModMul {
        /// Register width (≥ 1).
        register: u32,
    },
    /// Modular exponentiation: `steps` square-and-multiply iterations.
    ModExp {
        /// Register width (≥ 2).
        register: u32,
        /// Square-and-multiply steps (≥ 1).
        steps: u32,
    },
    /// The composed Shor kernel (ME then QFT over register A).
    Shor {
        /// Register width (≥ 2).
        register: u32,
        /// ME steps (≥ 1).
        steps: u32,
    },
    /// Seeded uniform-random two-qubit interactions
    /// ([`Program::synthetic`]).
    Synthetic {
        /// Logical qubit count (≥ 2).
        qubits: u32,
        /// Number of instructions.
        comms: u32,
        /// Traffic seed.
        seed: u64,
    },
    /// Raw batch traffic: `(src, dst)` site pairs submitted at time
    /// zero through [`qic_net::sim::BatchDriver`], bypassing the
    /// logical scheduler (layout is ignored).
    Batch {
        /// `(src, dst)` grid coordinates, as `((x, y), (x, y))`.
        comms: Vec<((u16, u16), (u16, u16))>,
    },
}

impl WorkloadSpec {
    /// The logical program this workload generates, or `None` for raw
    /// batch traffic (which has no program).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters; [`ScenarioSpec::validate`]
    /// checks them first.
    pub fn program(&self) -> Option<Program> {
        match *self {
            WorkloadSpec::Qft { qubits } => Some(Program::qft(qubits)),
            WorkloadSpec::ModMul { register } => Some(Program::modular_multiplication(register)),
            WorkloadSpec::ModExp { register, steps } => {
                Some(Program::modular_exponentiation(register, steps))
            }
            WorkloadSpec::Shor { register, steps } => Some(Program::shor_kernel(register, steps)),
            WorkloadSpec::Synthetic {
                qubits,
                comms,
                seed,
            } => Some(Program::synthetic(qubits, comms as usize, seed)),
            WorkloadSpec::Batch { .. } => None,
        }
    }

    /// Logical qubits (grid sites) the workload needs.
    pub fn qubits(&self) -> u32 {
        match *self {
            WorkloadSpec::Qft { qubits } | WorkloadSpec::Synthetic { qubits, .. } => qubits,
            WorkloadSpec::ModMul { register }
            | WorkloadSpec::ModExp { register, .. }
            | WorkloadSpec::Shor { register, .. } => 2 * register,
            WorkloadSpec::Batch { .. } => 0,
        }
    }

    /// A compact label for sweep axes (`"qft:16"`, `"me:4x2"`, …).
    pub fn label(&self) -> String {
        match self {
            WorkloadSpec::Qft { qubits } => format!("qft:{qubits}"),
            WorkloadSpec::ModMul { register } => format!("mm:{register}"),
            WorkloadSpec::ModExp { register, steps } => format!("me:{register}x{steps}"),
            WorkloadSpec::Shor { register, steps } => format!("shor:{register}x{steps}"),
            WorkloadSpec::Synthetic { qubits, comms, .. } => {
                format!("synthetic:{qubits}x{comms}")
            }
            WorkloadSpec::Batch { comms } => format!("batch:{}", comms.len()),
        }
    }

    fn check(&self, scenario: &str) -> Result<(), ScenarioError> {
        let spec_err = |problem: String| ScenarioError::Spec {
            scenario: scenario.to_string(),
            problem,
        };
        match *self {
            WorkloadSpec::Qft { qubits } | WorkloadSpec::Synthetic { qubits, .. } if qubits < 2 => {
                Err(spec_err(format!(
                    "workload {} needs ≥ 2 qubits",
                    self.label()
                )))
            }
            WorkloadSpec::ModMul { register: 0 } => Err(spec_err(
                "modular multiplication needs a non-empty register".into(),
            )),
            WorkloadSpec::ModExp { register, steps } | WorkloadSpec::Shor { register, steps }
                if register < 2 || steps == 0 =>
            {
                Err(spec_err(format!(
                    "workload {} needs register ≥ 2 and steps ≥ 1",
                    self.label()
                )))
            }
            WorkloadSpec::Synthetic { comms: 0, .. } => Err(spec_err(
                "synthetic workloads need at least one instruction".into(),
            )),
            WorkloadSpec::Batch { ref comms } if comms.is_empty() => Err(spec_err(
                "batch workloads need at least one communication".into(),
            )),
            _ => Ok(()),
        }
    }
}

/// One sweep dimension of a scenario.
///
/// Each variant both defines a campaign axis (name + values, exactly as
/// the legacy per-figure campaigns built them) and a binding that
/// rewrites the per-point configuration before evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioAxis {
    /// Figure 16's joint resource axis: `t = g = R·p` under a fixed
    /// interconnect area budget; ratio `0` encodes the unlimited
    /// `t = g = p = 1024` baseline. Campaign axis `ratio`.
    ResourceRatio {
        /// Unit-area resource budget shared by `t + g + p`.
        area: u32,
        /// The `t:p` ratios to sweep (`0` = unlimited baseline).
        ratios: Vec<i64>,
    },
    /// Sweeps the logical-qubit layout. Campaign axis `layout`.
    Layouts {
        /// Layouts in sweep order.
        layouts: Vec<Layout>,
    },
    /// Sweeps the interconnect fabric. Campaign axis `topology`.
    Topologies {
        /// Fabric kinds in sweep order.
        kinds: Vec<TopologyKind>,
    },
    /// Sweeps the routing policy. Campaign axis `routing`.
    Routings {
        /// Policies in sweep order.
        policies: Vec<RoutingPolicy>,
    },
    /// Sweeps a square grid edge (width = height). Campaign axis `mesh`.
    GridEdges {
        /// Edge lengths in sweep order.
        edges: Vec<u16>,
    },
    /// Sweeps the purifier depth. Campaign axis `depth`.
    PurifyDepths {
        /// Depths in sweep order.
        depths: Vec<u32>,
    },
    /// Sweeps `t = g = p` together. Campaign axis `units`.
    Units {
        /// Unit counts in sweep order.
        units: Vec<u32>,
    },
    /// Sweeps teleporters per node. Campaign axis `t`.
    Teleporters {
        /// Counts in sweep order.
        values: Vec<u32>,
    },
    /// Sweeps generators per edge. Campaign axis `g`.
    Generators {
        /// Counts in sweep order.
        values: Vec<u32>,
    },
    /// Sweeps purifiers per site. Campaign axis `p`.
    Purifiers {
        /// Counts in sweep order.
        values: Vec<u32>,
    },
    /// Sweeps the workload itself. Campaign axis `workload`.
    Workloads {
        /// Workloads in sweep order.
        workloads: Vec<WorkloadSpec>,
    },
    /// Sweeps the fault model's Bernoulli **link-kill rate** (the
    /// degradation curve axis). Overrides the machine's base
    /// [`FaultPlan`] per point, creating a healthy-default plan when
    /// the machine carries none, so a rate of `0.0` is the healthy
    /// fabric. Campaign axis `fault_rate`.
    FaultRate {
        /// Link-kill rates in sweep order (probabilities).
        rates: Vec<f64>,
    },
    /// Sweeps the module count of a modular machine. Overrides the
    /// machine's [`ModularSpec`] per point, creating a single-module
    /// default block when the machine carries none, so a count of `1`
    /// is the flat machine. Campaign axis `modules`.
    Modules {
        /// Module counts in sweep order.
        counts: Vec<u32>,
    },
    /// Sweeps the inter-module tier's per-stage latency (nanoseconds).
    /// Creates a default modular block when the machine carries none.
    /// Campaign axis `inter_latency`.
    InterTierLatency {
        /// Stage latencies in sweep order (nanoseconds).
        latencies_ns: Vec<u64>,
    },
    /// Sweeps the dollars per inter-module link (the cost knob of the
    /// Pareto front; only the report's cost column changes). Creates a
    /// default modular block when the machine carries none. Campaign
    /// axis `inter_cost`.
    InterTierCost {
        /// Per-link costs in sweep order.
        costs: Vec<f64>,
    },
    /// Sweeps the purification placement of a channel scenario
    /// (Figures 10–12's legend set). Campaign axis `placement`.
    Placements {
        /// Placements in sweep order.
        placements: Vec<PurifyPlacement>,
    },
    /// Sweeps the channel distance. Campaign axis `hops`.
    Hops {
        /// Teleport-hop counts in sweep order.
        hops: Vec<u32>,
    },
    /// Sweeps a log-spaced uniform operation error rate
    /// (`10^(start_exp + i/per_decade)`, Figure 12's x-axis). Campaign
    /// axis `error_rate`.
    ErrorRateLog {
        /// First decade exponent.
        start_exp: i32,
        /// Last decade exponent (exclusive bound is `stop_exp`
        /// inclusive, as [`Axis::log_spaced`]).
        stop_exp: i32,
        /// Grid points per decade.
        per_decade: u32,
    },
}

impl ScenarioAxis {
    /// The campaign axis this dimension sweeps (name + values), exactly
    /// as the legacy per-figure campaigns built it.
    pub fn axis(&self) -> Axis {
        match self {
            ScenarioAxis::ResourceRatio { ratios, .. } => Axis::ints("ratio", ratios.clone()),
            ScenarioAxis::Layouts { layouts } => {
                Axis::labels("layout", layouts.iter().map(Layout::to_string))
            }
            ScenarioAxis::Topologies { kinds } => {
                Axis::labels("topology", kinds.iter().map(TopologyKind::to_string))
            }
            ScenarioAxis::Routings { policies } => {
                Axis::labels("routing", policies.iter().map(RoutingPolicy::to_string))
            }
            ScenarioAxis::GridEdges { edges } => {
                Axis::ints("mesh", edges.iter().map(|&e| i64::from(e)))
            }
            ScenarioAxis::PurifyDepths { depths } => {
                Axis::ints("depth", depths.iter().map(|&d| i64::from(d)))
            }
            ScenarioAxis::Units { units } => {
                Axis::ints("units", units.iter().map(|&u| i64::from(u)))
            }
            ScenarioAxis::Teleporters { values } => {
                Axis::ints("t", values.iter().map(|&v| i64::from(v)))
            }
            ScenarioAxis::Generators { values } => {
                Axis::ints("g", values.iter().map(|&v| i64::from(v)))
            }
            ScenarioAxis::Purifiers { values } => {
                Axis::ints("p", values.iter().map(|&v| i64::from(v)))
            }
            ScenarioAxis::Workloads { workloads } => {
                Axis::labels("workload", workloads.iter().map(WorkloadSpec::label))
            }
            ScenarioAxis::FaultRate { rates } => Axis::f64s("fault_rate", rates.iter().copied()),
            ScenarioAxis::Modules { counts } => {
                Axis::ints("modules", counts.iter().map(|&c| i64::from(c)))
            }
            ScenarioAxis::InterTierLatency { latencies_ns } => Axis::ints(
                "inter_latency",
                latencies_ns
                    .iter()
                    .map(|&l| i64::try_from(l).expect("validated: inter-tier latencies fit i64")),
            ),
            ScenarioAxis::InterTierCost { costs } => {
                Axis::f64s("inter_cost", costs.iter().copied())
            }
            ScenarioAxis::Placements { placements } => {
                Axis::labels("placement", placements.iter().map(PurifyPlacement::legend))
            }
            ScenarioAxis::Hops { hops } => Axis::ints("hops", hops.iter().map(|&h| i64::from(h))),
            ScenarioAxis::ErrorRateLog {
                start_exp,
                stop_exp,
                per_decade,
            } => Axis::log_spaced("error_rate", *start_exp, *stop_exp, *per_decade),
        }
    }

    /// Number of values along this axis.
    pub fn len(&self) -> usize {
        match self {
            ScenarioAxis::ResourceRatio { ratios, .. } => ratios.len(),
            ScenarioAxis::Layouts { layouts } => layouts.len(),
            ScenarioAxis::Topologies { kinds } => kinds.len(),
            ScenarioAxis::Routings { policies } => policies.len(),
            ScenarioAxis::GridEdges { edges } => edges.len(),
            ScenarioAxis::PurifyDepths { depths } => depths.len(),
            ScenarioAxis::Units { units } => units.len(),
            ScenarioAxis::Teleporters { values }
            | ScenarioAxis::Generators { values }
            | ScenarioAxis::Purifiers { values } => values.len(),
            ScenarioAxis::Workloads { workloads } => workloads.len(),
            ScenarioAxis::FaultRate { rates } => rates.len(),
            ScenarioAxis::Modules { counts } => counts.len(),
            ScenarioAxis::InterTierLatency { latencies_ns } => latencies_ns.len(),
            ScenarioAxis::InterTierCost { costs } => costs.len(),
            ScenarioAxis::Placements { placements } => placements.len(),
            ScenarioAxis::Hops { hops } => hops.len(),
            ScenarioAxis::ErrorRateLog {
                start_exp,
                stop_exp,
                per_decade,
            } => {
                if stop_exp <= start_exp || *per_decade == 0 {
                    0
                } else {
                    ((stop_exp - start_exp) as usize * *per_decade as usize) + 1
                }
            }
        }
    }

    /// Whether the axis has no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this axis configures a machine experiment (as opposed to
    /// an analytic channel experiment).
    pub fn is_machine_axis(&self) -> bool {
        !matches!(
            self,
            ScenarioAxis::Placements { .. }
                | ScenarioAxis::Hops { .. }
                | ScenarioAxis::ErrorRateLog { .. }
        )
    }

    /// Applies value `coord` of this axis to a machine point.
    pub(crate) fn apply_machine(
        &self,
        coord: usize,
        net: &mut NetConfig,
        layout: &mut Layout,
        workload: &mut WorkloadSpec,
        fault: &mut Option<FaultPlan>,
        modular: &mut Option<Box<ModularSpec>>,
    ) {
        match self {
            ScenarioAxis::ResourceRatio { area, ratios } => {
                let (t, g, p) = ratio_resources(ratios[coord], *area);
                net.teleporters_per_node = t;
                net.generators_per_edge = g;
                net.purifiers_per_site = p;
            }
            ScenarioAxis::Layouts { layouts } => *layout = layouts[coord],
            ScenarioAxis::Topologies { kinds } => net.topology = kinds[coord],
            ScenarioAxis::Routings { policies } => net.routing = policies[coord],
            ScenarioAxis::GridEdges { edges } => {
                net.mesh_width = edges[coord];
                net.mesh_height = edges[coord];
            }
            ScenarioAxis::PurifyDepths { depths } => net.purify_depth = depths[coord],
            ScenarioAxis::Units { units } => {
                net.teleporters_per_node = units[coord];
                net.generators_per_edge = units[coord];
                net.purifiers_per_site = units[coord];
            }
            ScenarioAxis::Teleporters { values } => net.teleporters_per_node = values[coord],
            ScenarioAxis::Generators { values } => net.generators_per_edge = values[coord],
            ScenarioAxis::Purifiers { values } => net.purifiers_per_site = values[coord],
            ScenarioAxis::Workloads { workloads } => *workload = workloads[coord].clone(),
            ScenarioAxis::FaultRate { rates } => {
                fault.get_or_insert_with(FaultPlan::healthy).link_kill_rate = rates[coord];
            }
            ScenarioAxis::Modules { counts } => {
                modular.get_or_insert_with(default_modular).modules = counts[coord];
            }
            ScenarioAxis::InterTierLatency { latencies_ns } => {
                modular.get_or_insert_with(default_modular).inter.latency_ns = latencies_ns[coord];
            }
            ScenarioAxis::InterTierCost { costs } => {
                modular.get_or_insert_with(default_modular).inter_unit_cost = costs[coord];
            }
            _ => unreachable!("validated: channel axes never reach machine points"),
        }
    }

    /// Applies value `coord` of this axis to a channel point.
    pub(crate) fn apply_channel(
        &self,
        coord: usize,
        placement: &mut PurifyPlacement,
        hops: &mut u32,
        rates: &mut Option<ErrorRates>,
    ) {
        match self {
            ScenarioAxis::Placements { placements } => *placement = placements[coord],
            ScenarioAxis::Hops { hops: values } => *hops = values[coord],
            ScenarioAxis::ErrorRateLog {
                start_exp,
                per_decade,
                ..
            } => {
                // The same expression Axis::log_spaced evaluates, so the
                // applied rate equals the reported axis value bit-for-bit.
                let p = 10f64.powf(f64::from(*start_exp) + coord as f64 / f64::from(*per_decade));
                *rates = Some(ErrorRates::uniform(p).expect("validated: rates are probabilities"));
            }
            _ => unreachable!("validated: machine axes never reach channel points"),
        }
    }
}

/// The modular block a modular axis materialises on a machine that
/// carries none: the degenerate single-module composition.
fn default_modular() -> Box<ModularSpec> {
    Box::new(ModularSpec::single())
}

/// Resolves a Figure 16 ratio-axis value into the `(t, g, p)` resource
/// knobs: `t = g = ratio·p` with `t + g + p ≈ area`, or the unlimited
/// `(1024, 1024, 1024)` baseline for ratio `0`.
pub fn ratio_resources(ratio: i64, area: u32) -> (u32, u32, u32) {
    if ratio == 0 {
        return (1024, 1024, 1024);
    }
    let ratio = ratio as u32;
    let p = (area / (2 * ratio + 1)).max(1);
    let t = (ratio * p).max(2);
    (t, t, p)
}

/// Observability settings for a machine scenario: attach a
/// `qic_probe::RecordingProbe` to every simulated point and export the
/// structured traces under [`ObserveSpec::dir`].
///
/// Per `(point, replicate)` evaluation the runner writes
/// `{name}_p{index:04}_r{replicate}.events.jsonl` (the structured event
/// log) and the matching `.trace.json` (Chrome-trace / Perfetto), plus
/// one `{name}.progress.jsonl` campaign progress stream. Every exported
/// trace is deterministic — same spec, same bytes, any worker count —
/// while the progress stream is wall-clock by design. Scenarios without
/// an observe block never construct a probe, so their reports and
/// golden outputs stay byte-identical to the uninstrumented simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct ObserveSpec {
    /// Directory the trace files are written into (created if missing).
    pub dir: String,
    /// Write per-point `.events.jsonl` structured event logs.
    pub events: bool,
    /// Write per-point `.trace.json` Chrome-trace (Perfetto) files.
    pub chrome_trace: bool,
    /// Sampling-grid bins for the utilization/occupancy time series
    /// (≥ 1).
    pub bins: u32,
}

impl ObserveSpec {
    /// Full observability into `dir`: both exporters on, the default
    /// 64-bin sampling grid.
    pub fn to_dir(dir: impl Into<String>) -> ObserveSpec {
        ObserveSpec {
            dir: dir.into(),
            events: true,
            chrome_trace: true,
            bins: 64,
        }
    }

    /// Overrides the sampling-grid resolution.
    pub fn with_bins(mut self, bins: u32) -> ObserveSpec {
        self.bins = bins;
        self
    }
}

/// Checkpoint/resume settings for a scenario: run the campaign with
/// streaming aggregation and commit a versioned manifest of completed
/// points under [`CheckpointSpec::dir`], so a killed run resumes where
/// it stopped and still produces the byte-identical report.
///
/// The manifest lives at `{dir}/{name}.ckpt.json` (scenario name
/// sanitized the way trace files are) and is committed atomically —
/// write-temp, sync, rename — every [`CheckpointSpec::every`] completed
/// points and once at the end. Resume validates a spec fingerprint
/// (name, seed, replicates, axes), so editing the spec between runs
/// fails loudly instead of stitching incompatible halves together.
///
/// Checkpointed runs use the same streaming aggregation as campaign
/// sharding: summaries and CSV are byte-identical to a buffered run,
/// but raw replicate samples are not retained in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointSpec {
    /// Directory the manifest is written into (created if missing).
    pub dir: String,
    /// Commit the manifest every this many newly completed points
    /// (≥ 1).
    pub every: u32,
}

impl CheckpointSpec {
    /// Checkpoints into `dir` with the default 16-point commit
    /// interval.
    pub fn to_dir(dir: impl Into<String>) -> CheckpointSpec {
        CheckpointSpec {
            dir: dir.into(),
            every: 16,
        }
    }

    /// Overrides the commit interval.
    pub fn with_every(mut self, every: u32) -> CheckpointSpec {
        self.every = every;
        self
    }
}

/// What a scenario measures: a full machine simulation or the
/// closed-form channel-resource model.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentSpec {
    /// Event-driven simulation: a machine runs a workload; every point
    /// reports the full `NetReport` metric set.
    Machine {
        /// The machine description (base values; axes override).
        machine: MachineSpec,
        /// The workload (base value; a workload axis overrides).
        workload: WorkloadSpec,
    },
    /// Closed-form channel model (Figures 10–12); every point reports
    /// the `pairs` metric.
    Channel {
        /// Base purification placement (a placement axis overrides).
        placement: PurifyPlacement,
        /// Base channel distance in teleport hops (a hops axis
        /// overrides).
        hops: u32,
        /// Which pair budget the scenario reports.
        metric: PairMetric,
    },
}

/// A fully declarative, serializable experiment: one spec describes
/// everything `qic::run` needs — machine, workload, purification
/// strategy, sweep axes, replication and seeding.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Campaign name (also the report identity; figure presets use the
    /// legacy campaign names so reports stay byte-identical).
    pub name: String,
    /// Campaign-level seed per-point seeds derive from.
    pub seed: u64,
    /// Replicates per point (≥ 1).
    pub replicates: u32,
    /// Worker threads (`0` = engine default). Reports never depend on
    /// this — it is an execution hint, carried for reproducible runs.
    pub workers: usize,
    /// Sweep dimensions, slowest-varying first.
    pub axes: Vec<ScenarioAxis>,
    /// What each point evaluates.
    pub experiment: ExperimentSpec,
    /// Structured-trace export (machine scenarios only). `None` — the
    /// default everywhere, including every figure preset — runs the
    /// simulator unprobed: zero instrumentation cost, byte-identical
    /// reports and golden outputs.
    pub observe: Option<ObserveSpec>,
    /// Checkpoint/resume via an on-disk manifest (see
    /// [`CheckpointSpec`]). `None` — the default everywhere — runs the
    /// campaign in memory exactly as before.
    pub checkpoint: Option<CheckpointSpec>,
}

impl ScenarioSpec {
    /// A simulation scenario (no axes yet); the campaign seed defaults
    /// to the machine preset's base seed.
    pub fn machine(
        name: impl Into<String>,
        machine: MachineSpec,
        workload: WorkloadSpec,
    ) -> ScenarioSpec {
        let seed = machine.preset.net().seed;
        ScenarioSpec {
            name: name.into(),
            seed,
            replicates: 1,
            workers: 0,
            axes: Vec::new(),
            experiment: ExperimentSpec::Machine { machine, workload },
            observe: None,
            checkpoint: None,
        }
    }

    /// An analytic channel scenario (no axes yet), seed 0 like the
    /// legacy figure campaigns.
    pub fn channel(
        name: impl Into<String>,
        placement: PurifyPlacement,
        hops: u32,
        metric: PairMetric,
    ) -> ScenarioSpec {
        ScenarioSpec {
            name: name.into(),
            seed: 0,
            replicates: 1,
            workers: 0,
            axes: Vec::new(),
            experiment: ExperimentSpec::Channel {
                placement,
                hops,
                metric,
            },
            observe: None,
            checkpoint: None,
        }
    }

    /// Appends a sweep axis (row-major: later axes vary fastest).
    pub fn with_axis(mut self, axis: ScenarioAxis) -> ScenarioSpec {
        self.axes.push(axis);
        self
    }

    /// Overrides the campaign seed.
    pub fn with_seed(mut self, seed: u64) -> ScenarioSpec {
        self.seed = seed;
        self
    }

    /// Sets replicates per point.
    pub fn with_replicates(mut self, replicates: u32) -> ScenarioSpec {
        self.replicates = replicates;
        self
    }

    /// Pins the worker-thread count (`0` = engine default).
    pub fn with_workers(mut self, workers: usize) -> ScenarioSpec {
        self.workers = workers;
        self
    }

    /// Attaches structured-trace export (machine scenarios only; see
    /// [`ObserveSpec`]).
    pub fn with_observe(mut self, observe: ObserveSpec) -> ScenarioSpec {
        self.observe = Some(observe);
        self
    }

    /// Makes the scenario resumable: checkpoint the campaign to an
    /// on-disk manifest and resume from it on the next run (see
    /// [`CheckpointSpec`]). Works for machine and channel scenarios
    /// alike — any registry preset becomes resumable by adding this.
    pub fn with_checkpoint(mut self, checkpoint: CheckpointSpec) -> ScenarioSpec {
        self.checkpoint = Some(checkpoint);
        self
    }

    /// The campaign parameter space the axes span.
    pub fn param_space(&self) -> ParamSpace {
        self.axes
            .iter()
            .fold(ParamSpace::new(), |space, axis| space.axis(axis.axis()))
    }

    fn spec_err(&self, problem: impl Into<String>) -> ScenarioError {
        ScenarioError::Spec {
            scenario: self.name.clone(),
            problem: problem.into(),
        }
    }

    /// Checks the spec end to end: axis/experiment family consistency,
    /// workload invariants, and — for machine scenarios — `qic-net`
    /// validation of **every** sweep point's configuration, wrapped
    /// with scenario context.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Spec`] for spec-level problems,
    /// [`ScenarioError::Config`] when a point's [`NetConfig`] fails
    /// [`NetConfig::validate`].
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.name.is_empty() {
            return Err(self.spec_err("scenarios need a non-empty name"));
        }
        if self.replicates == 0 {
            return Err(self.spec_err("scenarios need at least one replicate"));
        }
        if let Some(obs) = &self.observe {
            if matches!(self.experiment, ExperimentSpec::Channel { .. }) {
                return Err(self.spec_err(
                    "observe applies only to machine scenarios (the channel model \
                     is closed-form; there is no simulation to trace)",
                ));
            }
            if obs.dir.is_empty() {
                return Err(self.spec_err("observe needs a non-empty output directory"));
            }
            if obs.bins == 0 {
                return Err(self.spec_err("observe needs at least one sampling bin"));
            }
        }
        if let Some(ckpt) = &self.checkpoint {
            if ckpt.dir.is_empty() {
                return Err(self.spec_err("checkpoint needs a non-empty manifest directory"));
            }
            if ckpt.every == 0 {
                return Err(
                    self.spec_err("checkpoint needs a commit interval of at least one point")
                );
            }
        }
        for (i, axis) in self.axes.iter().enumerate() {
            // The dedicated error-rate diagnosis must run before the
            // generic emptiness check (a degenerate exponent range is
            // exactly what makes the axis empty).
            if let ScenarioAxis::ErrorRateLog {
                start_exp,
                stop_exp,
                per_decade,
            } = axis
            {
                if stop_exp <= start_exp || *per_decade == 0 {
                    return Err(self
                        .spec_err("error-rate axes need stop_exp > start_exp and per_decade ≥ 1"));
                }
                if *stop_exp > 0 {
                    return Err(self.spec_err("error rates above 1.0 are not probabilities"));
                }
            }
            if axis.is_empty() {
                return Err(self.spec_err(format!("axis #{i} has no values")));
            }
            let machine_experiment = matches!(self.experiment, ExperimentSpec::Machine { .. });
            if axis.is_machine_axis() != machine_experiment {
                return Err(
                    self.spec_err(format!("axis #{i} does not apply to this experiment kind"))
                );
            }
            if let ScenarioAxis::ResourceRatio { ratios, .. } = axis {
                if ratios
                    .iter()
                    .any(|&r| !(0..=i64::from(u32::MAX)).contains(&r))
                {
                    return Err(
                        self.spec_err("resource ratios must be non-negative and fit in u32")
                    );
                }
            }
            if let ScenarioAxis::Hops { hops } = axis {
                if hops.contains(&0) {
                    return Err(self.spec_err("channels need at least one hop"));
                }
            }
            if let ScenarioAxis::Workloads { workloads } = axis {
                for w in workloads {
                    w.check(&self.name)?;
                }
            }
            if let ScenarioAxis::FaultRate { rates } = axis {
                if rates
                    .iter()
                    .any(|r| !(r.is_finite() && (0.0..=1.0).contains(r)))
                {
                    return Err(self.spec_err("fault rates must be probabilities in [0, 1]"));
                }
            }
            if let ScenarioAxis::InterTierLatency { latencies_ns } = axis {
                if latencies_ns.iter().any(|&l| i64::try_from(l).is_err()) {
                    return Err(self.spec_err("inter-tier latencies must fit i64 nanoseconds"));
                }
            }
        }
        let names: Vec<&str> = self.axes.iter().map(ScenarioAxis::axis_name).collect();
        for (i, n) in names.iter().enumerate() {
            if names[..i].contains(n) {
                return Err(self.spec_err(format!("duplicate sweep axis {n:?}")));
            }
        }
        match &self.experiment {
            ExperimentSpec::Machine { machine, workload } => {
                workload.check(&self.name)?;
                let space = self.param_space();
                for index in 0..space.len() {
                    let point = space.point(index);
                    let mut net = machine.net_config();
                    let mut layout = machine.layout;
                    let mut wl = workload.clone();
                    let mut fault = machine.fault.clone();
                    let mut modular = machine.modular.clone();
                    for (a, axis) in self.axes.iter().enumerate() {
                        axis.apply_machine(
                            point.coord(a),
                            &mut net,
                            &mut layout,
                            &mut wl,
                            &mut fault,
                            &mut modular,
                        );
                    }
                    net.validate().map_err(|source| ScenarioError::Config {
                        scenario: self.name.clone(),
                        point: Some(point.to_string()),
                        source,
                    })?;
                    // How many modules this point composes; 1 for flat
                    // machines. Component-count checks below are against
                    // the composed fabric.
                    let modules_count = modular.as_ref().map_or(1, |m| m.modules as usize);
                    if let Some(m) = &modular {
                        m.validate().map_err(|problem| {
                            self.spec_err(format!("{point}: modular block: {problem}"))
                        })?;
                        if m.modules > 1 {
                            let composed_w = u32::from(net.mesh_width) * m.modules;
                            if composed_w > u32::from(u16::MAX) {
                                return Err(self.spec_err(format!(
                                    "{point}: {} modules of width {} overflow the u16 \
                                     addressing grid",
                                    m.modules, net.mesh_width
                                )));
                            }
                            let base = net.fabric();
                            let need = (qic_net::topology::Topology::port_classes(&base) as u32
                                + 1)
                            .max(2);
                            if net.teleporters_per_node < need {
                                return Err(self.spec_err(format!(
                                    "{point}: modular machines with {} modules on the {} \
                                     fabric need teleporters ≥ {need} (one class per base \
                                     dimension plus the uplink class, and bubble flow \
                                     control)",
                                    m.modules, net.topology
                                )));
                            }
                        }
                    }
                    if let Some(plan) = &fault {
                        plan.validate()
                            .map_err(|problem| self.spec_err(format!("{point}: {problem}")))?;
                        // Component indices must exist on this point's
                        // fabric (the grid and topology are point-local;
                        // a modular block multiplies the counts).
                        let fabric = net.fabric();
                        let (links, nodes) = {
                            let base_links = qic_net::topology::Topology::links(&fabric);
                            let base_nodes = qic_net::topology::Topology::nodes(&fabric);
                            let k = modules_count;
                            (k * base_links + k * (k - 1) / 2, k * base_nodes)
                        };
                        for &dm in &plan.dead_modules {
                            if dm as usize >= modules_count {
                                return Err(self.spec_err(format!(
                                    "{point}: dead module {dm} is off the machine \
                                     ({modules_count} modules)"
                                )));
                            }
                        }
                        for &l in &plan.dead_links {
                            if l as usize >= links {
                                return Err(self.spec_err(format!(
                                    "{point}: dead link {l} is off the {} fabric \
                                     ({links} links)",
                                    net.topology
                                )));
                            }
                        }
                        for &n in &plan.dead_nodes {
                            if n as usize >= nodes {
                                return Err(self.spec_err(format!(
                                    "{point}: dead node {n} is off the {} fabric \
                                     ({nodes} nodes)",
                                    net.topology
                                )));
                            }
                        }
                        for h in &plan.hotspots {
                            if h.link as usize >= links {
                                return Err(self.spec_err(format!(
                                    "{point}: hotspot link {} is off the {} fabric \
                                     ({links} links)",
                                    h.link, net.topology
                                )));
                            }
                        }
                        if plan.masks_topology() && net.teleporters_per_node < 2 {
                            return Err(self.spec_err(format!(
                                "{point}: fault plans that can mask links need \
                                 teleporters ≥ 2 (degraded fabrics run with bubble \
                                 flow control)"
                            )));
                        }
                    }
                    // A modular block tiles the modules along X, so the
                    // addressable grid (and site budget) grows with K.
                    let grid_width = u32::from(net.mesh_width) * modules_count as u32;
                    let sites = grid_width * u32::from(net.mesh_height);
                    match &wl {
                        WorkloadSpec::Batch { comms } => {
                            for &((sx, sy), (dx, dy)) in comms {
                                if u32::from(sx) >= grid_width
                                    || sy >= net.mesh_height
                                    || u32::from(dx) >= grid_width
                                    || dy >= net.mesh_height
                                {
                                    return Err(self.spec_err(format!(
                                        "{point}: batch site ({sx},{sy})→({dx},{dy}) is off \
                                         the {}×{} grid",
                                        grid_width, net.mesh_height
                                    )));
                                }
                                if (sx, sy) == (dx, dy) {
                                    return Err(self.spec_err(format!(
                                        "{point}: batch traffic cannot send a site to itself \
                                         (({sx},{sy}))"
                                    )));
                                }
                            }
                        }
                        program_workload => {
                            let qubits = program_workload.qubits();
                            if qubits > sites {
                                return Err(self.spec_err(format!(
                                    "{point}: workload {} needs {qubits} qubits but the grid \
                                     has {sites} sites",
                                    program_workload.label()
                                )));
                            }
                        }
                    }
                }
            }
            ExperimentSpec::Channel { hops, .. } => {
                if *hops == 0
                    && !self
                        .axes
                        .iter()
                        .any(|a| matches!(a, ScenarioAxis::Hops { .. }))
                {
                    return Err(self.spec_err("channels need at least one hop"));
                }
            }
        }
        Ok(())
    }

    /// Serialises the spec as deterministic JSON.
    pub fn to_json(&self) -> String {
        self.encode().emit()
    }

    /// Parses a spec from JSON. Strict: unknown or duplicate fields are
    /// rejected, so a typo can never silently configure nothing.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Json`] on syntax or schema problems. The parsed
    /// spec is *not* validated — call [`ScenarioSpec::validate`] (or
    /// let `qic::run` do it).
    pub fn from_json(text: &str) -> Result<ScenarioSpec, ScenarioError> {
        let value = Json::parse(text)?;
        ScenarioSpec::decode(&value, "scenario").map_err(ScenarioError::Json)
    }
}

/// Errors raised by the Scenario API: spec validation, per-point
/// network-config validation (with scenario context), or JSON
/// syntax/schema problems.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// A spec-level invariant failed.
    Spec {
        /// The scenario's name.
        scenario: String,
        /// What is wrong with the spec.
        problem: String,
    },
    /// A scenario point's network configuration failed
    /// [`NetConfig::validate`].
    Config {
        /// The scenario's name.
        scenario: String,
        /// The sweep point at fault, if the base config itself is fine.
        point: Option<String>,
        /// The underlying structured configuration error.
        source: ConfigError,
    },
    /// The JSON document could not be parsed or did not match the
    /// schema.
    Json(JsonError),
    /// A checkpointed run could not load, validate or commit its
    /// manifest.
    Checkpoint(CheckpointError),
    /// Run setup could not create a file or directory the spec asks
    /// for (the observe directory or its progress stream); no point
    /// ran.
    Io {
        /// The scenario's name.
        scenario: String,
        /// The path involved.
        path: String,
        /// The rendered `std::io::Error`.
        message: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Spec { scenario, problem } => {
                write!(f, "scenario {scenario:?}: {problem}")
            }
            ScenarioError::Config {
                scenario,
                point,
                source,
            } => match point {
                Some(point) => write!(f, "scenario {scenario:?}, point {point}: {source}"),
                None => write!(f, "scenario {scenario:?}: {source}"),
            },
            ScenarioError::Json(err) => write!(f, "{err}"),
            ScenarioError::Checkpoint(err) => write!(f, "{err}"),
            ScenarioError::Io {
                scenario,
                path,
                message,
            } => write!(f, "scenario {scenario:?}: cannot create {path}: {message}"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Config { source, .. } => Some(source),
            ScenarioError::Json(err) => Some(err),
            ScenarioError::Spec { .. } | ScenarioError::Io { .. } => None,
            ScenarioError::Checkpoint(err) => Some(err),
        }
    }
}

impl From<JsonError> for ScenarioError {
    fn from(err: JsonError) -> ScenarioError {
        ScenarioError::Json(err)
    }
}

impl From<CheckpointError> for ScenarioError {
    fn from(err: CheckpointError) -> ScenarioError {
        ScenarioError::Checkpoint(err)
    }
}
