//! Named scenario presets: the paper's figures plus the studies the
//! legacy API could not express without new code.

use std::sync::OnceLock;

use qic_analytic::figures::PairMetric;
use qic_analytic::strategy::PurifyPlacement;
use qic_fault::{FaultPlan, Hotspot};
use qic_modular::ModularSpec;
use qic_net::routing::RoutingPolicy;
use qic_net::topology::TopologyKind;

use crate::layout::Layout;
use crate::scenario::spec::{MachineSpec, NetPreset, ScenarioAxis, ScenarioSpec, WorkloadSpec};

/// The scale a registry entry is instantiated at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioScale {
    /// The figure-faithful scale (seconds of wall-clock for simulator
    /// scenarios; the paper's own Figure 16 scale stays reachable via
    /// [`crate::scenario::fig16_spec`]).
    Full,
    /// The `small_test` scale used by unit tests and the CI scenario
    /// smoke: every spec runs in well under a second.
    SmallTest,
}

/// One named preset: a constructor from scale plus gallery metadata.
#[derive(Clone)]
pub struct ScenarioEntry {
    /// Registry name (stable; scripts and docs key on it).
    pub name: &'static str,
    /// The paper figure it reproduces, or `"—"` for new studies.
    pub figure: &'static str,
    /// One-line description for the gallery.
    pub summary: &'static str,
    build: fn(ScenarioScale) -> ScenarioSpec,
}

impl ScenarioEntry {
    /// Instantiates the preset at a scale.
    pub fn spec(&self, scale: ScenarioScale) -> ScenarioSpec {
        (self.build)(scale)
    }
}

impl std::fmt::Debug for ScenarioEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioEntry")
            .field("name", &self.name)
            .field("figure", &self.figure)
            .finish_non_exhaustive()
    }
}

/// The registry of named scenarios.
///
/// Every entry covers the shape "machine × fabric × routing × workload
/// × purification strategy, swept and measured"; together they span all
/// three fabrics and both routing policies.
#[derive(Debug)]
pub struct ScenarioRegistry {
    entries: Vec<ScenarioEntry>,
}

impl ScenarioRegistry {
    /// The built-in registry.
    pub fn builtin() -> &'static ScenarioRegistry {
        static REGISTRY: OnceLock<ScenarioRegistry> = OnceLock::new();
        REGISTRY.get_or_init(|| ScenarioRegistry {
            entries: builtin_entries(),
        })
    }

    /// Every entry, in gallery order.
    pub fn entries(&self) -> &[ScenarioEntry] {
        &self.entries
    }

    /// Looks an entry up by name.
    pub fn get(&self, name: &str) -> Option<&ScenarioEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Instantiates a named preset at a scale.
    pub fn spec(&self, name: &str, scale: ScenarioScale) -> Option<ScenarioSpec> {
        self.get(name).map(|e| e.spec(scale))
    }
}

/// The Figure 16 spec for an explicit experiment scale — the one knob
/// the registry's `fig16` entry does not expose (its `Full` scale is
/// the CI-friendly `Reduced`; pass [`crate::experiment::Fig16Scale::Paper`]
/// here for the paper configuration, which takes about 2 min (122 s) on
/// two workers of a 2-core host in release).
pub fn fig16_spec(scale: crate::experiment::Fig16Scale) -> ScenarioSpec {
    use crate::experiment::Fig16Scale;
    let machine = match scale {
        Fig16Scale::Paper => MachineSpec::preset(NetPreset::Paper),
        Fig16Scale::Reduced => MachineSpec::preset(NetPreset::Reduced),
        Fig16Scale::Tiny => small_machine(),
    };
    ScenarioSpec::machine(
        format!("figure16:{scale:?}"),
        machine,
        WorkloadSpec::Qft {
            qubits: scale.qft_size(),
        },
    )
    .with_axis(ScenarioAxis::ResourceRatio {
        area: scale.area(),
        ratios: vec![0, 1, 2, 4, 8],
    })
    .with_axis(ScenarioAxis::Layouts {
        layouts: Layout::ALL.to_vec(),
    })
}

fn small_machine() -> MachineSpec {
    MachineSpec::preset(NetPreset::SmallTest)
        .with_purify_depth(2)
        .with_outputs_per_comm(3)
}

fn builtin_entries() -> Vec<ScenarioEntry> {
    vec![
        ScenarioEntry {
            name: "fig10",
            figure: "Figure 10",
            summary: "Total EPR pairs vs distance for the five purification placements",
            build: |scale| channel_figure(scale, "figure10", PairMetric::TotalPairs),
        },
        ScenarioEntry {
            name: "fig11",
            figure: "Figure 11",
            summary: "Teleported EPR pairs vs distance for the same placements",
            build: |scale| channel_figure(scale, "figure11", PairMetric::TeleportedPairs),
        },
        ScenarioEntry {
            name: "fig12",
            figure: "Figure 12",
            summary: "Teleported pairs vs uniform error rate; curves end near 1e-5",
            build: |scale| {
                let per_decade = match scale {
                    ScenarioScale::Full => 4,
                    ScenarioScale::SmallTest => 2,
                };
                // A 16-hop channel keeps the nested schemes inside the
                // paper's 1e12 axis at low error rates; every curve ends
                // near 1e-5, where purification stops reaching threshold.
                ScenarioSpec::channel(
                    "figure12",
                    PurifyPlacement::EndpointsOnly,
                    16,
                    PairMetric::TeleportedPairs,
                )
                .with_axis(ScenarioAxis::Placements {
                    placements: PurifyPlacement::FIGURE_SET.to_vec(),
                })
                .with_axis(ScenarioAxis::ErrorRateLog {
                    start_exp: -9,
                    stop_exp: -4,
                    per_decade,
                })
            },
        },
        ScenarioEntry {
            name: "fig16",
            figure: "Figure 16",
            summary: "QFT makespan vs t:g:p split at fixed interconnect area, both layouts",
            build: |scale| {
                fig16_spec(match scale {
                    ScenarioScale::Full => crate::experiment::Fig16Scale::Reduced,
                    ScenarioScale::SmallTest => crate::experiment::Fig16Scale::Tiny,
                })
            },
        },
        ScenarioEntry {
            name: "topology_faceoff",
            figure: "—",
            summary: "Same QFT on mesh/torus/hypercube under both routing policies",
            build: |scale| {
                let (machine, qft, name) = match scale {
                    // Keep the faceoff CI-friendly: the contention shape
                    // is set by the fabric, not the purifier depth.
                    ScenarioScale::Full => (
                        MachineSpec::preset(NetPreset::Reduced).with_purify_depth(2),
                        64,
                        "topology_faceoff:Full",
                    ),
                    ScenarioScale::SmallTest => (small_machine(), 16, "topology_faceoff:Tiny"),
                };
                ScenarioSpec::machine(name, machine, WorkloadSpec::Qft { qubits: qft })
                    .with_axis(ScenarioAxis::Topologies {
                        kinds: TopologyKind::ALL.to_vec(),
                    })
                    .with_axis(ScenarioAxis::Routings {
                        policies: RoutingPolicy::ALL.to_vec(),
                    })
            },
        },
        ScenarioEntry {
            name: "qft_torus",
            figure: "—",
            summary: "Figure 16's resource sweep on the wrap-around torus, both layouts",
            build: |scale| {
                let (machine, qft, area) = match scale {
                    ScenarioScale::Full => (
                        MachineSpec::preset(NetPreset::Reduced).with_purify_depth(2),
                        64,
                        90,
                    ),
                    ScenarioScale::SmallTest => (small_machine(), 16, 36),
                };
                ScenarioSpec::machine(
                    "qft_torus",
                    machine.with_topology(TopologyKind::Torus),
                    WorkloadSpec::Qft { qubits: qft },
                )
                .with_axis(ScenarioAxis::ResourceRatio {
                    area,
                    ratios: vec![0, 1, 2, 4, 8],
                })
                .with_axis(ScenarioAxis::Layouts {
                    layouts: Layout::ALL.to_vec(),
                })
            },
        },
        ScenarioEntry {
            name: "qft_hypercube",
            figure: "—",
            summary: "QFT on the binary hypercube: layout × routing at matched node count",
            build: |scale| {
                let (machine, qft) = match scale {
                    ScenarioScale::Full => (
                        MachineSpec::preset(NetPreset::Reduced)
                            .with_purify_depth(2)
                            .with_resources(12, 12, 6),
                        64,
                    ),
                    ScenarioScale::SmallTest => (small_machine(), 16),
                };
                ScenarioSpec::machine(
                    "qft_hypercube",
                    machine.with_topology(TopologyKind::Hypercube),
                    WorkloadSpec::Qft { qubits: qft },
                )
                .with_axis(ScenarioAxis::Layouts {
                    layouts: Layout::ALL.to_vec(),
                })
                .with_axis(ScenarioAxis::Routings {
                    policies: RoutingPolicy::ALL.to_vec(),
                })
            },
        },
        ScenarioEntry {
            name: "shor_kernel",
            figure: "Section 5.2",
            summary: "The Shor pipeline (QFT, MM, ME, composed kernel) per layout",
            build: |scale| {
                let (machine, register) = match scale {
                    ScenarioScale::Full => (
                        MachineSpec::preset(NetPreset::Reduced)
                            .with_grid(6, 6)
                            .with_resources(12, 12, 6)
                            .with_purify_depth(2),
                        8,
                    ),
                    ScenarioScale::SmallTest => (small_machine(), 4),
                };
                ScenarioSpec::machine(
                    "shor_kernel",
                    machine,
                    WorkloadSpec::Qft { qubits: register },
                )
                .with_axis(ScenarioAxis::Layouts {
                    layouts: Layout::ALL.to_vec(),
                })
                .with_axis(ScenarioAxis::Workloads {
                    workloads: vec![
                        WorkloadSpec::Qft { qubits: register },
                        WorkloadSpec::ModMul { register },
                        WorkloadSpec::ModExp { register, steps: 2 },
                        WorkloadSpec::Shor { register, steps: 1 },
                    ],
                })
            },
        },
        ScenarioEntry {
            name: "synthetic_stress",
            figure: "—",
            summary: "Seeded random traffic across all three fabrics (no locality to exploit)",
            build: |scale| {
                let (machine, qubits, comms) = match scale {
                    ScenarioScale::Full => (
                        MachineSpec::preset(NetPreset::Reduced).with_purify_depth(2),
                        16,
                        64,
                    ),
                    ScenarioScale::SmallTest => (small_machine(), 8, 16),
                };
                ScenarioSpec::machine(
                    "synthetic_stress",
                    machine,
                    WorkloadSpec::Synthetic {
                        qubits,
                        comms,
                        seed: 2006,
                    },
                )
                .with_axis(ScenarioAxis::Topologies {
                    kinds: TopologyKind::ALL.to_vec(),
                })
            },
        },
        ScenarioEntry {
            name: "resilience_sweep",
            figure: "—",
            summary: "Graceful-degradation curves: fault rate × fabric under adaptive routing",
            build: |scale| {
                // The synthetic traffic spans every site of the grid, so
                // any dead link or node is in somebody's path.
                let (machine, qubits, comms, rates) = match scale {
                    ScenarioScale::Full => (
                        MachineSpec::preset(NetPreset::Reduced).with_purify_depth(2),
                        64,
                        96,
                        vec![0.0, 0.05, 0.1, 0.15, 0.2],
                    ),
                    ScenarioScale::SmallTest => (small_machine(), 16, 24, vec![0.0, 0.08, 0.15]),
                };
                ScenarioSpec::machine(
                    "resilience_sweep",
                    machine
                        .with_routing(RoutingPolicy::MinimalAdaptive)
                        // Seed 42 damages all three fabrics even at the
                        // tiny 4×4 scale (seed 2006 happens to spare the
                        // 24-link mesh entirely).
                        .with_fault(FaultPlan::healthy().with_seed(42)),
                    WorkloadSpec::Synthetic {
                        qubits,
                        comms,
                        seed: 2006,
                    },
                )
                .with_axis(ScenarioAxis::FaultRate { rates })
                .with_axis(ScenarioAxis::Topologies {
                    kinds: TopologyKind::ALL.to_vec(),
                })
            },
        },
        ScenarioEntry {
            name: "degraded_faceoff",
            figure: "—",
            summary: "The topology faceoff on a damaged machine: dead links/nodes, degraded pools, a hot spot",
            build: |scale| {
                let (machine, qft, fault) = match scale {
                    ScenarioScale::Full => (
                        MachineSpec::preset(NetPreset::Reduced).with_purify_depth(2),
                        64,
                        FaultPlan::healthy()
                            .with_seed(2006)
                            .with_link_kill(0.08)
                            .with_node_loss(0.03)
                            .with_teleporter_loss(0.1)
                            .with_hotspot(Hotspot {
                                link: 0,
                                start_ns: 0,
                                end_ns: 2_000_000,
                                penalty_ns: 50_000,
                            }),
                    ),
                    ScenarioScale::SmallTest => (
                        small_machine(),
                        16,
                        FaultPlan::healthy()
                            .with_seed(2006)
                            .with_link_kill(0.1)
                            .with_node_loss(0.05)
                            .with_teleporter_loss(0.25)
                            .with_hotspot(Hotspot {
                                link: 0,
                                start_ns: 0,
                                end_ns: 1_000_000,
                                penalty_ns: 25_000,
                            }),
                    ),
                };
                ScenarioSpec::machine(
                    "degraded_faceoff",
                    machine.with_fault(fault),
                    WorkloadSpec::Qft { qubits: qft },
                )
                .with_axis(ScenarioAxis::Topologies {
                    kinds: TopologyKind::ALL.to_vec(),
                })
                .with_axis(ScenarioAxis::Routings {
                    policies: RoutingPolicy::ALL.to_vec(),
                })
            },
        },
        ScenarioEntry {
            name: "modular_faceoff",
            figure: "—",
            summary: "The topology faceoff on multi-module machines: 1/2/4 modules over an optical switch",
            build: |scale| {
                let (machine, qft) = match scale {
                    ScenarioScale::Full => (
                        MachineSpec::preset(NetPreset::Reduced)
                            .with_purify_depth(2)
                            .with_resources(12, 12, 6),
                        64,
                    ),
                    // The uplink port class needs one extra teleporter
                    // set over the flat small machine.
                    ScenarioScale::SmallTest => (small_machine().with_resources(6, 4, 2), 16),
                };
                ScenarioSpec::machine(
                    "modular_faceoff",
                    machine.with_modular(
                        ModularSpec::single()
                            .with_latency_ns(500)
                            .with_teleporter_slots(2)
                            .with_inter_fidelity(0.985),
                    ),
                    WorkloadSpec::Qft { qubits: qft },
                )
                .with_axis(ScenarioAxis::Topologies {
                    kinds: TopologyKind::ALL.to_vec(),
                })
                .with_axis(ScenarioAxis::Modules {
                    counts: vec![1, 2, 4],
                })
            },
        },
        ScenarioEntry {
            name: "cost_fidelity_pareto",
            figure: "—",
            summary: "Cost-fidelity Pareto sweep: fabric × module count × inter-tier unit cost",
            build: |scale| {
                let (machine, qubits, comms) = match scale {
                    ScenarioScale::Full => (
                        MachineSpec::preset(NetPreset::Reduced)
                            .with_purify_depth(2)
                            .with_resources(12, 12, 6),
                        16,
                        64,
                    ),
                    ScenarioScale::SmallTest => (small_machine().with_resources(6, 4, 2), 8, 16),
                };
                ScenarioSpec::machine(
                    "cost_fidelity_pareto",
                    machine.with_modular(
                        ModularSpec::single()
                            .with_latency_ns(800)
                            .with_teleporter_slots(2)
                            .with_inter_fidelity(0.98),
                    ),
                    WorkloadSpec::Synthetic {
                        qubits,
                        comms,
                        seed: 2006,
                    },
                )
                .with_axis(ScenarioAxis::Topologies {
                    kinds: TopologyKind::ALL.to_vec(),
                })
                .with_axis(ScenarioAxis::Modules { counts: vec![2, 4] })
                .with_axis(ScenarioAxis::InterTierCost {
                    costs: vec![1.0, 4.0, 16.0],
                })
            },
        },
        ScenarioEntry {
            name: "design_space",
            figure: "—",
            summary: "Grid × purifier depth × resource units over the simulator",
            build: |scale| {
                let (edges, depths, units): (Vec<u16>, Vec<u32>, Vec<u32>) = match scale {
                    ScenarioScale::Full => (vec![4, 5, 6, 8], vec![1, 2, 3, 4], vec![2, 4, 8, 16]),
                    ScenarioScale::SmallTest => (vec![4, 5], vec![1, 2], vec![2, 4]),
                };
                ScenarioSpec::machine(
                    "design_space",
                    MachineSpec::preset(NetPreset::SmallTest),
                    WorkloadSpec::Qft { qubits: 16 },
                )
                .with_seed(2006)
                .with_axis(ScenarioAxis::GridEdges { edges })
                .with_axis(ScenarioAxis::PurifyDepths { depths })
                .with_axis(ScenarioAxis::Units { units })
            },
        },
    ]
}

fn channel_figure(scale: ScenarioScale, name: &str, metric: PairMetric) -> ScenarioSpec {
    let max_hops = match scale {
        ScenarioScale::Full => 60,
        ScenarioScale::SmallTest => 24,
    };
    ScenarioSpec::channel(name, PurifyPlacement::EndpointsOnly, 16, metric)
        .with_axis(ScenarioAxis::Placements {
            placements: PurifyPlacement::FIGURE_SET.to_vec(),
        })
        .with_axis(ScenarioAxis::Hops {
            hops: (10..=max_hops).step_by(2).collect(),
        })
}
