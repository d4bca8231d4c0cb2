//! Property tests for the Scenario API: every spec — arbitrary
//! topology × routing × workload × scale × sweep axis, with or without
//! a fault plan and a modular block — round-trips losslessly through
//! JSON, and valid specs stay valid across the round trip.

use proptest::prelude::*;

use qic_analytic::figures::PairMetric;
use qic_analytic::strategy::PurifyPlacement;
use qic_core::scenario::{MachineSpec, NetPreset, ScenarioAxis, ScenarioSpec, WorkloadSpec};
use qic_core::Layout;
use qic_fault::{FaultPlan, Hotspot};
use qic_modular::{Interconnect, ModularSpec};
use qic_net::routing::RoutingPolicy;
use qic_net::topology::TopologyKind;

const PRESETS: [NetPreset; 3] = [NetPreset::Paper, NetPreset::Reduced, NetPreset::SmallTest];
const PLACEMENTS: [PurifyPlacement; 5] = PurifyPlacement::FIGURE_SET;
/// Distinct kinds `machine_axis_from` builds.
const MACHINE_AXES: u8 = 15;

fn workload_from(kind: u8, a: u32, b: u32, seed: u64) -> WorkloadSpec {
    // Parameters stay in range for validation-minded cases but are NOT
    // clamped to "sensible" — round-trip must hold for any encodable
    // value.
    match kind % 6 {
        0 => WorkloadSpec::Qft { qubits: 2 + a % 30 },
        1 => WorkloadSpec::ModMul {
            register: 1 + a % 15,
        },
        2 => WorkloadSpec::ModExp {
            register: 2 + a % 14,
            steps: 1 + b % 4,
        },
        3 => WorkloadSpec::Shor {
            register: 2 + a % 14,
            steps: 1 + b % 3,
        },
        4 => WorkloadSpec::Synthetic {
            qubits: 2 + a % 30,
            comms: 1 + b % 64,
            seed,
        },
        _ => WorkloadSpec::Batch {
            comms: vec![
                (
                    (a as u16 % 7, b as u16 % 7),
                    (1 + a as u16 % 6, 1 + b as u16 % 6),
                ),
                ((0, b as u16 % 4), (a as u16 % 4, 7)),
            ],
        },
    }
}

fn machine_axis_from(kind: u8, x: u32, y: u32, seed: u64) -> ScenarioAxis {
    match kind % MACHINE_AXES {
        0 => ScenarioAxis::ResourceRatio {
            area: 10 + x % 100,
            ratios: vec![0, 1 + i64::from(y % 7)],
        },
        1 => ScenarioAxis::Layouts {
            layouts: Layout::ALL.to_vec(),
        },
        2 => ScenarioAxis::Topologies {
            kinds: TopologyKind::ALL[..1 + (x as usize % 3)].to_vec(),
        },
        3 => ScenarioAxis::Routings {
            policies: RoutingPolicy::ALL.to_vec(),
        },
        4 => ScenarioAxis::GridEdges {
            edges: vec![4 + (x % 5) as u16, 4 + (y % 5) as u16],
        },
        5 => ScenarioAxis::PurifyDepths {
            depths: vec![1 + x % 4, 1 + y % 4],
        },
        6 => ScenarioAxis::Units {
            units: vec![2 + x % 16, 2 + y % 16],
        },
        7 => ScenarioAxis::Teleporters {
            values: vec![2 + x % 16],
        },
        8 => ScenarioAxis::Generators {
            values: vec![1 + x % 16],
        },
        9 => ScenarioAxis::Purifiers {
            values: vec![1 + x % 16],
        },
        10 => ScenarioAxis::Workloads {
            workloads: vec![
                workload_from(x as u8, x, y, seed),
                workload_from((x as u8).wrapping_add(1), y, x, seed ^ 0xabcd),
            ],
        },
        11 => ScenarioAxis::FaultRate {
            rates: vec![0.0, f64::from(x % 101) / 100.0, f64::from(y) / 1e6],
        },
        12 => ScenarioAxis::Modules {
            counts: vec![1, 1 + x % 8],
        },
        13 => ScenarioAxis::InterTierLatency {
            latencies_ns: vec![u64::from(x) * 10, seed >> 1],
        },
        _ => ScenarioAxis::InterTierCost {
            costs: vec![f64::from(x) * 0.5, f64::from(y) / 7.0],
        },
    }
}

/// A fault plan drawn from the case's parameters; `dead_modules` stays
/// empty (and out of the document) on every other plan.
fn fault_from(x: u32, y: u32, seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::healthy()
        .with_seed(seed)
        .with_link_kill(f64::from(x % 50) / 100.0)
        .with_node_loss(f64::from(y % 20) / 400.0)
        .with_teleporter_loss(f64::from(x % 7) / 8.0)
        .with_dead_link(x % 5)
        .with_dead_node(y % 5);
    if x % 2 == 1 {
        plan = plan.with_dead_module(y % 2);
    }
    if y % 3 != 0 {
        plan = plan.with_hotspot(Hotspot {
            link: y % 4,
            start_ns: u64::from(x),
            end_ns: u64::from(x) + 1 + seed % 1_000_000,
            penalty_ns: u64::from(y) * 3,
        });
    }
    plan
}

fn modular_from(x: u32, y: u32) -> ModularSpec {
    ModularSpec::single()
        .with_modules(1 + x % 4)
        .with_interconnect(if y % 2 == 0 {
            Interconnect::OpticalSwitch
        } else {
            Interconnect::FatTree { radix: 2 + y % 6 }
        })
        .with_latency_ns(u64::from(y) * 100)
        .with_teleporter_slots(1 + x % 3)
        .with_inter_fidelity(1.0 - f64::from(x % 100) / 1e4)
        .with_intra_fidelity(1.0 - f64::from(y % 100) / 1e5)
        .with_inter_unit_cost(f64::from(x) * 0.25)
        .with_report_cost(y % 3 != 0)
}

fn channel_axis_from(kind: u8, x: u32, y: u32) -> ScenarioAxis {
    match kind % 3 {
        0 => ScenarioAxis::Placements {
            placements: PLACEMENTS[..1 + (x as usize % 5)].to_vec(),
        },
        1 => ScenarioAxis::Hops {
            hops: vec![1 + x % 60, 1 + y % 60],
        },
        _ => ScenarioAxis::ErrorRateLog {
            start_exp: -9 + (x % 3) as i32,
            stop_exp: -4 + (y % 3) as i32,
            per_decade: 1 + x % 4,
        },
    }
}

fn machine_spec_from(sel: u32) -> MachineSpec {
    let preset = PRESETS[sel as usize % 3];
    MachineSpec::preset(preset)
        .with_grid(2 + (sel % 7) as u16, 2 + (sel / 7 % 7) as u16)
        .with_topology(TopologyKind::ALL[sel as usize % 3])
        .with_routing(RoutingPolicy::ALL[sel as usize % 2])
        .with_layout(Layout::ALL[sel as usize / 2 % 2])
        .with_resources(1 + sel % 9, 1 + sel / 3 % 9, 1 + sel / 5 % 9)
        .with_purify_depth(1 + sel % 5)
        .with_outputs_per_comm(1 + sel % 8)
}

fn spec_from(
    family: u8,
    sel: u32,
    axis_kinds: (u8, u8),
    axis_params: (u32, u32),
    seed: u64,
    blocks: u8,
) -> ScenarioSpec {
    let (k1, k2) = axis_kinds;
    let (x, y) = axis_params;
    if family % 2 == 0 {
        // Bit 0 attaches a fault plan, bit 1 a modular block.
        let mut machine = machine_spec_from(sel);
        if blocks & 1 != 0 {
            machine = machine.with_fault(fault_from(x, y, seed));
        }
        if blocks & 2 != 0 {
            machine = machine.with_modular(modular_from(y, x));
        }
        let workload = workload_from(sel as u8, x, y, seed);
        let mut spec = ScenarioSpec::machine(format!("prop_machine_{sel}"), machine, workload)
            .with_seed(seed)
            .with_replicates(1 + sel % 3)
            .with_workers(sel as usize % 5)
            .with_axis(machine_axis_from(k1, x, y, seed));
        // A second axis of a different kind (duplicates are a
        // validation concern, not a serialization one).
        if k2 % MACHINE_AXES != k1 % MACHINE_AXES {
            spec = spec.with_axis(machine_axis_from(k2, y, x, seed));
        }
        spec
    } else {
        let mut spec = ScenarioSpec::channel(
            format!("prop_channel_{sel}"),
            PLACEMENTS[sel as usize % 5],
            1 + sel % 60,
            if sel % 2 == 0 {
                PairMetric::TotalPairs
            } else {
                PairMetric::TeleportedPairs
            },
        )
        .with_seed(seed)
        .with_axis(channel_axis_from(k1, x, y));
        if k2 % 3 != k1 % 3 {
            spec = spec.with_axis(channel_axis_from(k2, y, x));
        }
        spec
    }
}

proptest! {
    #[test]
    fn any_spec_round_trips_losslessly(
        family in 0u8..2,
        sel in 0u32..10_000,
        kinds in (0u8..32, 0u8..32),
        params in (0u32..1_000, 0u32..1_000),
        seed in 0u64..u64::MAX,
        blocks in 0u8..4,
    ) {
        let spec = spec_from(family, sel, kinds, params, seed, blocks);
        let json = spec.to_json();
        let back = ScenarioSpec::from_json(&json)
            .unwrap_or_else(|e| panic!("{e}\n{json}"));
        prop_assert_eq!(&spec, &back, "round trip changed the spec");
        // Emission is deterministic: a second trip is byte-identical.
        prop_assert_eq!(json, back.to_json());
    }

    #[test]
    fn validation_survives_the_round_trip(
        family in 0u8..2,
        sel in 0u32..10_000,
        kinds in (0u8..32, 0u8..32),
        params in (0u32..1_000, 0u32..1_000),
        seed in 0u64..1_000_000,
        blocks in 0u8..4,
    ) {
        // Whatever validate() says about a spec, it must say the same
        // about its JSON round trip (no information loss that flips
        // validity either way).
        let spec = spec_from(family, sel, kinds, params, seed, blocks);
        let back = ScenarioSpec::from_json(&spec.to_json()).expect("round trip parses");
        prop_assert_eq!(
            spec.validate().is_ok(),
            back.validate().is_ok(),
            "round trip changed validity"
        );
    }
}
