//! The **Scenario API**: one declarative, serializable entry point for
//! every experiment.
//!
//! The paper's results are all instances of one shape — *machine ×
//! fabric × routing × workload × purification strategy, swept and
//! measured*. This module makes that shape data instead of code:
//!
//! * [`ScenarioSpec`] describes an experiment completely — machine
//!   scale and placement, [`qic_net::topology::TopologyKind`] +
//!   [`qic_net::routing::RoutingPolicy`], workload (QFT / MM / ME /
//!   Shor / synthetic or raw batch traffic), purification strategy,
//!   sweep axes, replicates and seeding — and round-trips through JSON
//!   ([`ScenarioSpec::to_json`] / [`ScenarioSpec::from_json`]);
//! * [`run`] is the entry point: validate, build the campaign,
//!   evaluate deterministically, return a [`ScenarioReport`];
//!   [`run_with`] adds the [`qic_sweep::RunOptions`] (shared executor,
//!   shard, budget, progress, cancel) for services and fan-out;
//! * [`ScenarioRegistry`] names the presets (`fig10`…`fig16`,
//!   `topology_faceoff`, and studies the legacy per-figure functions
//!   could not express, like the Figure 16 sweep on a torus).
//!
//! Figure presets reproduce the legacy campaign outputs **byte for
//! byte** (golden-file tests in the workspace root hold the line).
//!
//! # Example
//!
//! ```
//! use qic_core::scenario::{self, ScenarioRegistry, ScenarioScale};
//!
//! let spec = ScenarioRegistry::builtin()
//!     .spec("topology_faceoff", ScenarioScale::SmallTest)
//!     .expect("registered");
//! // The spec is data: serialize it, ship it, edit it, rerun it.
//! let same = scenario::ScenarioSpec::from_json(&spec.to_json())?;
//! assert_eq!(spec, same);
//! let report = scenario::run(&same)?;
//! assert_eq!(report.report.points.len(), 6); // 3 fabrics × 2 policies
//! # Ok::<(), qic_core::scenario::ScenarioError>(())
//! ```

mod codec;
mod digest;
mod registry;
mod runner;
mod spec;

// The strict JSON model the spec codec (`codec`) is built on lives in
// `qic-des` (`qic_des::json`, re-exported as `qic_sweep::json`), where
// every other document codec shares it; the error type stays
// re-exported here so `ScenarioError::Json` keeps its established path.
pub use digest::SpecDigest;
pub use qic_sweep::json::JsonError;
pub use registry::{fig16_spec, ScenarioEntry, ScenarioRegistry, ScenarioScale};
pub use runner::{run, run_with, ScenarioProgress, ScenarioReport};
pub use spec::{
    ratio_resources, CheckpointSpec, ExperimentSpec, MachineSpec, NetPreset, ObserveSpec,
    ScenarioAxis, ScenarioError, ScenarioSpec, WorkloadSpec,
};

#[cfg(test)]
mod tests {
    use super::*;
    use qic_analytic::figures::PairMetric;
    use qic_analytic::strategy::PurifyPlacement;
    use qic_net::routing::RoutingPolicy;
    use qic_net::topology::TopologyKind;

    use crate::layout::Layout;

    #[test]
    fn registry_has_the_promised_coverage() {
        let registry = ScenarioRegistry::builtin();
        assert!(registry.entries().len() >= 8);
        let mut fabrics = std::collections::HashSet::new();
        let mut routings = std::collections::HashSet::new();
        for entry in registry.entries() {
            for scale in [ScenarioScale::Full, ScenarioScale::SmallTest] {
                let spec = entry.spec(scale);
                spec.validate()
                    .unwrap_or_else(|e| panic!("{} at {scale:?}: {e}", entry.name));
                if let ExperimentSpec::Machine { machine, .. } = &spec.experiment {
                    fabrics.insert(machine.topology);
                    routings.insert(machine.routing);
                }
                for axis in &spec.axes {
                    match axis {
                        ScenarioAxis::Topologies { kinds } => fabrics.extend(kinds.iter()),
                        ScenarioAxis::Routings { policies } => routings.extend(policies.iter()),
                        _ => {}
                    }
                }
            }
        }
        assert_eq!(fabrics.len(), TopologyKind::ALL.len(), "{fabrics:?}");
        assert_eq!(routings.len(), RoutingPolicy::ALL.len(), "{routings:?}");
    }

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let registry = ScenarioRegistry::builtin();
        for entry in registry.entries() {
            assert!(registry.get(entry.name).is_some());
            assert_eq!(
                registry
                    .entries()
                    .iter()
                    .filter(|e| e.name == entry.name)
                    .count(),
                1,
                "duplicate registry name {}",
                entry.name
            );
        }
        assert!(registry.get("nope").is_none());
        assert!(registry.spec("nope", ScenarioScale::Full).is_none());
    }

    #[test]
    fn every_registry_spec_round_trips_json() {
        for entry in ScenarioRegistry::builtin().entries() {
            for scale in [ScenarioScale::Full, ScenarioScale::SmallTest] {
                let spec = entry.spec(scale);
                let json = spec.to_json();
                let back = ScenarioSpec::from_json(&json)
                    .unwrap_or_else(|e| panic!("{} at {scale:?}: {e}\n{json}", entry.name));
                assert_eq!(spec, back, "{} at {scale:?}", entry.name);
            }
        }
    }

    #[test]
    fn a_megabyte_spec_field_decodes_in_linear_time() {
        let mut spec = ScenarioRegistry::builtin()
            .spec("design_space", ScenarioScale::SmallTest)
            .unwrap();
        spec.name = "n".repeat(1_000_000);
        let json = spec.to_json();
        let start = std::time::Instant::now();
        let back = ScenarioSpec::from_json(&json).unwrap();
        let took = start.elapsed();
        assert_eq!(back, spec);
        assert!(took.as_secs_f64() < 2.0, "a 1 MB name took {took:?}");
    }

    #[test]
    fn observe_blocks_round_trip_and_validate() {
        let spec = ScenarioRegistry::builtin()
            .spec("synthetic_stress", ScenarioScale::SmallTest)
            .unwrap()
            .with_observe(ObserveSpec::to_dir("target/observe_codec").with_bins(16));
        spec.validate().unwrap();
        let json = spec.to_json();
        assert!(json.contains("\"observe\""));
        assert_eq!(ScenarioSpec::from_json(&json).unwrap(), spec);

        // Unobserved documents never mention the field.
        let plain = ScenarioRegistry::builtin()
            .spec("synthetic_stress", ScenarioScale::SmallTest)
            .unwrap();
        assert!(!plain.to_json().contains("observe"));

        // Validation rejects the degenerate settings.
        let mut bad = spec.clone();
        bad.observe.as_mut().unwrap().dir.clear();
        assert!(bad.validate().is_err(), "empty dir must fail");
        let mut bad = spec.clone();
        bad.observe.as_mut().unwrap().bins = 0;
        assert!(bad.validate().is_err(), "zero bins must fail");
        let channel = ScenarioSpec::channel(
            "ch",
            PurifyPlacement::VirtualWire { rounds: 1 },
            20,
            PairMetric::TotalPairs,
        )
        .with_observe(ObserveSpec::to_dir("target/observe_codec"));
        assert!(
            channel.validate().is_err(),
            "channel scenarios have nothing to trace"
        );
    }

    #[test]
    fn checkpoint_blocks_round_trip_and_validate() {
        let spec = ScenarioRegistry::builtin()
            .spec("synthetic_stress", ScenarioScale::SmallTest)
            .unwrap()
            .with_checkpoint(CheckpointSpec::to_dir("target/ckpt_codec").with_every(4));
        spec.validate().unwrap();
        let json = spec.to_json();
        assert!(json.contains("\"checkpoint\""));
        assert_eq!(ScenarioSpec::from_json(&json).unwrap(), spec);

        // Uncheckpointed documents never mention the field.
        let plain = ScenarioRegistry::builtin()
            .spec("synthetic_stress", ScenarioScale::SmallTest)
            .unwrap();
        assert!(!plain.to_json().contains("checkpoint"));

        // Unknown fields inside the block are rejected, not ignored.
        let doctored = json.replacen("\"every\"", "\"evry\"", 1);
        assert!(ScenarioSpec::from_json(&doctored).is_err());

        // Validation rejects the degenerate settings.
        let mut bad = spec.clone();
        bad.checkpoint.as_mut().unwrap().dir.clear();
        assert!(bad.validate().is_err(), "empty dir must fail");
        let mut bad = spec.clone();
        bad.checkpoint.as_mut().unwrap().every = 0;
        assert!(bad.validate().is_err(), "zero interval must fail");

        // Channel scenarios checkpoint too — the closed-form model is
        // cheap, but resumability is a property of the campaign, not of
        // what a point evaluates.
        let channel = ScenarioSpec::channel(
            "ch",
            PurifyPlacement::VirtualWire { rounds: 1 },
            20,
            PairMetric::TotalPairs,
        )
        .with_checkpoint(CheckpointSpec::to_dir("target/ckpt_codec"));
        channel.validate().unwrap();
    }

    #[test]
    fn run_is_the_single_entry_point_for_both_families() {
        // A machine scenario …
        let machine = ScenarioRegistry::builtin()
            .spec("synthetic_stress", ScenarioScale::SmallTest)
            .unwrap();
        let report = run(&machine).unwrap();
        assert_eq!(report.report.points.len(), 3);
        for p in &report.report.points {
            assert!(p.mean("makespan_us").unwrap() > 0.0);
        }
        // … and an analytic channel scenario go through the same door.
        let channel = ScenarioSpec::channel(
            "one_point",
            PurifyPlacement::VirtualWire { rounds: 1 },
            20,
            PairMetric::TotalPairs,
        );
        let report = run(&channel).unwrap();
        assert_eq!(report.report.points.len(), 1);
        assert!(report.report.points[0].mean("pairs").unwrap() > 0.0);
        assert!(report.to_csv().starts_with("index,"));
        assert!(report.to_json().starts_with("{\n"));
    }

    #[test]
    fn batch_traffic_drives_the_simulator_directly() {
        let spec = ScenarioSpec::machine(
            "crossing_batch",
            MachineSpec::preset(NetPreset::SmallTest),
            WorkloadSpec::Batch {
                comms: vec![((0, 0), (3, 3)), ((3, 0), (0, 3))],
            },
        )
        .with_axis(ScenarioAxis::Topologies {
            kinds: vec![TopologyKind::Mesh, TopologyKind::Torus],
        });
        let report = run(&spec).unwrap();
        assert_eq!(report.report.points.len(), 2);
        for p in &report.report.points {
            assert_eq!(p.mean("comms_completed"), Some(2.0));
        }
    }

    #[test]
    fn validation_rejects_bad_specs_with_context() {
        // Channel axis on a machine experiment.
        let spec = ScenarioSpec::machine(
            "mixed",
            MachineSpec::preset(NetPreset::SmallTest),
            WorkloadSpec::Qft { qubits: 8 },
        )
        .with_axis(ScenarioAxis::Hops { hops: vec![4] });
        assert!(matches!(
            spec.validate().unwrap_err(),
            ScenarioError::Spec { .. }
        ));

        // A sweep point whose config fails qic-net validation: the
        // hypercube needs a power-of-two node count.
        let spec = ScenarioSpec::machine(
            "bad_grid",
            MachineSpec::preset(NetPreset::SmallTest).with_grid(5, 4),
            WorkloadSpec::Qft { qubits: 8 },
        )
        .with_axis(ScenarioAxis::Topologies {
            kinds: vec![TopologyKind::Mesh, TopologyKind::Hypercube],
        });
        let err = spec.validate().unwrap_err();
        match &err {
            ScenarioError::Config {
                scenario,
                point,
                source,
            } => {
                assert_eq!(scenario, "bad_grid");
                assert!(point.as_deref().unwrap().contains("hypercube"), "{point:?}");
                assert_eq!(source.field_name(), "topology");
            }
            other => panic!("expected config error, got {other}"),
        }
        assert!(err.to_string().contains("bad_grid"));
        assert!(std::error::Error::source(&err).is_some());

        // A workload that does not fit the grid.
        let spec = ScenarioSpec::machine(
            "too_big",
            MachineSpec::preset(NetPreset::SmallTest),
            WorkloadSpec::Qft { qubits: 64 },
        );
        let err = spec.validate().unwrap_err();
        assert!(err.to_string().contains("16 sites"), "{err}");

        // Batch traffic off the grid.
        let spec = ScenarioSpec::machine(
            "off_grid",
            MachineSpec::preset(NetPreset::SmallTest),
            WorkloadSpec::Batch {
                comms: vec![((0, 0), (9, 9))],
            },
        );
        assert!(spec.validate().is_err());

        // run() refuses invalid specs instead of panicking mid-campaign.
        assert!(run(&spec).is_err());

        // Ratios that would truncate in u32 arithmetic are rejected, not
        // silently wrapped.
        let spec = ScenarioSpec::machine(
            "huge_ratio",
            MachineSpec::preset(NetPreset::SmallTest),
            WorkloadSpec::Qft { qubits: 8 },
        )
        .with_axis(ScenarioAxis::ResourceRatio {
            area: 36,
            ratios: vec![0, 1i64 << 32],
        });
        assert!(spec.validate().unwrap_err().to_string().contains("u32"));

        // Zero-instruction synthetic traffic is as degenerate as an
        // empty batch.
        let spec = ScenarioSpec::machine(
            "empty_synthetic",
            MachineSpec::preset(NetPreset::SmallTest),
            WorkloadSpec::Synthetic {
                qubits: 8,
                comms: 0,
                seed: 1,
            },
        );
        assert!(spec.validate().is_err());

        // A degenerate error-rate axis gets the specific diagnosis, not
        // the generic "axis has no values".
        let spec = ScenarioSpec::channel(
            "bad_exponents",
            PurifyPlacement::EndpointsOnly,
            16,
            PairMetric::TeleportedPairs,
        )
        .with_axis(ScenarioAxis::ErrorRateLog {
            start_exp: -4,
            stop_exp: -9,
            per_decade: 4,
        });
        let err = spec.validate().unwrap_err().to_string();
        assert!(err.contains("stop_exp > start_exp"), "{err}");
    }

    #[test]
    fn json_rejects_unknown_fields_and_kinds() {
        let spec = ScenarioRegistry::builtin()
            .spec("fig12", ScenarioScale::SmallTest)
            .unwrap();
        let json = spec.to_json();
        let typo = json.replace("\"replicates\"", "\"replicants\"");
        assert!(matches!(
            ScenarioSpec::from_json(&typo),
            Err(ScenarioError::Json(_))
        ));
        let bad_kind = json.replace("\"channel\"", "\"chanel\"");
        assert!(ScenarioSpec::from_json(&bad_kind).is_err());
        assert!(ScenarioSpec::from_json("not json").is_err());
        assert!(matches!(
            ScenarioSpec::from_json(&"[".repeat(100_000)),
            Err(ScenarioError::Json(_))
        ));
    }

    #[test]
    fn ratio_resources_matches_the_paper_axis() {
        assert_eq!(ratio_resources(0, 90), (1024, 1024, 1024));
        assert_eq!(ratio_resources(1, 90), (30, 30, 30));
        assert_eq!(ratio_resources(2, 90), (36, 36, 18));
        assert_eq!(ratio_resources(4, 90), (40, 40, 10));
        assert_eq!(ratio_resources(8, 90), (40, 40, 5));
        assert_eq!(ratio_resources(1, 36), (12, 12, 12));
        assert_eq!(ratio_resources(8, 36), (16, 16, 2));
    }

    #[test]
    fn workload_axis_changes_the_program_per_point() {
        let spec = ScenarioRegistry::builtin()
            .spec("shor_kernel", ScenarioScale::SmallTest)
            .unwrap();
        let report = run(&spec).unwrap();
        // 2 layouts × 4 workloads.
        assert_eq!(report.report.points.len(), 8);
        let comms = |idx: usize| report.report.points[idx].mean("comms_completed").unwrap();
        // QFT-4 (6 instructions) completes fewer comms than the Shor
        // kernel (ME + QFT), whatever the layout.
        assert!(comms(0) < comms(3));
    }

    #[test]
    fn specs_with_explicit_layouts_round_trip_behaviour() {
        // The same spec, serialized and re-run, produces the identical
        // report (the whole point of a declarative scenario).
        let spec = ScenarioRegistry::builtin()
            .spec("fig16", ScenarioScale::SmallTest)
            .unwrap();
        let direct = run(&spec).unwrap();
        let reloaded = run(&ScenarioSpec::from_json(&spec.to_json()).unwrap()).unwrap();
        assert_eq!(direct.report.to_json(), reloaded.report.to_json());
        assert_eq!(direct.report.to_csv(), reloaded.report.to_csv());
    }

    #[test]
    fn fault_scenarios_report_resilience_metrics() {
        let spec = ScenarioRegistry::builtin()
            .spec("resilience_sweep", ScenarioScale::SmallTest)
            .unwrap();
        let report = run(&spec).unwrap();
        assert_eq!(report.report.points.len(), 9, "3 rates × 3 fabrics");
        for p in &report.report.points {
            // Every point (including rate 0) reports the fault columns,
            // and the accounting always closes.
            let delivered = p.mean("comms_delivered").unwrap();
            let dropped = p.mean("comms_dropped").unwrap();
            assert_eq!(delivered + dropped, p.mean("comms_completed").unwrap());
            assert!(p.mean("route_inflation").unwrap() >= 0.0);
        }
        // The rate-0 column is the healthy machine: nothing drops,
        // nothing detours.
        let p0 = &report.report.points[0];
        assert_eq!(p0.param("fault_rate").as_f64(), Some(0.0));
        assert_eq!(p0.mean("comms_dropped"), Some(0.0));
        assert_eq!(p0.mean("comms_rerouted"), Some(0.0));
        assert_eq!(p0.mean("route_inflation"), Some(1.0));
    }

    #[test]
    fn degraded_faceoff_covers_every_fabric_and_policy() {
        let spec = ScenarioRegistry::builtin()
            .spec("degraded_faceoff", ScenarioScale::SmallTest)
            .unwrap();
        let report = run(&spec).unwrap();
        assert_eq!(report.report.points.len(), 6);
        // The damage is real: at least one point loses communications
        // or detours (the plan kills 10% of links and 5% of nodes).
        let damaged = report.report.points.iter().any(|p| {
            p.mean("comms_dropped").unwrap_or(0.0) > 0.0
                || p.mean("comms_rerouted").unwrap_or(0.0) > 0.0
        });
        assert!(damaged, "the degraded faceoff must show damage");
    }

    #[test]
    fn fault_specs_round_trip_json_with_plans() {
        use qic_fault::{FaultPlan, Hotspot};
        let spec = ScenarioSpec::machine(
            "fault_round_trip",
            MachineSpec::preset(NetPreset::SmallTest).with_fault(
                FaultPlan::healthy()
                    .with_seed(99)
                    .with_link_kill(0.125)
                    .with_teleporter_loss(0.25)
                    .with_dead_node(3)
                    .with_hotspot(Hotspot {
                        link: 1,
                        start_ns: 100,
                        end_ns: 200_000,
                        penalty_ns: 1_500,
                    }),
            ),
            WorkloadSpec::Qft { qubits: 8 },
        )
        .with_axis(ScenarioAxis::FaultRate {
            rates: vec![0.0, 0.125, 0.5],
        });
        spec.validate().unwrap();
        let back = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(spec, back, "fault plans survive the JSON codec");
    }

    #[test]
    fn fault_validation_rejects_bad_plans() {
        use qic_fault::FaultPlan;
        // Rates above 1 are not probabilities (axis and plan alike).
        let spec = ScenarioSpec::machine(
            "bad_rate",
            MachineSpec::preset(NetPreset::SmallTest),
            WorkloadSpec::Qft { qubits: 8 },
        )
        .with_axis(ScenarioAxis::FaultRate { rates: vec![1.5] });
        assert!(spec.validate().unwrap_err().to_string().contains("[0, 1]"));

        // Explicit components must exist on the point's fabric.
        let spec = ScenarioSpec::machine(
            "off_fabric",
            MachineSpec::preset(NetPreset::SmallTest)
                .with_fault(FaultPlan::healthy().with_dead_link(10_000)),
            WorkloadSpec::Qft { qubits: 8 },
        );
        let err = spec.validate().unwrap_err().to_string();
        assert!(err.contains("dead link 10000"), "{err}");

        // Masking plans need ≥ 2 teleporters (bubble flow control); a
        // single-teleporter machine is already rejected by the
        // port-class coverage rule, which subsumes it.
        let mut machine = MachineSpec::preset(NetPreset::SmallTest)
            .with_fault(FaultPlan::healthy().with_link_kill(0.1));
        machine.teleporters = 1;
        let spec = ScenarioSpec::machine("starved", machine, WorkloadSpec::Qft { qubits: 8 });
        assert!(spec.validate().is_err());

        // A FaultRate axis on a channel experiment is rejected.
        let spec = ScenarioSpec::channel(
            "channel_faults",
            PurifyPlacement::EndpointsOnly,
            16,
            PairMetric::TotalPairs,
        )
        .with_axis(ScenarioAxis::FaultRate { rates: vec![0.1] });
        assert!(spec.validate().is_err());
    }

    #[test]
    fn layout_labels_round_trip() {
        for layout in Layout::ALL {
            assert_eq!(Layout::parse(&layout.to_string()), Some(layout));
        }
        assert_eq!(Layout::parse("homebase"), None);
    }
}
