//! Differential suite for the modular layer. The contract under test:
//! a 1-module composition with an ideal inter tier is *the same
//! machine* as the flat fabric — byte-identical reports at both the
//! simulator and scenario layers — and the modular presets keep the
//! campaign determinism and service-cache contracts of every other
//! scenario.

use qic::net::config::NetConfig;
use qic::net::sim::{BatchDriver, NetworkSim};
use qic::prelude::*;

/// The degenerate composition: one module, zero-latency/unit-fidelity
/// inter tier, no cost columns.
fn degenerate() -> ModularSpec {
    ModularSpec::single().with_report_cost(false)
}

/// K=1 + ideal tier: the simulator must emit an equal `NetReport` for
/// the flat fabric and its degenerate composition, on every base
/// topology under every routing policy.
#[test]
fn one_module_matches_flat_fabric_on_every_policy() {
    let pairs = vec![
        (Coord::new(0, 0), Coord::new(3, 3)),
        (Coord::new(1, 2), Coord::new(2, 0)),
        (Coord::new(3, 1), Coord::new(0, 2)),
        (Coord::new(2, 2), Coord::new(2, 2)),
    ];
    for kind in TopologyKind::ALL {
        for policy in RoutingPolicy::ALL {
            let cfg = NetConfig::small_test()
                .with_topology(kind)
                .with_routing(policy);
            let mut driver = BatchDriver::new(pairs.clone());
            let flat = NetworkSim::new(cfg.clone()).run(&mut driver);
            let composed = ModularFabric::new(cfg.fabric(), &degenerate());
            let mut driver = BatchDriver::new(pairs.clone());
            let modular = NetworkSim::with_topology(cfg, composed).run(&mut driver);
            assert_eq!(flat, modular, "{kind} × {policy} diverged");
        }
    }
}

/// The same contract one layer up: a scenario whose machine carries a
/// degenerate modular block produces byte-identical report JSON/CSV to
/// the block-free spec, across the full topology × routing sweep
/// (program workload, so the scheduler path is covered too).
#[test]
fn degenerate_modular_scenario_is_byte_identical_to_flat() {
    let machine = MachineSpec::preset(NetPreset::SmallTest)
        .with_purify_depth(2)
        .with_outputs_per_comm(3);
    let sweep = |machine: MachineSpec| {
        ScenarioSpec::machine("modular_diff", machine, WorkloadSpec::Qft { qubits: 16 })
            .with_axis(ScenarioAxis::Topologies {
                kinds: TopologyKind::ALL.to_vec(),
            })
            .with_axis(ScenarioAxis::Routings {
                policies: RoutingPolicy::ALL.to_vec(),
            })
    };
    let flat = qic::run(&sweep(machine.clone())).expect("flat spec validates");
    let modular =
        qic::run(&sweep(machine.with_modular(degenerate()))).expect("modular spec validates");
    assert_eq!(
        flat.report.to_json(),
        modular.report.to_json(),
        "degenerate modular reports must be byte-identical"
    );
    assert_eq!(flat.report.to_csv(), modular.report.to_csv());
}

/// Both modular presets honour the campaign determinism contract:
/// byte-identical reports at 1 and 4 workers, and the Pareto preset
/// carries its cost/fidelity/latency columns in every point.
#[test]
fn modular_presets_are_worker_count_independent() {
    for name in ["modular_faceoff", "cost_fidelity_pareto"] {
        let spec = ScenarioRegistry::builtin()
            .spec(name, ScenarioScale::SmallTest)
            .expect("registered");
        let serial = qic::run(&spec.clone().with_workers(1))
            .expect("validates")
            .report;
        let parallel = qic::run(&spec.with_workers(4)).expect("validates").report;
        assert_eq!(serial.to_json(), parallel.to_json(), "{name}: JSON drifted");
        assert_eq!(serial.to_csv(), parallel.to_csv(), "{name}: CSV drifted");
        for point in &parallel.points {
            for metric in ["cost_dollars", "fidelity", "predicted_latency_ns"] {
                let v = point
                    .mean(metric)
                    .unwrap_or_else(|| panic!("{name}: point missing {metric}"));
                assert!(v > 0.0, "{name}: nonsense {metric} {v}");
            }
            let f = point.mean("fidelity").unwrap();
            assert!(f <= 1.0, "{name}: fidelity {f} > 1");
        }
    }
}

/// More modules must cost more dollars and (with a lossy inter tier)
/// estimate lower end-to-end fidelity — the two ends of the Pareto
/// trade the sweep exists to chart.
#[test]
fn pareto_preset_trades_cost_against_fidelity() {
    let spec = ScenarioRegistry::builtin()
        .spec("cost_fidelity_pareto", ScenarioScale::SmallTest)
        .expect("registered");
    let report = qic::run(&spec).expect("validates").report;
    let mesh_at = |modules: i64| {
        report
            .points
            .iter()
            .find(|p| {
                p.param("topology").as_text() == Some("mesh")
                    && p.param("modules").as_i64() == Some(modules)
                    && p.param("inter_cost").as_f64() == Some(4.0)
            })
            .unwrap_or_else(|| panic!("mesh × {modules} modules × cost 4 swept"))
    };
    let (two, four) = (mesh_at(2), mesh_at(4));
    assert!(four.mean("cost_dollars") > two.mean("cost_dollars"));
    assert!(four.mean("fidelity") < two.mean("fidelity"));
}

/// A dead module masks every one of its nodes: communications into the
/// dead half drop, while the healthy plan reports zero drops on the
/// same composed machine.
#[test]
fn dead_module_drops_cross_module_traffic() {
    let machine = || {
        MachineSpec::preset(NetPreset::SmallTest)
            .with_purify_depth(2)
            .with_outputs_per_comm(3)
            .with_resources(6, 4, 2)
            .with_modular(ModularSpec::single().with_modules(2).with_latency_ns(500))
    };
    let run = |plan: FaultPlan| {
        let spec = ScenarioSpec::machine(
            "dead_module",
            machine().with_fault(plan),
            WorkloadSpec::Synthetic {
                qubits: 8,
                comms: 16,
                seed: 2006,
            },
        );
        qic::run(&spec).expect("validates").report
    };
    let healthy = run(FaultPlan::healthy());
    assert_eq!(healthy.points[0].mean("comms_dropped"), Some(0.0));
    let masked = run(FaultPlan::healthy().with_dead_module(1));
    assert!(
        masked.points[0].mean("comms_dropped").unwrap() > 0.0,
        "half the machine is gone; some synthetic traffic must drop"
    );
}

/// Structured validation: a dead-module index beyond the composed
/// machine is rejected at spec level, not at panic time.
#[test]
fn out_of_range_dead_module_is_a_spec_error() {
    let spec = ScenarioSpec::machine(
        "bad_dead_module",
        MachineSpec::preset(NetPreset::SmallTest)
            .with_purify_depth(2)
            .with_outputs_per_comm(3)
            .with_resources(6, 4, 2)
            .with_modular(ModularSpec::single().with_modules(2))
            .with_fault(FaultPlan::healthy().with_dead_module(2)),
        WorkloadSpec::Qft { qubits: 16 },
    );
    let err = spec
        .validate()
        .expect_err("module 2 of 2 is off the machine");
    assert!(
        err.to_string().contains("dead module 2"),
        "unexpected error: {err}"
    );
}

/// The service layer's content-addressed cache treats the modular block
/// as spec identity: resubmitting `cost_fidelity_pareto` is a cache hit
/// with byte-identical embedded report documents.
#[test]
fn pareto_preset_hits_the_serve_cache() {
    use qic::serve::{serve_lines, Serve, ServeConfig};
    use std::io::Cursor;

    let serve = Serve::start(ServeConfig::default());
    let script = concat!(
        "{\"op\": \"submit\", \"preset\": \"cost_fidelity_pareto\", \"scale\": \"small\"}\n",
        "{\"op\": \"wait\", \"job\": 1}\n",
        "{\"op\": \"submit\", \"preset\": \"cost_fidelity_pareto\", \"scale\": \"small\"}\n",
        "{\"op\": \"wait\", \"job\": 2}\n",
        "{\"op\": \"shutdown\"}\n",
    );
    let mut out = Vec::new();
    serve_lines(&serve.handle(), Cursor::new(script), &mut out, None).expect("session runs");
    serve.shutdown();

    let out = String::from_utf8(out).expect("utf8 events");
    let results: Vec<&str> = out
        .lines()
        .filter(|l| l.contains("\"event\": \"result\""))
        .collect();
    assert_eq!(results.len(), 2, "both waits resolve:\n{out}");
    assert!(results[0].contains("\"state\": \"done\""));
    assert!(
        results[1].contains("\"source\": \"memory\"")
            || results[1].contains("\"source\": \"coalesced\""),
        "resubmission is served without recomputation:\n{}",
        results[1]
    );
    let report_of = |line: &str| {
        let fields = qic::sweep::json::Json::parse(line).expect("event parses");
        let fields = fields.obj_of("event").expect("object");
        qic::sweep::json::get(fields, "report", "result")
            .expect("done events embed the report")
            .str_of("report")
            .expect("string")
            .to_string()
    };
    assert_eq!(report_of(results[0]), report_of(results[1]));
}

/// `axis` pinned to its value at `coord`: a one-value axis with the
/// same campaign name.
fn pin(axis: &ScenarioAxis, coord: usize) -> ScenarioAxis {
    match axis {
        ScenarioAxis::Topologies { kinds } => ScenarioAxis::Topologies {
            kinds: vec![kinds[coord]],
        },
        ScenarioAxis::Modules { counts } => ScenarioAxis::Modules {
            counts: vec![counts[coord]],
        },
        ScenarioAxis::InterTierCost { costs } => ScenarioAxis::InterTierCost {
            costs: vec![costs[coord]],
        },
        ScenarioAxis::FaultRate { rates } => ScenarioAxis::FaultRate {
            rates: vec![rates[coord]],
        },
        other => panic!("no pin for {other:?}"),
    }
}

/// A metric set as `(name, bits)` pairs, so equality is bit-for-bit.
fn bits(m: &Metrics) -> Vec<(String, u64)> {
    m.iter()
        .map(|(n, v)| (n.to_string(), v.to_bits()))
        .collect()
}

/// A run simulates each distinct machine once, and the replicates and
/// cost values of one machine read that simulation. Whatever was
/// shared, every replicate of every point must equal a one-point,
/// one-replicate run of that point alone, where nothing can be shared;
/// and the report stays byte-identical at 1 and 2 workers.
#[test]
fn shared_simulations_match_points_run_alone() {
    for name in ["cost_fidelity_pareto", "resilience_sweep"] {
        let spec = ScenarioRegistry::builtin()
            .spec(name, ScenarioScale::SmallTest)
            .expect("registered")
            .with_replicates(2);
        let serial = qic::run(&spec.clone().with_workers(1))
            .expect("validates")
            .report;
        let parallel = qic::run(&spec.clone().with_workers(2))
            .expect("validates")
            .report;
        assert_eq!(serial.to_json(), parallel.to_json(), "{name}: JSON drifted");
        assert_eq!(serial.to_csv(), parallel.to_csv(), "{name}: CSV drifted");
        let space = spec.param_space();
        for point in &serial.points {
            let coords = space.point(point.index);
            let mut alone = spec.clone().with_replicates(1);
            alone.axes = (spec.axes.iter().enumerate())
                .map(|(a, axis)| pin(axis, coords.coord(a)))
                .collect();
            let alone = qic::run(&alone).expect("validates").report;
            assert_eq!(alone.points[0].params, point.params);
            let expected = bits(&alone.points[0].replicates[0]);
            for (r, replicate) in point.replicates.iter().enumerate() {
                assert_eq!(
                    bits(replicate),
                    expected,
                    "{name}: point {} replicate {r} differs from the point run alone",
                    point.index
                );
            }
        }
    }
}

/// Observed runs simulate every `(point, replicate)`: sharing never
/// costs a point its own trace files.
#[test]
fn observed_pareto_run_traces_every_point_and_replicate() {
    let dir = std::env::temp_dir().join(format!("qic_shared_obs_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = ScenarioRegistry::builtin()
        .spec("cost_fidelity_pareto", ScenarioScale::SmallTest)
        .expect("registered")
        .with_replicates(2)
        .with_workers(2)
        .with_observe(ObserveSpec::to_dir(dir.display().to_string()));
    let points = qic::run(&spec).expect("validates").report.points.len();
    for point in 0..points {
        for replicate in 0..2 {
            for ext in ["events.jsonl", "trace.json"] {
                let path = dir.join(format!(
                    "cost_fidelity_pareto_p{point:04}_r{replicate}.{ext}"
                ));
                assert!(path.is_file(), "missing {}", path.display());
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
