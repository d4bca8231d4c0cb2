//! Cross-crate integration: the event-driven simulator must agree with
//! the analytical models wherever both apply.

use qic::prelude::*;
use qic_net::config::NetConfig;
use qic_net::sim::{NetworkSim, OneShotDriver};
use qic_net::topology::Coord;

#[test]
fn pair_accounting_matches_analytic_raw_counts() {
    // One channel, generous resources: the simulator must consume exactly
    // raw = outputs × 2^depth pairs over exactly raw × hops teleports.
    let mut cfg = NetConfig::small_test();
    cfg.teleporters_per_node = 64;
    cfg.generators_per_edge = 64;
    cfg.purifiers_per_site = 8;
    cfg.purify_depth = 3;
    cfg.outputs_per_comm = 7;
    let hops = 5u64;
    let mut driver = OneShotDriver::new(Coord::new(0, 0), Coord::new(3, 2));
    let report = NetworkSim::new(cfg.clone()).run(&mut driver);
    let raw = cfg.raw_pairs_per_comm();
    assert_eq!(raw, 56);
    assert_eq!(report.teleport_ops, raw * hops);
    assert_eq!(report.pairs_consumed, raw * hops);
    assert_eq!(report.purified_outputs, 7);
    // Queue purifier op count: (2^depth − 1) per output.
    assert_eq!(report.purify_ops, 7 * 7);
}

#[test]
fn uncontended_latency_is_near_the_analytic_setup_latency() {
    // With abundant resources, the simulated channel latency should be
    // within a small factor of the analytic pipeline estimate.
    let mut cfg = NetConfig::small_test();
    cfg.teleporters_per_node = 256;
    cfg.generators_per_edge = 256;
    cfg.purifiers_per_site = 64;
    cfg.purify_depth = 3;
    cfg.outputs_per_comm = 7;
    let mut driver = OneShotDriver::new(Coord::new(0, 0), Coord::new(3, 0));
    let report = NetworkSim::new(cfg).run(&mut driver);
    let model = ChannelModel::ion_trap();
    let plan = model.plan(3).expect("feasible");
    let sim = report.makespan.as_us_f64();
    let analytic = plan.setup_latency.as_us_f64();
    assert!(
        sim / analytic < 8.0 && analytic / sim < 8.0,
        "sim {sim}µs vs analytic {analytic}µs"
    );
}

/// A 4×4 paper-scale machine with the given resources.
fn four_by_four(t: u32, g: u32, p: u32) -> MachineSpec {
    MachineSpec::preset(NetPreset::Paper)
        .with_grid(4, 4)
        .with_resources(t, g, p)
}

#[test]
fn whole_stack_is_deterministic() {
    let spec = ScenarioSpec::machine(
        "deterministic",
        four_by_four(6, 6, 3)
            .with_outputs_per_comm(3)
            .with_purify_depth(2),
        WorkloadSpec::Qft { qubits: 12 },
    )
    .with_seed(99);
    let a = qic::run(&spec).expect("valid");
    let b = qic::run(&spec).expect("valid");
    assert_eq!(a, b);
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn starving_any_resource_slows_the_machine() {
    let run = |t: u32, g: u32, p: u32| {
        let machine = four_by_four(t, g, p)
            .with_outputs_per_comm(7)
            .with_purify_depth(3);
        let spec = ScenarioSpec::machine("starve", machine, WorkloadSpec::Qft { qubits: 12 });
        let report = qic::run(&spec).expect("valid");
        report.report.points[0].mean("makespan_us").unwrap()
    };
    let rich = run(32, 32, 16);
    assert!(run(2, 32, 16) > rich, "teleporter starvation");
    assert!(run(32, 2, 16) > rich, "generator starvation");
    assert!(run(32, 32, 1) > rich, "purifier starvation");
}
