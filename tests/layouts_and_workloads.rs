//! Cross-crate integration: workloads × layouts on the full machine.

use qic::prelude::*;
use qic_workload::Program;

fn machine(layout: Layout) -> MachineSpec {
    MachineSpec::preset(NetPreset::Paper)
        .with_grid(5, 5)
        .with_resources(8, 8, 4)
        .with_outputs_per_comm(3)
        .with_purify_depth(2)
        .with_layout(layout)
}

/// Runs `workload` on the 5×5 machine through `qic::run`; the runner
/// checks that every instruction retires.
fn run(layout: Layout, workload: WorkloadSpec) -> ScenarioReport {
    qic::run(&ScenarioSpec::machine(
        "workload",
        machine(layout),
        workload,
    ))
    .expect("valid machine")
}

fn mean(report: &ScenarioReport, metric: &str) -> f64 {
    report.report.points[0]
        .mean(metric)
        .expect("metric reported")
}

#[test]
fn every_kernel_completes_under_both_layouts() {
    let kernels = [
        WorkloadSpec::Qft { qubits: 10 },
        WorkloadSpec::ModMul { register: 5 },
        WorkloadSpec::ModExp {
            register: 4,
            steps: 1,
        },
        WorkloadSpec::Shor {
            register: 4,
            steps: 1,
        },
    ];
    let spec = ScenarioSpec::machine("kernels", machine(Layout::HomeBase), kernels[0].clone())
        .with_axis(ScenarioAxis::Layouts {
            layouts: Layout::ALL.to_vec(),
        })
        .with_axis(ScenarioAxis::Workloads {
            workloads: kernels.to_vec(),
        });
    let report = qic::run(&spec).expect("valid machine").report;
    assert_eq!(report.points.len(), Layout::ALL.len() * kernels.len());
    for point in &report.points {
        let label = point.param("workload").as_text().expect("label axis");
        let program = kernels
            .iter()
            .find(|k| k.label() == label)
            .and_then(WorkloadSpec::program)
            .expect("a swept kernel");
        // Each instruction completes at least one communication.
        assert!(
            point.mean("comms_completed").unwrap() >= program.len() as f64,
            "{label}: {} instructions expected",
            program.len()
        );
    }
}

#[test]
fn mobile_beats_home_base_on_qft() {
    // Figure 15's point: the Mobile walk turns all-to-all into local hops.
    let qft = WorkloadSpec::Qft { qubits: 16 };
    let hb = run(Layout::HomeBase, qft.clone());
    let mb = run(Layout::MobileQubit, qft);
    assert!(mean(&mb, "makespan_us") < mean(&hb, "makespan_us"));
    assert!(mean(&mb, "teleport_ops") < mean(&hb, "teleport_ops"));
}

#[test]
fn makespan_respects_critical_path() {
    // A machine cannot beat (critical path) × (fastest possible op).
    let program = Program::qft(10);
    let report = run(Layout::HomeBase, WorkloadSpec::Qft { qubits: 10 });
    let per_level_floor = OpTimes::ion_trap().teleport_local(); // one hop minimum
    let floor = per_level_floor * u64::from(program.critical_path());
    assert!(mean(&report, "makespan_us") > floor.as_us_f64());
}

#[test]
fn parallel_workloads_beat_serial_chains() {
    // Eight fully independent adjacent pairs vs eight ops all serialised
    // through qubit 0. Hand-written programs have no workload spec, so
    // they drive the simulator through the scheduler directly.
    let net = machine(Layout::HomeBase).net_config();
    let makespan = |program: &Program| {
        let mut driver = ProgramDriver::new(&net, Layout::HomeBase, program).expect("fits");
        let report = qic_net::sim::NetworkSim::new(net.clone()).run(&mut driver);
        driver.assert_finished();
        report.makespan
    };
    let parallel = Program::new(
        16,
        (0..8)
            .map(|k| qic_workload::Instruction::interact(2 * k, 2 * k + 1))
            .collect(),
    )
    .expect("valid");
    let serial = Program::new(
        16,
        (1..=8)
            .map(|k| qic_workload::Instruction::interact(0, k))
            .collect(),
    )
    .expect("valid");
    let t_parallel = makespan(&parallel);
    let t_serial = makespan(&serial);
    assert!(
        t_serial.as_us_f64() > 3.0 * t_parallel.as_us_f64(),
        "serial {t_serial} should dwarf parallel {t_parallel}"
    );
}

#[test]
fn reports_serialize_round_trip() {
    // Reports are plain data: Clone + PartialEq is the contract, and the
    // JSON bytes survive the copy.
    let report = run(Layout::HomeBase, WorkloadSpec::Qft { qubits: 6 });
    let copied = report.clone();
    assert_eq!(report, copied);
    assert_eq!(report.to_json(), copied.to_json());
}
