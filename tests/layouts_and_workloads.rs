//! Cross-crate integration: workloads × layouts on the full machine.

use qic::prelude::*;
use qic_workload::Program;

fn machine(layout: Layout) -> Machine {
    let mut b = Machine::builder();
    b.grid(5, 5)
        .resources(8, 8, 4)
        .outputs_per_comm(3)
        .purify_depth(2)
        .layout(layout);
    b.build().expect("valid machine")
}

#[test]
fn every_kernel_completes_under_both_layouts() {
    let kernels = [
        Program::qft(10),
        Program::modular_multiplication(5),
        Program::modular_exponentiation(4, 1),
        Program::shor_kernel(4, 1),
    ];
    for layout in Layout::ALL {
        let m = machine(layout);
        for program in &kernels {
            let report = m.run(program);
            assert_eq!(
                report.instructions as usize,
                program.len(),
                "{layout}: {} instructions expected",
                program.len()
            );
        }
    }
}

#[test]
fn mobile_beats_home_base_on_qft() {
    // Figure 15's point: the Mobile walk turns all-to-all into local hops.
    let program = Program::qft(16);
    let hb = machine(Layout::HomeBase).run(&program);
    let mb = machine(Layout::MobileQubit).run(&program);
    assert!(mb.makespan < hb.makespan);
    assert!(mb.net.teleport_ops < hb.net.teleport_ops);
}

#[test]
fn makespan_respects_critical_path() {
    // A machine cannot beat (critical path) × (fastest possible op).
    let program = Program::qft(10);
    let m = machine(Layout::HomeBase);
    let report = m.run(&program);
    let per_level_floor = OpTimes::ion_trap().teleport_local(); // one hop minimum
    let floor = per_level_floor * u64::from(program.critical_path());
    assert!(report.makespan > floor);
}

#[test]
fn parallel_workloads_beat_serial_chains() {
    // Eight fully independent adjacent pairs vs eight ops all serialised
    // through qubit 0.
    let m = machine(Layout::HomeBase);
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
    let t_parallel = m.run(&parallel).makespan;
    let t_serial = m.run(&serial).makespan;
    assert!(
        t_serial.as_us_f64() > 3.0 * t_parallel.as_us_f64(),
        "serial {t_serial} should dwarf parallel {t_parallel}"
    );
}

#[test]
fn reports_serialize_round_trip() {
    // Reports are plain data: Clone + PartialEq is the contract.
    let report = machine(Layout::HomeBase).run(&Program::qft(6));
    let copied = report.clone();
    assert_eq!(report, copied);
}
