//! Integration: the logical scheduler drives a small QFT workload to
//! completion on a 4×4 mesh under both layouts, with sane accounting.

use qic_core::prelude::*;
use qic_core::scenario::run;
use qic_sweep::PointReport;

fn four_by_four(layout: Layout) -> MachineSpec {
    MachineSpec::preset(NetPreset::Paper)
        .with_grid(4, 4)
        .with_resources(6, 6, 3)
        .with_outputs_per_comm(2)
        .with_purify_depth(1)
        .with_layout(layout)
}

fn qft_spec(layout: Layout, qubits: u32) -> ScenarioSpec {
    ScenarioSpec::machine("qft", four_by_four(layout), WorkloadSpec::Qft { qubits }).with_seed(2006)
}

/// Runs QFT-`qubits` on the 4×4 machine; the runner checks that every
/// instruction retires.
fn run_qft(layout: Layout, qubits: u32) -> PointReport {
    let report = run(&qft_spec(layout, qubits)).expect("4x4 machine is valid");
    report.report.points[0].clone()
}

fn mean(point: &PointReport, metric: &str) -> f64 {
    point.mean(metric).expect("metric reported")
}

#[test]
fn qft_completes_on_4x4_mesh_under_both_layouts() {
    let program = qic_workload::Program::qft(8);
    let spec = qft_spec(Layout::HomeBase, 8).with_axis(ScenarioAxis::Layouts {
        layouts: Layout::ALL.to_vec(),
    });
    let report = run(&spec).expect("4x4 machine is valid").report;
    for (point, layout) in report.points.iter().zip(Layout::ALL) {
        assert_eq!(point.param("layout").as_text(), Some(&*layout.to_string()));
        assert!(mean(point, "makespan_us") > 0.0, "{layout}");
        // Every instruction needs at least one completed communication,
        // and communications consume teleported pairs.
        assert!(mean(point, "comms_completed") >= program.len() as f64);
        assert!(mean(point, "pairs_consumed") > 0.0);
    }
}

#[test]
fn scheduler_is_deterministic_for_a_fixed_seed() {
    let a = run(&qft_spec(Layout::HomeBase, 6)).unwrap();
    let b = run(&qft_spec(Layout::HomeBase, 6)).unwrap();
    assert_eq!(a, b);
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn more_qubits_mean_more_work_on_the_same_mesh() {
    let small = run_qft(Layout::HomeBase, 4);
    let large = run_qft(Layout::HomeBase, 10);
    assert!(mean(&large, "makespan_us") > mean(&small, "makespan_us"));
    assert!(mean(&large, "teleport_ops") > mean(&small, "teleport_ops"));
}

#[test]
fn snake_placement_covers_the_mesh_without_collisions() {
    let placement = Placement::snake(4, 4, 16).expect("16 qubits fit a 4x4 grid");
    assert_eq!(placement.len(), 16);
    let mut seen = std::collections::HashSet::new();
    for q in 0..16 {
        let home = placement.home(qic_workload::LogicalQubit(q));
        assert!(seen.insert(home), "qubit {q} shares a home site");
    }
    // One more qubit than sites must be rejected.
    assert!(Placement::snake(4, 4, 17).is_err());
}

#[test]
fn report_normalization_is_relative_makespan() {
    // Figure 16's y-axis: a makespan over a baseline run's makespan.
    let base = mean(&run_qft(Layout::HomeBase, 8), "makespan_us");
    let again = mean(&run_qft(Layout::HomeBase, 8), "makespan_us");
    assert_eq!(again / base, 1.0);
    let slower = mean(&run_qft(Layout::HomeBase, 12), "makespan_us");
    assert!(slower / base > 1.0);
}
