//! Serial-vs-parallel campaign determinism over the real simulator:
//! the same scenario run with 1 and with 4 worker threads must produce
//! byte-identical report JSON (and CSV, and an equal report value),
//! with replicate seeds flowing into the simulator.

use qic::prelude::*;

fn spec() -> ScenarioSpec {
    ScenarioSpec::machine(
        "determinism",
        MachineSpec::preset(NetPreset::SmallTest),
        WorkloadSpec::Qft { qubits: 8 },
    )
    .with_seed(7)
    .with_replicates(2)
    .with_axis(ScenarioAxis::GridEdges { edges: vec![4, 5] })
    .with_axis(ScenarioAxis::PurifyDepths { depths: vec![1, 2] })
    .with_axis(ScenarioAxis::Units { units: vec![2, 4] })
}

fn run(workers: usize) -> ScenarioReport {
    qic::run(&spec().with_workers(workers)).expect("sweep configs validate")
}

#[test]
fn serial_and_parallel_runs_are_byte_identical() {
    let serial = run(1).report;
    let parallel = run(4).report;
    assert_eq!(serial, parallel, "reports must be value-identical");
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "JSON must be byte-identical"
    );
    assert_eq!(
        serial.to_csv(),
        parallel.to_csv(),
        "CSV must be byte-identical"
    );
}

#[test]
fn replicates_carry_derived_seeds_into_the_simulator() {
    let report = run(4).report;
    assert_eq!(report.points.len(), 8);
    for point in &report.points {
        assert_eq!(point.replicates.len(), 2);
        // The simulator draws no random numbers, so the seed does not
        // move simulated time: the replicate CI exists (n=2) and
        // collapses to a zero half-width, with the mean inside the
        // (degenerate) replicate envelope.
        let s = point
            .summaries
            .iter()
            .find(|s| s.name == "makespan_us")
            .expect("makespan reported");
        assert_eq!(s.n, 2);
        assert!(s.ci95.is_some());
        assert!(s.min <= s.mean && s.mean <= s.max);
        // Tail latency satellite metrics flow through end to end.
        let p50 = point.mean("latency_p50_us").unwrap();
        let p95 = point.mean("latency_p95_us").unwrap();
        let p99 = point.mean("latency_p99_us").unwrap();
        assert!(p50 <= p95 && p95 <= p99);
    }
}
