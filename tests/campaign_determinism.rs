//! Serial-vs-parallel campaign determinism over the real simulator:
//! the same campaign run with 1 and with 4 worker threads must produce
//! byte-identical `CampaignReport` JSON (and CSV, and an equal report
//! value), with replicate seeds flowing into the simulator.

use qic::net::config::NetConfig;
use qic::prelude::*;

fn campaign() -> Campaign {
    let space = ParamSpace::new()
        .axis(Axis::ints("mesh", [4, 5]))
        .axis(Axis::ints("depth", [1, 2]))
        .axis(Axis::ints("units", [2, 4]));
    Campaign::new("determinism", space).seed(7).replicates(2)
}

fn evaluate(point: &SweepPoint<'_>, ctx: RunCtx) -> Metrics {
    let mesh = point.i64("mesh") as u16;
    let mut b = Machine::builder();
    b.net_config(NetConfig::small_test())
        .grid(mesh, mesh)
        .purify_depth(point.u32("depth"))
        .resources(point.u32("units"), point.u32("units"), point.u32("units"))
        .seed(ctx.seed);
    let machine = b.build().expect("sweep configs validate");
    machine.run(&Program::qft(8)).net.metrics()
}

/// Runs `campaign` on a per-call pool to completion.
fn run(campaign: Campaign) -> CampaignReport {
    campaign
        .run(&RunOptions::default(), evaluate)
        .expect("no checkpoint to fail")
        .complete()
        .expect("run completes")
}

#[test]
fn serial_and_parallel_runs_are_byte_identical() {
    let serial = run(campaign().workers(1));
    let parallel = run(campaign().workers(4));
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
    let report = run(campaign().workers(4));
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
