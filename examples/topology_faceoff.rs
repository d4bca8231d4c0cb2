//! Topology faceoff: mesh vs torus vs hypercube at a matched 64-node
//! scale, under both routing policies.
//!
//! The paper computes everything on a 2D mesh with dimension-order
//! routing; this scenario asks the question it could not: what does the
//! same workload cost on a wrap-around torus or a binary hypercube? It
//! prints the static fabric metadata (the README comparison table), runs
//! the `topology × routing` scenario (the `topology_faceoff` registry
//! preset) through `qic::run` on 4 workers, re-runs it on 1
//! worker to prove the report is byte-identical, and closes with the
//! analytic chained-teleport latency at each fabric's diameter.
//!
//! Run with `cargo run --release --example topology_faceoff`.

use qic::analytic::crossover::fabric_crossover;
use qic::prelude::*;

fn main() {
    // --- static fabric metadata at 64 nodes ---------------------------
    let fabrics: [(&str, Fabric); 3] = [
        ("mesh", Fabric::Mesh(Mesh::new(8, 8))),
        ("torus", Fabric::Torus(Torus::new(8, 8))),
        ("hypercube", Fabric::Hypercube(Hypercube::new(6))),
    ];
    println!("fabric metadata at 64 nodes:");
    println!(
        "{:>10} {:>9} {:>10} {:>11} {:>7} {:>10}",
        "topology", "diameter", "bisection", "ports/node", "links", "avg dist"
    );
    for (name, f) in &fabrics {
        println!(
            "{:>10} {:>9} {:>10} {:>11} {:>7} {:>10.2}",
            name,
            f.diameter(),
            f.bisection_width(),
            f.ports_per_node(),
            f.links(),
            f.avg_distance(),
        );
    }

    // --- the scenario: topology × routing, QFT-64, Home-Base ----------
    let spec = ScenarioRegistry::builtin()
        .spec("topology_faceoff", ScenarioScale::Full)
        .expect("registered");
    let parallel = qic::run(&spec.clone().with_workers(4))
        .expect("faceoff presets validate")
        .report;
    eprintln!(
        "\nran {} faceoff points on 4 workers",
        parallel.points.len()
    );
    let serial = qic::run(&spec.with_workers(1))
        .expect("faceoff presets validate")
        .report;
    assert_eq!(
        parallel.to_json(),
        serial.to_json(),
        "campaign reports must not depend on worker count"
    );
    assert_eq!(parallel.to_csv(), serial.to_csv());
    eprintln!("1-worker re-run is byte-identical (scheduling-independent)");

    println!("\nQFT-64 on 64 nodes, Home-Base layout:");
    println!(
        "{:>10} {:>9} {:>14} {:>11} {:>11} {:>11} {:>13}",
        "topology", "routing", "makespan (ms)", "p50 (µs)", "p95 (µs)", "p99 (µs)", "EPR pairs/ms"
    );
    for point in &parallel.points {
        let makespan_us = point.mean("makespan_us").unwrap();
        // EPR throughput: link pairs actually consumed per millisecond of
        // simulated execution.
        let throughput = point.mean("pairs_consumed").unwrap() / (makespan_us / 1e3);
        println!(
            "{:>10} {:>9} {:>14.2} {:>11.1} {:>11.1} {:>11.1} {:>13.0}",
            point.param("topology"),
            point.param("routing"),
            makespan_us / 1e3,
            point.mean("latency_p50_us").unwrap_or(f64::NAN),
            point.mean("latency_p95_us").unwrap_or(f64::NAN),
            point.mean("latency_p99_us").unwrap_or(f64::NAN),
            throughput,
        );
    }

    // --- headline reading ---------------------------------------------
    let makespan = |topo: &str, routing: &str| {
        parallel
            .points
            .iter()
            .find(|p| {
                p.param("topology").as_text() == Some(topo)
                    && p.param("routing").as_text() == Some(routing)
            })
            .and_then(|p| p.mean("makespan_us"))
            .expect("point exists")
    };
    println!(
        "\nreading: wrap-around links make the torus {:.2}x faster than the mesh on\n\
         identical traffic; the hypercube halves route lengths but splits the same\n\
         t teleporters across 6 dimension sets instead of 2 ({:.2}x vs mesh) —\n\
         connectivity is only as good as the router bandwidth behind it.",
        makespan("mesh", "dor") / makespan("torus", "dor"),
        makespan("mesh", "dor") / makespan("hypercube", "dor"),
    );

    // --- analytic tie-in: latency floor at each fabric's diameter ------
    let times = OpTimes::ion_trap();
    let hops: Vec<u32> = fabrics.iter().map(|(_, f)| f.diameter()).collect();
    let floor = fabric_crossover(hops, constants::DEFAULT_HOP_CELLS, &times);
    println!("\nuncontended diameter-crossing latency (chained teleport, 600-cell hops):");
    for ((name, _), pt) in fabrics.iter().zip(&floor) {
        println!(
            "  {:>10}: {:>8} over {} cells (ballistic would take {})",
            name, pt.teleport, pt.cells, pt.ballistic
        );
    }

    // CSV excerpt (full emitters: CampaignReport::to_csv / to_json).
    let csv = parallel.to_csv();
    println!("\nCSV excerpt ({} rows total):", csv.lines().count() - 1);
    for line in csv.lines().take(3) {
        let cut = line.chars().take(100).collect::<String>();
        println!("  {cut}…");
    }
}
