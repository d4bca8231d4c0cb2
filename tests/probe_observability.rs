//! Cross-crate observability guarantees:
//!
//! * attaching a `RecordingProbe` never perturbs the simulation — on
//!   every fabric × routing × fault combination the traced report,
//!   minus its timeline block, equals the unprobed report exactly;
//! * the recorded utilization time series integrate back to the
//!   simulator's scalar utilizations (property-tested over random
//!   traffic and grid resolutions);
//! * scenario-level trace export is deterministic: the same observed
//!   spec writes byte-identical `.events.jsonl` and `.trace.json`
//!   files run-over-run and for 1 vs 4 workers;
//! * the simulator's event stream is pinned: every fabric × routing
//!   pair, a degraded fabric with a hot spot, a two-module fabric with
//!   a slow inter tier and a QFT program reproduce the recorded event
//!   count and `events_jsonl` digest in `tests/golden/event_streams.jsonl`.

use std::collections::BTreeMap;
use std::path::PathBuf;

use proptest::prelude::*;

use qic::fault::{FaultPlan, Hotspot};
use qic::modular::{ModularFabric, ModularSpec};
use qic::net::config::NetConfig;
use qic::net::sim::{BatchDriver, Driver, NetworkSim};
use qic::net::topology::{Coord, Topology, TopologyKind};
use qic::prelude::*;
use qic::probe::RecordingProbe;
use qic::workload::Program;
use qic::ObserveSpec;

fn crossing_batch() -> Vec<(Coord, Coord)> {
    vec![
        (Coord::new(0, 0), Coord::new(3, 3)),
        (Coord::new(3, 3), Coord::new(0, 0)),
        (Coord::new(0, 3), Coord::new(3, 0)),
        (Coord::new(1, 2), Coord::new(2, 0)),
        (Coord::new(1, 1), Coord::new(2, 2)),
    ]
}

#[test]
fn recording_probe_is_invisible_to_the_report_on_every_combination() {
    for kind in TopologyKind::ALL {
        for routing in RoutingPolicy::ALL {
            for plan in [None, Some(FaultPlan::healthy().with_dead_link(0))] {
                let cfg = NetConfig::small_test()
                    .with_topology(kind)
                    .with_routing(routing);
                let ctx = format!("{kind:?} × {routing:?} × fault={}", plan.is_some());

                let (unprobed, mut traced) = match &plan {
                    None => (
                        NetworkSim::new(cfg.clone()).run(&mut BatchDriver::new(crossing_batch())),
                        NetworkSim::with_probe(cfg, RecordingProbe::new())
                            .run_traced(&mut BatchDriver::new(crossing_batch()))
                            .0,
                    ),
                    Some(plan) => (
                        NetworkSim::with_topology(cfg.clone(), plan.clone().compile(cfg.fabric()))
                            .run(&mut BatchDriver::new(crossing_batch())),
                        NetworkSim::with_topology_probe(
                            cfg.clone(),
                            plan.clone().compile(cfg.fabric()),
                            RecordingProbe::new(),
                        )
                        .run_traced(&mut BatchDriver::new(crossing_batch()))
                        .0,
                    ),
                };
                assert!(traced.timeline.is_some(), "{ctx}: probe must record");
                traced.timeline = None;
                assert_eq!(traced, unprobed, "{ctx}: the probe perturbed the run");
            }
        }
    }
}

proptest! {
    #[test]
    fn utilization_traces_integrate_to_the_report_scalars(
        pairs in proptest::collection::vec(
            ((0u16..4, 0u16..4), (0u16..4, 0u16..4)), 1..8),
        bins in 1u32..200,
        seed in 0u64..500,
    ) {
        let mut batch: Vec<(Coord, Coord)> = pairs
            .iter()
            .filter(|(s, d)| s != d)
            .map(|&((sx, sy), (dx, dy))| (Coord::new(sx, sy), Coord::new(dx, dy)))
            .collect();
        if batch.is_empty() {
            batch.push((Coord::new(0, 0), Coord::new(3, 3)));
        }
        let mut cfg = NetConfig::small_test();
        cfg.seed = seed;
        let (report, _) = NetworkSim::with_probe(cfg, RecordingProbe::with_bins(bins))
            .run_traced(&mut BatchDriver::new(batch));
        let t = report.timeline.as_ref().expect("probe attached");
        prop_assert_eq!(t.bins, bins);
        prop_assert!(
            (t.mean_teleporter_utilization() - report.teleporter_utilization).abs() < 1e-9,
            "teleporter trace integral {} vs scalar {}",
            t.mean_teleporter_utilization(),
            report.teleporter_utilization,
        );
        prop_assert!(
            (t.mean_purifier_utilization() - report.purifier_utilization).abs() < 1e-9,
            "purifier trace integral {} vs scalar {}",
            t.mean_purifier_utilization(),
            report.purifier_utilization,
        );
    }
}

/// All observed output files of one run, keyed by file name.
fn run_observed(dir: &PathBuf, workers: usize) -> BTreeMap<String, String> {
    let spec = ScenarioSpec::machine(
        "obs_determinism",
        MachineSpec::preset(NetPreset::SmallTest),
        WorkloadSpec::Synthetic {
            qubits: 8,
            comms: 16,
            seed: 7,
        },
    )
    .with_axis(ScenarioAxis::Topologies {
        kinds: TopologyKind::ALL.to_vec(),
    })
    .with_replicates(2)
    .with_workers(workers)
    .with_observe(ObserveSpec::to_dir(dir.display().to_string()).with_bins(32));
    qic::run(&spec).expect("spec validates");
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("observe dir exists") {
        let path = entry.expect("readable entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        // The progress stream is wall-clock by contract; everything
        // else must be deterministic.
        if name.ends_with(".progress.jsonl") {
            continue;
        }
        files.insert(name, std::fs::read_to_string(path).expect("readable"));
    }
    files
}

#[test]
fn scenario_trace_export_is_deterministic_across_runs_and_workers() {
    let base = std::env::temp_dir().join(format!("qic_probe_obs_{}", std::process::id()));
    let dirs = [base.join("a"), base.join("b"), base.join("c")];
    let first = run_observed(&dirs[0], 1);
    let again = run_observed(&dirs[1], 1);
    let wide = run_observed(&dirs[2], 4);
    assert_eq!(first.len(), 3 * 2 * 2, "events + trace per (point, rep)");
    assert!(first.keys().any(|k| k.ends_with(".events.jsonl")));
    assert!(first.keys().any(|k| k.ends_with(".trace.json")));
    assert_eq!(first, again, "same spec, same bytes");
    assert_eq!(first, wide, "worker count must not change any trace");
    // Spot-validate the documents against the schema checker.
    for (name, text) in &first {
        if name.ends_with(".events.jsonl") {
            qic::probe::schema::validate_events_jsonl(text)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        } else {
            qic::probe::schema::validate_chrome_trace(text)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn observe_dir_under_a_regular_file_is_a_setup_error() {
    let base = std::env::temp_dir().join(format!("qic_probe_blocked_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("create tmp dir");
    let file = base.join("not_a_dir");
    std::fs::write(&file, "a regular file").expect("write blocker");
    let dir = file.join("observe");
    let spec = ScenarioRegistry::builtin()
        .spec("synthetic_stress", ScenarioScale::SmallTest)
        .expect("registered")
        .with_observe(ObserveSpec::to_dir(dir.display().to_string()));
    let err = qic::run(&spec).expect_err("the observe directory cannot be created");
    assert!(
        matches!(&err, ScenarioError::Io { path, .. } if *path == dir.display().to_string()),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&base);
}

// --- pinned event streams -------------------------------------------------

const EVENT_STREAMS: &str = "tests/golden/event_streams.jsonl";

/// The stream configurations' shared resources on a 4×4 grid: the
/// fewest teleporters the fabric allows (two storage cells per link, so
/// bubble flow control bites on cyclic fabrics), one generator per edge
/// and one purifier unit per site at depth 2, so wires run dry and
/// cascade jobs queue for a unit.
fn stream_cfg(kind: TopologyKind, routing: RoutingPolicy) -> NetConfig {
    let mut cfg = NetConfig::small_test()
        .with_topology(kind)
        .with_routing(routing);
    cfg.teleporters_per_node = cfg.fabric().port_classes().max(2) as u32;
    cfg.generators_per_edge = 1;
    cfg.purifiers_per_site = 1;
    cfg.purify_depth = 2;
    cfg
}

/// Crossing traffic with repeated pairs (route-cache hits, and
/// channels adaptive routing spreads) and a co-located pair.
fn stream_batch() -> BatchDriver {
    let mut batch = crossing_batch();
    batch.extend([
        (Coord::new(0, 0), Coord::new(3, 3)),
        (Coord::new(0, 0), Coord::new(2, 2)),
        (Coord::new(3, 0), Coord::new(1, 2)),
        (Coord::new(3, 1), Coord::new(0, 2)),
        (Coord::new(0, 1), Coord::new(2, 3)),
        (Coord::new(2, 2), Coord::new(2, 2)),
    ]);
    BatchDriver::new(batch)
}

/// One golden line: the configuration's label, the recorded event count
/// and the digest of its `events_jsonl` bytes.
fn stream_line<T: Topology>(
    label: &str,
    cfg: NetConfig,
    topo: T,
    driver: &mut dyn Driver,
) -> String {
    let (_, probe) =
        NetworkSim::with_topology_probe(cfg, topo, RecordingProbe::new()).run_traced(driver);
    format!(
        "{{\"config\": \"{label}\", \"events\": {}, \"digest\": \"{:016x}\"}}",
        probe.events().len(),
        qic::sweep::digest_str(&probe.events_jsonl())
    )
}

fn event_stream_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for kind in TopologyKind::ALL {
        for routing in RoutingPolicy::ALL {
            let cfg = stream_cfg(kind, routing);
            let topo = cfg.fabric();
            lines.push(stream_line(
                &format!("{kind}/{routing}/batch"),
                cfg,
                topo,
                &mut stream_batch(),
            ));
        }
    }
    // A dead link and a hot spot on a torus: adaptive routes around the
    // damage, and penalized hops leave the delay lanes for the heap.
    let cfg = stream_cfg(TopologyKind::Torus, RoutingPolicy::MinimalAdaptive);
    let plan = FaultPlan::healthy()
        .with_dead_link(0)
        .with_hotspot(Hotspot {
            link: 5,
            start_ns: 0,
            end_ns: 400_000,
            penalty_ns: 1_500,
        });
    let topo = plan.compile(cfg.fabric());
    lines.push(stream_line(
        "torus/adaptive/batch/dead_link+hotspot",
        cfg,
        topo,
        &mut stream_batch(),
    ));
    // Two meshes joined by a slow optical tier: inter-module hops carry a
    // latency penalty.
    let mut cfg = stream_cfg(TopologyKind::Mesh, RoutingPolicy::DimensionOrder);
    let topo = ModularFabric::new(
        cfg.fabric(),
        &ModularSpec::single().with_modules(2).with_latency_ns(3_000),
    );
    cfg.mesh_width *= 2;
    cfg.teleporters_per_node = topo.port_classes() as u32;
    let mut batch = BatchDriver::new(vec![
        (Coord::new(0, 0), Coord::new(7, 3)),
        (Coord::new(7, 0), Coord::new(0, 3)),
        (Coord::new(3, 1), Coord::new(4, 1)),
        (Coord::new(1, 2), Coord::new(6, 2)),
        (Coord::new(5, 3), Coord::new(2, 0)),
    ]);
    lines.push(stream_line(
        "modular2/dor/batch/latency",
        cfg,
        topo,
        &mut batch,
    ));
    // A QFT program: deferred submits and driver notifies between
    // channels, purifier jobs queueing for the site's one unit.
    for layout in [Layout::HomeBase, Layout::MobileQubit] {
        let cfg = stream_cfg(TopologyKind::Mesh, RoutingPolicy::DimensionOrder);
        let mut driver =
            ProgramDriver::new(&cfg, layout, &Program::qft(8)).expect("QFT-8 fits a 4x4 grid");
        let topo = cfg.fabric();
        lines.push(stream_line(
            &format!("mesh/dor/qft8/{layout:?}"),
            cfg,
            topo,
            &mut driver,
        ));
        driver.assert_finished();
    }
    lines
}

#[test]
fn event_streams_match_the_pinned_counts_and_digests() {
    let path = format!("{}/{EVENT_STREAMS}", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path}: {e}"));
    let computed = event_stream_lines();
    let pinned: Vec<&str> = golden.lines().collect();
    assert_eq!(
        pinned,
        computed,
        "event streams drifted; the recomputed file reads:\n{}",
        computed.join("\n")
    );
}
