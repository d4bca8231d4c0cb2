//! Golden spec documents: the exact bytes `ScenarioSpec::to_json` emits
//! and the `SpecDigest` each spec hashes to.
//!
//! Round-trip tests only prove that the codec agrees with itself. A
//! change that moves a byte — a reordered field, a float written
//! differently, an optional block emitted when it is empty — would pass
//! them and silently move every serve cache key. `tests/golden/
//! spec_documents.jsonl` pins one line per case:
//! `{"case": …, "digest": …, "spec": …}`. The cases cover every
//! registry preset at both scales, every sweep axis, every workload and
//! experiment kind, fault plans with and without dead modules, and the
//! modular, observe and checkpoint blocks.

use qic::core::scenario::{
    CheckpointSpec, ExperimentSpec, MachineSpec, NetPreset, ObserveSpec, ScenarioAxis,
    ScenarioRegistry, ScenarioScale, ScenarioSpec, SpecDigest, WorkloadSpec,
};
use qic::core::Layout;
use qic::fault::{FaultPlan, Hotspot};
use qic::modular::{Interconnect, ModularSpec};
use qic::prelude::{PairMetric, PurifyPlacement, RoutingPolicy, TopologyKind};
use qic::serve::CacheDir;
use qic::sweep::json::{get, obj, Json};
use qic::sweep::{Axis, AxisValue, CampaignReport, Metrics, PointReport};
use qic::{RunOptions, ScenarioProgress};

const GOLDEN: &str = "tests/golden/spec_documents.jsonl";

fn every_workload_kind() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec::Qft { qubits: 16 },
        WorkloadSpec::ModMul { register: 4 },
        WorkloadSpec::ModExp {
            register: 3,
            steps: 2,
        },
        WorkloadSpec::Shor {
            register: 2,
            steps: 1,
        },
        WorkloadSpec::Synthetic {
            qubits: 12,
            comms: 40,
            seed: u64::MAX - 7,
        },
        WorkloadSpec::Batch {
            comms: vec![((0, 0), (3, 3)), ((65_535, 1), (2, 0))],
        },
    ]
}

/// One machine spec carrying every machine axis (a codec concern only:
/// duplicate or conflicting axes are for `validate` to reject).
fn every_machine_axis() -> ScenarioSpec {
    ScenarioSpec::machine(
        "axes \"quoted\" \\ ψ\n",
        MachineSpec::preset(NetPreset::Reduced),
        WorkloadSpec::Batch {
            comms: vec![((1, 2), (3, 4))],
        },
    )
    .with_seed(u64::MAX)
    .with_replicates(3)
    .with_workers(5)
    .with_axis(ScenarioAxis::ResourceRatio {
        area: 90,
        ratios: vec![0, 1, 8, i64::MIN],
    })
    .with_axis(ScenarioAxis::Layouts {
        layouts: Layout::ALL.to_vec(),
    })
    .with_axis(ScenarioAxis::Topologies {
        kinds: TopologyKind::ALL.to_vec(),
    })
    .with_axis(ScenarioAxis::Routings {
        policies: RoutingPolicy::ALL.to_vec(),
    })
    .with_axis(ScenarioAxis::GridEdges {
        edges: vec![4, 65_535],
    })
    .with_axis(ScenarioAxis::PurifyDepths { depths: vec![0, 3] })
    .with_axis(ScenarioAxis::Units {
        units: vec![2, u32::MAX],
    })
    .with_axis(ScenarioAxis::Teleporters { values: vec![2] })
    .with_axis(ScenarioAxis::Generators { values: vec![1, 4] })
    .with_axis(ScenarioAxis::Purifiers { values: vec![] })
    .with_axis(ScenarioAxis::Workloads {
        workloads: every_workload_kind(),
    })
    .with_axis(ScenarioAxis::FaultRate {
        rates: vec![0.0, -0.0, 0.1, 1e-9, 1.0, 0.333_333_333_333_333_3],
    })
    .with_axis(ScenarioAxis::Modules {
        counts: vec![1, 2, 8],
    })
    .with_axis(ScenarioAxis::InterTierLatency {
        latencies_ns: vec![0, 500, u64::MAX],
    })
    .with_axis(ScenarioAxis::InterTierCost {
        costs: vec![4.0, 2.5e6, 1e-300],
    })
}

fn every_channel_axis(metric: PairMetric) -> ScenarioSpec {
    ScenarioSpec::channel(
        format!("channel_{}", metric.label()),
        PurifyPlacement::FIGURE_SET[2],
        7,
        metric,
    )
    .with_axis(ScenarioAxis::Placements {
        placements: PurifyPlacement::FIGURE_SET.to_vec(),
    })
    .with_axis(ScenarioAxis::Hops {
        hops: vec![1, 30, 60],
    })
    .with_axis(ScenarioAxis::ErrorRateLog {
        start_exp: -9,
        stop_exp: -4,
        per_decade: 3,
    })
}

fn hotspot(link: u32) -> Hotspot {
    Hotspot {
        link,
        start_ns: 100,
        end_ns: u64::MAX,
        penalty_ns: 1_500,
    }
}

/// Fault, modular, observe and checkpoint blocks on one machine.
fn every_block() -> ScenarioSpec {
    let fault = FaultPlan::healthy()
        .with_seed(99)
        .with_link_kill(0.125)
        .with_node_loss(0.01)
        .with_teleporter_loss(0.25)
        .with_dead_link(4)
        .with_dead_node(3)
        .with_dead_module(1)
        .with_hotspot(hotspot(1))
        .with_hotspot(hotspot(7));
    let modular = ModularSpec::single()
        .with_modules(4)
        .with_interconnect(Interconnect::FatTree { radix: 4 })
        .with_latency_ns(2_000)
        .with_teleporter_slots(3)
        .with_inter_fidelity(0.99)
        .with_intra_fidelity(1.0)
        .with_inter_unit_cost(12.5)
        .with_report_cost(false);
    ScenarioSpec::machine(
        "every_block",
        MachineSpec::preset(NetPreset::Paper)
            .with_grid(3, 5)
            .with_topology(TopologyKind::Torus)
            .with_routing(RoutingPolicy::MinimalAdaptive)
            .with_layout(Layout::MobileQubit)
            .with_resources(4, 3, 2)
            .with_purify_depth(1)
            .with_outputs_per_comm(2)
            .with_fault(fault)
            .with_modular(modular),
        WorkloadSpec::Qft { qubits: 8 },
    )
    .with_observe(ObserveSpec::to_dir("target/obs").with_bins(16))
    .with_checkpoint(CheckpointSpec::to_dir("target/ckpt").with_every(3))
}

/// A fault plan with `dead_modules` empty (the field is left out) and
/// no hotspots, on a flat machine with an optical-switch block.
fn fault_without_dead_modules() -> ScenarioSpec {
    let fault = FaultPlan::healthy()
        .with_seed(0)
        .with_dead_link(0)
        .with_dead_node(2);
    ScenarioSpec::machine(
        "fault_without_dead_modules",
        MachineSpec::preset(NetPreset::SmallTest)
            .with_fault(fault)
            .with_modular(ModularSpec::single()),
        WorkloadSpec::Synthetic {
            qubits: 4,
            comms: 1,
            seed: 0,
        },
    )
    .with_observe(ObserveSpec {
        dir: String::new(),
        events: false,
        chrome_trace: true,
        bins: 0,
    })
}

/// Every case, in file order.
fn cases() -> Vec<(String, ScenarioSpec)> {
    let mut cases = Vec::new();
    for entry in ScenarioRegistry::builtin().entries() {
        for (scale, label) in [
            (ScenarioScale::Full, "full"),
            (ScenarioScale::SmallTest, "small_test"),
        ] {
            cases.push((
                format!("registry/{}/{label}", entry.name),
                entry.spec(scale),
            ));
        }
    }
    cases.push(("machine_axes".into(), every_machine_axis()));
    for metric in [PairMetric::TotalPairs, PairMetric::TeleportedPairs] {
        cases.push((
            format!("channel_axes/{}", metric.label()),
            every_channel_axis(metric),
        ));
    }
    for (i, workload) in every_workload_kind().into_iter().enumerate() {
        let spec = ScenarioSpec::machine(
            format!("workload_{i}"),
            MachineSpec::preset(NetPreset::SmallTest),
            workload,
        );
        cases.push((format!("workload/{i}"), spec));
    }
    cases.push(("blocks/all".into(), every_block()));
    cases.push((
        "blocks/no_dead_modules".into(),
        fault_without_dead_modules(),
    ));
    cases
}

fn golden_line(case: &str, spec: &ScenarioSpec) -> String {
    let spec_doc = Json::parse(&spec.to_json()).expect("emitted specs parse");
    obj(vec![
        ("case", Json::Str(case.into())),
        ("digest", Json::Str(SpecDigest::of(spec).to_string())),
        ("spec", spec_doc),
    ])
    .emit()
}

#[test]
fn spec_documents_match_the_pinned_bytes_and_digests() {
    let path = format!("{}/{GOLDEN}", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path}: {e}"));
    let lines: Vec<&str> = golden.lines().collect();
    let cases = cases();
    assert_eq!(lines.len(), cases.len(), "one golden line per case");
    for ((case, spec), line) in cases.iter().zip(lines) {
        let doc = Json::parse(line).unwrap_or_else(|e| panic!("{case}: {e}"));
        let fields = doc.obj_of("golden line").unwrap();
        let field = |name| get(fields, name, "golden line").unwrap();
        assert_eq!(field("case").str_of("case").unwrap(), case, "case order");
        // The file is itself canonical, so the spec object re-emits as
        // the exact bytes the codec wrote.
        assert_eq!(line, golden_line(case, spec), "{case}: line drifted");
        let pinned = field("spec").emit();
        assert_eq!(spec.to_json(), pinned, "{case}: to_json bytes drifted");
        assert_eq!(
            SpecDigest::of(spec).to_string(),
            field("digest").str_of("digest").unwrap(),
            "{case}: digest drifted (every serve cache key would move)"
        );
        let decoded = ScenarioSpec::from_json(&pinned).unwrap_or_else(|e| panic!("{case}: {e}"));
        assert_eq!(&decoded, spec, "{case}: decode differs from the built spec");
        assert_eq!(decoded.to_json(), pinned, "{case}: re-encode drifted");
    }
}

#[test]
fn the_cases_cover_every_axis_workload_and_block() {
    let cases = cases();
    let specs: Vec<&ScenarioSpec> = cases.iter().map(|(_, s)| s).collect();
    // Every `axis` and `kind` tag the documents carry.
    fn tags(v: &Json, out: &mut Vec<String>) {
        match v {
            Json::Obj(fields) => {
                for (k, v) in fields {
                    if let (Json::Str(tag), "axis" | "kind") = (v, k.as_str()) {
                        out.push(tag.clone());
                    }
                    tags(v, out);
                }
            }
            Json::Arr(items) => items.iter().for_each(|v| tags(v, out)),
            _ => {}
        }
    }
    let mut seen = Vec::new();
    for spec in &specs {
        tags(&Json::parse(&spec.to_json()).unwrap(), &mut seen);
    }
    for tag in [
        "resource_ratio",
        "layout",
        "topology",
        "routing",
        "grid_edge",
        "purify_depth",
        "units",
        "teleporters",
        "generators",
        "purifiers",
        "workload",
        "fault_rate",
        "modules",
        "inter_latency",
        "inter_cost",
        "placement",
        "hops",
        "error_rate_log",
        "machine",
        "channel",
        "qft",
        "mod_mul",
        "mod_exp",
        "shor",
        "synthetic",
        "batch",
    ] {
        assert!(seen.iter().any(|t| t == tag), "no case carries {tag:?}");
    }
    let machines: Vec<&MachineSpec> = specs
        .iter()
        .filter_map(|s| match &s.experiment {
            ExperimentSpec::Machine { machine, .. } => Some(machine),
            ExperimentSpec::Channel { .. } => None,
        })
        .collect();
    let faults: Vec<&FaultPlan> = machines.iter().filter_map(|m| m.fault.as_ref()).collect();
    assert!(faults
        .iter()
        .any(|f| !f.dead_modules.is_empty() && !f.hotspots.is_empty()));
    assert!(faults.iter().any(|f| f.dead_modules.is_empty()));
    assert!(machines.iter().any(|m| m.modular.is_some()));
    assert!(specs.iter().any(|s| s.observe.is_some()));
    assert!(specs.iter().any(|s| s.checkpoint.is_some()));
}

// --- Record documents ------------------------------------------------------
//
// The campaign record, the checkpoint manifest and the serve cache
// record are compared elsewhere only against other outputs of the same
// build (shard/merge, kill/resume, cache hits), which a codec change
// that moves a byte on both sides would pass. `tests/golden/
// record_documents.jsonl` pins one line per case:
// `{"case": …, "document": …}`.

const RECORD_GOLDEN: &str = "tests/golden/record_documents.jsonl";

/// The SmallTest preset the record cases run.
fn record_preset() -> ScenarioSpec {
    ScenarioRegistry::builtin()
        .spec("synthetic_stress", ScenarioScale::SmallTest)
        .expect("a registered preset")
}

fn record_tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("record_documents")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

/// A record whose replicates carry `-0.0`, `NaN`, `±Inf` and the
/// smallest subnormal, on a non-finite `F64` axis value.
fn hostile_floats_report() -> CampaignReport {
    let point = PointReport::from_replicates(
        0,
        vec![("rate".into(), AxisValue::F64(f64::NEG_INFINITY))],
        vec![
            Metrics::new()
                .with("neg_zero", -0.0)
                .with("nan", f64::NAN)
                .with("inf", f64::INFINITY)
                .with("ninf", f64::NEG_INFINITY)
                .with("tiny", 5e-324),
            Metrics::new()
                .with("neg_zero", -0.0)
                .with("tiny", 0.1 + 0.2),
        ],
    );
    CampaignReport {
        name: "hostile \"floats\"".into(),
        seed: u64::MAX,
        replicates: 2,
        axes: vec![Axis::list(
            "rate",
            vec![
                AxisValue::F64(f64::NEG_INFINITY),
                AxisValue::F64(f64::NAN),
                AxisValue::F64(-0.0),
                AxisValue::Int(i64::MIN),
                AxisValue::Text("Inf".into()),
            ],
        )],
        points: vec![point],
        wall_ns: vec![0],
    }
}

/// Runs at most `budget` more points of the checkpointed preset in
/// `dir` and returns the manifest of the partly finished campaign.
fn partial_manifest(dir: &std::path::Path, budget: usize) -> String {
    let spec = record_preset()
        .with_checkpoint(CheckpointSpec::to_dir(dir.display().to_string()).with_every(1));
    let opts = RunOptions {
        budget: Some(budget),
        ..RunOptions::default()
    };
    let progress = qic::run_with(&spec, &opts).expect("a budgeted run");
    assert!(matches!(progress, ScenarioProgress::Partial { .. }));
    let text = std::fs::read_to_string(dir.join("synthetic_stress.ckpt.json")).unwrap();
    text.strip_suffix('\n')
        .expect("one manifest line")
        .to_string()
}

/// Every record case, in file order, as `(case, document bytes)`.
fn record_cases() -> Vec<(String, String)> {
    let spec = record_preset();
    let report = qic::run(&spec).expect("the preset runs").report;
    let cache = CacheDir::open(record_tmp_dir("cache")).unwrap();
    let stored = std::fs::read_to_string(cache.store(&spec, &report).unwrap()).unwrap();
    vec![
        (
            "campaign_record/synthetic_stress/small_test".into(),
            report.to_record_json(),
        ),
        (
            "campaign_record/hostile_floats".into(),
            hostile_floats_report().to_record_json(),
        ),
        (
            "checkpoint_manifest/synthetic_stress/partial".into(),
            partial_manifest(&record_tmp_dir("manifest"), 1),
        ),
        ("cache_record/synthetic_stress/small_test".into(), stored),
    ]
}

fn record_line(case: &str, document: &str) -> String {
    obj(vec![
        ("case", Json::Str(case.into())),
        (
            "document",
            Json::parse(document).expect("emitted documents parse"),
        ),
    ])
    .emit()
}

#[test]
fn record_documents_match_the_pinned_bytes_and_decode_back() {
    let path = format!("{}/{RECORD_GOLDEN}", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path}: {e}"));
    let lines: Vec<&str> = golden.lines().collect();
    let cases = record_cases();
    assert_eq!(lines.len(), cases.len(), "one golden line per case");
    let mut pinned = Vec::new();
    for ((case, document), line) in cases.iter().zip(lines) {
        let doc = Json::parse(line).unwrap_or_else(|e| panic!("{case}: {e}"));
        let fields = doc.obj_of("golden line").unwrap();
        assert_eq!(
            get(fields, "case", "golden line")
                .unwrap()
                .str_of("case")
                .unwrap(),
            case,
            "case order"
        );
        assert_eq!(line, record_line(case, document), "{case}: line drifted");
        let bytes = get(fields, "document", "golden line").unwrap().emit();
        assert_eq!(document, &bytes, "{case}: document bytes drifted");
        pinned.push(bytes);
    }

    // Each pinned document decodes and re-emits unchanged.
    for record in &pinned[..2] {
        let back = CampaignReport::from_record_json(record).expect("pinned records decode");
        assert_eq!(&back.to_record_json(), record, "record re-emit drifted");
    }

    // The pinned manifest resumes: a zero-point run accepts it as one
    // point done, and one more point writes the manifest a fresh
    // two-point run writes, so its pinned point re-encodes unchanged.
    let resumed = record_tmp_dir("manifest_resumed");
    let manifest = resumed.join("synthetic_stress.ckpt.json");
    std::fs::write(&manifest, format!("{}\n", pinned[2])).unwrap();
    assert_eq!(partial_manifest(&resumed, 0), pinned[2]);
    let fresh = partial_manifest(&record_tmp_dir("manifest_fresh"), 2);
    assert_eq!(
        partial_manifest(&resumed, 1),
        fresh,
        "resumed manifest drifted"
    );

    // The pinned cache record is a hit, and storing the report it
    // serves writes the same bytes back.
    let spec = record_preset();
    let cache = CacheDir::open(record_tmp_dir("cache_pinned")).unwrap();
    let file = cache.path_of(SpecDigest::of(&spec));
    std::fs::write(&file, &pinned[3]).unwrap();
    let report = cache
        .load(&spec)
        .unwrap()
        .expect("the pinned record is a hit");
    cache.store(&spec, &report).unwrap();
    assert_eq!(std::fs::read_to_string(&file).unwrap(), pinned[3]);
}
