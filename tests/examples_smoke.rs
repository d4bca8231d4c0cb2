//! Smoke tests mirroring the `examples/*.rs` code paths, so the
//! examples' API surface is exercised by `cargo test` and cannot rot
//! silently between releases.

use qic::prelude::*;
use qic_analytic::plan::ChannelModel;
use qic_analytic::strategy::PurifyPlacement as AnalyticPlacement;
use qic_physics::bell::BellDiagonal;
use qic_workload::Program;

/// `examples/quickstart.rs`: ballistic error sweep, then a 20-hop channel
/// plan that must clear the fault-tolerance threshold.
#[test]
fn quickstart_path() {
    let rates = ErrorRates::ion_trap();
    let mut last = 0.0;
    for cells in [1u64, 10, 100, 1_000, 10_000] {
        let f = transport::ballistic_fidelity(Fidelity::ONE, cells, &rates);
        assert!(f.infidelity() >= last, "error grows with distance");
        last = f.infidelity();
    }
    let plan = ChannelModel::ion_trap().plan(20).expect("20 hops feasible");
    assert!(plan.final_state.fidelity() >= constants::threshold_fidelity());
}

/// `examples/purification_planner.rs`: protocol comparison and placement
/// sweep.
#[test]
fn purification_planner_path() {
    let noise = RoundNoise::ion_trap();
    let raw = qic_analytic::link::raw_link_state(600, &ErrorRates::ion_trap());
    let arriving = BellDiagonal::werner_f64(1.0 - (30.0 * raw.error()).min(0.5)).unwrap();

    let rounds = rounds_to_reach(
        Protocol::Dejmps,
        arriving,
        constants::THRESHOLD_ERROR,
        &noise,
        64,
    )
    .expect("DEJMPS reaches threshold from a 30-hop arriving state");
    let (pairs, out) = pairs_for_rounds(Protocol::Dejmps, arriving, rounds, &noise);
    assert!(out.error() <= constants::THRESHOLD_ERROR);
    assert!(pairs >= 1.0);

    for placement in AnalyticPlacement::FIGURE_SET {
        let model = ChannelModel::ion_trap().with_placement(placement);
        let plan = model
            .plan(30)
            .expect("all figure placements feasible at 30 hops");
        assert!(plan.total_pairs >= plan.teleported_pairs);
    }
}

/// `examples/waveform_dump.rs`: the Figure 2 electrode schedule and its
/// rendering.
#[test]
fn waveform_dump_path() {
    use qic::physics::waveform::ShuttlePlan;

    let times = OpTimes::ion_trap();
    let schedule = ShuttlePlan::new(3, 9).unwrap().waveforms(&times);
    assert_eq!(schedule.phases(), 6);
    let rendered = schedule.render();
    assert_eq!(
        rendered.lines().count(),
        11,
        "columns e00..=e10 participate"
    );
}

/// `examples/topology_faceoff.rs`: the fabric metadata table, the
/// topology × routing scenario at Tiny scale, and its worker-count
/// independence.
#[test]
fn topology_faceoff_path() {
    // The README comparison table's static metadata at 64 nodes.
    let mesh = Fabric::Mesh(Mesh::new(8, 8));
    let torus = Fabric::Torus(Torus::new(8, 8));
    let cube = Fabric::Hypercube(Hypercube::new(6));
    assert_eq!(
        (mesh.diameter(), torus.diameter(), cube.diameter()),
        (14, 8, 6)
    );
    assert_eq!(
        (
            mesh.bisection_width(),
            torus.bisection_width(),
            cube.bisection_width()
        ),
        (8, 16, 32)
    );
    assert!(mesh.avg_distance() > torus.avg_distance());
    assert!(torus.avg_distance() > cube.avg_distance());

    // The scenario itself, byte-identical across worker counts.
    let spec = faceoff_spec(FaceoffScale::Tiny);
    let parallel = qic::run(&spec.clone().with_workers(4))
        .expect("validates")
        .report;
    let serial = qic::run(&spec.with_workers(1)).expect("validates").report;
    assert_eq!(parallel.to_json(), serial.to_json());
    assert_eq!(parallel.to_csv(), serial.to_csv());
    assert_eq!(parallel.points.len(), 6, "3 fabrics × 2 routing policies");
    for p in &parallel.points {
        assert!(p.mean("comms_completed").unwrap() > 0.0);
        assert!(p.mean("latency_p95_us").unwrap() >= p.mean("latency_p50_us").unwrap());
    }
}

/// `examples/resilience.rs`: the degradation sweep's healthy rows are
/// loss-free, the structure report is coherent, and the JSON round
/// trip reproduces the report.
#[test]
fn resilience_path() {
    use qic::fault::FaultPlan;

    let spec = ScenarioRegistry::builtin()
        .spec("resilience_sweep", ScenarioScale::SmallTest)
        .expect("registered");
    let report = qic::run(&spec).expect("preset validates");
    for point in &report.report.points {
        let rate = point.param("fault_rate").as_f64().unwrap();
        if rate == 0.0 {
            assert_eq!(point.mean("comms_dropped"), Some(0.0));
            assert_eq!(point.mean("route_inflation"), Some(1.0));
        }
        assert!(point.mean("makespan_us").unwrap() > 0.0);
    }
    // The structural half: the compiled fabric's summary is coherent.
    let degraded = FaultPlan::healthy()
        .with_seed(42)
        .with_link_kill(0.15)
        .compile(NetConfig::small_test().fabric());
    let s = degraded.summary();
    assert_eq!(s.surviving_links + s.dead_links, 24);
    assert!(s.bisection_width <= 4);
    let reloaded = ScenarioSpec::from_json(&spec.to_json()).expect("round trip");
    assert_eq!(
        qic::run(&reloaded).unwrap().to_json(),
        report.to_json(),
        "a spec fully determines its report"
    );
}

/// `examples/serve.rs`: a JSONL session over the facade's service
/// layer — resubmitting a preset is a cache hit with byte-identical
/// report bytes, and the session ends with `bye`.
#[test]
fn serve_path() {
    use qic::serve::{serve_lines, Serve, ServeConfig};
    use std::io::Cursor;

    let serve = Serve::start(ServeConfig::default());
    let script = concat!(
        "{\"op\": \"submit\", \"preset\": \"design_space\", \"scale\": \"small\"}\n",
        "{\"op\": \"wait\", \"job\": 1}\n",
        "{\"op\": \"submit\", \"preset\": \"design_space\", \"scale\": \"small\"}\n",
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
    // The embedded record documents are byte-identical across the
    // computed and cached paths.
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
    assert_eq!(out.lines().last(), Some("{\"event\": \"bye\"}"));
}

/// `examples/shor_pipeline.rs`: all four Shor phases complete on a 6×6
/// machine under both layouts.
#[test]
fn shor_pipeline_path() {
    let n = 4u32;
    let phases: [(&str, Program); 4] = [
        ("QFT", Program::qft(2 * n)),
        ("MM", Program::modular_multiplication(n)),
        ("ME", Program::modular_exponentiation(n, 1)),
        ("Shor", Program::shor_kernel(n, 1)),
    ];
    for layout in Layout::ALL {
        let mut b = Machine::builder();
        b.grid(6, 6)
            .resources(12, 12, 6)
            .outputs_per_comm(2)
            .purify_depth(1)
            .layout(layout);
        let machine = b.build().expect("6x6 machine is valid");
        for (name, program) in &phases {
            let report = machine.run(program);
            assert_eq!(
                report.instructions as usize,
                program.len(),
                "{layout}/{name}: all instructions retire"
            );
        }
    }
}

/// `examples/modular_pareto.rs`: the cost-fidelity sweep runs through
/// the scenario entry point, every point prices out, the Pareto front
/// is coherent (ascending cost, no dominated member), and swapping the
/// inter tier to a fat tree genuinely moves the chart.
#[test]
fn modular_pareto_path() {
    let spec = ScenarioRegistry::builtin()
        .spec("cost_fidelity_pareto", ScenarioScale::SmallTest)
        .expect("registered");
    let sweep = |spec: &ScenarioSpec| {
        let report = qic::run(spec).expect("modular presets validate").report;
        let coords: Vec<(f64, f64)> = report
            .points
            .iter()
            .map(|p| {
                (
                    p.mean("cost_dollars").expect("points price out"),
                    p.mean("fidelity").expect("points report fidelity"),
                )
            })
            .collect();
        let front = pareto_front(&coords);
        assert!(
            !front.is_empty(),
            "{}: the front cannot be empty",
            spec.name
        );
        for pair in front.windows(2) {
            assert!(
                coords[pair[0]].0 <= coords[pair[1]].0 && coords[pair[0]].1 < coords[pair[1]].1,
                "{}: the front ascends in both cost and fidelity",
                spec.name
            );
        }
        for (i, &(cost, fidelity)) in coords.iter().enumerate() {
            if front.contains(&i) {
                continue;
            }
            // Off the front means some front member is at least as good
            // on both axes (duplicates count: ties keep one member).
            assert!(
                front
                    .iter()
                    .any(|&j| coords[j].0 <= cost && coords[j].1 >= fidelity),
                "{}: point {i} is off the front, so a member must cover it",
                spec.name
            );
        }
        (report, coords)
    };
    let (_, optical) = sweep(&spec);

    // The fat-tree variant (the example's second act): extra switch
    // stages must show up as strictly higher cost and lower estimated
    // fidelity on otherwise identical machines.
    let mut fat = spec;
    fat.name = "cost_fidelity_pareto_fat_tree".into();
    let ExperimentSpec::Machine { machine, .. } = &mut fat.experiment else {
        unreachable!("the pareto preset is a machine scenario");
    };
    let modular = machine
        .modular
        .take()
        .expect("the pareto preset is modular");
    machine.modular = Some(Box::new(
        (*modular).with_interconnect(Interconnect::FatTree { radix: 2 }),
    ));
    let (_, fat_tree) = sweep(&fat);
    for (o, f) in optical.iter().zip(&fat_tree) {
        assert!(f.0 > o.0, "fat tree adds switch ports: {} !> {}", f.0, o.0);
        assert!(f.1 < o.1, "fat tree adds a stage: {} !< {}", f.1, o.1);
    }
}
