//! The traced run: re-executes a workload layer by layer through the
//! layers' public functions, timing each call from outside, and checks
//! that the decomposition reproduces `qic::run` point for point.

use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use qic::core::scenario::{
    ratio_resources, ExperimentSpec, MachineSpec, ScenarioAxis, ScenarioRegistry, ScenarioReport,
    ScenarioScale, ScenarioSpec, SpecDigest, WorkloadSpec,
};
use qic::core::scheduler::ProgramDriver;
use qic::fault::FaultPlan;
use qic::modular::{ModularFabric, ModularSpec};
use qic::net::config::NetConfig;
use qic::net::report::NetReport;
use qic::net::sim::{BatchDriver, NetworkSim};
use qic::net::topology::{Coord, Topology, TopologyKind};
use qic::serve::{CacheDir, CacheSource};
use qic::sweep::json::{obj, Json};
use qic::sweep::{derive_seed, CampaignReport, Metrics};
use qic::workload::Program;

use crate::inputs::Prepared;
use crate::measure::{points_of, run_all, serve_leg, SERVE_WORKERS};
use crate::stats::{median, Ledger};

/// Report columns a modular point adds beyond `NetReport::metrics()`.
const COST_COLUMNS: [&str; 4] = [
    "cost_dollars",
    "cost_area_cells",
    "predicted_latency_ns",
    "fidelity",
];

/// One timed call: name, start and end (nanoseconds since the tracer
/// started) and the span that made it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// An in-memory span recorder, written out once the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span named `name`, a child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now();
        out
    }

    /// Closes the spans a panic left open above `depth`.
    fn unwind_to(&mut self, depth: usize) {
        let now = self.now();
        for id in self.open.drain(depth..) {
            self.spans[id].end_ns = now;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Nanoseconds of each span not covered by its children.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Summed self time, in milliseconds, of the spans named `name`
    /// recorded from span `from` on.
    pub fn self_ms(&self, from: usize, name: &str) -> f64 {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(own)
            .skip(from)
            .filter(|(s, _)| s.name == name)
            .fold(0.0, |ms, (_, ns)| ms + ns as f64 / 1e6)
    }

    /// One JSON object per span.
    pub fn to_jsonl(&self) -> String {
        let own = self.self_ns();
        let mut out = String::new();
        for (id, (s, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or(Json::Null, |p| Json::Int(p as i128));
            let line = obj(vec![
                ("id", Json::Int(id as i128)),
                ("name", Json::Str(s.name.into())),
                ("parent", parent),
                ("start_ns", Json::Int(s.start_ns.into())),
                ("end_ns", Json::Int(s.end_ns.into())),
                ("self_ns", Json::Int(self_ns.into())),
            ]);
            out.push_str(&line.emit());
            out.push('\n');
        }
        out
    }
}

/// Simulated statistics of the reconstructed points, and the fabric
/// builds they needed.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Totals {
    pub points: u64,
    pub events: u64,
    pub makespan_us: f64,
    pub stalls: u64,
    pub fault_compiles: u64,
    pub modular_builds: u64,
}

impl Totals {
    fn add(&mut self, r: &NetReport) {
        self.points += 1;
        self.events += r.events;
        self.makespan_us += r.makespan.as_us_f64();
        self.stalls += r.teleporter_stalls + r.wire_stalls + r.storage_stalls;
    }
}

/// Re-executes one spec through the layers' public functions in runner
/// order — `MachineSpec::net_config` → `FaultPlan::compile` or
/// `ModularFabric::new` → `ProgramDriver::new` →
/// `NetworkSim::with_topology(..).run` — and checks every point's
/// `NetReport::metrics()` against the same point of `expected`.
/// Channel specs are validated only: they simulate nothing.
pub fn trace_spec(
    tr: &mut Tracer,
    spec: &ScenarioSpec,
    expected: &CampaignReport,
    totals: &mut Totals,
) -> Result<(), String> {
    tr.span("spec", |tr| {
        tr.span("core.validate", |_| spec.validate())
            .map_err(|e| e.to_string())?;
        let ExperimentSpec::Machine { machine, workload } = &spec.experiment else {
            return Ok(());
        };
        let varies = spec
            .axes
            .iter()
            .any(|a| matches!(a, ScenarioAxis::Workloads { .. }));
        // The runner generates a fixed workload's program once per spec.
        let shared = if varies {
            None
        } else {
            tr.span("workload.program", |_| workload.program())
        };
        let space = spec.param_space();
        for index in 0..space.len() {
            let point = space.point(index);
            let coords: Vec<usize> = (0..spec.axes.len()).map(|a| point.coord(a)).collect();
            let (m, wl) = point_machine(machine, workload, &spec.axes, &coords)?;
            for rep in 0..spec.replicates {
                let seed = derive_seed(spec.seed, index as u64, u64::from(rep));
                let report = tr.span("point", |tr| {
                    let program = match (&shared, &wl) {
                        (_, WorkloadSpec::Batch { .. }) => None,
                        (Some(p), _) => Some(Cow::Borrowed(p)),
                        (None, wl) => tr
                            .span("workload.program", |_| wl.program())
                            .map(Cow::Owned),
                    };
                    eval_point(tr, &m, &wl, seed, program.as_deref(), totals)
                })?;
                let got = expected
                    .points
                    .get(index)
                    .and_then(|p| p.replicates.get(rep as usize))
                    .ok_or_else(|| format!("{}: run report lacks point {index}", spec.name))?;
                same_metrics(&report.metrics(), got)
                    .map_err(|e| format!("{} point {index}: {e}", spec.name))?;
                totals.add(&report);
            }
        }
        Ok(())
    })
}

/// A point's machine and workload: the base spec with each axis value
/// applied through the public setters, slowest axis first.
fn point_machine(
    base: &MachineSpec,
    workload: &WorkloadSpec,
    axes: &[ScenarioAxis],
    coords: &[usize],
) -> Result<(MachineSpec, WorkloadSpec), String> {
    let mut m = base.clone();
    let mut wl = workload.clone();
    let modular = |m: &MachineSpec| {
        m.modular
            .as_deref()
            .cloned()
            .unwrap_or_else(ModularSpec::single)
    };
    for (axis, &i) in axes.iter().zip(coords) {
        m = match axis {
            ScenarioAxis::ResourceRatio { area, ratios } => {
                let (t, g, p) = ratio_resources(ratios[i], *area);
                m.with_resources(t, g, p)
            }
            ScenarioAxis::Layouts { layouts } => m.with_layout(layouts[i]),
            ScenarioAxis::Topologies { kinds } => m.with_topology(kinds[i]),
            ScenarioAxis::Routings { policies } => m.with_routing(policies[i]),
            ScenarioAxis::GridEdges { edges } => m.with_grid(edges[i], edges[i]),
            ScenarioAxis::PurifyDepths { depths } => m.with_purify_depth(depths[i]),
            ScenarioAxis::Units { units } => m.with_resources(units[i], units[i], units[i]),
            ScenarioAxis::Teleporters { values } => {
                let (g, p) = (m.generators, m.purifiers);
                m.with_resources(values[i], g, p)
            }
            ScenarioAxis::Generators { values } => {
                let (t, p) = (m.teleporters, m.purifiers);
                m.with_resources(t, values[i], p)
            }
            ScenarioAxis::Purifiers { values } => {
                let (t, g) = (m.teleporters, m.generators);
                m.with_resources(t, g, values[i])
            }
            ScenarioAxis::Workloads { workloads } => {
                wl = workloads[i].clone();
                m
            }
            ScenarioAxis::FaultRate { rates } => {
                let mut plan = m.fault.clone().unwrap_or_else(FaultPlan::healthy);
                plan.link_kill_rate = rates[i];
                m.with_fault(plan)
            }
            ScenarioAxis::Modules { counts } => {
                let mut ms = modular(&m);
                ms.modules = counts[i];
                m.with_modular(ms)
            }
            ScenarioAxis::InterTierLatency { latencies_ns } => {
                let mut ms = modular(&m);
                ms.inter.latency_ns = latencies_ns[i];
                m.with_modular(ms)
            }
            ScenarioAxis::InterTierCost { costs } => {
                let mut ms = modular(&m);
                ms.inter_unit_cost = costs[i];
                m.with_modular(ms)
            }
            other => {
                return Err(format!(
                    "axis {} has no machine binding",
                    other.axis().name()
                ))
            }
        };
    }
    Ok((m, wl))
}

/// Evaluates one point layer by layer. As in the runner, every point
/// passes the modular and fault steps, which build nothing when the
/// machine has no modular block or fault plan.
fn eval_point(
    tr: &mut Tracer,
    m: &MachineSpec,
    wl: &WorkloadSpec,
    seed: u64,
    program: Option<&Program>,
    totals: &mut Totals,
) -> Result<NetReport, String> {
    let mut net = tr.span("core.net_config", |_| {
        let mut net = m.net_config();
        net.seed = seed;
        net
    });
    let modular = tr.span("modular.build", |_| {
        m.modular
            .as_deref()
            .map(|ms| ModularFabric::new(net.fabric(), ms))
    });
    let fault = m.fault.clone();
    totals.fault_compiles += u64::from(fault.is_some());
    match modular {
        Some(fabric) => {
            totals.modular_builds += 1;
            let modules = m.modular.as_ref().map_or(1, |ms| ms.modules);
            if modules > 1 {
                // The driver addresses the tiled grid of all modules.
                net.mesh_width *= modules as u16;
                net.topology = TopologyKind::Mesh;
            }
            match tr.span("fault.compile", |_| {
                fault.map(|plan| plan.compile(fabric.clone()))
            }) {
                Some(degraded) => drive(tr, net, degraded, m, wl, program),
                None => drive(tr, net, fabric, m, wl, program),
            }
        }
        None => match tr.span("fault.compile", |_| {
            fault.map(|plan| plan.compile(net.fabric()))
        }) {
            Some(degraded) => drive(tr, net, degraded, m, wl, program),
            None => {
                let fabric = net.fabric();
                drive(tr, net, fabric, m, wl, program)
            }
        },
    }
}

fn drive<T: Topology>(
    tr: &mut Tracer,
    net: NetConfig,
    topo: T,
    m: &MachineSpec,
    wl: &WorkloadSpec,
    program: Option<&Program>,
) -> Result<NetReport, String> {
    if let WorkloadSpec::Batch { comms } = wl {
        let batch = comms
            .iter()
            .map(|&((sx, sy), (dx, dy))| (Coord::new(sx, sy), Coord::new(dx, dy)))
            .collect();
        let mut driver = BatchDriver::new(batch);
        return Ok(tr.span("net.sim", |_| {
            NetworkSim::with_topology(net, topo).run(&mut driver)
        }));
    }
    let program = program.ok_or("program workloads generate programs")?;
    let mut driver = tr
        .span("core.driver", |_| {
            ProgramDriver::new(&net, m.layout, program)
        })
        .map_err(|e| format!("placement: {e:?}"))?;
    let report = tr.span("net.sim", |_| {
        NetworkSim::with_topology(net, topo).run(&mut driver)
    });
    if !driver.is_finished() {
        return Err(format!(
            "{} of {} instructions completed",
            driver.completed(),
            program.len()
        ));
    }
    Ok(report)
}

/// Every reconstructed metric must equal the reported one bit for bit,
/// and the report may add only the modular cost columns.
fn same_metrics(traced: &Metrics, reported: &Metrics) -> Result<(), String> {
    for (name, v) in traced.iter() {
        match reported.get(name) {
            Some(r) if r.to_bits() == v.to_bits() => {}
            other => return Err(format!("{name}: traced {v}, qic::run {other:?}")),
        }
    }
    match reported
        .names()
        .find(|n| traced.get(n).is_none() && !COST_COLUMNS.contains(n))
    {
        Some(extra) => Err(format!(
            "qic::run reports {extra}, the traced point does not"
        )),
        None => Ok(()),
    }
}

/// One traced pass's per-layer figures.
type Figures = Vec<(&'static str, f64)>;

/// One traced pass: the untraced runs the decomposition is checked
/// against, the decomposition itself, the codec and cache-tier calls on
/// the resulting reports, and the service protocol.
fn traced_pass(
    prepared: &Prepared,
    scratch: &Path,
    ledger: &mut Ledger,
    tr: &mut Tracer,
) -> Figures {
    let specs = &prepared.specs;
    let w1 = run_all(specs, 1, ledger);
    let w2 = run_all(specs, SERVE_WORKERS, ledger);
    let wall1: f64 = w1.iter().map(|(_, t)| t).sum();
    let wall2: f64 = w2.iter().map(|(_, t)| t).sum();
    let reports: Vec<&ScenarioReport> = w1.iter().filter_map(|(r, _)| r.as_ref()).collect();
    let eval_s: f64 = reports
        .iter()
        .map(|r| r.report.total_wall_ns() as f64 / 1e9)
        .sum();
    let point_ms: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.report.wall_ns.iter().map(|&ns| ns as f64 / 1e6))
        .collect();

    let first_span = tr.spans().len();
    let mut totals = Totals::default();
    for (spec, (report, _)) in specs.iter().zip(&w1) {
        let Some(report) = report else { continue };
        let depth = tr.open.len();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            trace_spec(tr, spec, &report.report, &mut totals)
        }));
        let problem = match outcome {
            Ok(Ok(())) => None,
            Ok(Err(e)) => Some(e),
            Err(_) => {
                tr.unwind_to(depth);
                Some(format!("{}: traced run panicked", spec.name))
            }
        };
        ledger.check(problem.is_none(), points_of(spec), || {
            problem.unwrap_or_default()
        });
    }
    let traced_s: f64 = tr.spans()[first_span..]
        .iter()
        .filter(|s| s.name == "spec")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .sum();

    let cache = CacheDir::open(scratch.join("tier-probe")).expect("scratch directory is writable");
    for (spec, report) in specs.iter().zip(&w1) {
        let Some(report) = &report.0 else { continue };
        tr.span("sweep.emit", |_| {
            std::hint::black_box((report.to_csv(), report.to_json()));
        });
        let back = tr.span("sweep.record_codec", |_| {
            CampaignReport::from_record_json(&report.report.to_record_json())
        });
        ledger.check(back.as_ref() == Ok(&report.report), 1, || {
            format!("{}: record codec does not round-trip", spec.name)
        });
        let parsed = tr.span("core.spec_codec", |_| {
            ScenarioSpec::from_json(&spec.to_json())
        });
        ledger.check(parsed.as_ref() == Ok(spec), 1, || {
            format!("{}: spec codec does not round-trip", spec.name)
        });
        tr.span("core.digest", |_| {
            std::hint::black_box(SpecDigest::of(spec))
        });
        let stored = tr.span("serve.store", |_| cache.store(spec, &report.report));
        let loaded = tr.span("serve.load", |_| cache.load(spec));
        ledger.check(
            stored.is_ok() && loaded.as_ref().ok().and_then(Option::as_ref) == Some(&report.report),
            1,
            || format!("{}: cache store/load does not round-trip", spec.name),
        );
    }
    let _ = std::fs::remove_dir_all(scratch.join("tier-probe"));

    let leg = serve_leg(
        &prepared.texts,
        SERVE_WORKERS,
        &scratch.join("serve-traced"),
        ledger,
    );
    let overhead: Vec<f64> = leg
        .jobs
        .iter()
        .filter(|j| j.source == CacheSource::Computed)
        .filter_map(|j| {
            let i = specs.iter().position(|s| *s == j.report.spec)?;
            Some(j.ms - w2[i].1 * 1e3)
        })
        .collect();
    let counter = |name: &str| {
        leg.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let served =
        counter("serve.computed") + counter("serve.hits.memory") + counter("serve.hits.disk");
    let n = specs.len().max(1) as f64;
    let mut figures = vec![
        ("core.validate_ms", tr.self_ms(first_span, "core.validate")),
        (
            "core.spec_codec_us",
            tr.self_ms(first_span, "core.spec_codec") * 1e3 / n,
        ),
        (
            "core.digest_us",
            tr.self_ms(first_span, "core.digest") * 1e3 / n,
        ),
        (
            "core.net_config_ms",
            tr.self_ms(first_span, "core.net_config"),
        ),
        ("core.driver_ms", tr.self_ms(first_span, "core.driver")),
        (
            "workload.program_ms",
            tr.self_ms(first_span, "workload.program"),
        ),
        ("fault.compile_ms", tr.self_ms(first_span, "fault.compile")),
        ("fault.compiles", totals.fault_compiles as f64),
        ("modular.build_ms", tr.self_ms(first_span, "modular.build")),
        ("modular.builds", totals.modular_builds as f64),
        ("net.sim_ms", tr.self_ms(first_span, "net.sim")),
        ("net.events", totals.events as f64),
        (
            "net.ns_per_event",
            tr.self_ms(first_span, "net.sim") * 1e6 / totals.events.max(1) as f64,
        ),
        ("net.makespan_us_sum", totals.makespan_us),
        ("net.stalls", totals.stalls as f64),
        ("net.points", totals.points as f64),
        ("sweep.overhead_ms", (wall1 - eval_s) * 1e3),
        ("sweep.point_ms_p50", median(&point_ms).unwrap_or(0.0)),
        (
            "sweep.point_ms_max",
            point_ms.iter().copied().fold(0.0, f64::max),
        ),
        ("sweep.scaling_eff", wall1 / (SERVE_WORKERS as f64 * wall2)),
        ("sweep.emit_ms", tr.self_ms(first_span, "sweep.emit")),
        (
            "sweep.record_codec_ms",
            tr.self_ms(first_span, "sweep.record_codec"),
        ),
        ("serve.store_ms", tr.self_ms(first_span, "serve.store")),
        ("serve.load_ms", tr.self_ms(first_span, "serve.load")),
        ("serve.overhead_ms", median(&overhead).unwrap_or(0.0)),
        (
            "serve.hit_ratio",
            (counter("serve.hits.memory") + counter("serve.hits.disk")) / served.max(1.0),
        ),
        ("trace.wall_s", wall1),
        ("trace.traced_s", traced_s),
        ("trace.gap_frac", traced_s / wall1 - 1.0),
        ("trace.spans", (tr.spans().len() - first_span) as f64),
    ];
    for name in SERVE_COUNTERS {
        figures.push((name, counter(name)));
    }
    figures
}

/// The `ServeHandle::metrics` counters the traced run reports.
const SERVE_COUNTERS: [&str; 9] = [
    "serve.submitted",
    "serve.rejected",
    "serve.computed",
    "serve.hits.memory",
    "serve.hits.disk",
    "serve.coalesced",
    "serve.failed",
    "serve.cancelled",
    "serve.cache.errors",
];

/// Every registry preset at Full on one worker, panics caught: wall time
/// per preset and the number that failed.
fn registry_sweep() -> (Vec<(String, f64)>, u32) {
    let quiet = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut walls = Vec::new();
    let mut failed = 0;
    for entry in ScenarioRegistry::builtin().entries() {
        let spec = entry.spec(ScenarioScale::Full).with_workers(1);
        let start = Instant::now();
        let ok = matches!(catch_unwind(|| qic::run(&spec)), Ok(Ok(_)));
        walls.push((entry.name.to_string(), start.elapsed().as_secs_f64()));
        if !ok {
            failed += 1;
            eprintln!("registry sweep: {} failed at Full scale", entry.name);
        }
    }
    std::panic::set_hook(quiet);
    (walls, failed)
}

/// The traced run: traced passes until `seconds` have passed (at least
/// one), per-layer medians across passes, then the registry sweep. The
/// spans are written to `spans_out`.
pub fn traced(
    prepared: &Prepared,
    seconds: f64,
    scratch: &Path,
    spans_out: &Path,
    ledger: &mut Ledger,
) -> Vec<(String, f64)> {
    let mut tr = Tracer::default();
    let mut passes: Vec<Figures> = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        passes.push(traced_pass(prepared, scratch, ledger, &mut tr));
    }
    let mut out: Vec<(String, f64)> = passes[0]
        .iter()
        .map(|&(name, _)| {
            let values: Vec<f64> = passes
                .iter()
                .filter_map(|p| p.iter().find(|(n, _)| *n == name).map(|(_, v)| *v))
                .collect();
            (name.to_string(), median(&values).unwrap_or(0.0))
        })
        .collect();
    out.push(("trace.passes".into(), passes.len() as f64));
    let (walls, failed) = registry_sweep();
    out.push(("core.presets_failed".into(), f64::from(failed)));
    for (name, wall) in walls {
        out.push((format!("core.preset_wall_s.{name}"), wall));
    }
    if let Some(dir) = spans_out.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(spans_out, tr.to_jsonl()) {
        eprintln!("writing {}: {e}", spans_out.display());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Workload;

    /// The decomposition of a workload's SmallTest variant, checked against
    /// `qic::run`: used by the tests.
    fn check_small(workload: Workload, seed: u64) -> Result<Totals, String> {
        let mut totals = Totals::default();
        let mut tr = Tracer::default();
        for spec in workload.specs_at(seed, ScenarioScale::SmallTest) {
            let report = qic::run(&spec).map_err(|e| e.to_string())?;
            trace_spec(&mut tr, &spec, &report.report, &mut totals)?;
        }
        Ok(totals)
    }

    #[test]
    fn decomposition_reproduces_qic_run_on_small_batch_workloads() {
        for w in [Workload::QftPaper, Workload::FaultAdaptive] {
            let totals = check_small(w, 11).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert!(totals.points > 0 && totals.events > 0, "{}", w.name());
        }
    }

    #[test]
    fn decomposition_reproduces_every_small_registry_preset() {
        check_small(Workload::ServeMixed, 5).unwrap();
    }

    #[test]
    fn a_wrong_point_is_caught() {
        let spec = Workload::QftPaper
            .specs_at(1, ScenarioScale::SmallTest)
            .remove(0);
        let mut report = qic::run(&spec).unwrap().report;
        let m = &mut report.points[3].replicates[0];
        *m = m.iter().fold(Metrics::new(), |acc, (n, v)| {
            acc.with(n, if n == "events" { v + 1.0 } else { v })
        });
        let err = trace_spec(
            &mut Tracer::default(),
            &spec,
            &report,
            &mut Totals::default(),
        )
        .unwrap_err();
        assert!(err.contains("point 3") && err.contains("events"), "{err}");
    }

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::default();
        tr.span("outer", |tr| {
            tr.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let span_ms = |s: &Span| (s.end_ns - s.start_ns) as f64 / 1e6;
        let (outer, inner) = (span_ms(&tr.spans()[0]), tr.self_ms(0, "inner"));
        assert!(inner >= 20.0 && outer >= inner);
        assert!((tr.self_ms(0, "outer") - (outer - inner)).abs() < 1e-6);
        assert_eq!(tr.to_jsonl().lines().count(), 2);
        assert_eq!(tr.spans()[1].parent, Some(0));
    }
}
