//! The scenario entry points: `run(&spec)` and `run_with(&spec, &opts)`.

use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

use qic_analytic::cost::{ComponentCounts, CostModel, NetworkShape};
use qic_analytic::figures::{pair_budget, PairMetric};
use qic_analytic::plan::ChannelModel;
use qic_analytic::strategy::PurifyPlacement;
use qic_fault::FaultPlan;
use qic_modular::{ModularFabric, ModularSpec};
use qic_net::config::NetConfig;
use qic_net::report::NetReport;
use qic_net::sim::{BatchDriver, NetworkSim};
use qic_net::topology::{Coord, Fabric, Topology, TopologyKind};
use qic_probe::RecordingProbe;
use qic_sweep::{
    Campaign, CampaignProgress, CampaignReport, CheckpointConfig, CheckpointError, JsonlProgress,
    Metrics, RunCtx, RunOptions, SweepPoint,
};
use qic_workload::Program;

use crate::layout::Layout;
use crate::machine::Machine;
use crate::scenario::spec::{
    ExperimentSpec, MachineSpec, ObserveSpec, ScenarioAxis, ScenarioError, ScenarioSpec,
    WorkloadSpec,
};
use crate::scheduler::ProgramDriver;

/// The result of running a scenario: the spec that produced it plus the
/// full campaign report.
///
/// The report is byte-identical however the run was scheduled (worker
/// count, thread interleaving); see `qic-sweep`'s determinism contract.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// The spec that was run (after validation).
    pub spec: ScenarioSpec,
    /// Per-point results, CSV/JSON emitters included.
    pub report: CampaignReport,
}

impl ScenarioReport {
    /// The campaign report as deterministic CSV.
    pub fn to_csv(&self) -> String {
        self.report.to_csv()
    }

    /// The campaign report as deterministic JSON.
    pub fn to_json(&self) -> String {
        self.report.to_json()
    }
}

/// How far a [`run_with`] call got — either the finished report or,
/// for a budgeted or cancelled run, how many points are complete.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioProgress {
    /// Every point completed; the full report.
    Complete(Box<ScenarioReport>),
    /// The point budget ran out or the run was cancelled. When
    /// checkpointed, the manifest holds `done` of `total` points and a
    /// later run resumes from it.
    Partial {
        /// Points completed so far (across all runs of the manifest).
        done: usize,
        /// Points in the scenario's sweep (in the shard, when sharded).
        total: usize,
    },
}

/// Runs a scenario: validates the spec, builds the campaign its axes
/// describe, evaluates every point (in parallel, deterministically) and
/// returns the report — [`run_with`] under default [`RunOptions`].
///
/// This is the entry point every experiment goes through — the figure
/// presets in [`crate::scenario::ScenarioRegistry`], the examples, and
/// ad-hoc specs loaded from JSON. Specs with a
/// [`crate::scenario::CheckpointSpec`] resume from their manifest and
/// run to completion.
///
/// # Errors
///
/// As [`run_with`]. Running a validated spec with neither a checkpoint
/// nor an observe block cannot fail.
pub fn run(spec: &ScenarioSpec) -> Result<ScenarioReport, ScenarioError> {
    match run_with(spec, &RunOptions::default())? {
        ScenarioProgress::Complete(report) => Ok(*report),
        ScenarioProgress::Partial { .. } => {
            unreachable!("an unbudgeted, uncancelled run completes")
        }
    }
}

/// Runs a scenario under explicit [`RunOptions`]: a shared
/// [`qic_sweep::Executor`], one shard `i/K` of the sweep, a point
/// budget, a progress sink, a cancel token — in any combination the
/// options allow. The report is byte-identical to [`run`]'s whatever
/// the options pick.
///
/// The spec's [`crate::scenario::CheckpointSpec`], when present, fills
/// `opts.checkpoint` with the manifest `{dir}/{name}.ckpt.json`.
/// Checkpointed runs aggregate streaming (see
/// [`RunOptions::checkpoint`]) and resume from the manifest; a budgeted
/// run evaluates at most `budget` not-yet-completed points and reports
/// [`ScenarioProgress::Partial`] until a later call completes it. The
/// spec's `workers` hint sizes the per-call pool; a shared executor was
/// sized when it was built.
///
/// An [`crate::scenario::ObserveSpec`] writes per-point traces into its
/// directory and, for whole runs without a caller-supplied progress
/// sink, a `{name}.progress.jsonl` stream (wall-clock, outside the
/// determinism contract) that counts points. Sharded and checkpointed
/// runs skip the stream: their shard merge or manifest is their
/// progress record.
///
/// # Errors
///
/// [`ScenarioError`] if the spec fails validation; if a shard is asked
/// of a checkpointed run (a shard is restarted whole, so combining the
/// two would silently disable resume) or a budget of an uncheckpointed
/// one (there is nowhere to record progress); if the observe or
/// manifest directory, or the progress stream, cannot be created —
/// all before any point runs; or if the manifest cannot be read,
/// written, or does not belong to this spec.
pub fn run_with(
    spec: &ScenarioSpec,
    opts: &RunOptions<'_>,
) -> Result<ScenarioProgress, ScenarioError> {
    spec.validate()?;
    let spec_err = |problem: &str| ScenarioError::Spec {
        scenario: spec.name.clone(),
        problem: problem.into(),
    };
    let checkpointed = spec.checkpoint.is_some() || opts.checkpoint.is_some();
    if checkpointed && opts.shard.is_some() {
        return Err(spec_err(
            "sharded runs do not checkpoint; drop the checkpoint block \
             (shards are restarted whole) or run unsharded",
        ));
    }
    if opts.budget.is_some() && !checkpointed {
        return Err(spec_err(
            "budgeted runs need a checkpoint block to record progress in",
        ));
    }

    let mut opts = opts.clone();
    if let Some(ckpt) = &spec.checkpoint {
        std::fs::create_dir_all(&ckpt.dir).map_err(|e| {
            ScenarioError::Checkpoint(CheckpointError::Io {
                path: ckpt.dir.clone(),
                op: "create dir",
                message: e.to_string(),
            })
        })?;
        let path = Path::new(&ckpt.dir).join(format!("{}.ckpt.json", sanitize_stem(&spec.name)));
        opts.checkpoint = Some(CheckpointConfig::new(path).every(ckpt.every as usize));
    }
    if let Some(obs) = &spec.observe {
        std::fs::create_dir_all(&obs.dir).map_err(|e| io_err(spec, &obs.dir, &e))?;
        if opts.progress.is_none() && opts.shard.is_none() && opts.checkpoint.is_none() {
            let path = Path::new(&obs.dir).join(format!("{}.progress.jsonl", spec.name));
            let file = std::fs::File::create(&path)
                .map_err(|e| io_err(spec, &path.display().to_string(), &e))?;
            let points = spec.param_space().len();
            opts.progress = Some(Arc::new(JsonlProgress::new(file, points)));
        }
    }

    let eval: PointEval = match &spec.experiment {
        ExperimentSpec::Machine { machine, workload } => {
            let me = MachineEval::new(spec, machine, workload);
            Box::new(move |point, ctx| me.eval(point, ctx))
        }
        ExperimentSpec::Channel {
            placement,
            hops,
            metric,
        } => {
            let ce = ChannelEval::new(spec, *placement, *hops, *metric);
            Box::new(move |point, ctx| ce.eval(point, ctx))
        }
    };
    let campaign = Campaign::new(spec.name.clone(), spec.param_space())
        .seed(spec.seed)
        .replicates(spec.replicates)
        .workers(spec.workers);
    Ok(match campaign.run(&opts, eval)? {
        CampaignProgress::Complete(report) => {
            ScenarioProgress::Complete(Box::new(ScenarioReport {
                spec: spec.clone(),
                report: *report,
            }))
        }
        CampaignProgress::Partial { done, total } => ScenarioProgress::Partial { done, total },
    })
}

/// A setup-time filesystem failure, reported before any point runs.
fn io_err(spec: &ScenarioSpec, path: &str, e: &std::io::Error) -> ScenarioError {
    ScenarioError::Io {
        scenario: spec.name.clone(),
        path: path.to_string(),
        message: e.to_string(),
    }
}

/// One experiment family's point evaluator, owned by the run's tasks.
type PointEval = Box<dyn Fn(&SweepPoint<'_>, RunCtx) -> Metrics + Send + Sync>;

/// Maps path-hostile characters of a scenario name to `_`, the shared
/// file-stem convention for trace exports and checkpoint manifests.
fn sanitize_stem(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Writes one evaluation's trace exports under the observe directory.
/// The file stem is `{name}_p{index:04}_r{replicate}`, with any
/// path-hostile characters of the scenario name mapped to `_`.
fn write_traces(
    obs: &ObserveSpec,
    name: &str,
    point: usize,
    replicate: u32,
    probe: &RecordingProbe,
) {
    let stem = sanitize_stem(name);
    let base = Path::new(&obs.dir).join(format!("{stem}_p{point:04}_r{replicate}"));
    if obs.events {
        let path = base.with_extension("events.jsonl");
        std::fs::write(&path, probe.events_jsonl())
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    }
    if obs.chrome_trace {
        let path = base.with_extension("trace.json");
        std::fs::write(&path, probe.chrome_trace())
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    }
}

/// The owned evaluator behind every machine experiment: everything one
/// point evaluation needs, cloned out of the spec, because executor
/// tasks must be `Send + 'static`.
struct MachineEval {
    name: String,
    axes: Vec<ScenarioAxis>,
    machine: MachineSpec,
    workload: WorkloadSpec,
    /// Unless a workload axis varies it per point, the program is
    /// generated once up front (QFT-256 is tens of thousands of
    /// instructions).
    base_program: Option<Program>,
    observe: Option<ObserveSpec>,
    /// The modular fabrics this run has built, each under its
    /// [`FabricKey`]. Points that differ only in what the fabric never
    /// reads (the cost knobs, or any non-structural axis) share one
    /// build; a campaign holds a handful of keys, so a linear scan
    /// serves.
    fabrics: Mutex<Vec<(FabricKey, ModularFabric<Fabric>)>>,
}

/// What a modular fabric is built from: the base kind and grid, and
/// the modular spec with the report-only cost knobs at their defaults.
type FabricKey = (TopologyKind, u16, u16, ModularSpec);

impl MachineEval {
    /// Clones the evaluation state out of a validated spec.
    fn new(spec: &ScenarioSpec, machine: &MachineSpec, workload: &WorkloadSpec) -> MachineEval {
        let workload_varies = spec
            .axes
            .iter()
            .any(|a| matches!(a, ScenarioAxis::Workloads { .. }));
        let base_program = if workload_varies {
            None
        } else {
            workload.program()
        };
        MachineEval {
            name: spec.name.clone(),
            axes: spec.axes.clone(),
            machine: machine.clone(),
            workload: workload.clone(),
            base_program,
            observe: spec.observe.clone(),
            fabrics: Mutex::new(Vec::new()),
        }
    }

    /// The composed fabric for `net`'s base grid and `m`, built at most
    /// once per run (two points racing on a new key may both build it;
    /// the builds are equal and the first one stored is kept). The
    /// fabric is built from the key's spec: only this runner reads
    /// `inter_unit_cost` and `report_cost`, and it reads them from `m`.
    fn modular_fabric(&self, net: &NetConfig, m: &ModularSpec) -> ModularFabric<Fabric> {
        let defaults = ModularSpec::single();
        let key: FabricKey = (
            net.topology,
            net.mesh_width,
            net.mesh_height,
            ModularSpec {
                inter_unit_cost: defaults.inter_unit_cost,
                report_cost: defaults.report_cost,
                ..m.clone()
            },
        );
        let memo = || self.fabrics.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, fabric)) = memo().iter().find(|(k, _)| *k == key) {
            return fabric.clone();
        }
        let fabric = ModularFabric::new(net.fabric(), &key.3);
        let mut built = memo();
        if !built.iter().any(|(k, _)| *k == key) {
            built.push((key, fabric.clone()));
        }
        fabric
    }

    /// Evaluates one `(point, replicate)`: applies every axis to the
    /// base machine/workload, seeds the net RNG from the derived seed,
    /// and runs the simulator (degraded fabric when a fault plan is in
    /// play, probed when trace export is on).
    fn eval(&self, point: &SweepPoint<'_>, ctx: RunCtx) -> Metrics {
        let observe = self.observe.as_ref();
        let mut net = self.machine.net_config();
        let mut layout = self.machine.layout;
        let mut wl = self.workload.clone();
        let mut fault = self.machine.fault.clone();
        let mut modular = self.machine.modular.clone();
        for (a, axis) in self.axes.iter().enumerate() {
            axis.apply_machine(
                point.coord(a),
                &mut net,
                &mut layout,
                &mut wl,
                &mut fault,
                &mut modular,
            );
        }
        // Per-point derived seeds follow the engine's replication
        // contract; the simulator draws no random numbers (the seed
        // rides along for provenance), so they cannot shift a
        // figure's numbers. The fault plan keeps its *own* declared
        // seed: which components die is part of the scenario, not of
        // the replication noise.
        net.seed = ctx.seed;
        if let Some(m) = modular {
            return self.eval_modular(&m, net, layout, &wl, fault, (point.index(), ctx.replicate));
        }
        // Scenarios with a fault plan run over the compiled degraded
        // fabric (even at rate zero, so a fault sweep reports the same
        // metric columns at every point); plain scenarios take the
        // untouched healthy path.
        let degraded = fault.map(|plan| plan.compile(net.fabric()));
        match &wl {
            WorkloadSpec::Batch { comms } => {
                let batch = comms
                    .iter()
                    .map(|&((sx, sy), (dx, dy))| (Coord::new(sx, sy), Coord::new(dx, dy)))
                    .collect();
                let mut driver = BatchDriver::new(batch);
                match observe {
                    Some(obs) => {
                        let probe = RecordingProbe::with_bins(obs.bins);
                        let (report, probe) = match degraded {
                            Some(topo) => NetworkSim::with_topology_probe(net, topo, probe)
                                .run_traced(&mut driver),
                            None => NetworkSim::with_probe(net, probe).run_traced(&mut driver),
                        };
                        write_traces(obs, &self.name, point.index(), ctx.replicate, &probe);
                        report
                    }
                    None => match degraded {
                        Some(topo) => NetworkSim::with_topology(net, topo).run(&mut driver),
                        None => NetworkSim::new(net).run(&mut driver),
                    },
                }
                .metrics()
            }
            program_workload => {
                let per_point;
                let program = match &self.base_program {
                    Some(shared) => shared,
                    None => {
                        per_point = program_workload
                            .program()
                            .expect("non-batch workloads generate programs");
                        &per_point
                    }
                };
                match (degraded, observe) {
                    (Some(topo), observe) => {
                        // The scheduler drives the degraded fabric
                        // directly; dropped communications still retire
                        // their instructions, so degraded programs
                        // always drain (delivered/dropped counts tell
                        // the resilience story).
                        let mut driver = ProgramDriver::new(&net, layout, program)
                            .expect("validated scenario points fit the grid");
                        let report = match observe {
                            Some(obs) => {
                                let probe = RecordingProbe::with_bins(obs.bins);
                                let (report, probe) =
                                    NetworkSim::with_topology_probe(net, topo, probe)
                                        .run_traced(&mut driver);
                                write_traces(obs, &self.name, point.index(), ctx.replicate, &probe);
                                report
                            }
                            None => NetworkSim::with_topology(net, topo).run(&mut driver),
                        };
                        driver.assert_finished();
                        report.metrics()
                    }
                    (None, Some(obs)) => {
                        // Same construction Machine::run performs
                        // (ProgramDriver's default gate time is the
                        // machine builder's), with the probe attached.
                        let mut driver = ProgramDriver::new(&net, layout, program)
                            .expect("validated scenario points fit the grid");
                        let probe = RecordingProbe::with_bins(obs.bins);
                        let (report, probe) =
                            NetworkSim::with_probe(net, probe).run_traced(&mut driver);
                        driver.assert_finished();
                        write_traces(obs, &self.name, point.index(), ctx.replicate, &probe);
                        report.metrics()
                    }
                    (None, None) => {
                        let mut b = Machine::builder();
                        b.net_config(net).layout(layout);
                        let machine = b.build().expect("validated scenario points build");
                        machine.run(program).net.metrics()
                    }
                }
            }
        }
    }

    /// Evaluates one point of a modular machine: the composed fabric is
    /// handed to the simulator directly, the driver addresses the tiled
    /// grid, and — when the spec asks — cost/fidelity columns ride
    /// along next to the measured metrics. `trace_tag` is the
    /// `(point index, replicate)` pair that names any exported traces.
    fn eval_modular(
        &self,
        m: &ModularSpec,
        mut net: NetConfig,
        layout: Layout,
        wl: &WorkloadSpec,
        fault: Option<FaultPlan>,
        trace_tag: (usize, u32),
    ) -> Metrics {
        let fabric = self.modular_fabric(&net, m);
        if m.modules > 1 {
            // The driver addresses the composed grid: modules tile side
            // by side, so placement snakes across the full width. A
            // single module leaves the config untouched — the flat
            // path's placement (gray-coded on hypercubes) included —
            // which is what keeps the degenerate case byte-identical.
            net.mesh_width *= m.modules as u16;
            net.topology = TopologyKind::Mesh;
        }
        let mut metrics = match fault {
            Some(plan) => self
                .drive(
                    plan.compile(fabric.clone()),
                    net.clone(),
                    layout,
                    wl,
                    trace_tag,
                )
                .metrics(),
            None => self
                .drive(fabric.clone(), net.clone(), layout, wl, trace_tag)
                .metrics(),
        };
        if m.report_cost {
            let t = u64::from(net.teleporters_per_node);
            let g = u64::from(net.generators_per_edge);
            let p = u64::from(net.purifiers_per_site);
            let nodes = fabric.nodes() as u64;
            let intra = fabric.intra_links() as u64;
            let inter = fabric.inter_links() as u64;
            let counts = ComponentCounts {
                nodes,
                intra_links: intra,
                inter_links: inter,
                switch_ports: fabric.switch_ports() as u64,
                teleporters: nodes * t + fabric.uplink_slots(),
                generators: (intra + inter) * g,
                purifiers: nodes * p,
            };
            let shape = NetworkShape {
                avg_distance: fabric.avg_distance(),
                diameter: fabric.diameter(),
                bisection_width: fabric.bisection_width(),
                hop_ns: net.times.teleport(net.hop_cells).as_nanos(),
                inter_penalty_ns: m.inter.latency_ns * u64::from(fabric.tier_hops()),
            };
            let est = CostModel::ion_trap()
                .with_inter_link_cost(m.inter_unit_cost)
                .estimate(&counts, &shape);
            metrics = metrics
                .with("cost_dollars", est.dollars)
                .with("cost_area_cells", est.area_cells)
                .with("predicted_latency_ns", est.predicted_latency_ns)
                .with("fidelity", fabric.fidelity_estimate());
        }
        metrics
    }

    /// Runs one workload over a caller-supplied topology — the shared
    /// tail of the modular paths (healthy and degraded compose to
    /// different concrete types). `trace_tag` is the
    /// `(point index, replicate)` pair that names any exported traces.
    fn drive<T: Topology>(
        &self,
        topo: T,
        net: NetConfig,
        layout: Layout,
        wl: &WorkloadSpec,
        trace_tag: (usize, u32),
    ) -> NetReport {
        let observe = self.observe.as_ref();
        match wl {
            WorkloadSpec::Batch { comms } => {
                let batch = comms
                    .iter()
                    .map(|&((sx, sy), (dx, dy))| (Coord::new(sx, sy), Coord::new(dx, dy)))
                    .collect();
                let mut driver = BatchDriver::new(batch);
                match observe {
                    Some(obs) => {
                        let probe = RecordingProbe::with_bins(obs.bins);
                        let (report, probe) = NetworkSim::with_topology_probe(net, topo, probe)
                            .run_traced(&mut driver);
                        write_traces(obs, &self.name, trace_tag.0, trace_tag.1, &probe);
                        report
                    }
                    None => NetworkSim::with_topology(net, topo).run(&mut driver),
                }
            }
            program_workload => {
                let per_point;
                let program = match &self.base_program {
                    Some(shared) => shared,
                    None => {
                        per_point = program_workload
                            .program()
                            .expect("non-batch workloads generate programs");
                        &per_point
                    }
                };
                let mut driver = ProgramDriver::new(&net, layout, program)
                    .expect("validated scenario points fit the grid");
                let report = match observe {
                    Some(obs) => {
                        let probe = RecordingProbe::with_bins(obs.bins);
                        let (report, probe) = NetworkSim::with_topology_probe(net, topo, probe)
                            .run_traced(&mut driver);
                        write_traces(obs, &self.name, trace_tag.0, trace_tag.1, &probe);
                        report
                    }
                    None => NetworkSim::with_topology(net, topo).run(&mut driver),
                };
                driver.assert_finished();
                report
            }
        }
    }
}

/// The owned evaluator behind channel experiments — the closed-form
/// pair-budget model.
struct ChannelEval {
    axes: Vec<ScenarioAxis>,
    placement: PurifyPlacement,
    hops: u32,
    metric: PairMetric,
}

impl ChannelEval {
    fn new(
        spec: &ScenarioSpec,
        placement: PurifyPlacement,
        hops: u32,
        metric: PairMetric,
    ) -> ChannelEval {
        ChannelEval {
            axes: spec.axes.clone(),
            placement,
            hops,
            metric,
        }
    }

    fn eval(&self, point: &SweepPoint<'_>, _ctx: RunCtx) -> Metrics {
        let mut placement = self.placement;
        let mut hops = self.hops;
        let mut rates = None;
        for (a, axis) in self.axes.iter().enumerate() {
            axis.apply_channel(point.coord(a), &mut placement, &mut hops, &mut rates);
        }
        let mut model = ChannelModel::ion_trap().with_placement(placement);
        if let Some(rates) = rates {
            model = model.with_rates(rates);
        }
        Metrics::new().with("pairs", pair_budget(&model, hops, self.metric))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ScenarioRegistry, ScenarioScale};

    #[test]
    fn points_differing_only_in_cost_share_one_modular_fabric() {
        let spec = ScenarioRegistry::builtin()
            .spec("cost_fidelity_pareto", ScenarioScale::SmallTest)
            .expect("registered");
        let ExperimentSpec::Machine { machine, workload } = &spec.experiment else {
            panic!("cost_fidelity_pareto is a machine experiment");
        };
        let eval = MachineEval::new(&spec, machine, workload);
        let net = machine.net_config();
        let m = machine.modular.as_deref().expect("modular preset").clone();
        let builds = || eval.fabrics.lock().expect("memo").len();
        for cost in [1.0, 4.0, 16.0] {
            for report in [true, false] {
                let fabric = eval.modular_fabric(
                    &net,
                    &m.clone()
                        .with_inter_unit_cost(cost)
                        .with_report_cost(report),
                );
                assert_eq!(
                    fabric.spec().inter_unit_cost,
                    ModularSpec::single().inter_unit_cost
                );
            }
        }
        assert_eq!(builds(), 1, "the cost knobs build no new fabric");
        let four = eval.modular_fabric(&net, &m.clone().with_modules(4));
        assert_eq!(
            (builds(), four.modules()),
            (2, 4),
            "a new module count does"
        );
        let mut torus = net.clone();
        torus.topology = TopologyKind::Torus;
        eval.modular_fabric(&torus, &m);
        assert_eq!(builds(), 3, "so does a new base fabric");
    }
}
