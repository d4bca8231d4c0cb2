//! The scenario entry points: `run(&spec)` and `run_with(&spec, &opts)`.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

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
///
/// A run simulates each distinct machine once. Two evaluations that
/// differ only in what the simulator never reads — the replicate's
/// derived seed (provenance only, see [`NetConfig::seed`]) and the
/// values of report-only axes ([`ScenarioAxis::is_report_only`]) —
/// form one *sharing class*: the first to ask simulates, the others
/// wait for and reuse its metrics, and every point then adds its own
/// cost columns from its own [`ModularSpec`]. Observed runs simulate
/// every `(point, replicate)`, so each writes its own traces.
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
    /// The simulation of each sharing class some member has claimed
    /// but not every member has, with the count of members still to
    /// claim it. The last claim removes the entry, so memory stays
    /// flat however long the campaign; a shard, budget or resume that
    /// covers part of a class simulates it once per call.
    sims: Mutex<HashMap<usize, Claimed>>,
    /// Evaluations per sharing class: the product of the report-only
    /// axes' lengths, times the replicates.
    class_size: usize,
    /// Simulations this evaluator has run.
    #[cfg(test)]
    simulations: std::sync::atomic::AtomicUsize,
}

/// What a modular fabric is built from: the base kind and grid, and
/// the modular spec with the report-only cost knobs at their defaults
/// ([`without_cost_knobs`]). The same two knobs are what a
/// [`ScenarioAxis::is_report_only`] axis varies, which is why points
/// that differ only along such an axis share one simulation.
type FabricKey = (TopologyKind, u16, u16, ModularSpec);

/// `m` with the knobs only the cost columns read — `inter_unit_cost`
/// and `report_cost` — at their defaults: what the fabric and the
/// simulation see of it.
fn without_cost_knobs(m: &ModularSpec) -> ModularSpec {
    let defaults = ModularSpec::single();
    ModularSpec {
        inter_unit_cost: defaults.inter_unit_cost,
        report_cost: defaults.report_cost,
        ..m.clone()
    }
}

/// One machine point with every axis applied: all a simulation reads,
/// plus the seed and cost knobs it carries for the report.
#[derive(Debug, Clone, PartialEq)]
struct MachinePoint {
    net: NetConfig,
    layout: Layout,
    workload: WorkloadSpec,
    fault: Option<FaultPlan>,
    modular: Option<Box<ModularSpec>>,
}

impl MachinePoint {
    /// The simulation's inputs: the point with its seed cleared and its
    /// cost knobs at their defaults. Every member of a sharing class
    /// has equal inputs. Taken before the modular path widens the grid
    /// to the composed width, so different base fabrics stay apart.
    #[cfg(debug_assertions)]
    fn sim_inputs(&self) -> MachinePoint {
        let mut inputs = self.clone();
        inputs.net.seed = 0;
        inputs.modular = inputs.modular.map(|m| Box::new(without_cost_knobs(&m)));
        inputs
    }
}

/// A sharing class's simulation slot and the count of its members yet
/// to claim it.
type Claimed = (Arc<OnceLock<Simulated>>, usize);

/// One sharing class's simulation result. Debug builds keep the inputs
/// it ran on, and every later reader checks that its own inputs equal
/// them, so an axis wrongly classed as report-only fails the tests.
struct Simulated {
    metrics: Metrics,
    #[cfg(debug_assertions)]
    inputs: MachinePoint,
}

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
        let report_only_values: usize = spec
            .axes
            .iter()
            .filter(|a| a.is_report_only())
            .map(ScenarioAxis::len)
            .product();
        MachineEval {
            name: spec.name.clone(),
            axes: spec.axes.clone(),
            machine: machine.clone(),
            workload: workload.clone(),
            base_program,
            observe: spec.observe.clone(),
            fabrics: Mutex::new(Vec::new()),
            sims: Mutex::new(HashMap::new()),
            class_size: report_only_values * spec.replicates as usize,
            #[cfg(test)]
            simulations: Default::default(),
        }
    }

    /// The composed fabric for `net`'s base grid and `m`, built at most
    /// once per run (two points racing on a new key may both build it;
    /// the builds are equal and the first one stored is kept). The
    /// fabric is built from the key's spec: only this runner reads
    /// `inter_unit_cost` and `report_cost`, and it reads them from `m`.
    fn modular_fabric(&self, net: &NetConfig, m: &ModularSpec) -> ModularFabric<Fabric> {
        let key: FabricKey = (
            net.topology,
            net.mesh_width,
            net.mesh_height,
            without_cost_knobs(m),
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

    /// The point's sharing class: its index with every report-only
    /// axis coordinate set to 0.
    fn sharing_class(&self, point: &SweepPoint<'_>) -> usize {
        self.axes.iter().enumerate().fold(0, |class, (a, axis)| {
            let coord = if axis.is_report_only() {
                0
            } else {
                point.coord(a)
            };
            class * axis.len() + coord
        })
    }

    /// Evaluates one `(point, replicate)`: applies every axis to the
    /// base machine/workload, takes the simulated metrics of the
    /// point's sharing class (simulating them if this is the first
    /// member to ask, or on every call when traces are exported), and
    /// appends the point's own cost columns when its modular block
    /// asks for them.
    fn eval(&self, point: &SweepPoint<'_>, ctx: RunCtx) -> Metrics {
        let mut p = MachinePoint {
            net: self.machine.net_config(),
            layout: self.machine.layout,
            workload: self.workload.clone(),
            fault: self.machine.fault.clone(),
            modular: self.machine.modular.clone(),
        };
        for (a, axis) in self.axes.iter().enumerate() {
            axis.apply_machine(
                point.coord(a),
                &mut p.net,
                &mut p.layout,
                &mut p.workload,
                &mut p.fault,
                &mut p.modular,
            );
        }
        // Per-point derived seeds follow the engine's replication
        // contract; the simulator draws no random numbers (the seed
        // rides along for provenance), so they cannot shift a
        // figure's numbers — which is what lets replicates share one
        // simulation. The fault plan keeps its *own* declared seed:
        // which components die is part of the scenario, not of the
        // replication noise.
        p.net.seed = ctx.seed;
        let fabric = p.modular.as_deref().map(|m| self.modular_fabric(&p.net, m));
        let simulate = || self.simulate(&p, fabric.clone(), (point.index(), ctx.replicate));
        let metrics = if self.observe.is_some() {
            simulate()
        } else {
            self.shared(self.sharing_class(point), &p, simulate)
        };
        match (p.modular.as_deref(), &fabric) {
            (Some(m), Some(fabric)) if m.report_cost => cost_columns(metrics, m, &p.net, fabric),
            _ => metrics,
        }
    }

    /// The simulated metrics of sharing class `class`, which `p`
    /// belongs to: the first member to ask runs `simulate`, members
    /// asking meanwhile wait for it, and later ones read its result. A
    /// `simulate` that panics leaves the class unsimulated, so each
    /// waiting member then simulates (and fails) on its own.
    fn shared(
        &self,
        class: usize,
        p: &MachinePoint,
        simulate: impl FnOnce() -> Metrics,
    ) -> Metrics {
        let cell = {
            let mut sims = self.sims.lock().unwrap_or_else(PoisonError::into_inner);
            let entry = sims
                .entry(class)
                .or_insert_with(|| (Arc::default(), self.class_size));
            entry.1 -= 1;
            let cell = Arc::clone(&entry.0);
            if entry.1 == 0 {
                sims.remove(&class);
            }
            cell
        };
        let sim = cell.get_or_init(|| Simulated {
            metrics: simulate(),
            #[cfg(debug_assertions)]
            inputs: p.sim_inputs(),
        });
        #[cfg(debug_assertions)]
        assert_eq!(
            sim.inputs,
            p.sim_inputs(),
            "{}: a point shares a simulation it does not match",
            self.name
        );
        #[cfg(not(debug_assertions))]
        let _ = p;
        sim.metrics.clone()
    }

    /// Simulates one applied point — over its composed fabric when it
    /// is modular, degraded when a fault plan is in play, probed when
    /// trace export is on — and returns the simulator's metrics.
    /// `trace_tag` is the `(point index, replicate)` pair that names
    /// any exported traces.
    fn simulate(
        &self,
        p: &MachinePoint,
        fabric: Option<ModularFabric<Fabric>>,
        trace_tag: (usize, u32),
    ) -> Metrics {
        #[cfg(test)]
        self.simulations
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut net = p.net.clone();
        let (layout, wl) = (p.layout, &p.workload);
        // Scenarios with a fault plan run over the compiled degraded
        // fabric (even at rate zero, so a fault sweep reports the same
        // metric columns at every point); plain scenarios take the
        // untouched healthy fabric.
        let report = match fabric {
            Some(fabric) => {
                if fabric.modules() > 1 {
                    // The driver addresses the composed grid: modules
                    // tile side by side, so placement snakes across the
                    // full width. A single module leaves the config
                    // untouched — the flat path's placement (gray-coded
                    // on hypercubes) included — which is what keeps the
                    // degenerate case byte-identical.
                    net.mesh_width *= fabric.modules() as u16;
                    net.topology = TopologyKind::Mesh;
                }
                match p.fault.clone() {
                    Some(plan) => self.drive(plan.compile(fabric), net, layout, wl, trace_tag),
                    None => self.drive(fabric, net, layout, wl, trace_tag),
                }
            }
            None => {
                let base = net.fabric();
                match p.fault.clone() {
                    Some(plan) => self.drive(plan.compile(base), net, layout, wl, trace_tag),
                    None => self.drive(base, net, layout, wl, trace_tag),
                }
            }
        };
        report.metrics()
    }

    /// Runs one workload over a topology — healthy, degraded, modular
    /// or both, each its own concrete type. Program workloads go
    /// through the scheduler, with the gate time `Machine::run` uses.
    /// `trace_tag` is the `(point index, replicate)` pair that names
    /// any exported traces.
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
                let mut driver = batch_driver(comms);
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
                // The scheduler drives the fabric directly; on a
                // degraded fabric dropped communications still retire
                // their instructions, so degraded programs always drain
                // (delivered/dropped counts tell the resilience story).
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

/// A grid site as a batch workload names it: `(x, y)`.
type Site = (u16, u16);

/// A batch workload's site pairs as a driver.
fn batch_driver(comms: &[(Site, Site)]) -> BatchDriver {
    BatchDriver::new(
        comms
            .iter()
            .map(|&((sx, sy), (dx, dy))| (Coord::new(sx, sy), Coord::new(dx, dy)))
            .collect(),
    )
}

/// Appends the cost/fidelity columns of a modular point to its
/// simulated metrics: the component counts and shape of its composed
/// `fabric` priced under its own `m`'s inter-link cost. `net` is the
/// point's base config (the resource counts and hop time it reads are
/// the same on the composed grid).
fn cost_columns(
    metrics: Metrics,
    m: &ModularSpec,
    net: &NetConfig,
    fabric: &ModularFabric<Fabric>,
) -> Metrics {
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
    metrics
        .with("cost_dollars", est.dollars)
        .with("cost_area_cells", est.area_cells)
        .with("predicted_latency_ns", est.predicted_latency_ns)
        .with("fidelity", fabric.fidelity_estimate())
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

    /// Runs `spec` as a bare campaign over one evaluator and returns how
    /// many simulations it ran, checking that no class outlives its
    /// last read.
    fn simulations(spec: &ScenarioSpec) -> usize {
        let ExperimentSpec::Machine { machine, workload } = &spec.experiment else {
            panic!("{} is a machine experiment", spec.name);
        };
        let me = Arc::new(MachineEval::new(spec, machine, workload));
        let eval = Arc::clone(&me);
        Campaign::new(spec.name.clone(), spec.param_space())
            .seed(spec.seed)
            .replicates(spec.replicates)
            .workers(2)
            .run(&RunOptions::default(), move |point, ctx| {
                eval.eval(point, ctx)
            })
            .expect("an uncheckpointed run cannot fail");
        assert!(
            me.sims.lock().expect("memo").is_empty(),
            "every class is dropped once its last member has read it"
        );
        me.simulations.load(std::sync::atomic::Ordering::Relaxed)
    }

    #[test]
    fn points_differing_only_in_cost_or_replicate_share_one_simulation() {
        let spec = ScenarioRegistry::builtin()
            .spec("cost_fidelity_pareto", ScenarioScale::SmallTest)
            .expect("registered");
        assert_eq!(spec.param_space().len(), 18);
        assert_eq!(simulations(&spec), 6, "3 fabrics x 2 module counts");
        assert_eq!(
            simulations(&spec.with_replicates(3)),
            6,
            "replicates read their class's one simulation"
        );
        let resilience = ScenarioRegistry::builtin()
            .spec("resilience_sweep", ScenarioScale::SmallTest)
            .expect("registered");
        assert_eq!(
            simulations(&resilience.clone().with_replicates(2)),
            resilience.param_space().len(),
            "a sweep with no report-only axis simulates every point once"
        );
    }
}
