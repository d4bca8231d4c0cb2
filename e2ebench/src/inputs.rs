//! The named workloads and the scenario specs each one generates from
//! the workload seed.

use qic::core::scenario::{
    ExperimentSpec, ScenarioAxis, ScenarioError, ScenarioRegistry, ScenarioScale, ScenarioSpec,
    WorkloadSpec,
};
use qic::sweep::derive_seed;
use qic::workload::Program;

/// The seed the committed reference digests were recorded at.
pub const DEFAULT_SEED: u64 = 2006;

/// Re-seeded copies of each `fault_adaptive` preset.
const FAULT_VARIANTS: u64 = 16;

/// Seed sets `fault_adaptive` variants are drawn from; the workload seed
/// picks `FAULT_VARIANTS` of them. Free re-seeding would sometimes hit
/// the adaptive-routing deadlock on damaged fabrics (ROADMAP item 1,
/// about one resilience sweep in a thousand), failing a timed run;
/// every entry of this pool was screened with `--screen-pool` and runs
/// cleanly at Full scale.
pub const POOL: u64 = 256;

/// Seeds per registry preset in `serve_mixed`: enough that a pass holds
/// the 200 jobs a `job_p95_ms` over the jobs' bests needs.
const SERVE_SEEDS: u64 = 4;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `fig16` + `qft_torus` at Full: healthy fabrics, DOR routing on the
    /// cached-route path, a few long points.
    QftPaper,
    /// `resilience_sweep` + `cost_fidelity_pareto` at Full, re-seeded:
    /// adaptive routing on degraded and modular fabrics, many short
    /// points with no traffic locality.
    FaultAdaptive,
    /// Every registry preset at SmallTest × seeds, submitted as JSON
    /// text to the scenario service.
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::QftPaper,
        Workload::FaultAdaptive,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::QftPaper => "qft_paper",
            Workload::FaultAdaptive => "fault_adaptive",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Batch workloads run through `qic::run`; the others only through
    /// the service.
    pub fn is_batch(self) -> bool {
        self != Workload::ServeMixed
    }

    /// The workload's specs at its own scale.
    pub fn specs(self, seed: u64) -> Vec<ScenarioSpec> {
        let scale = match self {
            Workload::ServeMixed => ScenarioScale::SmallTest,
            _ => ScenarioScale::Full,
        };
        self.specs_at(seed, scale)
    }

    /// The workload's specs with its presets instantiated at `scale`
    /// (tests use SmallTest variants of the batch workloads).
    pub fn specs_at(self, seed: u64, scale: ScenarioScale) -> Vec<ScenarioSpec> {
        let registry = ScenarioRegistry::builtin();
        let preset = |name: &str| registry.spec(name, scale).expect("registered preset");
        match self {
            Workload::QftPaper => ["fig16", "qft_torus"]
                .iter()
                .enumerate()
                .map(|(i, name)| preset(name).with_seed(derive_seed(seed, i as u64, 0)))
                .collect(),
            Workload::FaultAdaptive => pool_picks(seed)
                .into_iter()
                .flat_map(|i| pool_entry(i, scale))
                .collect(),
            Workload::ServeMixed => (0..SERVE_SEEDS)
                .flat_map(|s| {
                    registry
                        .entries()
                        .iter()
                        .enumerate()
                        .map(move |(k, entry)| {
                            entry.spec(scale).with_seed(derive_seed(seed, s, k as u64))
                        })
                })
                .collect(),
        }
    }
}

/// The pool entries a workload seed selects: `FAULT_VARIANTS` distinct
/// indices drawn by a seeded probe sequence.
fn pool_picks(seed: u64) -> Vec<u64> {
    let mut picks = Vec::with_capacity(FAULT_VARIANTS as usize);
    for draw in 0.. {
        if picks.len() == FAULT_VARIANTS as usize {
            break;
        }
        let i = derive_seed(seed, draw, 0) % POOL;
        if !picks.contains(&i) {
            picks.push(i);
        }
    }
    picks
}

/// Pool entry `i`: both `fault_adaptive` presets, re-seeded from the
/// entry alone.
pub fn pool_entry(i: u64, scale: ScenarioScale) -> Vec<ScenarioSpec> {
    ["resilience_sweep", "cost_fidelity_pareto"]
        .iter()
        .enumerate()
        .map(|(k, name)| {
            let spec = ScenarioRegistry::builtin()
                .spec(name, scale)
                .expect("registered preset");
            reseed(spec, derive_seed(DEFAULT_SEED, i, k as u64))
        })
        .collect()
}

/// A re-seeded variant of a preset: new campaign, fault-plan and
/// synthetic-traffic seeds, everything else unchanged.
fn reseed(spec: ScenarioSpec, seed: u64) -> ScenarioSpec {
    let mut spec = spec.with_seed(derive_seed(seed, 0, 0));
    if let ExperimentSpec::Machine { machine, workload } = &mut spec.experiment {
        if let Some(plan) = &mut machine.fault {
            plan.seed = derive_seed(seed, 1, 0);
        }
        if let WorkloadSpec::Synthetic { seed: traffic, .. } = workload {
            *traffic = derive_seed(seed, 2, 0);
        }
    }
    spec
}

/// Everything a workload needs before its first timed operation.
pub struct Prepared {
    pub workload: Workload,
    pub seed: u64,
    pub specs: Vec<ScenarioSpec>,
    /// Each spec as the JSON text a service client would send.
    pub texts: Vec<String>,
    /// Instructions across every generated program.
    pub instructions: usize,
}

/// Builds, validates and serialises a workload's specs and generates
/// their programs: the workload's set-up, timed as `setup_s`.
pub fn prepare(workload: Workload, seed: u64) -> Result<Prepared, ScenarioError> {
    let specs = workload.specs(seed);
    for spec in &specs {
        spec.validate()?;
    }
    let instructions = specs
        .iter()
        .flat_map(programs)
        .map(|p| std::hint::black_box(p).len())
        .sum();
    let texts = specs.iter().map(ScenarioSpec::to_json).collect();
    Ok(Prepared {
        workload,
        seed,
        specs,
        texts,
        instructions,
    })
}

/// The programs a machine spec's campaign generates: the base workload's,
/// or one per value of a workload axis.
fn programs(spec: &ScenarioSpec) -> Vec<Program> {
    let ExperimentSpec::Machine { workload, .. } = &spec.experiment else {
        return Vec::new();
    };
    let axis = spec.axes.iter().find_map(|a| match a {
        ScenarioAxis::Workloads { workloads } => Some(workloads),
        _ => None,
    });
    match axis {
        Some(workloads) => workloads.iter().filter_map(WorkloadSpec::program).collect(),
        None => workload.program().into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_a_pure_function_of_the_seed() {
        for w in Workload::ALL {
            let a = w.specs_at(7, ScenarioScale::SmallTest);
            assert_eq!(a, w.specs_at(7, ScenarioScale::SmallTest), "{}", w.name());
            assert_ne!(a, w.specs_at(8, ScenarioScale::SmallTest), "{}", w.name());
        }
        assert_eq!(Workload::QftPaper.specs(1).len(), 2);
        assert_eq!(
            Workload::FaultAdaptive.specs(1).len() as u64,
            2 * FAULT_VARIANTS
        );
        assert_eq!(
            Workload::ServeMixed.specs(1).len() as u64,
            SERVE_SEEDS * ScenarioRegistry::builtin().entries().len() as u64
        );
    }

    #[test]
    fn fault_variants_change_fault_and_traffic_seeds() {
        let specs = Workload::FaultAdaptive.specs_at(3, ScenarioScale::SmallTest);
        let seeds = |spec: &ScenarioSpec| match &spec.experiment {
            ExperimentSpec::Machine { machine, workload } => (
                machine.fault.as_ref().map(|f| f.seed),
                match workload {
                    WorkloadSpec::Synthetic { seed, .. } => *seed,
                    _ => panic!("synthetic traffic expected"),
                },
            ),
            _ => panic!("machine spec expected"),
        };
        let (f0, t0) = seeds(&specs[0]);
        let (f2, t2) = seeds(&specs[2]);
        assert!(f0.is_some() && f0 != f2 && t0 != t2);
        assert_eq!(specs[0].name, specs[2].name);
    }

    #[test]
    fn pool_picks_are_distinct() {
        for seed in [0, 1, DEFAULT_SEED, u64::MAX] {
            let picks = pool_picks(seed);
            assert_eq!(picks.len() as u64, FAULT_VARIANTS);
            for (n, i) in picks.iter().enumerate() {
                assert!(*i < POOL);
                assert!(!picks[..n].contains(i));
            }
        }
        assert_ne!(pool_picks(1), pool_picks(2));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
