//! Declarative fault plans and their deterministic compilation.
//!
//! A [`FaultPlan`] describes how a fabric degrades — as data, not code:
//! Bernoulli rates for permanent link kills, node/site loss and
//! teleporter-pool degradation, plus explicit schedules (dead component
//! lists, transient [`Hotspot`] windows). Compilation is a pure
//! function of `(plan, fabric)`: every stochastic decision draws from a
//! SplitMix64-derived per-component seed, so the same plan produces the
//! same [`FaultSchedule`] on every run, thread, and machine.

use qic_des::rng::{mix64, GOLDEN};
use qic_net::topology::Topology;

/// One SplitMix64 step from state `x`: the [`mix64`] finaliser of
/// `x + GOLDEN`.
pub fn splitmix64(x: u64) -> u64 {
    mix64(x.wrapping_add(GOLDEN))
}

/// Independent fault-draw domains, so a link and a node with the same
/// index never share a random stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum FaultDomain {
    /// Permanent link kills.
    Link = 1,
    /// Node/site loss.
    Node = 2,
    /// Per-slot teleporter-pool degradation.
    Teleporter = 3,
}

/// The seed for one component's fault draw: a pure function of the
/// plan seed, the domain, and the component index.
pub fn component_seed(seed: u64, domain: FaultDomain, index: u64) -> u64 {
    let domain_seed = splitmix64(seed ^ GOLDEN.wrapping_mul(domain as u64));
    splitmix64(domain_seed ^ GOLDEN.wrapping_mul(index.wrapping_add(1)))
}

/// Maps a 64-bit word onto `[0, 1)` with 53 uniform mantissa bits.
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// One deterministic Bernoulli trial for a component.
pub fn bernoulli(seed: u64, domain: FaultDomain, index: u64, rate: f64) -> bool {
    rate > 0.0 && unit(component_seed(seed, domain, index)) < rate
}

/// A transient hot-spot window: hops crossing `link` during
/// `[start_ns, end_ns)` pay `penalty_ns` of extra service time
/// (congestion, recalibration, a flaky junction — anything that slows a
/// link without killing it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hotspot {
    /// Dense link index on the base fabric.
    pub link: u32,
    /// Window start (simulated nanoseconds).
    pub start_ns: u64,
    /// Window end, exclusive (simulated nanoseconds).
    pub end_ns: u64,
    /// Extra service nanoseconds per hop inside the window.
    pub penalty_ns: u64,
}

impl Hotspot {
    /// Whether the window covers `now_ns`.
    pub fn covers(&self, now_ns: u64) -> bool {
        self.start_ns <= now_ns && now_ns < self.end_ns
    }
}

/// A declarative, serializable fault model for one fabric.
///
/// Rates are independent Bernoulli probabilities drawn per component
/// from [`component_seed`]; explicit lists add deterministic,
/// schedule-driven faults on top. A plan with every rate at zero and
/// every list empty is **exactly** the healthy fabric (the compiled
/// wrapper reproduces the base topology's behaviour bit for bit).
///
/// # Examples
///
/// ```
/// use qic_fault::FaultPlan;
/// use qic_net::topology::{Mesh, Topology};
///
/// let plan = FaultPlan::healthy().with_seed(7).with_link_kill(0.2);
/// let degraded = plan.clone().compile(Mesh::new(8, 8));
/// // Same plan, same fabric ⇒ the same fault schedule, always.
/// assert_eq!(
///     plan.schedule(&Mesh::new(8, 8)),
///     degraded.plan().schedule(&Mesh::new(8, 8)),
/// );
/// assert!(degraded.surviving_links() < Mesh::new(8, 8).links());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Root seed every per-component draw derives from.
    pub seed: u64,
    /// Probability that each link is permanently killed.
    pub link_kill_rate: f64,
    /// Probability that each node (site) is lost.
    pub node_loss_rate: f64,
    /// Probability that each teleporter slot at each node has failed
    /// (pool capacity degradation; every node keeps at least one).
    pub teleporter_loss_rate: f64,
    /// Explicitly killed links (dense base-fabric link indices).
    pub dead_links: Vec<u32>,
    /// Explicitly lost nodes (dense base-fabric node indices).
    pub dead_nodes: Vec<u32>,
    /// Explicitly lost whole modules (for hierarchical fabrics such as
    /// `qic-modular`'s `ModularFabric`: every node of the module is
    /// masked). Flat fabrics are one module, so only index 0 is valid
    /// there.
    pub dead_modules: Vec<u32>,
    /// Transient hot-spot windows.
    pub hotspots: Vec<Hotspot>,
}

// The scenario spec's `fault` block, in emission order. An empty
// `dead_modules` is left out, as documents before it was added had it.
qic_des::json::record! {
    FaultPlan "fault" {
        seed, link_kill_rate, node_loss_rate, teleporter_loss_rate, dead_links, dead_nodes,
        #[optional] dead_modules, hotspots,
    }
    Hotspot "hotspot" { link, start_ns, end_ns, penalty_ns }
}

impl FaultPlan {
    /// The zero-fault plan (seed 2006, every rate zero, no schedules):
    /// compiling it reproduces the healthy fabric exactly.
    pub fn healthy() -> FaultPlan {
        FaultPlan {
            seed: 2006,
            link_kill_rate: 0.0,
            node_loss_rate: 0.0,
            teleporter_loss_rate: 0.0,
            dead_links: Vec::new(),
            dead_nodes: Vec::new(),
            dead_modules: Vec::new(),
            hotspots: Vec::new(),
        }
    }

    /// Sets the root seed.
    pub fn with_seed(mut self, seed: u64) -> FaultPlan {
        self.seed = seed;
        self
    }

    /// Sets the Bernoulli link-kill rate.
    pub fn with_link_kill(mut self, rate: f64) -> FaultPlan {
        self.link_kill_rate = rate;
        self
    }

    /// Sets the Bernoulli node-loss rate.
    pub fn with_node_loss(mut self, rate: f64) -> FaultPlan {
        self.node_loss_rate = rate;
        self
    }

    /// Sets the per-slot teleporter degradation rate.
    pub fn with_teleporter_loss(mut self, rate: f64) -> FaultPlan {
        self.teleporter_loss_rate = rate;
        self
    }

    /// Explicitly kills a link.
    pub fn with_dead_link(mut self, link: u32) -> FaultPlan {
        self.dead_links.push(link);
        self
    }

    /// Explicitly loses a node.
    pub fn with_dead_node(mut self, node: u32) -> FaultPlan {
        self.dead_nodes.push(node);
        self
    }

    /// Explicitly loses a whole module (every node of a hierarchical
    /// fabric's `module` tile).
    pub fn with_dead_module(mut self, module: u32) -> FaultPlan {
        self.dead_modules.push(module);
        self
    }

    /// Adds a transient hot-spot window.
    pub fn with_hotspot(mut self, hotspot: Hotspot) -> FaultPlan {
        self.hotspots.push(hotspot);
        self
    }

    /// Whether the plan can mask links or nodes (and therefore change
    /// routes). Hot spots and teleporter degradation slow a fabric but
    /// never reroute it.
    pub fn masks_topology(&self) -> bool {
        self.link_kill_rate > 0.0
            || self.node_loss_rate > 0.0
            || !self.dead_links.is_empty()
            || !self.dead_nodes.is_empty()
            || !self.dead_modules.is_empty()
    }

    /// Whether the plan injects no fault of any kind.
    pub fn is_zero(&self) -> bool {
        !self.masks_topology() && self.teleporter_loss_rate == 0.0 && self.hotspots.is_empty()
    }

    /// Checks the plan's own invariants (rates are probabilities,
    /// hot-spot windows are non-empty). Component indices are checked
    /// against a concrete fabric by [`FaultPlan::schedule`].
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        for (name, rate) in [
            ("link_kill_rate", self.link_kill_rate),
            ("node_loss_rate", self.node_loss_rate),
            ("teleporter_loss_rate", self.teleporter_loss_rate),
        ] {
            if !(rate.is_finite() && (0.0..=1.0).contains(&rate)) {
                return Err(format!("{name} must be a probability, got {rate}"));
            }
        }
        for h in &self.hotspots {
            if h.start_ns >= h.end_ns {
                return Err(format!(
                    "hotspot on link {} has an empty window [{}, {})",
                    h.link, h.start_ns, h.end_ns
                ));
            }
        }
        Ok(())
    }

    /// Resolves the plan against a fabric into the concrete, sorted
    /// fault schedule. Pure and deterministic: the same `(plan, fabric)`
    /// pair always yields a byte-identical schedule.
    ///
    /// # Panics
    ///
    /// Panics if an explicit dead link/node or hot-spot link index is
    /// out of range for the fabric (callers validate upstream; the
    /// Scenario layer reports this as a structured config error).
    pub fn schedule<T: Topology + ?Sized>(&self, topo: &T) -> FaultSchedule {
        let links = topo.links();
        let nodes = topo.nodes();
        let mut dead_links: Vec<u32> = Vec::new();
        for &l in &self.dead_links {
            assert!(
                (l as usize) < links,
                "explicit dead link {l} out of range (fabric has {links} links)"
            );
            dead_links.push(l);
        }
        for link in 0..links as u32 {
            if bernoulli(
                self.seed,
                FaultDomain::Link,
                u64::from(link),
                self.link_kill_rate,
            ) {
                dead_links.push(link);
            }
        }
        let mut dead_nodes: Vec<u32> = Vec::new();
        for &n in &self.dead_nodes {
            assert!(
                (n as usize) < nodes,
                "explicit dead node {n} out of range (fabric has {nodes} nodes)"
            );
            dead_nodes.push(n);
        }
        // A dead module expands to every node the fabric assigns to it.
        let modules = topo.modules();
        for &m in &self.dead_modules {
            assert!(
                (m as usize) < modules,
                "explicit dead module {m} out of range (fabric has {modules} modules)"
            );
        }
        if !self.dead_modules.is_empty() {
            for node in 0..nodes {
                if self.dead_modules.contains(&(topo.module_of(node) as u32)) {
                    dead_nodes.push(node as u32);
                }
            }
        }
        for node in 0..nodes as u32 {
            if bernoulli(
                self.seed,
                FaultDomain::Node,
                u64::from(node),
                self.node_loss_rate,
            ) {
                dead_nodes.push(node);
            }
        }
        dead_links.sort_unstable();
        dead_links.dedup();
        dead_nodes.sort_unstable();
        dead_nodes.dedup();
        for h in &self.hotspots {
            assert!(
                (h.link as usize) < links,
                "hotspot link {} out of range (fabric has {links} links)",
                h.link
            );
        }
        FaultSchedule {
            dead_links,
            dead_nodes,
            hotspots: self.hotspots.clone(),
        }
    }

    /// Surviving teleporter capacity at `node` for a configured per-node
    /// budget of `base` slots: each slot fails independently at
    /// [`FaultPlan::teleporter_loss_rate`]; every node keeps at least
    /// one surviving slot so a pool never vanishes entirely. The
    /// compiled [`crate::DegradedFabric`] additionally floors this at
    /// one slot per port class (a dimension set without a teleporter
    /// would strand traffic, not slow it), which is exactly what the
    /// simulator provisions.
    pub fn teleporter_capacity(&self, node: usize, base: u32) -> u32 {
        if self.teleporter_loss_rate <= 0.0 || base <= 1 {
            return base;
        }
        let mut lost = 0;
        for slot in 0..base {
            let index = (node as u64) << 16 | u64::from(slot);
            if bernoulli(
                self.seed,
                FaultDomain::Teleporter,
                index,
                self.teleporter_loss_rate,
            ) {
                lost += 1;
            }
        }
        (base - lost).max(1)
    }

    /// Compiles the plan against a base fabric into a
    /// [`crate::DegradedFabric`] (resolves the schedule, masks dead
    /// components, recomputes reachability, diameter and bisection of
    /// the surviving graph).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range explicit component indices (see
    /// [`FaultPlan::schedule`]).
    pub fn compile<T: Topology>(self, base: T) -> crate::DegradedFabric<T> {
        crate::DegradedFabric::new(base, self)
    }
}

impl Default for FaultPlan {
    /// Same as [`FaultPlan::healthy`].
    fn default() -> Self {
        FaultPlan::healthy()
    }
}

/// The concrete faults a plan resolves to on one fabric: sorted dead
/// component lists plus the hot-spot schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Killed links, ascending and deduplicated.
    pub dead_links: Vec<u32>,
    /// Lost nodes, ascending and deduplicated.
    pub dead_nodes: Vec<u32>,
    /// Hot-spot windows, in plan order.
    pub hotspots: Vec<Hotspot>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use qic_net::topology::{Mesh, Torus};

    #[test]
    fn splitmix_is_deterministic_and_scrambles() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(0), splitmix64(1));
        let outputs: std::collections::HashSet<u64> = (0..1000).map(splitmix64).collect();
        assert_eq!(outputs.len(), 1000, "splitmix64 is injective on 0..1000");
    }

    #[test]
    fn domains_are_independent_streams() {
        let a = component_seed(7, FaultDomain::Link, 3);
        let b = component_seed(7, FaultDomain::Node, 3);
        let c = component_seed(7, FaultDomain::Teleporter, 3);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(component_seed(7, FaultDomain::Link, 4), a);
        assert_ne!(component_seed(8, FaultDomain::Link, 3), a);
    }

    #[test]
    fn bernoulli_extremes() {
        assert!(!bernoulli(1, FaultDomain::Link, 0, 0.0));
        assert!(bernoulli(1, FaultDomain::Link, 0, 1.0));
    }

    #[test]
    fn bernoulli_rate_is_plausible() {
        let hits = (0..10_000)
            .filter(|&i| bernoulli(42, FaultDomain::Link, i, 0.3))
            .count();
        assert!((2_700..3_300).contains(&hits), "got {hits}");
    }

    #[test]
    fn schedule_is_pure_and_sorted() {
        let plan = FaultPlan::healthy()
            .with_seed(11)
            .with_link_kill(0.25)
            .with_node_loss(0.1)
            .with_dead_link(3)
            .with_dead_node(0);
        let mesh = Mesh::new(6, 6);
        let a = plan.schedule(&mesh);
        let b = plan.schedule(&mesh);
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "byte-identical");
        assert!(a.dead_links.windows(2).all(|w| w[0] < w[1]));
        assert!(a.dead_nodes.windows(2).all(|w| w[0] < w[1]));
        assert!(a.dead_links.contains(&3));
        assert!(a.dead_nodes.contains(&0));
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let mesh = Mesh::new(8, 8);
        let a = FaultPlan::healthy()
            .with_seed(1)
            .with_link_kill(0.3)
            .schedule(&mesh);
        let b = FaultPlan::healthy()
            .with_seed(2)
            .with_link_kill(0.3)
            .schedule(&mesh);
        assert_ne!(a.dead_links, b.dead_links);
    }

    #[test]
    fn zero_plan_schedules_nothing() {
        let plan = FaultPlan::healthy();
        assert!(plan.is_zero());
        assert!(!plan.masks_topology());
        let s = plan.schedule(&Torus::new(4, 4));
        assert!(s.dead_links.is_empty());
        assert!(s.dead_nodes.is_empty());
        assert!(s.hotspots.is_empty());
        assert_eq!(FaultPlan::default(), FaultPlan::healthy());
    }

    #[test]
    fn teleporter_capacity_degrades_but_never_vanishes() {
        let plan = FaultPlan::healthy().with_seed(5).with_teleporter_loss(0.5);
        let mut total = 0u32;
        for node in 0..64 {
            let cap = plan.teleporter_capacity(node, 16);
            assert!((1..=16).contains(&cap));
            assert_eq!(cap, plan.teleporter_capacity(node, 16), "deterministic");
            total += cap;
        }
        // ~half the slots survive in aggregate.
        assert!((300..=700).contains(&total), "got {total}");
        // Extreme loss still leaves one slot.
        let brutal = FaultPlan::healthy().with_teleporter_loss(1.0);
        assert_eq!(brutal.teleporter_capacity(0, 16), 1);
        // Zero rate is the identity.
        assert_eq!(FaultPlan::healthy().teleporter_capacity(0, 16), 16);
    }

    #[test]
    fn validation_rejects_bad_plans() {
        assert!(FaultPlan::healthy().validate().is_ok());
        assert!(FaultPlan::healthy().with_link_kill(1.5).validate().is_err());
        assert!(FaultPlan::healthy()
            .with_node_loss(-0.1)
            .validate()
            .is_err());
        assert!(FaultPlan::healthy()
            .with_teleporter_loss(f64::NAN)
            .validate()
            .is_err());
        let empty_window = FaultPlan::healthy().with_hotspot(Hotspot {
            link: 0,
            start_ns: 10,
            end_ns: 10,
            penalty_ns: 5,
        });
        assert!(empty_window.validate().is_err());
    }

    #[test]
    fn dead_modules_expand_to_their_nodes() {
        // A flat fabric is one module: killing module 0 masks all nodes.
        let plan = FaultPlan::healthy().with_dead_module(0);
        assert!(plan.masks_topology());
        assert!(!plan.is_zero());
        let s = plan.schedule(&Mesh::new(3, 3));
        assert_eq!(s.dead_nodes, (0..9).collect::<Vec<u32>>());
    }

    #[test]
    #[should_panic(expected = "dead module 1 out of range")]
    fn out_of_range_dead_module_panics() {
        let _ = FaultPlan::healthy()
            .with_dead_module(1)
            .schedule(&Mesh::new(4, 4));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_dead_link_panics() {
        let _ = FaultPlan::healthy()
            .with_dead_link(10_000)
            .schedule(&Mesh::new(4, 4));
    }

    #[test]
    fn hotspot_windows_cover_half_open_ranges() {
        let h = Hotspot {
            link: 0,
            start_ns: 100,
            end_ns: 200,
            penalty_ns: 50,
        };
        assert!(!h.covers(99));
        assert!(h.covers(100));
        assert!(h.covers(199));
        assert!(!h.covers(200));
    }
}
