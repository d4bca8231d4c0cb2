//! `DegradedFabric`: a fault-masking [`Topology`] wrapper.

use qic_net::topology::{all_pairs_bfs, Coord, Port, Topology};

use crate::plan::{FaultPlan, FaultSchedule, Hotspot};

/// The distance value reported between disconnected (or dead) nodes.
pub const UNREACHABLE: u32 = u32::MAX;

/// Structural damage report of a compiled [`DegradedFabric`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationSummary {
    /// Links masked (killed directly, or incident to a dead node).
    pub dead_links: usize,
    /// Nodes lost.
    pub dead_nodes: usize,
    /// Links still usable.
    pub surviving_links: usize,
    /// Nodes still alive.
    pub alive_nodes: usize,
    /// Ordered alive node pairs with a surviving path, over **all**
    /// ordered distinct pairs of the base fabric (`1.0` when healthy).
    pub reachable_fraction: f64,
    /// Longest surviving shortest path, or `None` if no pair is
    /// reachable.
    pub diameter: Option<u32>,
    /// Surviving links across the index-median bisection.
    pub bisection_width: usize,
}

/// A base fabric with a compiled [`FaultPlan`] masked onto it.
///
/// The wrapper keeps the base fabric's node, port, and **dense link
/// indexing** (so simulator resource arrays are laid out identically)
/// but re-derives everything routing observes from the surviving graph:
///
/// * [`Topology::neighbor`] returns `None` through dead links and into
///   dead nodes;
/// * [`Topology::distance`] / [`Topology::min_ports`] come from a BFS
///   over the surviving graph, so the existing minimal routers
///   ([`qic_net::routing::DimensionOrder`],
///   [`qic_net::routing::MinimalAdaptive`]) automatically detour around
///   masked components — every hop still strictly decreases the
///   (degraded) distance, keeping routes loop-free;
/// * [`Topology::is_reachable`] is `false` across severed cuts, which
///   the simulator turns into structured
///   [`qic_net::sim::CommOutcome::Unreachable`] drops instead of hangs;
/// * diameter and bisection are recomputed for the surviving graph;
/// * [`Topology::dor_is_acyclic`] reports `false` whenever anything is
///   masked — detours may turn where the healthy fabric never would, so
///   the simulator arms bubble flow control conservatively.
///
/// A zero-fault plan changes nothing: every trait method returns
/// exactly what the base fabric returns, so wrapping is free when
/// unused (the `fault_overhead` bench and the golden figure outputs
/// hold that line).
///
/// # Examples
///
/// ```
/// use qic_fault::{FaultPlan, DegradedFabric, UNREACHABLE};
/// use qic_net::topology::{Mesh, Topology};
///
/// // Cut the 2×2 mesh's left column off by killing two links.
/// let mesh = Mesh::new(2, 2);
/// let left_col = mesh.link_index(0, qic_net::topology::Port(0)); // 0—1
/// let bottom = mesh.link_index(2, qic_net::topology::Port(0));   // 2—3
/// let degraded = FaultPlan::healthy()
///     .with_dead_link(left_col as u32)
///     .with_dead_link(bottom as u32)
///     .compile(mesh);
/// assert!(!degraded.is_reachable(0, 1));
/// assert_eq!(degraded.distance(0, 2), 1, "the left column survives");
/// assert_eq!(Topology::distance(&degraded, 0, 1), UNREACHABLE);
/// assert_eq!(degraded.summary().surviving_links, 2);
/// ```
#[derive(Debug, Clone)]
pub struct DegradedFabric<T: Topology> {
    base: T,
    plan: FaultPlan,
    /// Masked links: killed directly or incident to a dead node.
    dead_link: Vec<bool>,
    dead_node: Vec<bool>,
    /// Whether any link or node is masked (routes can change).
    masks: bool,
    /// All-pairs surviving hop distances, row-major (`UNREACHABLE` when
    /// severed). Only populated while `masks` is true — the healthy
    /// wrapper delegates to the base fabric.
    dist: Vec<u32>,
    diameter: u32,
    reachable_pairs: u64,
    /// Sum of the finite surviving distances (only while `masks`).
    total_distance: u64,
    alive_nodes: usize,
    surviving_links: usize,
    bisection: usize,
    hotspots: Vec<Hotspot>,
}

impl<T: Topology> DegradedFabric<T> {
    /// Compiles `plan` onto `base` (also reachable as
    /// [`FaultPlan::compile`]).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range explicit component indices in the plan
    /// (see [`FaultPlan::schedule`]).
    pub fn new(base: T, plan: FaultPlan) -> DegradedFabric<T> {
        let schedule = plan.schedule(&base);
        DegradedFabric::from_schedule(base, plan, schedule)
    }

    fn from_schedule(base: T, plan: FaultPlan, schedule: FaultSchedule) -> DegradedFabric<T> {
        let nodes = base.nodes();
        let links = base.links();
        let mut dead_node = vec![false; nodes];
        for &n in &schedule.dead_nodes {
            dead_node[n as usize] = true;
        }
        let mut dead_link = vec![false; links];
        for &l in &schedule.dead_links {
            dead_link[l as usize] = true;
        }
        // A dead node masks every incident link.
        for node in 0..nodes {
            for p in 0..base.ports_per_node() {
                let port = Port(p as u8);
                if let Some(nb) = base.neighbor(node, port) {
                    if dead_node[node] || dead_node[nb] {
                        dead_link[base.link_index(node, port)] = true;
                    }
                }
            }
        }
        let masks = dead_link.iter().any(|&d| d) || dead_node.iter().any(|&d| d);
        let mut fabric = DegradedFabric {
            base,
            plan,
            dead_link,
            dead_node,
            masks,
            dist: Vec::new(),
            diameter: 0,
            reachable_pairs: 0,
            total_distance: 0,
            alive_nodes: nodes,
            surviving_links: links,
            bisection: 0,
            hotspots: schedule.hotspots,
        };
        fabric.recompute();
        fabric
    }

    /// Rebuilds the surviving-graph metadata (distances, diameter,
    /// reachability, bisection).
    fn recompute(&mut self) {
        let nodes = self.base.nodes();
        self.alive_nodes = self.dead_node.iter().filter(|&&d| !d).count();
        self.surviving_links = self.dead_link.iter().filter(|&&d| !d).count();
        self.bisection = if self.masks {
            self.surviving_bisection()
        } else {
            self.base.bisection_width()
        };
        if !self.masks {
            // Healthy: delegate distances to the base fabric and reuse
            // its metadata verbatim.
            self.dist = Vec::new();
            self.diameter = self.base.diameter();
            self.reachable_pairs = (nodes * nodes.saturating_sub(1)) as u64;
            return;
        }
        // Dead links are left out of the adjacency; a dead source's
        // row stays all UNREACHABLE, its diagonal included.
        let all = all_pairs_bfs(
            nodes,
            self.base.ports_per_node(),
            |node, port| {
                self.base
                    .neighbor(node, port)
                    .filter(|_| !self.dead_link[self.base.link_index(node, port)])
            },
            |src| !self.dead_node[src],
        );
        self.dist = all.dist;
        self.diameter = all.diameter;
        self.reachable_pairs = all.reachable_pairs;
        self.total_distance = all.total_distance;
    }

    /// Surviving links crossing one side-predicate cut.
    fn surviving_cut(&self, side: impl Fn(usize) -> bool) -> usize {
        let nodes = self.base.nodes();
        let mut seen = vec![false; self.base.links()];
        let mut cut = 0;
        for node in 0..nodes {
            for p in 0..self.base.ports_per_node() {
                let port = Port(p as u8);
                if let Some(nb) = self.base.neighbor(node, port) {
                    let link = self.base.link_index(node, port);
                    if !seen[link] && !self.dead_link[link] && (side(node) != side(nb)) {
                        seen[link] = true;
                        cut += 1;
                    }
                }
            }
        }
        cut
    }

    /// Surviving links across the better of the two dimension-median
    /// cuts (x-median, y-median), preferring cuts through an even
    /// extent so the partition is balanced — the same cut family the
    /// base fabrics' `bisection_width` formulas count, so on a healthy
    /// wrapper this reproduces the base value and degradation can only
    /// shrink it. Like the base trait, both-dimensions-odd is a
    /// documented near-balanced approximation.
    fn surviving_bisection(&self) -> usize {
        let w = usize::from(self.base.width());
        let h = usize::from(self.base.height());
        let x_cut = |n: usize| usize::from(self.base.coord_of(n).x) < w / 2;
        let y_cut = |n: usize| usize::from(self.base.coord_of(n).y) < h / 2;
        let mut balanced = Vec::with_capacity(2);
        if w % 2 == 0 && w > 1 {
            balanced.push(self.surviving_cut(x_cut));
        }
        if h % 2 == 0 && h > 1 {
            balanced.push(self.surviving_cut(y_cut));
        }
        if let Some(&best) = balanced.iter().min() {
            return best;
        }
        // Both dimensions odd (or degenerate): near-balanced fallback,
        // as in the base fabrics.
        self.surviving_cut(x_cut).min(self.surviving_cut(y_cut))
    }

    /// The wrapped base fabric.
    pub fn base(&self) -> &T {
        &self.base
    }

    /// The plan this fabric was compiled from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether any link or node is masked (routes differ from healthy).
    pub fn is_degraded(&self) -> bool {
        self.masks
    }

    /// Whether the link is masked (dead, or incident to a dead node).
    pub fn link_is_dead(&self, link: usize) -> bool {
        self.dead_link[link]
    }

    /// Whether the node is lost.
    pub fn node_is_dead(&self, node: usize) -> bool {
        self.dead_node[node]
    }

    /// Links still usable.
    pub fn surviving_links(&self) -> usize {
        self.surviving_links
    }

    /// Nodes still alive.
    pub fn alive_nodes(&self) -> usize {
        self.alive_nodes
    }

    /// Ordered alive pairs with a surviving path, over all ordered
    /// distinct base pairs.
    pub fn reachable_fraction(&self) -> f64 {
        let nodes = self.base.nodes();
        let all = (nodes * nodes.saturating_sub(1)) as f64;
        if all == 0.0 {
            return 1.0;
        }
        self.reachable_pairs as f64 / all
    }

    /// The structural damage report.
    pub fn summary(&self) -> DegradationSummary {
        DegradationSummary {
            dead_links: self.base.links() - self.surviving_links,
            dead_nodes: self.base.nodes() - self.alive_nodes,
            surviving_links: self.surviving_links,
            alive_nodes: self.alive_nodes,
            reachable_fraction: self.reachable_fraction(),
            diameter: (self.reachable_pairs > 0).then_some(self.diameter),
            bisection_width: self.bisection,
        }
    }
}

impl<T: Topology> Topology for DegradedFabric<T> {
    fn name(&self) -> &'static str {
        self.base.name()
    }

    fn width(&self) -> u16 {
        self.base.width()
    }

    fn height(&self) -> u16 {
        self.base.height()
    }

    // The coordinate mapping is the base's, not the row-major default:
    // a modular base numbers nodes module-major, and masking must not
    // silently renumber the machine it masks.
    fn contains(&self, c: Coord) -> bool {
        self.base.contains(c)
    }

    fn node_index(&self, c: Coord) -> usize {
        self.base.node_index(c)
    }

    fn coord_of(&self, node: usize) -> Coord {
        self.base.coord_of(node)
    }

    fn ports_per_node(&self) -> usize {
        self.base.ports_per_node()
    }

    fn port_classes(&self) -> usize {
        self.base.port_classes()
    }

    fn port_class(&self, port: Port) -> usize {
        self.base.port_class(port)
    }

    fn neighbor(&self, node: usize, port: Port) -> Option<usize> {
        let nb = self.base.neighbor(node, port)?;
        if self.masks
            && (self.dead_link[self.base.link_index(node, port)]
                || self.dead_node[node]
                || self.dead_node[nb])
        {
            return None;
        }
        Some(nb)
    }

    fn reverse_port(&self, node: usize, port: Port) -> Port {
        self.base.reverse_port(node, port)
    }

    fn links(&self) -> usize {
        self.base.links()
    }

    fn link_index(&self, node: usize, port: Port) -> usize {
        self.base.link_index(node, port)
    }

    /// Surviving hop distance; [`UNREACHABLE`] across severed cuts or
    /// dead endpoints (healthy wrappers delegate to the base fabric).
    fn distance(&self, a: usize, b: usize) -> u32 {
        if !self.masks {
            return self.base.distance(a, b);
        }
        self.dist[a * self.base.nodes() + b]
    }

    fn min_ports(&self, node: usize, dst: usize) -> Vec<Port> {
        if !self.masks {
            return self.base.min_ports(node, dst);
        }
        let here = self.distance(node, dst);
        if node == dst || here == UNREACHABLE {
            return Vec::new();
        }
        let mut ports = Vec::new();
        for p in 0..self.base.ports_per_node() {
            let port = Port(p as u8);
            if let Some(nb) = self.neighbor(node, port) {
                if self.distance(nb, dst) < here {
                    ports.push(port);
                }
            }
        }
        ports
    }

    fn diameter(&self) -> u32 {
        self.diameter
    }

    fn bisection_width(&self) -> usize {
        self.bisection
    }

    /// Masked fabrics force bubble flow control: a detour around a hole
    /// may turn where the healthy fabric's dimension-order routes never
    /// would, so the channel-dependency graph is treated as cyclic.
    fn dor_is_acyclic(&self) -> bool {
        self.base.dor_is_acyclic() && !self.masks
    }

    fn fault_aware(&self) -> bool {
        true
    }

    fn is_reachable(&self, a: usize, b: usize) -> bool {
        if !self.masks {
            return true;
        }
        !self.dead_node[a] && !self.dead_node[b] && self.distance(a, b) != UNREACHABLE
    }

    fn healthy_distance(&self, a: usize, b: usize) -> u32 {
        self.base.distance(a, b)
    }

    /// Surviving teleporter capacity, floored at **one slot per port
    /// class**: every dimension set must keep a teleporter or traffic
    /// crossing that dimension at this node could never be served (a
    /// livelock, not a degradation). This matches exactly what the
    /// simulator provisions, so reported capacity is never silently
    /// inflated.
    fn teleporter_capacity(&self, node: usize, base: u32) -> u32 {
        // Degrade whatever pool the base fabric provisions (a healthy
        // flat fabric keeps the full budget; a modular base may add
        // gateway slots first), then apply the per-class floor.
        let pool = self.base.teleporter_capacity(node, base);
        self.plan
            .teleporter_capacity(node, pool)
            .max((self.base.port_classes() as u32).min(pool))
    }

    fn hop_penalty_ns(&self, link: usize, now_ns: u64) -> u64 {
        // Hot-spot windows stack on whatever static penalty the base
        // charges (zero for flat fabrics, the inter-tier latency for a
        // modular base).
        let mut penalty = self.base.hop_penalty_ns(link, now_ns);
        for h in &self.hotspots {
            if h.link as usize == link && h.covers(now_ns) {
                penalty += h.penalty_ns;
            }
        }
        penalty
    }

    fn modules(&self) -> usize {
        self.base.modules()
    }

    fn module_of(&self, node: usize) -> usize {
        self.base.module_of(node)
    }

    /// Mean surviving hop distance over reachable ordered pairs (`0.0`
    /// when nothing is reachable).
    fn avg_distance(&self) -> f64 {
        if !self.masks {
            return self.base.avg_distance();
        }
        if self.reachable_pairs == 0 {
            return 0.0;
        }
        self.total_distance as f64 / self.reachable_pairs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qic_net::topology::{Hypercube, Mesh, Torus};

    #[test]
    fn zero_fault_wrapper_is_exactly_the_base() {
        let mesh = Mesh::new(5, 4);
        let degraded = FaultPlan::healthy().compile(Mesh::new(5, 4));
        assert!(!degraded.is_degraded());
        assert!(degraded.fault_aware());
        assert!(degraded.dor_is_acyclic(), "mesh DOR stays acyclic");
        assert_eq!(degraded.diameter(), mesh.diameter());
        assert_eq!(degraded.bisection_width(), mesh.bisection_width());
        assert_eq!(degraded.avg_distance(), mesh.avg_distance());
        for a in 0..mesh.nodes() {
            for b in 0..mesh.nodes() {
                assert_eq!(Topology::distance(&degraded, a, b), mesh.distance(a, b));
                assert_eq!(degraded.min_ports(a, b), mesh.min_ports(a, b));
                assert!(degraded.is_reachable(a, b));
            }
            for p in 0..mesh.ports_per_node() {
                assert_eq!(
                    degraded.neighbor(a, Port(p as u8)),
                    mesh.neighbor(a, Port(p as u8))
                );
            }
        }
    }

    #[test]
    fn healthy_bisection_matches_every_base_fabric() {
        for (b, expect) in [
            (FaultPlan::healthy().compile(Mesh::new(8, 8)).bisection, 8),
            (FaultPlan::healthy().compile(Torus::new(8, 8)).bisection, 16),
            (
                FaultPlan::healthy().compile(Hypercube::new(6)).bisection,
                32,
            ),
        ] {
            assert_eq!(b, expect);
        }
    }

    #[test]
    fn dead_node_masks_incident_links_and_detours() {
        // Kill the centre of a 3×3 mesh: routes corner-to-corner detour
        // around it but every pair stays reachable.
        let degraded = FaultPlan::healthy()
            .with_dead_node(4)
            .compile(Mesh::new(3, 3));
        assert!(degraded.is_degraded());
        assert!(!degraded.dor_is_acyclic(), "masked fabric arms bubble");
        assert_eq!(degraded.alive_nodes(), 8);
        assert_eq!(degraded.summary().dead_links, 4);
        assert!(!degraded.is_reachable(0, 4));
        assert!(degraded.is_reachable(0, 8));
        // Healthy distance 0→8 is 4; the detour keeps it 4 (around the
        // edge), while 1→7 (straight through the centre) inflates to 4.
        assert_eq!(Topology::distance(&degraded, 0, 8), 4);
        assert_eq!(degraded.healthy_distance(1, 7), 2);
        assert_eq!(Topology::distance(&degraded, 1, 7), 4);
    }

    #[test]
    fn severed_fabric_reports_unreachable() {
        // Kill both links of node 0 on a 2×2 mesh.
        let mesh = Mesh::new(2, 2);
        let east = mesh.link_index(0, Port(0)) as u32;
        let north = mesh.link_index(0, Port(2)) as u32;
        let degraded = FaultPlan::healthy()
            .with_dead_link(east)
            .with_dead_link(north)
            .compile(mesh);
        assert!(!degraded.is_reachable(0, 3));
        assert_eq!(Topology::distance(&degraded, 0, 3), UNREACHABLE);
        assert!(degraded.min_ports(0, 3).is_empty());
        assert!(degraded.is_reachable(1, 2), "the rest stays connected");
        let s = degraded.summary();
        assert_eq!(s.surviving_links, 2);
        assert!(s.reachable_fraction < 1.0);
        assert_eq!(s.diameter, Some(2));
    }

    #[test]
    fn min_ports_strictly_decrease_surviving_distance() {
        let degraded = FaultPlan::healthy()
            .with_seed(13)
            .with_link_kill(0.2)
            .compile(Torus::new(5, 5));
        for a in 0..25 {
            for b in 0..25 {
                let d = Topology::distance(&degraded, a, b);
                let ports = degraded.min_ports(a, b);
                if a == b || d == UNREACHABLE {
                    assert!(ports.is_empty());
                    continue;
                }
                assert!(!ports.is_empty(), "reachable pairs keep a minimal port");
                for p in ports {
                    let nb = degraded.neighbor(a, p).expect("min ports are wired");
                    assert_eq!(Topology::distance(&degraded, nb, b), d - 1);
                }
            }
        }
    }

    #[test]
    fn hotspots_penalise_only_their_window_and_link() {
        let degraded = FaultPlan::healthy()
            .with_hotspot(Hotspot {
                link: 2,
                start_ns: 1_000,
                end_ns: 2_000,
                penalty_ns: 500,
            })
            .with_hotspot(Hotspot {
                link: 2,
                start_ns: 1_500,
                end_ns: 3_000,
                penalty_ns: 100,
            })
            .compile(Mesh::new(4, 4));
        assert!(!degraded.is_degraded(), "hotspots never mask links");
        assert!(degraded.dor_is_acyclic(), "routes are healthy-minimal");
        assert_eq!(degraded.hop_penalty_ns(2, 999), 0);
        assert_eq!(degraded.hop_penalty_ns(2, 1_000), 500);
        assert_eq!(degraded.hop_penalty_ns(2, 1_700), 600, "windows stack");
        assert_eq!(degraded.hop_penalty_ns(2, 2_500), 100);
        assert_eq!(degraded.hop_penalty_ns(3, 1_500), 0, "other links are free");
    }

    #[test]
    fn teleporter_capacity_floors_at_one_slot_per_port_class() {
        // Total loss on a dim-4 hypercube (4 port classes): the plan's
        // own floor is 1, but the fabric keeps one slot per dimension
        // set — matching what the simulator provisions.
        let degraded = FaultPlan::healthy()
            .with_teleporter_loss(1.0)
            .compile(Hypercube::new(4));
        assert_eq!(degraded.plan().teleporter_capacity(0, 16), 1);
        assert_eq!(Topology::teleporter_capacity(&degraded, 0, 16), 4);
        // The floor never exceeds the configured budget itself.
        assert_eq!(Topology::teleporter_capacity(&degraded, 0, 2), 2);
        // Zero loss is the identity.
        let healthy = FaultPlan::healthy().compile(Hypercube::new(4));
        assert_eq!(Topology::teleporter_capacity(&healthy, 3, 16), 16);
    }

    #[test]
    fn bisection_shrinks_when_cut_links_die() {
        let mesh = Mesh::new(4, 4);
        // Link between node 4 (row 1) and node 8 (row 2) crosses the cut.
        let cut_link = mesh.link_index(4, Port(2)) as u32;
        let degraded = FaultPlan::healthy().with_dead_link(cut_link).compile(mesh);
        assert_eq!(degraded.bisection_width(), 3);
        assert_eq!(degraded.summary().bisection_width, 3);
    }
}
