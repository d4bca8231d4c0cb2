//! Interconnect fabrics — **Section 3.2**, generalised beyond the paper.
//!
//! The paper computes every result on a single 2D mesh with
//! dimension-order routing. This module abstracts the fabric behind the
//! [`Topology`] trait so the same event-driven simulator can answer
//! "what if it weren't a mesh?": three concrete fabrics ship today
//! ([`Mesh`], wrap-around [`Torus`], [`Hypercube`]), and the
//! [`Fabric`] enum dispatches among them for configuration-driven use.
//!
//! A topology's vocabulary:
//!
//! * **nodes** are dense indices `0..nodes()`, addressed externally by a
//!   grid [`Coord`] (`width() × height()` sites, row-major) so qubit
//!   placement works identically on every fabric;
//! * **ports** ([`Port`]) are a node's link endpoints, `0..ports_per_node()`
//!   — the mesh's four compass directions generalise to "which link";
//! * **port classes** group ports into dimension sets (the X/Y teleporter
//!   sets of Figure 6); a hop that changes class pays the router's turn
//!   penalty and crosses into a different teleporter pool;
//! * **links** are undirected edges with dense indices `0..links()`, each
//!   carrying one G-node virtual wire.
//!
//! # Examples
//!
//! Three fabrics at a matched 64-node scale:
//!
//! ```
//! use qic_net::topology::{Hypercube, Mesh, Topology, Torus};
//!
//! let mesh = Mesh::new(8, 8);
//! let torus = Torus::new(8, 8);
//! let cube = Hypercube::new(6);
//! assert_eq!((mesh.nodes(), torus.nodes(), cube.nodes()), (64, 64, 64));
//! // Wrap-around halves the diameter; the hypercube beats both.
//! assert_eq!((mesh.diameter(), torus.diameter(), cube.diameter()), (14, 8, 6));
//! // Bisection width doubles from mesh to torus and doubles again to
//! // the hypercube, at the price of more ports per node.
//! assert_eq!(
//!     (mesh.bisection_width(), torus.bisection_width(), cube.bisection_width()),
//!     (8, 16, 32)
//! );
//! assert_eq!(
//!     (mesh.ports_per_node(), torus.ports_per_node(), cube.ports_per_node()),
//!     (4, 4, 6)
//! );
//! ```

mod hypercube;
mod mesh;
mod torus;

pub use hypercube::Hypercube;
pub use mesh::{EdgeId, Mesh};
pub use torus::Torus;

use std::fmt;

/// A site on the fabric's addressing grid (column `x`, row `y`).
///
/// Every fabric — including the hypercube — exposes a rectangular
/// `width × height` site grid so placement layers (e.g. the snake
/// placement in `qic-core`) are topology-agnostic; [`Topology::node_index`]
/// maps a coordinate onto the fabric's dense node index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Coord {
    /// Column index.
    pub x: u16,
    /// Row index.
    pub y: u16,
}

impl Coord {
    /// Creates a coordinate.
    pub fn new(x: u16, y: u16) -> Self {
        Coord { x, y }
    }

    /// Manhattan distance to another coordinate.
    pub fn manhattan(self, other: Coord) -> u32 {
        u32::from(self.x.abs_diff(other.x)) + u32::from(self.y.abs_diff(other.y))
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// A router port index: which of a node's links a hop uses.
///
/// Ports are dense per topology (`0..`[`Topology::ports_per_node`]). On
/// the mesh and torus, ports `0..4` are the compass directions (see
/// [`Dir`]); on a hypercube, port `i` flips address bit `i`. Fabric-
/// agnostic code — the simulator, resource indexing, routing policies —
/// speaks ports; [`Dir`] survives as the mesh-specific vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Port(pub u8);

impl Port {
    /// The port as a dense array index.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A hop direction on the mesh or torus (the four compass ports).
///
/// This is mesh/torus-specific vocabulary kept for readability and
/// backwards compatibility; fabric-agnostic code uses [`Port`] indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// +x.
    East,
    /// −x.
    West,
    /// +y.
    North,
    /// −y.
    South,
}

impl Dir {
    /// Whether this direction moves along the X dimension.
    pub fn is_x(self) -> bool {
        matches!(self, Dir::East | Dir::West)
    }

    /// The opposite direction.
    pub fn opposite(self) -> Dir {
        match self {
            Dir::East => Dir::West,
            Dir::West => Dir::East,
            Dir::North => Dir::South,
            Dir::South => Dir::North,
        }
    }

    /// Index 0..4 for dense per-direction arrays.
    pub fn index(self) -> usize {
        match self {
            Dir::East => 0,
            Dir::West => 1,
            Dir::North => 2,
            Dir::South => 3,
        }
    }

    /// The equivalent fabric port (`East=0, West=1, North=2, South=3`).
    pub fn port(self) -> Port {
        Port(self.index() as u8)
    }

    /// The direction for a mesh/torus port, if in range.
    pub fn from_port(port: Port) -> Option<Dir> {
        match port.0 {
            0 => Some(Dir::East),
            1 => Some(Dir::West),
            2 => Some(Dir::North),
            3 => Some(Dir::South),
            _ => None,
        }
    }
}

impl From<Dir> for Port {
    fn from(d: Dir) -> Port {
        d.port()
    }
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Dir::East => "E",
            Dir::West => "W",
            Dir::North => "N",
            Dir::South => "S",
        };
        f.write_str(s)
    }
}

/// An interconnect fabric: nodes, ports, links, distances and routing
/// metadata.
///
/// Implementations must be **static** (the wiring never changes during a
/// simulation) and **consistent**:
///
/// * `neighbor(neighbor(n, p), reverse_port(n, p)) == Some(n)` for every
///   wired port `p`;
/// * `link_index(n, p) == link_index(neighbor(n, p), reverse_port(n, p))`
///   and link indices are dense in `0..links()`;
/// * `distance` is a metric realised by the port graph, and
///   [`Topology::min_ports`] returns exactly the ports whose hop strictly
///   decreases it (so any greedy walk over `min_ports` is a minimal,
///   loop-free route).
///
/// The trait is object-safe: the simulator is generic over a concrete
/// topology for zero-cost dispatch, while routing policies take
/// `&dyn Topology` so one [`crate::routing::Router`] works on every
/// fabric.
///
/// # Examples
///
/// Greedily walking [`Topology::min_ports`] always yields a minimal
/// route:
///
/// ```
/// use qic_net::topology::{Hypercube, Topology};
///
/// let cube = Hypercube::new(4);
/// let (src, dst) = (0b0000, 0b1011);
/// let mut at = src;
/// let mut hops = 0;
/// while at != dst {
///     let port = cube.min_ports(at, dst)[0]; // any minimal port works
///     at = cube.neighbor(at, port).unwrap();
///     hops += 1;
/// }
/// assert_eq!(hops, cube.distance(src, dst)); // = popcount(0b1011) = 3
/// ```
pub trait Topology {
    /// Short lowercase name for reports and campaign labels.
    fn name(&self) -> &'static str;

    /// Width of the site-addressing grid.
    fn width(&self) -> u16;

    /// Height of the site-addressing grid.
    fn height(&self) -> u16;

    /// Ports per node (the fabric's radix; counts unwired border ports).
    fn ports_per_node(&self) -> usize;

    /// Number of port classes (dimension sets sharing one teleporter
    /// pool; the mesh's X and Y sets of Figure 6).
    fn port_classes(&self) -> usize;

    /// The class of a port, in `0..port_classes()`.
    fn port_class(&self, port: Port) -> usize;

    /// The node reached through `port`, or `None` if the port is unwired
    /// (a mesh border).
    fn neighbor(&self, node: usize, port: Port) -> Option<usize>;

    /// The port on `neighbor(node, port)` that leads back to `node`.
    ///
    /// Only meaningful when the port is wired.
    fn reverse_port(&self, node: usize, port: Port) -> Port;

    /// Number of undirected links (one G-node virtual wire each).
    fn links(&self) -> usize;

    /// Dense index of the undirected link crossed by `(node, port)`.
    ///
    /// Both endpoints of a link agree on its index.
    ///
    /// # Panics
    ///
    /// May panic if the port is unwired.
    fn link_index(&self, node: usize, port: Port) -> usize;

    /// Hop distance between two nodes.
    fn distance(&self, a: usize, b: usize) -> u32;

    /// The ports at `node` whose hop strictly decreases the distance to
    /// `dst`, in ascending port order. Empty exactly when `node == dst`.
    fn min_ports(&self, node: usize, dst: usize) -> Vec<Port>;

    /// Maximum hop distance between any node pair.
    fn diameter(&self) -> u32;

    /// Links cut by the best balanced bisection of the fabric (exact for
    /// even dimensions; documented approximation otherwise).
    fn bisection_width(&self) -> usize;

    /// Whether ascending-port dimension-order routing is cycle-free in
    /// the channel-dependency graph (true for mesh and hypercube; false
    /// for the torus, whose wrap links close rings). Fabrics that return
    /// `false` make the simulator apply bubble flow control at
    /// ring-entry hops.
    fn dor_is_acyclic(&self) -> bool;

    // --- provided helpers -------------------------------------------------

    /// The lowest-numbered minimal port toward `dst` (the
    /// dimension-order choice), or `None` exactly when `node == dst`.
    ///
    /// Semantically `min_ports(node, dst).first().copied()`; concrete
    /// fabrics override it to answer without building the full list, so
    /// oblivious routing costs no allocation per hop.
    fn min_port(&self, node: usize, dst: usize) -> Option<Port> {
        self.min_ports(node, dst).first().copied()
    }

    /// Number of nodes (`width × height`).
    fn nodes(&self) -> usize {
        usize::from(self.width()) * usize::from(self.height())
    }

    /// Whether a coordinate lies on the addressing grid.
    fn contains(&self, c: Coord) -> bool {
        c.x < self.width() && c.y < self.height()
    }

    /// Dense node index of a coordinate (row-major).
    fn node_index(&self, c: Coord) -> usize {
        usize::from(c.y) * usize::from(self.width()) + usize::from(c.x)
    }

    /// The coordinate of a dense node index (row-major).
    fn coord_of(&self, node: usize) -> Coord {
        let w = usize::from(self.width());
        Coord::new((node % w) as u16, (node / w) as u16)
    }

    // --- fault-awareness hooks (healthy defaults) -----------------------

    /// Whether this topology is a fault layer (a degraded wrapper such
    /// as `qic-fault`'s `DegradedFabric`). Healthy fabrics return
    /// `false`; the simulator attaches fault statistics to its report
    /// only when this returns `true`, so healthy runs stay byte-identical.
    fn fault_aware(&self) -> bool {
        false
    }

    /// Whether a route from `a` to `b` exists. Healthy fabrics are
    /// connected, so the default is `true`; a degraded wrapper returns
    /// `false` for dead endpoints or severed components, and the
    /// simulator then *drops* the communication (a structured
    /// `Unreachable` outcome) instead of hanging.
    fn is_reachable(&self, a: usize, b: usize) -> bool {
        let _ = (a, b);
        true
    }

    /// The hop distance the *healthy* fabric would report. Degraded
    /// wrappers delegate to their base fabric; the simulator uses the
    /// ratio of routed hops to this value as the route-inflation signal.
    fn healthy_distance(&self, a: usize, b: usize) -> u32 {
        self.distance(a, b)
    }

    /// Surviving teleporter capacity at `node` given the configured
    /// per-node budget. Healthy fabrics keep the full budget; degraded
    /// wrappers model teleporter-pool capacity degradation here.
    fn teleporter_capacity(&self, node: usize, base: u32) -> u32 {
        let _ = node;
        base
    }

    /// Extra service nanoseconds a hop over `link` pays at `now_ns`
    /// (transient hot-spot windows, or a slower inter-module tier).
    ///
    /// The simulator consults this only when
    /// [`Topology::link_penalties`] returns `true` — a penalty model
    /// must come with that flag set, or it is (deliberately) never read
    /// on the hot path.
    fn hop_penalty_ns(&self, link: usize, now_ns: u64) -> u64 {
        let _ = (link, now_ns);
        0
    }

    /// Whether [`Topology::hop_penalty_ns`] can return non-zero for some
    /// link, i.e. whether the simulator must consult it on every hop.
    ///
    /// Defaults to [`Topology::fault_aware`], which preserves the
    /// historical contract (only fault wrappers charged penalties). A
    /// healthy composed fabric with a slow inter-module tier overrides
    /// this to `true` *without* claiming fault-awareness, so fault
    /// statistics stay off its reports.
    fn link_penalties(&self) -> bool {
        self.fault_aware()
    }

    /// Number of modules this fabric is composed of. Flat (single-chip)
    /// fabrics are one module; a hierarchical wrapper such as
    /// `qic-modular`'s `ModularFabric` reports its tile count so fault
    /// plans can address whole modules (`dead_modules`).
    fn modules(&self) -> usize {
        1
    }

    /// The module a node belongs to (`0 ≤ module < modules()`).
    fn module_of(&self, node: usize) -> usize {
        let _ = node;
        0
    }

    /// Mean hop distance over all ordered distinct node pairs
    /// (`O(nodes²)`; metadata, not a hot path).
    fn avg_distance(&self) -> f64 {
        let n = self.nodes();
        if n < 2 {
            return 0.0;
        }
        let mut total = 0u64;
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    total += u64::from(self.distance(a, b));
                }
            }
        }
        total as f64 / (n * (n - 1)) as f64
    }
}

/// All-pairs hop distances of a port graph, plus the aggregates fabric
/// wrappers report from them. Produced by [`all_pairs_bfs`].
#[derive(Debug, Clone, PartialEq)]
pub struct AllPairs {
    /// Row-major `nodes × nodes` hop distances; `u32::MAX` where no
    /// path exists, and across the whole row of a skipped source.
    pub dist: Vec<u32>,
    /// Longest finite distance (`0` when no distinct pair is reachable).
    pub diameter: u32,
    /// Ordered distinct pairs joined by a path.
    pub reachable_pairs: u64,
    /// Sum of the finite distances over those pairs.
    pub total_distance: u64,
}

/// All-pairs BFS over the port graph `neighbor` describes.
///
/// The graph is flattened once into compressed sparse rows: one
/// `neighbor(node, port)` call per `(node, port)` pair, `None` meaning
/// unwired or dead, fills per-node offsets and a flat neighbour list.
/// Each node accepted by `is_source` is then BFSed over that list with
/// a `Vec` as the queue; the rows of rejected sources stay all
/// `u32::MAX`, the diagonal included. Diameter, reachable pairs and the
/// distance sum are gathered in the same pass.
///
/// `O(nodes · ports)` neighbour calls, then `O(nodes · edges)` time and
/// `O(nodes²)` memory: metadata-scale work, done once when a fabric is
/// built so routing reads a table.
///
/// # Examples
///
/// ```
/// use qic_net::topology::{all_pairs_bfs, Mesh, Topology};
///
/// let mesh = Mesh::new(3, 2);
/// let neighbor = |n, p| mesh.neighbor(n, p);
/// let all = all_pairs_bfs(mesh.nodes(), mesh.ports_per_node(), neighbor, |_| true);
/// assert_eq!(all.dist[5], mesh.distance(0, 5));
/// assert_eq!(all.diameter, mesh.diameter());
/// assert_eq!(all.reachable_pairs, 6 * 5);
/// ```
pub fn all_pairs_bfs(
    nodes: usize,
    ports: usize,
    neighbor: impl Fn(usize, Port) -> Option<usize>,
    is_source: impl Fn(usize) -> bool,
) -> AllPairs {
    let mut offsets = Vec::with_capacity(nodes + 1);
    let mut targets = Vec::with_capacity(nodes * ports);
    offsets.push(0);
    for node in 0..nodes {
        targets.extend((0..ports).filter_map(|p| neighbor(node, Port(p as u8))));
        offsets.push(targets.len());
    }
    let mut all = AllPairs {
        dist: vec![u32::MAX; nodes * nodes],
        diameter: 0,
        reachable_pairs: 0,
        total_distance: 0,
    };
    let mut queue = Vec::with_capacity(nodes);
    for src in (0..nodes).filter(|&s| is_source(s)) {
        let row = &mut all.dist[src * nodes..(src + 1) * nodes];
        row[src] = 0;
        queue.clear();
        queue.push(src);
        let mut head = 0;
        while let Some(&at) = queue.get(head) {
            head += 1;
            let d = row[at];
            for &nb in &targets[offsets[at]..offsets[at + 1]] {
                if row[nb] == u32::MAX {
                    row[nb] = d + 1;
                    queue.push(nb);
                }
            }
        }
        // BFS pops in distance order, so the last node reached is the
        // farthest.
        let reached = &queue[1..];
        all.reachable_pairs += reached.len() as u64;
        all.total_distance += reached.iter().map(|&n| u64::from(row[n])).sum::<u64>();
        let farthest = *queue.last().expect("the source is queued");
        all.diameter = all.diameter.max(row[farthest]);
    }
    all
}

/// Which fabric a [`crate::config::NetConfig`] describes.
///
/// The grid dimensions come from the config's `mesh_width`/`mesh_height`
/// fields; a hypercube additionally requires the node count to be a
/// power of two (its dimension is `log2(width × height)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// Rectangular 2D mesh (the paper's fabric).
    Mesh,
    /// 2D mesh with wrap-around links in each dimension of extent ≥ 2.
    Torus,
    /// Binary hypercube; `width × height` must be a power of two.
    Hypercube,
}

impl TopologyKind {
    /// Every fabric kind, in sweep order.
    pub const ALL: [TopologyKind; 3] = [
        TopologyKind::Mesh,
        TopologyKind::Torus,
        TopologyKind::Hypercube,
    ];

    /// Builds the fabric for a `width × height` grid.
    ///
    /// # Errors
    ///
    /// Returns a message when the grid does not fit the fabric (empty
    /// grid; torus with fewer than two nodes; hypercube with a
    /// non-power-of-two node count).
    pub fn build(self, width: u16, height: u16) -> Result<Fabric, String> {
        let nodes = usize::from(width) * usize::from(height);
        if nodes == 0 {
            return Err("grid dimensions must be positive".into());
        }
        match self {
            TopologyKind::Mesh => Ok(Fabric::Mesh(Mesh::new(width, height))),
            TopologyKind::Torus => {
                if nodes < 2 {
                    return Err("a torus needs at least two nodes".into());
                }
                Ok(Fabric::Torus(Torus::new(width, height)))
            }
            TopologyKind::Hypercube => {
                if !nodes.is_power_of_two() {
                    return Err(format!(
                        "a hypercube needs a power-of-two node count, got {width}×{height}"
                    ));
                }
                let dim = nodes.trailing_zeros();
                if dim == 0 {
                    return Err("a hypercube needs at least two nodes".into());
                }
                let cube = Hypercube::new(dim);
                if (cube.width(), cube.height()) != (width, height) {
                    return Err(format!(
                        "a {nodes}-node hypercube uses a {}×{} grid, got {width}×{height}",
                        cube.width(),
                        cube.height()
                    ));
                }
                Ok(Fabric::Hypercube(cube))
            }
        }
    }

    /// Parses a campaign label (`"mesh"`, `"torus"`, `"hypercube"`).
    pub fn parse(label: &str) -> Option<TopologyKind> {
        match label {
            "mesh" => Some(TopologyKind::Mesh),
            "torus" => Some(TopologyKind::Torus),
            "hypercube" => Some(TopologyKind::Hypercube),
            _ => None,
        }
    }
}

impl fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TopologyKind::Mesh => "mesh",
            TopologyKind::Torus => "torus",
            TopologyKind::Hypercube => "hypercube",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for TopologyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        TopologyKind::parse(s).ok_or_else(|| format!("unknown topology {s:?}"))
    }
}

qic_des::json::labels! {
    TopologyKind: "topology", to_string;
}

/// A configuration-selected fabric: enum dispatch over the three
/// concrete topologies.
///
/// [`crate::sim::NetworkSim`] is generic over any [`Topology`]; `Fabric`
/// is its default type parameter, so config-driven callers never name a
/// concrete fabric while custom topologies still get static dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    /// A rectangular mesh.
    Mesh(Mesh),
    /// A wrap-around torus.
    Torus(Torus),
    /// A binary hypercube.
    Hypercube(Hypercube),
}

macro_rules! fabric_dispatch {
    ($self:ident, $t:ident => $e:expr) => {
        match $self {
            Fabric::Mesh($t) => $e,
            Fabric::Torus($t) => $e,
            Fabric::Hypercube($t) => $e,
        }
    };
}

impl Topology for Fabric {
    fn name(&self) -> &'static str {
        fabric_dispatch!(self, t => t.name())
    }

    fn width(&self) -> u16 {
        fabric_dispatch!(self, t => t.width())
    }

    fn height(&self) -> u16 {
        fabric_dispatch!(self, t => t.height())
    }

    fn ports_per_node(&self) -> usize {
        fabric_dispatch!(self, t => t.ports_per_node())
    }

    fn port_classes(&self) -> usize {
        fabric_dispatch!(self, t => t.port_classes())
    }

    fn port_class(&self, port: Port) -> usize {
        fabric_dispatch!(self, t => t.port_class(port))
    }

    fn neighbor(&self, node: usize, port: Port) -> Option<usize> {
        fabric_dispatch!(self, t => t.neighbor(node, port))
    }

    fn reverse_port(&self, node: usize, port: Port) -> Port {
        fabric_dispatch!(self, t => t.reverse_port(node, port))
    }

    fn links(&self) -> usize {
        fabric_dispatch!(self, t => t.links())
    }

    fn link_index(&self, node: usize, port: Port) -> usize {
        fabric_dispatch!(self, t => t.link_index(node, port))
    }

    fn distance(&self, a: usize, b: usize) -> u32 {
        fabric_dispatch!(self, t => t.distance(a, b))
    }

    fn min_ports(&self, node: usize, dst: usize) -> Vec<Port> {
        fabric_dispatch!(self, t => t.min_ports(node, dst))
    }

    fn min_port(&self, node: usize, dst: usize) -> Option<Port> {
        fabric_dispatch!(self, t => t.min_port(node, dst))
    }

    fn diameter(&self) -> u32 {
        fabric_dispatch!(self, t => t.diameter())
    }

    fn bisection_width(&self) -> usize {
        fabric_dispatch!(self, t => t.bisection_width())
    }

    fn dor_is_acyclic(&self) -> bool {
        fabric_dispatch!(self, t => t.dor_is_acyclic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directions() {
        // The Port-based surface is the only enumeration: the four
        // compass directions are exactly the mesh's ports 0..4.
        let dirs: Vec<Dir> = (0..Mesh::new(2, 2).ports_per_node())
            .map(|p| Dir::from_port(Port(p as u8)).expect("mesh ports are compass directions"))
            .collect();
        assert_eq!(dirs, vec![Dir::East, Dir::West, Dir::North, Dir::South]);
        for d in dirs {
            assert_eq!(d.opposite().opposite(), d);
            assert_eq!(d.is_x(), d.opposite().is_x());
            assert_eq!(Dir::from_port(d.port()), Some(d));
            assert_eq!(Port::from(d), d.port());
            assert_eq!(d.port().index(), d.index());
        }
        assert_eq!(Dir::from_port(Port(4)), None);
    }

    #[test]
    fn manhattan() {
        assert_eq!(Coord::new(0, 0).manhattan(Coord::new(3, 4)), 7);
        assert_eq!(Coord::new(5, 5).manhattan(Coord::new(5, 5)), 0);
    }

    #[test]
    fn port_display_and_index() {
        assert_eq!(Port(3).to_string(), "p3");
        assert_eq!(Port(3).index(), 3);
        assert_eq!(Dir::South.to_string(), "S");
    }

    #[test]
    fn kind_builds_matching_fabrics() {
        let mesh = TopologyKind::Mesh.build(4, 3).unwrap();
        assert_eq!((mesh.name(), mesh.nodes()), ("mesh", 12));
        let torus = TopologyKind::Torus.build(4, 4).unwrap();
        assert_eq!((torus.name(), torus.links()), ("torus", 32));
        let cube = TopologyKind::Hypercube.build(4, 4).unwrap();
        assert_eq!((cube.name(), cube.diameter()), ("hypercube", 4));
    }

    #[test]
    fn kind_rejects_bad_grids() {
        assert!(TopologyKind::Mesh.build(0, 4).is_err());
        assert!(TopologyKind::Torus.build(1, 1).is_err());
        assert!(TopologyKind::Hypercube.build(3, 4).is_err());
        assert!(TopologyKind::Hypercube.build(1, 1).is_err());
        // 16 nodes laid out 2×8 is a valid power of two but not the
        // canonical hypercube grid (4×4).
        assert!(TopologyKind::Hypercube.build(2, 8).is_err());
    }

    #[test]
    fn kind_labels_round_trip() {
        for kind in TopologyKind::ALL {
            assert_eq!(TopologyKind::parse(&kind.to_string()), Some(kind));
            assert_eq!(kind.to_string().parse::<TopologyKind>(), Ok(kind));
        }
        assert!(TopologyKind::parse("ring").is_none());
        assert!("ring".parse::<TopologyKind>().is_err());
    }

    #[test]
    fn avg_distance_is_sane() {
        let mesh = Mesh::new(2, 2);
        // Pairs at distance 1 (8 ordered) and 2 (4 ordered): mean 4/3.
        assert!((mesh.avg_distance() - 4.0 / 3.0).abs() < 1e-12);
        let cube = Hypercube::new(2);
        assert!((cube.avg_distance() - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(Mesh::new(1, 1).avg_distance(), 0.0);
    }

    #[test]
    fn all_pairs_bfs_skips_sources_and_omitted_edges() {
        // A 3×1 mesh with the 1—2 link left out: node 2 is cut off, and
        // node 1 is not a source.
        let mesh = Mesh::new(3, 1);
        let all = all_pairs_bfs(
            3,
            mesh.ports_per_node(),
            |n, p| mesh.neighbor(n, p).filter(|&nb| n + nb != 3),
            |s| s != 1,
        );
        let max = u32::MAX;
        assert_eq!(all.dist, vec![0, 1, max, max, max, max, max, max, 0]);
        assert_eq!(
            (all.diameter, all.reachable_pairs, all.total_distance),
            (1, 1, 1)
        );
    }

    #[test]
    fn coord_round_trip_via_trait() {
        let t = Torus::new(5, 3);
        for node in 0..t.nodes() {
            let c = t.coord_of(node);
            assert!(t.contains(c));
            assert_eq!(Topology::node_index(&t, c), node);
        }
        assert!(!t.contains(Coord::new(5, 0)));
    }
}
