//! Routing policies over any [`Topology`] — the second extension point
//! of the interconnect layer.
//!
//! A [`Router`] chooses the port path a logical communication's channel
//! follows when it opens. Both shipped policies are **minimal** (every
//! hop strictly decreases the distance to the destination, so routes
//! are loop-free by construction) and **deterministic** (a pure
//! function of the topology, the endpoints, and — for the adaptive
//! policy — the observed channel load, which is itself deterministic in
//! this simulator):
//!
//! * [`DimensionOrder`] greedily takes the lowest-numbered minimal
//!   port. On the mesh and torus that is the paper's X-then-Y
//!   dimension-order routing; on the hypercube it is e-cube routing.
//! * [`MinimalAdaptive`] picks, at each hop, the minimal port whose
//!   link currently carries the fewest open channels, breaking ties
//!   toward the lowest port index.

use crate::topology::{Port, Topology};

/// A channel-route selection policy.
///
/// Implementations must return **minimal** routes: `route(...).len()`
/// equals `topo.distance(src, dst)`. The simulator calls a router once
/// per logical communication, at channel-open time, and keeps the
/// returned path for the channel's lifetime (the paper's channels are
/// persistent streams, so adaptivity acts at open time, not per pair).
pub trait Router {
    /// Short lowercase name for reports and campaign labels.
    fn name(&self) -> &'static str;

    /// Chooses the port path from `src` to `dst` (dense node indices).
    ///
    /// `load` reports the number of open channels currently crossing a
    /// link index — contention-aware policies consult it, oblivious
    /// ones ignore it. The returned path must be minimal.
    fn route(
        &self,
        topo: &dyn Topology,
        src: usize,
        dst: usize,
        load: &dyn Fn(usize) -> u32,
    ) -> Vec<Port>;

    /// Whether routes are a pure function of `(topology, src, dst)` —
    /// i.e. independent of the `load` signal — so the simulator may
    /// compute each pair's route once and reuse it for every later
    /// communication between the same endpoints (the precomputed-route
    /// fast path, applied on healthy fabrics only).
    ///
    /// Defaults to `false`: contention-aware policies must keep the
    /// dynamic path. Only override to `true` when `route` ignores
    /// `load` entirely.
    fn cacheable(&self) -> bool {
        false
    }
}

/// Deterministic dimension-order (lowest-minimal-port) routing.
///
/// On the mesh this reproduces the paper's X-then-Y routes exactly; on
/// the torus it takes the shorter way around each ring (East/North on
/// antipodal ties); on the hypercube it fixes address bits in ascending
/// order (e-cube).
///
/// # Examples
///
/// ```
/// use qic_net::routing::{DimensionOrder, Router};
/// use qic_net::topology::{Coord, Mesh, Topology};
///
/// let mesh = Mesh::new(8, 8);
/// let (a, b) = (mesh.node_index(Coord::new(1, 1)), mesh.node_index(Coord::new(4, 6)));
/// let path = DimensionOrder.route(&mesh, a, b, &|_| 0);
/// assert_eq!(path.len() as u32, Topology::distance(&mesh, a, b));
/// // X hops (East = port 0) come before Y hops (North = port 2).
/// assert_eq!(path.iter().map(|p| p.0).collect::<Vec<_>>(), [0, 0, 0, 2, 2, 2, 2, 2]);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DimensionOrder;

impl Router for DimensionOrder {
    fn name(&self) -> &'static str {
        "dor"
    }

    fn cacheable(&self) -> bool {
        // Oblivious: the route never reads the load signal.
        true
    }

    fn route(
        &self,
        topo: &dyn Topology,
        src: usize,
        dst: usize,
        _load: &dyn Fn(usize) -> u32,
    ) -> Vec<Port> {
        let mut path = Vec::with_capacity(topo.distance(src, dst) as usize);
        let mut at = src;
        while at != dst {
            let port = topo
                .min_port(at, dst)
                .expect("at != dst has a minimal port");
            path.push(port);
            at = topo.neighbor(at, port).expect("minimal ports are wired");
        }
        path
    }
}

/// Minimal-adaptive routing: contention-aware with deterministic
/// tie-breaking.
///
/// At each hop the policy considers every minimal port and takes the
/// one whose link carries the fewest open channels; ties break toward
/// the lowest port index, so two runs with identical load histories
/// route identically (campaign reports stay byte-identical for any
/// worker count).
///
/// # Examples
///
/// ```
/// use qic_net::routing::{MinimalAdaptive, Router};
/// use qic_net::topology::{Coord, Mesh, Topology};
///
/// let mesh = Mesh::new(4, 4);
/// let (a, b) = (mesh.node_index(Coord::new(0, 0)), mesh.node_index(Coord::new(2, 2)));
/// // Penalise the bottom row's East links: the route detours North first
/// // but stays minimal.
/// let bottom_east = mesh.link_index(a, qic_net::topology::Port(0));
/// let path = MinimalAdaptive.route(&mesh, a, b, &|l| u32::from(l == bottom_east));
/// assert_eq!(path.len() as u32, Topology::distance(&mesh, a, b));
/// assert_eq!(path[0].0, 2, "first hop avoids the loaded East link");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinimalAdaptive;

impl Router for MinimalAdaptive {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn route(
        &self,
        topo: &dyn Topology,
        src: usize,
        dst: usize,
        load: &dyn Fn(usize) -> u32,
    ) -> Vec<Port> {
        let mut path = Vec::with_capacity(topo.distance(src, dst) as usize);
        let mut at = src;
        while at != dst {
            let port = topo
                .min_ports(at, dst)
                .into_iter()
                .min_by_key(|&p| (load(topo.link_index(at, p)), p))
                .expect("min_ports is non-empty while at != dst");
            path.push(port);
            at = topo.neighbor(at, port).expect("minimal ports are wired");
        }
        path
    }
}

/// Which routing policy a [`crate::config::NetConfig`] selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingPolicy {
    /// [`DimensionOrder`]: the paper's oblivious X-then-Y routing.
    DimensionOrder,
    /// [`MinimalAdaptive`]: contention-aware, deterministically
    /// tie-broken.
    MinimalAdaptive,
}

impl RoutingPolicy {
    /// Every policy, in sweep order.
    pub const ALL: [RoutingPolicy; 2] = [
        RoutingPolicy::DimensionOrder,
        RoutingPolicy::MinimalAdaptive,
    ];

    /// The policy's router implementation.
    pub fn router(self) -> Box<dyn Router> {
        match self {
            RoutingPolicy::DimensionOrder => Box::new(DimensionOrder),
            RoutingPolicy::MinimalAdaptive => Box::new(MinimalAdaptive),
        }
    }

    /// The policy's short label (`"dor"`, `"adaptive"`).
    pub fn label(self) -> &'static str {
        match self {
            RoutingPolicy::DimensionOrder => "dor",
            RoutingPolicy::MinimalAdaptive => "adaptive",
        }
    }

    /// Parses a campaign label (`"dor"`, `"adaptive"`).
    pub fn parse(label: &str) -> Option<RoutingPolicy> {
        match label {
            "dor" => Some(RoutingPolicy::DimensionOrder),
            "adaptive" => Some(RoutingPolicy::MinimalAdaptive),
            _ => None,
        }
    }
}

impl std::fmt::Display for RoutingPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for RoutingPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        RoutingPolicy::parse(s).ok_or_else(|| format!("unknown routing policy {s:?}"))
    }
}

qic_des::json::labels! {
    RoutingPolicy: "routing", to_string;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Coord, Hypercube, Mesh, Topology, Torus};

    fn no_load(_: usize) -> u32 {
        0
    }

    #[test]
    fn dor_matches_legacy_mesh_routes() {
        let mesh = Mesh::new(8, 8);
        for (from, to) in [
            (Coord::new(1, 1), Coord::new(4, 6)),
            (Coord::new(7, 0), Coord::new(0, 3)),
            (Coord::new(3, 3), Coord::new(3, 3)),
        ] {
            let legacy: Vec<_> = mesh.route(from, to).iter().map(|d| d.port()).collect();
            let ported =
                DimensionOrder.route(&mesh, mesh.node_index(from), mesh.node_index(to), &no_load);
            assert_eq!(legacy, ported, "{from} -> {to}");
        }
    }

    #[test]
    fn dor_takes_the_short_way_around_the_torus() {
        let torus = Torus::new(8, 8);
        let a = torus.node_index(Coord::new(0, 0));
        let b = torus.node_index(Coord::new(7, 7));
        let path = DimensionOrder.route(&torus, a, b, &no_load);
        // One West hop, one South hop.
        assert_eq!(path.len(), 2);
        assert_eq!(path[0].0, 1);
        assert_eq!(path[1].0, 3);
    }

    #[test]
    fn dor_is_ecube_on_the_hypercube() {
        let cube = Hypercube::new(6);
        let path = DimensionOrder.route(&cube, 0b000000, 0b110100, &no_load);
        let ports: Vec<u8> = path.iter().map(|p| p.0).collect();
        assert_eq!(ports, vec![2, 4, 5], "bits fixed in ascending order");
    }

    #[test]
    fn adaptive_prefers_unloaded_links() {
        let torus = Torus::new(6, 6);
        let a = torus.node_index(Coord::new(0, 0));
        let b = torus.node_index(Coord::new(3, 0));
        // Antipodal in x: East and West both minimal. Load East heavily.
        let east_link = torus.link_index(a, crate::topology::Dir::East.port());
        let path = MinimalAdaptive.route(&torus, a, b, &|l| u32::from(l == east_link) * 5);
        assert_eq!(path.len(), 3);
        assert_eq!(path[0].0, 1, "first hop dodges the loaded East link");
        // Unloaded, the tie breaks East.
        let tie = MinimalAdaptive.route(&torus, a, b, &no_load);
        assert_eq!(tie[0].0, 0);
    }

    #[test]
    fn both_policies_are_minimal_and_deterministic() {
        let cube = Hypercube::new(5);
        for (src, dst) in [(0usize, 31usize), (5, 9), (17, 17), (1, 30)] {
            for policy in RoutingPolicy::ALL {
                let r = policy.router();
                let a = r.route(&cube, src, dst, &no_load);
                let b = r.route(&cube, src, dst, &no_load);
                assert_eq!(a, b, "routing must be deterministic");
                assert_eq!(a.len() as u32, cube.distance(src, dst));
            }
        }
    }

    #[test]
    fn policy_labels_round_trip() {
        for policy in RoutingPolicy::ALL {
            assert_eq!(RoutingPolicy::parse(&policy.to_string()), Some(policy));
            assert_eq!(policy.to_string().parse::<RoutingPolicy>(), Ok(policy));
        }
        assert!("valiant".parse::<RoutingPolicy>().is_err());
        assert_eq!(RoutingPolicy::DimensionOrder.to_string(), "dor");
        assert_eq!(RoutingPolicy::MinimalAdaptive.to_string(), "adaptive");
    }
}
