//! Property-based tests for the composed two-tier fabric: route
//! minimality/loop-freedom/determinism over every base fabric and both
//! routing policies, metric laws for the BFS distance table, the table
//! against a naive BFS oracle, and hand-computed diameter/bisection
//! values for small module counts.

use std::collections::VecDeque;

use proptest::prelude::*;

use qic_modular::{Interconnect, ModularFabric, ModularSpec};
use qic_net::routing::RoutingPolicy;
use qic_net::topology::{Fabric, Hypercube, Mesh, Port, Topology, Torus};

/// A composing spec with a nonzero inter tier (so the penalty and slot
/// paths are live) at `k` modules.
fn spec(k: u32, fat: bool) -> ModularSpec {
    let interconnect = if fat {
        Interconnect::FatTree { radix: 2 }
    } else {
        Interconnect::OpticalSwitch
    };
    ModularSpec::single()
        .with_modules(k)
        .with_interconnect(interconnect)
        .with_latency_ns(250)
        .with_teleporter_slots(2)
}

/// The three composed fabrics at a `w × h`-ish module scale.
fn composed(w: u16, h: u16, k: u32, fat: bool) -> Vec<ModularFabric<Fabric>> {
    let dim = (usize::from(w) * usize::from(h)).ilog2().clamp(1, 5);
    vec![
        Fabric::Mesh(Mesh::new(w, h)),
        Fabric::Torus(Torus::new(w, h)),
        Fabric::Hypercube(Hypercube::new(dim)),
    ]
    .into_iter()
    .map(|base| ModularFabric::new(base, &spec(k, fat)))
    .collect()
}

/// Hop distances from `src` by a textbook `VecDeque` BFS over
/// [`Topology::neighbor`] (`u32::MAX` where unreached): the oracle the
/// fabric's precomputed table must reproduce.
fn naive_bfs(topo: &impl Topology, src: usize) -> Vec<u32> {
    let mut dist = vec![u32::MAX; topo.nodes()];
    dist[src] = 0;
    let mut queue = VecDeque::from([src]);
    while let Some(at) = queue.pop_front() {
        for p in 0..topo.ports_per_node() {
            if let Some(nb) = topo.neighbor(at, Port(p as u8)) {
                if dist[nb] == u32::MAX {
                    dist[nb] = dist[at] + 1;
                    queue.push_back(nb);
                }
            }
        }
    }
    dist
}

/// The trait-default mean distance, written out: the sum over ordered
/// distinct pairs divided by their count.
fn default_avg_distance(topo: &impl Topology) -> f64 {
    let n = topo.nodes();
    let mut total = 0u64;
    for a in 0..n {
        for b in (0..n).filter(|&b| b != a) {
            total += u64::from(topo.distance(a, b));
        }
    }
    total as f64 / (n * (n - 1)) as f64
}

proptest! {
    #[test]
    fn distance_table_matches_a_naive_bfs(
        w in 2u16..5, h in 2u16..5, k in 1u32..10, fat in any::<bool>(),
    ) {
        // k up to 9 on bases as small as 2×2 (4 nodes) reaches K > N,
        // where a node carries several uplink ports.
        for topo in composed(w, h, k, fat) {
            let mut diameter = 0;
            for src in 0..topo.nodes() {
                let oracle = naive_bfs(&topo, src);
                for (dst, &d) in oracle.iter().enumerate() {
                    prop_assert_eq!(topo.distance(src, dst), d, "{} -> {} over {} modules", src, dst, k);
                    diameter = diameter.max(d);
                }
            }
            prop_assert_eq!(topo.diameter(), diameter);
            prop_assert_eq!(
                topo.avg_distance().to_bits(),
                default_avg_distance(&topo).to_bits(),
                "mean distance over {} modules", k
            );
        }
    }

    #[test]
    fn routes_are_minimal_loop_free_and_deterministic(
        w in 2u16..5, h in 2u16..5, k in 1u32..5, fat in any::<bool>(),
        a in 0usize..10_000, b in 0usize..10_000,
        fake_load in proptest::collection::vec(0u32..7, 64),
    ) {
        for topo in composed(w, h, k, fat) {
            let n = topo.nodes();
            let (src, dst) = (a % n, b % n);
            let load = |link: usize| fake_load[link % fake_load.len()];
            for policy in RoutingPolicy::ALL {
                let router = policy.router();
                let path = router.route(&topo, src, dst, &load);
                // Minimal: length equals the BFS distance table.
                prop_assert_eq!(
                    path.len() as u32,
                    topo.distance(src, dst),
                    "{} over {} modules", policy, k
                );
                // Loop-free: no node repeats, and the walk ends at dst.
                let mut at = src;
                let mut seen = std::collections::HashSet::from([at]);
                let mut crossings = 0u32;
                for &port in &path {
                    let next = topo.neighbor(at, port).expect("wired");
                    if topo.module_of(next) != topo.module_of(at) {
                        crossings += 1;
                    }
                    at = next;
                    prop_assert!(seen.insert(at), "revisited node {at}");
                }
                prop_assert_eq!(at, dst);
                // Two modules have a single inter link, so minimality
                // at the module-graph level is exact: one crossing for
                // cross-module pairs, none within a module. (Larger K
                // may legitimately shortcut through a third module.)
                if k == 2 {
                    let cross = topo.module_of(src) != topo.module_of(dst);
                    prop_assert_eq!(crossings, u32::from(cross));
                }
                // Deterministic: same inputs, same route.
                prop_assert_eq!(path, router.route(&topo, src, dst, &load));
            }
        }
    }

    #[test]
    fn distances_are_metrics(
        w in 2u16..5, h in 2u16..5, k in 1u32..6,
        a in 0usize..10_000, b in 0usize..10_000, c in 0usize..10_000,
    ) {
        for topo in composed(w, h, k, false) {
            let n = topo.nodes();
            let (x, y, z) = (a % n, b % n, c % n);
            prop_assert_eq!(topo.distance(x, x), 0);
            prop_assert_eq!(topo.distance(x, y), topo.distance(y, x));
            prop_assert!(x == y || topo.distance(x, y) > 0);
            prop_assert!(
                topo.distance(x, z) <= topo.distance(x, y) + topo.distance(y, z),
                "triangle inequality over {k} modules"
            );
            prop_assert!(topo.distance(x, y) <= topo.diameter());
        }
    }

    #[test]
    fn min_ports_decrease_distance(
        w in 2u16..5, h in 2u16..5, k in 1u32..5, fat in any::<bool>(),
        a in 0usize..10_000, b in 0usize..10_000,
    ) {
        for topo in composed(w, h, k, fat) {
            let n = topo.nodes();
            let (src, dst) = (a % n, b % n);
            let ports = topo.min_ports(src, dst);
            prop_assert_eq!(ports.is_empty(), src == dst);
            let d = topo.distance(src, dst);
            for port in ports {
                let next = topo.neighbor(src, port).expect("minimal ports are wired");
                prop_assert_eq!(topo.distance(next, dst), d - 1);
            }
        }
    }

    #[test]
    fn degenerate_composition_is_transparent(
        w in 2u16..6, h in 2u16..6,
        a in 0usize..10_000, b in 0usize..10_000,
    ) {
        // One module: every Topology answer must match the bare base.
        let base = Fabric::Mesh(Mesh::new(w, h));
        let one = ModularFabric::new(base, &spec(1, false));
        let n = base.nodes();
        let (x, y) = (a % n, b % n);
        prop_assert_eq!(one.nodes(), n);
        prop_assert_eq!(one.distance(x, y), base.distance(x, y));
        prop_assert_eq!(one.min_ports(x, y), base.min_ports(x, y));
        prop_assert_eq!(one.diameter(), base.diameter());
        prop_assert_eq!(one.bisection_width(), base.bisection_width());
        prop_assert_eq!(one.teleporter_capacity(x, 7), base.teleporter_capacity(x, 7));
    }
}

/// Two 2×2-mesh modules: the single inter link joins module 0's local 1
/// to module 1's local 0, so the worst pair walks 2 hops to the
/// gateway, crosses once, and walks 2 hops out: diameter 5. The best
/// balanced bisection cuts the one inter link.
#[test]
fn hand_computed_two_module_mesh() {
    let two = ModularFabric::new(Fabric::Mesh(Mesh::new(2, 2)), &spec(2, false));
    assert_eq!(two.nodes(), 8);
    assert_eq!(two.links(), 2 * 4 + 1);
    assert_eq!(two.diameter(), 5);
    assert_eq!(two.bisection_width(), 1);
    // The worst pair itself: module 0's local 2 to module 1's local 3.
    assert_eq!(two.distance(2, 4 + 3), 5);
}

/// Two 8-node hypercube modules: 3 hops in, one crossing, 3 hops out.
#[test]
fn hand_computed_two_module_hypercube() {
    let two = ModularFabric::new(Fabric::Hypercube(Hypercube::new(3)), &spec(2, false));
    assert_eq!(two.nodes(), 16);
    assert_eq!(two.diameter(), 3 + 1 + 3);
    // The base's bisection (4) doubled still beats the single uplink.
    assert_eq!(two.bisection_width(), 1);
}

/// Three and four modules: the module-graph cut `⌊k/2⌋·⌈k/2⌉` governs
/// until the tiled base cut is smaller.
#[test]
fn hand_computed_bisection_growth() {
    let base = Fabric::Mesh(Mesh::new(2, 2));
    assert_eq!(
        ModularFabric::new(base, &spec(3, false)).bisection_width(),
        2
    );
    assert_eq!(
        ModularFabric::new(base, &spec(4, false)).bisection_width(),
        4
    );
}
