//! Property tests for the fault layer's core guarantees:
//! determinism of compiled schedules, masked-link avoidance by every
//! router, exact healthy behaviour for zero-rate plans, and the
//! surviving distance table against a naive BFS oracle.

use std::collections::VecDeque;

use proptest::prelude::*;

use qic_fault::{DegradedFabric, FaultPlan, UNREACHABLE};
use qic_net::routing::RoutingPolicy;
use qic_net::topology::{Fabric, Hypercube, Mesh, Port, Topology, Torus};

/// The three fabrics at a `w × h`-ish scale (the hypercube picks the
/// nearest power-of-two node count).
fn fabrics(w: u16, h: u16) -> Vec<Fabric> {
    let dim = (usize::from(w) * usize::from(h)).ilog2().clamp(1, 6);
    vec![
        Fabric::Mesh(Mesh::new(w, h)),
        Fabric::Torus(Torus::new(w, h)),
        Fabric::Hypercube(Hypercube::new(dim)),
    ]
}

/// Surviving hop distances from `src` by a textbook `VecDeque` BFS
/// over the masked [`Topology::neighbor`]; a dead source reaches
/// nothing, itself included.
fn naive_bfs(degraded: &DegradedFabric<Fabric>, src: usize) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; degraded.nodes()];
    if degraded.node_is_dead(src) {
        return dist;
    }
    dist[src] = 0;
    let mut queue = VecDeque::from([src]);
    while let Some(at) = queue.pop_front() {
        for p in 0..degraded.ports_per_node() {
            if let Some(nb) = degraded.neighbor(at, Port(p as u8)) {
                if dist[nb] == UNREACHABLE {
                    dist[nb] = dist[at] + 1;
                    queue.push_back(nb);
                }
            }
        }
    }
    dist
}

proptest! {
    #[test]
    fn surviving_distances_match_a_naive_bfs(
        w in 2u16..7, h in 2u16..7,
        seed in 0u64..1_000_000,
        link_pct in 0u32..50, node_pct in 0u32..30,
    ) {
        for fabric in fabrics(w, h) {
            let degraded = FaultPlan::healthy()
                .with_seed(seed)
                .with_link_kill(f64::from(link_pct) / 100.0)
                .with_node_loss(f64::from(node_pct) / 100.0)
                .compile(fabric);
            let (mut diameter, mut reachable, mut total) = (0, 0u64, 0u64);
            for src in 0..degraded.nodes() {
                for (dst, d) in naive_bfs(&degraded, src).into_iter().enumerate() {
                    prop_assert_eq!(Topology::distance(&degraded, src, dst), d, "{} -> {}", src, dst);
                    if d != UNREACHABLE && d != 0 {
                        diameter = diameter.max(d);
                        reachable += 1;
                        total += u64::from(d);
                    }
                }
            }
            prop_assert_eq!(degraded.diameter(), diameter);
            let pairs = degraded.nodes() * (degraded.nodes() - 1);
            prop_assert_eq!(
                degraded.reachable_fraction().to_bits(),
                (reachable as f64 / pairs as f64).to_bits()
            );
            let mean = if reachable == 0 { 0.0 } else { total as f64 / reachable as f64 };
            prop_assert_eq!(degraded.avg_distance().to_bits(), mean.to_bits());
        }
    }

    #[test]
    fn same_seed_compiles_a_byte_identical_schedule(
        w in 2u16..8, h in 2u16..8,
        seed in 0u64..1_000_000,
        link_pct in 0u32..40, node_pct in 0u32..25,
    ) {
        let link_rate = f64::from(link_pct) / 100.0;
        let node_rate = f64::from(node_pct) / 100.0;
        for fabric in fabrics(w, h) {
            let plan = FaultPlan::healthy()
                .with_seed(seed)
                .with_link_kill(link_rate)
                .with_node_loss(node_rate);
            let a = plan.schedule(&fabric);
            let b = plan.schedule(&fabric);
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
            // The compiled fabric agrees with the standalone schedule.
            let degraded = plan.compile(fabric);
            for &l in &a.dead_links {
                prop_assert!(degraded.link_is_dead(l as usize));
            }
            for &n in &a.dead_nodes {
                prop_assert!(degraded.node_is_dead(n as usize));
            }
        }
    }

    #[test]
    fn routes_never_traverse_masked_links(
        w in 3u16..8, h in 3u16..8,
        seed in 0u64..10_000,
        link_pct in 5u32..35,
        src in 0usize..64, dst in 0usize..64,
    ) {
        for fabric in fabrics(w, h) {
            let nodes = fabric.nodes();
            let (src, dst) = (src % nodes, dst % nodes);
            let degraded = FaultPlan::healthy()
                .with_seed(seed)
                .with_link_kill(f64::from(link_pct) / 100.0)
                .with_node_loss(0.05)
                .compile(fabric);
            if !Topology::is_reachable(&degraded, src, dst) {
                prop_assert!(
                    src == dst || Topology::distance(&degraded, src, dst) == UNREACHABLE
                );
                continue;
            }
            for policy in RoutingPolicy::ALL {
                let path = policy.router().route(&degraded, src, dst, &|_| 0);
                prop_assert_eq!(
                    path.len() as u32,
                    Topology::distance(&degraded, src, dst),
                    "routes are minimal in the surviving metric"
                );
                let mut at = src;
                for port in path {
                    prop_assert!(!degraded.node_is_dead(at));
                    let link = degraded.link_index(at, port);
                    prop_assert!(!degraded.link_is_dead(link), "hop over masked link {link}");
                    at = degraded.neighbor(at, port).expect("route follows wired ports");
                }
                prop_assert_eq!(at, dst);
                prop_assert!(!degraded.node_is_dead(dst));
            }
        }
    }

    #[test]
    fn zero_rate_plan_is_exactly_the_healthy_fabric(
        w in 2u16..7, h in 2u16..7,
        seed in 0u64..10_000,
    ) {
        for fabric in fabrics(w, h) {
            let degraded: DegradedFabric<Fabric> =
                FaultPlan::healthy().with_seed(seed).compile(fabric);
            let base = *degraded.base();
            prop_assert!(!degraded.is_degraded());
            prop_assert_eq!(degraded.diameter(), base.diameter());
            prop_assert_eq!(degraded.bisection_width(), base.bisection_width());
            prop_assert_eq!(degraded.dor_is_acyclic(), base.dor_is_acyclic());
            for a in 0..base.nodes() {
                for b in 0..base.nodes() {
                    prop_assert_eq!(
                        Topology::distance(&degraded, a, b),
                        base.distance(a, b)
                    );
                    prop_assert_eq!(degraded.min_ports(a, b), base.min_ports(a, b));
                }
                for p in 0..base.ports_per_node() {
                    prop_assert_eq!(
                        degraded.neighbor(a, Port(p as u8)),
                        base.neighbor(a, Port(p as u8))
                    );
                }
            }
        }
    }

    #[test]
    fn degradation_only_ever_shrinks_the_fabric(
        w in 2u16..7, h in 2u16..7,
        seed in 0u64..10_000,
        link_pct in 0u32..50,
    ) {
        for fabric in fabrics(w, h) {
            let base = fabric;
            let degraded = FaultPlan::healthy()
                .with_seed(seed)
                .with_link_kill(f64::from(link_pct) / 100.0)
                .compile(fabric);
            prop_assert!(degraded.surviving_links() <= base.links());
            prop_assert!(degraded.bisection_width() <= base.bisection_width());
            prop_assert!(degraded.reachable_fraction() <= 1.0);
            // Surviving shortest paths never beat the healthy metric.
            for a in 0..base.nodes() {
                for b in 0..base.nodes() {
                    let d = Topology::distance(&degraded, a, b);
                    if d != UNREACHABLE {
                        prop_assert!(d >= base.distance(a, b));
                    }
                }
            }
        }
    }
}
