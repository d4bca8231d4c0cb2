//! Property-based tests for the topologies, the routing policies, and
//! the simulator's conservation laws.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;

use qic_net::config::NetConfig;
use qic_net::routing::{DimensionOrder, Router, RoutingPolicy};
use qic_net::sim::{BatchDriver, NetworkSim, OneShotDriver};
use qic_net::topology::{Coord, Fabric, Hypercube, Mesh, Port, Topology, TopologyKind, Torus};

/// A shared log of `route` calls: endpoint pair → the hop sequence
/// returned.
type RouteLog = Rc<RefCell<Vec<((usize, usize), Vec<Port>)>>>;

/// Dimension-order routing with a switchable cacheability flag and a
/// log of every `route` call — the probe for the differential test
/// between the precomputed-route fast path and the dynamic
/// `Router::route` path.
struct RecordingDor {
    cacheable: bool,
    log: RouteLog,
}

impl Router for RecordingDor {
    fn name(&self) -> &'static str {
        "dor"
    }

    fn cacheable(&self) -> bool {
        self.cacheable
    }

    fn route(
        &self,
        topo: &dyn Topology,
        src: usize,
        dst: usize,
        load: &dyn Fn(usize) -> u32,
    ) -> Vec<Port> {
        let path = DimensionOrder.route(topo, src, dst, load);
        self.log.borrow_mut().push(((src, dst), path.clone()));
        path
    }
}

/// The three fabrics at a `w × h`-ish scale (the hypercube picks the
/// nearest power-of-two node count).
fn fabrics(w: u16, h: u16) -> Vec<Fabric> {
    let dim = (usize::from(w) * usize::from(h)).ilog2().clamp(1, 8);
    vec![
        Fabric::Mesh(Mesh::new(w, h)),
        Fabric::Torus(Torus::new(w, h)),
        Fabric::Hypercube(Hypercube::new(dim)),
    ]
}

proptest! {
    #[test]
    fn routes_have_manhattan_length_and_one_turn(
        w in 2u16..20, h in 2u16..20,
        x1 in 0u16..20, y1 in 0u16..20, x2 in 0u16..20, y2 in 0u16..20,
    ) {
        let mesh = Mesh::new(w, h);
        let a = Coord::new(x1 % w, y1 % h);
        let b = Coord::new(x2 % w, y2 % h);
        let route = mesh.route(a, b);
        prop_assert_eq!(route.len() as u32, a.manhattan(b));
        let turns = route.windows(2).filter(|p| p[0].is_x() != p[1].is_x()).count();
        prop_assert!(turns <= 1, "dimension-order routes turn at most once");
        // The route must land exactly on b.
        let nodes = mesh.route_nodes(a, b);
        prop_assert_eq!(*nodes.last().unwrap(), b);
        prop_assert!(nodes.iter().all(|&n| mesh.contains(n)));
    }

    #[test]
    fn single_comm_conservation_laws(
        x1 in 0u16..4, y1 in 0u16..4, x2 in 0u16..4, y2 in 0u16..4,
        outputs in 1u32..5, depth in 1u32..4,
        seed in 0u64..1000,
    ) {
        let mut cfg = NetConfig::small_test();
        cfg.outputs_per_comm = outputs;
        cfg.purify_depth = depth;
        cfg.seed = seed;
        let src = Coord::new(x1, y1);
        let dst = Coord::new(x2, y2);
        let hops = u64::from(src.manhattan(dst));
        let mut driver = OneShotDriver::new(src, dst);
        let report = NetworkSim::new(cfg.clone()).run(&mut driver);

        prop_assert_eq!(report.comms_completed, 1);
        let raw = cfg.raw_pairs_per_comm();
        // Conservation: every teleport consumed exactly one link pair.
        prop_assert_eq!(report.teleport_ops, raw * hops);
        prop_assert_eq!(report.pairs_consumed, report.teleport_ops);
        prop_assert!(report.pairs_generated >= report.pairs_consumed);
        if hops > 0 {
            prop_assert_eq!(report.purified_outputs, u64::from(outputs));
            // Queue purifier: (2^depth − 1) ops per output.
            prop_assert_eq!(
                report.purify_ops,
                u64::from(outputs) * ((1 << depth) - 1)
            );
        }
    }

    #[test]
    fn routes_are_minimal_loop_free_and_deterministic(
        w in 2u16..8, h in 2u16..8,
        a in 0usize..1000, b in 0usize..1000,
        fake_load in proptest::collection::vec(0u32..7, 64),
    ) {
        for topo in fabrics(w, h) {
            let n = topo.nodes();
            let (src, dst) = (a % n, b % n);
            // Any load function — adaptive must stay minimal under it.
            let load = |link: usize| fake_load[link % fake_load.len()];
            for policy in RoutingPolicy::ALL {
                let router = policy.router();
                let path = router.route(&topo, src, dst, &load);
                // Minimal: length equals the topology's distance.
                prop_assert_eq!(
                    path.len() as u32,
                    topo.distance(src, dst),
                    "{} on {}", policy, topo.name()
                );
                // Loop-free: no node repeats, and the walk ends at dst.
                let mut at = src;
                let mut seen = std::collections::HashSet::from([at]);
                for &port in &path {
                    at = topo.neighbor(at, port).expect("wired");
                    prop_assert!(seen.insert(at), "revisited node {at}");
                }
                prop_assert_eq!(at, dst);
                // Deterministic: the same inputs give the same route.
                prop_assert_eq!(path, router.route(&topo, src, dst, &load));
            }
        }
    }

    #[test]
    fn distances_are_metrics(
        w in 2u16..8, h in 2u16..8,
        a in 0usize..1000, b in 0usize..1000, c in 0usize..1000,
    ) {
        for topo in fabrics(w, h) {
            let n = topo.nodes();
            let (x, y, z) = (a % n, b % n, c % n);
            // Identity and symmetry.
            prop_assert_eq!(topo.distance(x, x), 0);
            prop_assert_eq!(topo.distance(x, y), topo.distance(y, x), "{}", topo.name());
            prop_assert!(x == y || topo.distance(x, y) > 0);
            // Triangle inequality.
            prop_assert!(
                topo.distance(x, z) <= topo.distance(x, y) + topo.distance(y, z),
                "{}: d({x},{z}) > d({x},{y}) + d({y},{z})", topo.name()
            );
            // Bounded by the advertised diameter.
            prop_assert!(topo.distance(x, y) <= topo.diameter());
        }
    }

    #[test]
    fn wiring_is_consistent(w in 2u16..8, h in 2u16..8) {
        for topo in fabrics(w, h) {
            let mut crossings = vec![0u32; topo.links()];
            for node in 0..topo.nodes() {
                for p in 0..topo.ports_per_node() as u8 {
                    let port = Port(p);
                    prop_assert!(topo.port_class(port) < topo.port_classes());
                    let Some(next) = topo.neighbor(node, port) else { continue };
                    // The reverse port leads back across the same link.
                    let back = topo.reverse_port(node, port);
                    prop_assert_eq!(topo.neighbor(next, back), Some(node), "{}", topo.name());
                    let link = topo.link_index(node, port);
                    prop_assert!(link < topo.links());
                    prop_assert_eq!(link, topo.link_index(next, back));
                    crossings[link] += 1;
                }
            }
            // Every link is crossed by exactly two directed (node, port)
            // pairs: the indices are dense and nothing is double-wired.
            prop_assert!(crossings.iter().all(|&c| c == 2), "{}: {crossings:?}", topo.name());
        }
    }

    #[test]
    fn min_ports_decrease_distance(
        w in 2u16..8, h in 2u16..8,
        a in 0usize..1000, b in 0usize..1000,
    ) {
        for topo in fabrics(w, h) {
            let n = topo.nodes();
            let (src, dst) = (a % n, b % n);
            let ports = topo.min_ports(src, dst);
            prop_assert_eq!(ports.is_empty(), src == dst);
            let d = topo.distance(src, dst);
            for port in ports {
                let next = topo.neighbor(src, port).expect("minimal ports are wired");
                prop_assert_eq!(topo.distance(next, dst), d - 1, "{}", topo.name());
            }
        }
    }

    #[test]
    fn every_fabric_completes_and_conserves(
        kind_idx in 0usize..3,
        routing_idx in 0usize..2,
        x1 in 0u16..4, y1 in 0u16..4, x2 in 0u16..4, y2 in 0u16..4,
        seed in 0u64..1000,
    ) {
        let kind = TopologyKind::ALL[kind_idx];
        let routing = RoutingPolicy::ALL[routing_idx];
        let mut cfg = NetConfig::small_test().with_topology(kind).with_routing(routing);
        cfg.seed = seed;
        let src = Coord::new(x1, y1);
        let dst = Coord::new(x2, y2);
        let fabric = cfg.fabric();
        let hops = u64::from(fabric.distance(fabric.node_index(src), fabric.node_index(dst)));
        let mut driver = OneShotDriver::new(src, dst);
        let report = NetworkSim::new(cfg.clone()).run(&mut driver);
        prop_assert_eq!(report.comms_completed, 1);
        // Conservation holds on every fabric: teleports = raw pairs × the
        // topology's own distance, and each consumed one link pair.
        prop_assert_eq!(report.teleport_ops, cfg.raw_pairs_per_comm() * hops);
        prop_assert_eq!(report.pairs_consumed, report.teleport_ops);
        prop_assert!(report.pairs_generated >= report.pairs_consumed);
    }

    /// The precomputed-route fast path is an optimization, not a
    /// behaviour: on every fabric, under duplicated (cache-hitting)
    /// workloads and varying load parameters, the cached run must emit
    /// the same hop sequence per endpoint pair and a bit-identical
    /// [`qic_net::report::NetReport`] as the dynamic virtual-call path.
    #[test]
    fn cached_dor_fast_path_matches_dynamic_routing(
        kind_idx in 0usize..3,
        pairs in proptest::collection::vec((0u16..4, 0u16..4, 0u16..4, 0u16..4), 1..8),
        outputs in 1u32..4, depth in 1u32..3, gens in 1u32..3,
        seed in 0u64..1000,
    ) {
        let kind = TopologyKind::ALL[kind_idx];
        let mut cfg = NetConfig::small_test().with_topology(kind);
        cfg.outputs_per_comm = outputs;
        cfg.purify_depth = depth;
        cfg.generators_per_edge = gens;
        cfg.seed = seed;
        // Submit every pair twice so the second submission exercises a
        // cache hit on the fast-path run.
        let mut batch: Vec<(Coord, Coord)> = pairs
            .iter()
            .map(|&(a, b, c, d)| (Coord::new(a, b), Coord::new(c, d)))
            .collect();
        batch.extend(batch.clone());

        let run = |cacheable: bool| {
            let log = Rc::new(RefCell::new(Vec::new()));
            let router = Box::new(RecordingDor { cacheable, log: Rc::clone(&log) });
            let mut driver = BatchDriver::new(batch.clone());
            let report = NetworkSim::with_router(cfg.clone(), cfg.fabric(), router)
                .run(&mut driver);
            (report, Rc::try_unwrap(log).expect("sim dropped").into_inner())
        };
        let (cached_report, cached_log) = run(true);
        let (dynamic_report, dynamic_log) = run(false);
        prop_assert_eq!(&cached_report, &dynamic_report, "reports diverge");

        // The stock constructor (real `DimensionOrder`, cache on) agrees too.
        let mut driver = BatchDriver::new(batch.clone());
        let stock_report = NetworkSim::new(cfg.clone()).run(&mut driver);
        prop_assert_eq!(&cached_report, &stock_report, "stock constructor diverges");

        // Per endpoint pair, the cached (miss-time) route equals every
        // dynamically recomputed route.
        let miss_routes: std::collections::HashMap<(usize, usize), Vec<Port>> =
            cached_log.iter().cloned().collect();
        prop_assert!(!dynamic_log.is_empty());
        for (pair, path) in &dynamic_log {
            prop_assert_eq!(
                Some(path),
                miss_routes.get(pair),
                "hop sequence diverges for {:?}", pair
            );
        }
        // The cache genuinely deduplicates: at most one miss per
        // distinct pair, and never more route calls than the dynamic run.
        prop_assert_eq!(cached_log.len(), miss_routes.len(), "duplicate cache misses");
        prop_assert!(cached_log.len() <= dynamic_log.len());
    }

    #[test]
    fn seeds_do_not_change_accounting(seed in 0u64..10_000) {
        // The seed rides along for provenance only: pair accounting is
        // the same for every seed.
        let mut cfg = NetConfig::small_test();
        cfg.seed = seed;
        let mut driver = OneShotDriver::new(Coord::new(0, 0), Coord::new(3, 1));
        let report = NetworkSim::new(cfg).run(&mut driver);
        prop_assert_eq!(report.teleport_ops, 4 * 4);
        prop_assert_eq!(report.purified_outputs, 2);
    }
}
