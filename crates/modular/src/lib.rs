//! # qic-modular — hierarchical multi-module fabrics
//!
//! The ISCA 2006 paper models one chip: a single grid of teleporter
//! nodes. A scalable machine is built from **K** such modules joined by
//! a second interconnect tier — an optical crossbar switch between
//! trapped-ion ELUs (Monroe et al., arXiv:1208.0391) or a switched
//! fat-tree between QPU dies (Escofet et al., arXiv:2309.07313). This
//! crate composes that two-level machine out of the existing flat
//! fabrics without touching the simulator:
//!
//! * [`ModularFabric`] tiles K identical copies of any base
//!   [`Topology`] (mesh / torus / hypercube) side by side and wires
//!   each unordered module pair through one inter-module link, exposed
//!   as one extra port class. Routing, bubble flow control, fault
//!   masking and probes all operate on the composed [`Topology`]
//!   unchanged.
//! * [`Interconnect`] picks the inter-module tier technology; it scales
//!   the tier's latency, fidelity exponent and component cost.
//! * [`LinkParams`] carries the per-tier physical knobs (latency,
//!   teleporter slots, per-crossing fidelity).
//! * [`ModularSpec`] is the plain-data description the scenario layer
//!   embeds in a machine spec.
//!
//! The degenerate case is load-bearing: `ModularFabric` with one module
//! delegates every trait method to its base fabric, so a K=1 composed
//! machine reproduces the flat machine **byte for byte**.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::sync::Arc;

use qic_des::json::{check_fields, put, take, Field, Json, JsonError};
use qic_net::topology::{all_pairs_bfs, Coord, Port, Topology};

/// The inter-module tier technology.
///
/// Both variants present the same module-level wiring (a link per
/// module pair); they differ in how many switch stages one crossing
/// traverses, which scales the tier's latency, its fidelity exponent
/// and its component cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interconnect {
    /// One non-blocking optical crossbar: every crossing traverses a
    /// single switch stage (the MUSIQC-style ELU interconnect).
    OpticalSwitch,
    /// A fat tree of `radix`-port switches: a crossing climbs
    /// `ceil(log_radix K)` stages up and the same number down.
    FatTree {
        /// Ports per switch (≥ 2).
        radix: u32,
    },
}

impl Interconnect {
    /// Switch stages one inter-module crossing traverses.
    ///
    /// The optical crossbar is a single stage; a fat tree pays
    /// `2 · ceil(log_radix K)` stages (up then down). This factor
    /// multiplies both the tier latency and the per-crossing fidelity
    /// exponent.
    pub fn tier_hops(&self, modules: usize) -> u32 {
        match *self {
            Interconnect::OpticalSwitch => 1,
            Interconnect::FatTree { radix } => {
                let r = (radix.max(2)) as usize;
                let mut depth = 1u32;
                let mut reach = r;
                while reach < modules {
                    reach = reach.saturating_mul(r);
                    depth += 1;
                }
                2 * depth
            }
        }
    }

    /// Switch ports the tier needs for `modules` modules (a component
    /// count for the cost model; documented approximation for the fat
    /// tree: each of its `tier_hops / 2` stages contributes an up and a
    /// down port per module).
    pub fn switch_ports(&self, modules: usize) -> usize {
        match *self {
            Interconnect::OpticalSwitch => modules,
            Interconnect::FatTree { .. } => modules * self.tier_hops(modules) as usize,
        }
    }

    /// Stable label for reports and JSON (`optical_switch`,
    /// `fat_tree:RADIX`).
    pub fn label(&self) -> String {
        match *self {
            Interconnect::OpticalSwitch => "optical_switch".to_string(),
            Interconnect::FatTree { radix } => format!("fat_tree:{radix}"),
        }
    }

    /// Parses a [`Interconnect::label`] string.
    pub fn parse(s: &str) -> Option<Interconnect> {
        if s == "optical_switch" {
            return Some(Interconnect::OpticalSwitch);
        }
        let radix = s.strip_prefix("fat_tree:")?.parse::<u32>().ok()?;
        Some(Interconnect::FatTree { radix })
    }
}

qic_des::json::labels! {
    Interconnect: "interconnect", label;
}

/// Physical parameters of one interconnect tier's links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Extra service nanoseconds a hop over this tier pays (per switch
    /// stage; see [`Interconnect::tier_hops`]).
    pub latency_ns: u64,
    /// Teleporter slots each link endpoint contributes to its gateway
    /// node's pool.
    pub teleporter_slots: u32,
    /// Fidelity retained per crossing of one stage of this tier, in
    /// `(0, 1]`.
    pub fidelity: f64,
}

impl LinkParams {
    /// A free, perfect tier: zero latency, one slot, unit fidelity.
    /// The K=1 byte-identity guarantee assumes this inter tier.
    pub fn ideal() -> LinkParams {
        LinkParams {
            latency_ns: 0,
            teleporter_slots: 1,
            fidelity: 1.0,
        }
    }
}

impl Default for LinkParams {
    fn default() -> LinkParams {
        LinkParams::ideal()
    }
}

/// Plain-data description of a modular machine: how many modules, the
/// inter-module tier, and the cost/fidelity knobs the scenario layer
/// turns into report columns.
#[derive(Debug, Clone, PartialEq)]
pub struct ModularSpec {
    /// Number of identical on-module fabrics tiled side by side (≥ 1).
    pub modules: u32,
    /// Inter-module tier technology.
    pub interconnect: Interconnect,
    /// Inter-module link parameters (per switch stage).
    pub inter: LinkParams,
    /// Fidelity retained per on-module hop, in `(0, 1]`.
    pub intra_fidelity: f64,
    /// Dollars per inter-module link (fiber + switch share); the
    /// `InterTierCost` scenario axis sweeps this knob.
    pub inter_unit_cost: f64,
    /// Whether the scenario runner appends `cost_dollars` / `fidelity`
    /// columns to this machine's reports. Differential suites switch it
    /// off to keep K=1 reports byte-identical to flat runs.
    pub report_cost: bool,
}

impl ModularSpec {
    /// The degenerate single-module spec with an ideal inter tier and
    /// ion-trap-ish per-hop fidelity.
    pub fn single() -> ModularSpec {
        ModularSpec {
            modules: 1,
            interconnect: Interconnect::OpticalSwitch,
            inter: LinkParams::ideal(),
            intra_fidelity: 0.9995,
            inter_unit_cost: 4.0,
            report_cost: true,
        }
    }

    /// Sets the module count (builder style).
    #[must_use]
    pub fn with_modules(mut self, modules: u32) -> ModularSpec {
        self.modules = modules;
        self
    }

    /// Sets the inter-module tier technology (builder style).
    #[must_use]
    pub fn with_interconnect(mut self, interconnect: Interconnect) -> ModularSpec {
        self.interconnect = interconnect;
        self
    }

    /// Sets the inter-tier stage latency in nanoseconds (builder style).
    #[must_use]
    pub fn with_latency_ns(mut self, latency_ns: u64) -> ModularSpec {
        self.inter.latency_ns = latency_ns;
        self
    }

    /// Sets the teleporter slots per inter-link endpoint (builder style).
    #[must_use]
    pub fn with_teleporter_slots(mut self, slots: u32) -> ModularSpec {
        self.inter.teleporter_slots = slots;
        self
    }

    /// Sets the per-stage inter-tier fidelity (builder style).
    #[must_use]
    pub fn with_inter_fidelity(mut self, fidelity: f64) -> ModularSpec {
        self.inter.fidelity = fidelity;
        self
    }

    /// Sets the per-hop on-module fidelity (builder style).
    #[must_use]
    pub fn with_intra_fidelity(mut self, fidelity: f64) -> ModularSpec {
        self.intra_fidelity = fidelity;
        self
    }

    /// Sets the dollars per inter-module link (builder style).
    #[must_use]
    pub fn with_inter_unit_cost(mut self, cost: f64) -> ModularSpec {
        self.inter_unit_cost = cost;
        self
    }

    /// Switches the cost/fidelity report columns on or off (builder
    /// style).
    #[must_use]
    pub fn with_report_cost(mut self, report: bool) -> ModularSpec {
        self.report_cost = report;
        self
    }

    /// Checks the spec's internal invariants.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.modules == 0 {
            return Err("modular block needs at least one module".to_string());
        }
        if let Interconnect::FatTree { radix } = self.interconnect {
            if radix < 2 {
                return Err(format!("fat-tree radix must be at least 2, got {radix}"));
            }
        }
        for (name, f) in [
            ("inter fidelity", self.inter.fidelity),
            ("intra fidelity", self.intra_fidelity),
        ] {
            if !(f.is_finite() && f > 0.0 && f <= 1.0) {
                return Err(format!("{name} must be in (0, 1], got {f}"));
            }
        }
        if !(self.inter_unit_cost.is_finite() && self.inter_unit_cost >= 0.0) {
            return Err(format!(
                "inter_unit_cost must be finite and non-negative, got {}",
                self.inter_unit_cost
            ));
        }
        Ok(())
    }
}

/// The modular block of a scenario spec flattens `inter: LinkParams`
/// into its own object, which a one-name-per-row table cannot say, so
/// this pair is written out by hand.
impl Field for ModularSpec {
    fn encode(&self) -> Json {
        let mut out = Vec::with_capacity(8);
        put(&mut out, "modules", &self.modules);
        put(&mut out, "interconnect", &self.interconnect);
        put(&mut out, "latency_ns", &self.inter.latency_ns);
        put(&mut out, "teleporter_slots", &self.inter.teleporter_slots);
        put(&mut out, "fidelity", &self.inter.fidelity);
        put(&mut out, "intra_fidelity", &self.intra_fidelity);
        put(&mut out, "inter_unit_cost", &self.inter_unit_cost);
        put(&mut out, "report_cost", &self.report_cost);
        Json::Obj(out)
    }
    fn decode(v: &Json, _: &str) -> Result<Self, JsonError> {
        const CTX: &str = "modular";
        let f = v.obj_of(CTX)?;
        check_fields(
            f,
            &[
                "modules",
                "interconnect",
                "latency_ns",
                "teleporter_slots",
                "fidelity",
                "intra_fidelity",
                "inter_unit_cost",
                "report_cost",
            ],
            CTX,
        )?;
        Ok(ModularSpec {
            modules: take(f, "modules", CTX)?,
            interconnect: take(f, "interconnect", CTX)?,
            inter: LinkParams {
                latency_ns: take(f, "latency_ns", CTX)?,
                teleporter_slots: take(f, "teleporter_slots", CTX)?,
                fidelity: take(f, "fidelity", CTX)?,
            },
            intra_fidelity: take(f, "intra_fidelity", CTX)?,
            inter_unit_cost: take(f, "inter_unit_cost", CTX)?,
            report_cost: take(f, "report_cost", CTX)?,
        })
    }
}

/// Mean hop composition of a route, split by tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteProfile {
    /// Mean on-module hops per route (over all ordered distinct pairs).
    pub avg_intra_hops: f64,
    /// Mean inter-module link crossings per route. The module graph is
    /// complete, so a crossing pair is modelled as exactly one inter
    /// link (documented approximation: indirect min routes through a
    /// third module are counted as one crossing too).
    pub avg_inter_hops: f64,
}

/// K identical copies of a base fabric joined through an inter-module
/// tier — itself a [`Topology`].
///
/// # Composition
///
/// * **Addressing.** The composed grid is `K·w × h` (modules tiled
///   along X). Node `m·N + l` is local node `l` of module `m`
///   (`N = w·h` base nodes); [`Topology::node_index`] /
///   [`Topology::coord_of`] translate between module-major indices and
///   the tiled grid, so drivers place qubits on the composed grid
///   without knowing about modules.
/// * **Ports.** Each node keeps its base ports (same classes), then up
///   to `ceil(K / N)` uplink ports in **one extra port class** — tier
///   crossings change class, so they pay the existing turn penalty and
///   draw from their own teleporter pool, exactly like a dimension
///   change on the flat mesh.
/// * **Wiring.** One inter-module link per unordered module pair
///   `(i, j)`: its gateway in module `i` is local node `j mod N`, and in
///   module `j` local node `i mod N`, spreading gateways across each
///   module. Intra links keep their base indices per module
///   (`m·links(base) + base link`); inter links follow densely.
/// * **Routing.** Distances are exact (one all-pairs BFS over the
///   composed graph's flat adjacency at construction, which also fills
///   the diameter and mean distance); [`Topology::min_ports`]
///   returns the BFS-minimal ports in ascending order, so every
///   existing router works unchanged and stays minimal and loop-free.
/// * **Flow control.** With K > 1 the composed channel-dependency graph
///   closes cycles through the uplinks, so
///   [`Topology::dor_is_acyclic`] reports `false` and the simulator
///   arms bubble flow control (this requires ≥ 2 teleporters per node,
///   and one teleporter class more than the base fabric).
/// * **Degenerate case.** K = 1 delegates every method to the base
///   fabric — same name, ports, links and hooks — so composed reports
///   reproduce flat reports byte for byte.
///
/// Clones share the distance table, so cloning a built fabric is
/// cheap; the scenario runner builds each fabric once per campaign and
/// hands every point a clone.
#[derive(Debug, Clone)]
pub struct ModularFabric<T> {
    base: T,
    spec: ModularSpec,
    /// Module count as usize.
    k: usize,
    /// Base fabric node count.
    n: usize,
    base_ports: usize,
    base_classes: usize,
    base_links: usize,
    /// Uplink ports per node (0 when K = 1).
    uplink_ports: usize,
    /// Precomputed `latency_ns × tier_hops` for inter links.
    inter_penalty_ns: u64,
    /// All-pairs hop distances (empty when K = 1), shared by clones.
    dist: Arc<[u32]>,
    /// Max finite distance (unused when K = 1).
    diameter: u32,
    /// Mean distance over ordered distinct pairs (unused when K = 1).
    avg_distance: f64,
}

impl<T: Topology> ModularFabric<T> {
    /// Composes `spec.modules` copies of `base`.
    ///
    /// # Panics
    ///
    /// Panics when the spec fails [`ModularSpec::validate`], when the
    /// composed grid width overflows `u16`, or when a node's port count
    /// overflows the `u8` port index space. The scenario layer
    /// validates these as structured errors before construction.
    pub fn new(base: T, spec: &ModularSpec) -> ModularFabric<T> {
        spec.validate().expect("modular spec must validate");
        let k = spec.modules as usize;
        let n = base.nodes();
        let base_ports = base.ports_per_node();
        let base_classes = base.port_classes();
        let base_links = base.links();
        let uplink_ports = if k > 1 { k.div_ceil(n) } else { 0 };
        assert!(
            k == 1 || usize::from(base.width()) * k <= usize::from(u16::MAX),
            "composed grid width {}x{k} overflows the u16 addressing grid",
            base.width()
        );
        assert!(
            base_ports + uplink_ports <= usize::from(u8::MAX),
            "composed port count {} overflows the u8 port index space",
            base_ports + uplink_ports
        );
        let inter_penalty_ns = spec
            .inter
            .latency_ns
            .saturating_mul(u64::from(spec.interconnect.tier_hops(k)));
        let mut fabric = ModularFabric {
            base,
            spec: spec.clone(),
            k,
            n,
            base_ports,
            base_classes,
            base_links,
            uplink_ports,
            inter_penalty_ns,
            dist: Arc::new([]),
            diameter: 0,
            avg_distance: 0.0,
        };
        if k > 1 {
            // One BFS over the composed port graph fills the distance
            // table, the diameter and the mean distance. The module
            // graph is complete and every base is connected, so every
            // pair is reachable and the mean is the trait default's.
            let nodes = k * n;
            let all = all_pairs_bfs(
                nodes,
                fabric.ports_per_node(),
                |node, port| fabric.neighbor_raw(node, port),
                |_| true,
            );
            fabric.dist = all.dist.into();
            fabric.diameter = all.diameter;
            fabric.avg_distance = all.total_distance as f64 / (nodes * (nodes - 1)) as f64;
        }
        fabric
    }

    /// Neighbor lookup that works before the distance table exists.
    fn neighbor_raw(&self, node: usize, port: Port) -> Option<usize> {
        let (m, l) = (node / self.n, node % self.n);
        if usize::from(port.0) < self.base_ports {
            return self.base.neighbor(l, port).map(|nb| m * self.n + nb);
        }
        let slot = usize::from(port.0) - self.base_ports;
        let j = self.uplink_module(m, l, slot)?;
        Some(j * self.n + (m % self.n))
    }

    /// The `slot`-th uplink target module of local node `l` in module
    /// `m`: ascending modules `j ≠ m` with `j mod N == l`.
    fn uplink_module(&self, m: usize, l: usize, slot: usize) -> Option<usize> {
        let mut seen = 0;
        let mut j = l;
        while j < self.k {
            if j != m {
                if seen == slot {
                    return Some(j);
                }
                seen += 1;
            }
            j += self.n;
        }
        None
    }

    /// Number of wired uplink ports at a composed node.
    fn uplinks_at(&self, node: usize) -> usize {
        let (m, l) = (node / self.n, node % self.n);
        let mut count = 0;
        let mut j = l;
        while j < self.k {
            if j != m {
                count += 1;
            }
            j += self.n;
        }
        count
    }

    /// Dense rank of the unordered module pair `(i, j)`, `i < j`.
    fn pair_rank(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.k);
        i * self.k - i * (i + 1) / 2 + (j - i - 1)
    }

    /// The base fabric.
    pub fn base(&self) -> &T {
        &self.base
    }

    /// The composing spec.
    pub fn spec(&self) -> &ModularSpec {
        &self.spec
    }

    /// On-module links across all modules.
    pub fn intra_links(&self) -> usize {
        self.k * self.base_links
    }

    /// Inter-module links (one per unordered module pair).
    pub fn inter_links(&self) -> usize {
        self.k * (self.k - 1) / 2
    }

    /// Switch ports the inter tier needs (see
    /// [`Interconnect::switch_ports`]).
    pub fn switch_ports(&self) -> usize {
        if self.k > 1 {
            self.spec.interconnect.switch_ports(self.k)
        } else {
            0
        }
    }

    /// Total teleporter slots the inter tier adds across all gateway
    /// nodes (two endpoints per inter link).
    pub fn uplink_slots(&self) -> u64 {
        2 * self.inter_links() as u64 * u64::from(self.spec.inter.teleporter_slots)
    }

    /// Switch stages per inter-module crossing.
    pub fn tier_hops(&self) -> u32 {
        self.spec.interconnect.tier_hops(self.k)
    }

    /// Mean route composition by tier over all ordered distinct pairs.
    ///
    /// Cross-module pairs are modelled as exactly one inter-link
    /// crossing (the module graph is complete); the intra share is the
    /// exact mean distance minus that crossing.
    pub fn route_profile(&self) -> RouteProfile {
        let nodes = self.k * self.n;
        if self.k == 1 || nodes < 2 {
            return RouteProfile {
                avg_intra_hops: self.base.avg_distance(),
                avg_inter_hops: 0.0,
            };
        }
        let pairs = (nodes * (nodes - 1)) as f64;
        let cross = (nodes * (self.k - 1) * self.n) as f64;
        let avg_inter = cross / pairs;
        RouteProfile {
            avg_intra_hops: (self.avg_distance() - avg_inter).max(0.0),
            avg_inter_hops: avg_inter,
        }
    }

    /// End-to-end fidelity estimate for the mean route:
    /// `intra^avg_intra × inter^(avg_inter × tier_hops)`.
    pub fn fidelity_estimate(&self) -> f64 {
        let profile = self.route_profile();
        self.spec.intra_fidelity.powf(profile.avg_intra_hops)
            * self
                .spec
                .inter
                .fidelity
                .powf(profile.avg_inter_hops * f64::from(self.tier_hops()))
    }
}

impl<T: Topology> Topology for ModularFabric<T> {
    fn name(&self) -> &'static str {
        if self.k == 1 {
            self.base.name()
        } else {
            "modular"
        }
    }

    fn width(&self) -> u16 {
        if self.k == 1 {
            self.base.width()
        } else {
            self.base.width() * self.k as u16
        }
    }

    fn height(&self) -> u16 {
        self.base.height()
    }

    fn ports_per_node(&self) -> usize {
        self.base_ports + self.uplink_ports
    }

    fn port_classes(&self) -> usize {
        if self.k == 1 {
            self.base_classes
        } else {
            self.base_classes + 1
        }
    }

    fn port_class(&self, port: Port) -> usize {
        if usize::from(port.0) < self.base_ports {
            self.base.port_class(port)
        } else {
            self.base_classes
        }
    }

    fn neighbor(&self, node: usize, port: Port) -> Option<usize> {
        self.neighbor_raw(node, port)
    }

    fn reverse_port(&self, node: usize, port: Port) -> Port {
        let (m, l) = (node / self.n, node % self.n);
        if usize::from(port.0) < self.base_ports {
            return self.base.reverse_port(l, port);
        }
        let slot = usize::from(port.0) - self.base_ports;
        let j = self
            .uplink_module(m, l, slot)
            .expect("reverse_port of a wired uplink");
        // On the neighbor (module j, local m mod N), find which uplink
        // slot leads back to module m.
        let l2 = m % self.n;
        let mut back = 0;
        let mut jj = l2;
        while jj < self.k {
            if jj != j {
                if jj == m {
                    break;
                }
                back += 1;
            }
            jj += self.n;
        }
        Port((self.base_ports + back) as u8)
    }

    fn links(&self) -> usize {
        self.intra_links() + self.inter_links()
    }

    fn link_index(&self, node: usize, port: Port) -> usize {
        let (m, l) = (node / self.n, node % self.n);
        if usize::from(port.0) < self.base_ports {
            return m * self.base_links + self.base.link_index(l, port);
        }
        let slot = usize::from(port.0) - self.base_ports;
        let j = self
            .uplink_module(m, l, slot)
            .expect("link_index of a wired uplink");
        let (a, b) = (m.min(j), m.max(j));
        self.intra_links() + self.pair_rank(a, b)
    }

    fn distance(&self, a: usize, b: usize) -> u32 {
        if self.k == 1 {
            self.base.distance(a, b)
        } else {
            self.dist[a * self.k * self.n + b]
        }
    }

    fn min_ports(&self, node: usize, dst: usize) -> Vec<Port> {
        if self.k == 1 {
            return self.base.min_ports(node, dst);
        }
        let here = self.distance(node, dst);
        let mut ports = Vec::new();
        for p in 0..self.ports_per_node() {
            let port = Port(p as u8);
            if let Some(nb) = self.neighbor_raw(node, port) {
                if self.distance(nb, dst) + 1 == here {
                    ports.push(port);
                }
            }
        }
        ports
    }

    fn min_port(&self, node: usize, dst: usize) -> Option<Port> {
        if self.k == 1 {
            return self.base.min_port(node, dst);
        }
        let here = self.distance(node, dst);
        for p in 0..self.ports_per_node() {
            let port = Port(p as u8);
            if let Some(nb) = self.neighbor_raw(node, port) {
                if self.distance(nb, dst) + 1 == here {
                    return Some(port);
                }
            }
        }
        None
    }

    fn diameter(&self) -> u32 {
        if self.k == 1 {
            self.base.diameter()
        } else {
            self.diameter
        }
    }

    fn avg_distance(&self) -> f64 {
        if self.k == 1 {
            self.base.avg_distance()
        } else {
            self.avg_distance
        }
    }

    fn bisection_width(&self) -> usize {
        if self.k == 1 {
            return self.base.bisection_width();
        }
        // Best of the two balanced cut families: severing the complete
        // module graph between two halves of the modules, or bisecting
        // every module in place along its own best cut (documented
        // approximation: inter links crossing the in-place cut are not
        // charged).
        let half = self.k / 2;
        let module_cut = half * (self.k - half);
        module_cut.min(self.k * self.base.bisection_width())
    }

    fn dor_is_acyclic(&self) -> bool {
        if self.k == 1 {
            self.base.dor_is_acyclic()
        } else {
            // The uplinks close rings through the module graph, so the
            // simulator must arm bubble flow control.
            false
        }
    }

    fn node_index(&self, c: Coord) -> usize {
        if self.k == 1 {
            return self.base.node_index(c);
        }
        let bw = self.base.width();
        let m = usize::from(c.x / bw);
        let local = Coord::new(c.x % bw, c.y);
        m * self.n + self.base.node_index(local)
    }

    fn coord_of(&self, node: usize) -> Coord {
        if self.k == 1 {
            return self.base.coord_of(node);
        }
        let (m, l) = (node / self.n, node % self.n);
        let local = self.base.coord_of(l);
        Coord::new(m as u16 * self.base.width() + local.x, local.y)
    }

    fn fault_aware(&self) -> bool {
        self.base.fault_aware()
    }

    fn is_reachable(&self, a: usize, b: usize) -> bool {
        if self.k == 1 {
            self.base.is_reachable(a, b)
        } else {
            true
        }
    }

    fn healthy_distance(&self, a: usize, b: usize) -> u32 {
        self.distance(a, b)
    }

    fn teleporter_capacity(&self, node: usize, base: u32) -> u32 {
        if self.k == 1 {
            return self.base.teleporter_capacity(node, base);
        }
        let local = self.base.teleporter_capacity(node % self.n, base);
        let bonus = self.uplinks_at(node) as u32 * self.spec.inter.teleporter_slots;
        local.saturating_add(bonus)
    }

    fn hop_penalty_ns(&self, link: usize, now_ns: u64) -> u64 {
        if self.k == 1 {
            return self.base.hop_penalty_ns(link, now_ns);
        }
        if link >= self.intra_links() {
            self.inter_penalty_ns
        } else {
            self.base.hop_penalty_ns(link % self.base_links, now_ns)
        }
    }

    fn link_penalties(&self) -> bool {
        (self.k > 1 && self.inter_penalty_ns > 0) || self.base.link_penalties()
    }

    fn modules(&self) -> usize {
        self.k
    }

    fn module_of(&self, node: usize) -> usize {
        if self.k == 1 {
            0
        } else {
            node / self.n
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qic_net::topology::{Fabric, Mesh, Torus};

    fn two_by_two(k: u32) -> ModularFabric<Fabric> {
        ModularFabric::new(
            Fabric::Mesh(Mesh::new(2, 2)),
            &ModularSpec::single().with_modules(k),
        )
    }

    #[test]
    fn degenerate_delegates_everything() {
        let base = Fabric::Mesh(Mesh::new(4, 4));
        let m = ModularFabric::new(base, &ModularSpec::single());
        assert_eq!(m.name(), base.name());
        assert_eq!(m.ports_per_node(), base.ports_per_node());
        assert_eq!(m.port_classes(), base.port_classes());
        assert_eq!(m.links(), base.links());
        assert_eq!(m.diameter(), base.diameter());
        assert_eq!(m.bisection_width(), base.bisection_width());
        assert_eq!(m.dor_is_acyclic(), base.dor_is_acyclic());
        assert!(!m.link_penalties());
        for a in 0..m.nodes() {
            for b in 0..m.nodes() {
                assert_eq!(m.distance(a, b), base.distance(a, b));
                assert_eq!(m.min_ports(a, b), base.min_ports(a, b));
            }
        }
    }

    #[test]
    fn composed_wiring_is_consistent() {
        for k in [2u32, 3, 5] {
            let m = two_by_two(k);
            for node in 0..m.nodes() {
                for p in 0..m.ports_per_node() {
                    let port = Port(p as u8);
                    if let Some(nb) = m.neighbor(node, port) {
                        let back = m.reverse_port(node, port);
                        assert_eq!(m.neighbor(nb, back), Some(node), "k={k} n={node} p={p}");
                        assert_eq!(
                            m.link_index(node, port),
                            m.link_index(nb, back),
                            "link indices agree at both endpoints"
                        );
                        assert!(m.link_index(node, port) < m.links());
                    }
                }
            }
        }
    }

    #[test]
    fn uplinks_pay_the_tier_penalty() {
        let spec = ModularSpec::single().with_modules(4).with_latency_ns(250);
        let m = ModularFabric::new(Fabric::Torus(Torus::new(2, 2)), &spec);
        assert!(m.link_penalties());
        assert_eq!(m.hop_penalty_ns(0, 0), 0, "intra links stay free");
        assert_eq!(m.hop_penalty_ns(m.intra_links(), 0), 250);
        let fat = ModularSpec::single()
            .with_modules(4)
            .with_latency_ns(250)
            .with_interconnect(Interconnect::FatTree { radix: 2 });
        let m = ModularFabric::new(Fabric::Torus(Torus::new(2, 2)), &fat);
        assert_eq!(m.tier_hops(), 4, "4 modules at radix 2: 2 up + 2 down");
        assert_eq!(m.hop_penalty_ns(m.intra_links(), 0), 1000);
    }

    #[test]
    fn gateway_pools_grow_by_slot_count() {
        let spec = ModularSpec::single()
            .with_modules(2)
            .with_teleporter_slots(3);
        let m = ModularFabric::new(Fabric::Mesh(Mesh::new(2, 2)), &spec);
        // Module 0's gateway is local 1, module 1's is local 0.
        assert_eq!(m.teleporter_capacity(1, 6), 9);
        assert_eq!(m.teleporter_capacity(4, 6), 9);
        assert_eq!(
            m.teleporter_capacity(0, 6),
            6,
            "non-gateway keeps the budget"
        );
        assert_eq!(m.uplink_slots(), 6, "2 endpoints × 3 slots");
    }

    #[test]
    fn labels_round_trip() {
        for i in [
            Interconnect::OpticalSwitch,
            Interconnect::FatTree { radix: 2 },
            Interconnect::FatTree { radix: 16 },
        ] {
            assert_eq!(Interconnect::parse(&i.label()), Some(i));
        }
        assert_eq!(Interconnect::parse("fat_tree:x"), None);
        assert_eq!(Interconnect::parse("crossbar"), None);
    }
}
