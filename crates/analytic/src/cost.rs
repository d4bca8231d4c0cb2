//! Component-count cost models for flat and modular machines.
//!
//! The ISCA 2006 paper sizes one chip; a modular machine trades money
//! and area against fidelity and latency: more modules mean smaller
//! (cheaper, higher-yield) chips but more crossings of a slower, lossier
//! inter-module tier. This module prices a machine from its component
//! counts × per-tier unit costs and predicts the headline network
//! figures of merit, so scenario sweeps can chart cost-fidelity Pareto
//! fronts next to the simulator's measured latency.
//!
//! The model is deliberately linear: every unit cost is a knob, and the
//! estimate is a dot product. Calibrate the knobs, not the shape.
//!
//! # Example
//!
//! ```
//! use qic_analytic::cost::{ComponentCounts, CostModel, NetworkShape};
//!
//! // A 2-module machine of 4×4 meshes joined by one optical link.
//! let counts = ComponentCounts {
//!     nodes: 32,
//!     intra_links: 48,
//!     inter_links: 1,
//!     switch_ports: 2,
//!     teleporters: 130,
//!     generators: 196,
//!     purifiers: 64,
//! };
//! let shape = NetworkShape {
//!     avg_distance: 3.6,
//!     diameter: 9,
//!     bisection_width: 1,
//!     hop_ns: 21_000,
//!     inter_penalty_ns: 500,
//! };
//! let est = CostModel::ion_trap().estimate(&counts, &shape);
//! assert!(est.dollars > 0.0);
//! assert!(est.predicted_latency_ns > shape.avg_distance * shape.hop_ns as f64);
//! ```

/// Hardware component counts of one machine (both tiers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentCounts {
    /// Teleporter (T′) nodes across all modules.
    pub nodes: u64,
    /// On-module links (G-node virtual wires).
    pub intra_links: u64,
    /// Inter-module links.
    pub inter_links: u64,
    /// Switch ports the inter-module tier needs.
    pub switch_ports: u64,
    /// Teleporter slots (per-node pools plus gateway bonuses).
    pub teleporters: u64,
    /// EPR generators (per-link banks).
    pub generators: u64,
    /// Purifier sites.
    pub purifiers: u64,
}

/// Static network figures of merit feeding the latency/throughput
/// predictions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkShape {
    /// Mean hop distance over ordered distinct pairs.
    pub avg_distance: f64,
    /// Maximum hop distance.
    pub diameter: u32,
    /// Links cut by the best balanced bisection.
    pub bisection_width: usize,
    /// Service nanoseconds per hop (one teleport).
    pub hop_ns: u64,
    /// Extra nanoseconds an inter-module crossing pays (already scaled
    /// by the tier's switch stages); zero for flat machines.
    pub inter_penalty_ns: u64,
}

/// Per-unit dollar and area knobs. Dollars are arbitrary units (the
/// Pareto front only needs consistent relative prices); area is in
/// trap-cell equivalents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Dollars per teleporter (T′) node.
    pub node_cost: f64,
    /// Dollars per on-module link (G node + channel).
    pub intra_link_cost: f64,
    /// Dollars per inter-module link (fiber + collection optics).
    pub inter_link_cost: f64,
    /// Dollars per switch port of the inter-module tier.
    pub switch_port_cost: f64,
    /// Dollars per teleporter slot.
    pub teleporter_cost: f64,
    /// Dollars per EPR generator.
    pub generator_cost: f64,
    /// Dollars per purifier site.
    pub purifier_cost: f64,
    /// Trap-cell-equivalent area per node.
    pub node_area: f64,
    /// Trap-cell-equivalent area per on-module link.
    pub intra_link_area: f64,
}

impl CostModel {
    /// Ion-trap-flavoured defaults: nodes dominate, the optical tier is
    /// priced per port, and area is on-chip only (the inter tier is
    /// off-chip fiber).
    pub fn ion_trap() -> CostModel {
        CostModel {
            node_cost: 10.0,
            intra_link_cost: 2.0,
            inter_link_cost: 4.0,
            switch_port_cost: 6.0,
            teleporter_cost: 1.0,
            generator_cost: 0.5,
            purifier_cost: 1.5,
            node_area: 9.0,
            intra_link_area: 600.0,
        }
    }

    /// Sets the dollars per inter-module link (builder style; the
    /// `InterTierCost` scenario axis lands here).
    #[must_use]
    pub fn with_inter_link_cost(mut self, cost: f64) -> CostModel {
        self.inter_link_cost = cost;
        self
    }

    /// Prices the machine and predicts its headline network figures.
    pub fn estimate(&self, counts: &ComponentCounts, shape: &NetworkShape) -> CostEstimate {
        let dollars = self.node_cost * counts.nodes as f64
            + self.intra_link_cost * counts.intra_links as f64
            + self.inter_link_cost * counts.inter_links as f64
            + self.switch_port_cost * counts.switch_ports as f64
            + self.teleporter_cost * counts.teleporters as f64
            + self.generator_cost * counts.generators as f64
            + self.purifier_cost * counts.purifiers as f64;
        let area_cells =
            self.node_area * counts.nodes as f64 + self.intra_link_area * counts.intra_links as f64;
        // Mean unloaded route latency: every hop pays the teleport
        // service time, and cross-module routes additionally pay the
        // tier penalty. With `inter_links = P` links over `L` total, the
        // mean route crosses the tier `avg_distance · P / L` times — the
        // link-frequency estimate consistent with uniform traffic.
        let total_links = (counts.intra_links + counts.inter_links) as f64;
        let inter_crossings = if total_links > 0.0 {
            shape.avg_distance * counts.inter_links as f64 / total_links
        } else {
            0.0
        };
        let predicted_latency_ns = shape.avg_distance * shape.hop_ns as f64
            + inter_crossings * shape.inter_penalty_ns as f64;
        // Uniform-traffic throughput bound: half the traffic crosses the
        // bisection, each cut link moves one pair per hop time.
        let predicted_throughput = if shape.hop_ns > 0 {
            2.0 * shape.bisection_width as f64 / (shape.hop_ns as f64 * 1e-9)
        } else {
            0.0
        };
        CostEstimate {
            dollars,
            area_cells,
            predicted_latency_ns,
            predicted_throughput,
        }
    }
}

/// What a machine costs and what the shape model predicts it delivers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Total price in (arbitrary, consistent) dollars.
    pub dollars: f64,
    /// On-chip area in trap-cell equivalents.
    pub area_cells: f64,
    /// Mean unloaded route latency in nanoseconds.
    pub predicted_latency_ns: f64,
    /// Uniform-traffic cross-bisection throughput bound, pairs/s.
    pub predicted_throughput: f64,
}

/// Strips the points that are Pareto-dominated on (cost ↓, fidelity ↑):
/// returns the indices of the front, sorted by ascending cost. A point
/// survives iff no other point is at most as expensive *and* strictly
/// higher fidelity (ties keep the cheapest).
pub fn pareto_front(points: &[(f64, f64)]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by(|&a, &b| {
        points[a]
            .0
            .partial_cmp(&points[b].0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(
                points[b]
                    .1
                    .partial_cmp(&points[a].1)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
    });
    let mut front = Vec::new();
    let mut best_fidelity = f64::NEG_INFINITY;
    for &i in &order {
        if points[i].1 > best_fidelity {
            best_fidelity = points[i].1;
            front.push(i);
        }
    }
    front
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_counts() -> ComponentCounts {
        ComponentCounts {
            nodes: 16,
            intra_links: 24,
            inter_links: 0,
            switch_ports: 0,
            teleporters: 64,
            generators: 96,
            purifiers: 32,
        }
    }

    #[test]
    fn estimate_is_linear_in_unit_costs() {
        let counts = flat_counts();
        let shape = NetworkShape {
            avg_distance: 2.5,
            diameter: 6,
            bisection_width: 4,
            hop_ns: 21_000,
            inter_penalty_ns: 0,
        };
        let base = CostModel::ion_trap().estimate(&counts, &shape);
        let pricier = CostModel::ion_trap()
            .with_inter_link_cost(100.0)
            .estimate(&counts, &shape);
        assert_eq!(
            base.dollars, pricier.dollars,
            "no inter links ⇒ the inter knob is free"
        );
        assert_eq!(base.predicted_latency_ns, 2.5 * 21_000.0);
        assert!(base.predicted_throughput > 0.0);
    }

    #[test]
    fn inter_tier_shows_up_in_price_and_latency() {
        let mut counts = flat_counts();
        counts.inter_links = 6;
        counts.switch_ports = 4;
        let shape = NetworkShape {
            avg_distance: 4.0,
            diameter: 11,
            bisection_width: 4,
            hop_ns: 21_000,
            inter_penalty_ns: 800,
        };
        let flat = CostModel::ion_trap().estimate(&flat_counts(), &shape);
        let modular = CostModel::ion_trap().estimate(&counts, &shape);
        assert!(modular.dollars > flat.dollars);
        assert!(modular.predicted_latency_ns > flat.predicted_latency_ns);
        let pricier = CostModel::ion_trap()
            .with_inter_link_cost(40.0)
            .estimate(&counts, &shape);
        assert_eq!(pricier.dollars - modular.dollars, 36.0 * 6.0);
    }

    #[test]
    fn pareto_front_keeps_only_undominated_points() {
        // (cost, fidelity)
        let pts = [
            (10.0, 0.90), // front: cheapest
            (12.0, 0.95), // front: pays for fidelity
            (11.0, 0.85), // dominated by (10, 0.90)
            (20.0, 0.95), // dominated by (12, 0.95) — same fidelity, dearer
            (30.0, 0.99), // front: top fidelity
        ];
        assert_eq!(pareto_front(&pts), vec![0, 1, 4]);
        assert_eq!(pareto_front(&[]), Vec::<usize>::new());
    }
}
