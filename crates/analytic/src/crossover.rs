//! Ballistic vs teleportation latency crossover — **Section 4.6**.
//!
//! Teleportation costs ~122 µs regardless of distance (plus fast classical
//! signalling), while ballistic transport costs 0.2 µs per cell; beyond
//! ~600 cells, teleportation wins. This fixes the teleporter-node spacing
//! of the mesh.

use qic_physics::optime::OpTimes;
use qic_physics::teleport;
use qic_physics::time::Duration;

/// A `(distance, ballistic, teleport)` latency sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrossoverPoint {
    /// Distance in ballistic cells.
    pub cells: u64,
    /// Latency of ballistic transport over this distance (Equation 2).
    pub ballistic: Duration,
    /// Latency of one teleportation over this distance (Equation 5).
    pub teleport: Duration,
}

impl CrossoverPoint {
    /// Whether teleportation is strictly faster at this distance.
    pub fn teleport_wins(&self) -> bool {
        self.teleport < self.ballistic
    }
}

/// Samples both latency models at each distance in `cells`.
pub fn ballistic_vs_teleport(
    cells: impl IntoIterator<Item = u64>,
    times: &OpTimes,
) -> Vec<CrossoverPoint> {
    cells
        .into_iter()
        .map(|c| CrossoverPoint {
            cells: c,
            ballistic: times.ballistic(c),
            teleport: times.teleport(c),
        })
        .collect()
}

/// The smallest distance at which teleportation beats ballistic transport,
/// if any (`≈600` cells at Table 1 constants).
pub fn crossover_cells(times: &OpTimes) -> Option<u64> {
    teleport::latency_crossover_cells(times)
}

/// Uncontended latency of a chained teleport over `hops` teleporter hops
/// of `hop_cells` cells each — the Section 4.6 teleport model extended
/// from one hop to a fabric-scale route (hops run sequentially for the
/// head pair; pipelining hides the rest of the stream).
pub fn chained_teleport_latency(hops: u32, hop_cells: u64, times: &OpTimes) -> Duration {
    times.teleport(hop_cells) * u64::from(hops)
}

/// Samples ballistic vs chained-teleport latency at a set of **hop
/// counts** — where an interconnect fabric's distance metadata (diameter,
/// average distance from `qic-net`'s `Topology`) plugs into the analytic
/// layer. Each hop spans `hop_cells` ballistic cells, so a point compares
/// sending a qubit `hops × hop_cells` cells ballistically against
/// teleporting it hop by hop.
///
/// # Examples
///
/// ```
/// use qic_analytic::crossover::fabric_crossover;
/// use qic_physics::optime::OpTimes;
///
/// // Mesh vs hypercube diameters at 64 nodes (14 vs 6 hops), with
/// // teleporters spaced 1000 cells apart (past the ≈600-cell crossover).
/// let times = OpTimes::ion_trap();
/// let pts = fabric_crossover([14, 6], 1000, &times);
/// // Past the crossover spacing, teleportation wins at every diameter…
/// assert!(pts.iter().all(|p| p.teleport_wins()));
/// // …and the shorter-diameter fabric pays proportionally less.
/// assert!(pts[1].teleport < pts[0].teleport);
/// ```
pub fn fabric_crossover(
    hop_counts: impl IntoIterator<Item = u32>,
    hop_cells: u64,
    times: &OpTimes,
) -> Vec<CrossoverPoint> {
    hop_counts
        .into_iter()
        .map(|hops| CrossoverPoint {
            cells: u64::from(hops) * hop_cells,
            ballistic: times.ballistic(u64::from(hops) * hop_cells),
            teleport: chained_teleport_latency(hops, hop_cells, times),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_is_about_600_cells() {
        let times = OpTimes::ion_trap();
        let d = crossover_cells(&times).unwrap();
        assert!((590..=620).contains(&d), "got {d}");
    }

    #[test]
    fn samples_flip_at_crossover() {
        let times = OpTimes::ion_trap();
        let d = crossover_cells(&times).unwrap();
        let pts = ballistic_vs_teleport([d - 50, d, d + 50], &times);
        assert!(!pts[0].teleport_wins());
        assert!(pts[1].teleport_wins());
        assert!(pts[2].teleport_wins());
    }

    #[test]
    fn fabric_crossover_scales_with_hops() {
        let times = OpTimes::ion_trap();
        let spacing = crossover_cells(&times).unwrap() + 100;
        let pts = fabric_crossover([1, 2, 4], spacing, &times);
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].cells, spacing);
        assert_eq!(pts[2].cells, 4 * spacing);
        // Chained teleport latency is linear in hops.
        assert_eq!(pts[1].teleport, pts[0].teleport * 2);
        assert_eq!(pts[2].teleport, pts[0].teleport * 4);
        assert_eq!(
            chained_teleport_latency(4, spacing, &times),
            times.teleport(spacing) * 4
        );
        // Past the single-hop crossover spacing, teleporting hop by hop
        // keeps beating one long ballistic shuttle.
        assert!(pts.iter().all(|p| p.teleport_wins()));
        // A zero-hop chain is free.
        assert_eq!(chained_teleport_latency(0, spacing, &times), Duration::ZERO);
    }

    #[test]
    fn ballistic_latency_is_linear() {
        let times = OpTimes::ion_trap();
        let pts = ballistic_vs_teleport([100, 200], &times);
        assert_eq!(pts[1].ballistic, pts[0].ballistic * 2);
        // Teleport latency is nearly flat over the same range.
        let dt = pts[1].teleport - pts[0].teleport;
        assert!(dt < Duration::from_micros(1));
    }
}
