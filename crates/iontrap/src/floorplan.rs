//! Physical floorplans: grids of channels and junctions.
//!
//! The network layer (`qic-net`) reasons in *hops*; this module grounds a
//! hop in physical cells. A [`Floorplan`] is a rectangular grid of sites
//! connected by straight channels through cross junctions; route planning
//! is dimension-ordered (X then Y), matching the routing discipline of
//! Section 3.2.

use std::fmt;

use qic_physics::error::ErrorRates;
use qic_physics::optime::OpTimes;
use qic_physics::time::Duration;
use qic_physics::transport;

use crate::junction::{Junction, JunctionKind};

/// A site coordinate on the floorplan grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Site {
    /// Column (x) index.
    pub x: u32,
    /// Row (y) index.
    pub y: u32,
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// Error raised when a site lies outside the floorplan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteOutOfRangeError {
    site: Site,
    width: u32,
    height: u32,
}

impl fmt::Display for SiteOutOfRangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "site {} outside {}x{} floorplan",
            self.site, self.width, self.height
        )
    }
}

impl std::error::Error for SiteOutOfRangeError {}

/// A planned physical route between two sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutePlan {
    /// Straight-channel cells traversed.
    pub straight_cells: u64,
    /// Junctions passed straight through.
    pub straight_junctions: u32,
    /// Junctions turned at (dimension-order routes turn at most once).
    pub turns: u32,
    /// Total cell-equivalents including junction penalties.
    pub total_cells: u64,
}

impl RoutePlan {
    /// Transit time for one ion over this route (Equation 2 applied to the
    /// total cell-equivalents).
    pub fn time(&self, times: &OpTimes) -> Duration {
        times.ballistic(self.total_cells)
    }

    /// Survival probability of the moved state (Equation 1).
    pub fn survival(&self, rates: &ErrorRates) -> f64 {
        transport::survival(self.total_cells, rates)
    }
}

/// A rectangular grid floorplan: `width × height` sites, adjacent sites
/// joined by straight channels of `cells_per_edge` trap cells through
/// cross junctions at every interior site.
#[derive(Debug, Clone, PartialEq)]
pub struct Floorplan {
    width: u32,
    height: u32,
    cells_per_edge: u32,
    junction: Junction,
}

impl Floorplan {
    /// A `width × height` grid whose edges span `cells_per_edge` cells.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn grid(width: u32, height: u32, cells_per_edge: u32) -> Self {
        assert!(width > 0 && height > 0, "floorplan must be non-empty");
        assert!(cells_per_edge > 0, "edges must span at least one cell");
        Floorplan {
            width,
            height,
            cells_per_edge,
            junction: Junction::new(JunctionKind::Cross),
        }
    }

    /// Overrides the junction model.
    pub fn with_junction(mut self, junction: Junction) -> Self {
        self.junction = junction;
        self
    }

    /// Grid width in sites.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Grid height in sites.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Channel length between adjacent sites, in cells.
    pub fn cells_per_edge(&self) -> u32 {
        self.cells_per_edge
    }

    /// Validates a site.
    ///
    /// # Errors
    ///
    /// [`SiteOutOfRangeError`] if the site lies outside the grid.
    pub fn check(&self, site: Site) -> Result<(), SiteOutOfRangeError> {
        if site.x < self.width && site.y < self.height {
            Ok(())
        } else {
            Err(SiteOutOfRangeError {
                site,
                width: self.width,
                height: self.height,
            })
        }
    }

    /// Plans the dimension-order (X then Y) route between two sites.
    ///
    /// # Errors
    ///
    /// [`SiteOutOfRangeError`] if either endpoint is invalid.
    pub fn route(&self, from: Site, to: Site) -> Result<RoutePlan, SiteOutOfRangeError> {
        self.check(from)?;
        self.check(to)?;
        let dx = u64::from(from.x.abs_diff(to.x));
        let dy = u64::from(from.y.abs_diff(to.y));
        let edges = dx + dy;
        let straight_cells = edges * u64::from(self.cells_per_edge);
        // Junctions at every intermediate site; the route turns once if it
        // moves in both dimensions.
        let junctions_on_path = edges.saturating_sub(1) as u32;
        let turns = u32::from(dx > 0 && dy > 0);
        let straight_junctions = junctions_on_path.saturating_sub(turns);
        let total_cells = straight_cells
            + u64::from(straight_junctions) * u64::from(self.junction.transit_cells(false))
            + u64::from(turns) * u64::from(self.junction.transit_cells(true));
        Ok(RoutePlan {
            straight_cells,
            straight_junctions,
            turns,
            total_cells,
        })
    }

    /// The longest route on this floorplan (corner to corner).
    pub fn diameter_cells(&self) -> u64 {
        let corner_a = Site { x: 0, y: 0 };
        let corner_b = Site {
            x: self.width - 1,
            y: self.height - 1,
        };
        self.route(corner_a, corner_b)
            .expect("corners are valid")
            .total_cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_route() {
        let fp = Floorplan::grid(8, 8, 100);
        let r = fp.route(Site { x: 0, y: 3 }, Site { x: 5, y: 3 }).unwrap();
        assert_eq!(r.straight_cells, 500);
        assert_eq!(r.turns, 0);
        assert_eq!(r.straight_junctions, 4);
        assert_eq!(r.total_cells, 504);
    }

    #[test]
    fn dimension_order_route_turns_once() {
        let fp = Floorplan::grid(8, 8, 100);
        let r = fp.route(Site { x: 0, y: 0 }, Site { x: 3, y: 2 }).unwrap();
        assert_eq!(r.turns, 1);
        assert_eq!(r.straight_cells, 500);
        // 4 intermediate junctions: 3 straight + 1 turn (penalty 3).
        assert_eq!(r.total_cells, 500 + 3 + 4);
    }

    #[test]
    fn zero_length_route() {
        let fp = Floorplan::grid(4, 4, 50);
        let r = fp.route(Site { x: 2, y: 2 }, Site { x: 2, y: 2 }).unwrap();
        assert_eq!(r.total_cells, 0);
        assert_eq!(r.time(&OpTimes::ion_trap()), Duration::ZERO);
    }

    #[test]
    fn out_of_range() {
        let fp = Floorplan::grid(4, 4, 50);
        let err = fp
            .route(Site { x: 0, y: 0 }, Site { x: 9, y: 0 })
            .unwrap_err();
        assert!(err.to_string().contains("4x4"));
    }

    #[test]
    fn section1_corner_to_corner_error() {
        // A 1000×1000-cell structure: corner-to-corner ballistic transport
        // suffers >1e-3 error (Section 1's motivating example).
        let fp = Floorplan::grid(11, 11, 100); // 10 edges × 100 cells each way
        let diameter = fp.diameter_cells();
        assert!(diameter >= 2000);
        let survival = transport::survival(diameter, &ErrorRates::ion_trap());
        assert!(1.0 - survival > 1e-3);
    }

    #[test]
    fn route_physics_helpers() {
        let fp = Floorplan::grid(8, 8, 600);
        let r = fp.route(Site { x: 0, y: 0 }, Site { x: 1, y: 0 }).unwrap();
        assert_eq!(r.time(&OpTimes::ion_trap()), Duration::from_micros(120));
        let s = r.survival(&ErrorRates::ion_trap());
        assert!((1.0 - s - 6e-4).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_dimension_rejected() {
        let _ = Floorplan::grid(0, 4, 10);
    }
}
