//! Channel junctions.
//!
//! Two-dimensional ion shuttling needs junctions where channels meet;
//! Hensinger et al. (the paper's reference \[9\]) demonstrated a T-junction
//! array for "two-dimensional ion shuttling, storage and manipulation".
//! Turning a corner is slower than straight transport: the ion must be
//! cornered through the junction's centre with extra staging pulses.

use std::fmt;

use qic_physics::optime::OpTimes;
use qic_physics::time::Duration;

/// Junction geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JunctionKind {
    /// Three-way (T) junction — the Hensinger et al. demonstration.
    Tee,
    /// Four-way (X) junction, as a full mesh crossing requires.
    Cross,
}

impl fmt::Display for JunctionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JunctionKind::Tee => f.write_str("T-junction"),
            JunctionKind::Cross => f.write_str("X-junction"),
        }
    }
}

/// A junction between channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Junction {
    kind: JunctionKind,
    /// Extra cell-equivalents of staging a cornering move costs beyond a
    /// straight pass.
    turn_penalty_cells: u32,
}

impl Junction {
    /// A junction with the default cornering penalty (3 cell-equivalents,
    /// the extra confinement/staging steps of the T-junction
    /// demonstration).
    pub fn new(kind: JunctionKind) -> Self {
        Junction {
            kind,
            turn_penalty_cells: 3,
        }
    }

    /// Overrides the cornering penalty.
    pub fn with_turn_penalty(mut self, cells: u32) -> Self {
        self.turn_penalty_cells = cells;
        self
    }

    /// The junction geometry.
    pub fn kind(&self) -> JunctionKind {
        self.kind
    }

    /// Extra cell-equivalents charged for a turn.
    pub fn turn_penalty_cells(&self) -> u32 {
        self.turn_penalty_cells
    }

    /// Degrees of freedom: how many channel arms meet here.
    pub fn arms(&self) -> u32 {
        match self.kind {
            JunctionKind::Tee => 3,
            JunctionKind::Cross => 4,
        }
    }

    /// Time for an ion to transit the junction.
    ///
    /// A straight pass costs one cell; a turn costs one cell plus the
    /// penalty.
    pub fn transit_time(&self, turning: bool, times: &OpTimes) -> Duration {
        let cells = 1 + if turning { self.turn_penalty_cells } else { 0 };
        times.ballistic(u64::from(cells))
    }

    /// Equivalent cell count for error accounting.
    pub fn transit_cells(&self, turning: bool) -> u32 {
        1 + if turning { self.turn_penalty_cells } else { 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arms() {
        assert_eq!(Junction::new(JunctionKind::Tee).arms(), 3);
        assert_eq!(Junction::new(JunctionKind::Cross).arms(), 4);
    }

    #[test]
    fn turning_costs_more() {
        let j = Junction::new(JunctionKind::Cross);
        let t = OpTimes::ion_trap();
        assert!(j.transit_time(true, &t) > j.transit_time(false, &t));
        assert_eq!(j.transit_cells(false), 1);
        assert_eq!(j.transit_cells(true), 4);
    }

    #[test]
    fn custom_penalty() {
        let j = Junction::new(JunctionKind::Tee).with_turn_penalty(10);
        assert_eq!(j.turn_penalty_cells(), 10);
        assert_eq!(j.transit_cells(true), 11);
        assert_eq!(j.kind(), JunctionKind::Tee);
    }

    #[test]
    fn display() {
        assert_eq!(JunctionKind::Tee.to_string(), "T-junction");
        assert_eq!(JunctionKind::Cross.to_string(), "X-junction");
    }
}
