//! Classical control messages — **Section 3.2, "Local Routing Control"**.
//!
//! "Each qubit is associated with a classical message which travels
//! alongside the qubit in a parallel classical network. … A qubit's
//! message contains the ID assigned by the G node, the destination of this
//! qubit, the destination of its partner, and space for the cumulative
//! correction information."

use std::fmt;

use crate::topology::Coord;

/// A cumulative Pauli-frame correction: the two classical bits per
/// teleportation, accumulated over a chain (Figure 5: "correction
/// information … can be accumulated over multiple teleportations and
/// performed in aggregate at each end").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct PauliFrame {
    /// Accumulated bit-flip (X) correction.
    pub x: bool,
    /// Accumulated phase-flip (Z) correction.
    pub z: bool,
}

impl PauliFrame {
    /// The identity frame (no correction pending).
    pub const IDENTITY: PauliFrame = PauliFrame { x: false, z: false };

    /// Accumulates the two classical bits of one teleportation.
    pub fn accumulate(self, x: bool, z: bool) -> PauliFrame {
        PauliFrame {
            x: self.x ^ x,
            z: self.z ^ z,
        }
    }

    /// Composes two frames (group operation of `Z₂ × Z₂`).
    pub fn compose(self, other: PauliFrame) -> PauliFrame {
        PauliFrame {
            x: self.x ^ other.x,
            z: self.z ^ other.z,
        }
    }

    /// Whether any correction is pending.
    pub fn is_identity(self) -> bool {
        !self.x && !self.z
    }
}

impl fmt::Display for PauliFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.x, self.z) {
            (false, false) => f.write_str("I"),
            (true, false) => f.write_str("X"),
            (false, true) => f.write_str("Z"),
            (true, true) => f.write_str("XZ"),
        }
    }
}

/// The classical packet that accompanies one EPR-pair half through the
/// network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PairMsg {
    /// ID assigned by the generating G node.
    pub pair_id: u64,
    /// Where this half is headed.
    pub destination: Coord,
    /// Where its entangled partner is headed (needed for endpoint
    /// purification pairing).
    pub partner_destination: Coord,
    /// Cumulative correction accumulated along the chain.
    pub correction: PauliFrame,
}

impl PairMsg {
    /// A fresh message at generation time.
    pub fn new(pair_id: u64, destination: Coord, partner_destination: Coord) -> Self {
        PairMsg {
            pair_id,
            destination,
            partner_destination,
            correction: PauliFrame::IDENTITY,
        }
    }

    /// Records one teleportation's classical bits into the cumulative
    /// correction.
    pub fn record_teleport(mut self, x: bool, z: bool) -> Self {
        self.correction = self.correction.accumulate(x, z);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_is_z2z2_group() {
        let a = PauliFrame { x: true, z: false };
        let b = PauliFrame { x: true, z: true };
        assert_eq!(a.compose(a), PauliFrame::IDENTITY, "involutive");
        assert_eq!(a.compose(b), PauliFrame { x: false, z: true });
        assert_eq!(a.compose(b), b.compose(a), "abelian");
        assert!(PauliFrame::IDENTITY.is_identity());
        assert!(!b.is_identity());
    }

    #[test]
    fn corrections_accumulate_and_cancel() {
        // Two X-corrections over a chain cancel: only the parity matters.
        let m = PairMsg::new(7, Coord::new(0, 0), Coord::new(3, 3))
            .record_teleport(true, false)
            .record_teleport(true, true);
        assert_eq!(m.correction, PauliFrame { x: false, z: true });
        assert_eq!(m.pair_id, 7);
    }

    #[test]
    fn display() {
        assert_eq!(PauliFrame::IDENTITY.to_string(), "I");
        assert_eq!(PauliFrame { x: true, z: true }.to_string(), "XZ");
        assert_eq!(PauliFrame { x: true, z: false }.to_string(), "X");
        assert_eq!(PauliFrame { x: false, z: true }.to_string(), "Z");
    }
}
