//! Purification placement strategies — **Section 4.7**.
//!
//! The paper evaluates three places to spend purification effort:
//!
//! * **Endpoints only** — purify just before the pairs are used to
//!   teleport data. Fewest *total* pairs (Figure 10).
//! * **Virtual wire** ("before teleport") — purify the link pairs feeding
//!   each teleporter. Fewest *teleported* pairs (Figure 11), at the cost
//!   of local pair consumption at every G node.
//! * **Between teleports** ("after each teleport") — purify the traveling
//!   pair after every hop. Exponentially wasteful (both figures), because
//!   the sacrificial partners must themselves be distributed to the same
//!   span.
//!
//! Endpoint purification to threshold is always applied on top; the
//! variants only choose where *additional* rounds happen.

use std::fmt;

/// Where purification happens along a channel, beyond the always-present
/// endpoint purification.
///
/// (Formerly `Placement`; renamed so it no longer collides with the
/// qubit-to-site `qic_core::layout::Placement`.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PurifyPlacement {
    /// Purify only at the endpoints ("DEJMPS protocol only at end").
    EndpointsOnly,
    /// Purify the virtual-wire link pairs `rounds` times before they are
    /// used for chained teleportation ("before teleport").
    VirtualWire {
        /// Purification rounds applied to every link pair.
        rounds: u32,
    },
    /// Purify the traveling pair `rounds` times after every teleport hop
    /// ("after each teleport" — the nested scheme of footnote 4).
    BetweenTeleports {
        /// Purification rounds applied after each hop.
        rounds: u32,
    },
}

impl PurifyPlacement {
    /// The five configurations plotted by Figures 10–12, in the legends'
    /// order.
    pub const FIGURE_SET: [PurifyPlacement; 5] = [
        PurifyPlacement::BetweenTeleports { rounds: 2 },
        PurifyPlacement::BetweenTeleports { rounds: 1 },
        PurifyPlacement::VirtualWire { rounds: 2 },
        PurifyPlacement::VirtualWire { rounds: 1 },
        PurifyPlacement::EndpointsOnly,
    ];

    /// Virtual-wire rounds implied by this placement.
    pub fn virtual_wire_rounds(&self) -> u32 {
        match self {
            PurifyPlacement::VirtualWire { rounds } => *rounds,
            _ => 0,
        }
    }

    /// Per-hop rounds applied to the traveling pair.
    pub fn between_rounds(&self) -> u32 {
        match self {
            PurifyPlacement::BetweenTeleports { rounds } => *rounds,
            _ => 0,
        }
    }

    /// A compact machine-readable label (`"endpoints"`,
    /// `"virtual_wire:2"`, `"between:1"`) that [`PurifyPlacement::parse`]
    /// round-trips; scenario specs serialize placements with it.
    pub fn label(&self) -> String {
        match self {
            PurifyPlacement::EndpointsOnly => "endpoints".to_string(),
            PurifyPlacement::VirtualWire { rounds } => format!("virtual_wire:{rounds}"),
            PurifyPlacement::BetweenTeleports { rounds } => format!("between:{rounds}"),
        }
    }

    /// Parses a compact [`PurifyPlacement::label`] back into a placement.
    pub fn parse(label: &str) -> Option<PurifyPlacement> {
        if label == "endpoints" {
            return Some(PurifyPlacement::EndpointsOnly);
        }
        let (kind, rounds) = label.split_once(':')?;
        let rounds: u32 = rounds.parse().ok()?;
        match kind {
            "virtual_wire" => Some(PurifyPlacement::VirtualWire { rounds }),
            "between" => Some(PurifyPlacement::BetweenTeleports { rounds }),
            _ => None,
        }
    }

    /// The label used in the paper's figure legends.
    pub fn legend(&self) -> String {
        match self {
            PurifyPlacement::EndpointsOnly => "DEJMPS protocol only at end".to_string(),
            PurifyPlacement::VirtualWire { rounds: 1 } => {
                "DEJMPS protocol once before teleport".to_string()
            }
            PurifyPlacement::VirtualWire { rounds } => {
                format!("DEJMPS protocol {}x before teleport", rounds)
            }
            PurifyPlacement::BetweenTeleports { rounds: 1 } => {
                "DEJMPS protocol once after each teleport".to_string()
            }
            PurifyPlacement::BetweenTeleports { rounds } => {
                format!("DEJMPS protocol {}x after each teleport", rounds)
            }
        }
    }
}

impl Default for PurifyPlacement {
    /// The paper's recommendation is virtual-wire + endpoint purification;
    /// one virtual-wire round is the default channel configuration.
    fn default() -> Self {
        PurifyPlacement::VirtualWire { rounds: 1 }
    }
}

impl fmt::Display for PurifyPlacement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.legend())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for p in PurifyPlacement::FIGURE_SET {
            assert_eq!(PurifyPlacement::parse(&p.label()), Some(p), "{p}");
        }
        assert_eq!(PurifyPlacement::parse("endpoints:2"), None);
        assert_eq!(PurifyPlacement::parse("virtual_wire"), None);
        assert_eq!(PurifyPlacement::parse("between:x"), None);
        assert_eq!(PurifyPlacement::parse("nested:1"), None);
    }

    #[test]
    fn figure_set_has_five_unique_entries() {
        let set = PurifyPlacement::FIGURE_SET;
        assert_eq!(set.len(), 5);
        for (i, a) in set.iter().enumerate() {
            for b in &set[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn accessors() {
        assert_eq!(PurifyPlacement::EndpointsOnly.virtual_wire_rounds(), 0);
        assert_eq!(
            PurifyPlacement::VirtualWire { rounds: 2 }.virtual_wire_rounds(),
            2
        );
        assert_eq!(
            PurifyPlacement::VirtualWire { rounds: 2 }.between_rounds(),
            0
        );
        assert_eq!(
            PurifyPlacement::BetweenTeleports { rounds: 1 }.between_rounds(),
            1
        );
    }

    #[test]
    fn legends_match_paper() {
        assert_eq!(
            PurifyPlacement::EndpointsOnly.legend(),
            "DEJMPS protocol only at end"
        );
        assert_eq!(
            PurifyPlacement::VirtualWire { rounds: 1 }.legend(),
            "DEJMPS protocol once before teleport"
        );
        assert_eq!(
            PurifyPlacement::BetweenTeleports { rounds: 2 }.legend(),
            "DEJMPS protocol 2x after each teleport"
        );
        assert_eq!(
            PurifyPlacement::default(),
            PurifyPlacement::VirtualWire { rounds: 1 }
        );
    }
}
