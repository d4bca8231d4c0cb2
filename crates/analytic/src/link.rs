//! Virtual-wire link pairs.
//!
//! Between each pair of adjacent teleporter (T') nodes sits a generator
//! (G) node "continually generating EPR pairs and sending one qubit of
//! each pair to each adjacent T' node" (Section 3.1). The two halves each
//! travel half the hop ballistically, so a raw link pair arrives degraded
//! by the full hop distance. Optionally the link is *pre-purified* at its
//! T' endpoints ("virtual wire" purification, Section 4.7), trading local
//! pair consumption for higher channel fidelity.

use qic_physics::bell::BellDiagonal;
use qic_physics::error::ErrorRates;
use qic_physics::fidelity::Fidelity;
use qic_physics::teleport;
use qic_physics::transport;

use qic_purify::protocol::{Protocol, RoundNoise};

/// Geometry and purification policy for one virtual-wire link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Distance between the two T' nodes, in ballistic cells. The
    /// generator sits at the midpoint, so each half travels `hop_cells/2`.
    pub hop_cells: u64,
    /// Virtual-wire purification rounds applied at the link endpoints
    /// before the pair is used for chained teleportation (0 = raw links).
    pub purify_rounds: u32,
    /// Protocol used for virtual-wire purification.
    pub protocol: Protocol,
}

impl LinkSpec {
    /// A raw (unpurified) link of the paper's default 600-cell hop.
    pub fn raw_default() -> Self {
        LinkSpec {
            hop_cells: qic_physics::constants::DEFAULT_HOP_CELLS,
            purify_rounds: 0,
            protocol: Protocol::Dejmps,
        }
    }

    /// Same geometry, with `rounds` of virtual-wire purification.
    pub fn with_rounds(mut self, rounds: u32) -> Self {
        self.purify_rounds = rounds;
        self
    }
}

impl Default for LinkSpec {
    fn default() -> Self {
        LinkSpec::raw_default()
    }
}

/// The state of a link pair as delivered for use by the teleporters:
/// generated (Equation 4), ballistically distributed from the midpoint,
/// then purified for `spec.purify_rounds` rounds.
pub fn link_state(spec: &LinkSpec, rates: &ErrorRates, noise: &RoundNoise) -> BellDiagonal {
    let mut state = raw_link_state(spec.hop_cells, rates);
    for _ in 0..spec.purify_rounds {
        state = spec.protocol.noisy_step(&state, noise).state;
    }
    state
}

/// The state of a *raw* link pair (no purification).
pub fn raw_link_state(hop_cells: u64, rates: &ErrorRates) -> BellDiagonal {
    let generated = teleport::generated_pair(rates, Fidelity::ONE);
    transport::distribute_from_midpoint(&generated, hop_cells / 2, rates)
}

/// Expected **raw generated pairs** consumed per delivered link pair:
/// 1 for raw links, `∏ᵢ 2/pᵢ` when the virtual wire purifies.
pub fn link_cost(spec: &LinkSpec, rates: &ErrorRates, noise: &RoundNoise) -> f64 {
    if spec.purify_rounds == 0 {
        return 1.0;
    }
    let raw = raw_link_state(spec.hop_cells, rates);
    qic_purify::analysis::trajectory(spec.protocol, raw, spec.purify_rounds, noise)
        .last()
        .map(|p| p.expected_pairs)
        .unwrap_or(f64::INFINITY)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn defaults() -> (ErrorRates, RoundNoise) {
        let rates = ErrorRates::ion_trap();
        (rates, RoundNoise::from_rates(&rates))
    }

    #[test]
    fn raw_link_error_is_movement_dominated() {
        // 600 cells at pmv = 1e-6: error ≈ 6e-4 ≫ the ~1e-7 generation
        // gate error.
        let (rates, _) = defaults();
        let s = raw_link_state(600, &rates);
        assert!(s.error() > 4e-4, "got {}", s.error());
        assert!(s.error() < 8e-4, "got {}", s.error());
    }

    #[test]
    fn hundred_cell_example_from_section_4_6() {
        // "for two teleporters spaced 100 cells apart, ballistic movement
        // error equals ≈ 1e-4".
        let (rates, _) = defaults();
        let s = raw_link_state(100, &rates);
        assert!(
            s.error() > 0.7e-4 && s.error() < 1.5e-4,
            "got {}",
            s.error()
        );
    }

    #[test]
    fn purified_links_are_cleaner_and_cost_more() {
        let (rates, noise) = defaults();
        let raw = LinkSpec::raw_default();
        let once = raw.with_rounds(1);
        let twice = raw.with_rounds(2);
        let e0 = link_state(&raw, &rates, &noise).error();
        let e1 = link_state(&once, &rates, &noise).error();
        let e2 = link_state(&twice, &rates, &noise).error();
        // One DEJMPS round on a Werner-like link trades X/Y weight for
        // concentrated phase error: a modest ~1.5x total-error gain...
        assert!(e1 < e0 / 1.3 && e1 > e0 / 3.0, "e0={e0:.2e} e1={e1:.2e}");
        // ...which the second round then crushes quadratically.
        assert!(e2 < e1 / 100.0, "e1={e1:.2e} e2={e2:.2e}");
        use qic_physics::bell::BellState;
        let s1 = link_state(&once, &rates, &noise);
        assert!(
            s1.coeff(BellState::PhiMinus) > 0.9 * s1.error(),
            "round-1 survivor error is phase-concentrated"
        );
        assert_eq!(link_cost(&raw, &rates, &noise), 1.0);
        let c1 = link_cost(&once, &rates, &noise);
        let c2 = link_cost(&twice, &rates, &noise);
        assert!(c1 > 2.0 && c1 < 2.2, "≈2/p, got {c1}");
        assert!(c2 > 4.0 && c2 < 4.6, "got {c2}");
    }

    #[test]
    fn zero_hop_link_is_generation_limited() {
        let (rates, _) = defaults();
        let s = raw_link_state(0, &rates);
        assert!(s.error() < 2e-7, "only the generation gates contribute");
    }
}
