//! Round-by-round purification analysis — the machinery behind **Figure 8**
//! and the resource counts of Section 4.7.
//!
//! Tree purification performs `r` *rounds*: round `i` pairs up all
//! surviving level-`i−1` pairs and keeps roughly half (times the success
//! probability). The expected number of raw pairs consumed per output pair
//! is therefore `∏ᵢ 2/pᵢ` — "exponential in the number of rounds"
//! (Section 4.5).

use qic_physics::bell::BellDiagonal;

use crate::protocol::{Protocol, RoundNoise};

/// One point of a purification trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundPoint {
    /// Rounds performed so far (0 = the raw input).
    pub round: u32,
    /// State after `round` rounds, conditioned on all successes.
    pub state: BellDiagonal,
    /// Success probability of the round that *produced* this state
    /// (1.0 for round 0).
    pub success_prob: f64,
    /// Expected raw pairs consumed per pair at this level: `∏ 2/pᵢ`.
    pub expected_pairs: f64,
}

/// Runs `rounds` noisy purification rounds starting from `initial`,
/// recording every intermediate state.
///
/// The returned vector has `rounds + 1` entries; entry 0 is the input.
pub fn trajectory(
    protocol: Protocol,
    initial: BellDiagonal,
    rounds: u32,
    noise: &RoundNoise,
) -> Vec<RoundPoint> {
    let mut out = Vec::with_capacity(rounds as usize + 1);
    let mut state = initial;
    let mut expected_pairs = 1.0;
    out.push(RoundPoint {
        round: 0,
        state,
        success_prob: 1.0,
        expected_pairs,
    });
    for round in 1..=rounds {
        let step = protocol.noisy_step(&state, noise);
        state = step.state;
        expected_pairs *= 2.0 / step.success_prob.max(f64::EPSILON);
        out.push(RoundPoint {
            round,
            state,
            success_prob: step.success_prob,
            expected_pairs,
        });
    }
    out
}

/// The minimum number of rounds for `initial` to reach `target_error`, or
/// `None` if the protocol's noise floor makes the target unreachable within
/// `max_rounds`.
pub fn rounds_to_reach(
    protocol: Protocol,
    initial: BellDiagonal,
    target_error: f64,
    noise: &RoundNoise,
    max_rounds: u32,
) -> Option<u32> {
    let mut state = initial;
    if state.error() <= target_error {
        return Some(0);
    }
    let mut best = state.error();
    for round in 1..=max_rounds {
        state = protocol.noisy_step(&state, noise).state;
        let err = state.error();
        if err <= target_error {
            return Some(round);
        }
        // Monotone-progress guard: once the trajectory stops improving it
        // has hit its floor and will never reach the target.
        if err >= best {
            return None;
        }
        best = err;
    }
    None
}

/// The protocol's fixed point (maximum achievable state) from `initial`
/// under the given noise: rounds are iterated until fidelity stops
/// improving.
pub fn max_achievable(
    protocol: Protocol,
    initial: BellDiagonal,
    noise: &RoundNoise,
) -> BellDiagonal {
    let mut state = initial;
    let mut best = state;
    for _ in 0..500 {
        state = protocol.noisy_step(&state, noise).state;
        if state.fidelity().value() <= best.fidelity().value() + 1e-15 {
            return best;
        }
        best = state;
    }
    best
}

/// Expected raw input pairs consumed to produce one output pair after
/// `rounds` rounds of tree purification from `initial` (the `∏ 2/pᵢ`
/// count). Returns the pair count and the final state.
pub fn pairs_for_rounds(
    protocol: Protocol,
    initial: BellDiagonal,
    rounds: u32,
    noise: &RoundNoise,
) -> (f64, BellDiagonal) {
    let traj = trajectory(protocol, initial, rounds, noise);
    let last = traj.last().expect("trajectory is never empty");
    (last.expected_pairs, last.state)
}

/// One series of Figure 8: error (1 − fidelity) of the surviving pair as a
/// function of rounds performed, for a given protocol and initial fidelity.
pub fn figure8_series(
    protocol: Protocol,
    initial_fidelity: f64,
    rounds: u32,
    noise: &RoundNoise,
) -> Vec<(u32, f64)> {
    let initial = BellDiagonal::werner_f64(initial_fidelity.clamp(0.0, 1.0))
        .expect("clamped fidelity is valid");
    trajectory(protocol, initial, rounds, noise)
        .into_iter()
        .map(|p| (p.round, p.state.error()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trajectory_shape() {
        let noise = RoundNoise::noiseless();
        let t = trajectory(
            Protocol::Dejmps,
            BellDiagonal::werner_f64(0.95).unwrap(),
            5,
            &noise,
        );
        assert_eq!(t.len(), 6);
        assert_eq!(t[0].round, 0);
        assert_eq!(t[0].expected_pairs, 1.0);
        // Fidelity improves monotonically without noise (above F=1/2).
        for w in t.windows(2) {
            assert!(w[1].state.fidelity() >= w[0].state.fidelity());
            assert!(w[1].expected_pairs > w[0].expected_pairs * 2.0 - 1e-9);
        }
    }

    #[test]
    fn rounds_to_reach_matches_trajectory() {
        let noise = RoundNoise::ion_trap();
        let init = BellDiagonal::werner_f64(0.99).unwrap();
        let r = rounds_to_reach(Protocol::Dejmps, init, 7.5e-5, &noise, 20).unwrap();
        let t = trajectory(Protocol::Dejmps, init, r, &noise);
        assert!(t.last().unwrap().state.error() <= 7.5e-5);
        if r > 0 {
            assert!(t[r as usize - 1].state.error() > 7.5e-5);
        }
    }

    #[test]
    fn paper_simulation_uses_three_rounds() {
        // §5.3: distances under consideration need a purification tree of
        // depth three. Check: worst-case 16×16 route (~30 hops × ~3e-4
        // per-hop link error) reaches threshold in ≤ 3 DEJMPS rounds.
        let noise = RoundNoise::ion_trap();
        let worst = BellDiagonal::werner_f64(1.0 - 30.0 * 3.0e-4).unwrap();
        let r = rounds_to_reach(Protocol::Dejmps, worst, 7.5e-5, &noise, 10).unwrap();
        assert!(r <= 3, "expected ≤3 rounds, got {r}");
        assert!(r >= 2, "a degraded channel needs ≥2 rounds, got {r}");
    }

    #[test]
    fn unreachable_target_returns_none() {
        let noise = RoundNoise::ion_trap();
        let init = BellDiagonal::werner_f64(0.99).unwrap();
        // Below the hardware floor: unreachable.
        assert_eq!(
            rounds_to_reach(Protocol::Dejmps, init, 1e-12, &noise, 200),
            None
        );
        // Unentangled input: unreachable.
        let bad = BellDiagonal::werner_f64(0.4).unwrap();
        assert_eq!(
            rounds_to_reach(Protocol::Dejmps, bad, 7.5e-5, &noise, 200),
            None
        );
    }

    #[test]
    fn already_good_needs_zero_rounds() {
        let noise = RoundNoise::ion_trap();
        let init = BellDiagonal::werner_f64(0.99999).unwrap();
        assert_eq!(
            rounds_to_reach(Protocol::Dejmps, init, 7.5e-5, &noise, 20),
            Some(0)
        );
    }

    #[test]
    fn max_achievable_beats_threshold_at_table2_rates() {
        let noise = RoundNoise::ion_trap();
        let init = BellDiagonal::werner_f64(0.99).unwrap();
        for protocol in Protocol::ALL {
            let best = max_achievable(protocol, init, &noise);
            assert!(
                best.error() < 7.5e-5,
                "{protocol} floor {} must beat the threshold",
                best.error()
            );
        }
    }

    #[test]
    fn max_achievable_fails_at_high_error_rates() {
        // Figure 12: near uniform op error 1e-5 the distribution network
        // breaks down — purification can no longer reach the threshold.
        let rates = qic_physics::error::ErrorRates::uniform(3e-5).unwrap();
        let noise = RoundNoise::from_rates(&rates);
        let init = BellDiagonal::werner_f64(0.99).unwrap();
        let best = max_achievable(Protocol::Dejmps, init, &noise);
        assert!(
            best.error() > 7.5e-5,
            "floor {} should exceed threshold",
            best.error()
        );
    }

    #[test]
    fn pairs_grow_exponentially_with_rounds() {
        let noise = RoundNoise::noiseless();
        let init = BellDiagonal::werner_f64(0.99).unwrap();
        let (p3, _) = pairs_for_rounds(Protocol::Dejmps, init, 3, &noise);
        let (p6, _) = pairs_for_rounds(Protocol::Dejmps, init, 6, &noise);
        // Slightly more than 2^r because success probability < 1.
        assert!(p3 >= 8.0);
        assert!(p3 < 10.0);
        assert!(p6 >= 64.0);
        assert!(p6 / p3 > 7.9, "each extra round at least doubles cost");
    }

    #[test]
    fn figure8_series_shape() {
        let noise = RoundNoise::ion_trap();
        for f0 in [0.99, 0.999, 0.9999] {
            let dej = figure8_series(Protocol::Dejmps, f0, 25, &noise);
            let bbp = figure8_series(Protocol::Bbpssw, f0, 25, &noise);
            assert_eq!(dej.len(), 26);
            assert_eq!(dej[0].1, bbp[0].1, "same starting error");
            // DEJMPS is at or below BBPSSW at every round (lower is better).
            for (d, b) in dej.iter().zip(&bbp) {
                assert!(d.1 <= b.1 + 1e-12, "round {}: {} vs {}", d.0, d.1, b.1);
            }
            // DEJMPS converges within ~5 rounds: round-5 error within 2x of
            // round-25 error.
            assert!(dej[5].1 <= dej[25].1 * 2.0 + 1e-12);
        }
    }
}
