//! Spatial tree purifiers — the naïve implementation Section 5.1 rejects.
//!
//! A depth-`n` purification tree materialised in hardware needs one
//! purifier unit per internal node (`2ⁿ − 1` units) and provides no natural
//! recovery from a failed purification (the whole subtree is lost). This
//! module models that design so the queue purifier of [`crate::queue`] can
//! be compared against it quantitatively.

use qic_physics::bell::BellDiagonal;
use qic_physics::optime::OpTimes;
use qic_physics::time::Duration;

use crate::protocol::{Protocol, RoundNoise};

/// A hardware tree purifier of fixed depth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreePurifier {
    depth: u32,
    protocol: Protocol,
}

impl TreePurifier {
    /// Creates a tree purifier of the given depth (number of rounds).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is 0 or large enough that `2^depth` overflows
    /// (`depth > 62`).
    pub fn new(depth: u32, protocol: Protocol) -> Self {
        assert!(depth > 0, "a purification tree needs at least one level");
        assert!(depth <= 62, "2^depth must fit in u64");
        TreePurifier { depth, protocol }
    }

    /// Tree depth (purification rounds performed).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// The protocol run at every node.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// Number of hardware purifier units: one per internal tree node,
    /// `2^depth − 1` (Section 5.1: "as the tree depth increases, the
    /// hardware needs quickly become prohibitive").
    pub fn hardware_units(&self) -> u64 {
        (1u64 << self.depth) - 1
    }

    /// Number of raw input pairs a full tree consumes per attempt
    /// (`2^depth`), ignoring failures.
    pub fn leaf_pairs(&self) -> u64 {
        1u64 << self.depth
    }

    /// Latency of one full tree evaluation: levels run in parallel within
    /// a level, sequentially across levels.
    pub fn latency(&self, times: &OpTimes, endpoint_separation_cells: u64) -> Duration {
        times.purify_round(endpoint_separation_cells) * u64::from(self.depth)
    }

    /// Expected output state and overall success probability for one tree
    /// evaluation fed with `2^depth` copies of `input`.
    ///
    /// The success probability is the probability that *every* node in the
    /// tree succeeds — the "no natural means of recovering from a failed
    /// purification" drawback.
    pub fn evaluate(&self, input: &BellDiagonal, noise: &RoundNoise) -> (BellDiagonal, f64) {
        let mut state = *input;
        let mut all_succeed = 1.0;
        for level in 0..self.depth {
            let out = self.protocol.noisy_step(&state, noise);
            // Nodes at this level: 2^(depth - level - 1), all must succeed.
            let nodes = 1u64 << (self.depth - level - 1);
            all_succeed *= out.success_prob.powi(nodes.min(i32::MAX as u64) as i32);
            state = out.state;
        }
        (state, all_succeed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hardware_grows_exponentially() {
        let t = |d| TreePurifier::new(d, Protocol::Dejmps).hardware_units();
        assert_eq!(t(1), 1);
        assert_eq!(t(2), 3);
        assert_eq!(t(3), 7);
        assert_eq!(t(10), 1023);
    }

    #[test]
    fn leaf_pairs_are_power_of_two() {
        let t = TreePurifier::new(3, Protocol::Dejmps);
        assert_eq!(t.leaf_pairs(), 8);
        assert_eq!(t.depth(), 3);
        assert_eq!(t.protocol(), Protocol::Dejmps);
    }

    #[test]
    fn latency_is_depth_rounds() {
        let times = OpTimes::ion_trap();
        let t = TreePurifier::new(3, Protocol::Dejmps);
        assert_eq!(t.latency(&times, 0), times.purify_round_local() * 3);
        assert!(t.latency(&times, 600) > t.latency(&times, 0));
    }

    #[test]
    fn evaluate_matches_round_analysis() {
        let noise = RoundNoise::ion_trap();
        let input = BellDiagonal::werner_f64(0.99).unwrap();
        let tree = TreePurifier::new(3, Protocol::Dejmps);
        let (state, p_all) = tree.evaluate(&input, &noise);
        let traj = crate::analysis::trajectory(Protocol::Dejmps, input, 3, &noise);
        assert!(state.approx_eq(&traj[3].state, 1e-12));
        // All-success probability is the product over nodes, which is at
        // most the single-path product.
        let path_prob: f64 = traj[1..].iter().map(|p| p.success_prob).product();
        assert!(p_all <= path_prob + 1e-12);
        assert!(p_all > 0.5, "high-fidelity inputs rarely fail");
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn zero_depth_rejected() {
        let _ = TreePurifier::new(0, Protocol::Dejmps);
    }
}
