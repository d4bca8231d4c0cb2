//! Queue purifiers — **Figure 14 and Section 5.1**.
//!
//! The robust alternative to hardware trees: a depth-`n` queue purifier
//! has `n` purifier units, one per tree *level*. Incoming raw pairs are
//! purified at level `L0`; a survivor waits there until a second survivor
//! arrives, the two are purified, and the product is promoted to `L1`, and
//! so on. Advantages (Section 5.1):
//!
//! 1. depth `n` costs `n` purifiers instead of `2ⁿ − 1`;
//! 2. movement between levels is minimal;
//! 3. failed purifications need no special handling — the lost subtree is
//!    rebuilt by the continuing input stream.
//!
//! The drawback is latency: purifications at a level are serialised.
//!
//! Two evaluation modes are provided: an *expected-flow* model (used by the
//! analytical resource counts) and a *stochastic* mode driven by an
//! external RNG (used by the event-driven simulator, which also charges
//! queue time).

use qic_physics::bell::BellDiagonal;
use qic_physics::optime::OpTimes;
use qic_physics::time::Duration;

use crate::protocol::{Protocol, RoundNoise};

/// What happened when a pair was fed into a [`QueuePurifier`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FeedResult {
    /// The pair is parked at some level, waiting for a partner.
    Stored {
        /// The level (0-based) at which the pair is now waiting.
        level: u32,
    },
    /// The pair reached the top of the queue: a fully purified output.
    Output {
        /// The delivered state.
        state: BellDiagonal,
        /// Purification operations performed along this pair's cascade.
        ops: u32,
    },
    /// A purification along the cascade failed; both participants were
    /// discarded.
    Discarded {
        /// The level at which the failure happened.
        level: u32,
        /// Purification operations performed before the failure.
        ops: u32,
    },
}

/// Running statistics for a queue purifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueStats {
    /// Raw pairs fed in.
    pub pairs_in: u64,
    /// Purified pairs delivered.
    pub pairs_out: u64,
    /// Individual purification operations performed.
    pub operations: u64,
    /// Purification operations that failed.
    pub failures: u64,
}

/// A depth-`n` queue purifier (Figure 14).
///
/// # Example
///
/// ```
/// use qic_physics::bell::BellDiagonal;
/// use qic_purify::prelude::*;
///
/// let mut q = QueuePurifier::new(3, Protocol::Dejmps, RoundNoise::ion_trap());
/// let raw = BellDiagonal::werner_f64(0.995)?;
/// // Expected-flow mode: 8 raw pairs produce exactly one depth-3 output.
/// let mut outputs = 0;
/// for _ in 0..8 {
///     if q.feed_expected(raw).is_some() { outputs += 1; }
/// }
/// assert_eq!(outputs, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QueuePurifier {
    protocol: Protocol,
    noise: RoundNoise,
    /// One slot per level: a pair waiting for its partner.
    levels: Vec<Option<BellDiagonal>>,
    stats: QueueStats,
}

impl QueuePurifier {
    /// Creates a queue purifier with `depth` levels.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(depth: u32, protocol: Protocol, noise: RoundNoise) -> Self {
        assert!(depth > 0, "queue purifier needs at least one level");
        QueuePurifier {
            protocol,
            noise,
            levels: vec![None; depth as usize],
            stats: QueueStats::default(),
        }
    }

    /// Queue depth (purification rounds applied to every output).
    pub fn depth(&self) -> u32 {
        self.levels.len() as u32
    }

    /// The protocol used at every level.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Pairs currently parked in the queue.
    pub fn occupancy(&self) -> usize {
        self.levels.iter().filter(|l| l.is_some()).count()
    }

    /// Drops all parked pairs (e.g. when a channel is torn down).
    pub fn clear(&mut self) {
        for l in &mut self.levels {
            *l = None;
        }
    }

    /// Feeds one raw pair in **stochastic** mode: each purification
    /// succeeds with its true probability, decided by `coin` (a closure
    /// returning a uniform `[0,1)` sample, so the caller owns determinism).
    pub fn feed_with(&mut self, pair: BellDiagonal, mut coin: impl FnMut() -> f64) -> FeedResult {
        self.stats.pairs_in += 1;
        let mut carried = pair;
        let mut ops = 0;
        for level in 0..self.levels.len() {
            match self.levels[level].take() {
                None => {
                    self.levels[level] = Some(carried);
                    return FeedResult::Stored {
                        level: level as u32,
                    };
                }
                Some(waiting) => {
                    let out = self
                        .protocol
                        .noisy_step_asymmetric(&waiting, &carried, &self.noise);
                    self.stats.operations += 1;
                    ops += 1;
                    if coin() < out.success_prob {
                        carried = out.state;
                        // Promoted: continue cascading at the next level.
                    } else {
                        self.stats.failures += 1;
                        return FeedResult::Discarded {
                            level: level as u32,
                            ops,
                        };
                    }
                }
            }
        }
        self.stats.pairs_out += 1;
        FeedResult::Output {
            state: carried,
            ops,
        }
    }

    /// Feeds one raw pair in **expected-flow** mode: every purification
    /// "succeeds" and delivers the success-conditioned state, so exactly
    /// `2^depth` inputs yield one output. Failure accounting is handled
    /// analytically by the resource models instead. Returns the output
    /// state when the cascade completes.
    pub fn feed_expected(&mut self, pair: BellDiagonal) -> Option<BellDiagonal> {
        match self.feed_with(pair, || 0.0) {
            FeedResult::Output { state, .. } => Some(state),
            _ => None,
        }
    }

    /// Latency of one purification operation when the channel endpoints
    /// are `cells` apart (Equation 6).
    pub fn op_latency(&self, times: &OpTimes, cells: u64) -> Duration {
        times.purify_round(cells)
    }

    /// Expected raw pairs per delivered output, accounting for failures:
    /// `∏ᵢ 2/pᵢ` with `pᵢ` evaluated along the success-conditioned
    /// trajectory of `input`.
    pub fn expected_pairs_per_output(&self, input: &BellDiagonal) -> f64 {
        crate::analysis::trajectory(self.protocol, *input, self.depth(), &self.noise)
            .last()
            .map(|p| p.expected_pairs)
            .unwrap_or(f64::INFINITY)
    }

    /// Serial-latency model for one output: with a single queue purifier,
    /// producing one depth-`n` output requires `2^n − 1` sequential
    /// purification operations on the same hardware (Section 5.1's "latency
    /// penalty").
    pub fn serial_latency_per_output(&self, times: &OpTimes, cells: u64) -> Duration {
        let ops = (1u64 << self.depth()) - 1;
        self.op_latency(times, cells) * ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw() -> BellDiagonal {
        BellDiagonal::werner_f64(0.995).unwrap()
    }

    #[test]
    fn expected_flow_produces_one_output_per_2n_inputs() {
        let mut q = QueuePurifier::new(3, Protocol::Dejmps, RoundNoise::ion_trap());
        let mut outputs = Vec::new();
        for _ in 0..32 {
            if let Some(out) = q.feed_expected(raw()) {
                outputs.push(out);
            }
        }
        assert_eq!(outputs.len(), 4, "32 inputs / 2^3 = 4 outputs");
        assert_eq!(q.stats().pairs_in, 32);
        assert_eq!(q.stats().pairs_out, 4);
        // Each output went through 3 rounds.
        let expect =
            crate::analysis::trajectory(Protocol::Dejmps, raw(), 3, &RoundNoise::ion_trap())[3]
                .state;
        for out in outputs {
            assert!(out.approx_eq(&expect, 1e-12));
        }
    }

    #[test]
    fn occupancy_tracks_binary_counter() {
        // The queue's occupancy pattern follows the binary representation
        // of the number of pairs fed (like a carry chain).
        let mut q = QueuePurifier::new(4, Protocol::Dejmps, RoundNoise::noiseless());
        for fed in 1..=15u32 {
            let _ = q.feed_expected(raw());
            assert_eq!(
                q.occupancy(),
                fed.count_ones() as usize,
                "after {fed} pairs"
            );
        }
    }

    #[test]
    fn stochastic_mode_discards_on_failure() {
        let mut q = QueuePurifier::new(2, Protocol::Dejmps, RoundNoise::ion_trap());
        // First pair stores at L0.
        assert!(matches!(
            q.feed_with(raw(), || 0.0),
            FeedResult::Stored { level: 0 }
        ));
        // Coin of 1.0 ≥ p: the purification fails, both pairs discarded.
        let r = q.feed_with(raw(), || 1.0);
        assert!(
            matches!(r, FeedResult::Discarded { level: 0, ops: 1 }),
            "{r:?}"
        );
        assert_eq!(q.occupancy(), 0, "failure empties the level");
        assert_eq!(q.stats().failures, 1);
        // The stream rebuilds naturally (Section 5.1 advantage #3).
        assert!(matches!(
            q.feed_with(raw(), || 0.0),
            FeedResult::Stored { level: 0 }
        ));
        assert!(matches!(
            q.feed_with(raw(), || 0.0),
            FeedResult::Stored { level: 1 }
        ));
    }

    #[test]
    fn output_reports_cascade_ops() {
        let mut q = QueuePurifier::new(3, Protocol::Dejmps, RoundNoise::noiseless());
        let mut last = None;
        for _ in 0..8 {
            last = Some(q.feed_with(raw(), || 0.0));
        }
        // The 8th pair cascades through all 3 levels.
        match last.unwrap() {
            FeedResult::Output { ops, .. } => assert_eq!(ops, 3),
            other => panic!("expected output, got {other:?}"),
        }
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = QueuePurifier::new(3, Protocol::Dejmps, RoundNoise::noiseless());
        for _ in 0..5 {
            let _ = q.feed_expected(raw());
        }
        assert!(q.occupancy() > 0);
        q.clear();
        assert_eq!(q.occupancy(), 0);
    }

    #[test]
    fn hardware_advantage_over_tree() {
        // Depth n: n purifiers vs 2^n − 1 (Section 5.1 advantage #1).
        let q = QueuePurifier::new(5, Protocol::Dejmps, RoundNoise::noiseless());
        let t = crate::tree::TreePurifier::new(5, Protocol::Dejmps);
        assert_eq!(q.depth() as u64, 5);
        assert_eq!(t.hardware_units(), 31);
    }

    #[test]
    fn serial_latency_penalty() {
        // Section 5.1 drawback: one queue output needs 2^n − 1 serialised
        // ops, vs n parallel levels for the tree.
        let times = OpTimes::ion_trap();
        let q = QueuePurifier::new(3, Protocol::Dejmps, RoundNoise::noiseless());
        let t = crate::tree::TreePurifier::new(3, Protocol::Dejmps);
        assert!(q.serial_latency_per_output(&times, 0) > t.latency(&times, 0));
        assert_eq!(
            q.serial_latency_per_output(&times, 0),
            times.purify_round_local() * 7
        );
    }

    #[test]
    fn expected_pairs_accounts_for_failures() {
        let q = QueuePurifier::new(3, Protocol::Dejmps, RoundNoise::ion_trap());
        let n = q.expected_pairs_per_output(&raw());
        assert!(n > 8.0, "failures push the cost above 2^3");
        assert!(n < 10.0);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn zero_depth_rejected() {
        let _ = QueuePurifier::new(0, Protocol::Dejmps, RoundNoise::noiseless());
    }
}
