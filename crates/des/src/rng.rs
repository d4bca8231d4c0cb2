//! Seeded randomness for simulations, and the SplitMix64 mixing
//! primitives the workspace derives seeds and digests from.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// The 64-bit golden ratio, SplitMix64's increment constant.
pub const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 finaliser: a bijective avalanche mix on 64 bits.
///
/// A SplitMix64 generator adds [`GOLDEN`] to its state and returns the
/// mix of the new state; campaign seeds, fault draws, synthetic
/// traffic and document digests are all built from this one function,
/// so they stay byte-identical across crates.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic random source for simulation runs.
///
/// All stochastic choices in a simulation (purification successes, tie
/// randomisation, workload shuffles) must flow through one `SimRng`, so a
/// run is a pure function of its seed.
///
/// # Example
///
/// ```
/// use qic_des::rng::SimRng;
///
/// let mut a = SimRng::seed_from(7);
/// let mut b = SimRng::seed_from(7);
/// assert_eq!(a.f64(), b.f64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
    seed: u64,
    draws: u64,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        SimRng {
            inner: SmallRng::seed_from_u64(seed),
            seed,
            draws: 0,
        }
    }

    /// The seed this generator was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of draws made so far (useful in failure reports).
    pub fn draws(&self) -> u64 {
        self.draws
    }

    /// A uniform sample in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.draws += 1;
        self.inner.random::<f64>()
    }

    /// Bernoulli trial: `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `p` is outside `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
        self.f64() < p
    }

    /// A uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "range must be non-empty");
        self.draws += 1;
        self.inner.random_range(0..n)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Splits off an independent generator (seeded from this one), for
    /// subsystems that need their own stream.
    pub fn split(&mut self) -> SimRng {
        let seed = (self.f64().to_bits()) ^ self.seed.rotate_left(17);
        SimRng::seed_from(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_matches_the_splitmix64_reference_stream() {
        // The first outputs of SplitMix64 seeded with 0 (Vigna's
        // reference implementation).
        let mut state = 0u64;
        let mut next = || {
            state = state.wrapping_add(GOLDEN);
            mix64(state)
        };
        assert_eq!(next(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(next(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(mix64(0), 0);
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::seed_from(42);
        let mut b = SimRng::seed_from(42);
        for _ in 0..100 {
            assert_eq!(a.f64().to_bits(), b.f64().to_bits());
        }
        assert_eq!(a.draws(), 100);
        assert_eq!(a.seed(), 42);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..32)
            .filter(|_| a.f64().to_bits() == b.f64().to_bits())
            .count();
        assert!(same < 4);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::seed_from(7);
        for _ in 0..1000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from(7);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn below_bounds() {
        let mut r = SimRng::seed_from(7);
        for _ in 0..100 {
            assert!(r.below(5) < 5);
        }
        assert_eq!(r.below(1), 0);
    }

    #[test]
    fn chance_frequency_is_plausible() {
        let mut r = SimRng::seed_from(123);
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "got {hits}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::seed_from(9);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            xs,
            (0..50).collect::<Vec<_>>(),
            "50 elements shuffle away from identity"
        );
    }

    #[test]
    fn split_streams_are_independent_but_deterministic() {
        let mut a1 = SimRng::seed_from(5);
        let mut a2 = SimRng::seed_from(5);
        let mut s1 = a1.split();
        let mut s2 = a2.split();
        assert_eq!(s1.f64().to_bits(), s2.f64().to_bits());
        // Parent and child streams differ.
        let mut p = SimRng::seed_from(5);
        let _ = p.f64();
        assert_ne!(
            p.f64().to_bits(),
            SimRng::seed_from(5).split().f64().to_bits()
        );
    }
}
