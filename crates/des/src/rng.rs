//! The SplitMix64 mixing primitives the workspace derives seeds and
//! digests from.

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
}
