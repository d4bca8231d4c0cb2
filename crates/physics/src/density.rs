//! Exact two-qubit density-matrix simulation.
//!
//! [`PairState`] represents the joint state of one EPR pair as a full 4×4
//! density matrix. It exists to *validate* the Bell-diagonal fast path used
//! everywhere else: tests apply gates and channels at the matrix level and
//! check that [`crate::bell::BellDiagonal`] predicts the same populations.

use std::fmt;

use crate::bell::{BellDiagonal, BellState};
use crate::complex::C64;
use crate::fidelity::Fidelity;
use crate::gates;
use crate::matrix::{Mat2, Mat4};

/// The state vector of a Bell state in the computational basis
/// `|00⟩,|01⟩,|10⟩,|11⟩`.
pub fn bell_vector(s: BellState) -> [C64; 4] {
    let h = std::f64::consts::FRAC_1_SQRT_2;
    match s {
        BellState::PhiPlus => [C64::real(h), C64::ZERO, C64::ZERO, C64::real(h)],
        BellState::PhiMinus => [C64::real(h), C64::ZERO, C64::ZERO, C64::real(-h)],
        BellState::PsiPlus => [C64::ZERO, C64::real(h), C64::real(h), C64::ZERO],
        BellState::PsiMinus => [C64::ZERO, C64::real(h), C64::real(-h), C64::ZERO],
    }
}

/// Error raised when a matrix is not a valid density matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidDensityError(String);

impl fmt::Display for InvalidDensityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid density matrix: {}", self.0)
    }
}

impl std::error::Error for InvalidDensityError {}

/// A two-qubit mixed state as an explicit density matrix.
///
/// # Example
///
/// ```
/// use qic_physics::bell::BellState;
/// use qic_physics::density::PairState;
/// use qic_physics::gates;
///
/// // A phase flip on one half turns Φ⁺ into Φ⁻.
/// let rho = PairState::pure(BellState::PhiPlus)
///     .apply_to_first(&gates::pauli_z());
/// assert!((rho.bell_overlap(BellState::PhiMinus) - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairState {
    rho: Mat4,
}

impl PairState {
    /// A pure Bell state.
    pub fn pure(s: BellState) -> Self {
        PairState {
            rho: Mat4::outer(&bell_vector(s)),
        }
    }

    /// The maximally mixed state `I/4`.
    pub fn maximally_mixed() -> Self {
        PairState {
            rho: Mat4::identity().scale(0.25),
        }
    }

    /// Builds the Bell-diagonal mixture with the given coefficients.
    pub fn from_bell_diagonal(b: &BellDiagonal) -> Self {
        let mut rho = Mat4::default();
        for s in BellState::ALL {
            rho = rho + Mat4::outer(&bell_vector(s)).scale(b.coeff(s));
        }
        PairState { rho }
    }

    /// Wraps an explicit matrix, validating the density-matrix invariants
    /// (Hermitian, unit trace, plausible diagonal).
    ///
    /// # Errors
    ///
    /// Returns [`InvalidDensityError`] if the matrix is not Hermitian, does
    /// not have unit trace, or has a negative diagonal entry.
    pub fn from_matrix(rho: Mat4) -> Result<Self, InvalidDensityError> {
        if !rho.is_hermitian(1e-9) {
            return Err(InvalidDensityError("not Hermitian".into()));
        }
        if !rho.trace().approx_eq(C64::ONE, 1e-9) {
            return Err(InvalidDensityError(format!("trace {} ≠ 1", rho.trace())));
        }
        for i in 0..4 {
            if rho[(i, i)].re < -1e-9 {
                return Err(InvalidDensityError(format!("negative population at {i}")));
            }
        }
        Ok(PairState { rho })
    }

    /// The raw density matrix.
    pub fn matrix(&self) -> &Mat4 {
        &self.rho
    }

    /// Evolves under a two-qubit unitary.
    pub fn apply(&self, u: &Mat4) -> Self {
        PairState {
            rho: self.rho.conjugate_by(u),
        }
    }

    /// Applies a single-qubit unitary to the first qubit.
    pub fn apply_to_first(&self, u: &Mat2) -> Self {
        self.apply(&gates::on_first(u))
    }

    /// Applies a single-qubit unitary to the second qubit.
    pub fn apply_to_second(&self, u: &Mat2) -> Self {
        self.apply(&gates::on_second(u))
    }

    /// Applies an asymmetric Pauli channel to the first qubit: X with
    /// probability `px`, Y with `py`, Z with `pz` (identity otherwise).
    pub fn pauli_channel_first(&self, px: f64, py: f64, pz: f64) -> Self {
        let pi = 1.0 - px - py - pz;
        debug_assert!(pi >= -1e-12);
        let mut rho = self.rho.scale(pi.max(0.0));
        rho = rho + self.apply_to_first(&gates::pauli_x()).rho.scale(px);
        rho = rho + self.apply_to_first(&gates::pauli_y()).rho.scale(py);
        rho = rho + self.apply_to_first(&gates::pauli_z()).rho.scale(pz);
        PairState { rho }
    }

    /// Two-qubit depolarizing channel: `ρ → (1−ε)ρ + ε·I/4`.
    pub fn depolarize(&self, eps: f64) -> Self {
        debug_assert!((0.0..=1.0).contains(&eps));
        PairState {
            rho: self.rho.scale(1.0 - eps) + Mat4::identity().scale(eps * 0.25),
        }
    }

    /// The overlap `⟨s|ρ|s⟩` with a Bell state.
    pub fn bell_overlap(&self, s: BellState) -> f64 {
        let v = bell_vector(s);
        let mut acc = C64::ZERO;
        for r in 0..4 {
            for c in 0..4 {
                acc += v[r].conj() * self.rho[(r, c)] * v[c];
            }
        }
        acc.re
    }

    /// Fidelity to the reference state `Φ⁺`.
    pub fn fidelity(&self) -> Fidelity {
        Fidelity::new_clamped(self.bell_overlap(BellState::PhiPlus))
    }

    /// Projects onto the Bell-basis diagonal (full twirl): the
    /// [`BellDiagonal`] whose coefficients are this state's Bell-state
    /// populations. For states that are already Bell diagonal this is
    /// lossless.
    pub fn bell_diagonal(&self) -> BellDiagonal {
        let coeffs = [
            self.bell_overlap(BellState::PhiPlus),
            self.bell_overlap(BellState::PsiMinus),
            self.bell_overlap(BellState::PsiPlus),
            self.bell_overlap(BellState::PhiMinus),
        ];
        // Populations of a valid density matrix sum to ≤ 1 over an
        // orthonormal basis; clamp tiny negatives from rounding.
        let sum: f64 = coeffs.iter().sum();
        BellDiagonal::new(coeffs.map(|c| c / sum)).expect("populations form a distribution")
    }

    /// Whether the state is (numerically) Bell diagonal: its off-diagonal
    /// elements in the Bell basis vanish.
    pub fn is_bell_diagonal(&self, tol: f64) -> bool {
        for s1 in BellState::ALL {
            for s2 in BellState::ALL {
                if s1 == s2 {
                    continue;
                }
                let v1 = bell_vector(s1);
                let v2 = bell_vector(s2);
                let mut acc = C64::ZERO;
                for (r, a) in v1.iter().enumerate() {
                    for (c, b) in v2.iter().enumerate() {
                        acc += a.conj() * self.rho[(r, c)] * *b;
                    }
                }
                if acc.norm() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Measures the **second** qubit in the computational basis. Returns
    /// `(p0, post0, p1, post1)`: the probability of each outcome and the
    /// normalised post-measurement states (arbitrary when the probability
    /// is zero).
    pub fn measure_second(&self) -> (f64, PairState, f64, PairState) {
        let mut p0m = Mat4::default();
        let mut p1m = Mat4::default();
        for r in 0..4 {
            for c in 0..4 {
                // Second-qubit value is the low bit of the basis index.
                if r % 2 == 0 && c % 2 == 0 {
                    p0m.0[r][c] = self.rho[(r, c)];
                }
                if r % 2 == 1 && c % 2 == 1 {
                    p1m.0[r][c] = self.rho[(r, c)];
                }
            }
        }
        let p0 = p0m.trace().re;
        let p1 = p1m.trace().re;
        let post0 = if p0 > 1e-15 {
            p0m.scale(1.0 / p0)
        } else {
            Mat4::identity().scale(0.25)
        };
        let post1 = if p1 > 1e-15 {
            p1m.scale(1.0 / p1)
        } else {
            Mat4::identity().scale(0.25)
        };
        (p0, PairState { rho: post0 }, p1, PairState { rho: post1 })
    }
}

impl Default for PairState {
    /// The perfect pair `|Φ⁺⟩⟨Φ⁺|`.
    fn default() -> Self {
        PairState::pure(BellState::PhiPlus)
    }
}

impl fmt::Display for PairState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PairState({})", self.bell_diagonal())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bell_vectors_are_orthonormal() {
        for s1 in BellState::ALL {
            for s2 in BellState::ALL {
                let v1 = bell_vector(s1);
                let v2 = bell_vector(s2);
                let dot: C64 = (0..4).map(|i| v1[i].conj() * v2[i]).sum();
                let expect = if s1 == s2 { 1.0 } else { 0.0 };
                assert!(
                    dot.approx_eq(C64::real(expect), 1e-12),
                    "⟨{s1}|{s2}⟩ = {dot}"
                );
            }
        }
    }

    #[test]
    fn pure_states_have_unit_fidelity_to_themselves() {
        for s in BellState::ALL {
            let rho = PairState::pure(s);
            assert!((rho.bell_overlap(s) - 1.0).abs() < 1e-12);
            assert!(rho.is_bell_diagonal(1e-12));
        }
    }

    #[test]
    fn pauli_frame_labels_match_gates() {
        // Applying the labelled Pauli to the first half of Φ⁺ produces the
        // labelled Bell state — the identity BellState::pauli_label encodes.
        let phi = PairState::pure(BellState::PhiPlus);
        assert!(
            (phi.apply_to_first(&gates::pauli_x())
                .bell_overlap(BellState::PsiPlus)
                - 1.0)
                .abs()
                < 1e-12
        );
        assert!(
            (phi.apply_to_first(&gates::pauli_z())
                .bell_overlap(BellState::PhiMinus)
                - 1.0)
                .abs()
                < 1e-12
        );
        assert!(
            (phi.apply_to_first(&gates::pauli_y())
                .bell_overlap(BellState::PsiMinus)
                - 1.0)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn bell_diagonal_round_trip() {
        let b = BellDiagonal::new([0.7, 0.1, 0.15, 0.05]).unwrap();
        let rho = PairState::from_bell_diagonal(&b);
        assert!(rho.is_bell_diagonal(1e-12));
        assert!(rho.bell_diagonal().approx_eq(&b, 1e-12));
        assert!((rho.fidelity().value() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn from_matrix_validates() {
        assert!(PairState::from_matrix(Mat4::identity().scale(0.25)).is_ok());
        assert!(PairState::from_matrix(Mat4::identity()).is_err(), "trace 4");
        let mut skew = Mat4::identity().scale(0.25);
        skew.0[0][1] = C64::I;
        assert!(PairState::from_matrix(skew).is_err(), "not Hermitian");
    }

    #[test]
    fn pauli_channel_matches_bell_diagonal_model() {
        let b = BellDiagonal::new([0.85, 0.05, 0.06, 0.04]).unwrap();
        let (px, py, pz) = (0.01, 0.002, 0.03);
        let exact = PairState::from_bell_diagonal(&b)
            .pauli_channel_first(px, py, pz)
            .bell_diagonal();
        let fast = b.apply_pauli_noise(px, py, pz);
        assert!(
            exact.approx_eq(&fast, 1e-12),
            "matrix {exact} vs fast {fast}"
        );
    }

    #[test]
    fn depolarize_matches_bell_diagonal_model() {
        let b = BellDiagonal::new([0.9, 0.04, 0.03, 0.03]).unwrap();
        let exact = PairState::from_bell_diagonal(&b)
            .depolarize(0.2)
            .bell_diagonal();
        let fast = b.depolarize(0.2);
        assert!(exact.approx_eq(&fast, 1e-12));
    }

    #[test]
    fn measurement_probabilities_sum_to_one() {
        let rho = PairState::from_bell_diagonal(&BellDiagonal::new([0.6, 0.2, 0.1, 0.1]).unwrap());
        let (p0, post0, p1, post1) = rho.measure_second();
        assert!((p0 + p1 - 1.0).abs() < 1e-12);
        assert!(post0.matrix().trace().approx_eq(C64::ONE, 1e-9));
        assert!(post1.matrix().trace().approx_eq(C64::ONE, 1e-9));
    }

    #[test]
    fn measuring_phi_plus_second_qubit_is_unbiased() {
        let (p0, _, p1, _) = PairState::pure(BellState::PhiPlus).measure_second();
        assert!((p0 - 0.5).abs() < 1e-12);
        assert!((p1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cnot_on_bell_state() {
        // CNOT maps Φ⁺ to (|00⟩+|10⟩)/√2 = |+⟩|0⟩: measuring the second
        // qubit then yields 0 with certainty.
        let rho = PairState::pure(BellState::PhiPlus).apply(&gates::cnot());
        let (p0, _, p1, _) = rho.measure_second();
        assert!((p0 - 1.0).abs() < 1e-12);
        assert!(p1.abs() < 1e-12);
    }
}
