//! Bell-diagonal EPR-pair states.
//!
//! Every EPR pair in the network is described by its diagonal in the Bell
//! basis: a probability vector over the four Bell states. This is exact for
//! the processes the paper models — Pauli noise, twirling, purification and
//! teleportation all map Bell-diagonal states to Bell-diagonal states — and
//! reduces pair dynamics to arithmetic on four real numbers.
//!
//! The coefficient ordering `(a, b, c, d)` follows the DEJMPS paper
//! (Deutsch et al., PRL 77:2818):
//! `a = ⟨Φ⁺|ρ|Φ⁺⟩`, `b = ⟨Ψ⁻|ρ|Ψ⁻⟩`, `c = ⟨Ψ⁺|ρ|Ψ⁺⟩`, `d = ⟨Φ⁻|ρ|Φ⁻⟩`,
//! with `Φ⁺` the reference ("good") state, so the fidelity is `a`.

use std::fmt;

use crate::fidelity::Fidelity;

/// The four Bell states.
///
/// The discriminants match the `(a, b, c, d)` coefficient order of
/// [`BellDiagonal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BellState {
    /// `|Φ⁺⟩ = (|00⟩ + |11⟩)/√2` — the reference state produced by
    /// generators.
    PhiPlus = 0,
    /// `|Ψ⁻⟩ = (|01⟩ − |10⟩)/√2` (the singlet).
    PsiMinus = 1,
    /// `|Ψ⁺⟩ = (|01⟩ + |10⟩)/√2`.
    PsiPlus = 2,
    /// `|Φ⁻⟩ = (|00⟩ − |11⟩)/√2`.
    PhiMinus = 3,
}

impl BellState {
    /// All four states in coefficient order.
    pub const ALL: [BellState; 4] = [
        BellState::PhiPlus,
        BellState::PsiMinus,
        BellState::PsiPlus,
        BellState::PhiMinus,
    ];

    /// The Pauli-frame label `(x, z)` of this Bell state: which bit-flip /
    /// phase-flip error, applied to one half of `|Φ⁺⟩`, produces it.
    ///
    /// `Φ⁺ = I`, `Ψ⁺ = X`, `Φ⁻ = Z`, `Ψ⁻ = Y = XZ` (up to global phase).
    pub fn pauli_label(self) -> (bool, bool) {
        match self {
            BellState::PhiPlus => (false, false),
            BellState::PsiPlus => (true, false),
            BellState::PhiMinus => (false, true),
            BellState::PsiMinus => (true, true),
        }
    }

    /// Inverse of [`BellState::pauli_label`].
    pub fn from_pauli_label(x: bool, z: bool) -> Self {
        match (x, z) {
            (false, false) => BellState::PhiPlus,
            (true, false) => BellState::PsiPlus,
            (false, true) => BellState::PhiMinus,
            (true, true) => BellState::PsiMinus,
        }
    }
}

impl fmt::Display for BellState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BellState::PhiPlus => "Φ+",
            BellState::PsiMinus => "Ψ-",
            BellState::PsiPlus => "Ψ+",
            BellState::PhiMinus => "Φ-",
        };
        f.write_str(s)
    }
}

/// Error raised when Bell-diagonal coefficients are invalid (negative,
/// non-finite, or not summing to one).
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidBellStateError {
    coeffs: [f64; 4],
}

impl InvalidBellStateError {
    /// The rejected coefficient vector.
    pub fn coeffs(&self) -> [f64; 4] {
        self.coeffs
    }
}

impl fmt::Display for InvalidBellStateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bell-diagonal coefficients must be non-negative and sum to 1, got {:?}",
            self.coeffs
        )
    }
}

impl std::error::Error for InvalidBellStateError {}

/// Tolerance on the coefficient-sum invariant.
const SUM_TOL: f64 = 1e-9;

/// A Bell-diagonal two-qubit mixed state: a probability distribution over
/// the four Bell states.
///
/// # Example
///
/// ```
/// use qic_physics::bell::{BellDiagonal, BellState};
///
/// // A Werner state of fidelity 0.9 spreads the remaining 0.1 uniformly.
/// let w = BellDiagonal::werner_f64(0.9)?;
/// assert!((w.fidelity().value() - 0.9).abs() < 1e-12);
/// assert!((w.coeff(BellState::PsiPlus) - 0.1 / 3.0).abs() < 1e-12);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BellDiagonal {
    /// Coefficients in `(Φ⁺, Ψ⁻, Ψ⁺, Φ⁻)` order.
    coeffs: [f64; 4],
}

impl BellDiagonal {
    /// The perfect pair `|Φ⁺⟩⟨Φ⁺|`.
    pub fn perfect() -> Self {
        BellDiagonal {
            coeffs: [1.0, 0.0, 0.0, 0.0],
        }
    }

    /// The maximally mixed two-qubit state `I/4`.
    pub fn maximally_mixed() -> Self {
        BellDiagonal { coeffs: [0.25; 4] }
    }

    /// Creates a state from explicit coefficients in `(Φ⁺, Ψ⁻, Ψ⁺, Φ⁻)`
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidBellStateError`] if any coefficient is negative or
    /// non-finite, or if they do not sum to 1 within `1e-9`.
    pub fn new(coeffs: [f64; 4]) -> Result<Self, InvalidBellStateError> {
        let ok = coeffs.iter().all(|&c| c.is_finite() && c >= -SUM_TOL)
            && (coeffs.iter().sum::<f64>() - 1.0).abs() <= SUM_TOL;
        if ok {
            let mut c = coeffs;
            for x in &mut c {
                *x = x.max(0.0);
            }
            Ok(BellDiagonal { coeffs: c })
        } else {
            Err(InvalidBellStateError { coeffs })
        }
    }

    /// The Werner state of fidelity `f`: weight `f` on `Φ⁺` and `(1−f)/3`
    /// on each other Bell state.
    pub fn werner(f: Fidelity) -> Self {
        let rest = (1.0 - f.value()) / 3.0;
        BellDiagonal {
            coeffs: [f.value(), rest, rest, rest],
        }
    }

    /// [`BellDiagonal::werner`] from a raw `f64`.
    ///
    /// # Errors
    ///
    /// Returns an error if `f` is not a valid fidelity.
    pub fn werner_f64(f: f64) -> Result<Self, crate::fidelity::InvalidFidelityError> {
        Ok(BellDiagonal::werner(Fidelity::new(f)?))
    }

    /// A "binary" pair that suffered a phase flip with probability `p`
    /// (weight on `Φ⁻`), the dominant error channel for ballistic transport
    /// of EPR halves.
    pub fn phase_flipped(p: f64) -> Self {
        debug_assert!((0.0..=1.0).contains(&p));
        BellDiagonal {
            coeffs: [1.0 - p, 0.0, 0.0, p],
        }
    }

    /// The coefficient of a given Bell state.
    pub fn coeff(&self, s: BellState) -> f64 {
        self.coeffs[s as usize]
    }

    /// All four coefficients in `(Φ⁺, Ψ⁻, Ψ⁺, Φ⁻)` order.
    pub fn coeffs(&self) -> [f64; 4] {
        self.coeffs
    }

    /// The fidelity to the reference state `Φ⁺` (the `a` coefficient).
    pub fn fidelity(&self) -> Fidelity {
        Fidelity::new_clamped(self.coeffs[0])
    }

    /// The infidelity `1 − a` — the quantity the paper's figures plot.
    pub fn error(&self) -> f64 {
        1.0 - self.coeffs[0]
    }

    /// Twirls the state into Werner form: fidelity is preserved, the other
    /// three coefficients are averaged. This is the randomisation step of
    /// the BBPSSW protocol ("partially randomizes its state after every
    /// round", Section 4.5).
    pub fn twirl(&self) -> Self {
        BellDiagonal::werner(self.fidelity())
    }

    /// Mixes the state with `I/4`: `ρ → (1−ε)ρ + ε·I/4`. Models isotropic
    /// (depolarizing) noise from imperfect local operations.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `eps` is outside `[0, 1]`.
    pub fn depolarize(&self, eps: f64) -> Self {
        debug_assert!(
            (0.0..=1.0).contains(&eps),
            "depolarization must be a probability"
        );
        let mut out = [0.0; 4];
        for (o, c) in out.iter_mut().zip(self.coeffs) {
            *o = (1.0 - eps) * c + eps * 0.25;
        }
        BellDiagonal { coeffs: out }
    }

    /// Applies an independent Pauli channel to **one half** of the pair:
    /// with probability `px`/`pz`/`py` an X/Z/Y error occurs. Used for
    /// per-cell ballistic-movement noise on EPR halves in transit.
    pub fn apply_pauli_noise(&self, px: f64, py: f64, pz: f64) -> Self {
        let pi = 1.0 - px - py - pz;
        debug_assert!(pi >= -SUM_TOL, "total Pauli error must be ≤ 1");
        let noise = BellDiagonal {
            // (Φ+, Ψ-, Ψ+, Φ-) receive (I, Y, X, Z) weights respectively.
            coeffs: [pi.max(0.0), py, px, pz],
        };
        self.convolve(&noise)
    }

    /// Pauli-frame convolution of two Bell-diagonal states.
    ///
    /// Teleporting one half of a pair `ρ` using a resource pair `σ`
    /// composes their Pauli error frames: the resulting pair is Bell
    /// diagonal with coefficients given by the group convolution over
    /// `Z₂ × Z₂`. This identity is what lets the chained-teleportation
    /// channel of Figure 5 be modelled exactly; Equation 3's
    /// `(4F−1)/3 · (4F'−1)/3` product is its Werner-state shadow (see
    /// [`crate::teleport`]).
    pub fn convolve(&self, other: &BellDiagonal) -> Self {
        let mut out = [0.0; 4];
        for s1 in BellState::ALL {
            let (x1, z1) = s1.pauli_label();
            for s2 in BellState::ALL {
                let (x2, z2) = s2.pauli_label();
                let s = BellState::from_pauli_label(x1 ^ x2, z1 ^ z2);
                out[s as usize] += self.coeff(s1) * other.coeff(s2);
            }
        }
        BellDiagonal { coeffs: out }
    }

    /// Renormalises the coefficients to sum to one. Intended for use after
    /// post-selection (e.g. a purification round), where the caller divides
    /// by the success probability.
    ///
    /// # Panics
    ///
    /// Panics if the coefficient sum is zero or negative.
    pub fn normalized(&self) -> Self {
        let sum: f64 = self.coeffs.iter().sum();
        assert!(sum > 0.0, "cannot normalise a zero state");
        let mut out = self.coeffs;
        for c in &mut out {
            *c /= sum;
        }
        BellDiagonal { coeffs: out }
    }

    /// Element-wise approximate equality.
    pub fn approx_eq(&self, other: &BellDiagonal, tol: f64) -> bool {
        self.coeffs
            .iter()
            .zip(other.coeffs)
            .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Swaps the roles of the two qubits' Pauli frames under a basis change
    /// `b ↔ d` (`Ψ⁻ ↔ Φ⁻`). This is the effect of the DEJMPS pre-rotations
    /// (`Rx(π/2)` on one side, `Rx(−π/2)` on the other).
    pub fn dejmps_rotate(&self) -> Self {
        let [a, b, c, d] = self.coeffs;
        BellDiagonal {
            coeffs: [a, d, c, b],
        }
    }
}

impl Default for BellDiagonal {
    /// The perfect pair.
    fn default() -> Self {
        BellDiagonal::perfect()
    }
}

impl fmt::Display for BellDiagonal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[Φ+:{:.5} Ψ-:{:.5} Ψ+:{:.5} Φ-:{:.5}]",
            self.coeffs[0], self.coeffs[1], self.coeffs[2], self.coeffs[3]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_normalized(s: &BellDiagonal) {
        let sum: f64 = s.coeffs().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "coefficients sum to {sum}");
        assert!(s.coeffs().iter().all(|&c| c >= 0.0));
    }

    #[test]
    fn constructors() {
        assert_eq!(BellDiagonal::perfect().fidelity(), Fidelity::ONE);
        assert_eq!(
            BellDiagonal::maximally_mixed().fidelity(),
            Fidelity::QUARTER
        );
        assert_eq!(BellDiagonal::default(), BellDiagonal::perfect());
        let w = BellDiagonal::werner_f64(0.7).unwrap();
        assert_normalized(&w);
        assert!((w.coeff(BellState::PhiMinus) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn new_validates() {
        assert!(BellDiagonal::new([0.5, 0.5, 0.0, 0.0]).is_ok());
        assert!(BellDiagonal::new([0.5, 0.6, 0.0, 0.0]).is_err());
        assert!(BellDiagonal::new([1.5, -0.5, 0.0, 0.0]).is_err());
        let err = BellDiagonal::new([f64::NAN, 0.0, 0.0, 0.0]).unwrap_err();
        assert!(err.to_string().contains("sum to 1"));
        assert!(err.coeffs()[0].is_nan());
    }

    #[test]
    fn pauli_labels_round_trip() {
        for s in BellState::ALL {
            let (x, z) = s.pauli_label();
            assert_eq!(BellState::from_pauli_label(x, z), s);
        }
    }

    #[test]
    fn twirl_preserves_fidelity() {
        let s = BellDiagonal::new([0.8, 0.15, 0.03, 0.02]).unwrap();
        let t = s.twirl();
        assert_eq!(t.fidelity(), s.fidelity());
        let rest = t.coeff(BellState::PsiMinus);
        assert!((t.coeff(BellState::PsiPlus) - rest).abs() < 1e-12);
        assert!((t.coeff(BellState::PhiMinus) - rest).abs() < 1e-12);
    }

    #[test]
    fn depolarize_moves_toward_mixed() {
        let s = BellDiagonal::perfect().depolarize(0.1);
        assert_normalized(&s);
        assert!((s.fidelity().value() - (0.9 + 0.025)).abs() < 1e-12);
        let full = BellDiagonal::perfect().depolarize(1.0);
        assert!(full.approx_eq(&BellDiagonal::maximally_mixed(), 1e-12));
    }

    #[test]
    fn convolve_identity() {
        let s = BellDiagonal::new([0.7, 0.1, 0.15, 0.05]).unwrap();
        let id = BellDiagonal::perfect();
        assert!(s.convolve(&id).approx_eq(&s, 1e-12));
        assert!(id.convolve(&s).approx_eq(&s, 1e-12));
    }

    #[test]
    fn convolve_is_commutative_and_normalized() {
        let s = BellDiagonal::new([0.7, 0.1, 0.15, 0.05]).unwrap();
        let t = BellDiagonal::new([0.9, 0.02, 0.05, 0.03]).unwrap();
        let st = s.convolve(&t);
        let ts = t.convolve(&s);
        assert!(st.approx_eq(&ts, 1e-12));
        assert_normalized(&st);
    }

    #[test]
    fn convolve_werner_multiplies_polarization() {
        // For Werner states, convolution multiplies (4F−1)/3 — the algebra
        // behind Equation 3.
        let f1 = Fidelity::new(0.95).unwrap();
        let f2 = Fidelity::new(0.9).unwrap();
        let w = BellDiagonal::werner(f1).convolve(&BellDiagonal::werner(f2));
        let expected = Fidelity::from_polarization(f1.polarization() * f2.polarization());
        assert!((w.fidelity().value() - expected.value()).abs() < 1e-12);
    }

    #[test]
    fn pauli_noise_on_one_half() {
        // A pure phase flip (Z) maps Φ+ to Φ-.
        let s = BellDiagonal::perfect().apply_pauli_noise(0.0, 0.0, 1.0);
        assert!((s.coeff(BellState::PhiMinus) - 1.0).abs() < 1e-12);
        // An X flip maps Φ+ to Ψ+.
        let s = BellDiagonal::perfect().apply_pauli_noise(1.0, 0.0, 0.0);
        assert!((s.coeff(BellState::PsiPlus) - 1.0).abs() < 1e-12);
        // A Y flip maps Φ+ to Ψ-.
        let s = BellDiagonal::perfect().apply_pauli_noise(0.0, 1.0, 0.0);
        assert!((s.coeff(BellState::PsiMinus) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dejmps_rotation_swaps_b_d() {
        let s = BellDiagonal::new([0.7, 0.1, 0.15, 0.05]).unwrap();
        let r = s.dejmps_rotate();
        assert_eq!(r.coeff(BellState::PsiMinus), 0.05);
        assert_eq!(r.coeff(BellState::PhiMinus), 0.1);
        assert_eq!(r.coeff(BellState::PhiPlus), 0.7);
        // Involution.
        assert!(r.dejmps_rotate().approx_eq(&s, 1e-15));
    }

    #[test]
    fn normalized_rescales() {
        let s = BellDiagonal {
            coeffs: [0.2, 0.1, 0.1, 0.1],
        };
        let n = s.normalized();
        assert_normalized(&n);
        assert!((n.coeff(BellState::PhiPlus) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_all_components() {
        let s = BellDiagonal::maximally_mixed().to_string();
        for tag in ["Φ+", "Ψ-", "Ψ+", "Φ-"] {
            assert!(s.contains(tag));
        }
    }
}
