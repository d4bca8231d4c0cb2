//! Fidelity — the state-quality measure of Section 4.1.
//!
//! Fidelity measures the overlap between an operational state and a
//! reference ("error-free") state: 1 means the system is definitely in the
//! reference state, 0 means no overlap. For a state that passed through a
//! channel flipping a bit with probability `p`, the fidelity is `1 − p`, so
//! `1 − F` ("infidelity") is the error probability the paper plots on its
//! y-axes.

use std::cmp::Ordering;
use std::fmt;

/// Error raised when constructing a [`Fidelity`] from a value outside
/// `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvalidFidelityError(f64);

impl InvalidFidelityError {
    /// The rejected value.
    pub fn value(&self) -> f64 {
        self.0
    }
}

impl fmt::Display for InvalidFidelityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fidelity must lie in [0, 1], got {}", self.0)
    }
}

impl std::error::Error for InvalidFidelityError {}

/// A fidelity value, statically guaranteed to lie in `[0, 1]`.
///
/// `Fidelity` is a validated newtype over `f64` (guideline C-NEWTYPE): all
/// physics code takes and returns `Fidelity`, so range errors surface at the
/// construction boundary instead of deep inside a model.
///
/// # Example
///
/// ```
/// use qic_physics::fidelity::Fidelity;
///
/// let f = Fidelity::new(0.999)?;
/// assert!((f.infidelity() - 1e-3).abs() < 1e-12);
/// assert!(f > Fidelity::from_error(2e-3));
/// # Ok::<(), qic_physics::fidelity::InvalidFidelityError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Fidelity(f64);

impl Fidelity {
    /// Perfect fidelity (the reference state itself).
    pub const ONE: Fidelity = Fidelity(1.0);

    /// Zero overlap with the reference state.
    pub const ZERO: Fidelity = Fidelity(0.0);

    /// The fully mixed two-qubit state's overlap with any Bell state.
    pub const QUARTER: Fidelity = Fidelity(0.25);

    /// Creates a fidelity, validating that `value ∈ [0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidFidelityError`] if `value` is not finite or lies
    /// outside `[0, 1]`.
    pub fn new(value: f64) -> Result<Self, InvalidFidelityError> {
        if value.is_finite() && (0.0..=1.0).contains(&value) {
            Ok(Fidelity(value))
        } else {
            Err(InvalidFidelityError(value))
        }
    }

    /// Creates a fidelity, clamping `value` into `[0, 1]` (NaN maps to 0).
    ///
    /// Model code uses this at the end of floating-point pipelines where
    /// values may stray a ULP outside the range.
    pub fn new_clamped(value: f64) -> Self {
        if value.is_nan() {
            Fidelity(0.0)
        } else {
            Fidelity(value.clamp(0.0, 1.0))
        }
    }

    /// Creates the fidelity `1 − error`, clamping into `[0, 1]`.
    pub fn from_error(error: f64) -> Self {
        Fidelity::new_clamped(1.0 - error)
    }

    /// The raw value in `[0, 1]`.
    pub fn value(self) -> f64 {
        self.0
    }

    /// The infidelity `1 − F` — the "error" plotted by Figures 8–9.
    pub fn infidelity(self) -> f64 {
        1.0 - self.0
    }

    /// The Werner-state *polarization* `(4F − 1)/3`, the quantity that
    /// multiplies under composition of depolarizing processes; Equation 3 is
    /// written in terms of it.
    pub fn polarization(self) -> f64 {
        (4.0 * self.0 - 1.0) / 3.0
    }

    /// Inverse of [`Fidelity::polarization`].
    pub fn from_polarization(s: f64) -> Self {
        Fidelity::new_clamped((3.0 * s + 1.0) / 4.0)
    }

    /// Multiplies fidelity by a survival probability (e.g. `(1 − pmv)^D` for
    /// ballistic movement, Equation 1).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `survival` lies outside `[0, 1]`.
    pub fn attenuate(self, survival: f64) -> Self {
        debug_assert!(
            (0.0..=1.0).contains(&survival),
            "survival must be a probability"
        );
        Fidelity::new_clamped(self.0 * survival)
    }

    /// Whether this fidelity meets a minimum threshold (e.g. the
    /// fault-tolerance threshold `1 − 7.5e-5` of Section 4.6).
    pub fn meets(self, threshold: Fidelity) -> bool {
        self.0 >= threshold.0
    }

    /// Total-order comparison (IEEE `totalOrder` on the valid range). Useful
    /// for sorting; values are guaranteed non-NaN by construction.
    pub fn total_cmp(&self, other: &Fidelity) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl fmt::Display for Fidelity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 > 0.99 {
            // Near one, the infidelity is the informative quantity.
            write!(f, "1-{:.3e}", self.infidelity())
        } else {
            write!(f, "{:.6}", self.0)
        }
    }
}

impl TryFrom<f64> for Fidelity {
    type Error = InvalidFidelityError;

    fn try_from(value: f64) -> Result<Self, Self::Error> {
        Fidelity::new(value)
    }
}

impl From<Fidelity> for f64 {
    fn from(f: Fidelity) -> f64 {
        f.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(Fidelity::new(0.5).is_ok());
        assert!(Fidelity::new(0.0).is_ok());
        assert!(Fidelity::new(1.0).is_ok());
        assert!(Fidelity::new(-0.1).is_err());
        assert!(Fidelity::new(1.1).is_err());
        assert!(Fidelity::new(f64::NAN).is_err());
        assert_eq!(Fidelity::new(1.5).unwrap_err().value(), 1.5);
    }

    #[test]
    fn clamping() {
        assert_eq!(Fidelity::new_clamped(1.2), Fidelity::ONE);
        assert_eq!(Fidelity::new_clamped(-0.2), Fidelity::ZERO);
        assert_eq!(Fidelity::new_clamped(f64::NAN), Fidelity::ZERO);
    }

    #[test]
    fn error_round_trip() {
        let f = Fidelity::from_error(1e-4);
        assert!((f.infidelity() - 1e-4).abs() < 1e-15);
    }

    #[test]
    fn polarization_round_trip() {
        for &v in &[0.25, 0.5, 0.75, 0.99, 1.0] {
            let f = Fidelity::new(v).unwrap();
            let back = Fidelity::from_polarization(f.polarization());
            assert!((back.value() - v).abs() < 1e-12);
        }
        // The fully mixed state has zero polarization.
        assert_eq!(Fidelity::QUARTER.polarization(), 0.0);
        assert_eq!(Fidelity::ONE.polarization(), 1.0);
    }

    #[test]
    fn attenuation() {
        let f = Fidelity::ONE.attenuate(0.9).attenuate(0.9);
        assert!((f.value() - 0.81).abs() < 1e-12);
    }

    #[test]
    fn threshold_check() {
        let threshold = Fidelity::from_error(7.5e-5);
        assert!(Fidelity::from_error(1e-5).meets(threshold));
        assert!(!Fidelity::from_error(1e-4).meets(threshold));
        assert!(threshold.meets(threshold));
    }

    #[test]
    fn display_form() {
        assert_eq!(Fidelity::new(0.5).unwrap().to_string(), "0.500000");
        let s = Fidelity::from_error(1e-6).to_string();
        assert!(s.starts_with("1-"), "near-one fidelities print as 1-ε: {s}");
    }

    #[test]
    fn ordering() {
        let mut v = [
            Fidelity::new(0.7).unwrap(),
            Fidelity::new(0.2).unwrap(),
            Fidelity::new(0.9).unwrap(),
        ];
        v.sort_by(Fidelity::total_cmp);
        assert_eq!(v[0].value(), 0.2);
        assert_eq!(v[2].value(), 0.9);
    }
}
