//! Operation error probabilities — **Table 2** of the paper.
//!
//! | Operation      | Variable | Error probability |
//! |----------------|----------|-------------------|
//! | One-qubit gate | `p1q`    | 1e-8              |
//! | Two-qubit gate | `p2q`    | 1e-7              |
//! | Move one cell  | `pmv`    | 1e-6              |
//! | Measure        | `pms`    | 1e-8              |
//!
//! Estimates come from Metodi et al. (MICRO 2005) and the ARDA roadmap
//! (references [19, 29] of the paper).

use std::fmt;

/// Error raised when a probability parameter lies outside `[0, 1]` or is not
/// finite.
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidProbabilityError {
    name: &'static str,
    value: f64,
}

impl InvalidProbabilityError {
    /// The name of the offending parameter.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The rejected value.
    pub fn value(&self) -> f64 {
        self.value
    }
}

impl fmt::Display for InvalidProbabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "probability `{}` must lie in [0, 1], got {}",
            self.name, self.value
        )
    }
}

impl std::error::Error for InvalidProbabilityError {}

fn check(name: &'static str, value: f64) -> Result<f64, InvalidProbabilityError> {
    if value.is_finite() && (0.0..=1.0).contains(&value) {
        Ok(value)
    } else {
        Err(InvalidProbabilityError { name, value })
    }
}

/// Error probability constants for ion-trap operations (Table 2 of the
/// paper).
///
/// All values are probabilities in `[0, 1]`; the constructors validate this
/// invariant so downstream fidelity arithmetic never sees junk.
///
/// # Example
///
/// ```
/// use qic_physics::error::ErrorRates;
///
/// let r = ErrorRates::ion_trap();
/// assert_eq!(r.move_cell(), 1e-6);
/// // Uniform rates are used by the Figure 12 sensitivity sweep.
/// let u = ErrorRates::uniform(1e-5)?;
/// assert_eq!(u.one_qubit_gate(), u.measure());
/// # Ok::<(), qic_physics::error::InvalidProbabilityError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorRates {
    one_qubit_gate: f64,
    two_qubit_gate: f64,
    move_cell: f64,
    measure: f64,
}

impl ErrorRates {
    /// The published ion-trap estimates of Table 2
    /// (`p1q`=1e-8, `p2q`=1e-7, `pmv`=1e-6, `pms`=1e-8).
    pub fn ion_trap() -> Self {
        ErrorRates {
            one_qubit_gate: 1e-8,
            two_qubit_gate: 1e-7,
            move_cell: 1e-6,
            measure: 1e-8,
        }
    }

    /// A noiseless device; useful for isolating model terms in tests.
    pub fn noiseless() -> Self {
        ErrorRates {
            one_qubit_gate: 0.0,
            two_qubit_gate: 0.0,
            move_cell: 0.0,
            measure: 0.0,
        }
    }

    /// Sets **all four** error rates to `p`, as in the Figure 12 sensitivity
    /// sweep ("all error rates are set to the rate specified on the
    /// x-axis").
    ///
    /// # Errors
    ///
    /// Returns [`InvalidProbabilityError`] if `p` is not a probability.
    pub fn uniform(p: f64) -> Result<Self, InvalidProbabilityError> {
        let p = check("uniform", p)?;
        Ok(ErrorRates {
            one_qubit_gate: p,
            two_qubit_gate: p,
            move_cell: p,
            measure: p,
        })
    }

    /// Builds a fully custom rate set.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidProbabilityError`] if any argument is not a
    /// probability in `[0, 1]`.
    pub fn new(
        one_qubit_gate: f64,
        two_qubit_gate: f64,
        move_cell: f64,
        measure: f64,
    ) -> Result<Self, InvalidProbabilityError> {
        Ok(ErrorRates {
            one_qubit_gate: check("one_qubit_gate", one_qubit_gate)?,
            two_qubit_gate: check("two_qubit_gate", two_qubit_gate)?,
            move_cell: check("move_cell", move_cell)?,
            measure: check("measure", measure)?,
        })
    }

    /// Error probability of a one-qubit gate (`p1q`).
    pub fn one_qubit_gate(&self) -> f64 {
        self.one_qubit_gate
    }

    /// Error probability of a two-qubit gate (`p2q`).
    pub fn two_qubit_gate(&self) -> f64 {
        self.two_qubit_gate
    }

    /// Error probability of moving one cell ballistically (`pmv`).
    pub fn move_cell(&self) -> f64 {
        self.move_cell
    }

    /// Error probability of a measurement (`pms`).
    pub fn measure(&self) -> f64 {
        self.measure
    }

    /// Replaces the one-qubit-gate error rate.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidProbabilityError`] if `p` is not a probability.
    pub fn with_one_qubit_gate(mut self, p: f64) -> Result<Self, InvalidProbabilityError> {
        self.one_qubit_gate = check("one_qubit_gate", p)?;
        Ok(self)
    }

    /// Replaces the two-qubit-gate error rate.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidProbabilityError`] if `p` is not a probability.
    pub fn with_two_qubit_gate(mut self, p: f64) -> Result<Self, InvalidProbabilityError> {
        self.two_qubit_gate = check("two_qubit_gate", p)?;
        Ok(self)
    }

    /// Replaces the per-cell movement error rate.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidProbabilityError`] if `p` is not a probability.
    pub fn with_move_cell(mut self, p: f64) -> Result<Self, InvalidProbabilityError> {
        self.move_cell = check("move_cell", p)?;
        Ok(self)
    }

    /// Replaces the measurement error rate.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidProbabilityError`] if `p` is not a probability.
    pub fn with_measure(mut self, p: f64) -> Result<Self, InvalidProbabilityError> {
        self.measure = check("measure", p)?;
        Ok(self)
    }
}

impl Default for ErrorRates {
    /// Same as [`ErrorRates::ion_trap`].
    fn default() -> Self {
        ErrorRates::ion_trap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_values() {
        let r = ErrorRates::ion_trap();
        assert_eq!(r.one_qubit_gate(), 1e-8);
        assert_eq!(r.two_qubit_gate(), 1e-7);
        assert_eq!(r.move_cell(), 1e-6);
        assert_eq!(r.measure(), 1e-8);
    }

    #[test]
    fn uniform_sets_all() {
        let r = ErrorRates::uniform(1e-4).unwrap();
        assert_eq!(r.one_qubit_gate(), 1e-4);
        assert_eq!(r.two_qubit_gate(), 1e-4);
        assert_eq!(r.move_cell(), 1e-4);
        assert_eq!(r.measure(), 1e-4);
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(ErrorRates::uniform(-0.1).is_err());
        assert!(ErrorRates::uniform(1.5).is_err());
        assert!(ErrorRates::uniform(f64::NAN).is_err());
        let err = ErrorRates::new(2.0, 0.0, 0.0, 0.0).unwrap_err();
        assert_eq!(err.name(), "one_qubit_gate");
        assert_eq!(err.value(), 2.0);
        assert!(err.to_string().contains("one_qubit_gate"));
    }

    #[test]
    fn builders_validate() {
        let r = ErrorRates::noiseless();
        assert!(r.with_move_cell(0.5).is_ok());
        assert!(r.with_move_cell(-0.5).is_err());
        assert!(r.with_measure(1.0).is_ok());
        assert!(r.with_one_qubit_gate(f64::INFINITY).is_err());
        assert!(r.with_two_qubit_gate(0.3).is_ok());
    }

    #[test]
    fn noiseless_is_zero() {
        let r = ErrorRates::noiseless();
        assert_eq!(
            r.one_qubit_gate() + r.two_qubit_gate() + r.move_cell() + r.measure(),
            0.0
        );
    }
}
