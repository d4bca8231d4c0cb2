//! A minimal complex-number type for the exact two-qubit simulator.
//!
//! The workspace deliberately avoids pulling a numerics crate for the sake
//! of one 4×4 density-matrix validator; this module implements exactly the
//! operations [`crate::matrix`] and [`crate::density`] need.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub};

/// A complex number with `f64` components.
///
/// # Example
///
/// ```
/// use qic_physics::complex::C64;
///
/// let i = C64::I;
/// assert_eq!(i * i, -C64::ONE);
/// assert_eq!(C64::new(3.0, 4.0).norm(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl C64 {
    /// The additive identity.
    pub const ZERO: C64 = C64 { re: 0.0, im: 0.0 };

    /// The multiplicative identity.
    pub const ONE: C64 = C64 { re: 1.0, im: 0.0 };

    /// The imaginary unit.
    pub const I: C64 = C64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    pub const fn new(re: f64, im: f64) -> Self {
        C64 { re, im }
    }

    /// Creates a purely real complex number.
    pub const fn real(re: f64) -> Self {
        C64 { re, im: 0.0 }
    }

    /// `e^{iθ}` — a unit phase.
    pub fn cis(theta: f64) -> Self {
        C64 {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        C64 {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared modulus `|z|²`.
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`.
    pub fn norm(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Whether both components are within `tol` of another value's.
    pub fn approx_eq(self, other: C64, tol: f64) -> bool {
        (self.re - other.re).abs() <= tol && (self.im - other.im).abs() <= tol
    }
}

impl Add for C64 {
    type Output = C64;

    fn add(self, rhs: C64) -> C64 {
        C64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for C64 {
    fn add_assign(&mut self, rhs: C64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for C64 {
    type Output = C64;

    fn sub(self, rhs: C64) -> C64 {
        C64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Neg for C64 {
    type Output = C64;

    fn neg(self) -> C64 {
        C64::new(-self.re, -self.im)
    }
}

impl Mul for C64 {
    type Output = C64;

    fn mul(self, rhs: C64) -> C64 {
        C64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for C64 {
    fn mul_assign(&mut self, rhs: C64) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for C64 {
    type Output = C64;

    fn mul(self, rhs: f64) -> C64 {
        C64::new(self.re * rhs, self.im * rhs)
    }
}

impl Mul<C64> for f64 {
    type Output = C64;

    fn mul(self, rhs: C64) -> C64 {
        rhs * self
    }
}

impl Div<f64> for C64 {
    type Output = C64;

    fn div(self, rhs: f64) -> C64 {
        C64::new(self.re / rhs, self.im / rhs)
    }
}

impl Sum for C64 {
    fn sum<I: Iterator<Item = C64>>(iter: I) -> C64 {
        iter.fold(C64::ZERO, Add::add)
    }
}

impl From<f64> for C64 {
    fn from(re: f64) -> C64 {
        C64::real(re)
    }
}

impl fmt::Display for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.4}+{:.4}i", self.re, self.im)
        } else {
            write!(f, "{:.4}-{:.4}i", self.re, -self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_axioms_spot_checks() {
        let a = C64::new(1.0, 2.0);
        let b = C64::new(-0.5, 3.0);
        assert_eq!(a + b, b + a);
        assert_eq!(a * b, b * a);
        assert_eq!(a + C64::ZERO, a);
        assert_eq!(a * C64::ONE, a);
        assert_eq!(a - a, C64::ZERO);
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert_eq!(C64::I * C64::I, -C64::ONE);
    }

    #[test]
    fn conjugate_and_norm() {
        let z = C64::new(3.0, -4.0);
        assert_eq!(z.conj(), C64::new(3.0, 4.0));
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.norm(), 5.0);
        assert!((z * z.conj()).approx_eq(C64::real(25.0), 1e-12));
    }

    #[test]
    fn cis_is_unit() {
        for k in 0..8 {
            let z = C64::cis(k as f64 * std::f64::consts::FRAC_PI_4);
            assert!((z.norm() - 1.0).abs() < 1e-12);
        }
        assert!(C64::cis(std::f64::consts::PI).approx_eq(-C64::ONE, 1e-12));
    }

    #[test]
    fn scalar_ops() {
        let z = C64::new(2.0, -6.0);
        assert_eq!(z * 0.5, C64::new(1.0, -3.0));
        assert_eq!(0.5 * z, z * 0.5);
        assert_eq!(z / 2.0, C64::new(1.0, -3.0));
    }

    #[test]
    fn sum_over_iterator() {
        let total: C64 = (0..4).map(|k| C64::new(k as f64, 1.0)).sum();
        assert_eq!(total, C64::new(6.0, 4.0));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(C64::new(1.0, 1.0).to_string(), "1.0000+1.0000i");
        assert_eq!(C64::new(1.0, -1.0).to_string(), "1.0000-1.0000i");
    }
}
