//! Small dense complex matrices (2×2 and 4×4) for the exact two-qubit
//! simulator.
//!
//! These are fixed-size, stack-allocated and specialised to the needs of
//! [`crate::density`]: products, adjoints, Kronecker products, traces and
//! Hermiticity/unitarity checks.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

use crate::complex::C64;

/// A 2×2 complex matrix (a single-qubit operator).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Mat2(pub [[C64; 2]; 2]);

impl Mat2 {
    /// The 2×2 identity.
    pub fn identity() -> Self {
        let mut m = Mat2::default();
        m.0[0][0] = C64::ONE;
        m.0[1][1] = C64::ONE;
        m
    }

    /// Builds a matrix from rows.
    pub const fn from_rows(rows: [[C64; 2]; 2]) -> Self {
        Mat2(rows)
    }

    /// Conjugate transpose.
    pub fn adjoint(&self) -> Mat2 {
        let mut out = Mat2::default();
        for r in 0..2 {
            for c in 0..2 {
                out.0[r][c] = self.0[c][r].conj();
            }
        }
        out
    }

    /// Whether `U·U† = I` within tolerance `tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        (*self * self.adjoint()).approx_eq(&Mat2::identity(), tol)
    }

    /// Element-wise approximate equality.
    pub fn approx_eq(&self, other: &Mat2, tol: f64) -> bool {
        for r in 0..2 {
            for c in 0..2 {
                if !self.0[r][c].approx_eq(other.0[r][c], tol) {
                    return false;
                }
            }
        }
        true
    }

    /// Kronecker product `self ⊗ rhs`, producing the 4×4 operator that
    /// applies `self` to the first qubit and `rhs` to the second.
    pub fn kron(&self, rhs: &Mat2) -> Mat4 {
        let mut out = Mat4::default();
        for r1 in 0..2 {
            for c1 in 0..2 {
                for r2 in 0..2 {
                    for c2 in 0..2 {
                        out.0[2 * r1 + r2][2 * c1 + c2] = self.0[r1][c1] * rhs.0[r2][c2];
                    }
                }
            }
        }
        out
    }
}

impl Mul for Mat2 {
    type Output = Mat2;

    fn mul(self, rhs: Mat2) -> Mat2 {
        let mut out = Mat2::default();
        for r in 0..2 {
            for c in 0..2 {
                let mut acc = C64::ZERO;
                for k in 0..2 {
                    acc += self.0[r][k] * rhs.0[k][c];
                }
                out.0[r][c] = acc;
            }
        }
        out
    }
}

/// A 4×4 complex matrix (a two-qubit operator or density matrix).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Mat4(pub [[C64; 4]; 4]);

impl Mat4 {
    /// The 4×4 identity.
    pub fn identity() -> Self {
        let mut m = Mat4::default();
        for i in 0..4 {
            m.0[i][i] = C64::ONE;
        }
        m
    }

    /// Builds a matrix from rows.
    pub const fn from_rows(rows: [[C64; 4]; 4]) -> Self {
        Mat4(rows)
    }

    /// The outer product `|v⟩⟨v|` of a 4-vector — a rank-1 projector when
    /// `v` is normalised.
    pub fn outer(v: &[C64; 4]) -> Mat4 {
        let mut out = Mat4::default();
        for r in 0..4 {
            for c in 0..4 {
                out.0[r][c] = v[r] * v[c].conj();
            }
        }
        out
    }

    /// Conjugate transpose.
    pub fn adjoint(&self) -> Mat4 {
        let mut out = Mat4::default();
        for r in 0..4 {
            for c in 0..4 {
                out.0[r][c] = self.0[c][r].conj();
            }
        }
        out
    }

    /// Matrix trace.
    pub fn trace(&self) -> C64 {
        (0..4).map(|i| self.0[i][i]).sum()
    }

    /// Scales every element by a real factor.
    pub fn scale(&self, k: f64) -> Mat4 {
        let mut out = *self;
        for r in 0..4 {
            for c in 0..4 {
                out.0[r][c] = out.0[r][c] * k;
            }
        }
        out
    }

    /// The conjugation `U · self · U†` — how a density matrix evolves under
    /// a unitary `U`.
    pub fn conjugate_by(&self, u: &Mat4) -> Mat4 {
        *u * *self * u.adjoint()
    }

    /// Whether `U·U† = I` within tolerance `tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        (*self * self.adjoint()).approx_eq(&Mat4::identity(), tol)
    }

    /// Whether the matrix is Hermitian within tolerance `tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        self.approx_eq(&self.adjoint(), tol)
    }

    /// Element-wise approximate equality.
    pub fn approx_eq(&self, other: &Mat4, tol: f64) -> bool {
        for r in 0..4 {
            for c in 0..4 {
                if !self.0[r][c].approx_eq(other.0[r][c], tol) {
                    return false;
                }
            }
        }
        true
    }
}

impl Add for Mat4 {
    type Output = Mat4;

    fn add(self, rhs: Mat4) -> Mat4 {
        let mut out = Mat4::default();
        for r in 0..4 {
            for c in 0..4 {
                out.0[r][c] = self.0[r][c] + rhs.0[r][c];
            }
        }
        out
    }
}

impl Sub for Mat4 {
    type Output = Mat4;

    fn sub(self, rhs: Mat4) -> Mat4 {
        let mut out = Mat4::default();
        for r in 0..4 {
            for c in 0..4 {
                out.0[r][c] = self.0[r][c] - rhs.0[r][c];
            }
        }
        out
    }
}

impl Mul for Mat4 {
    type Output = Mat4;

    fn mul(self, rhs: Mat4) -> Mat4 {
        let mut out = Mat4::default();
        for r in 0..4 {
            for c in 0..4 {
                let mut acc = C64::ZERO;
                for k in 0..4 {
                    acc += self.0[r][k] * rhs.0[k][c];
                }
                out.0[r][c] = acc;
            }
        }
        out
    }
}

impl Index<(usize, usize)> for Mat4 {
    type Output = C64;

    fn index(&self, (r, c): (usize, usize)) -> &C64 {
        &self.0[r][c]
    }
}

impl IndexMut<(usize, usize)> for Mat4 {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut C64 {
        &mut self.0[r][c]
    }
}

impl fmt::Display for Mat4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..4 {
            for c in 0..4 {
                write!(f, "{}{}", self.0[r][c], if c == 3 { "\n" } else { "  " })?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;

    #[test]
    fn identity_is_unit() {
        let i2 = Mat2::identity();
        assert!(i2.is_unitary(1e-12));
        let i4 = Mat4::identity();
        assert_eq!(i4.trace(), C64::real(4.0));
        assert!(i4.is_unitary(1e-12));
        assert!(i4.is_hermitian(1e-12));
    }

    #[test]
    fn kron_of_identities_is_identity() {
        let k = Mat2::identity().kron(&Mat2::identity());
        assert!(k.approx_eq(&Mat4::identity(), 1e-12));
    }

    #[test]
    fn kron_respects_products() {
        // (A⊗B)(C⊗D) = (AC)⊗(BD)
        let a = gates::pauli_x();
        let b = gates::hadamard();
        let c = gates::pauli_z();
        let d = gates::pauli_y();
        let lhs = a.kron(&b) * c.kron(&d);
        let rhs = (a * c).kron(&(b * d));
        assert!(lhs.approx_eq(&rhs, 1e-12));
    }

    #[test]
    fn outer_product_is_projector() {
        let v = [
            C64::real(1.0 / 2f64.sqrt()),
            C64::ZERO,
            C64::ZERO,
            C64::real(1.0 / 2f64.sqrt()),
        ];
        let p = Mat4::outer(&v);
        assert!((p * p).approx_eq(&p, 1e-12), "projector must be idempotent");
        assert!(p.is_hermitian(1e-12));
        assert!(p.trace().approx_eq(C64::ONE, 1e-12));
    }

    #[test]
    fn conjugation_preserves_trace() {
        let rho = Mat4::outer(&[C64::ONE, C64::ZERO, C64::ZERO, C64::ZERO]);
        let u = gates::cnot();
        let evolved = rho.conjugate_by(&u);
        assert!(evolved.trace().approx_eq(rho.trace(), 1e-12));
        assert!(evolved.is_hermitian(1e-12));
    }

    #[test]
    fn indexing() {
        let mut m = Mat4::identity();
        m[(2, 3)] = C64::I;
        assert_eq!(m[(2, 3)], C64::I);
        assert_eq!(m[(0, 0)], C64::ONE);
    }
}
