//! Dense complex matrices — the "two-dimensional arrays" of Section II of
//! the reproduced paper.
//!
//! These matrices serve two roles in the suite: they *are* the array-based
//! representation of quantum operations (used by `qdt-array`), and they are
//! the ground truth every other representation (decision diagrams, tensor
//! networks, ZX-diagrams) is validated against in tests.

use std::fmt;

use crate::Complex;

/// A dense, row-major complex matrix.
///
/// # Example
///
/// ```
/// use qdt_complex::Matrix;
///
/// let h = Matrix::hadamard();
/// assert!(h.is_unitary(1e-12));
/// // H² = I
/// assert!(h.mul(&h).approx_eq(&Matrix::identity(2), 1e-12));
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![Complex::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, Complex::ONE);
        }
        m
    }

    /// Creates a matrix from a row-major slice of `rows · cols` entries.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[Complex]) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match {rows}x{cols}",
            data.len()
        );
        Matrix {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Creates a column vector (an `n × 1` matrix).
    pub fn column(entries: &[Complex]) -> Self {
        Matrix::from_rows(entries.len(), 1, entries)
    }

    /// The 2×2 Hadamard matrix `1/√2 [[1, 1], [1, -1]]`.
    pub fn hadamard() -> Self {
        let s = crate::FRAC_1_SQRT_2;
        Matrix::from_rows(
            2,
            2,
            &[
                Complex::real(s),
                Complex::real(s),
                Complex::real(s),
                Complex::real(-s),
            ],
        )
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the entry at (`r`, `c`).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> Complex {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Sets the entry at (`r`, `c`).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: Complex) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// A view of the underlying row-major data.
    pub fn as_slice(&self) -> &[Complex] {
        &self.data
    }

    /// A mutable view of the underlying row-major data, for in-place
    /// kernels (element `(r, c)` lives at `r * cols + c`).
    pub fn as_mut_slice(&mut self) -> &mut [Complex] {
        &mut self.data
    }

    /// Consumes the matrix and returns the underlying row-major data.
    pub fn into_vec(self) -> Vec<Complex> {
        self.data
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn mul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "cannot multiply {}x{} by {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == Complex::ZERO {
                    continue;
                }
                for j in 0..rhs.cols {
                    out.data[i * rhs.cols + j] += a * rhs.data[k * rhs.cols + j];
                }
            }
        }
        out
    }

    /// Element-wise sum.
    ///
    /// # Panics
    ///
    /// Panics if the shapes disagree.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Multiplies every entry by `s`.
    pub fn scale(&self, s: Complex) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&a| a * s).collect(),
        }
    }

    /// Kronecker (tensor) product `self ⊗ rhs`.
    ///
    /// For quantum registers with qubit 0 as the least significant bit,
    /// the operator on the full register is `U_{n-1} ⊗ … ⊗ U_0`.
    pub fn kron(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows * rhs.rows, self.cols * rhs.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                let a = self.data[i * self.cols + j];
                if a == Complex::ZERO {
                    continue;
                }
                for k in 0..rhs.rows {
                    for l in 0..rhs.cols {
                        out.set(i * rhs.rows + k, j * rhs.cols + l, a * rhs.get(k, l));
                    }
                }
            }
        }
        out
    }

    /// The conjugate transpose (adjoint) `self†`.
    pub fn dagger(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j).conj());
            }
        }
        out
    }

    /// The transpose without conjugation.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// The trace (sum of diagonal entries).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> Complex {
        assert_eq!(self.rows, self.cols, "trace requires a square matrix");
        (0..self.rows).map(|i| self.get(i, i)).sum()
    }

    /// The Frobenius norm `√(Σ|a_ij|²)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Returns `true` if `self† · self ≈ I` within `tol` per entry.
    pub fn is_unitary(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        self.dagger()
            .mul(self)
            .approx_eq(&Matrix::identity(self.rows), tol)
    }

    /// Entry-wise approximate equality.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| a.approx_eq(b, tol))
    }

    /// Approximate equality up to a global phase: returns `true` if there
    /// exists a unit-modulus `λ` with `self ≈ λ · other`, with `λ` read
    /// off the largest entry of `other` (both all-zero counts as equal).
    ///
    /// Quantum states and operators that differ only by a global phase are
    /// physically indistinguishable, so equivalence checking is typically
    /// performed modulo this factor.
    pub fn approx_eq_up_to_global_phase(&self, other: &Matrix, tol: f64) -> bool {
        if self.rows != other.rows || self.cols != other.cols {
            return false;
        }
        // Find the largest entry of `other` to estimate the phase robustly.
        let mut best = 0usize;
        let mut best_mag = 0.0;
        for (i, a) in other.data.iter().enumerate() {
            let m = a.norm_sqr();
            if m > best_mag {
                best_mag = m;
                best = i;
            }
        }
        if best_mag == 0.0 {
            return self.data.iter().all(|a| a.is_zero(tol));
        }
        let lambda = self.data[best] / other.data[best];
        (lambda.abs() - 1.0).abs() <= 1e-6
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| a.approx_eq(lambda * b, tol))
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:.4}{:+.4}i  ", self.get(i, j).re, self.get(i, j).im)?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pauli_x() -> Matrix {
        Matrix::from_rows(
            2,
            2,
            &[Complex::ZERO, Complex::ONE, Complex::ONE, Complex::ZERO],
        )
    }

    #[test]
    fn identity_is_multiplicative_identity() {
        let h = Matrix::hadamard();
        let i2 = Matrix::identity(2);
        assert!(h.mul(&i2).approx_eq(&h, 0.0));
        assert!(i2.mul(&h).approx_eq(&h, 0.0));
    }

    #[test]
    fn hadamard_is_unitary_and_self_inverse() {
        let h = Matrix::hadamard();
        assert!(h.is_unitary(1e-12));
        assert!(h.mul(&h).approx_eq(&Matrix::identity(2), 1e-12));
    }

    #[test]
    fn pauli_x_flips_basis_state() {
        let ket0 = Matrix::column(&[Complex::ONE, Complex::ZERO]);
        let ket1 = pauli_x().mul(&ket0);
        assert_eq!(ket1.get(0, 0), Complex::ZERO);
        assert_eq!(ket1.get(1, 0), Complex::ONE);
    }

    #[test]
    fn kron_dimensions_and_values() {
        let x = pauli_x();
        let i2 = Matrix::identity(2);
        let xi = x.kron(&i2);
        assert_eq!(xi.rows(), 4);
        assert_eq!(xi.cols(), 4);
        // X⊗I maps |00⟩ -> |10⟩ (qubit-1 flip)
        assert_eq!(xi.get(2, 0), Complex::ONE);
        assert_eq!(xi.get(0, 0), Complex::ZERO);
    }

    #[test]
    fn kron_mixed_product_property() {
        // (A⊗B)(C⊗D) = (AC)⊗(BD)
        let a = Matrix::hadamard();
        let b = pauli_x();
        let c = pauli_x();
        let d = Matrix::hadamard();
        let lhs = a.kron(&b).mul(&c.kron(&d));
        let rhs = a.mul(&c).kron(&b.mul(&d));
        assert!(lhs.approx_eq(&rhs, 1e-12));
    }

    #[test]
    fn dagger_reverses_products() {
        let a = Matrix::hadamard();
        let b = pauli_x();
        let lhs = a.mul(&b).dagger();
        let rhs = b.dagger().mul(&a.dagger());
        assert!(lhs.approx_eq(&rhs, 1e-12));
    }

    #[test]
    fn trace_of_identity() {
        assert!(Matrix::identity(5)
            .trace()
            .approx_eq(Complex::real(5.0), 1e-15));
    }

    #[test]
    fn frobenius_norm_of_unitary() {
        // ‖U‖_F = √n for an n×n unitary.
        let h = Matrix::hadamard();
        assert!((h.frobenius_norm() - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn global_phase_equality() {
        let h = Matrix::hadamard();
        let phased = h.scale(Complex::cis(0.7));
        assert!(h.approx_eq_up_to_global_phase(&phased, 1e-12));
        assert!(!h.approx_eq(&phased, 1e-12));
        assert!(!h.approx_eq_up_to_global_phase(&pauli_x(), 1e-9));
    }

    #[test]
    fn global_phase_rejects_different_magnitude() {
        let h = Matrix::hadamard();
        let scaled = h.scale(Complex::real(2.0));
        assert!(!h.approx_eq_up_to_global_phase(&scaled, 1e-9));
    }

    #[test]
    #[should_panic(expected = "cannot multiply")]
    fn dimension_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.mul(&b);
    }

    #[test]
    fn zero_matrix_global_phase() {
        let z = Matrix::zeros(2, 2);
        assert!(z.approx_eq_up_to_global_phase(&Matrix::zeros(2, 2), 1e-12));
        assert!(!Matrix::identity(2).approx_eq_up_to_global_phase(&z, 1e-12));
    }
}
