//! Pauli strings — the observables of variational workloads.

use std::fmt;
use std::str::FromStr;

use qdt_complex::{Complex, Matrix};

use crate::Gate;

/// A single-qubit Pauli operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pauli {
    /// Identity.
    I,
    /// Pauli-X.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
}

impl Pauli {
    /// The 2×2 matrix of the operator.
    pub fn matrix(&self) -> Matrix {
        match self {
            Pauli::I => Gate::I.matrix(),
            Pauli::X => Gate::X.matrix(),
            Pauli::Y => Gate::Y.matrix(),
            Pauli::Z => Gate::Z.matrix(),
        }
    }

    /// Decomposes a 2×2 matrix in the Pauli basis and returns `(P, c)`
    /// when it is a single scaled Pauli `c·P`, else `None` (also for a
    /// matrix that is not 2×2). Coefficients of magnitude at most `1e-9`
    /// count as zero, so the zero matrix is `0·I`.
    ///
    /// ```
    /// use qdt_circuit::{Gate, Pauli};
    /// use qdt_complex::{Complex, Matrix};
    ///
    /// let k = Gate::Y.matrix().scale(Complex::real(0.5));
    /// let (p, c) = Pauli::from_scaled_matrix(&k).unwrap();
    /// assert_eq!(p, Pauli::Y);
    /// assert!((c.re - 0.5).abs() < 1e-12);
    /// assert!(Pauli::from_scaled_matrix(&Gate::H.matrix()).is_none());
    /// // A depolarizing channel at p = 0 has zero operators: weight 0.
    /// let (_, zero) = Pauli::from_scaled_matrix(&Matrix::zeros(2, 2)).unwrap();
    /// assert_eq!(zero.norm_sqr(), 0.0);
    /// ```
    pub fn from_scaled_matrix(m: &Matrix) -> Option<(Pauli, Complex)> {
        const TOL: f64 = 1e-9;
        if (m.rows(), m.cols()) != (2, 2) {
            return None;
        }
        let (a, b, c, d) = (m.get(0, 0), m.get(0, 1), m.get(1, 0), m.get(1, 1));
        // c_P = tr(P·M) / 2 (the Paulis are an orthogonal basis).
        let coeffs = [
            (Pauli::I, (a + d).scale(0.5)),
            (Pauli::X, (b + c).scale(0.5)),
            (Pauli::Y, (Complex::I * (b - c)).scale(0.5)),
            (Pauli::Z, (a - d).scale(0.5)),
        ];
        let mut nonzero = coeffs.iter().filter(|(_, c)| c.abs() > TOL);
        match (nonzero.next(), nonzero.next()) {
            (Some(&hit), None) => Some(hit),
            (None, _) => Some(coeffs[0]),
            _ => None,
        }
    }
}

/// A tensor product of Pauli operators, e.g. `"XIZZY"`.
///
/// Character `i` of the string acts on qubit `n−1−i` (most significant
/// first, matching how kets are written), so `"ZI"` is Z on qubit 1.
///
/// # Example
///
/// ```
/// use qdt_circuit::{Pauli, PauliString};
///
/// let p: PauliString = "XIZ".parse()?;
/// assert_eq!(p.num_qubits(), 3);
/// assert_eq!(p.op(2), Pauli::X); // leftmost char ↔ highest qubit
/// assert_eq!(p.op(0), Pauli::Z);
/// assert_eq!(p.weight(), 2);
/// # Ok::<(), qdt_circuit::ParsePauliError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PauliString {
    /// Operators indexed by qubit (index 0 = qubit 0).
    ops: Vec<Pauli>,
}

/// Error parsing a Pauli string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePauliError {
    /// The offending character.
    pub ch: char,
}

impl fmt::Display for ParsePauliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid Pauli character '{}' (expected I, X, Y or Z)",
            self.ch
        )
    }
}

impl std::error::Error for ParsePauliError {}

impl PauliString {
    /// Builds a string from per-qubit operators (index 0 = qubit 0).
    pub fn new(ops: Vec<Pauli>) -> Self {
        PauliString { ops }
    }

    /// The identity string on `n` qubits.
    pub fn identity(n: usize) -> Self {
        PauliString {
            ops: vec![Pauli::I; n],
        }
    }

    /// The number of qubits the string acts on.
    pub fn num_qubits(&self) -> usize {
        self.ops.len()
    }

    /// The operator on `qubit`.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    pub fn op(&self, qubit: usize) -> Pauli {
        self.ops[qubit]
    }

    /// The number of non-identity factors.
    pub fn weight(&self) -> usize {
        self.ops.iter().filter(|&&p| p != Pauli::I).count()
    }

    /// Iterates over `(qubit, operator)` pairs with non-identity
    /// operators.
    pub fn support(&self) -> impl Iterator<Item = (usize, Pauli)> + '_ {
        self.ops
            .iter()
            .enumerate()
            .filter(|(_, &p)| p != Pauli::I)
            .map(|(q, &p)| (q, p))
    }

    /// The dense `2^n × 2^n` matrix (for validation; ≤ 12 qubits).
    ///
    /// # Panics
    ///
    /// Panics above 12 qubits.
    pub fn matrix(&self) -> Matrix {
        assert!(self.num_qubits() <= 12, "dense Pauli limited to 12 qubits");
        let mut m = Matrix::identity(1);
        // Highest qubit is the leftmost Kronecker factor.
        for q in (0..self.num_qubits()).rev() {
            m = m.kron(&self.ops[q].matrix());
        }
        m
    }
}

impl FromStr for PauliString {
    type Err = ParsePauliError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut ops = Vec::with_capacity(s.len());
        // Leftmost char = most significant qubit.
        for ch in s.chars().rev() {
            ops.push(match ch.to_ascii_uppercase() {
                'I' => Pauli::I,
                'X' => Pauli::X,
                'Y' => Pauli::Y,
                'Z' => Pauli::Z,
                other => return Err(ParsePauliError { ch: other }),
            });
        }
        Ok(PauliString { ops })
    }
}

impl fmt::Display for PauliString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for q in (0..self.ops.len()).rev() {
            let c = match self.ops[q] {
                Pauli::I => 'I',
                Pauli::X => 'X',
                Pauli::Y => 'Y',
                Pauli::Z => 'Z',
            };
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdt_complex::Complex;

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["X", "IZ", "XYZI", "IIII"] {
            let p: PauliString = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("XQZ".parse::<PauliString>().is_err());
    }

    #[test]
    fn qubit_ordering() {
        let p: PauliString = "XZ".parse().unwrap();
        assert_eq!(p.op(0), Pauli::Z); // rightmost char
        assert_eq!(p.op(1), Pauli::X);
    }

    #[test]
    fn weight_and_support() {
        let p: PauliString = "XIZY".parse().unwrap();
        assert_eq!(p.weight(), 3);
        let support: Vec<_> = p.support().collect();
        assert_eq!(support, vec![(0, Pauli::Y), (1, Pauli::Z), (3, Pauli::X)]);
    }

    #[test]
    fn dense_matrix_of_zi() {
        // "ZI" = Z ⊗ I: diag(1, 1, −1, −1) with qubit 1 as the Z.
        let p: PauliString = "ZI".parse().unwrap();
        let m = p.matrix();
        assert!(m.get(0, 0).approx_eq(Complex::ONE, 1e-15));
        assert!(m.get(1, 1).approx_eq(Complex::ONE, 1e-15));
        assert!(m.get(2, 2).approx_eq(-Complex::ONE, 1e-15));
        assert!(m.get(3, 3).approx_eq(-Complex::ONE, 1e-15));
    }

    #[test]
    fn pauli_matrices_square_to_identity() {
        for p in [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z] {
            let m = p.matrix();
            assert!(m.mul(&m).approx_eq(&Matrix::identity(2), 1e-15));
        }
    }
}
