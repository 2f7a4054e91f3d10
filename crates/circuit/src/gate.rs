//! The single-qubit gate alphabet.

use std::fmt;

use qdt_complex::{Complex, Matrix};

/// A single-qubit gate, optionally parameterised by rotation angles.
///
/// Multi-qubit gates are represented in the IR as a single-qubit [`Gate`]
/// plus a list of control qubits (e.g. CNOT = `Gate::X` with one control,
/// Toffoli = `Gate::X` with two controls); see
/// [`Instruction`](crate::Instruction). The SWAP gate is the one primitive
/// that does not fit this shape and is special-cased in the IR.
///
/// # Example
///
/// ```
/// use qdt_circuit::Gate;
///
/// let m = Gate::H.matrix();
/// assert!(m.is_unitary(1e-12));
/// assert_eq!(Gate::S.inverse(), Gate::Sdg);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Identity.
    I,
    /// Pauli-X (NOT).
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Hadamard.
    H,
    /// Phase gate S = diag(1, i).
    S,
    /// Inverse phase gate S† = diag(1, −i).
    Sdg,
    /// π/8 gate T = diag(1, e^{iπ/4}).
    T,
    /// Inverse T gate.
    Tdg,
    /// Square root of X.
    Sx,
    /// Inverse square root of X.
    Sxdg,
    /// Rotation about the X axis by the given angle.
    Rx(f64),
    /// Rotation about the Y axis by the given angle.
    Ry(f64),
    /// Rotation about the Z axis by the given angle.
    Rz(f64),
    /// Phase gate diag(1, e^{iθ}) (OpenQASM `p`/`u1`).
    Phase(f64),
    /// The generic single-qubit gate `U(θ, φ, λ)` (OpenQASM `u`/`u3`).
    U(f64, f64, f64),
}

impl Gate {
    /// The 2×2 unitary matrix of the gate.
    pub fn matrix(&self) -> Matrix {
        let z = Complex::ZERO;
        let o = Complex::ONE;
        let i = Complex::I;
        match *self {
            Gate::I => Matrix::identity(2),
            Gate::X => Matrix::from_rows(2, 2, &[z, o, o, z]),
            Gate::Y => Matrix::from_rows(2, 2, &[z, -i, i, z]),
            Gate::Z => Matrix::from_rows(2, 2, &[o, z, z, -o]),
            Gate::H => Matrix::hadamard(),
            Gate::S => Matrix::from_rows(2, 2, &[o, z, z, i]),
            Gate::Sdg => Matrix::from_rows(2, 2, &[o, z, z, -i]),
            Gate::T => {
                Matrix::from_rows(2, 2, &[o, z, z, Complex::cis(std::f64::consts::FRAC_PI_4)])
            }
            Gate::Tdg => {
                Matrix::from_rows(2, 2, &[o, z, z, Complex::cis(-std::f64::consts::FRAC_PI_4)])
            }
            Gate::Sx => {
                // √X = ½ [[1+i, 1−i], [1−i, 1+i]]
                let p = Complex::new(0.5, 0.5);
                let m = Complex::new(0.5, -0.5);
                Matrix::from_rows(2, 2, &[p, m, m, p])
            }
            Gate::Sxdg => {
                let p = Complex::new(0.5, 0.5);
                let m = Complex::new(0.5, -0.5);
                Matrix::from_rows(2, 2, &[m, p, p, m])
            }
            Gate::Rx(t) => {
                let (c, sn) = ((t / 2.0).cos(), (t / 2.0).sin());
                Matrix::from_rows(
                    2,
                    2,
                    &[
                        Complex::real(c),
                        Complex::new(0.0, -sn),
                        Complex::new(0.0, -sn),
                        Complex::real(c),
                    ],
                )
            }
            Gate::Ry(t) => {
                let (c, sn) = ((t / 2.0).cos(), (t / 2.0).sin());
                Matrix::from_rows(
                    2,
                    2,
                    &[
                        Complex::real(c),
                        Complex::real(-sn),
                        Complex::real(sn),
                        Complex::real(c),
                    ],
                )
            }
            Gate::Rz(t) => {
                Matrix::from_rows(2, 2, &[Complex::cis(-t / 2.0), z, z, Complex::cis(t / 2.0)])
            }
            Gate::Phase(t) => Matrix::from_rows(2, 2, &[o, z, z, Complex::cis(t)]),
            Gate::U(theta, phi, lambda) => {
                let (c, sn) = ((theta / 2.0).cos(), (theta / 2.0).sin());
                Matrix::from_rows(
                    2,
                    2,
                    &[
                        Complex::real(c),
                        -Complex::cis(lambda).scale(sn),
                        Complex::cis(phi).scale(sn),
                        Complex::cis(phi + lambda).scale(c),
                    ],
                )
            }
        }
    }

    /// The inverse gate `g†`, as a [`Gate`].
    pub fn inverse(&self) -> Gate {
        match *self {
            Gate::I => Gate::I,
            Gate::X => Gate::X,
            Gate::Y => Gate::Y,
            Gate::Z => Gate::Z,
            Gate::H => Gate::H,
            Gate::S => Gate::Sdg,
            Gate::Sdg => Gate::S,
            Gate::T => Gate::Tdg,
            Gate::Tdg => Gate::T,
            Gate::Sx => Gate::Sxdg,
            Gate::Sxdg => Gate::Sx,
            Gate::Rx(t) => Gate::Rx(-t),
            Gate::Ry(t) => Gate::Ry(-t),
            Gate::Rz(t) => Gate::Rz(-t),
            Gate::Phase(t) => Gate::Phase(-t),
            Gate::U(theta, phi, lambda) => Gate::U(-theta, -lambda, -phi),
        }
    }

    /// The lower-case OpenQASM-style name of the gate (without parameters).
    pub fn name(&self) -> &'static str {
        match self {
            Gate::I => "id",
            Gate::X => "x",
            Gate::Y => "y",
            Gate::Z => "z",
            Gate::H => "h",
            Gate::S => "s",
            Gate::Sdg => "sdg",
            Gate::T => "t",
            Gate::Tdg => "tdg",
            Gate::Sx => "sx",
            Gate::Sxdg => "sxdg",
            Gate::Rx(_) => "rx",
            Gate::Ry(_) => "ry",
            Gate::Rz(_) => "rz",
            Gate::Phase(_) => "p",
            Gate::U(..) => "u",
        }
    }

    /// Rotation parameters of the gate, if any.
    pub fn params(&self) -> Vec<f64> {
        match *self {
            Gate::Rx(t) | Gate::Ry(t) | Gate::Rz(t) | Gate::Phase(t) => vec![t],
            Gate::U(a, b, c) => vec![a, b, c],
            _ => vec![],
        }
    }

    /// Returns `true` unless some rotation angle is NaN or infinite.
    pub(crate) fn has_finite_params(&self) -> bool {
        match *self {
            Gate::Rx(t) | Gate::Ry(t) | Gate::Rz(t) | Gate::Phase(t) => t.is_finite(),
            Gate::U(a, b, c) => a.is_finite() && b.is_finite() && c.is_finite(),
            _ => true,
        }
    }

    /// Returns `true` if the gate is (exactly) a Clifford gate.
    ///
    /// Parameterised rotations are reported as Clifford only when their
    /// angle is a multiple of π/2 within `1e-12`.
    pub fn is_clifford(&self) -> bool {
        let quarter = |t: f64| {
            let r = t / std::f64::consts::FRAC_PI_2;
            (r - r.round()).abs() < 1e-12
        };
        match *self {
            Gate::I
            | Gate::X
            | Gate::Y
            | Gate::Z
            | Gate::H
            | Gate::S
            | Gate::Sdg
            | Gate::Sx
            | Gate::Sxdg => true,
            Gate::T | Gate::Tdg => false,
            Gate::Rx(t) | Gate::Ry(t) | Gate::Rz(t) | Gate::Phase(t) => quarter(t),
            Gate::U(a, b, c) => quarter(a) && quarter(b) && quarter(c),
        }
    }

    /// Returns `true` if the gate is diagonal in the computational basis.
    pub fn is_diagonal(&self) -> bool {
        matches!(
            self,
            Gate::I
                | Gate::Z
                | Gate::S
                | Gate::Sdg
                | Gate::T
                | Gate::Tdg
                | Gate::Rz(_)
                | Gate::Phase(_)
        )
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let params = self.params();
        if params.is_empty() {
            write!(f, "{}", self.name())
        } else {
            let joined = params
                .iter()
                .map(|p| format!("{p:.6}"))
                .collect::<Vec<_>>()
                .join(",");
            write!(f, "{}({})", self.name(), joined)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_FIXED: [Gate; 11] = [
        Gate::I,
        Gate::X,
        Gate::Y,
        Gate::Z,
        Gate::H,
        Gate::S,
        Gate::Sdg,
        Gate::T,
        Gate::Tdg,
        Gate::Sx,
        Gate::Sxdg,
    ];

    #[test]
    fn all_matrices_are_unitary() {
        for g in ALL_FIXED {
            assert!(g.matrix().is_unitary(1e-12), "{g} not unitary");
        }
        for g in [
            Gate::Rx(0.3),
            Gate::Ry(-1.2),
            Gate::Rz(2.5),
            Gate::Phase(0.9),
            Gate::U(0.4, 1.1, -0.7),
        ] {
            assert!(g.matrix().is_unitary(1e-12), "{g} not unitary");
        }
    }

    #[test]
    fn inverse_matrices_multiply_to_identity() {
        let id = Matrix::identity(2);
        let gates = [
            Gate::I,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::H,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Tdg,
            Gate::Sx,
            Gate::Sxdg,
            Gate::Rx(0.77),
            Gate::Ry(-0.3),
            Gate::Rz(1.9),
            Gate::Phase(2.1),
            Gate::U(0.5, -0.4, 0.3),
        ];
        for g in gates {
            let prod = g.matrix().mul(&g.inverse().matrix());
            assert!(prod.approx_eq(&id, 1e-12), "{g} inverse wrong");
        }
    }

    #[test]
    fn s_squared_is_z() {
        let s2 = Gate::S.matrix().mul(&Gate::S.matrix());
        assert!(s2.approx_eq(&Gate::Z.matrix(), 1e-12));
    }

    #[test]
    fn t_squared_is_s() {
        let t2 = Gate::T.matrix().mul(&Gate::T.matrix());
        assert!(t2.approx_eq(&Gate::S.matrix(), 1e-12));
    }

    #[test]
    fn sx_squared_is_x() {
        let sx2 = Gate::Sx.matrix().mul(&Gate::Sx.matrix());
        assert!(sx2.approx_eq(&Gate::X.matrix(), 1e-12));
    }

    #[test]
    fn hzh_is_x() {
        let h = Gate::H.matrix();
        let hzh = h.mul(&Gate::Z.matrix()).mul(&h);
        assert!(hzh.approx_eq(&Gate::X.matrix(), 1e-12));
    }

    #[test]
    fn u_gate_generalises_others() {
        use std::f64::consts::PI;
        // u(π, 0, π) = X
        assert!(Gate::U(PI, 0.0, PI)
            .matrix()
            .approx_eq(&Gate::X.matrix(), 1e-12));
        // u(π/2, 0, π) = H
        assert!(Gate::U(PI / 2.0, 0.0, PI)
            .matrix()
            .approx_eq(&Gate::H.matrix(), 1e-12));
        // u(0, 0, λ) = Phase(λ)
        assert!(Gate::U(0.0, 0.0, 0.4)
            .matrix()
            .approx_eq(&Gate::Phase(0.4).matrix(), 1e-12));
    }

    #[test]
    fn rz_equals_phase_up_to_global_phase() {
        let rz = Gate::Rz(0.8).matrix();
        let p = Gate::Phase(0.8).matrix();
        assert!(rz.approx_eq_up_to_global_phase(&p, 1e-12));
        assert!(!rz.approx_eq(&p, 1e-12));
    }

    #[test]
    fn clifford_classification() {
        assert!(Gate::H.is_clifford());
        assert!(Gate::S.is_clifford());
        assert!(!Gate::T.is_clifford());
        assert!(Gate::Rz(std::f64::consts::PI).is_clifford());
        assert!(!Gate::Rz(0.3).is_clifford());
    }

    #[test]
    fn diagonal_classification() {
        assert!(Gate::Z.is_diagonal());
        assert!(Gate::T.is_diagonal());
        assert!(Gate::Rz(0.2).is_diagonal());
        assert!(!Gate::X.is_diagonal());
        assert!(!Gate::H.is_diagonal());
    }

    #[test]
    fn display_includes_params() {
        assert_eq!(Gate::H.to_string(), "h");
        assert!(Gate::Rz(0.5).to_string().starts_with("rz(0.5"));
    }
}
