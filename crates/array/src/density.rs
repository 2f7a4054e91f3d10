//! The density-matrix substrate.
//!
//! Extends the array-based representation of Section II from pure states
//! to mixed states, enabling the noise-aware simulation the paper cites as
//! reference \[13\] (Grurl/Fuß/Wille). States are `2^n × 2^n` density
//! matrices ρ; gates act as `ρ → UρU†` and noise as Kraus channels
//! `ρ → Σ_i K_i ρ K_i†`. Circuits and noise models run on it through
//! `qdt-noise`'s `DensityMatrixEngine`.

use qdt_complex::{Complex, Matrix};
use qdt_parallel::{KernelContext, SharedSlice};

use crate::StateVector;

/// A mixed quantum state as a dense density matrix.
///
/// # Example
///
/// ```
/// use qdt_array::DensityMatrix;
/// use qdt_circuit::Gate;
/// use qdt_complex::{Complex, Matrix};
///
/// // A Bell state, then a 5% bit flip on qubit 0.
/// let mut rho = DensityMatrix::zero_state(2);
/// rho.apply_controlled_gate(&Gate::H.matrix(), 0, &[]);
/// rho.apply_controlled_gate(&Gate::X.matrix(), 1, &[0]);
/// let p: f64 = 0.05;
/// let kraus = [
///     Matrix::identity(2).scale(Complex::real((1.0 - p).sqrt())),
///     Gate::X.matrix().scale(Complex::real(p.sqrt())),
/// ];
/// rho.apply_kraus(&kraus, 0);
/// assert!(rho.purity() < 1.0); // noise mixes the state
/// assert!((rho.trace() - 1.0).abs() < 1e-10); // but channels preserve trace
/// ```
#[derive(Debug, Clone)]
pub struct DensityMatrix {
    num_qubits: usize,
    rho: Matrix,
}

/// Density matrices square the memory cost, so the cap is half the
/// state-vector exponent.
const MAX_DM_QUBITS: usize = 12;

impl DensityMatrix {
    /// The pure state `|0…0⟩⟨0…0|`.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits > 12` (density matrices square the memory
    /// footprint).
    pub fn zero_state(num_qubits: usize) -> Self {
        assert!(
            num_qubits <= MAX_DM_QUBITS,
            "{num_qubits} qubits exceed the density-matrix limit of {MAX_DM_QUBITS}"
        );
        let dim = 1usize << num_qubits;
        let mut rho = Matrix::zeros(dim, dim);
        rho.set(0, 0, Complex::ONE);
        DensityMatrix { num_qubits, rho }
    }

    /// The pure density matrix `|ψ⟩⟨ψ|` of a state vector.
    ///
    /// # Panics
    ///
    /// Panics if the state exceeds 12 qubits.
    pub fn from_pure(psi: &StateVector) -> Self {
        assert!(psi.num_qubits() <= MAX_DM_QUBITS, "state too large");
        let dim = psi.amplitudes().len();
        let mut rho = Matrix::zeros(dim, dim);
        for i in 0..dim {
            for j in 0..dim {
                rho.set(i, j, psi.amplitude(i) * psi.amplitude(j).conj());
            }
        }
        DensityMatrix {
            num_qubits: psi.num_qubits(),
            rho,
        }
    }

    /// The number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The raw density matrix.
    pub fn as_matrix(&self) -> &Matrix {
        &self.rho
    }

    /// `Tr(ρ)` — 1 for any valid state.
    pub fn trace(&self) -> f64 {
        self.rho.trace().re
    }

    /// `Tr(ρ²)` — 1 for pure states, `1/2^n` for the maximally mixed state.
    pub fn purity(&self) -> f64 {
        self.rho.mul(&self.rho).trace().re
    }

    /// Measurement probability of basis state `index` (the diagonal).
    pub fn probability(&self, index: usize) -> f64 {
        self.rho.get(index, index).re
    }

    /// All `2^n` measurement probabilities.
    pub fn probabilities(&self) -> Vec<f64> {
        (0..self.rho.rows()).map(|i| self.probability(i)).collect()
    }

    /// The fidelity `⟨ψ|ρ|ψ⟩` against a pure state.
    ///
    /// # Panics
    ///
    /// Panics if the qubit counts differ.
    pub fn fidelity_with_pure(&self, psi: &StateVector) -> f64 {
        assert_eq!(self.num_qubits, psi.num_qubits(), "qubit count mismatch");
        let dim = self.rho.rows();
        let mut acc = Complex::ZERO;
        for i in 0..dim {
            for j in 0..dim {
                acc += psi.amplitude(i).conj() * self.rho.get(i, j) * psi.amplitude(j);
            }
        }
        acc.re
    }

    /// Applies a (controlled) 2×2 unitary: `ρ → UρU†`, implemented as a
    /// row kernel followed by a conjugated column kernel so the cost stays
    /// `O(4^n)` per gate.
    ///
    /// # Panics
    ///
    /// Panics on invalid indices (as for
    /// [`StateVector::apply_controlled_gate`]).
    pub fn apply_controlled_gate(&mut self, gate: &Matrix, target: usize, controls: &[usize]) {
        self.apply_controlled_gate_with(gate, target, controls, &KernelContext::sequential());
    }

    /// [`DensityMatrix::apply_controlled_gate`] scheduled through a
    /// [`KernelContext`]: the left pass partitions over columns and the
    /// right pass over rows, so workers write disjoint strides of ρ.
    /// Results are bit-identical across thread counts.
    ///
    /// # Panics
    ///
    /// As [`DensityMatrix::apply_controlled_gate`].
    pub fn apply_controlled_gate_with(
        &mut self,
        gate: &Matrix,
        target: usize,
        controls: &[usize],
        ctx: &KernelContext,
    ) {
        assert_eq!((gate.rows(), gate.cols()), (2, 2), "gate must be 2x2");
        assert!(target < self.num_qubits, "target out of range");
        let mut cmask = 0usize;
        for &c in controls {
            assert!(c < self.num_qubits, "control out of range");
            assert_ne!(c, target, "control equals target");
            cmask |= 1 << c;
        }
        let m = [
            [gate.get(0, 0), gate.get(0, 1)],
            [gate.get(1, 0), gate.get(1, 1)],
        ];
        self.superoperator_passes(&m, 1usize << target, cmask, ctx);
    }

    /// The two passes of `ρ → UρU†` (or `KρK†` with `cmask = 0`): a left
    /// multiplication transforming row pairs of every column, then a
    /// right multiplication by the conjugate transforming column pairs of
    /// every row. Each `ctx.run` call completes before the next starts,
    /// and inside a pass workers own whole columns (resp. rows), so the
    /// writes are disjoint.
    fn superoperator_passes(
        &mut self,
        m: &[[Complex; 2]; 2],
        tbit: usize,
        cmask: usize,
        ctx: &KernelContext,
    ) {
        let dim = self.rho.rows();
        let data = SharedSlice::new(self.rho.as_mut_slice());
        // Left multiplication: rows transform, one column per item.
        ctx.run(dim, dim, &|range| {
            for col in range {
                for r0 in 0..dim {
                    if r0 & tbit != 0 || r0 & cmask != cmask {
                        continue;
                    }
                    let r1 = r0 | tbit;
                    // SAFETY: every touched index lies in the columns of
                    // this chunk's range; ranges are disjoint.
                    #[allow(unsafe_code)]
                    unsafe {
                        let a0 = data.get(r0 * dim + col);
                        let a1 = data.get(r1 * dim + col);
                        data.set(r0 * dim + col, m[0][0] * a0 + m[0][1] * a1);
                        data.set(r1 * dim + col, m[1][0] * a0 + m[1][1] * a1);
                    }
                }
            }
        });
        // Right multiplication by the dagger: columns transform with
        // conjugates, one row per item.
        ctx.run(dim, dim, &|range| {
            for row in range {
                for c0 in 0..dim {
                    if c0 & tbit != 0 || c0 & cmask != cmask {
                        continue;
                    }
                    let c1 = c0 | tbit;
                    // SAFETY: every touched index lies in the rows of
                    // this chunk's range; ranges are disjoint.
                    #[allow(unsafe_code)]
                    unsafe {
                        let a0 = data.get(row * dim + c0);
                        let a1 = data.get(row * dim + c1);
                        data.set(row * dim + c0, a0 * m[0][0].conj() + a1 * m[0][1].conj());
                        data.set(row * dim + c1, a0 * m[1][0].conj() + a1 * m[1][1].conj());
                    }
                }
            }
        });
    }

    /// Applies an arbitrary single-qubit Kraus channel, given directly
    /// by its operator list: `ρ → Σ_i K_i ρ K_i†`. This is the
    /// superoperator primitive the `qdt-noise` density-matrix engine
    /// drives.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range or an operator is not 2×2.
    pub fn apply_kraus(&mut self, kraus: &[Matrix], qubit: usize) {
        self.apply_kraus_with(kraus, qubit, &KernelContext::sequential());
    }

    /// [`DensityMatrix::apply_kraus`] scheduled through a
    /// [`KernelContext`]. Each operator's `K ρ K†` passes run in
    /// parallel internally, but the terms are accumulated sequentially in
    /// operator order so the floating-point sum — and therefore the
    /// result — is bit-identical across thread counts.
    ///
    /// # Panics
    ///
    /// As [`DensityMatrix::apply_kraus`].
    pub fn apply_kraus_with(&mut self, kraus: &[Matrix], qubit: usize, ctx: &KernelContext) {
        assert!(qubit < self.num_qubits, "qubit out of range");
        let dim = self.rho.rows();
        let mut acc = Matrix::zeros(dim, dim);
        for k in kraus {
            assert_eq!((k.rows(), k.cols()), (2, 2), "Kraus operator must be 2x2");
            let mut term = self.clone();
            term.apply_kraus_one_sided(k, qubit, ctx);
            acc = acc.add(&term.rho);
        }
        self.rho = acc;
    }

    /// `ρ → K ρ K†` for one (not necessarily unitary) 2×2 operator.
    fn apply_kraus_one_sided(&mut self, k: &Matrix, target: usize, ctx: &KernelContext) {
        let m = [[k.get(0, 0), k.get(0, 1)], [k.get(1, 0), k.get(1, 1)]];
        self.superoperator_passes(&m, 1usize << target, 0, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdt_circuit::generators;

    #[test]
    fn from_pure_round_trips() {
        let psi = StateVector::from_circuit(&generators::w_state(3)).unwrap();
        let dm = DensityMatrix::from_pure(&psi);
        assert!((dm.purity() - 1.0).abs() < 1e-12);
        assert!((dm.fidelity_with_pure(&psi) - 1.0).abs() < 1e-12);
    }
}
