//! The density-matrix substrate.
//!
//! Extends the array-based representation of Section II from pure states
//! to mixed states, enabling the noise-aware simulation the paper cites as
//! reference \[13\] (Grurl/Fuß/Wille). States are `2^n × 2^n` density
//! matrices ρ; gates act as `ρ → UρU†` and noise as Kraus channels
//! `ρ → Σ_i K_i ρ K_i†`. Both are one in-place sweep over the 2×2 blocks
//! of ρ on the target qubit: a gate maps each block `B` to `L·B·R†`, a
//! channel maps it through the 4×4 superoperator `Σ_i K_i ⊗ K̄_i`, so a
//! channel costs about as much as a gate. Circuits and noise models run
//! on it through `qdt-noise`'s `DensityMatrixEngine`.

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
    ///
    /// Computed as `Σ_ij |ρ_ij|²`, which equals `Tr(ρ²)` for Hermitian ρ,
    /// in `O(4^n)` instead of the `O(8^n)` matrix product.
    pub fn purity(&self) -> f64 {
        self.rho.as_slice().iter().map(|c| c.norm_sqr()).sum()
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

    /// Applies a (controlled) 2×2 unitary: `ρ → UρU†`, as one sweep over
    /// the 2×2 blocks of ρ on the target qubit, so the cost stays `O(4^n)`
    /// per gate.
    ///
    /// # Panics
    ///
    /// Panics on invalid indices (as for
    /// [`StateVector::apply_controlled_gate`]).
    pub fn apply_controlled_gate(&mut self, gate: &Matrix, target: usize, controls: &[usize]) {
        self.apply_controlled_gate_with(gate, target, controls, &KernelContext::sequential());
    }

    /// [`DensityMatrix::apply_controlled_gate`] scheduled through a
    /// [`KernelContext`]: workers own disjoint row pairs of ρ, so results
    /// are bit-identical across thread counts.
    ///
    /// Each block `B` becomes `L·B·R†`, where `L` is `U` when the block's
    /// rows satisfy the controls (`I` otherwise) and `R` likewise for its
    /// columns.
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
        let [u00, u01, u10, u11] = [
            gate.get(0, 0),
            gate.get(0, 1),
            gate.get(1, 0),
            gate.get(1, 1),
        ];
        self.sweep_blocks(
            1usize << target,
            ctx,
            |r0, c0, [mut b00, mut b01, mut b10, mut b11]| {
                if r0 & cmask == cmask {
                    (b00, b10) = (u00 * b00 + u01 * b10, u10 * b00 + u11 * b10);
                    (b01, b11) = (u00 * b01 + u01 * b11, u10 * b01 + u11 * b11);
                }
                if c0 & cmask == cmask {
                    (b00, b01) = (
                        b00 * u00.conj() + b01 * u01.conj(),
                        b00 * u10.conj() + b01 * u11.conj(),
                    );
                    (b10, b11) = (
                        b10 * u00.conj() + b11 * u01.conj(),
                        b10 * u10.conj() + b11 * u11.conj(),
                    );
                }
                [b00, b01, b10, b11]
            },
        );
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
    /// [`KernelContext`]. The operators are folded into the 4×4
    /// superoperator `S = Σ_i K_i ⊗ K̄_i` once per call, then one in-place
    /// sweep maps every 2×2 block of ρ on `qubit`, flattened row-major,
    /// through `S`. Workers own disjoint row pairs and each entry is
    /// computed the same way under any partition, so results are
    /// bit-identical across thread counts.
    ///
    /// # Panics
    ///
    /// As [`DensityMatrix::apply_kraus`].
    pub fn apply_kraus_with(&mut self, kraus: &[Matrix], qubit: usize, ctx: &KernelContext) {
        assert!(qubit < self.num_qubits, "qubit out of range");
        // S[(a,b),(c,d)] = Σ_i K_i[a][c] · conj(K_i[b][d]).
        let mut s = [[Complex::ZERO; 4]; 4];
        for k in kraus {
            assert_eq!((k.rows(), k.cols()), (2, 2), "Kraus operator must be 2x2");
            for (row, s_row) in s.iter_mut().enumerate() {
                for (col, entry) in s_row.iter_mut().enumerate() {
                    *entry += k.get(row >> 1, col >> 1) * k.get(row & 1, col & 1).conj();
                }
            }
        }
        self.sweep_blocks(1usize << qubit, ctx, |_, _, b| {
            std::array::from_fn(|i| {
                let r = &s[i];
                r[0] * b[0] + r[1] * b[1] + r[2] * b[2] + r[3] * b[3]
            })
        });
    }

    /// One in-place pass over the 2×2 blocks of ρ on the target bit
    /// `tbit`: the block on rows `(r0, r0|tbit)` and columns
    /// `(c0, c0|tbit)`, flattened row-major, is replaced by
    /// `f(r0, c0, block)`. A work item is one row pair, so workers write
    /// disjoint rows, and `f` sees the same inputs under any partition.
    fn sweep_blocks<F>(&mut self, tbit: usize, ctx: &KernelContext, f: F)
    where
        F: Fn(usize, usize, [Complex; 4]) -> [Complex; 4] + Sync,
    {
        let dim = self.rho.rows();
        let low = tbit - 1;
        let data = SharedSlice::new(self.rho.as_mut_slice());
        ctx.run(dim / 2, 2 * dim, &|range| {
            for pair in range {
                // Spread the pair index over every bit but `tbit`.
                let r0 = (pair & low) | ((pair & !low) << 1);
                // SAFETY: `pair < dim / 2` maps to a distinct `r0 < dim`
                // without `tbit`, so rows `r0` and `r0 | tbit` are two
                // disjoint in-bounds rows that belong to this item alone.
                #[allow(unsafe_code)]
                let (row0, row1) = unsafe {
                    let base = data.as_mut_ptr();
                    (
                        std::slice::from_raw_parts_mut(base.add(r0 * dim), dim),
                        std::slice::from_raw_parts_mut(base.add((r0 | tbit) * dim), dim),
                    )
                };
                let spans = row0
                    .chunks_exact_mut(2 * tbit)
                    .zip(row1.chunks_exact_mut(2 * tbit));
                for (span, (top, bottom)) in spans.enumerate() {
                    let (t0, t1) = top.split_at_mut(tbit);
                    let (b0, b1) = bottom.split_at_mut(tbit);
                    let cells = t0.iter_mut().zip(t1).zip(b0.iter_mut().zip(b1));
                    for (j, ((x00, x01), (x10, x11))) in cells.enumerate() {
                        let c0 = span * 2 * tbit + j;
                        [*x00, *x01, *x10, *x11] = f(r0, c0, [*x00, *x01, *x10, *x11]);
                    }
                }
            }
        });
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
