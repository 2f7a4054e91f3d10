//! The density-matrix substrate.
//!
//! Extends the array-based representation of Section II from pure states
//! to mixed states, enabling the noise-aware simulation the paper cites as
//! reference \[13\] (Grurl/Fuß/Wille). States are `2^n × 2^n` density
//! matrices ρ; gates act as `ρ → UρU†` and noise as Kraus channels
//! `ρ → Σ_i K_i ρ K_i†`.
//!
//! ρ is stored row-major, which is the vectorised form of ρ: a
//! [`StateVector`] of `2n` qubits whose entry `(r, c)` sits at index
//! `(r << n) | c`, so column bits are qubits `0..n` and row bits are
//! qubits `n..2n`. A gate is `U` on the row qubit and `Ū` on the column
//! qubit, run by the state vector's own kernels (SIMD levels, diagonal
//! skip, threading); a swap is one swap on each half. A channel is one
//! pass mapping each quad of entries through the 4×4 superoperator
//! `Σ_i K_i ⊗ K̄_i`, so it costs about as much as a gate. Circuits and
//! noise models run on it through `qdt-noise`'s `DensityMatrixEngine`.

use qdt_circuit::PauliString;
use qdt_complex::{Complex, Matrix};
use qdt_parallel::{KernelContext, SharedSlice};

use crate::state::PauliMasks;
use crate::StateVector;

/// Widest register a [`DensityMatrix`] holds. ρ has `4^n` entries, so
/// the cap is half the state-vector exponent.
pub const MAX_DENSITY_QUBITS: usize = 12;

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
    /// ρ as a `2n`-qubit vector: entry `(r, c)` at index `(r << n) | c`.
    vec: StateVector,
}

impl DensityMatrix {
    /// The pure state `|0…0⟩⟨0…0|`.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` exceeds [`MAX_DENSITY_QUBITS`] (density
    /// matrices square the memory footprint).
    pub fn zero_state(num_qubits: usize) -> Self {
        assert!(
            num_qubits <= MAX_DENSITY_QUBITS,
            "{num_qubits} qubits exceed the density-matrix limit of {MAX_DENSITY_QUBITS}"
        );
        DensityMatrix {
            num_qubits,
            vec: StateVector::zero_state(2 * num_qubits),
        }
    }

    /// The pure density matrix `|ψ⟩⟨ψ|` of a state vector.
    ///
    /// # Panics
    ///
    /// Panics if the state exceeds [`MAX_DENSITY_QUBITS`].
    pub fn from_pure(psi: &StateVector) -> Self {
        let n = psi.num_qubits();
        let mut rho = DensityMatrix::zero_state(n);
        let amps = psi.amplitudes();
        for (k, entry) in rho.vec.amplitudes_mut().iter_mut().enumerate() {
            *entry = amps[k >> n] * amps[k & (amps.len() - 1)].conj();
        }
        rho
    }

    /// The number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The entries of ρ, row-major: entry `(r, c)` at index `(r << n) | c`.
    pub fn entries(&self) -> &[Complex] {
        self.vec.amplitudes()
    }

    /// The entry `ρ[r][c]`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is not below `2^n`.
    pub fn entry(&self, r: usize, c: usize) -> Complex {
        let dim = 1usize << self.num_qubits;
        assert!(r < dim && c < dim, "entry ({r}, {c}) out of range");
        self.entries()[r << self.num_qubits | c]
    }

    /// ρ copied into a `2^n × 2^n` [`Matrix`].
    pub fn to_matrix(&self) -> Matrix {
        let dim = 1usize << self.num_qubits;
        Matrix::from_rows(dim, dim, self.entries())
    }

    /// `Tr(ρ)` — 1 for any valid state.
    pub fn trace(&self) -> f64 {
        self.probabilities().iter().sum()
    }

    /// `Tr(ρ²)` — 1 for pure states, `1/2^n` for the maximally mixed state.
    ///
    /// Computed as `Σ_ij |ρ_ij|²`, which equals `Tr(ρ²)` for Hermitian ρ,
    /// in `O(4^n)` instead of the `O(8^n)` matrix product.
    pub fn purity(&self) -> f64 {
        self.entries().iter().map(|c| c.norm_sqr()).sum()
    }

    /// Measurement probability of basis state `index` (the diagonal).
    pub fn probability(&self, index: usize) -> f64 {
        self.entry(index, index).re
    }

    /// All `2^n` measurement probabilities.
    pub fn probabilities(&self) -> Vec<f64> {
        (0..1usize << self.num_qubits)
            .map(|i| self.probability(i))
            .collect()
    }

    /// The fidelity `⟨ψ|ρ|ψ⟩` against a pure state.
    ///
    /// # Panics
    ///
    /// Panics if the qubit counts differ.
    pub fn fidelity_with_pure(&self, psi: &StateVector) -> f64 {
        assert_eq!(self.num_qubits, psi.num_qubits(), "qubit count mismatch");
        let amps = psi.amplitudes();
        let mut acc = Complex::ZERO;
        for (k, &entry) in self.entries().iter().enumerate() {
            acc += amps[k >> self.num_qubits].conj() * entry * amps[k & (amps.len() - 1)];
        }
        acc.re
    }

    /// `Tr(ρP)` for a Pauli string `P`, without materialising `P`: row
    /// `i` of `P` has its one nonzero at column `i ⊕ x`, with the phase
    /// rule of [`StateVector::expectation_pauli`], so
    /// `Tr(ρP) = Σ_i phase(i) · ρ[i ⊕ x][i]`, summed in index order.
    ///
    /// # Panics
    ///
    /// Panics if the string's width differs from the state's.
    pub fn expectation_pauli(&self, pauli: &PauliString) -> f64 {
        assert_eq!(pauli.num_qubits(), self.num_qubits, "Pauli width mismatch");
        let masks = PauliMasks::new(pauli, |q| q);
        (0..1usize << self.num_qubits)
            .map(|i| masks.re_phased(i, self.entry(i ^ masks.x, i)))
            .sum()
    }

    /// Applies a (controlled) 2×2 unitary: `ρ → UρU†`.
    ///
    /// # Panics
    ///
    /// Panics on invalid indices (as for
    /// [`StateVector::apply_controlled_gate`]).
    pub fn apply_controlled_gate(&mut self, gate: &Matrix, target: usize, controls: &[usize]) {
        self.apply_controlled_gate_with(gate, target, controls, &KernelContext::sequential());
    }

    /// [`DensityMatrix::apply_controlled_gate`] scheduled through a
    /// [`KernelContext`]: `U` on the row qubit `target + n` under the
    /// row controls, then `Ū` on the column qubit `target` under the
    /// column controls, each one [`StateVector::apply_controlled_gate_with`]
    /// pass, so results are bit-identical across thread counts.
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
        let n = self.num_qubits;
        assert!(target < n, "target out of range");
        assert!(controls.iter().all(|&c| c < n), "control out of range");
        let rows: Vec<usize> = controls.iter().map(|c| c + n).collect();
        self.vec
            .apply_controlled_gate_with(gate, target + n, &rows, ctx);
        let conj = gate.dagger().transpose();
        self.vec
            .apply_controlled_gate_with(&conj, target, controls, ctx);
    }

    /// Swaps qubits `a` and `b` of ρ, optionally controlled: one swap on
    /// the row qubits and one on the column qubits.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range or duplicate indices (as for
    /// [`StateVector::apply_swap`]).
    pub fn apply_swap_with(&mut self, a: usize, b: usize, controls: &[usize], ctx: &KernelContext) {
        let n = self.num_qubits;
        assert!(a < n && b < n, "qubit out of range");
        assert!(controls.iter().all(|&c| c < n), "control out of range");
        let rows: Vec<usize> = controls.iter().map(|c| c + n).collect();
        self.vec.apply_swap_with(a + n, b + n, &rows, ctx);
        self.vec.apply_swap_with(a, b, controls, ctx);
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
    /// pass maps every quad of entries on (row, column) qubits
    /// `(qubit + n, qubit)` — the 2×2 block of ρ flattened row-major —
    /// through `S`. Workers own disjoint quads and each entry is computed
    /// the same way under any partition, so results are bit-identical
    /// across thread counts.
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
        let col = 1usize << qubit;
        let row = col << self.num_qubits;
        let entries = SharedSlice::new(self.vec.amplitudes_mut());
        ctx.run(entries.len() / 4, 2, &|range| {
            for quad in range {
                // Spread the quad index over every bit but `col` and `row`.
                let i = (quad & (col - 1)) | ((quad & !(col - 1)) << 1);
                let i = (i & (row - 1)) | ((i & !(row - 1)) << 1);
                let at = [i, i | col, i | row, i | row | col];
                // SAFETY: distinct quads spread to disjoint in-bounds index
                // sets, and a work item is one quad, so no other worker
                // reads or writes these four entries.
                #[allow(unsafe_code)]
                unsafe {
                    let x = at.map(|k| entries.get(k));
                    for (r, &k) in s.iter().zip(&at) {
                        entries.set(k, r[0] * x[0] + r[1] * x[1] + r[2] * x[2] + r[3] * x[3]);
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
