//! Dense state vectors with in-place gate kernels.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Mutex, PoisonError};

use qdt_circuit::{Circuit, Instruction, OpKind};
use qdt_complex::{Complex, Matrix};
use qdt_parallel::{KernelContext, SharedSlice};
use rand::{Rng, RngCore};

use crate::ArrayError;

/// Maximum qubit count the dense representation will attempt
/// (2^30 amplitudes ≈ 16 GiB); chosen so that accidental huge allocations
/// fail fast with a useful error instead of an abort.
const MAX_QUBITS: usize = 30;

/// Amplitude buffers of at least this length (2^21 amplitudes, 32 MiB:
/// glibc's largest mmap threshold) are mapped fresh on allocation and
/// unmapped on free, so every new state faults in every page again.
/// Smaller ones the allocator already recycles.
const SPARE_FLOOR: usize = 1 << 21;

/// The one spare amplitude buffer: the last dropped state at or above
/// [`SPARE_FLOOR`], handed back only to a state of exactly its length.
/// Every update is one `take` or `replace`, so a poisoned lock still
/// guards a valid value and is recovered.
static SPARE: Mutex<Option<Vec<Complex>>> = Mutex::new(None);

/// `dim` zero amplitudes. A request at or above [`SPARE_FLOOR`] takes
/// the spare when the lengths match, and otherwise frees it *before*
/// allocating, so a spare never coexists with a new large buffer.
fn zeroed_amplitudes(dim: usize) -> Vec<Complex> {
    if dim >= SPARE_FLOOR {
        let spare = SPARE.lock().unwrap_or_else(PoisonError::into_inner).take();
        if let Some(mut amps) = spare {
            if amps.len() == dim {
                amps.fill(Complex::ZERO);
                return amps;
            }
        }
    }
    vec![Complex::ZERO; dim]
}

/// A pure quantum state stored as a dense array of `2^n` amplitudes.
///
/// Qubit 0 is the least significant bit of a basis-state index, so the
/// amplitude of `|q_{n-1} … q_1 q_0⟩` lives at index
/// `q_0 + 2·q_1 + … + 2^{n-1}·q_{n-1}`.
///
/// # Example
///
/// ```
/// use qdt_array::StateVector;
/// use qdt_circuit::Gate;
///
/// let mut psi = StateVector::zero_state(1);
/// psi.apply_gate(&Gate::H.matrix(), 0);
/// assert!((psi.probability(0) - 0.5).abs() < 1e-12);
/// ```
#[derive(Clone, PartialEq)]
pub struct StateVector {
    num_qubits: usize,
    amps: Vec<Complex>,
}

impl Drop for StateVector {
    /// Keeps a buffer of at least 2^21 amplitudes as the spare for the
    /// next state of its length, freeing the spare it replaces.
    fn drop(&mut self) {
        // A larger capacity would hide memory from `memory_bytes()`.
        if self.amps.len() >= SPARE_FLOOR && self.amps.capacity() == self.amps.len() {
            let amps = std::mem::take(&mut self.amps);
            let replaced = SPARE
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .replace(amps);
            // The lock is released: free the old spare outside it.
            drop(replaced);
        }
    }
}

impl StateVector {
    /// The all-zeros basis state `|0…0⟩` on `num_qubits` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` exceeds the dense-representation limit
    /// (30 qubits / 16 GiB) — the paper's Section II point, enforced.
    pub fn zero_state(num_qubits: usize) -> Self {
        Self::basis_state(num_qubits, 0)
    }

    /// The computational basis state `|index⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits > 30` or `index >= 2^num_qubits`.
    pub fn basis_state(num_qubits: usize, index: usize) -> Self {
        assert!(
            num_qubits <= MAX_QUBITS,
            "{num_qubits} qubits exceed the dense-array limit of {MAX_QUBITS}"
        );
        let dim = 1usize << num_qubits;
        assert!(index < dim, "basis index {index} out of range");
        let mut amps = zeroed_amplitudes(dim);
        amps[index] = Complex::ONE;
        StateVector { num_qubits, amps }
    }

    /// Builds a state from an explicit amplitude vector.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::NotPowerOfTwo`] if the length is not `2^n`,
    /// and [`ArrayError::NotNormalized`] if the 2-norm deviates from 1 by
    /// more than `1e-9`.
    pub fn from_amplitudes(amps: Vec<Complex>) -> Result<Self, ArrayError> {
        let len = amps.len();
        if len == 0 || len & (len - 1) != 0 {
            return Err(ArrayError::NotPowerOfTwo { len });
        }
        let num_qubits = len.trailing_zeros() as usize;
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        if (norm - 1.0).abs() > 1e-9 {
            return Err(ArrayError::NotNormalized { norm });
        }
        Ok(StateVector { num_qubits, amps })
    }

    /// Runs a unitary circuit on `|0…0⟩` and returns the final state.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::NonUnitary`] if the circuit contains
    /// measurement or reset (the shot executor runs those on
    /// [`ArrayEngine`](crate::ArrayEngine)) and
    /// [`ArrayError::TooManyQubits`] above the dense limit.
    pub fn from_circuit(circuit: &Circuit) -> Result<Self, ArrayError> {
        if circuit.num_qubits() > MAX_QUBITS {
            return Err(ArrayError::TooManyQubits {
                num_qubits: circuit.num_qubits(),
            });
        }
        let mut psi = StateVector::zero_state(circuit.num_qubits().max(1));
        for inst in circuit {
            psi.apply_instruction(inst)?;
        }
        Ok(psi)
    }

    /// The number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The amplitude array (length `2^n`).
    pub fn amplitudes(&self) -> &[Complex] {
        &self.amps
    }

    /// The amplitude array, for crate kernels that keep a pass of their
    /// own (the density channel).
    pub(crate) fn amplitudes_mut(&mut self) -> &mut [Complex] {
        &mut self.amps
    }

    /// The amplitude of basis state `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^n`.
    pub fn amplitude(&self, index: usize) -> Complex {
        self.amps[index]
    }

    /// Measurement probability of basis state `index`: `|α_index|²`.
    pub fn probability(&self, index: usize) -> f64 {
        self.amps[index].norm_sqr()
    }

    /// All `2^n` measurement probabilities.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// The 2-norm of the state (1 for a valid pure state).
    pub fn norm(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Rescales the state to unit norm.
    ///
    /// # Panics
    ///
    /// Panics if the state is (numerically) the zero vector.
    pub fn normalize(&mut self) {
        let n = self.norm();
        assert!(n > 1e-300, "cannot normalize the zero vector");
        for a in &mut self.amps {
            *a = *a / n;
        }
    }

    /// The inner product `⟨self|other⟩`.
    ///
    /// # Panics
    ///
    /// Panics if the qubit counts differ.
    pub fn inner_product(&self, other: &StateVector) -> Complex {
        assert_eq!(self.num_qubits, other.num_qubits, "qubit count mismatch");
        self.amps
            .iter()
            .zip(&other.amps)
            .map(|(&a, &b)| a.conj() * b)
            .sum()
    }

    /// The fidelity `|⟨self|other⟩|²`.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        self.inner_product(other).norm_sqr()
    }

    /// Returns `true` if the states agree up to a global phase within
    /// `tol` per amplitude.
    pub fn approx_eq_up_to_global_phase(&self, other: &StateVector, tol: f64) -> bool {
        Matrix::column(&self.amps).approx_eq_up_to_global_phase(&Matrix::column(&other.amps), tol)
    }

    /// Heap memory consumed by the amplitude array, in bytes — the
    /// quantity whose exponential growth Section II of the paper warns
    /// about.
    pub fn memory_bytes(&self) -> usize {
        self.amps.len() * std::mem::size_of::<Complex>()
    }

    // --- gate kernels ------------------------------------------------------

    /// Applies a 2×2 unitary to `target` (no controls).
    ///
    /// # Panics
    ///
    /// Panics if `gate` is not 2×2 or `target` is out of range.
    pub fn apply_gate(&mut self, gate: &Matrix, target: usize) {
        self.apply_controlled_gate(gate, target, &[]);
    }

    /// Stochastically applies one operator of a single-qubit Kraus
    /// channel to `target`: operator `K_i` is chosen with the Born
    /// probability `‖K_i|ψ⟩‖²`, applied in place, and the state
    /// renormalised — the per-gate step of Monte-Carlo noise-trajectory
    /// simulation. Returns the index of the chosen operator.
    ///
    /// The Born weights are accumulated in one pass over the amplitude
    /// pairs, so no candidate state is ever materialised.
    ///
    /// # Panics
    ///
    /// Panics if `kraus` is empty, an operator is not 2×2, or `target`
    /// is out of range.
    pub fn apply_kraus(&mut self, kraus: &[Matrix], target: usize, rng: &mut dyn RngCore) -> usize {
        self.apply_kraus_framed(kraus, target, false, rng)
    }

    /// [`StateVector::apply_kraus`] on a target whose stored bit is
    /// `flipped`: the logical `|0⟩` side of each pair is the stored `1`
    /// side, so the operators see their usual amplitudes in their usual
    /// order.
    pub(crate) fn apply_kraus_framed(
        &mut self,
        kraus: &[Matrix],
        target: usize,
        flipped: bool,
        rng: &mut dyn RngCore,
    ) -> usize {
        assert!(!kraus.is_empty(), "empty Kraus operator list");
        assert!(target < self.num_qubits, "target out of range");
        for k in kraus {
            assert_eq!((k.rows(), k.cols()), (2, 2), "Kraus operator must be 2x2");
        }
        let tbit = 1usize << target;
        let pair = |i: usize| {
            if flipped {
                (i | tbit, i)
            } else {
                (i, i | tbit)
            }
        };
        let mut weights = vec![0.0f64; kraus.len()];
        for i in 0..self.amps.len() {
            if i & tbit != 0 {
                continue;
            }
            let (i0, i1) = pair(i);
            let (a0, a1) = (self.amps[i0], self.amps[i1]);
            for (w, k) in weights.iter_mut().zip(kraus) {
                *w += (k.get(0, 0) * a0 + k.get(0, 1) * a1).norm_sqr()
                    + (k.get(1, 0) * a0 + k.get(1, 1) * a1).norm_sqr();
            }
        }
        let chosen = qdt_engine::choose_weighted(&weights, rng);
        let k = &kraus[chosen];
        let scale = 1.0 / weights[chosen].sqrt().max(1e-300);
        for i in 0..self.amps.len() {
            if i & tbit != 0 {
                continue;
            }
            let (i0, i1) = pair(i);
            let (a0, a1) = (self.amps[i0], self.amps[i1]);
            self.amps[i0] = (k.get(0, 0) * a0 + k.get(0, 1) * a1).scale(scale);
            self.amps[i1] = (k.get(1, 0) * a0 + k.get(1, 1) * a1).scale(scale);
        }
        chosen
    }

    /// Applies a 2×2 unitary to `target`, controlled on every qubit in
    /// `controls` being |1⟩.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is not 2×2, any index is out of range, or
    /// `controls` contains `target`.
    pub fn apply_controlled_gate(&mut self, gate: &Matrix, target: usize, controls: &[usize]) {
        self.apply_controlled_gate_with(gate, target, controls, &KernelContext::sequential());
    }

    /// [`StateVector::apply_controlled_gate`] scheduled through a
    /// [`KernelContext`]: the visited amplitudes are split into
    /// unit-stride runs, partitioned so each worker owns disjoint runs,
    /// with a sequential fallback below the context's threshold.
    ///
    /// Diagonal gates (Z, S, T, Rz, phases and their controlled forms)
    /// visit only the amplitudes that pass the controls and skip a side
    /// whose entry is exactly 1, so a controlled phase touches a quarter
    /// of the state instead of sweeping all of it. Dropping the `× 0` and
    /// `× 1` terms changes at most the sign of a zero, so results stay
    /// equal under `==` to the full 2×2 update.
    ///
    /// Every pair is transformed by the same floating-point expressions
    /// regardless of partitioning, so results are bit-identical across
    /// thread counts (enforced by `tests/parallel_agreement.rs`).
    ///
    /// # Panics
    ///
    /// As [`StateVector::apply_controlled_gate`].
    pub fn apply_controlled_gate_with(
        &mut self,
        gate: &Matrix,
        target: usize,
        controls: &[usize],
        ctx: &KernelContext,
    ) {
        self.apply_controlled_gate_framed(gate, target, controls, 0, ctx);
    }

    /// [`StateVector::apply_controlled_gate_with`] on a state whose
    /// stored bits in `flips` are flipped (see [`RunSpec::flipped`]).
    ///
    /// [`RunSpec::flipped`]: crate::simd::RunSpec::flipped
    fn apply_controlled_gate_framed(
        &mut self,
        gate: &Matrix,
        target: usize,
        controls: &[usize],
        flips: usize,
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
        let g = crate::simd::PairGate::from_matrix(gate);
        let own = flips & (cmask | 1 << target);
        let specs =
            crate::simd::gate_runs(1 << target, cmask, &g).map(|s| s.map(|s| s.flipped(own)));
        self.apply_runs_with(specs.iter().flatten(), ctx);
    }

    /// Runs each spec over the whole state, partitioned by runs. A run
    /// owns a disjoint index set (its `o0` and `o1` sides), so any
    /// partition of the run range satisfies the [`SharedSlice`] contract,
    /// and every amplitude sees the same arithmetic whatever the
    /// partition — results are bit-identical across thread counts.
    fn apply_runs_with<'s>(
        &mut self,
        specs: impl IntoIterator<Item = &'s crate::simd::RunSpec>,
        ctx: &KernelContext,
    ) {
        let level = crate::simd::simd_level();
        let n = self.num_qubits;
        let amps = SharedSlice::new(&mut self.amps);
        for spec in specs {
            let runs = crate::simd::RunSet::new(n, spec);
            ctx.run(runs.count(), runs.weight(), &|range| {
                crate::simd::apply_run_set(&amps, range, &runs, &spec.update, level);
            });
        }
    }

    /// Applies a fused group as one pass over the state: the group is
    /// planned once into unit-stride runs over padded blocks (see
    /// [`crate::fusion`]), then every block applies each constituent
    /// gate in program order while its amplitudes are cache-resident.
    /// Blocks are disjoint, so the pass partitions across workers like
    /// the plain kernels and stays bit-identical across thread counts —
    /// and because each constituent performs the same per-amplitude
    /// arithmetic as its unfused kernel, fused and unfused execution
    /// agree under `==` too.
    ///
    /// # Panics
    ///
    /// Panics if the group is empty, acts on out-of-range qubits, or
    /// mixes more than [`crate::fusion::MAX_FUSE_WIDTH`] qubits.
    pub fn apply_fused_with(&mut self, group: &crate::fusion::FusedGroup, ctx: &KernelContext) {
        use crate::fusion::MAX_FUSE_WIDTH;
        assert!(!group.is_empty(), "empty fused group");
        assert!(
            group.qubits().len() <= MAX_FUSE_WIDTH,
            "fused group too wide"
        );
        assert!(
            group
                .ops()
                .iter()
                .flat_map(Instruction::qubits)
                .all(|q| q < self.num_qubits),
            "fused qubit out of range"
        );
        let plan = crate::fusion::BlockPlan::new(group, self.num_qubits);
        let level = crate::simd::simd_level();
        let amps = SharedSlice::new(&mut self.amps);
        ctx.run(
            plan.blocks(self.num_qubits),
            plan.block_weight(),
            &|range| {
                plan.run(&amps, range, level);
            },
        );
    }

    /// Swaps qubits `a` and `b`, optionally controlled.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range or duplicate indices.
    pub fn apply_swap(&mut self, a: usize, b: usize, controls: &[usize]) {
        self.apply_swap_with(a, b, controls, &KernelContext::sequential());
    }

    /// [`StateVector::apply_swap`] scheduled through a [`KernelContext`];
    /// see [`StateVector::apply_controlled_gate_with`] for the
    /// partitioning and determinism contract.
    ///
    /// # Panics
    ///
    /// As [`StateVector::apply_swap`].
    pub fn apply_swap_with(&mut self, a: usize, b: usize, controls: &[usize], ctx: &KernelContext) {
        self.apply_swap_framed(a, b, controls, 0, ctx);
    }

    /// [`StateVector::apply_swap_with`] on a state whose stored bits in
    /// `flips` are flipped.
    fn apply_swap_framed(
        &mut self,
        a: usize,
        b: usize,
        controls: &[usize],
        flips: usize,
        ctx: &KernelContext,
    ) {
        assert!(
            a < self.num_qubits && b < self.num_qubits,
            "qubit out of range"
        );
        assert_ne!(a, b, "swap qubits must differ");
        let mut cmask = 0usize;
        for &c in controls {
            assert!(c < self.num_qubits, "control out of range");
            assert!(c != a && c != b, "control overlaps swap target");
            cmask |= 1 << c;
        }
        let own = flips & (cmask | 1 << a | 1 << b);
        let spec = crate::simd::swap_runs(1 << a, 1 << b, cmask).flipped(own);
        self.apply_runs_with([&spec], ctx);
    }

    /// Applies one IR instruction (unitary gates and swaps only).
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::NonUnitary`] for measurement, reset, and
    /// classically conditioned instructions (a state vector carries no
    /// classical register). Barriers are no-ops.
    pub fn apply_instruction(&mut self, inst: &Instruction) -> Result<(), ArrayError> {
        self.apply_instruction_with(inst, &KernelContext::sequential())
    }

    /// [`StateVector::apply_instruction`] scheduled through a
    /// [`KernelContext`] (sequential fallback included); results are
    /// bit-identical across thread counts.
    ///
    /// # Errors
    ///
    /// As [`StateVector::apply_instruction`].
    pub fn apply_instruction_with(
        &mut self,
        inst: &Instruction,
        ctx: &KernelContext,
    ) -> Result<(), ArrayError> {
        self.apply_framed_with(inst, 0, ctx)
    }

    /// [`StateVector::apply_instruction_with`] on a state whose stored
    /// bits in `flips` are flipped: the array engine's frame
    /// ([`crate::frame`]) hands over instructions already renamed to
    /// stored qubits, and its flip mask.
    ///
    /// # Errors
    ///
    /// As [`StateVector::apply_instruction`].
    pub(crate) fn apply_framed_with(
        &mut self,
        inst: &Instruction,
        flips: usize,
        ctx: &KernelContext,
    ) -> Result<(), ArrayError> {
        if inst.cond.is_some() {
            return Err(ArrayError::NonUnitary {
                op: format!("conditioned {}", inst.name()),
            });
        }
        match &inst.kind {
            OpKind::Unitary {
                gate,
                target,
                controls,
            } => {
                self.apply_controlled_gate_framed(&gate.matrix(), *target, controls, flips, ctx);
                Ok(())
            }
            OpKind::Swap { a, b, controls } => {
                self.apply_swap_framed(*a, *b, controls, flips, ctx);
                Ok(())
            }
            OpKind::Barrier(_) => Ok(()),
            other => Err(ArrayError::NonUnitary {
                op: format!("{other:?}"),
            }),
        }
    }

    // --- measurement ---------------------------------------------------------

    /// Probability of measuring `qubit` as |1⟩.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    pub fn probability_of_one(&self, qubit: usize) -> f64 {
        self.probability_of_value(qubit, true)
    }

    /// Probability that the stored bit of `qubit` reads `one`.
    pub(crate) fn probability_of_value(&self, qubit: usize, one: bool) -> f64 {
        assert!(qubit < self.num_qubits, "qubit out of range");
        let bit = 1usize << qubit;
        self.amps
            .iter()
            .enumerate()
            .filter(|(i, _)| (i & bit != 0) == one)
            .map(|(_, a)| a.norm_sqr())
            .sum()
    }

    /// Projectively measures `qubit`, collapsing the state, and returns
    /// the outcome.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    pub fn measure_qubit<R: Rng + ?Sized>(&mut self, qubit: usize, rng: &mut R) -> bool {
        let p1 = self.probability_of_one(qubit);
        let outcome = rng.gen_bool(p1.clamp(0.0, 1.0));
        self.project_qubit(qubit, outcome);
        outcome
    }

    /// Projects `qubit` onto the given `outcome` and renormalises.
    ///
    /// # Panics
    ///
    /// Panics if the projection has zero probability.
    pub fn project_qubit(&mut self, qubit: usize, outcome: bool) {
        let bit = 1usize << qubit;
        for (i, a) in self.amps.iter_mut().enumerate() {
            if ((i & bit) != 0) != outcome {
                *a = Complex::ZERO;
            }
        }
        self.normalize();
    }

    /// Resets `qubit` to |0⟩: measures it and flips if the outcome was 1.
    pub fn reset_qubit<R: Rng + ?Sized>(&mut self, qubit: usize, rng: &mut R) {
        if self.measure_qubit(qubit, rng) {
            self.apply_gate(&qdt_circuit::Gate::X.matrix(), qubit);
        }
    }

    /// Samples `shots` full-register measurements *without* collapsing the
    /// state, returning a map from basis index to count.
    ///
    /// One pass builds the running sum of the probabilities; each shot
    /// is then a binary search for the first index whose running sum
    /// exceeds a uniform draw, so the cost is `O(2^n + shots·n)`.
    pub fn sample<R: Rng + ?Sized>(&self, shots: usize, rng: &mut R) -> BTreeMap<usize, usize> {
        let mut total = 0.0;
        let cumulative: Vec<f64> = self
            .amps
            .iter()
            .map(|a| {
                total += a.norm_sqr();
                total
            })
            .collect();
        sample_cumulative(&cumulative, shots, rng)
    }

    /// The expectation value `⟨ψ|Z_qubit|ψ⟩`.
    pub fn expectation_z(&self, qubit: usize) -> f64 {
        1.0 - 2.0 * self.probability_of_one(qubit)
    }
}

/// `shots` draws from the distribution whose running sums are
/// `cumulative` (index order): index `i` is drawn for a uniform `r` with
/// `cumulative[i - 1] ≤ r < cumulative[i]`, and the last index when
/// rounding leaves `r` above the total.
pub(crate) fn sample_cumulative<R: Rng + ?Sized>(
    cumulative: &[f64],
    shots: usize,
    rng: &mut R,
) -> BTreeMap<usize, usize> {
    let mut counts = BTreeMap::new();
    for _ in 0..shots {
        let r: f64 = rng.gen();
        let chosen = cumulative
            .partition_point(|&c| c <= r)
            .min(cumulative.len() - 1);
        *counts.entry(chosen).or_insert(0) += 1;
    }
    counts
}

impl fmt::Debug for StateVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "StateVector({} qubits) [", self.num_qubits)?;
        for (i, a) in self.amps.iter().enumerate().take(8) {
            write!(
                f,
                "{}|{:0w$b}⟩: {a}",
                if i > 0 { ", " } else { "" },
                i,
                w = self.num_qubits
            )?;
        }
        if self.amps.len() > 8 {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdt_circuit::{generators, Gate};
    use qdt_complex::FRAC_1_SQRT_2;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_state_has_unit_amp_at_zero() {
        let psi = StateVector::zero_state(3);
        assert_eq!(psi.amplitude(0), Complex::ONE);
        assert_eq!(psi.probability(5), 0.0);
        assert!((psi.norm() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn paper_example_1_cnot_application() {
        // Example 1 of the paper: |ψ⟩ = 1/√2 [1 0 1 0]^T, CNOT with control
        // on the first (most significant) qubit, target on the second.
        let s = FRAC_1_SQRT_2;
        let mut psi = StateVector::from_amplitudes(vec![
            Complex::real(s),
            Complex::ZERO,
            Complex::real(s),
            Complex::ZERO,
        ])
        .unwrap();
        // Paper convention: first qubit = q1 (MSB), second = q0.
        psi.apply_controlled_gate(&Gate::X.matrix(), 0, &[1]);
        // Expected: 1/√2 [1 0 0 1]^T — the Bell state.
        assert!(psi.amplitude(0).approx_eq(Complex::real(s), 1e-12));
        assert!(psi.amplitude(1).approx_eq(Complex::ZERO, 1e-12));
        assert!(psi.amplitude(2).approx_eq(Complex::ZERO, 1e-12));
        assert!(psi.amplitude(3).approx_eq(Complex::real(s), 1e-12));
    }

    #[test]
    fn bell_circuit_gives_bell_state() {
        let psi = StateVector::from_circuit(&generators::bell()).unwrap();
        assert!((psi.probability(0b00) - 0.5).abs() < 1e-12);
        assert!((psi.probability(0b11) - 0.5).abs() < 1e-12);
        assert!(psi.probability(0b01) < 1e-12);
        assert!(psi.probability(0b10) < 1e-12);
    }

    #[test]
    fn ghz_state_structure() {
        let psi = StateVector::from_circuit(&generators::ghz(5)).unwrap();
        assert!((psi.probability(0) - 0.5).abs() < 1e-12);
        assert!((psi.probability(31) - 0.5).abs() < 1e-12);
        let middle: f64 = (1..31).map(|i| psi.probability(i)).sum();
        assert!(middle < 1e-12);
    }

    #[test]
    fn w_state_amplitudes() {
        for n in 2..7 {
            let psi = StateVector::from_circuit(&generators::w_state(n)).unwrap();
            let expect = 1.0 / (n as f64);
            for q in 0..n {
                let idx = 1usize << q;
                assert!(
                    (psi.probability(idx) - expect).abs() < 1e-10,
                    "W_{n} weight-1 state {idx} has p={}",
                    psi.probability(idx)
                );
            }
            // Everything else zero.
            let rest: f64 = (0..1 << n)
                .filter(|&i: &usize| !i.is_power_of_two())
                .map(|i| psi.probability(i))
                .sum();
            assert!(rest < 1e-10, "W_{n} rest={rest}");
        }
    }

    #[test]
    fn from_amplitudes_validates() {
        assert!(matches!(
            StateVector::from_amplitudes(vec![Complex::ONE; 3]),
            Err(ArrayError::NotPowerOfTwo { len: 3 })
        ));
        assert!(matches!(
            StateVector::from_amplitudes(vec![Complex::ONE, Complex::ONE]),
            Err(ArrayError::NotNormalized { .. })
        ));
    }

    #[test]
    fn controlled_gate_ignores_unset_controls() {
        let mut psi = StateVector::zero_state(2);
        psi.apply_controlled_gate(&Gate::X.matrix(), 1, &[0]); // control is |0⟩
        assert_eq!(psi.amplitude(0), Complex::ONE);
    }

    #[test]
    fn toffoli_truth_table() {
        for c0 in [false, true] {
            for c1 in [false, true] {
                let idx = (c0 as usize) | ((c1 as usize) << 1);
                let mut psi = StateVector::basis_state(3, idx);
                psi.apply_controlled_gate(&Gate::X.matrix(), 2, &[0, 1]);
                let expect = if c0 && c1 { idx | 4 } else { idx };
                assert!((psi.probability(expect) - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn swap_exchanges_bits() {
        let mut psi = StateVector::basis_state(3, 0b001);
        psi.apply_swap(0, 2, &[]);
        assert!((psi.probability(0b100) - 1.0).abs() < 1e-12);
        // Swap is involutive.
        psi.apply_swap(0, 2, &[]);
        assert!((psi.probability(0b001) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cswap_respects_control() {
        let mut psi = StateVector::basis_state(3, 0b010);
        psi.apply_swap(1, 2, &[0]); // control qubit 0 is |0⟩
        assert!((psi.probability(0b010) - 1.0).abs() < 1e-12);
        let mut psi = StateVector::basis_state(3, 0b011);
        psi.apply_swap(1, 2, &[0]); // control set
        assert!((psi.probability(0b101) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inner_product_and_fidelity() {
        let bell = StateVector::from_circuit(&generators::bell()).unwrap();
        assert!((bell.fidelity(&bell) - 1.0).abs() < 1e-12);
        let zero = StateVector::zero_state(2);
        assert!((bell.fidelity(&zero) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn global_phase_equality() {
        let bell = StateVector::from_circuit(&generators::bell()).unwrap();
        let mut phased = bell.clone();
        for a in &mut phased.amps {
            *a *= Complex::cis(1.234);
        }
        assert!(bell.approx_eq_up_to_global_phase(&phased, 1e-12));
    }

    #[test]
    fn measurement_collapses() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut psi = StateVector::from_circuit(&generators::bell()).unwrap();
        let outcome = psi.measure_qubit(0, &mut rng);
        // After measuring one half of a Bell pair the other is determined.
        let expect = if outcome { 0b11 } else { 0b00 };
        assert!((psi.probability(expect) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_statistics_match_probabilities() {
        let mut rng = StdRng::seed_from_u64(4);
        let psi = StateVector::from_circuit(&generators::bell()).unwrap();
        let counts = psi.sample(20_000, &mut rng);
        let c00 = *counts.get(&0).unwrap_or(&0) as f64;
        let c11 = *counts.get(&3).unwrap_or(&0) as f64;
        assert_eq!(c00 + c11, 20_000.0);
        assert!((c00 / 20_000.0 - 0.5).abs() < 0.02);
    }

    /// The sampler `sample` replaced: one linear scan of the
    /// probabilities per shot, subtracting as it goes.
    fn sample_by_linear_scan(
        psi: &StateVector,
        shots: usize,
        rng: &mut StdRng,
    ) -> BTreeMap<usize, usize> {
        let probs = psi.probabilities();
        let mut counts = BTreeMap::new();
        for _ in 0..shots {
            let mut r: f64 = rng.gen();
            let mut chosen = probs.len() - 1;
            for (i, &p) in probs.iter().enumerate() {
                if r < p {
                    chosen = i;
                    break;
                }
                r -= p;
            }
            *counts.entry(chosen).or_insert(0) += 1;
        }
        counts
    }

    #[test]
    fn bisection_sampling_matches_the_linear_scan() {
        let mut rng = StdRng::seed_from_u64(41);
        let mut states = vec![
            StateVector::from_circuit(&generators::ghz(9)).unwrap(),
            StateVector::from_circuit(&generators::w_state(7)).unwrap(),
            StateVector::zero_state(3),
        ];
        for n in [1, 5, 10] {
            states.push(
                StateVector::from_circuit(&generators::random_circuit(n, 6, &mut rng)).unwrap(),
            );
        }
        for (k, psi) in states.iter().enumerate() {
            for seed in 0..4 {
                let got = psi.sample(3000, &mut StdRng::seed_from_u64(seed));
                let want = sample_by_linear_scan(psi, 3000, &mut StdRng::seed_from_u64(seed));
                assert_eq!(got, want, "state {k}, seed {seed}");
            }
        }
    }

    #[test]
    fn expectation_z_values() {
        let psi = StateVector::zero_state(1);
        assert!((psi.expectation_z(0) - 1.0).abs() < 1e-12);
        let one = StateVector::basis_state(1, 1);
        assert!((one.expectation_z(0) + 1.0).abs() < 1e-12);
        let plus = StateVector::from_circuit(&generators::bell()).unwrap();
        assert!(plus.expectation_z(0).abs() < 1e-12);
    }

    #[test]
    fn reset_forces_zero() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let mut psi = StateVector::from_circuit(&generators::bell()).unwrap();
            psi.reset_qubit(1, &mut rng);
            assert!(psi.probability_of_one(1) < 1e-12);
            assert!((psi.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn memory_grows_exponentially() {
        let m4 = StateVector::zero_state(4).memory_bytes();
        let m8 = StateVector::zero_state(8).memory_bytes();
        assert_eq!(m8, m4 << 4);
    }

    #[test]
    fn kernel_matches_full_matrix_path() {
        use crate::circuit_unitary;
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..5 {
            let qc = generators::random_circuit(4, 4, &mut rng);
            let fast = StateVector::from_circuit(&qc).unwrap();
            let u = circuit_unitary(&qc).unwrap();
            let slow = u.mul(&Matrix::column(StateVector::zero_state(4).amplitudes()));
            for i in 0..16 {
                assert!(
                    fast.amplitude(i).approx_eq(slow.get(i, 0), 1e-10),
                    "amplitude {i} mismatch"
                );
            }
        }
    }
}

impl StateVector {
    /// The expectation value `⟨ψ|P|ψ⟩` of a Pauli string.
    ///
    /// One pass, no copy of the state: `(Pψ)ᵢ = phase(i) · ψ[i ⊕ x]`,
    /// with `x` the mask of X and Y factors and
    /// `phase(i) = (−i)^#Y · (−1)^popcount(i ∧ (y ∨ z))`. A phase of
    /// ±1 or ±i only swaps and negates components, which is exact, and
    /// the sum runs in index order, so the result equals
    /// `Re ⟨ψ|Pψ⟩` computed from a transformed copy (up to the sign of
    /// a zero).
    ///
    /// # Panics
    ///
    /// Panics if the string's width differs from the state's.
    pub fn expectation_pauli(&self, pauli: &qdt_circuit::PauliString) -> f64 {
        assert_eq!(pauli.num_qubits(), self.num_qubits, "Pauli width mismatch");
        self.expectation_masks(&PauliMasks::new(pauli, |q| q))
    }

    /// [`StateVector::expectation_pauli`] of a string given by its masks.
    pub(crate) fn expectation_masks(&self, masks: &PauliMasks) -> f64 {
        let mut sum = 0.0;
        for (i, a) in self.amps.iter().enumerate() {
            sum += masks.re_phased(i, a.conj() * self.amps[i ^ masks.x]);
        }
        sum
    }
}

/// A Pauli string as the masks of its factors on stored qubits: `x`
/// holds the X and Y factors, `yz` the Y and Z factors.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PauliMasks {
    pub x: usize,
    pub yz: usize,
    pub num_y: usize,
}

impl PauliMasks {
    /// The masks of `pauli` with qubit `q` stored at bit `at(q)`.
    pub(crate) fn new(pauli: &qdt_circuit::PauliString, at: impl Fn(usize) -> usize) -> Self {
        use qdt_circuit::Pauli;
        let mut masks = PauliMasks {
            x: 0,
            yz: 0,
            num_y: 0,
        };
        for (q, p) in pauli.support() {
            let bit = 1usize << at(q);
            match p {
                Pauli::X => masks.x |= bit,
                Pauli::Y => {
                    masks.x |= bit;
                    masks.yz |= bit;
                    masks.num_y += 1;
                }
                Pauli::Z => masks.yz |= bit,
                Pauli::I => {}
            }
        }
        masks
    }

    /// `Re(phase(i) · w)`, with `phase(i) = (−i)^#Y · (−1)^popcount(i ∧ yz)`
    /// the coefficient of the string's one nonzero in row `i` (at column
    /// `i ⊕ x`). The phase only swaps and negates components, so this
    /// is exact.
    pub(crate) fn re_phased(&self, i: usize, w: Complex) -> f64 {
        // (−i)^#Y: an odd count rotates by ∓i (takes the other
        // component), and #Y ≡ 2, 3 (mod 4) contributes an extra −1.
        let term = if self.num_y % 2 == 1 { w.im } else { w.re };
        let odd = (i & self.yz).count_ones() % 2 == 1;
        if odd != (self.num_y % 4 >= 2) {
            -term
        } else {
            term
        }
    }
}

#[cfg(test)]
mod pauli_tests {
    use super::*;
    use qdt_circuit::{generators, PauliString};

    /// The clone-and-apply formula the one-pass readout replaced.
    fn expectation_by_copy(psi: &StateVector, pauli: &PauliString) -> f64 {
        let mut transformed = psi.clone();
        for (q, p) in pauli.support() {
            transformed.apply_gate(&p.matrix(), q);
        }
        psi.inner_product(&transformed).re
    }

    #[test]
    fn one_pass_readout_equals_the_copy_based_formula() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(29);
        for n in 1..=7 {
            for _ in 0..8 {
                let mut psi = StateVector {
                    num_qubits: n,
                    amps: (0..1usize << n)
                        .map(|_| Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
                        .collect(),
                };
                psi.normalize();
                let random: String = (0..n)
                    .map(|_| ['I', 'X', 'Y', 'Z'][rng.gen_range(0usize..4)])
                    .collect();
                let mut strings = vec![random];
                for c in ['X', 'Y', 'Z'] {
                    strings.push(std::iter::repeat_n(c, n).collect());
                    let mut single = vec!['I'; n];
                    single[rng.gen_range(0..n)] = c;
                    strings.push(single.into_iter().collect());
                }
                for s in strings {
                    let p: PauliString = s.parse().unwrap();
                    assert_eq!(
                        psi.expectation_pauli(&p),
                        expectation_by_copy(&psi, &p),
                        "{s}"
                    );
                }
            }
        }
    }

    #[test]
    fn z_expectations_match_dedicated_method() {
        let psi = StateVector::from_circuit(&generators::w_state(4)).unwrap();
        for q in 0..4 {
            let mut s = ['I'; 4];
            s[3 - q] = 'Z';
            let p: PauliString = s.iter().collect::<String>().parse().unwrap();
            assert!(
                (psi.expectation_pauli(&p) - psi.expectation_z(q)).abs() < 1e-12,
                "qubit {q}"
            );
        }
    }

    #[test]
    fn ghz_stabilizers_have_expectation_one() {
        // GHZ is stabilised by X⊗X⊗X and Z⊗Z⊗I etc.
        let psi = StateVector::from_circuit(&generators::ghz(3)).unwrap();
        for s in ["XXX", "ZZI", "IZZ"] {
            let p: PauliString = s.parse().unwrap();
            assert!(
                (psi.expectation_pauli(&p) - 1.0).abs() < 1e-10,
                "{s} should stabilise GHZ"
            );
        }
        let anti: PauliString = "ZII".parse().unwrap();
        assert!(psi.expectation_pauli(&anti).abs() < 1e-10);
    }

    #[test]
    fn expectation_matches_dense_matrix() {
        use qdt_circuit::Circuit;
        let mut qc = Circuit::new(3);
        qc.h(0).cx(0, 1).t(1).ry(0.4, 2).cz(1, 2);
        let psi = StateVector::from_circuit(&qc).unwrap();
        for s in ["XYZ", "ZZZ", "IXI", "YYI"] {
            let p: PauliString = s.parse().unwrap();
            let dense = p.matrix();
            let col = qdt_complex::Matrix::column(psi.amplitudes());
            let expect = col.dagger().mul(&dense.mul(&col)).get(0, 0).re;
            assert!(
                (psi.expectation_pauli(&p) - expect).abs() < 1e-10,
                "{s}: {} vs {expect}",
                psi.expectation_pauli(&p)
            );
        }
    }
}

impl StateVector {
    /// The reduced density matrix of the qubits in `keep` (all others
    /// traced out).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range/duplicate indices or when `keep` exceeds
    /// 12 qubits (the dense reduced matrix would not fit).
    pub fn reduced_density_matrix(&self, keep: &[usize]) -> Matrix {
        assert!(keep.len() <= 12, "reduced matrix limited to 12 qubits");
        let mut sorted = keep.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), keep.len(), "duplicate qubit in keep set");
        for &q in keep {
            assert!(q < self.num_qubits, "qubit {q} out of range");
        }
        let dim = 1usize << keep.len();
        // The index whose qubit `qubits[pos]` holds bit `pos` of `bits`.
        let deposit = |bits: usize, qubits: &[usize]| {
            qubits
                .iter()
                .enumerate()
                .fold(0, |acc, (pos, &q)| acc | (((bits >> pos) & 1) << q))
        };
        let offsets: Vec<usize> = (0..dim).map(|s| deposit(s, keep)).collect();
        let env_qubits: Vec<usize> = (0..self.num_qubits).filter(|q| !keep.contains(q)).collect();
        let mut rho = Matrix::zeros(dim, dim);
        let mut sub = vec![Complex::ZERO; dim];
        // Iterate over environment configurations, accumulating
        // |ψ_e⟩⟨ψ_e| on the kept subsystem.
        for env in 0..1usize << env_qubits.len() {
            let env_mask = deposit(env, &env_qubits);
            // Gather the amplitudes with this environment setting.
            for (amp, &offset) in sub.iter_mut().zip(&offsets) {
                *amp = self.amps[env_mask | offset];
            }
            for r in 0..dim {
                for c in 0..dim {
                    let v = rho.get(r, c) + sub[r] * sub[c].conj();
                    rho.set(r, c, v);
                }
            }
        }
        rho
    }

    /// The entanglement (von Neumann) entropy of the bipartition
    /// `keep | rest`, in bits.
    ///
    /// # Panics
    ///
    /// See [`StateVector::reduced_density_matrix`].
    pub fn entanglement_entropy(&self, keep: &[usize]) -> f64 {
        let rho = self.reduced_density_matrix(keep);
        // ρ is Hermitian PSD: its eigenvalues are the squared singular
        // values' square roots — use the SVD (σ_i = λ_i for PSD ρ).
        let f = qdt_complex::svd(&rho);
        let mut s = 0.0;
        for &lambda in &f.s {
            if lambda > 1e-14 {
                s -= lambda * lambda.log2();
            }
        }
        s
    }
}

#[cfg(test)]
mod entropy_tests {
    use super::*;
    use qdt_circuit::generators;

    #[test]
    fn product_state_has_zero_entropy() {
        let mut qc = qdt_circuit::Circuit::new(3);
        qc.h(0).x(1).ry(0.7, 2);
        let psi = StateVector::from_circuit(&qc).unwrap();
        for q in 0..3 {
            assert!(psi.entanglement_entropy(&[q]).abs() < 1e-9, "qubit {q}");
        }
    }

    #[test]
    fn bell_pair_has_one_ebit() {
        let psi = StateVector::from_circuit(&generators::bell()).unwrap();
        assert!((psi.entanglement_entropy(&[0]) - 1.0).abs() < 1e-9);
        assert!((psi.entanglement_entropy(&[1]) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ghz_cut_entropy_is_one_bit() {
        let psi = StateVector::from_circuit(&generators::ghz(6)).unwrap();
        // Any bipartition of GHZ carries exactly 1 ebit.
        assert!((psi.entanglement_entropy(&[0, 1, 2]) - 1.0).abs() < 1e-9);
        assert!((psi.entanglement_entropy(&[5]) - 1.0).abs() < 1e-9);
    }

    /// The original reduced-density formula, kept as the oracle: for
    /// each environment configuration it scans every amplitude and
    /// keeps those whose environment bits match.
    fn reduced_density_by_full_scan(psi: &StateVector, keep: &[usize]) -> Matrix {
        let dim = 1usize << keep.len();
        // The bits of `full` on `qubits`, packed in `qubits` order.
        let extract = |full: usize, qubits: &[usize]| -> usize {
            qubits
                .iter()
                .enumerate()
                .fold(0, |acc, (pos, &q)| acc | (((full >> q) & 1) << pos))
        };
        let env_qubits: Vec<usize> = (0..psi.num_qubits).filter(|q| !keep.contains(q)).collect();
        let mut rho = Matrix::zeros(dim, dim);
        for env in 0..1usize << env_qubits.len() {
            let mut sub = vec![Complex::ZERO; dim];
            for (i, &amp) in psi.amps.iter().enumerate() {
                if extract(i, &env_qubits) == env {
                    sub[extract(i, keep)] = amp;
                }
            }
            for r in 0..dim {
                for c in 0..dim {
                    let v = rho.get(r, c) + sub[r] * sub[c].conj();
                    rho.set(r, c, v);
                }
            }
        }
        rho
    }

    #[test]
    fn gathered_reduced_density_equals_the_full_scan() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let qc = generators::random_circuit(10, 12, &mut StdRng::seed_from_u64(23));
        let psi = StateVector::from_circuit(&qc).unwrap();
        for keep in [&[7, 2, 4][..], &[0, 9], &[8], &[1, 3, 5, 6]] {
            let want = reduced_density_by_full_scan(&psi, keep);
            assert!(psi.reduced_density_matrix(keep) == want, "{keep:?}");
        }
    }

    #[test]
    fn reduced_density_is_valid_state() {
        let psi = StateVector::from_circuit(&generators::w_state(4)).unwrap();
        let rho = psi.reduced_density_matrix(&[1, 2]);
        assert!((rho.trace().re - 1.0).abs() < 1e-10);
        // Hermitian.
        assert!(rho.dagger().approx_eq(&rho, 1e-12));
    }

    #[test]
    fn entropy_matches_mps_bond_requirement() {
        use qdt_tensor::mps::Mps;
        // GHZ: 1 ebit across the middle cut → χ = 2 suffices (exact).
        let qc = generators::ghz(6);
        let psi = StateVector::from_circuit(&qc).unwrap();
        let s = psi.entanglement_entropy(&[0, 1, 2]);
        let chi_needed = (2f64.powf(s)).ceil() as usize;
        let mps = Mps::from_circuit(&qc, chi_needed).unwrap();
        assert!(mps.truncation_error() < 1e-12);
    }
}
