//! Translating quantum circuits into tensor networks and extracting
//! quantities from them.

use qdt_circuit::{Circuit, Instruction, OpKind};
use qdt_complex::{Complex, Matrix};

use crate::contraction::{ContractionPlan, PlanKind};
use crate::tensor::{IndexId, Tensor};
use crate::TensorError;

/// A tensor network built from a quantum circuit (the paper's Fig. 2):
/// one rank-1 tensor per `|0⟩` input, one rank-2k tensor per k-qubit
/// gate, wires threaded along each qubit's timeline, and one open output
/// index per qubit.
#[derive(Debug, Clone)]
pub struct TensorNetwork {
    tensors: Vec<Tensor>,
    /// The open output index of each qubit, in qubit order.
    open_outputs: Vec<IndexId>,
    num_qubits: usize,
}

/// Builds the `2^k × 2^k` unitary of an instruction restricted to its own
/// qubits, together with the qubit order (local bit `p` ↔ `qubits[p]`).
pub(crate) fn local_unitary(inst: &Instruction) -> Option<(Matrix, Vec<usize>)> {
    if inst.cond.is_some() {
        // A conditioned gate is not a fixed unitary on its qubits.
        return None;
    }
    match &inst.kind {
        OpKind::Unitary {
            gate,
            target,
            controls,
        } => {
            let mut qubits = vec![*target];
            qubits.extend(controls.iter().copied());
            let k = qubits.len();
            let dim = 1usize << k;
            let g = gate.matrix();
            let cmask: usize = (1..k).map(|p| 1usize << p).sum();
            let mut u = Matrix::zeros(dim, dim);
            for col in 0..dim {
                if col & cmask == cmask {
                    let b = col & 1;
                    for a in 0..2 {
                        let v = g.get(a, b);
                        if v != Complex::ZERO {
                            u.set((col & !1) | a, col, v);
                        }
                    }
                } else {
                    u.set(col, col, Complex::ONE);
                }
            }
            Some((u, qubits))
        }
        OpKind::Swap { a, b, controls } => {
            let mut qubits = vec![*a, *b];
            qubits.extend(controls.iter().copied());
            let k = qubits.len();
            let dim = 1usize << k;
            let cmask: usize = (2..k).map(|p| 1usize << p).sum();
            let mut u = Matrix::zeros(dim, dim);
            for col in 0..dim {
                let row = if col & cmask == cmask {
                    let b0 = col & 1;
                    let b1 = (col >> 1) & 1;
                    (col & !3) | (b0 << 1) | b1
                } else {
                    col
                };
                u.set(row, col, Complex::ONE);
            }
            Some((u, qubits))
        }
        _ => None,
    }
}

impl TensorNetwork {
    /// Translates a unitary circuit into a tensor network.
    ///
    /// Barriers are skipped; measurement and reset are rejected when the
    /// network is later contracted (they never produce tensors).
    ///
    /// # Panics
    ///
    /// Panics if the circuit contains measurement or reset — translate
    /// only unitary circuits (use
    /// [`Circuit::unitary_part`](qdt_circuit::Circuit::unitary_part)).
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let n = circuit.num_qubits();
        let mut next_index: IndexId = 0;
        let mut fresh = || {
            let i = next_index;
            next_index += 1;
            i
        };
        // Input |0⟩ tensors.
        let mut tensors = Vec::new();
        let mut wire: Vec<IndexId> = (0..n).map(|_| fresh()).collect();
        for &w in &wire {
            tensors.push(Tensor::new(
                vec![w],
                vec![2],
                vec![Complex::ONE, Complex::ZERO],
            ));
        }
        for inst in circuit {
            if matches!(inst.kind, OpKind::Barrier(_)) {
                continue;
            }
            let (u, qubits) = local_unitary(inst).unwrap_or_else(|| {
                panic!("non-unitary instruction {} in tensor network", inst.name())
            });
            let k = qubits.len();
            // Gate tensor: labels [out_0..out_{k-1}, in_0..in_{k-1}],
            // entry T[o, i] = U[Σ o_p 2^p][Σ i_p 2^p]. With labels ordered
            // out_0 slowest we must lay data out accordingly.
            let outs: Vec<IndexId> = (0..k).map(|_| fresh()).collect();
            let ins: Vec<IndexId> = qubits.iter().map(|&q| wire[q]).collect();
            let mut labels = outs.clone();
            labels.extend(ins.iter().copied());
            let dims = vec![2usize; 2 * k];
            let size = 1usize << (2 * k);
            let mut data = vec![Complex::ZERO; size];
            for (off, slot) in data.iter_mut().enumerate() {
                // Row-major with labels[0] slowest: decompose offset into
                // coordinates c[0..2k]; out bit p = c[p], in bit p = c[k+p].
                let mut row = 0usize;
                let mut col = 0usize;
                for p in 0..k {
                    let c_out = (off >> (2 * k - 1 - p)) & 1;
                    let c_in = (off >> (k - 1 - p)) & 1;
                    row |= c_out << p;
                    col |= c_in << p;
                }
                *slot = u.get(row, col);
            }
            tensors.push(Tensor::new(labels, dims, data));
            for (p, &q) in qubits.iter().enumerate() {
                wire[q] = outs[p];
            }
        }
        TensorNetwork {
            tensors,
            open_outputs: wire,
            num_qubits: n,
        }
    }

    /// The number of tensors in the network (inputs + gates).
    pub fn num_tensors(&self) -> usize {
        self.tensors.len()
    }

    /// The tensors of the network.
    pub fn tensors(&self) -> &[Tensor] {
        &self.tensors
    }

    /// The number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The open output index of each qubit.
    pub fn open_outputs(&self) -> &[IndexId] {
        &self.open_outputs
    }

    /// Total memory of all tensors in bytes — linear in gates, the
    /// paper's Section IV memory argument.
    pub fn memory_bytes(&self) -> usize {
        self.tensors.iter().map(Tensor::memory_bytes).sum()
    }

    /// Returns a copy of the network with `⟨b_q|` effect tensors closing
    /// every output index ("adding bubbles at the end" per Section IV),
    /// so contraction yields the rank-0 amplitude `⟨bits|C|0…0⟩`.
    pub fn with_output_fixed(&self, bits: u128) -> TensorNetwork {
        let mut out = self.clone();
        for (q, &idx) in self.open_outputs.iter().enumerate() {
            let bit = (bits >> q) & 1 == 1;
            let data = if bit {
                vec![Complex::ZERO, Complex::ONE]
            } else {
                vec![Complex::ONE, Complex::ZERO]
            };
            out.tensors.push(Tensor::new(vec![idx], vec![2], data));
        }
        out.open_outputs.clear();
        out
    }

    /// Contracts the network according to `plan_kind` and returns the
    /// final tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NetworkTooLarge`] if an optimal plan is
    /// requested for more than 16 tensors.
    pub fn contract(&self, plan_kind: PlanKind) -> Result<Tensor, TensorError> {
        let plan = ContractionPlan::build(self, plan_kind)?;
        Ok(plan.execute(self))
    }

    /// Computes the single amplitude `⟨bits|C|0…0⟩` by fixing the outputs
    /// and contracting to a scalar.
    ///
    /// # Errors
    ///
    /// Propagates plan-construction errors.
    pub fn amplitude(&self, bits: u128, plan_kind: PlanKind) -> Result<Complex, TensorError> {
        let closed = self.with_output_fixed(bits);
        let t = closed.contract(plan_kind)?;
        debug_assert_eq!(t.rank(), 0, "closed network must contract to a scalar");
        Ok(t.clone().into_scalar())
    }

    /// Contracts the full output state vector (exponential in `n` — the
    /// paper's caveat; capped at 24 qubits).
    ///
    /// # Errors
    ///
    /// Propagates plan-construction errors.
    ///
    /// # Panics
    ///
    /// Panics above 24 qubits.
    pub fn state_vector(&self, plan_kind: PlanKind) -> Result<Vec<Complex>, TensorError> {
        assert!(self.num_qubits <= 24, "full state limited to 24 qubits");
        let t = self.contract(plan_kind)?;
        // Order indices as [q_{n-1}, …, q_0] so the row-major offset is
        // the basis index.
        let order: Vec<IndexId> = self.open_outputs.iter().rev().copied().collect();
        let t = t.transpose_to(&order);
        Ok(t.data().to_vec())
    }

    /// Builds a network from raw tensors (used by other representations
    /// — e.g. ZX-diagrams — that evaluate themselves through tensor
    /// contraction). `open_outputs` lists the labels that must remain
    /// open, in the caller's qubit order.
    pub fn from_tensors(tensors: Vec<Tensor>, open_outputs: Vec<IndexId>) -> Self {
        let num_qubits = open_outputs.len();
        TensorNetwork {
            tensors,
            open_outputs,
            num_qubits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdt_circuit::generators;
    use qdt_complex::FRAC_1_SQRT_2;

    #[test]
    fn bell_network_shape_matches_fig_2() {
        let tn = TensorNetwork::from_circuit(&generators::bell());
        // Two inputs + H + CX.
        assert_eq!(tn.num_tensors(), 4);
        assert_eq!(tn.open_outputs().len(), 2);
    }

    #[test]
    fn bell_amplitudes() {
        let tn = TensorNetwork::from_circuit(&generators::bell());
        let s = FRAC_1_SQRT_2;
        for kind in [PlanKind::Naive, PlanKind::Greedy, PlanKind::Optimal] {
            assert!((tn.amplitude(0b00, kind).unwrap().re - s).abs() < 1e-12);
            assert!((tn.amplitude(0b11, kind).unwrap().re - s).abs() < 1e-12);
            assert!(tn.amplitude(0b01, kind).unwrap().abs() < 1e-12);
            assert!(tn.amplitude(0b10, kind).unwrap().abs() < 1e-12);
        }
    }

    #[test]
    fn full_state_matches_array_simulator() {
        use qdt_array::StateVector;
        for qc in [
            generators::bell(),
            generators::ghz(4),
            generators::qft(3, true),
            generators::w_state(3),
        ] {
            let tn = TensorNetwork::from_circuit(&qc);
            let state = tn.state_vector(PlanKind::Greedy).unwrap();
            let expect = StateVector::from_circuit(&qc).unwrap();
            for (i, (a, b)) in state.iter().zip(expect.amplitudes()).enumerate() {
                assert!(a.approx_eq(*b, 1e-10), "{i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn network_memory_is_linear_in_gates() {
        let small = TensorNetwork::from_circuit(&generators::ghz(10));
        let large = TensorNetwork::from_circuit(&generators::ghz(20));
        // Doubling qubits/gates roughly doubles memory — no 2^n blowup.
        let ratio = large.memory_bytes() as f64 / small.memory_bytes() as f64;
        assert!(ratio < 3.0, "ratio {ratio}");
    }

    #[test]
    fn single_amplitude_of_wide_ghz() {
        // 40 qubits is far beyond dense arrays, but the GHZ network
        // contracts amplitude-wise just fine.
        let tn = TensorNetwork::from_circuit(&generators::ghz(40));
        let amp = tn.amplitude(0, PlanKind::Greedy).unwrap();
        assert!((amp.re - FRAC_1_SQRT_2).abs() < 1e-9);
        let amp1 = tn.amplitude((1u128 << 40) - 1, PlanKind::Greedy).unwrap();
        assert!((amp1.re - FRAC_1_SQRT_2).abs() < 1e-9);
        let bad = tn.amplitude(1, PlanKind::Greedy).unwrap();
        assert!(bad.abs() < 1e-9);
    }

    #[test]
    fn swap_gate_network() {
        let mut qc = qdt_circuit::Circuit::new(2);
        qc.x(0).swap(0, 1);
        let tn = TensorNetwork::from_circuit(&qc);
        assert!((tn.amplitude(0b10, PlanKind::Greedy).unwrap().abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn controlled_phase_network() {
        let mut qc = qdt_circuit::Circuit::new(2);
        qc.h(0).h(1).cp(0.7, 0, 1);
        let tn = TensorNetwork::from_circuit(&qc);
        let amp = tn.amplitude(0b11, PlanKind::Optimal).unwrap();
        assert!(amp.approx_eq(Complex::cis(0.7).scale(0.5), 1e-12));
    }

    #[test]
    #[should_panic(expected = "non-unitary instruction")]
    fn measurement_rejected() {
        let mut qc = qdt_circuit::Circuit::with_clbits(1, 1);
        qc.measure(0, 0);
        TensorNetwork::from_circuit(&qc);
    }
}

/// Computes the expectation value `⟨ψ|P|ψ⟩` of a Pauli string on the
/// output state of a unitary circuit, by contracting the sandwich
/// network `conj(C) · P · C` closed over the `|0⟩` inputs — no state
/// vector is ever materialised.
///
/// # Errors
///
/// Propagates plan-construction errors.
///
/// # Panics
///
/// Panics if the Pauli width differs from the circuit width or the
/// circuit is non-unitary.
pub fn expectation_pauli(
    circuit: &Circuit,
    pauli: &qdt_circuit::PauliString,
    plan_kind: PlanKind,
) -> Result<f64, TensorError> {
    assert_eq!(
        pauli.num_qubits(),
        circuit.num_qubits(),
        "Pauli width mismatch"
    );
    let ket = TensorNetwork::from_circuit(circuit);
    // Fresh labels for the bra copy.
    let offset = ket
        .tensors()
        .iter()
        .flat_map(|t| t.labels().iter().copied())
        .max()
        .map_or(0, |m| m + 1);
    let mut tensors: Vec<Tensor> = ket.tensors().to_vec();
    for t in ket.tensors() {
        tensors.push(t.conj().relabel(|l| l + offset));
    }
    // Sandwich the Pauli operators between the ket outputs and the
    // (conjugated) bra outputs.
    for (q, &out) in ket.open_outputs().iter().enumerate() {
        let p = pauli.op(q).matrix();
        let bra_out = out + offset;
        // P tensor: labels [bra, ket], entry P[bra][ket].
        let data = vec![p.get(0, 0), p.get(0, 1), p.get(1, 0), p.get(1, 1)];
        tensors.push(Tensor::new(vec![bra_out, out], vec![2, 2], data));
    }
    let net = TensorNetwork::from_tensors(tensors, vec![]);
    let scalar = net.contract(plan_kind)?;
    Ok(scalar.into_scalar().re)
}

#[cfg(test)]
mod expectation_tests {
    use super::*;
    use qdt_circuit::{generators, PauliString};

    #[test]
    fn tn_expectations_match_array() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(14);
        let qc = generators::random_circuit(4, 3, &mut rng);
        let psi = qdt_array::StateVector::from_circuit(&qc).unwrap();
        for s in ["ZIII", "XXII", "YZXI", "ZZZZ", "IIII"] {
            let p: PauliString = s.parse().unwrap();
            let a = psi.expectation_pauli(&p);
            let t = expectation_pauli(&qc, &p, PlanKind::Greedy).unwrap();
            assert!((a - t).abs() < 1e-8, "{s}: array {a} vs tn {t}");
        }
    }

    #[test]
    fn tn_ghz_stabilizer_without_state_vector() {
        // 32-qubit GHZ: the sandwich stays contractible even though the
        // state itself never exists in memory.
        let qc = generators::ghz(32);
        let all_x: PauliString = "X".repeat(32).parse().unwrap();
        let v = expectation_pauli(&qc, &all_x, PlanKind::Greedy).unwrap();
        assert!((v - 1.0).abs() < 1e-8);
        let single_z: PauliString = ("Z".to_string() + &"I".repeat(31)).parse().unwrap();
        let v = expectation_pauli(&qc, &single_z, PlanKind::Greedy).unwrap();
        assert!(v.abs() < 1e-8);
    }
}
