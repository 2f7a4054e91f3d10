//! Matrix decision diagrams: gate construction, application and the
//! identity check used for equivalence checking.

use std::collections::HashMap;

use qdt_circuit::{Circuit, Gate, Instruction, OpKind};
use qdt_complex::{Complex, Matrix};

use crate::package::DdPackage;
use crate::table::{MEdge, NodeId, TERMINAL};
use crate::{DdError, MatrixDd, VectorDd};

/// Widest register whose gates [`DdPackage::gate_dd`] memoises: the
/// memo keys the control set as a `u128` mask.
const MEMO_MAX_QUBITS: usize = 128;

impl DdPackage {
    /// Builds the matrix DD of a (multi-)controlled single-qubit gate on
    /// an `num_qubits`-qubit register.
    ///
    /// Follows the classic QMDD construction: the four gate entries start
    /// as terminal edges and are extended level by level — identity
    /// blocks on uninvolved qubits, projector blocks on controls — until
    /// the target level merges them into a single node.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is not 2×2 or indices are out of range/duplicated.
    pub fn gate_dd(
        &mut self,
        gate: &Matrix,
        num_qubits: usize,
        target: usize,
        controls: &[usize],
    ) -> MatrixDd {
        assert_eq!((gate.rows(), gate.cols()), (2, 2), "gate must be 2x2");
        assert!(target < num_qubits, "target out of range");
        // Checked by scanning, not through a set: control lists are
        // short, and a memo hit must not allocate.
        let duplicate = (1..controls.len()).any(|i| controls[..i].contains(&controls[i]));
        assert!(!duplicate, "duplicate controls");
        assert!(!controls.contains(&target), "control equals target");
        assert!(
            controls.iter().all(|&c| c < num_qubits),
            "control out of range"
        );
        // Memo hit: the same gate on the same wires rebuilds to the
        // same canonical root, so skip the construction entirely (the
        // DD miter and the dynamic shot loop's suffix replays re-apply
        // the same gates many times). The key holds the control set as
        // a mask, so control order does not matter.
        let key: Option<crate::package::GateKey> = (num_qubits <= MEMO_MAX_QUBITS).then(|| {
            (
                [
                    gate.get(0, 0).to_bits(),
                    gate.get(0, 1).to_bits(),
                    gate.get(1, 0).to_bits(),
                    gate.get(1, 1).to_bits(),
                ],
                num_qubits,
                target,
                controls.iter().fold(0u128, |mask, &c| mask | 1 << c),
            )
        });
        if let Some(&root) = key.as_ref().and_then(|key| self.gate_cache.get(key)) {
            return MatrixDd { root, num_qubits };
        }

        // The four entry diagrams, on qubits below the current level.
        let mut em: [MEdge; 4] = [
            MEdge::terminal(self.canon(gate.get(0, 0))),
            MEdge::terminal(self.canon(gate.get(0, 1))),
            MEdge::terminal(self.canon(gate.get(1, 0))),
            MEdge::terminal(self.canon(gate.get(1, 1))),
        ];
        // Below the target: grow each entry separately.
        for z in 0..target {
            if controls.contains(&z) {
                let ident_below = self.identity_edge(z as isize - 1);
                for (idx, e) in em.iter_mut().enumerate() {
                    let row = idx / 2;
                    let col = idx % 2;
                    let c00 = if row == col { ident_below } else { MEdge::ZERO };
                    *e = self.block_diagonal(z, c00, *e);
                }
            } else {
                for e in em.iter_mut() {
                    *e = self.block_diagonal(z, *e, *e);
                }
            }
        }
        // The target level merges the four entries.
        let mut e = self.matrices.make_node(&mut self.ctable, target as u16, em);
        // Above the target: controls gate the whole operator.
        for z in target + 1..num_qubits {
            if controls.contains(&z) {
                let ident_below = self.identity_edge(z as isize - 1);
                e = self.block_diagonal(z, ident_below, e);
            } else {
                e = self.block_diagonal(z, e, e);
            }
        }
        if let Some(key) = key {
            self.gate_cache.insert(key, e);
        }
        MatrixDd {
            root: e,
            num_qubits,
        }
    }

    /// Builds the matrix DD of one IR instruction (SWAP decomposes into
    /// three CNOTs).
    ///
    /// # Errors
    ///
    /// Returns [`DdError::NonUnitary`] for measurement, reset, and
    /// classically conditioned instructions (a matrix DD has no classical
    /// register to consult).
    pub fn instruction_dd(
        &mut self,
        inst: &Instruction,
        num_qubits: usize,
    ) -> Result<MatrixDd, DdError> {
        if inst.cond.is_some() {
            return Err(DdError::NonUnitary {
                op: format!("conditioned {}", inst.name()),
            });
        }
        match &inst.kind {
            OpKind::Unitary {
                gate,
                target,
                controls,
            } => Ok(self.gate_dd(&gate.matrix(), num_qubits, *target, controls)),
            OpKind::Swap { a, b, controls } => {
                let x = Gate::X.matrix();
                let mut c1 = controls.clone();
                c1.push(*a);
                let g1 = self.gate_dd(&x, num_qubits, *b, &c1);
                c1.pop();
                c1.push(*b);
                let g2 = self.gate_dd(&x, num_qubits, *a, &c1);
                let m = self.mat_mat(g2.root, g1.root);
                let m = self.mat_mat(g1.root, m);
                Ok(MatrixDd {
                    root: m,
                    num_qubits,
                })
            }
            OpKind::Barrier(_) => Ok(self.identity(num_qubits)),
            other => Err(DdError::NonUnitary {
                op: format!("{other:?}"),
            }),
        }
    }

    /// Builds the matrix DD of a whole unitary circuit by multiplying
    /// instruction DDs (later gates applied on the left).
    ///
    /// # Errors
    ///
    /// Returns [`DdError::NonUnitary`] on measurement/reset.
    pub fn circuit_dd(&mut self, circuit: &Circuit) -> Result<MatrixDd, DdError> {
        let n = circuit.num_qubits().max(1);
        let mut acc = self.identity(n);
        for inst in circuit {
            if matches!(inst.kind, OpKind::Barrier(_)) {
                continue;
            }
            let g = self.instruction_dd(inst, n)?;
            let root = self.mat_mat(g.root, acc.root);
            acc = MatrixDd {
                root,
                num_qubits: n,
            };
        }
        Ok(acc)
    }

    /// Applies a (controlled) gate to a vector DD.
    ///
    /// # Panics
    ///
    /// Panics on invalid indices (see [`DdPackage::gate_dd`]).
    pub fn apply_gate(
        &mut self,
        v: &VectorDd,
        gate: &Matrix,
        target: usize,
        controls: &[usize],
    ) -> VectorDd {
        let g = self.gate_dd(gate, v.num_qubits, target, controls);
        let root = self.mat_vec(g.root, v.root);
        VectorDd {
            root,
            num_qubits: v.num_qubits,
        }
    }

    /// Applies one IR instruction to a vector DD.
    ///
    /// # Errors
    ///
    /// Returns [`DdError::NonUnitary`] for measurement and reset.
    pub fn apply_instruction(
        &mut self,
        v: &VectorDd,
        inst: &Instruction,
    ) -> Result<VectorDd, DdError> {
        if matches!(inst.kind, OpKind::Barrier(_)) {
            return Ok(*v);
        }
        let g = self.instruction_dd(inst, v.num_qubits)?;
        let root = self.mat_vec(g.root, v.root);
        Ok(VectorDd {
            root,
            num_qubits: v.num_qubits,
        })
    }

    /// Runs an entire unitary circuit on `|0…0⟩` gate by gate (the
    /// DD-based simulation of the paper's Section III).
    ///
    /// # Errors
    ///
    /// Returns [`DdError::NonUnitary`] on measurement/reset (the shot
    /// executor runs those on [`DdEngine`](crate::DdEngine)).
    pub fn run_circuit(&mut self, circuit: &Circuit) -> Result<VectorDd, DdError> {
        let mut v = self.zero_state(circuit.num_qubits().max(1));
        for inst in circuit {
            v = self.apply_instruction(&v, inst)?;
        }
        Ok(v)
    }

    /// Multiplies two matrix DDs (`a · b`).
    ///
    /// # Errors
    ///
    /// Returns [`DdError::QubitCountMismatch`] if the operand widths
    /// differ.
    pub fn multiply(&mut self, a: &MatrixDd, b: &MatrixDd) -> Result<MatrixDd, DdError> {
        if a.num_qubits != b.num_qubits {
            return Err(DdError::QubitCountMismatch {
                left: a.num_qubits,
                right: b.num_qubits,
            });
        }
        let root = self.mat_mat(a.root, b.root);
        Ok(MatrixDd {
            root,
            num_qubits: a.num_qubits,
        })
    }

    /// Applies a matrix DD to a vector DD.
    ///
    /// # Errors
    ///
    /// Returns [`DdError::QubitCountMismatch`] if the widths differ.
    pub fn apply_matrix(&mut self, m: &MatrixDd, v: &VectorDd) -> Result<VectorDd, DdError> {
        if m.num_qubits != v.num_qubits {
            return Err(DdError::QubitCountMismatch {
                left: m.num_qubits,
                right: v.num_qubits,
            });
        }
        let root = self.mat_vec(m.root, v.root);
        Ok(VectorDd {
            root,
            num_qubits: v.num_qubits,
        })
    }

    /// The number of distinct nodes reachable from the matrix root.
    pub fn matrix_node_count(&self, m: &MatrixDd) -> usize {
        self.matrices.count_reachable(m.root.node)
    }

    /// A single matrix entry `⟨row|U|col⟩`, reconstructed by walking the
    /// diagram.
    pub fn matrix_entry(&self, m: &MatrixDd, row: u128, col: u128) -> Complex {
        let mut w = m.root.weight;
        let mut node = m.root.node;
        if w == Complex::ZERO {
            return Complex::ZERO;
        }
        while node != TERMINAL {
            let n = self.matrices.node(node);
            let r = ((row >> n.level) & 1) as usize;
            let c = ((col >> n.level) & 1) as usize;
            let e = n.children[2 * r + c];
            if e.is_zero() {
                return Complex::ZERO;
            }
            w *= e.weight;
            node = e.node;
        }
        w
    }

    /// Expands a matrix DD into a dense [`Matrix`] (cross-validation
    /// only).
    ///
    /// # Panics
    ///
    /// Panics for more than 12 qubits.
    pub fn to_matrix(&self, m: &MatrixDd) -> Matrix {
        assert!(m.num_qubits <= 12, "dense expansion limited to 12 qubits");
        let dim = 1usize << m.num_qubits;
        let mut out = Matrix::zeros(dim, dim);
        for r in 0..dim {
            for c in 0..dim {
                out.set(r, c, self.matrix_entry(m, r as u128, c as u128));
            }
        }
        out
    }

    /// Checks whether the operator is `λ·I` for some unit-modulus `λ`
    /// within `tol` — the identity test at the heart of DD-based
    /// equivalence checking.
    ///
    /// Returns `Some(λ)` when it is, `None` otherwise.
    pub fn identity_phase(&self, m: &MatrixDd, tol: f64) -> Option<Complex> {
        let mut memo: HashMap<NodeId, Option<Complex>> = HashMap::new();
        let lambda = self.identity_lambda(m.root, tol, &mut memo)?;
        ((lambda.abs() - 1.0).abs() <= 1e-6).then_some(lambda)
    }

    /// Returns `λ` such that the edge's block equals `λ·I`, if any.
    fn identity_lambda(
        &self,
        e: MEdge,
        tol: f64,
        memo: &mut HashMap<NodeId, Option<Complex>>,
    ) -> Option<Complex> {
        if e.is_zero() {
            return Some(Complex::ZERO);
        }
        if e.node == TERMINAL {
            return Some(e.weight);
        }
        let inner = if let Some(cached) = memo.get(&e.node) {
            *cached
        } else {
            let node = self.matrices.node(e.node).clone();
            let computed = (|| {
                let l01 = self.identity_lambda(node.children[1], tol, memo)?;
                let l10 = self.identity_lambda(node.children[2], tol, memo)?;
                if l01.abs() > tol || l10.abs() > tol {
                    return None;
                }
                let l00 = self.identity_lambda(node.children[0], tol, memo)?;
                let l11 = self.identity_lambda(node.children[3], tol, memo)?;
                if !l00.approx_eq(l11, tol) {
                    return None;
                }
                Some(l00)
            })();
            memo.insert(e.node, computed);
            computed
        }?;
        Some(e.weight * inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdt_circuit::generators;
    use qdt_complex::FRAC_1_SQRT_2;

    #[test]
    fn single_qubit_gate_dd_matches_matrix() {
        let mut p = DdPackage::new();
        for g in [Gate::X, Gate::H, Gate::S, Gate::T, Gate::Rz(0.7)] {
            let dd = p.gate_dd(&g.matrix(), 1, 0, &[]);
            let dense = p.to_matrix(&dd);
            assert!(dense.approx_eq(&g.matrix(), 1e-12), "{g} DD wrong");
        }
    }

    #[test]
    fn cnot_dd_matches_paper_block_structure() {
        // CX with control q1, target q0 — the paper's Example 1 matrix.
        let mut p = DdPackage::new();
        let dd = p.gate_dd(&Gate::X.matrix(), 2, 0, &[1]);
        let dense = p.to_matrix(&dd);
        let o = Complex::ONE;
        let z = Complex::ZERO;
        let expect = Matrix::from_rows(
            4,
            4,
            &[
                o, z, z, z, //
                z, o, z, z, //
                z, z, z, o, //
                z, z, o, z,
            ],
        );
        assert!(dense.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn control_below_target_works() {
        // CX with control q0 (below), target q1 (above).
        let mut p = DdPackage::new();
        let dd = p.gate_dd(&Gate::X.matrix(), 2, 1, &[0]);
        let dense = p.to_matrix(&dd);
        // |01⟩ → |11⟩ (indices 1 ↔ 3), |00⟩ and |10⟩ fixed.
        assert!(dense.get(3, 1).approx_eq(Complex::ONE, 1e-12));
        assert!(dense.get(1, 3).approx_eq(Complex::ONE, 1e-12));
        assert!(dense.get(0, 0).approx_eq(Complex::ONE, 1e-12));
        assert!(dense.get(2, 2).approx_eq(Complex::ONE, 1e-12));
        assert!(dense.get(1, 1).approx_eq(Complex::ZERO, 1e-12));
    }

    #[test]
    fn toffoli_dd_is_permutation() {
        let mut p = DdPackage::new();
        let dd = p.gate_dd(&Gate::X.matrix(), 3, 2, &[0, 1]);
        let dense = p.to_matrix(&dd);
        for col in 0..8usize {
            let expect_row = if col & 0b011 == 0b011 {
                col ^ 0b100
            } else {
                col
            };
            for row in 0..8 {
                let v = if row == expect_row {
                    Complex::ONE
                } else {
                    Complex::ZERO
                };
                assert!(dense.get(row, col).approx_eq(v, 1e-12), "({row},{col})");
            }
        }
    }

    #[test]
    fn gate_memo_ignores_control_order_and_skips_wide_registers() {
        let mut p = DdPackage::new();
        let x = Gate::X.matrix();
        let a = p.gate_dd(&x, 5, 2, &[0, 4]);
        let b = p.gate_dd(&x, 5, 2, &[4, 0]);
        assert_eq!(a, b);
        assert_eq!(p.gate_cache.len(), 1);
        // Past 128 qubits the control mask cannot key the memo: the
        // gate is built without it, and still canonically.
        let wide = p.gate_dd(&x, 200, 150, &[199, 3]);
        assert_eq!(p.gate_cache.len(), 1);
        assert_eq!(p.gate_dd(&x, 200, 150, &[3, 199]), wide);
    }

    #[test]
    fn bell_run_matches_fig_1() {
        let mut p = DdPackage::new();
        let v = p.run_circuit(&generators::bell()).unwrap();
        let s = FRAC_1_SQRT_2;
        assert!(p.amplitude(&v, 0b00).approx_eq(Complex::real(s), 1e-12));
        assert!(p.amplitude(&v, 0b11).approx_eq(Complex::real(s), 1e-12));
        assert!(p.amplitude(&v, 0b01).approx_eq(Complex::ZERO, 1e-12));
        assert_eq!(p.vector_node_count(&v), 3);
    }

    #[test]
    fn ghz_dd_is_linear_in_qubits() {
        let mut p = DdPackage::new();
        for n in [4, 16, 64] {
            let v = p.run_circuit(&generators::ghz(n)).unwrap();
            assert_eq!(p.vector_node_count(&v), 2 * n - 1, "GHZ_{n} node count");
            let s = FRAC_1_SQRT_2;
            assert!(p.amplitude(&v, 0).approx_eq(Complex::real(s), 1e-9));
            let all_ones = if n == 128 {
                u128::MAX
            } else {
                (1u128 << n) - 1
            };
            assert!(p.amplitude(&v, all_ones).approx_eq(Complex::real(s), 1e-9));
        }
    }

    #[test]
    fn swap_instruction_dd() {
        let mut p = DdPackage::new();
        let mut qc = Circuit::new(2);
        qc.x(0).swap(0, 1);
        let v = p.run_circuit(&qc).unwrap();
        assert!(p.amplitude(&v, 0b10).approx_eq(Complex::ONE, 1e-12));
    }

    #[test]
    fn circuit_dd_matches_gatewise_simulation() {
        let mut p = DdPackage::new();
        let qc = generators::qft(4, true);
        let u = p.circuit_dd(&qc).unwrap();
        let zero = p.zero_state(4);
        let via_matrix = p.apply_matrix(&u, &zero).unwrap();
        let via_gates = p.run_circuit(&qc).unwrap();
        let f = p.fidelity(&via_matrix, &via_gates);
        assert!((f - 1.0).abs() < 1e-9, "fidelity {f}");
    }

    #[test]
    fn identity_check_accepts_identity_and_phase() {
        let mut p = DdPackage::new();
        let i = p.identity(3);
        let lambda = p.identity_phase(&i, 1e-9).expect("identity is identity");
        assert!(lambda.approx_eq(Complex::ONE, 1e-9));
        // A global-phase multiple is still accepted.
        let mut phased = i;
        phased.root = phased.root.scaled(&mut p.ctable, Complex::cis(0.3));
        let lambda = p.identity_phase(&phased, 1e-9).expect("phase identity");
        assert!(lambda.approx_eq(Complex::cis(0.3), 1e-9));
    }

    #[test]
    fn identity_check_rejects_non_identity() {
        let mut p = DdPackage::new();
        let x = p.gate_dd(&Gate::X.matrix(), 2, 0, &[]);
        assert!(p.identity_phase(&x, 1e-9).is_none());
        let cz = p.gate_dd(&Gate::Z.matrix(), 2, 0, &[1]);
        assert!(p.identity_phase(&cz, 1e-9).is_none());
    }

    #[test]
    fn u_times_u_dagger_is_identity() {
        let mut p = DdPackage::new();
        let qc = generators::qft(3, true);
        let u = p.circuit_dd(&qc).unwrap();
        let udg = p.circuit_dd(&qc.inverse().unwrap()).unwrap();
        let prod = p.multiply(&udg, &u).unwrap();
        let lambda = p.identity_phase(&prod, 1e-8).expect("U†U = I");
        assert!(lambda.approx_eq(Complex::ONE, 1e-8));
    }

    #[test]
    fn identity_dd_has_n_nodes() {
        let mut p = DdPackage::new();
        let i = p.identity(7);
        assert_eq!(p.matrix_node_count(&i), 7);
    }

    use qdt_circuit::Circuit;
}
