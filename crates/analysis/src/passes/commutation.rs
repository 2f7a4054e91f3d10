//! Gate pairs that cancel (`QDT201`, `QDT402`), found by one forward
//! scan.
//!
//! From each unconditioned gate the scan walks the later instructions
//! that share a qubit with it. Instructions on disjoint qubits are
//! skipped: they neither block the scan nor count against its window.
//! The walk stops at the first instruction that undoes the gate
//! ([`cancels`]) or that does not provably commute with it. A pair
//! found at the first shared instruction is an adjacent pair
//! (`QDT201`); one found behind shared, commuting instructions cancels
//! through them (`QDT402`) — `cx(0,1); z(0); cx(0,1)` cancels because
//! Z on the control commutes with CX. Each gate joins at most one pair.
//!
//! The commutation test is structural and conservative. Each
//! instruction acts on each of its qubits in one of two commuting
//! one-qubit algebras:
//!
//! * **Z-class** — control qubits (diagonal projectors) and diagonal
//!   gates (`Z`, `S`, `T`, `Rz`, `Phase`, …). Everything diagonal
//!   commutes with everything diagonal.
//! * **X-class** — `X`-axis gates on the target (`X`, `Sx`, `Sx†`,
//!   `Rx`), all of the form `e^{iθX}` up to global phase, so they
//!   mutually commute.
//!
//! Two instructions commute when, on every *shared* qubit, both act in
//! the *same* class. Since controlled gates decompose as
//! `Π|1⟩⟨1| ⊗ G + (1 − Π) ⊗ I`, equal classes make every term pair
//! commute qubit-by-qubit, which is sufficient (not necessary —
//! anything unclassifiable, barriers included, is treated as
//! non-commuting).

use qdt_circuit::{Circuit, Gate, Instruction, OpKind};

use crate::{Code, Diagnostic};

/// How many later instructions sharing a qubit with a gate the scan
/// examines for its cancelling twin. Keeps the scan `O(len · WINDOW)`
/// on pathological circuits.
const WINDOW: usize = 64;

/// Which commuting one-qubit algebra an instruction acts in on a qubit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Axis {
    /// Diagonal: controls and diagonal gates.
    Z,
    /// `e^{iθX}`-shaped on the target.
    X,
    /// Anything else (swaps, `H`, `Y`, `Ry`, `U`, …).
    Other,
}

/// The axis `inst` acts along on qubit `q` (which must be one of its
/// qubits).
fn axis_on(inst: &Instruction, q: usize) -> Axis {
    match &inst.kind {
        OpKind::Unitary {
            gate,
            target,
            controls,
        } => {
            if controls.contains(&q) {
                return Axis::Z;
            }
            if *target != q {
                return Axis::Other;
            }
            if gate.is_diagonal() {
                Axis::Z
            } else if matches!(gate, Gate::X | Gate::Sx | Gate::Sxdg | Gate::Rx(_)) {
                Axis::X
            } else {
                Axis::Other
            }
        }
        _ => Axis::Other,
    }
}

/// Conservative structural commutation between two instructions: true
/// when they act on disjoint qubits, or act in the same non-`Other`
/// axis on every shared qubit.
fn commutes(a: &Instruction, b: &Instruction) -> bool {
    if a.cond.is_some() || b.cond.is_some() {
        return false;
    }
    if !matches!(a.kind, OpKind::Unitary { .. }) || !matches!(b.kind, OpKind::Unitary { .. }) {
        // Swaps permute wires; measure/reset collapse or overwrite;
        // barriers pin ordering. All treated as non-commuting.
        return false;
    }
    for q in a.qubits() {
        if !b.qubits().any(|r| r == q) {
            continue;
        }
        let (ax, bx) = (axis_on(a, q), axis_on(b, q));
        if ax == Axis::Other || ax != bx {
            return false;
        }
    }
    true
}

/// Structural test: does `b` undo `a`? Exact on the gate enum (no
/// matrix arithmetic), so `Rz(θ)` then `Rz(-θ)` is caught but two
/// rotations that merely sum to zero numerically are not.
fn cancels(a: &Instruction, b: &Instruction) -> bool {
    if a.cond.is_some() || b.cond.is_some() {
        return false; // conditioned gates may or may not fire
    }
    let sorted = |controls: &[usize]| {
        let mut s = controls.to_vec();
        s.sort_unstable();
        s
    };
    match (&a.kind, &b.kind) {
        (
            OpKind::Unitary {
                gate: g1,
                target: t1,
                controls: c1,
            },
            OpKind::Unitary {
                gate: g2,
                target: t2,
                controls: c2,
            },
        ) => t1 == t2 && sorted(c1) == sorted(c2) && g1.inverse() == *g2,
        (
            OpKind::Swap {
                a: a1,
                b: b1,
                controls: c1,
            },
            OpKind::Swap {
                a: a2,
                b: b2,
                controls: c2,
            },
        ) => (a1.min(b1), a1.max(b1)) == (a2.min(b2), a2.max(b2)) && sorted(c1) == sorted(c2),
        _ => false,
    }
}

/// Flags every cancelling gate pair: `QDT201` when no instruction
/// between the two shares a qubit with them, `QDT402` when the pair
/// cancels through shared instructions that provably commute with it.
pub(crate) fn cancelling_pairs(circuit: &Circuit) -> Vec<Diagnostic> {
    let insts = circuit.instructions();
    let nq = circuit.num_qubits();
    // Per qubit, the instructions naming it, in stream order (once each,
    // even when a malformed instruction names the qubit twice).
    let mut on_qubit: Vec<Vec<usize>> = vec![Vec::new(); nq];
    for (i, inst) in insts.iter().enumerate() {
        for q in inst.qubits() {
            if q < nq && on_qubit[q].last() != Some(&i) {
                on_qubit[q].push(i);
            }
        }
    }
    let mut out = Vec::new();
    // A gate already in a reported pair joins no other.
    let mut consumed = vec![false; insts.len()];
    for (i, gate) in insts.iter().enumerate() {
        if consumed[i] || !gate.is_unitary() {
            continue;
        }
        // The first WINDOW later instructions sharing a qubit with the
        // gate: the union of each qubit's next WINDOW.
        let mut shared: Vec<usize> = gate
            .qubits()
            .filter(|&q| q < nq)
            .flat_map(|q| {
                let list = &on_qubit[q];
                list[list.partition_point(|&j| j <= i)..]
                    .iter()
                    .take(WINDOW)
                    .copied()
            })
            .collect();
        shared.sort_unstable();
        shared.dedup();
        shared.truncate(WINDOW);
        for (k, &j) in shared.iter().enumerate() {
            if consumed[j] {
                break;
            }
            if cancels(gate, &insts[j]) {
                let (code, reason) = if k == 0 {
                    (Code::RedundantPair, "; both can be removed")
                } else {
                    (
                        Code::CommutingCancellation,
                        ": every instruction between them commutes with the pair",
                    )
                };
                out.push(Diagnostic::new(
                    code,
                    Some(j),
                    format!(
                        "{} at {j} cancels with {} at {i}{reason}",
                        insts[j].name(),
                        gate.name()
                    ),
                ));
                consumed[i] = true;
                consumed[j] = true;
                break;
            }
            if !commutes(gate, &insts[j]) {
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cx_commutes_through_z_on_control() {
        let mut qc = Circuit::new(2);
        qc.cx(0, 1).z(0).cx(0, 1);
        let diags = cancelling_pairs(&qc);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::CommutingCancellation);
        assert_eq!(diags[0].instruction_index, Some(2));
    }

    #[test]
    fn cx_commutes_through_x_on_target() {
        let mut qc = Circuit::new(2);
        qc.cx(0, 1).x(1).cx(0, 1);
        assert_eq!(cancelling_pairs(&qc).len(), 1);
    }

    #[test]
    fn x_on_control_blocks_the_pair() {
        let mut qc = Circuit::new(2);
        qc.cx(0, 1).x(0).cx(0, 1);
        assert!(cancelling_pairs(&qc).is_empty());
    }

    #[test]
    fn hadamard_in_between_blocks_the_pair() {
        let mut qc = Circuit::new(1);
        qc.z(0).h(0).z(0);
        assert!(cancelling_pairs(&qc).is_empty());
    }

    #[test]
    fn disjoint_spectators_are_left_to_the_peephole_pass() {
        // A spectator on another wire leaves the pair adjacent: QDT201,
        // not QDT402.
        let mut qc = Circuit::new(2);
        qc.h(0).x(1).h(0);
        let diags = cancelling_pairs(&qc);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::RedundantPair);
        assert_eq!(diags[0].instruction_index, Some(2));
    }

    #[test]
    fn diagonal_chain_cancels_through_shared_wires() {
        // t(0) … tdg(0) through cz(0,1) and s(0): all diagonal on q0.
        let mut qc = Circuit::new(2);
        qc.t(0).cz(0, 1).s(0).tdg(0);
        let diags = cancelling_pairs(&qc);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].instruction_index, Some(3));
    }

    #[test]
    fn conditioned_gates_do_not_participate() {
        let mut qc = Circuit::with_clbits(2, 1);
        qc.measure(0, 0);
        qc.cx(0, 1);
        qc.z(0).c_if(0, true);
        qc.cx(0, 1);
        assert!(cancelling_pairs(&qc).is_empty());
    }

    #[test]
    fn each_gate_joins_at_most_one_pair() {
        // cx z cx z cx: the first pair consumes gates 0 and 2; gate 2
        // must not also open a pair with gate 4.
        let mut qc = Circuit::new(2);
        qc.cx(0, 1).z(0).cx(0, 1).z(0).cx(0, 1);
        assert_eq!(cancelling_pairs(&qc).len(), 1);
    }

    #[test]
    fn a_run_of_self_inverse_gates_pairs_each_gate_once() {
        let redundant = |qc: &Circuit| -> Vec<Option<usize>> {
            let report = crate::Analyzer::new().analyze(qc);
            report
                .with_code(Code::RedundantPair)
                .map(|d| d.instruction_index)
                .collect()
        };
        let mut qc = Circuit::new(1);
        qc.h(0).h(0).h(0);
        assert_eq!(redundant(&qc), [Some(1)]);

        let mut qc = Circuit::new(2);
        for _ in 0..70 {
            qc.x(1);
        }
        let closers: Vec<_> = (1..70).step_by(2).map(Some).collect();
        assert_eq!(closers.len(), 35);
        assert_eq!(redundant(&qc), closers);
    }

    #[test]
    fn disjoint_spectators_do_not_use_up_the_window() {
        let mut qc = Circuit::new(2);
        qc.h(0);
        for k in 0..70 {
            if k % 2 == 0 {
                qc.t(1);
            } else {
                qc.h(1);
            }
        }
        qc.h(0);
        let diags = cancelling_pairs(&qc);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::RedundantPair);
        assert_eq!(diags[0].instruction_index, Some(71));
    }

    #[test]
    fn disjoint_non_unitaries_do_not_block_the_pair() {
        let mut measured = Circuit::with_clbits(3, 1);
        measured.h(0).measure(1, 0).h(0);
        let mut swapped = Circuit::new(3);
        swapped.h(0).swap(1, 2).h(0);
        let mut conditioned = Circuit::with_clbits(3, 1);
        conditioned.measure(2, 0).h(0);
        conditioned.x(1).c_if(0, true);
        conditioned.h(0);
        for qc in [measured, swapped, conditioned] {
            let diags = cancelling_pairs(&qc);
            assert_eq!(diags.len(), 1, "{diags:?}");
            assert_eq!(diags[0].code, Code::RedundantPair);
            assert_eq!(diags[0].instruction_index, Some(qc.len() - 1));
        }
    }

    #[test]
    fn barrier_on_the_pair_blocks_it() {
        let mut qc = Circuit::new(2);
        qc.h(0).barrier().h(0);
        assert!(cancelling_pairs(&qc).is_empty());
    }
}
