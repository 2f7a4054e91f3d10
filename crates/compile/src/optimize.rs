//! Peephole circuit optimisation.
//!
//! Three passes run to a fixed point: cancellation of adjacent inverse
//! pairs, merging of adjacent rotations about the same axis, and fusion
//! of single-qubit gate runs into one `U(θ,φ,λ)`. All passes preserve the
//! unitary up to a global phase (gate fusion drops the phase extracted
//! by the Euler decomposition).

use qdt_circuit::{Circuit, Gate, Instruction, OpKind};
use qdt_complex::{zyz_decompose, Matrix};

/// Runs all passes until no pass changes the circuit.
pub fn optimize(circuit: &Circuit) -> Circuit {
    let mut current = circuit.clone();
    loop {
        let (next, cancelled) = cancel_inverses(&current);
        let (next, merged) = merge_rotations(&next);
        current = next;
        if !cancelled && !merged {
            return current;
        }
    }
}

/// Like [`optimize`] but additionally fuses runs of ≥3 single-qubit
/// gates into a single `U` gate (changes gate names, so kept separate).
pub fn optimize_with_fusion(circuit: &Circuit) -> Circuit {
    let mut current = optimize(circuit);
    let (fused, changed) = fuse_1q_runs(&current);
    if changed {
        current = optimize(&fused);
    }
    current
}

/// Two instructions are inverse neighbours if they touch the same qubits
/// in the same roles and their matrices cancel.
fn is_inverse_pair(a: &Instruction, b: &Instruction) -> bool {
    if a.cond.is_some() || b.cond.is_some() {
        // Whether a conditioned gate fires depends on the classical
        // register, so it never statically cancels.
        return false;
    }
    let sorted = |c: &[usize]| {
        let mut s = c.to_vec();
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
        ) => {
            t1 == t2
                && sorted(c1) == sorted(c2)
                && g1
                    .matrix()
                    .mul(&g2.matrix())
                    .approx_eq(&Matrix::identity(2), 1e-12)
        }
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
        ) => {
            let p1 = (a1.min(b1), a1.max(b1));
            let p2 = (a2.min(b2), a2.max(b2));
            p1 == p2 && sorted(c1) == sorted(c2)
        }
        _ => false,
    }
}

/// Removes adjacent inverse pairs (adjacent = no intervening instruction
/// shares a qubit). Returns the new circuit and whether it changed.
pub fn cancel_inverses(circuit: &Circuit) -> (Circuit, bool) {
    let insts = circuit.instructions();
    let mut keep = vec![true; insts.len()];
    let mut changed = false;
    // For each qubit, remember the index of the last kept instruction
    // touching it.
    let mut last: Vec<Option<usize>> = vec![None; circuit.num_qubits()];
    for (i, inst) in insts.iter().enumerate() {
        if matches!(inst.kind, OpKind::Barrier(_)) {
            for q in inst.qubits() {
                last[q] = Some(i);
            }
            continue;
        }
        let qs = inst.qubits();
        // The candidate predecessor must be the same for all our qubits.
        let pred = qs.clone().next().and_then(|q| last[q]);
        let cancelled = if let Some(p) = pred {
            qs.clone().all(|q| last[q] == Some(p))
                && keep[p]
                && !matches!(insts[p].kind, OpKind::Barrier(_))
                && is_inverse_pair(&insts[p], inst)
        } else {
            false
        };
        if cancelled {
            let p = pred.expect("checked");
            keep[p] = false;
            keep[i] = false;
            changed = true;
            // Re-expose whatever preceded p on these qubits.
            let mut prior: Vec<Option<usize>> = vec![None; qs.len()];
            for (idx, q) in qs.clone().enumerate() {
                for j in (0..p).rev() {
                    if keep[j] && insts[j].qubits().any(|r| r == q) {
                        prior[idx] = Some(j);
                        break;
                    }
                }
            }
            for (idx, q) in qs.enumerate() {
                last[q] = prior[idx];
            }
        } else {
            for q in qs {
                last[q] = Some(i);
            }
        }
    }
    let mut out = Circuit::with_clbits(circuit.num_qubits(), circuit.num_clbits());
    for (i, inst) in insts.iter().enumerate() {
        if keep[i] {
            out.push(inst.clone()).expect("same registers");
        }
    }
    (out, changed)
}

/// Axis of a mergeable rotation.
fn rotation_axis(gate: &Gate) -> Option<(u8, f64)> {
    match gate {
        Gate::Rx(t) => Some((0, *t)),
        Gate::Ry(t) => Some((1, *t)),
        Gate::Rz(t) => Some((2, *t)),
        Gate::Phase(t) => Some((3, *t)),
        _ => None,
    }
}

fn rotation_of(axis: u8, angle: f64) -> Gate {
    match axis {
        0 => Gate::Rx(angle),
        1 => Gate::Ry(angle),
        2 => Gate::Rz(angle),
        _ => Gate::Phase(angle),
    }
}

/// Merges adjacent same-axis rotations on the same qubit (with equal
/// control sets), dropping merged rotations that reach angle 0 (mod 2π).
pub fn merge_rotations(circuit: &Circuit) -> (Circuit, bool) {
    let insts = circuit.instructions();
    let mut out: Vec<Instruction> = Vec::with_capacity(insts.len());
    let mut changed = false;
    'outer: for inst in insts {
        if let OpKind::Unitary {
            gate,
            target,
            controls,
        } = &inst.kind
        {
            // Conditioned rotations never merge: whether they fire depends
            // on the classical register.
            let mergeable = if inst.cond.is_none() {
                rotation_axis(gate)
            } else {
                None
            };
            if let Some((axis, angle)) = mergeable {
                // Find the last kept instruction touching any of our
                // qubits; merge if it is the same-axis rotation here.
                for j in (0..out.len()).rev() {
                    if !inst.qubits().any(|q| out[j].qubits().any(|r| r == q)) {
                        continue;
                    }
                    if let OpKind::Unitary {
                        gate: g2,
                        target: t2,
                        controls: c2,
                    } = &out[j].kind
                    {
                        if t2 == target && c2 == controls && out[j].cond.is_none() {
                            if let Some((axis2, angle2)) = rotation_axis(g2) {
                                if axis2 == axis {
                                    changed = true;
                                    let total = angle + angle2;
                                    let wrapped = total.rem_euclid(2.0 * std::f64::consts::PI);
                                    if wrapped.abs() < 1e-12
                                        || (wrapped - 2.0 * std::f64::consts::PI).abs() < 1e-12
                                    {
                                        out.remove(j);
                                    } else {
                                        out[j] = Instruction::new(OpKind::Unitary {
                                            gate: rotation_of(axis, total),
                                            target: *target,
                                            controls: controls.clone(),
                                        });
                                    }
                                    continue 'outer;
                                }
                            }
                        }
                    }
                    break; // blocked by an unrelated instruction
                }
            }
        }
        out.push(inst.clone());
    }
    let mut qc = Circuit::with_clbits(circuit.num_qubits(), circuit.num_clbits());
    for inst in out {
        qc.push(inst).expect("same registers");
    }
    (qc, changed)
}

/// Fuses maximal runs of ≥3 uncontrolled single-qubit gates on one qubit
/// into a single `U(θ,φ,λ)` (global phase dropped; identity runs vanish).
pub fn fuse_1q_runs(circuit: &Circuit) -> (Circuit, bool) {
    let insts = circuit.instructions();
    let mut out: Vec<Instruction> = Vec::new();
    let mut changed = false;
    // Pending run per qubit.
    let mut runs: Vec<Vec<Gate>> = vec![Vec::new(); circuit.num_qubits()];

    let flush =
        |q: usize, runs: &mut Vec<Vec<Gate>>, out: &mut Vec<Instruction>, changed: &mut bool| {
            let run = std::mem::take(&mut runs[q]);
            match run.len() {
                0 => {}
                1 | 2 => {
                    for g in run {
                        out.push(Instruction::new(OpKind::Unitary {
                            gate: g,
                            target: q,
                            controls: vec![],
                        }));
                    }
                }
                _ => {
                    let m = crate::decompose::matrix_of_run(&run);
                    if m.approx_eq_up_to_global_phase(&Matrix::identity(2), 1e-12) {
                        *changed = true;
                        return;
                    }
                    let a = zyz_decompose(&m);
                    *changed = true;
                    out.push(Instruction::new(OpKind::Unitary {
                        gate: Gate::U(a.gamma, a.beta, a.delta),
                        target: q,
                        controls: vec![],
                    }));
                }
            }
        };

    for inst in insts {
        match &inst.kind {
            OpKind::Unitary {
                gate,
                target,
                controls,
            } if controls.is_empty() && inst.cond.is_none() => {
                runs[*target].push(*gate);
            }
            _ => {
                for q in inst.qubits() {
                    flush(q, &mut runs, &mut out, &mut changed);
                }
                out.push(inst.clone());
            }
        }
    }
    for q in 0..circuit.num_qubits() {
        flush(q, &mut runs, &mut out, &mut changed);
    }
    let mut qc = Circuit::with_clbits(circuit.num_qubits(), circuit.num_clbits());
    for inst in out {
        qc.push(inst).expect("same registers");
    }
    (qc, changed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdt_array::circuit_unitary;
    use qdt_circuit::generators;

    fn assert_equiv_up_to_phase(a: &Circuit, b: &Circuit) {
        let ua = circuit_unitary(a).unwrap();
        let ub = circuit_unitary(b).unwrap();
        assert!(
            ua.approx_eq_up_to_global_phase(&ub, 1e-8),
            "optimisation broke semantics"
        );
    }

    #[test]
    fn adjacent_inverses_cancel() {
        let mut qc = Circuit::new(2);
        qc.h(0).h(0).cx(0, 1).cx(0, 1).t(1).tdg(1);
        let out = optimize(&qc);
        assert_eq!(out.len(), 0, "{out}");
    }

    #[test]
    fn blocked_pairs_do_not_cancel() {
        let mut qc = Circuit::new(2);
        qc.h(0).cx(0, 1).h(0); // CX touches qubit 0 in between
        let out = optimize(&qc);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn cancellation_cascades() {
        // h x x h — inner pair cancels, exposing the outer pair.
        let mut qc = Circuit::new(1);
        qc.h(0).x(0).x(0).h(0);
        let out = optimize(&qc);
        assert_eq!(out.len(), 0);
    }

    #[test]
    fn rotations_merge_and_vanish() {
        let mut qc = Circuit::new(1);
        qc.rz(0.4, 0).rz(0.6, 0);
        let out = optimize(&qc);
        assert_eq!(out.len(), 1);
        assert_equiv_up_to_phase(&qc, &out);

        let mut qc = Circuit::new(1);
        qc.rz(1.0, 0).rz(-1.0, 0);
        let out = optimize(&qc);
        assert_eq!(out.len(), 0);
    }

    #[test]
    fn controlled_rotations_merge_with_same_controls() {
        let mut qc = Circuit::new(2);
        qc.crz(0.3, 0, 1).crz(0.4, 0, 1);
        let out = optimize(&qc);
        assert_eq!(out.len(), 1);
        assert_equiv_up_to_phase(&qc, &out);
    }

    #[test]
    fn different_axes_do_not_merge() {
        let mut qc = Circuit::new(1);
        qc.rz(0.3, 0).rx(0.4, 0);
        let out = optimize(&qc);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn swap_pairs_cancel() {
        let mut qc = Circuit::new(3);
        qc.swap(0, 2).swap(2, 0);
        let out = optimize(&qc);
        assert_eq!(out.len(), 0);
    }

    #[test]
    fn fusion_collapses_runs() {
        let mut qc = Circuit::new(1);
        qc.h(0).t(0).h(0).s(0).h(0);
        let out = optimize_with_fusion(&qc);
        assert!(out.len() <= 1, "{out}");
        assert_equiv_up_to_phase(&qc, &out);
    }

    #[test]
    fn fusion_drops_identity_runs() {
        let mut qc = Circuit::new(1);
        qc.h(0).z(0).h(0).x(0); // HZH = X, then X: identity
        let out = optimize_with_fusion(&qc);
        assert_eq!(out.len(), 0, "{out}");
    }

    #[test]
    fn optimizer_preserves_random_circuits() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(81);
        for _ in 0..5 {
            let qc = generators::random_clifford_t(4, 6, 0.3, &mut rng);
            let out = optimize_with_fusion(&qc);
            assert!(out.len() <= qc.len());
            assert_equiv_up_to_phase(&qc, &out);
        }
    }

    #[test]
    fn barriers_block_cancellation() {
        let mut qc = Circuit::new(1);
        qc.h(0);
        qc.barrier();
        qc.h(0);
        let out = optimize(&qc);
        assert_eq!(out.gate_count(), 2);
    }

    use qdt_circuit::Circuit;
}
