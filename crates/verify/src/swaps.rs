//! SWAP elision for [`verify_compilation`](crate::verify_compilation): a
//! SWAP only relabels wires, so it is dropped and the later gates are
//! relabelled instead of multiplying it into the miter.

use qdt_circuit::{Circuit, Gate, Instruction, OpKind};

/// A circuit with its SWAPs elided.
pub(crate) struct Elided {
    /// The circuit without its SWAPs, later gates relabelled.
    pub(crate) circuit: Circuit,
    /// The original circuit is `circuit` followed by moving the content
    /// of each qubit `loc[q]` to qubit `q`.
    pub(crate) loc: Vec<usize>,
    /// SWAPs dropped: plain ones and CX triples.
    pub(crate) swaps: usize,
}

/// `(control, target)` of an unconditioned CX with one control.
fn plain_cx(inst: &Instruction) -> Option<(usize, usize)> {
    match &inst.kind {
        OpKind::Unitary {
            gate: Gate::X,
            target,
            controls,
        } if controls.len() == 1 && inst.cond.is_none() => Some((controls[0], *target)),
        _ => None,
    }
}

/// Drops the SWAPs of `qc` and relabels the later gates through them, in
/// one pass over the instructions.
pub(crate) fn elide_swaps(qc: &Circuit) -> Elided {
    let insts = qc.instructions();
    let n = qc.num_qubits();
    // next[i]: for a plain CX, the next instruction if it is the next
    // one on both of its wires.
    let mut next = vec![None; insts.len()];
    let mut last = vec![None; n];
    for (i, inst) in insts.iter().enumerate().rev() {
        if let Some((c, t)) = plain_cx(inst) {
            next[i] = if last[c] == last[t] { last[c] } else { None };
        }
        for q in inst.qubits() {
            last[q] = Some(i);
        }
    }
    // The wires of a CX triple that starts at `i`, and its other gates.
    let triple = |i: usize| -> Option<(usize, usize, usize, usize)> {
        let (a, b) = plain_cx(&insts[i])?;
        let j = next[i].filter(|&j| plain_cx(&insts[j]) == Some((b, a)))?;
        let k = next[j].filter(|&k| plain_cx(&insts[k]) == Some((a, b)))?;
        Some((a, b, j, k))
    };

    // loc[q]: the elided qubit holding what the original holds on q.
    let mut loc: Vec<usize> = (0..n).collect();
    let mut dropped = vec![false; insts.len()];
    let mut circuit = Circuit::with_clbits(n, qc.num_clbits());
    let mut swaps = 0;
    for (i, inst) in insts.iter().enumerate() {
        if dropped[i] {
            continue;
        }
        let pair = match &inst.kind {
            OpKind::Swap { a, b, controls } if controls.is_empty() && inst.cond.is_none() => {
                Some((*a, *b))
            }
            _ => triple(i).map(|(a, b, j, k)| {
                dropped[j] = true;
                dropped[k] = true;
                (a, b)
            }),
        };
        match pair {
            Some((a, b)) => {
                loc.swap(a, b);
                swaps += 1;
            }
            None => circuit.push_unchecked(inst.remapped(|q| loc[q])),
        }
    }
    Elided {
        circuit,
        loc,
        swaps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Elides `qc` and checks the identity `qc == elided; perm` on the
    /// dense unitaries.
    fn elide_exactly(qc: &Circuit) -> Elided {
        let e = elide_swaps(qc);
        let mut perm = vec![0; e.loc.len()];
        for (q, &l) in e.loc.iter().enumerate() {
            perm[l] = q;
        }
        let mut rebuilt = e.circuit.clone();
        qdt_compile::routing::push_permutation(&mut rebuilt, &perm);
        let (u, v) = (
            qdt_array::circuit_unitary(qc).unwrap(),
            qdt_array::circuit_unitary(&rebuilt).unwrap(),
        );
        assert!(u.approx_eq(&v, 1e-12), "elision changed the unitary");
        e
    }

    #[test]
    fn plain_swaps_and_cx_triples_are_dropped_and_relabel_later_gates() {
        let mut qc = Circuit::new(3);
        qc.h(0)
            .swap(0, 1)
            .t(1)
            .cx(1, 2)
            .cx(2, 1)
            .cx(1, 2)
            .s(2)
            .cx(2, 0);
        let e = elide_exactly(&qc);
        assert_eq!(e.swaps, 2);
        let names: Vec<String> = e.circuit.iter().map(Instruction::name).collect();
        assert_eq!(names, ["h", "t", "s", "cx"]);
        // t follows qubit 0's content; s and cx follow it through both.
        let qubits: Vec<Vec<usize>> = e.circuit.iter().map(|i| i.qubits().collect()).collect();
        assert_eq!(qubits, [vec![0], vec![0], vec![0], vec![1, 0]]);
    }

    #[test]
    fn a_triple_with_a_gate_on_its_wires_in_between_is_kept() {
        for between in [0, 1] {
            let mut qc = Circuit::new(3);
            qc.cx(0, 1).cx(1, 0);
            qc.h(between);
            qc.cx(0, 1);
            let e = elide_exactly(&qc);
            assert_eq!((e.swaps, e.circuit.len()), (0, 4), "h on {between}");
        }
        // A gate on a third wire does not break the triple.
        let mut qc = Circuit::new(3);
        qc.cx(0, 1).h(2).cx(1, 0).cx(0, 1);
        let e = elide_exactly(&qc);
        assert_eq!((e.swaps, e.circuit.len()), (1, 1));
    }

    #[test]
    fn controlled_and_conditioned_swaps_are_kept() {
        let mut qc = Circuit::new(3);
        qc.h(2).cswap(2, 0, 1);
        let e = elide_exactly(&qc);
        assert_eq!((e.swaps, e.circuit.len()), (0, 2));

        // Conditioned gates are not unitary: neither a conditioned swap
        // nor a triple with a conditioned CX is a relabelling.
        let cx = |c: usize, t: usize| {
            Instruction::new(OpKind::Unitary {
                gate: Gate::X,
                target: t,
                controls: vec![c],
            })
        };
        let swap = Instruction::new(OpKind::Swap {
            a: 0,
            b: 1,
            controls: vec![],
        });
        let mut qc = Circuit::with_clbits(2, 1);
        for inst in [
            swap.with_cond(0, true),
            cx(0, 1),
            cx(1, 0).with_cond(0, true),
            cx(0, 1),
        ] {
            qc.push(inst).unwrap();
        }
        let e = elide_swaps(&qc);
        assert_eq!((e.swaps, e.circuit.len(), e.loc), (0, 4, vec![0, 1]));
    }

    #[test]
    fn overlapping_triples_elide_once() {
        // cx(0,1) cx(1,0) cx(0,1) cx(1,0) cx(0,1): the first three form
        // one SWAP, the last two are left as gates.
        let mut qc = Circuit::new(2);
        qc.cx(0, 1).cx(1, 0).cx(0, 1).cx(1, 0).cx(0, 1);
        let e = elide_exactly(&qc);
        assert_eq!((e.swaps, e.circuit.len()), (1, 2));
        assert_eq!(e.loc, [1, 0]);
    }
}
