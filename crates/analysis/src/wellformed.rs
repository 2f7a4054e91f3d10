//! Well-formedness lints (`QDT0xx`) and untouched qubits (`QDT102`).
//!
//! [`qdt_circuit::Circuit::push`] validates these properties on entry,
//! but circuits built through `push_unchecked`, deserialized from
//! external tools, or mutated by buggy compiler passes can still violate
//! them — and the backends index arrays with these values.

use qdt_circuit::{Circuit, OpKind};

use crate::{Code, Diagnostic};

/// Checks index ranges, duplicate qubits, and classical conditions, and
/// flags qubits no instruction names.
pub(crate) fn well_formedness(circuit: &Circuit) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let nq = circuit.num_qubits();
    let nc = circuit.num_clbits();
    // Classical bits written by some earlier measurement.
    let mut written = vec![false; nc];
    let mut named = vec![false; nq];

    for (i, inst) in circuit.iter().enumerate() {
        for q in inst.qubits() {
            if q < nq {
                named[q] = true;
            } else {
                out.push(Diagnostic::new(
                    Code::QubitOutOfRange,
                    Some(i),
                    format!(
                        "{}: qubit {q} out of range for a {nq}-qubit register",
                        inst.name()
                    ),
                ));
            }
        }
        let mut sorted: Vec<usize> = inst.qubits().collect();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            if w[0] == w[1] {
                out.push(Diagnostic::new(
                    Code::DuplicateQubit,
                    Some(i),
                    format!("{}: qubit {} appears twice", inst.name(), w[0]),
                ));
            }
        }
        if let OpKind::Measure { clbit, .. } = inst.kind {
            if clbit >= nc {
                out.push(Diagnostic::new(
                    Code::ClbitOutOfRange,
                    Some(i),
                    format!("measure: clbit {clbit} out of range for a {nc}-bit register"),
                ));
            } else {
                written[clbit] = true;
            }
        }
        if let Some(cond) = inst.cond {
            if cond.clbit >= nc {
                out.push(Diagnostic::new(
                    Code::ClbitOutOfRange,
                    Some(i),
                    format!(
                        "{}: condition clbit {} out of range for a {nc}-bit register",
                        inst.name(),
                        cond.clbit
                    ),
                ));
            } else if !written[cond.clbit] {
                out.push(Diagnostic::new(
                    Code::CondUnwrittenClbit,
                    Some(i),
                    format!(
                        "{}: conditioned on c[{}], which no earlier measurement \
                         writes (the condition is always {})",
                        inst.name(),
                        cond.clbit,
                        if cond.value { "false" } else { "true" }
                    ),
                ));
            }
        }
    }
    for q in (0..nq).filter(|&q| !named[q]) {
        out.push(Diagnostic::new(
            Code::UntouchedQubit,
            None,
            format!("qubit {q} is never used by any instruction"),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdt_circuit::{Gate, Instruction};

    #[test]
    fn condition_after_write_is_fine() {
        let mut qc = Circuit::with_clbits(2, 1);
        qc.h(0).measure(0, 0).x(1).c_if(0, true);
        assert!(well_formedness(&qc).is_empty());
    }

    #[test]
    fn condition_before_write_is_flagged() {
        let mut qc = Circuit::with_clbits(2, 1);
        qc.x(1).c_if(0, true).h(0).measure(0, 0);
        let diags = well_formedness(&qc);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::CondUnwrittenClbit);
        assert_eq!(diags[0].instruction_index, Some(0));
    }

    #[test]
    fn out_of_range_condition_clbit_is_flagged() {
        let mut qc = Circuit::with_clbits(1, 1);
        qc.push_unchecked(
            Instruction::new(OpKind::Unitary {
                gate: Gate::X,
                target: 0,
                controls: vec![],
            })
            .with_cond(5, false),
        );
        let diags = well_formedness(&qc);
        assert_eq!(diags[0].code, Code::ClbitOutOfRange);
    }
}
