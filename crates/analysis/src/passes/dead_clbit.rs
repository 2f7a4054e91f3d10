//! Dead classical-bit writes (`QDT405`).
//!
//! With the dynamic execution model a measurement result has two
//! consumers: later conditioned gates (feed-forward) and the final
//! classical register (the shot's histogram key). A measurement whose
//! clbit is overwritten by a later measurement *before any condition
//! reads it* therefore observes the state — collapsing it, at real
//! simulation cost per shot — for a value nothing ever sees. That is
//! almost always a circuit bug: either the condition reads the wrong
//! bit, or the measurement should target a fresh clbit.
//!
//! The final write to each clbit is always live (it lands in the
//! result), so measure-and-reuse idioms like the reset-reuse ladder
//! stay clean as long as every intermediate value is read.

use qdt_circuit::{Circuit, OpKind};

use crate::{Code, Diagnostic};

/// Flags measurements whose classical result is overwritten before any
/// conditioned instruction reads it (`QDT405`).
///
/// # Example
///
/// ```
/// use qdt_analysis::{Analyzer, Code};
///
/// let mut qc = qdt_circuit::Circuit::with_clbits(2, 1);
/// qc.h(0);
/// qc.measure(0, 0); // dead: overwritten below, never read
/// qc.h(1);
/// qc.measure(1, 0);
/// let report = Analyzer::new().analyze(&qc);
/// assert!(report
///     .diagnostics
///     .iter()
///     .any(|d| d.code == Code::DeadClbitWrite));
/// ```
pub(crate) fn dead_clbit_writes(circuit: &Circuit) -> Vec<Diagnostic> {
    // Per clbit: the index of the last measurement writing it, and
    // whether any condition has read that value since.
    let mut pending: Vec<Option<(usize, bool)>> = vec![None; circuit.num_clbits()];
    let mut diags = Vec::new();
    for (i, inst) in circuit.instructions().iter().enumerate() {
        if let Some(cond) = inst.cond {
            if let Some(entry) = pending.get_mut(cond.clbit).and_then(Option::as_mut) {
                entry.1 = true;
            }
        }
        if let OpKind::Measure { qubit, clbit } = inst.kind {
            if clbit < pending.len() {
                if let Some((def, read)) = pending[clbit].replace((i, false)) {
                    if !read {
                        diags.push(Diagnostic::new(
                            Code::DeadClbitWrite,
                            Some(def),
                            format!(
                                "measurement into clbit {clbit} is overwritten at \
                                 instruction {i} before any condition reads it \
                                 (qubit {qubit} is collapsed for an unused value)"
                            ),
                        ));
                    }
                }
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unread_overwritten_measurement_is_flagged() {
        let mut qc = Circuit::with_clbits(2, 1);
        qc.h(0);
        qc.measure(0, 0);
        qc.h(1);
        qc.measure(1, 0);
        let diags = dead_clbit_writes(&qc);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::DeadClbitWrite);
        assert_eq!(diags[0].instruction_index, Some(1));
    }

    #[test]
    fn condition_read_keeps_the_write_live() {
        // Reset-reuse idiom: each intermediate result feeds a
        // conditioned correction before the clbit is rewritten.
        let mut qc = Circuit::with_clbits(2, 1);
        qc.h(0);
        qc.measure(0, 0);
        qc.x(1).c_if(0, true);
        qc.h(0);
        qc.measure(0, 0);
        assert!(dead_clbit_writes(&qc).is_empty());
    }

    #[test]
    fn final_write_is_always_live() {
        let mut qc = Circuit::with_clbits(1, 1);
        qc.h(0);
        qc.measure(0, 0);
        assert!(dead_clbit_writes(&qc).is_empty());
    }

    #[test]
    fn distinct_clbits_do_not_shadow_each_other() {
        let mut qc = Circuit::with_clbits(2, 2);
        qc.h(0).h(1);
        qc.measure(0, 0);
        qc.measure(1, 1);
        assert!(dead_clbit_writes(&qc).is_empty());
    }
}
