//! Backward lightcone / qubit-liveness from measurements, and the
//! dead-gate lints built on it (`QDT101`, `QDT401`).
//!
//! An instruction is *live* when some chain of dependence edges leads
//! from it to a measurement: its effect can reach an observed outcome.
//! The analysis runs backward over the def-use DAG with two wrinkles a
//! per-wire scan cannot see:
//!
//! * **Reset kills** — liveness does not flow backwards through a
//!   `reset`, which overwrites its qubit regardless of history.
//! * **Condition edges** — a classically-conditioned gate reads the
//!   measurement that wrote its clbit, so a conditioned gate feeding a
//!   measurement keeps *that* measurement's whole cone live too.
//!
//! A gate outside every lightcone is reported once: as `QDT101` when it
//! touches a qubit after that qubit's final measurement, as `QDT401`
//! otherwise. A gate after a final measurement that still feeds another
//! measurement (`measure q0; cx q0,q1; measure q1`) is live and silent.
//!
//! Circuits without any measurement are treated as observed at the end
//! of every wire (the caller will read amplitudes), so nothing is dead
//! and the lint stays silent.

use qdt_circuit::{Circuit, OpKind};

use crate::dag::{CircuitDag, Edge, EdgeKind};
use crate::dataflow::{solve, Analysis, Direction};
use crate::{CircuitFacts, Code, Diagnostic};

/// The liveness analysis: `true` = inside some measurement lightcone.
struct Liveness;

impl Analysis for Liveness {
    type Fact = bool;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn seed(&self, i: usize, circuit: &Circuit) -> bool {
        matches!(circuit.instructions()[i].kind, OpKind::Measure { .. })
    }

    fn transfer(&self, edge: &Edge, fact: &bool, circuit: &Circuit) -> Option<bool> {
        if let EdgeKind::Qubit(q) = edge.kind {
            let later = &circuit.instructions()[edge.to];
            if matches!(later.kind, OpKind::Reset { qubit } if qubit == q) {
                return None;
            }
        }
        Some(*fact)
    }

    fn join(&self, acc: &mut bool, incoming: &bool) -> bool {
        let grew = *incoming && !*acc;
        *acc |= *incoming;
        grew
    }
}

/// Per-instruction liveness facts.
#[derive(Debug, Clone)]
pub struct LightconeFacts {
    /// `true` when the instruction is inside some measurement
    /// lightcone. All-true when the circuit has no measurements.
    pub live: Vec<bool>,
    /// Whether the circuit measures anything (when `false`, `live` is
    /// vacuously all-true and no gate is reportable).
    pub has_measurements: bool,
}

impl LightconeFacts {
    /// Number of unitary instructions outside every lightcone.
    #[must_use]
    pub fn dead_gates(&self, circuit: &Circuit) -> usize {
        circuit
            .iter()
            .zip(&self.live)
            .filter(|(inst, &live)| {
                !live && matches!(inst.kind, OpKind::Unitary { .. } | OpKind::Swap { .. })
            })
            .count()
    }
}

/// Computes liveness for every instruction of `circuit`. The def-use
/// DAG is built only when the circuit measures something: without a
/// measurement every instruction is live and there is nothing to solve.
#[must_use]
pub fn lightcone_facts(circuit: &Circuit) -> LightconeFacts {
    let has_measurements = circuit
        .iter()
        .any(|i| matches!(i.kind, OpKind::Measure { .. }));
    if !has_measurements {
        return LightconeFacts {
            live: vec![true; circuit.len()],
            has_measurements,
        };
    }
    let solution = solve(&Liveness, circuit, &CircuitDag::build(circuit));
    LightconeFacts {
        live: solution.facts,
        has_measurements,
    }
}

/// Flags unitary instructions outside every measurement lightcone:
/// `QDT101` when the gate acts on a qubit after that qubit's final
/// measurement (with no reviving reset), `QDT401` otherwise.
pub(crate) fn dead_gates(circuit: &Circuit, facts: &CircuitFacts) -> Vec<Diagnostic> {
    if !facts.lightcone.has_measurements {
        return Vec::new();
    }
    let nq = circuit.num_qubits();
    let mut final_measure: Vec<Option<usize>> = vec![None; nq];
    for (i, inst) in circuit.iter().enumerate() {
        if let OpKind::Measure { qubit, .. } = inst.kind {
            if qubit < nq {
                final_measure[qubit] = Some(i);
            }
        }
    }
    // Qubits past their final measurement; a reset revives one.
    let mut measured_out = vec![false; nq];
    let mut out = Vec::new();
    for (i, inst) in circuit.iter().enumerate() {
        match inst.kind {
            OpKind::Measure { qubit, .. } if qubit < nq && final_measure[qubit] == Some(i) => {
                measured_out[qubit] = true;
            }
            OpKind::Reset { qubit } if qubit < nq => measured_out[qubit] = false,
            OpKind::Unitary { .. } | OpKind::Swap { .. } if !facts.lightcone.live[i] => {
                let after: Vec<usize> = inst
                    .qubits()
                    .filter(|&q| q < nq && measured_out[q])
                    .collect();
                out.push(if after.is_empty() {
                    Diagnostic::new(
                        Code::OutsideLightcone,
                        Some(i),
                        format!(
                            "{}: no dependence chain reaches any measurement; \
                             the gate cannot affect an observed outcome",
                            inst.name()
                        ),
                    )
                } else {
                    Diagnostic::new(
                        Code::GateAfterMeasure,
                        Some(i),
                        format!(
                            "{}: acts on qubit{} {after:?} after the final measurement; \
                             it cannot affect any outcome",
                            inst.name(),
                            if after.len() == 1 { "" } else { "s" },
                        ),
                    )
                });
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit_facts;

    fn lint(qc: &Circuit) -> Vec<Diagnostic> {
        dead_gates(qc, &circuit_facts(qc))
    }

    #[test]
    fn gate_on_unmeasured_wire_is_outside_the_lightcone() {
        let mut qc = Circuit::with_clbits(2, 1);
        qc.h(0).h(1).measure(0, 0);
        let diags = lint(&qc);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::OutsideLightcone);
        assert_eq!(diags[0].instruction_index, Some(1));
    }

    #[test]
    fn entangling_chain_keeps_upstream_gates_live() {
        // h(1) feeds cx(1,0) which feeds the measurement of q0: live
        // even though q1 itself is never measured.
        let mut qc = Circuit::with_clbits(2, 1);
        qc.h(1).cx(1, 0).measure(0, 0);
        assert!(lint(&qc).is_empty());
    }

    #[test]
    fn reset_cuts_the_cone() {
        let mut qc = Circuit::with_clbits(1, 1);
        qc.h(0).reset(0).x(0).measure(0, 0);
        let diags = lint(&qc);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].instruction_index, Some(0), "the pre-reset H");
    }

    #[test]
    fn conditioned_gate_feeding_a_measurement_is_live() {
        // measure q0 → conditioned X on q1 → measure q1: the conditioned
        // gate is inside q1's lightcone and must never be reported dead.
        let mut qc = Circuit::with_clbits(2, 2);
        qc.h(0).measure(0, 0);
        qc.x(1).c_if(0, true);
        qc.measure(1, 1);
        assert!(lint(&qc).is_empty());
    }

    #[test]
    fn conditioned_gate_feeding_nothing_is_dead() {
        let mut qc = Circuit::with_clbits(2, 2);
        qc.h(0).measure(0, 0);
        qc.x(1).c_if(0, true); // q1 is never observed afterwards
        let diags = lint(&qc);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].instruction_index, Some(2));
    }

    #[test]
    fn no_measurements_means_no_findings() {
        let mut qc = Circuit::new(2);
        qc.h(0).x(1);
        assert!(lint(&qc).is_empty());
        assert_eq!(lightcone_facts(&qc).dead_gates(&qc), 0);
    }

    #[test]
    fn after_measure_cases_are_left_to_the_peephole_pass() {
        // x(0) after q0's final measurement is dead: reported once, as
        // QDT101 rather than QDT401.
        let mut qc = Circuit::with_clbits(1, 1);
        qc.h(0).measure(0, 0).x(0);
        let diags = lint(&qc);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::GateAfterMeasure);
        assert_eq!(diags[0].instruction_index, Some(2));
    }

    #[test]
    fn gates_after_a_final_measurement_that_feed_another_are_live() {
        // x(0) and cx(0,1) act on q0 after its final measurement, but
        // both feed the measurement of q1.
        let mut qc = Circuit::with_clbits(2, 2);
        qc.h(0).measure(0, 0).x(0).cx(0, 1).measure(1, 1);
        assert!(lint(&qc).is_empty());
        let report = crate::Analyzer::new().analyze(&qc);
        assert_eq!(report.with_code(Code::GateAfterMeasure).count(), 0);
        assert_eq!(report.with_code(Code::OutsideLightcone).count(), 0);
    }
}
