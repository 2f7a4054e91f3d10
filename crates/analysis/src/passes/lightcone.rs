//! Backward lightcone / qubit-liveness from measurements, and the
//! dead-gate lints built on it (`QDT101`, `QDT401`).
//!
//! An instruction is *live* when a chain of instructions, each sharing
//! a qubit with the next one on that qubit, leads from it to a
//! measurement: its effect can reach an observed outcome. The stream
//! order is already a topological order, so one reverse pass computes
//! liveness, keeping one flag per qubit: whether the next instruction
//! on that qubit is live and lets liveness through.
//!
//! * **Reset kills** — liveness does not flow backwards through a
//!   `reset`, which overwrites its qubit regardless of history.
//! * **Conditions add nothing** — a classically-conditioned gate reads
//!   a clbit that only a measurement writes, and every measurement is
//!   live already, so a condition never makes another instruction live.
//! * **Barriers carry no data** — they are never live, and liveness
//!   flows across them to the instruction before.
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

use crate::{CircuitFacts, Code, Diagnostic};

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

/// Computes liveness for every instruction of `circuit` in one reverse
/// pass. Without a measurement every instruction is live.
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
    let nq = circuit.num_qubits();
    // Whether the next instruction on each qubit is live and not a reset.
    let mut next_live = vec![false; nq];
    let mut live = vec![false; circuit.len()];
    for (i, inst) in circuit.iter().enumerate().rev() {
        if matches!(inst.kind, OpKind::Barrier(_)) {
            continue;
        }
        let qubits = inst.qubits().filter(|&q| q < nq);
        live[i] =
            matches!(inst.kind, OpKind::Measure { .. }) || qubits.clone().any(|q| next_live[q]);
        let flows_back = live[i] && !matches!(inst.kind, OpKind::Reset { .. });
        for q in qubits {
            next_live[q] = flows_back;
        }
    }
    LightconeFacts {
        live,
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

    /// Forward-taint oracle: instruction `i` is live when taint started
    /// on its in-range qubits reaches a measurement. A gate touching a
    /// tainted qubit taints all of its qubits; a reset clears its qubit.
    fn oracle_live(qc: &Circuit) -> Vec<bool> {
        let insts = qc.instructions();
        if !insts
            .iter()
            .any(|i| matches!(i.kind, OpKind::Measure { .. }))
        {
            return vec![true; insts.len()];
        }
        let nq = qc.num_qubits();
        let live = |i: usize| {
            match insts[i].kind {
                OpKind::Measure { .. } => return true,
                OpKind::Barrier(_) => return false,
                _ => {}
            }
            let mut tainted = vec![false; nq];
            insts[i]
                .qubits()
                .filter(|&q| q < nq)
                .for_each(|q| tainted[q] = true);
            for later in &insts[i + 1..] {
                if !later.qubits().any(|q| q < nq && tainted[q]) {
                    continue;
                }
                match later.kind {
                    OpKind::Barrier(_) => {}
                    OpKind::Measure { .. } => return true,
                    OpKind::Reset { qubit } => tainted[qubit] = false,
                    _ => later
                        .qubits()
                        .filter(|&q| q < nq)
                        .for_each(|q| tainted[q] = true),
                }
            }
            false
        };
        (0..insts.len()).map(live).collect()
    }

    /// A random dynamic circuit on 1–5 qubits: gates, measurements,
    /// resets, `c_if`, barriers, noise channels, and out-of-range
    /// operands built with `push_unchecked`.
    fn random_dynamic_circuit(rng: &mut rand::rngs::StdRng) -> Circuit {
        use qdt_circuit::{Channel, Gate, Instruction};
        use rand::Rng;
        use std::sync::Arc;
        let nq = rng.gen_range(1usize..6);
        let nc = rng.gen_range(1usize..4);
        let flip = Arc::new(Channel::new(vec![Gate::X.matrix()]).expect("unitary Kraus"));
        let mut qc = Circuit::with_clbits(nq, nc);
        for _ in 0..rng.gen_range(0usize..16) {
            let q = rng.gen_range(0..nq);
            let (r, s) = ((q + 1) % nq, (q + 2) % nq);
            let gate = match rng.gen_range(0u32..11) {
                0 => qc.h(q),
                1 => qc.t(q),
                2 if nq > 1 => qc.cx(q, r),
                3 if nq > 1 => qc.swap(q, r),
                4 if nq > 2 => qc.ccx(q, r, s),
                5 => {
                    qc.measure(q, rng.gen_range(0..nc));
                    continue;
                }
                6 => {
                    qc.reset(q);
                    continue;
                }
                7 => {
                    qc.barrier();
                    continue;
                }
                8 => {
                    qc.push(Instruction::new(OpKind::Channel {
                        qubit: q,
                        channel: Arc::clone(&flip),
                    }))
                    .expect("in-range channel");
                    continue;
                }
                9 => {
                    qc.push_unchecked(Instruction::new(OpKind::Unitary {
                        gate: Gate::X,
                        target: nq + 2,
                        controls: vec![q],
                    }));
                    continue;
                }
                10 => {
                    qc.push_unchecked(Instruction::new(OpKind::Measure {
                        qubit: nq + 1,
                        clbit: 0,
                    }));
                    continue;
                }
                _ => qc.x(q),
            };
            if rng.gen_bool(0.3) {
                gate.c_if(rng.gen_range(0..nc), rng.gen_bool(0.5));
            }
        }
        qc
    }

    #[test]
    fn liveness_matches_the_forward_taint_oracle() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        let (mut measured, mut dead) = (0, 0);
        for case in 0..5000 {
            let qc = random_dynamic_circuit(&mut rng);
            let facts = lightcone_facts(&qc);
            assert_eq!(facts.live, oracle_live(&qc), "case {case}: {qc:?}");
            measured += usize::from(facts.has_measurements);
            dead += facts.live.iter().filter(|&&l| !l).count();
        }
        // The cases exercise both outcomes, not just the all-live path.
        assert!(
            measured > 2500 && dead > 2500,
            "{measured} measured, {dead} dead"
        );
    }
}
