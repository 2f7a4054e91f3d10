//! Circuit resource estimation: the quantities compilers, schedulers and
//! fault-tolerance estimates key off.

use std::collections::BTreeMap;

use qdt_circuit::{Circuit, Gate, OpKind};

/// A summary of a circuit's resource usage.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceReport {
    /// Width of the quantum register.
    pub num_qubits: usize,
    /// Width of the classical register.
    pub num_clbits: usize,
    /// Total instruction count (including measure/reset/barrier).
    pub num_instructions: usize,
    /// Unitary gate count per instruction name.
    pub gate_counts: BTreeMap<String, usize>,
    /// Number of T/T† gates — the fault-tolerance cost metric.
    pub t_count: usize,
    /// Full circuit depth.
    pub depth: usize,
    /// Depth counting only gates on two or more qubits — the metric that
    /// tracks entangling-layer latency on hardware.
    pub two_qubit_depth: usize,
    /// Number of gates on two or more qubits.
    pub two_qubit_gate_count: usize,
    /// `true` if every unitary instruction is a Clifford operation, so
    /// the circuit is classically simulable by the stabilizer formalism.
    pub clifford_only: bool,
}

/// Whether one instruction is a Clifford operation. Shared with the
/// Clifford-region segmentation pass.
pub(crate) fn is_clifford_inst(inst: &qdt_circuit::Instruction) -> bool {
    match &inst.kind {
        OpKind::Unitary { gate, controls, .. } => match controls.len() {
            0 => gate.is_clifford(),
            // Controlled Paulis are Clifford; any other controlled gate
            // (or more controls) is not.
            1 => matches!(gate, Gate::X | Gate::Y | Gate::Z),
            _ => false,
        },
        // SWAP = three CNOTs; controlled swap (Fredkin) is not Clifford.
        OpKind::Swap { controls, .. } => controls.is_empty(),
        // Non-unitary instructions do not affect Clifford membership of
        // the unitary part.
        _ => true,
    }
}

/// Computes the [`ResourceReport`] of a circuit.
///
/// Gates are counted per (base gate, control count) and each distinct
/// kind's name is built once at the end, so the pass allocates per
/// distinct kind and per qubit, never per gate.
pub fn resource_report(circuit: &Circuit) -> ResourceReport {
    // (base name, control count) → gates; a handful of distinct kinds.
    let mut kinds: Vec<((&'static str, usize), usize)> = Vec::new();
    let mut clifford_only = true;
    for inst in circuit.iter() {
        let kind = match &inst.kind {
            OpKind::Unitary { gate, controls, .. } => Some((gate.name(), controls.len())),
            OpKind::Swap { controls, .. } => Some(("swap", controls.len())),
            _ => None,
        };
        if let Some(kind) = kind {
            match kinds.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, n)) => *n += 1,
                None => kinds.push((kind, 1)),
            }
        }
        clifford_only &= is_clifford_inst(inst);
    }

    // Depth computations. `Circuit::depth` assumes a well-formed circuit;
    // the analyzer must survive anything `push_unchecked` can build, so
    // out-of-range indices are filtered (they are reported as QDT001 by
    // the well-formedness pass instead of panicking here).
    let nq = circuit.num_qubits();
    let mut full_frontier = vec![0usize; nq];
    let mut frontier = vec![0usize; nq];
    for inst in circuit.iter() {
        let qs = inst.qubits().filter(|&q| q < nq);
        let Some(level) = qs.clone().map(|q| full_frontier[q]).max() else {
            continue;
        };
        // Full depth: every instruction advances its wires; barriers only
        // align them (mirrors `Circuit::depth`).
        let is_barrier = matches!(inst.kind, OpKind::Barrier(_));
        for q in qs.clone() {
            full_frontier[q] = if is_barrier { level } else { level + 1 };
        }
        // Two-qubit depth: frontier levels advance only on multi-qubit
        // unitaries.
        if qs.clone().nth(1).is_some()
            && matches!(inst.kind, OpKind::Unitary { .. } | OpKind::Swap { .. })
        {
            let level = qs.clone().map(|q| frontier[q]).max().unwrap_or(0) + 1;
            for q in qs {
                frontier[q] = level;
            }
        }
    }
    let depth = full_frontier.into_iter().max().unwrap_or(0);
    let two_qubit_depth = frontier.into_iter().max().unwrap_or(0);

    let mut gate_counts = BTreeMap::new();
    for ((name, controls), n) in kinds {
        *gate_counts
            .entry(format!("{}{name}", "c".repeat(controls)))
            .or_insert(0) += n;
    }
    ResourceReport {
        num_qubits: circuit.num_qubits(),
        num_clbits: circuit.num_clbits(),
        num_instructions: circuit.len(),
        gate_counts,
        t_count: circuit.t_count(),
        depth,
        two_qubit_depth,
        two_qubit_gate_count: circuit.two_qubit_gate_count(),
        clifford_only,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ghz_is_clifford_only() {
        let mut qc = Circuit::new(3);
        qc.h(0).cx(0, 1).cx(1, 2);
        let r = resource_report(&qc);
        assert!(r.clifford_only);
        assert_eq!(r.t_count, 0);
        assert_eq!(r.two_qubit_gate_count, 2);
        assert_eq!(r.two_qubit_depth, 2);
        assert_eq!(r.gate_counts["cx"], 2);
    }

    #[test]
    fn t_gate_breaks_clifford_membership() {
        let mut qc = Circuit::new(1);
        qc.h(0).t(0);
        let r = resource_report(&qc);
        assert!(!r.clifford_only);
        assert_eq!(r.t_count, 1);
    }

    #[test]
    fn parallel_two_qubit_layers_share_depth() {
        let mut qc = Circuit::new(4);
        qc.cx(0, 1).cx(2, 3); // one entangling layer
        qc.cx(1, 2); // second layer
        let r = resource_report(&qc);
        assert_eq!(r.two_qubit_depth, 2);
    }

    #[test]
    fn single_qubit_gates_do_not_add_two_qubit_depth() {
        let mut qc = Circuit::new(2);
        qc.h(0).h(1).t(0);
        assert_eq!(resource_report(&qc).two_qubit_depth, 0);
    }
}
