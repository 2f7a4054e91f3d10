//! Clifford-region segmentation: maximal contiguous spans of
//! Clifford-only unitaries, with their qubit support.
//!
//! Stabilizer-simulable spans are where the exponential backends are
//! overkill — the cost model discounts them, and `QDT404` fires when
//! the *whole* circuit is one wide Clifford region. A region breaks at
//! any non-Clifford unitary, conditioned gate, measurement, or reset;
//! barriers pass through without joining the span.

use std::collections::BTreeSet;

use qdt_circuit::{Circuit, Instruction, OpKind};

use crate::resources::is_clifford_inst;

/// One maximal Clifford-only span of the instruction stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliffordRegion {
    /// Stream index of the first instruction in the span.
    pub start: usize,
    /// One past the last instruction in the span.
    pub end: usize,
    /// Clifford gates inside the span (barriers excluded).
    pub gates: usize,
}

impl CliffordRegion {
    /// The qubits the span's gates touch (computed on demand, so
    /// segmenting a circuit allocates nothing per region).
    #[must_use]
    pub fn qubits(&self, circuit: &Circuit) -> BTreeSet<usize> {
        let nq = circuit.num_qubits();
        circuit.instructions()[self.start..self.end]
            .iter()
            .filter(|i| !matches!(i.kind, OpKind::Barrier(_)))
            .flat_map(Instruction::qubits)
            .filter(|&q| q < nq)
            .collect()
    }
}

/// Segments `circuit` into maximal Clifford-only regions.
#[must_use]
pub fn clifford_regions(circuit: &Circuit) -> Vec<CliffordRegion> {
    let mut regions = Vec::new();
    let mut current: Option<CliffordRegion> = None;
    for (i, inst) in circuit.iter().enumerate() {
        let is_gate = matches!(inst.kind, OpKind::Unitary { .. } | OpKind::Swap { .. });
        let extends = is_gate && inst.cond.is_none() && is_clifford_inst(inst);
        if extends {
            let region = current.get_or_insert(CliffordRegion {
                start: i,
                end: i,
                gates: 0,
            });
            region.end = i + 1;
            region.gates += 1;
        } else if matches!(inst.kind, OpKind::Barrier(_)) {
            // Transparent: neither breaks nor extends the span.
        } else if let Some(region) = current.take() {
            regions.push(region);
        }
    }
    regions.extend(current);
    regions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_clifford_circuit_is_one_region() {
        let mut qc = Circuit::new(3);
        qc.h(0).cx(0, 1).cx(1, 2).s(2);
        let regions = clifford_regions(&qc);
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].start, 0);
        assert_eq!(regions[0].end, 4);
        assert_eq!(regions[0].gates, 4);
        assert_eq!(regions[0].qubits(&qc), BTreeSet::from([0, 1, 2]));
    }

    #[test]
    fn t_gate_splits_regions() {
        let mut qc = Circuit::new(2);
        qc.h(0).cx(0, 1).t(0).cx(0, 1).h(1);
        let regions = clifford_regions(&qc);
        assert_eq!(regions.len(), 2, "{regions:?}");
        assert_eq!((regions[0].start, regions[0].end), (0, 2));
        assert_eq!((regions[1].start, regions[1].end), (3, 5));
    }

    #[test]
    fn barriers_are_transparent() {
        let mut qc = Circuit::new(2);
        qc.h(0).barrier().cx(0, 1);
        let regions = clifford_regions(&qc);
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].gates, 2);
    }

    #[test]
    fn measurement_and_conditioned_gates_break_regions() {
        let mut qc = Circuit::with_clbits(2, 1);
        qc.h(0).measure(0, 0);
        qc.x(1).c_if(0, true);
        qc.h(1);
        let regions = clifford_regions(&qc);
        assert_eq!(regions.len(), 2, "{regions:?}");
        assert_eq!(regions[0].gates, 1);
        assert_eq!(regions[1].start, 3);
    }

    #[test]
    fn non_clifford_only_circuit_has_no_region() {
        let mut qc = Circuit::new(1);
        qc.t(0);
        assert!(clifford_regions(&qc).is_empty());
    }
}
