//! The array engine's relabelling frame: permutations cost no pass.
//!
//! An uncontrolled `swap` only renames two qubits and an uncontrolled
//! `x` only flips one qubit's value ([`Instruction::is_relabelling`]).
//! Instead of moving `2^n` amplitudes for either, [`ArrayEngine`] keeps a
//! frame: a logical→stored qubit map π ([`QubitMap`]) and a mask f of
//! flipped stored bits. The amplitude of logical basis state `l` lives at
//! stored index `π(l) ⊕ f`, where `π(l)` moves bit `q` of `l` to bit
//! `π(q)`. A relabelling updates π or f and touches no amplitude.
//!
//! Every other gate runs on the stored qubits its qubits map to, with
//! the flip mask handed to the run planner ([`RunSpec::flipped`]): a
//! flipped control fires on a stored 0, a flipped pair target exchanges
//! the two sides of each pair, and a flipped diagonal target exchanges
//! which side gets `m00` and which `m11`. Each amplitude meets the same
//! floating-point expression as without the frame (for a gate on bit 0,
//! the two products of a sum in the other order, and IEEE addition
//! commutes), so amplitudes read through the frame are `==` to the
//! frame-less per-gate result.
//!
//! [`ArrayEngine`]: crate::ArrayEngine
//! [`RunSpec::flipped`]: crate::simd::RunSpec::flipped

use std::borrow::Cow;

use qdt_circuit::{Instruction, OpKind, PauliString, QubitMap};

use crate::state::PauliMasks;

/// Low logical bits whose stored offsets [`Frame::for_each_logical`]
/// tabulates once.
const TABLE_BITS: usize = 8;

/// A logical→stored qubit map plus a mask of flipped stored bits (see
/// the module docs). The default frame is the identity.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Frame {
    map: QubitMap,
    flips: usize,
}

impl Frame {
    /// Absorbs `inst` when it is a relabelling and reports whether it
    /// was.
    pub(crate) fn relabel(&mut self, inst: &Instruction) -> bool {
        if !self.map.relabel(inst) {
            return false;
        }
        if let OpKind::Unitary { target, .. } = inst.kind {
            self.flips ^= 1 << self.map.get(target);
        }
        true
    }

    /// Whether logical and stored indices coincide.
    pub(crate) fn is_identity(&self) -> bool {
        self.flips == 0 && self.map.is_identity()
    }

    /// The stored qubit holding logical qubit `q`.
    pub(crate) fn qubit(&self, q: usize) -> usize {
        self.map.get(q)
    }

    /// Whether logical qubit `q`'s stored bit is flipped.
    pub(crate) fn is_flipped(&self, q: usize) -> bool {
        self.flips >> self.map.get(q) & 1 != 0
    }

    /// The flipped stored bits.
    pub(crate) fn flips(&self) -> usize {
        self.flips
    }

    /// `inst` renamed to stored qubits (borrowed when no qubit of it has
    /// moved).
    pub(crate) fn map<'a>(&self, inst: &'a Instruction) -> Cow<'a, Instruction> {
        if inst.qubits().all(|q| self.map.get(q) == q) {
            Cow::Borrowed(inst)
        } else {
            Cow::Owned(inst.remapped(|q| self.map.get(q)))
        }
    }

    /// The stored index of logical basis state `logical`.
    pub(crate) fn index(&self, logical: usize) -> usize {
        self.scatter(logical) ^ self.flips
    }

    /// `logical` with bit `q` moved to bit `π(q)` (no flips).
    fn scatter(&self, logical: usize) -> usize {
        let mut bits = logical;
        let mut stored = 0;
        while bits != 0 {
            let q = bits.trailing_zeros() as usize;
            stored |= 1 << self.map.get(q);
            bits &= bits - 1;
        }
        stored
    }

    /// Calls `f` with the stored index of every logical basis state of a
    /// `num_qubits`-qubit register, in logical order. The scatter is
    /// linear over XOR, so one table of the low bits' offsets and one
    /// scatter per block of `2^TABLE_BITS` states cover the register.
    pub(crate) fn for_each_logical(&self, num_qubits: usize, mut f: impl FnMut(usize)) {
        let low = TABLE_BITS.min(num_qubits);
        let table: Vec<usize> = (0..1usize << low).map(|l| self.scatter(l)).collect();
        for high in 0..1usize << (num_qubits - low) {
            let base = self.scatter(high << low) ^ self.flips;
            for &offset in &table {
                f(base ^ offset);
            }
        }
    }

    /// The stored masks of `pauli`, and whether the expectation changes
    /// sign: `X·Z·X = −Z` and `X·Y·X = −Y` on every flipped bit.
    pub(crate) fn pauli_masks(&self, pauli: &PauliString) -> (PauliMasks, bool) {
        let masks = PauliMasks::new(pauli, |q| self.map.get(q));
        let negated = (masks.yz & self.flips).count_ones() % 2 == 1;
        (masks, negated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdt_circuit::Circuit;

    fn frame_of(qc: &Circuit) -> Frame {
        let mut frame = Frame::default();
        for inst in qc.instructions() {
            assert!(frame.relabel(inst), "{inst:?} is not a relabelling");
        }
        frame
    }

    #[test]
    fn swaps_and_flips_compose_into_one_index_map() {
        let mut qc = Circuit::new(3);
        qc.x(0).swap(0, 2).x(1);
        let frame = frame_of(&qc);
        // Logical |q2 q1 q0⟩ = |0 0 1⟩ → qubit 0 now lives at stored bit
        // 2, stored bits 0 (the old home of qubit 0, now qubit 2's) and
        // 1 are flipped.
        assert_eq!((frame.qubit(0), frame.qubit(2)), (2, 0));
        assert_eq!(frame.flips(), 0b011);
        assert_eq!(frame.index(0b001), 0b100 ^ 0b011);
        let mut order = Vec::new();
        frame.for_each_logical(3, |i| order.push(i));
        let want: Vec<usize> = (0..8).map(|l| frame.index(l)).collect();
        assert_eq!(order, want);
    }

    #[test]
    fn controlled_and_conditioned_gates_are_not_relabellings() {
        let mut qc = Circuit::with_clbits(3, 1);
        qc.cx(0, 1).cswap(0, 1, 2).h(0);
        qc.x(2).c_if(0, true);
        let mut frame = Frame::default();
        for inst in qc.instructions() {
            assert!(!frame.relabel(inst), "{inst:?}");
        }
        assert!(frame.is_identity());
    }

    #[test]
    fn logical_order_covers_wide_registers_once() {
        let mut qc = Circuit::new(11);
        qc.swap(0, 10).swap(3, 9).x(10).x(4);
        let frame = frame_of(&qc);
        let mut seen = vec![false; 1 << 11];
        let mut count = 0;
        frame.for_each_logical(11, |i| {
            assert!(!seen[i], "stored index {i} visited twice");
            seen[i] = true;
            count += 1;
        });
        assert_eq!(count, 1 << 11);
        assert_eq!(frame.index(0b100_0000_0001), (1 << 10 | 1) ^ frame.flips());
    }
}
