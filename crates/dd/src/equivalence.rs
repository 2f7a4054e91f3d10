//! DD-based equivalence checking of quantum circuits.
//!
//! The key insight (the paper's references \[19\]–\[21\]) is that two circuits
//! `G`, `G'` are equivalent iff `G'† · G = λ·I`. Instead of building the
//! two full unitaries and comparing, the product is constructed directly;
//! if the circuits really are equivalent, intermediate diagrams tend to
//! stay close to the (linear-size) identity. The alternation strategy of
//! Burgholzer/Wille (ref \[20\]) interleaves gates from `G` with inverted
//! gates from `G'` proportionally to keep intermediates small.
//!
//! *Gate-cost alternation.* How the two streams are interleaved decides
//! how close to the identity the product stays. When `G'` is a compiled
//! form of `G`, each source gate became several compiled gates, and not
//! the same number for each: on the IBM basis an `H` becomes 5 gates, a
//! controlled phase 20, a SWAP 3. Pairing by gate index drifts
//! whenever that ratio changes along the circuit. For a 16-qubit QFT
//! (144 source gates, 2114 compiled) it lines the source's final SWAPs
//! up with compiled gates that are not theirs. The product then grows
//! to 60k nodes and the check creates 445k. [`check_equivalence_by_cost`]
//! instead weighs every gate by a caller-given cost and keeps the two
//! circuits' shares of cost applied in step. Costed by their lowered
//! length, the compiler's own expansion of a gate, the same check
//! peaks at about a hundred nodes and creates 19k. Unit costs give
//! the index-proportional order of [`check_equivalence`].

use qdt_circuit::{Circuit, Instruction, OpKind};
use qdt_complex::Complex;

use crate::{DdError, DdPackage};

/// Outcome of a DD equivalence check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EquivalenceResult {
    /// The circuits implement the same unitary exactly.
    Equivalent,
    /// The circuits differ only by the given global phase.
    EquivalentUpToGlobalPhase(Complex),
    /// The circuits implement different unitaries.
    NotEquivalent,
}

impl EquivalenceResult {
    /// `true` for both flavours of equivalence.
    pub fn is_equivalent(&self) -> bool {
        !matches!(self, EquivalenceResult::NotEquivalent)
    }
}

/// Checks two circuits for equivalence by building `G'† · G` as a matrix
/// DD, alternating between the circuits in proportion to their gate
/// counts, and testing the product against `λ·I`.
///
/// This is [`check_equivalence_by_cost`] with every gate costing 1.
///
/// Non-unitary instructions are rejected; strip measurements first with
/// [`Circuit::unitary_part`].
///
/// # Errors
///
/// Returns [`DdError::QubitCountMismatch`] for circuits of different
/// widths and [`DdError::NonUnitary`] if either circuit contains
/// measurement or reset.
pub fn check_equivalence(
    dd: &mut DdPackage,
    g1: &Circuit,
    g2: &Circuit,
) -> Result<EquivalenceResult, DdError> {
    check_equivalence_by_cost(dd, g1, g2, |_| 1)
}

/// Checks two circuits for equivalence by building `G'† · G` as a matrix
/// DD with gate-cost alternation, and testing the product against `λ·I`.
///
/// `cost` weighs each instruction of either circuit (barriers are
/// skipped). The miter takes the next gate from whichever circuit has
/// applied the smaller share of its total cost, so a source gate that
/// compiles to `k` gates is multiplied in next to those `k` gates.
/// Unit costs pair the circuits by gate index.
///
/// # Errors
///
/// As [`check_equivalence`].
pub fn check_equivalence_by_cost<F>(
    dd: &mut DdPackage,
    g1: &Circuit,
    g2: &Circuit,
    cost: F,
) -> Result<EquivalenceResult, DdError>
where
    F: Fn(&Instruction) -> usize,
{
    if g1.num_qubits() != g2.num_qubits() {
        return Err(DdError::QubitCountMismatch {
            left: g1.num_qubits(),
            right: g2.num_qubits(),
        });
    }
    let n = g1.num_qubits().max(1);
    if !g1.is_unitary() || !g2.is_unitary() {
        return Err(DdError::NonUnitary {
            op: "measurement/reset in circuit".into(),
        });
    }
    let a = costed_gates(g1, &cost);
    // Inverting each instruction of G2 *in place* (original order) makes
    // the right-hand accumulation below come out as
    // inv(h_1)·inv(h_2)···inv(h_m) = G2†. Costs are those of the gates
    // as written.
    let b: Vec<_> = costed_gates(g2, &cost)
        .into_iter()
        .map(|(i, c)| (invert_instruction(i), c))
        .collect();

    // Cost-proportional alternation: take the next gate from the circuit
    // that has applied the smaller fraction of its total cost, so both
    // streams finish together and U ≈ I throughout when the circuits are
    // equivalent. Gates of G1 multiply from the left (U ← g·U); inverted
    // gates of G2 from the right (U ← U·h), so the final product is
    // G1 · G2† (= λI iff the circuits are equivalent).
    let ta = a.iter().map(|g| g.1).sum::<usize>().max(1);
    let tb = b.iter().map(|g| g.1).sum::<usize>().max(1);
    let mut acc = dd.identity(n);
    let (mut ia, mut ib) = (0usize, 0usize);
    let (mut ca, mut cb) = (0usize, 0usize);
    while ia < a.len() || ib < b.len() {
        // Keep the fractions ca/ta and cb/tb in lock-step.
        let take_a = ib >= b.len() || (ia < a.len() && ca * tb <= cb * ta);
        if take_a {
            let g = dd.instruction_dd(a[ia].0, n)?;
            acc = dd.multiply(&g, &acc)?;
            ca += a[ia].1;
            ia += 1;
        } else {
            let h = dd.instruction_dd(&b[ib].0, n)?;
            acc = dd.multiply(&acc, &h)?;
            cb += b[ib].1;
            ib += 1;
        }
    }

    finish(dd, acc)
}

/// The circuit's instructions other than barriers, each with its cost.
fn costed_gates<'c>(
    g: &'c Circuit,
    cost: &impl Fn(&Instruction) -> usize,
) -> Vec<(&'c Instruction, usize)> {
    g.instructions()
        .iter()
        .filter(|i| !matches!(i.kind, OpKind::Barrier(_)))
        .map(|i| (i, cost(i)))
        .collect()
}

/// Inverts a single unitary instruction (swap is self-inverse).
fn invert_instruction(inst: &Instruction) -> Instruction {
    match &inst.kind {
        OpKind::Unitary {
            gate,
            target,
            controls,
        } => Instruction::new(OpKind::Unitary {
            gate: gate.inverse(),
            target: *target,
            controls: controls.clone(),
        }),
        // Conditioned instructions are rejected upstream by the
        // `is_unitary` check in `check_equivalence`.
        other => Instruction::new(other.clone()),
    }
}

fn finish(dd: &mut DdPackage, acc: crate::MatrixDd) -> Result<EquivalenceResult, DdError> {
    Ok(match dd.identity_phase(&acc, 1e-8) {
        Some(lambda) if lambda.approx_eq(Complex::ONE, 1e-8) => EquivalenceResult::Equivalent,
        Some(lambda) => EquivalenceResult::EquivalentUpToGlobalPhase(lambda),
        None => EquivalenceResult::NotEquivalent,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdt_circuit::{generators, Circuit};

    #[test]
    fn circuit_equals_itself() {
        let mut dd = DdPackage::new();
        let qc = generators::qft(4, true);
        let r = check_equivalence(&mut dd, &qc, &qc).unwrap();
        assert_eq!(r, EquivalenceResult::Equivalent);
    }

    #[test]
    fn hxh_equals_z() {
        let mut dd = DdPackage::new();
        let mut a = Circuit::new(1);
        a.h(0).x(0).h(0);
        let mut b = Circuit::new(1);
        b.z(0);
        let r = check_equivalence(&mut dd, &a, &b).unwrap();
        assert_eq!(r, EquivalenceResult::Equivalent);
    }

    #[test]
    fn rz_vs_phase_differs_by_global_phase() {
        let mut dd = DdPackage::new();
        let mut a = Circuit::new(1);
        a.rz(0.8, 0);
        let mut b = Circuit::new(1);
        b.p(0.8, 0);
        let r = check_equivalence(&mut dd, &a, &b).unwrap();
        match r {
            EquivalenceResult::EquivalentUpToGlobalPhase(lambda) => {
                assert!(lambda.approx_eq(Complex::cis(-0.4), 1e-8), "λ = {lambda}");
            }
            other => panic!("expected global-phase equivalence, got {other:?}"),
        }
    }

    #[test]
    fn detects_single_gate_difference() {
        let mut dd = DdPackage::new();
        let a = generators::ghz(5);
        let mut b = generators::ghz(5);
        b.z(3); // sneak in an extra gate
        let r = check_equivalence(&mut dd, &a, &b).unwrap();
        assert_eq!(r, EquivalenceResult::NotEquivalent);
    }

    #[test]
    fn swapped_cnot_direction_not_equivalent() {
        let mut dd = DdPackage::new();
        let mut a = Circuit::new(2);
        a.cx(0, 1);
        let mut b = Circuit::new(2);
        b.cx(1, 0);
        let r = check_equivalence(&mut dd, &a, &b).unwrap();
        assert_eq!(r, EquivalenceResult::NotEquivalent);
    }

    #[test]
    fn cnot_conjugated_by_hadamards_flips_direction() {
        // H⊗H · CX(0→1) · H⊗H = CX(1→0)
        let mut dd = DdPackage::new();
        let mut a = Circuit::new(2);
        a.h(0).h(1).cx(0, 1).h(0).h(1);
        let mut b = Circuit::new(2);
        b.cx(1, 0);
        let r = check_equivalence(&mut dd, &a, &b).unwrap();
        assert_eq!(r, EquivalenceResult::Equivalent);
    }

    #[test]
    fn ccx_decomposition_is_equivalent() {
        // The standard 6-CNOT Toffoli decomposition.
        let mut dd = DdPackage::new();
        let mut a = Circuit::new(3);
        a.ccx(0, 1, 2);
        let mut b = Circuit::new(3);
        b.h(2)
            .cx(1, 2)
            .tdg(2)
            .cx(0, 2)
            .t(2)
            .cx(1, 2)
            .tdg(2)
            .cx(0, 2)
            .t(1)
            .t(2)
            .h(2)
            .cx(0, 1)
            .t(0)
            .tdg(1)
            .cx(0, 1);
        let r = check_equivalence(&mut dd, &a, &b).unwrap();
        assert!(r.is_equivalent(), "Toffoli decomposition failed: {r:?}");
    }

    #[test]
    fn width_mismatch_is_an_error() {
        let mut dd = DdPackage::new();
        let a = Circuit::new(2);
        let b = Circuit::new(3);
        assert!(matches!(
            check_equivalence(&mut dd, &a, &b),
            Err(DdError::QubitCountMismatch { .. })
        ));
    }

    #[test]
    fn measurement_rejected() {
        let mut dd = DdPackage::new();
        let mut a = Circuit::with_clbits(1, 1);
        a.measure(0, 0);
        let b = Circuit::new(1);
        assert!(matches!(
            check_equivalence(&mut dd, &a, &b),
            Err(DdError::NonUnitary { .. })
        ));
    }

    #[test]
    fn random_clifford_t_self_equivalence_with_padding() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7);
        let qc = generators::random_clifford_t(4, 10, 0.2, &mut rng);
        // Pad with a canceling pair — still equivalent.
        let mut padded = qc.clone();
        padded.h(0).h(0);
        let mut dd = DdPackage::new();
        let r = check_equivalence(&mut dd, &qc, &padded).unwrap();
        assert!(r.is_equivalent());
    }
}
