//! ZX-based equivalence checking of quantum circuits.
//!
//! Mirrors the miter construction of the DD-based checker: build the
//! diagram of `G₁ ; G₂†` and simplify. If the result is a bundle of bare
//! wires matching input `i` to output `i`, the circuits are equivalent
//! (up to the global phase read off the remaining scalar). Because the
//! interior simplifier is not complete for arbitrary circuits, a residual
//! diagram is decided exactly by the array engine's dense miter
//! ([`qdt_array::miter_phase`]) up to
//! [`MITER_MAX_QUBITS`](qdt_array::MITER_MAX_QUBITS) qubits; only a wider
//! residual is reported as inconclusive.

use qdt_array::{miter_phase, ArrayError, MiterPhase};
use qdt_circuit::Circuit;
use qdt_complex::Complex;

use crate::diagram::{Diagram, EdgeType, VertexKind};
use crate::simplify;
use crate::ZxError;

/// Outcome of a ZX equivalence check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ZxEquivalence {
    /// The circuits implement the same unitary exactly.
    Equivalent,
    /// The circuits differ only by the given global phase.
    EquivalentUpToGlobalPhase(Complex),
    /// The circuits implement different unitaries.
    NotEquivalent,
    /// The simplified miter kept spiders and the circuits are wider
    /// than [`MITER_MAX_QUBITS`](qdt_array::MITER_MAX_QUBITS).
    Inconclusive,
}

impl ZxEquivalence {
    /// `true` for both flavours of equivalence.
    pub fn is_equivalent(&self) -> bool {
        matches!(
            self,
            ZxEquivalence::Equivalent | ZxEquivalence::EquivalentUpToGlobalPhase(_)
        )
    }
}

/// Checks two circuits for equivalence with the ZX-calculus.
///
/// # Errors
///
/// Returns [`ZxError::BoundaryMismatch`] for circuits of different
/// widths and [`ZxError::Unsupported`] for instructions without a ZX
/// translation (measurement, ≥3 controls).
pub fn check_equivalence(g1: &Circuit, g2: &Circuit) -> Result<ZxEquivalence, ZxError> {
    if g1.num_qubits() != g2.num_qubits() {
        return Err(ZxError::BoundaryMismatch {
            left: g1.num_qubits(),
            right: g2.num_qubits(),
        });
    }
    let mut miter = Diagram::from_circuit(g1)?;
    let d2 = Diagram::from_circuit(g2)?;
    miter.compose(&d2.adjoint())?;
    simplify::full_reduce(&mut miter);

    if let Some(result) = decide_wire_identity(&miter) {
        return Ok(result);
    }
    // Residual spiders remain: decide on the dense miter.
    match miter_phase(g1, g2) {
        Ok(MiterPhase::Identity) => Ok(ZxEquivalence::Equivalent),
        Ok(MiterPhase::Global(l)) => Ok(ZxEquivalence::EquivalentUpToGlobalPhase(l)),
        Ok(MiterPhase::NotIdentity) => Ok(ZxEquivalence::NotEquivalent),
        Err(ArrayError::TooManyQubits { .. }) => Ok(ZxEquivalence::Inconclusive),
        Err(e) => Err(ZxError::Unsupported { op: e.to_string() }),
    }
}

/// If the diagram is spider-free, decides identity-ness structurally.
fn decide_wire_identity(d: &Diagram) -> Option<ZxEquivalence> {
    if d.num_spiders() != 0 {
        return None;
    }
    if d.scalar().is_zero {
        return Some(ZxEquivalence::NotEquivalent);
    }
    for (i, (&inp, &out)) in d.inputs().iter().zip(d.outputs()).enumerate() {
        let _ = i;
        match d.edge_type(inp, out) {
            Some(EdgeType::Simple) => {}
            // A Hadamard on a wire, or a wire to the wrong boundary, is
            // not the identity.
            _ => return Some(ZxEquivalence::NotEquivalent),
        }
        debug_assert_eq!(d.kind(inp), VertexKind::Boundary);
    }
    let lambda = d.scalar().to_complex();
    if (lambda.abs() - 1.0).abs() > 1e-6 {
        // A unitary miter can only be λ·I with |λ| = 1; anything else
        // signals numerical trouble, so refuse to certify.
        return Some(ZxEquivalence::Inconclusive);
    }
    if lambda.approx_eq(Complex::ONE, 1e-9) {
        Some(ZxEquivalence::Equivalent)
    } else {
        Some(ZxEquivalence::EquivalentUpToGlobalPhase(lambda))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdt_circuit::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn clifford_circuit_equals_itself() {
        let mut rng = StdRng::seed_from_u64(71);
        let qc = generators::random_clifford(4, 8, &mut rng);
        let r = check_equivalence(&qc, &qc).unwrap();
        assert!(r.is_equivalent(), "{r:?}");
    }

    #[test]
    fn hxh_equals_z() {
        let mut a = Circuit::new(1);
        a.h(0).x(0).h(0);
        let mut b = Circuit::new(1);
        b.z(0);
        let r = check_equivalence(&a, &b).unwrap();
        assert!(r.is_equivalent(), "{r:?}");
    }

    #[test]
    fn global_phase_detected() {
        let mut a = Circuit::new(1);
        a.rz(0.8, 0);
        let mut b = Circuit::new(1);
        b.p(0.8, 0);
        let r = check_equivalence(&a, &b).unwrap();
        match r {
            ZxEquivalence::EquivalentUpToGlobalPhase(lambda) => {
                assert!(lambda.approx_eq(Complex::cis(-0.4), 1e-8), "λ = {lambda}");
            }
            other => panic!("expected phase equivalence, got {other:?}"),
        }
    }

    #[test]
    fn detects_difference() {
        let a = generators::ghz(4);
        let mut b = generators::ghz(4);
        b.z(2);
        let r = check_equivalence(&a, &b).unwrap();
        assert_eq!(r, ZxEquivalence::NotEquivalent);
    }

    #[test]
    fn toffoli_decomposition_equivalent() {
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
        let r = check_equivalence(&a, &b).unwrap();
        assert!(r.is_equivalent(), "{r:?}");
    }

    #[test]
    fn qft_self_equivalence() {
        let qc = generators::qft(3, true);
        let r = check_equivalence(&qc, &qc).unwrap();
        assert!(r.is_equivalent(), "{r:?}");
    }

    #[test]
    fn random_clifford_t_padded_pair() {
        let mut rng = StdRng::seed_from_u64(72);
        let qc = generators::random_clifford_t(3, 6, 0.2, &mut rng);
        let mut padded = qc.clone();
        padded.s(1).sdg(1);
        let r = check_equivalence(&qc, &padded).unwrap();
        assert!(r.is_equivalent(), "{r:?}");
    }

    #[test]
    fn cnot_direction_not_equivalent() {
        let mut a = Circuit::new(2);
        a.cx(0, 1);
        let mut b = Circuit::new(2);
        b.cx(1, 0);
        let r = check_equivalence(&a, &b).unwrap();
        assert_eq!(r, ZxEquivalence::NotEquivalent);
    }

    #[test]
    fn residual_beyond_forty_spiders_is_decided_on_the_dense_miter() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = generators::random_circuit(6, 6, &mut rng);
        let mut b = a.clone();
        b.t(1);
        let mut miter = Diagram::from_circuit(&a).unwrap();
        miter
            .compose(&Diagram::from_circuit(&b).unwrap().adjoint())
            .unwrap();
        simplify::full_reduce(&mut miter);
        assert!(miter.num_spiders() > 40, "{} spiders", miter.num_spiders());
        let r = check_equivalence(&a, &b).unwrap();
        assert_eq!(r, ZxEquivalence::NotEquivalent);
    }

    #[test]
    fn width_mismatch_is_error() {
        let a = Circuit::new(2);
        let b = Circuit::new(3);
        assert!(matches!(
            check_equivalence(&a, &b),
            Err(ZxError::BoundaryMismatch { .. })
        ));
    }

    use qdt_circuit::Circuit;
}
