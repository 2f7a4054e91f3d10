//! The dense miter: two circuits are compared through the array that
//! holds `M = G₂⁻¹·G₁` (the paper's Section II view of equivalence
//! checking: a circuit's array against the identity), as a Choi state on
//! the array engine's kernels.

use qdt_circuit::{Circuit, OpKind};
use qdt_complex::Complex;

use crate::fusion::MAX_FUSE_WIDTH;
use crate::{ArrayEngine, ArrayError};

/// Widest pair [`miter_phase`] decides: the Choi state of a 10-qubit
/// pair is 2^20 amplitudes (16 MiB). Every dense equivalence check of
/// the suite is bounded by this one constant.
pub const MITER_MAX_QUBITS: usize = 10;

/// What [`miter_phase`] found `M = G₂⁻¹·G₁` to be.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MiterPhase {
    /// `M ≈ I`: the circuits are equivalent.
    Identity,
    /// `M ≈ λ·I`, `λ` more than 1e-9 from 1: a global phase apart.
    Global(Complex),
    /// `M` is no multiple of the identity: the circuits differ.
    NotIdentity,
}

/// Decides whether `M = G₂⁻¹·G₁ ≈ λ·I`, and for which `λ`.
///
/// n Bell pairs on 2n qubits (`H` on q, `CX q → q+n`) hold
/// `vec(I)/2^{n/2}`; `G₁` and then `G₂⁻¹`, moved onto the row qubits
/// `n..2n`, turn it into `vec(M)/2^{n/2}`, with `M[r][c]` at amplitude
/// `(r << n) | c` (the layout [`DensityMatrix`](crate::DensityMatrix)
/// gives ρ). This runs through [`qdt_engine::run`] on a fused
/// [`ArrayEngine`]. With `λ = M[0][0]`, `M ≈ λ·I` when `|λ|` is within
/// 1e-6 of 1 and every entry is within 1e-9 of `λ·δ_rc`; it is
/// [`MiterPhase::Identity`] when `λ` is also within 1e-9 of 1. Every
/// entry is tested: the Bell-pair overlap alone is `|tr M|/2^n`, a
/// weaker test. A circuit narrower than the other acts as the identity
/// on the extra qubits, and classical bits that no instruction uses are
/// ignored.
///
/// # Errors
///
/// [`ArrayError::TooManyQubits`] beyond [`MITER_MAX_QUBITS`];
/// [`ArrayError::NonUnitary`] for a measurement, reset, channel or
/// classically conditioned instruction.
pub fn miter_phase(g1: &Circuit, g2: &Circuit) -> Result<MiterPhase, ArrayError> {
    let n = g1.num_qubits().max(g2.num_qubits());
    if n > MITER_MAX_QUBITS {
        return Err(ArrayError::TooManyQubits { num_qubits: n });
    }
    let mut engine = ArrayEngine::new().with_fusion(MAX_FUSE_WIDTH);
    qdt_engine::run(&mut engine, &choi_circuit(g1, g2, n)?).map_err(non_unitary)?;
    let amps = engine.state().amplitudes();
    let scale = f64::from(1u32 << n).sqrt();
    let lambda = amps[0].scale(scale);
    // M[r][c] sits at r·2^n + c: the diagonal is every (2^n + 1)-th entry.
    let stride = (1usize << n) + 1;
    let entry_ok = |(i, a): (usize, &Complex)| {
        let on_diagonal = i % stride == 0;
        let expected = if on_diagonal { lambda } else { Complex::ZERO };
        a.scale(scale).approx_eq(expected, 1e-9)
    };
    let scalar = (lambda.abs() - 1.0).abs() <= 1e-6 && amps.iter().enumerate().all(entry_ok);
    Ok(if !scalar {
        MiterPhase::NotIdentity
    } else if lambda.approx_eq(Complex::ONE, 1e-9) {
        MiterPhase::Identity
    } else {
        MiterPhase::Global(lambda)
    })
}

/// The `2n`-qubit circuit whose output is `vec(G₂⁻¹·G₁)/2^{n/2}`: the
/// Bell pairs, then `G₁` and `G₂⁻¹` shifted onto the row qubits `n..2n`.
/// It has no classical bits: every instruction of a unitary circuit is
/// unconditioned, so none reads one.
fn choi_circuit(g1: &Circuit, g2: &Circuit, n: usize) -> Result<Circuit, ArrayError> {
    if let Some(inst) =
        (g1.iter().chain(g2)).find(|i| !i.is_unitary() && !matches!(i.kind, OpKind::Barrier(_)))
    {
        return Err(non_unitary(inst.name()));
    }
    let inverse = g2.inverse().map_err(non_unitary)?;
    let mut choi = Circuit::new((2 * n).max(1));
    for q in 0..n {
        choi.h(q).cx(q, q + n);
    }
    for inst in g1.iter().chain(&inverse) {
        // Already validated on at most n qubits, so valid shifted by n.
        choi.push_unchecked(inst.remapped(|q| q + n));
    }
    Ok(choi)
}

fn non_unitary(op: impl std::fmt::Display) -> ArrayError {
    ArrayError::NonUnitary { op: op.to_string() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit_unitary;
    use qdt_circuit::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn choi_amplitudes_hold_the_miter_product() {
        // Before the comparison the state is vec(G₂⁻¹G₁)/2^{n/2}: check
        // the layout against the dense-product oracle.
        let mut rng = StdRng::seed_from_u64(36);
        let g1 = generators::random_circuit(3, 3, &mut rng);
        let g2 = generators::random_circuit(3, 3, &mut rng);
        let m = circuit_unitary(&g2.inverse().unwrap())
            .unwrap()
            .mul(&circuit_unitary(&g1).unwrap());
        let mut engine = ArrayEngine::new().with_fusion(MAX_FUSE_WIDTH);
        qdt_engine::run(&mut engine, &choi_circuit(&g1, &g2, 3).unwrap()).unwrap();
        let amps = engine.state().amplitudes();
        for r in 0..8 {
            for c in 0..8 {
                let entry = amps[(r << 3) | c].scale(8f64.sqrt());
                assert!(entry.approx_eq(m.get(r, c), 1e-12), "M[{r}][{c}]");
            }
        }
    }

    #[test]
    fn reads_the_global_phase_off_the_first_entry() {
        let (mut a, mut b) = (Circuit::new(1), Circuit::new(1));
        a.rz(0.8, 0);
        b.p(0.8, 0);
        match miter_phase(&a, &b).unwrap() {
            MiterPhase::Global(lambda) => {
                assert!(lambda.approx_eq(Complex::cis(-0.4), 1e-12), "{lambda}");
            }
            other => panic!("expected a global phase, got {other:?}"),
        }
    }

    #[test]
    fn accepts_a_self_pair_and_refutes_its_mutants() {
        let qft = generators::qft(4, true);
        assert_eq!(miter_phase(&qft, &qft).unwrap(), MiterPhase::Identity);
        for mutation in [qdt_circuit::Gate::T, qdt_circuit::Gate::X] {
            let mut mutant = qft.clone();
            mutant.gate(mutation, 2, &[]);
            assert_eq!(
                miter_phase(&qft, &mutant).unwrap(),
                MiterPhase::NotIdentity,
                "{mutation:?}"
            );
        }
    }

    #[test]
    fn a_phase_on_one_entry_is_refuted_although_the_overlap_is_near_one() {
        // M = diag(1, …, 1, e^{iε}) on 6 qubits: |tr M|/2^6 is within
        // 1e-8 of 1, while one entry is off by ε = 1e-3.
        let a = Circuit::new(6);
        let mut b = Circuit::new(6);
        b.gate(qdt_circuit::Gate::Phase(1e-3), 5, &[0, 1, 2, 3, 4]);
        assert_eq!(miter_phase(&a, &b).unwrap(), MiterPhase::NotIdentity);
    }

    #[test]
    fn narrower_circuit_acts_as_identity_on_the_rest() {
        let mut a = Circuit::new(1);
        a.h(0);
        let mut b = Circuit::new(2);
        b.h(0).z(1).z(1);
        assert_eq!(miter_phase(&a, &b).unwrap(), MiterPhase::Identity);
        assert_eq!(
            miter_phase(&Circuit::new(0), &Circuit::new(0)).unwrap(),
            MiterPhase::Identity
        );
    }

    #[test]
    fn unused_classical_bits_are_ignored() {
        // A QASM `creg` without a measurement, and a measured circuit
        // after `unitary_part`, both keep their classical bits.
        let mut bell = Circuit::with_clbits(2, 2);
        bell.h(0).cx(0, 1);
        let mut measured = Circuit::with_clbits(2, 3);
        measured.h(0).cx(0, 1).measure(0, 2);
        let measured = measured.unitary_part();
        assert_eq!(miter_phase(&bell, &measured).unwrap(), MiterPhase::Identity);
        let mut flipped = Circuit::new(2);
        flipped.h(0).cx(1, 0);
        assert_eq!(
            miter_phase(&flipped, &bell).unwrap(),
            MiterPhase::NotIdentity
        );
    }

    #[test]
    fn refuses_non_unitary_and_oversized_pairs() {
        let mut a = Circuit::with_clbits(1, 1);
        a.measure(0, 0);
        let b = Circuit::new(1);
        assert!(matches!(
            miter_phase(&a, &b),
            Err(ArrayError::NonUnitary { .. })
        ));
        assert!(matches!(
            miter_phase(&b, &a),
            Err(ArrayError::NonUnitary { .. })
        ));
        let wide = Circuit::new(MITER_MAX_QUBITS + 1);
        assert_eq!(
            miter_phase(&wide, &wide),
            Err(ArrayError::TooManyQubits {
                num_qubits: MITER_MAX_QUBITS + 1
            })
        );
    }
}
