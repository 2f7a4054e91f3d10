//! Integration: the four data structures must agree on every circuit.
//!
//! This is the suite-wide consistency net: arrays are the ground truth,
//! and decision diagrams, tensor networks, MPS and the `auto` dispatcher
//! must reproduce their amplitudes on a spread of circuit families,
//! including ones whose qubit-order cuts are wider than their
//! interaction graphs suggest.

use qdt::circuit::{generators, Circuit};
use qdt::{amplitude, amplitudes};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DENSE_BACKENDS: [&str; 5] = [
    "array",
    "decision-diagram",
    "tensor-network",
    "mps:64",
    "auto",
];

fn assert_backends_agree(qc: &Circuit, label: &str) {
    let reference = amplitudes(qc, "array").expect("array simulation");
    for b in DENSE_BACKENDS {
        let got = amplitudes(qc, b).unwrap_or_else(|e| panic!("{label}/{b}: {e}"));
        assert_eq!(got.len(), reference.len(), "{label}/{b}: length");
        for (i, (x, y)) in got.iter().zip(&reference).enumerate() {
            assert!(
                x.approx_eq(*y, 1e-7),
                "{label}/{b}: amplitude {i}: {x} vs {y}"
            );
        }
    }
}

#[test]
fn bell_and_ghz_agree() {
    assert_backends_agree(&generators::bell(), "bell");
    assert_backends_agree(&generators::ghz(6), "ghz6");
}

#[test]
fn w_state_agrees() {
    assert_backends_agree(&generators::w_state(5), "w5");
}

#[test]
fn qft_agrees() {
    assert_backends_agree(&generators::qft(5, true), "qft5");
    assert_backends_agree(&generators::qft(4, false), "qft4-noswap");
}

#[test]
fn grover_agrees() {
    let qc = generators::grover(4, 0b1101, 2);
    // Grover uses multi-controlled Z: MPS cannot run it directly, so
    // compare the other three backends.
    let reference = amplitudes(&qc, "array").unwrap();
    for b in ["decision-diagram"] {
        let got = amplitudes(&qc, b).unwrap();
        for (i, (x, y)) in got.iter().zip(&reference).enumerate() {
            assert!(x.approx_eq(*y, 1e-7), "{b}: amplitude {i}");
        }
    }
}

#[test]
fn random_clifford_t_circuits_agree() {
    let mut rng = StdRng::seed_from_u64(11);
    for i in 0..4 {
        let qc = generators::random_clifford_t(5, 6, 0.3, &mut rng);
        assert_backends_agree(&qc, &format!("clifford_t#{i}"));
    }
}

#[test]
fn random_universal_circuits_agree() {
    let mut rng = StdRng::seed_from_u64(12);
    for i in 0..4 {
        let qc = generators::random_circuit(5, 5, &mut rng);
        assert_backends_agree(&qc, &format!("random#{i}"));
    }
}

#[test]
fn hardware_ansatz_agrees() {
    let params: Vec<f64> = (0..2 * 4 * 3).map(|i| 0.1 * i as f64).collect();
    let qc = generators::hardware_efficient_ansatz(4, 3, &params);
    assert_backends_agree(&qc, "ansatz");
}

#[test]
fn phase_estimation_agrees() {
    let qc = generators::phase_estimation(4, 0.3125);
    assert_backends_agree(&qc, "qpe");
}

#[test]
fn nested_pairs_agree() {
    // Five CX edges cross the middle cut in natural order, though a
    // reordering of the qubits would pair them off.
    let mut qc = Circuit::new(10);
    for q in 0..5 {
        qc.h(q);
    }
    for q in 0..5 {
        qc.cx(q, 9 - q).t(9 - q).h(9 - q);
    }
    assert_backends_agree(&qc, "nested-pairs");
}

#[test]
fn repeated_pairs_agree() {
    // Three distinct edges, each interacting once per layer.
    let mut rng = StdRng::seed_from_u64(14);
    let mut qc = Circuit::new(12);
    for _ in 0..4 {
        for q in 0..12 {
            let mut angle = || rng.gen_range(0.0..std::f64::consts::TAU);
            qc.u(angle(), angle(), angle(), q);
        }
        qc.cx(5, 6).cx(4, 5).cx(6, 7);
    }
    assert_backends_agree(&qc, "repeated-pairs");
}

#[test]
fn long_range_ladder_agrees() {
    for n in [8, 11] {
        let mut qc = Circuit::new(n);
        for i in 0..n / 2 {
            qc.h(i).cx(i, n - 1 - i).t(n - 1 - i).h(i);
        }
        assert_backends_agree(&qc, &format!("ladder{n}"));
    }
}

#[test]
fn wider_random_circuits_agree() {
    let mut rng = StdRng::seed_from_u64(15);
    for n in [8, 10, 12] {
        let qc = generators::random_circuit(n, 3, &mut rng);
        assert_backends_agree(&qc, &format!("random{n}"));
    }
}

#[test]
fn single_amplitudes_scale_beyond_arrays() {
    // 48-qubit GHZ: DD, TN and MPS all answer; the array path refuses.
    let qc = generators::ghz(48);
    let idx = (1u128 << 48) - 1;
    for b in ["decision-diagram", "tensor-network", "mps:2"] {
        let amp = amplitude(&qc, idx, b).unwrap();
        assert!((amp.abs() - 1.0 / 2f64.sqrt()).abs() < 1e-8, "{b}");
    }
    assert!(amplitude(&qc, idx, "array").is_err());
}

#[test]
fn deep_circuit_stress() {
    let mut rng = StdRng::seed_from_u64(13);
    let qc = generators::random_clifford(6, 30, &mut rng);
    let reference = amplitudes(&qc, "array").unwrap();
    let got = amplitudes(&qc, "decision-diagram").unwrap();
    for (x, y) in got.iter().zip(&reference) {
        assert!(x.approx_eq(*y, 1e-7));
    }
}

#[test]
fn ripple_carry_adder_computes_sums() {
    // Semantic check of the arithmetic workload across two backends.
    for (n, a, b) in [(2usize, 1u64, 2u64), (3, 5, 6), (4, 9, 11), (4, 15, 15)] {
        let qc = generators::adder_with_inputs(n, a, b);
        let expect_b = (a + b) % (1 << n);
        // Output layout: a unchanged, b holds the sum, carry clear.
        let expect_index = (a as u128) | ((expect_b as u128) << n);
        for backend in ["array", "decision-diagram"] {
            let amp = amplitude(&qc, expect_index, backend).unwrap();
            assert!(
                (amp.abs() - 1.0).abs() < 1e-9,
                "{backend}: {a}+{b} mod 2^{n} should give basis {expect_index:b}"
            );
        }
    }
}

#[test]
fn wide_adder_on_dd_only() {
    // 8-bit adder = 17 qubits: fine for DDs, heavy-but-possible for
    // arrays; check the DD result directly.
    let (n, a, b) = (8usize, 200u64, 100u64);
    let qc = generators::adder_with_inputs(n, a, b);
    let expect_index = (a as u128) | ((((a + b) % 256) as u128) << n);
    let amp = amplitude(&qc, expect_index, "decision-diagram").unwrap();
    assert!((amp.abs() - 1.0).abs() < 1e-9);
}

/// With `--features audit`, every backend's invariant auditor must come
/// back clean on the structures the consistency suite exercises.
#[cfg(feature = "audit")]
mod audits {
    use super::*;

    #[test]
    fn backends_audit_clean_on_suite_circuits() {
        let mut rng = StdRng::seed_from_u64(11);
        let circuits = vec![
            generators::bell(),
            generators::ghz(6),
            generators::qft(5, true),
            generators::random_clifford_t(5, 20, 0.3, &mut rng),
        ];
        for qc in &circuits {
            let mut dd = qdt::dd::DdPackage::new();
            dd.run_circuit(qc).expect("dd simulates");
            assert_eq!(dd.audit(), Ok(()), "{qc}");

            let mps = qdt::tensor::mps::Mps::from_circuit(qc, 64).expect("mps simulates");
            assert_eq!(mps.audit(), Ok(()), "{qc}");

            let mut zx = qdt::zx::Diagram::from_circuit(qc).expect("zx lowers");
            qdt::zx::simplify::full_reduce(&mut zx);
            assert_eq!(zx.audit(), Ok(()), "{qc}");
        }
    }
}
