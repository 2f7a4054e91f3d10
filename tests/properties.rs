//! Property-based tests over the suite's core invariants.
//!
//! Strategy-generated random circuits exercise the algebraic laws each
//! data structure must satisfy: norm preservation, unitarity, sharing
//! canonicity, rewrite-semantics preservation, and cross-backend
//! agreement.

use proptest::prelude::*;
use qdt::amplitudes;
use qdt::circuit::{Circuit, Gate};
use qdt::complex::Complex;
use qdt::dd::DdPackage;

/// A strategy for arbitrary single-qubit gates.
fn gate_strategy() -> impl Strategy<Value = Gate> {
    prop_oneof![
        Just(Gate::X),
        Just(Gate::Y),
        Just(Gate::Z),
        Just(Gate::H),
        Just(Gate::S),
        Just(Gate::Sdg),
        Just(Gate::T),
        Just(Gate::Tdg),
        Just(Gate::Sx),
        (-3.0..3.0f64).prop_map(Gate::Rx),
        (-3.0..3.0f64).prop_map(Gate::Ry),
        (-3.0..3.0f64).prop_map(Gate::Rz),
        (-3.0..3.0f64).prop_map(Gate::Phase),
    ]
}

/// One random instruction on an `n`-qubit register.
#[derive(Debug, Clone)]
enum Op {
    G(Gate, usize),
    Cx(usize, usize),
    Cz(usize, usize),
    Swap(usize, usize),
}

fn op_strategy(n: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (gate_strategy(), 0..n).prop_map(|(g, q)| Op::G(g, q)),
        (0..n, 0..n)
            .prop_filter("distinct", |(a, b)| a != b)
            .prop_map(|(a, b)| Op::Cx(a, b)),
        (0..n, 0..n)
            .prop_filter("distinct", |(a, b)| a != b)
            .prop_map(|(a, b)| Op::Cz(a, b)),
        (0..n, 0..n)
            .prop_filter("distinct", |(a, b)| a != b)
            .prop_map(|(a, b)| Op::Swap(a, b)),
    ]
}

fn circuit_strategy(n: usize, max_len: usize) -> impl Strategy<Value = Circuit> {
    prop::collection::vec(op_strategy(n), 0..max_len).prop_map(move |ops| {
        let mut qc = Circuit::new(n);
        for op in ops {
            match op {
                Op::G(g, q) => {
                    qc.gate(g, q, &[]);
                }
                Op::Cx(a, b) => {
                    qc.cx(a, b);
                }
                Op::Cz(a, b) => {
                    qc.cz(a, b);
                }
                Op::Swap(a, b) => {
                    qc.swap(a, b);
                }
            }
        }
        qc
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Unitary evolution preserves the norm on every backend.
    #[test]
    fn norm_is_preserved(qc in circuit_strategy(4, 14)) {
        for b in ["array", "decision-diagram"] {
            let amps = amplitudes(&qc, b).unwrap();
            let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
            prop_assert!((norm - 1.0).abs() < 1e-8, "{b}: norm {norm}");
        }
    }

    /// Decision diagrams and arrays agree amplitude-for-amplitude.
    #[test]
    fn dd_matches_array(qc in circuit_strategy(4, 14)) {
        let a = amplitudes(&qc, "array").unwrap();
        let d = amplitudes(&qc, "decision-diagram").unwrap();
        for (x, y) in a.iter().zip(&d) {
            prop_assert!(x.approx_eq(*y, 1e-7));
        }
    }

    /// Tensor-network contraction agrees with arrays.
    #[test]
    fn tn_matches_array(qc in circuit_strategy(3, 10)) {
        let a = amplitudes(&qc, "array").unwrap();
        let t = amplitudes(&qc, "tensor-network").unwrap();
        for (x, y) in a.iter().zip(&t) {
            prop_assert!(x.approx_eq(*y, 1e-7));
        }
    }

    /// Circuit followed by its inverse is the identity (DD check).
    #[test]
    fn circuit_times_inverse_is_identity(qc in circuit_strategy(4, 10)) {
        let mut whole = qc.clone();
        whole.append(&qc.inverse().unwrap());
        let mut dd = DdPackage::new();
        let u = dd.circuit_dd(&whole).unwrap();
        let lambda = dd.identity_phase(&u, 1e-7);
        prop_assert!(lambda.is_some(), "C·C† ≠ I");
        prop_assert!(lambda.unwrap().approx_eq(Complex::ONE, 1e-7));
    }

    /// DD sharing is canonical: building the same state twice in the
    /// same package yields the identical root.
    #[test]
    fn dd_roots_are_shared(qc in circuit_strategy(4, 12)) {
        let mut dd = DdPackage::new();
        let v1 = dd.run_circuit(&qc).unwrap();
        let v2 = dd.run_circuit(&qc).unwrap();
        prop_assert_eq!(dd.vector_node_count(&v1), dd.vector_node_count(&v2));
        let fid = dd.fidelity(&v1, &v2);
        prop_assert!((fid - 1.0).abs() < 1e-9);
    }

    /// ZX translation is scalar-exact on random circuits.
    #[test]
    fn zx_translation_is_exact(qc in circuit_strategy(3, 8)) {
        let d = qdt::zx::Diagram::from_circuit(&qc).unwrap();
        let m = d.to_matrix();
        let u = qdt::array::circuit_unitary(&qc).unwrap();
        prop_assert!(m.approx_eq(&u, 1e-8), "ZX semantics diverged");
    }

    /// Graph-like simplification preserves semantics on random circuits.
    #[test]
    fn zx_simplification_preserves_semantics(qc in circuit_strategy(3, 8)) {
        let mut d = qdt::zx::Diagram::from_circuit(&qc).unwrap();
        let before = d.to_matrix();
        qdt::zx::simplify::full_simp(&mut d);
        let after = d.to_matrix();
        prop_assert!(after.approx_eq(&before, 1e-8), "rewrite changed the map");
    }

    /// The peephole optimiser preserves the unitary up to global phase.
    #[test]
    fn optimizer_is_sound(qc in circuit_strategy(4, 14)) {
        let opt = qdt::compile::optimize::optimize_with_fusion(&qc);
        prop_assert!(opt.len() <= qc.len());
        let ua = qdt::array::circuit_unitary(&qc).unwrap();
        let ub = qdt::array::circuit_unitary(&opt).unwrap();
        prop_assert!(ua.approx_eq_up_to_global_phase(&ub, 1e-7));
    }

    /// QASM round trips preserve the unitary exactly.
    #[test]
    fn qasm_round_trip_is_exact(qc in circuit_strategy(3, 10)) {
        let text = qdt::circuit::qasm::write(&qc).unwrap();
        let back = qdt::circuit::qasm::parse(&text).unwrap();
        let ua = qdt::array::circuit_unitary(&qc).unwrap();
        let ub = qdt::array::circuit_unitary(&back).unwrap();
        prop_assert!(ua.approx_eq(&ub, 1e-9));
    }

    /// MPS with a generous bond cap is exact.
    #[test]
    fn mps_exact_with_large_bond(qc in circuit_strategy(4, 10)) {
        let a = amplitudes(&qc, "array").unwrap();
        let m = amplitudes(&qc, "mps:64").unwrap();
        for (x, y) in a.iter().zip(&m) {
            prop_assert!(x.approx_eq(*y, 1e-7));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Approximation respects its fidelity budget on arbitrary circuits.
    #[test]
    fn dd_approximation_respects_budget(
        qc in circuit_strategy(4, 12),
        budget in 0.0..0.3f64,
    ) {
        let mut dd = DdPackage::new();
        let exact = dd.run_circuit(&qc).unwrap();
        let mut v = dd.run_circuit(&qc).unwrap();
        let r = dd.approximate(&mut v, budget);
        prop_assert!(r.lost_mass <= budget + 1e-12);
        let fid = dd.fidelity(&exact, &v);
        prop_assert!(fid >= 1.0 - budget - 1e-9, "fidelity {fid} under budget {budget}");
    }

    /// Measurement probabilities from DDs match arrays qubit by qubit.
    #[test]
    fn dd_marginals_match_array(qc in circuit_strategy(4, 12)) {
        let psi = qdt::array::StateVector::from_circuit(&qc).unwrap();
        let mut dd = DdPackage::new();
        let v = dd.run_circuit(&qc).unwrap();
        for q in 0..4 {
            let a = psi.probability_of_one(q);
            let d = dd.probability_of_one(&v, q);
            prop_assert!((a - d).abs() < 1e-8, "qubit {q}: {a} vs {d}");
        }
    }

    /// Pauli expectations agree across array / DD / TN backends.
    #[test]
    fn pauli_expectations_cross_backend(qc in circuit_strategy(3, 8)) {
        let p: qdt::circuit::PauliString = "ZXY".parse().unwrap();
        let reference = qdt::expectation(&qc, &p, "array").unwrap();
        for b in ["decision-diagram", "tensor-network"] {
            let got = qdt::expectation(&qc, &p, b).unwrap();
            prop_assert!((got - reference).abs() < 1e-7, "{b}");
        }
        // Expectations of Hermitian observables are real and bounded.
        prop_assert!(reference.abs() <= 1.0 + 1e-9);
    }

    /// ZX full_reduce (gadgets included) preserves semantics.
    #[test]
    fn zx_full_reduce_preserves_semantics(qc in circuit_strategy(3, 7)) {
        let mut d = qdt::zx::Diagram::from_circuit(&qc).unwrap();
        let before = d.to_matrix();
        qdt::zx::simplify::full_reduce(&mut d);
        prop_assert!(d.to_matrix().approx_eq(&before, 1e-8));
    }

    /// ZX extraction round-trips arbitrary gate soups.
    #[test]
    fn zx_extraction_round_trips(qc in circuit_strategy(3, 8)) {
        let out = qdt::zx::optimize_circuit(&qc).unwrap();
        let ua = qdt::array::circuit_unitary(&qc).unwrap();
        let ub = qdt::array::circuit_unitary(&out).unwrap();
        prop_assert!(ua.approx_eq_up_to_global_phase(&ub, 1e-7));
    }

    /// Routing onto a line preserves semantics for arbitrary circuits.
    #[test]
    fn routing_preserves_semantics(qc in circuit_strategy(4, 10)) {
        use qdt::compile::{coupling::CouplingMap, routing::route};
        let map = CouplingMap::linear(4);
        let routed = route(&qc, &map).unwrap();
        let undone = routed.with_unrouting_swaps();
        let reference = qc.remap(&routed.initial_layout[..4], 4);
        let ua = qdt::array::circuit_unitary(&undone).unwrap();
        let ub = qdt::array::circuit_unitary(&reference).unwrap();
        prop_assert!(ua.approx_eq(&ub, 1e-8));
    }
}

/// With `--features audit`, the backend auditors must come back clean
/// after simulating random Clifford+T circuits: random workloads must
/// not be able to drive the data structures out of their invariants.
#[cfg(feature = "audit")]
mod audits {
    use super::*;
    use qdt::circuit::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #[test]
        fn dd_package_invariants_survive_random_simulation(
            seed in 0u64..500, n in 2usize..6,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let qc = generators::random_clifford_t(n, 25, 0.3, &mut rng);
            let mut dd = DdPackage::new();
            dd.run_circuit(&qc).expect("simulates");
            prop_assert_eq!(dd.audit(), Ok(()));
        }

        #[test]
        fn zx_invariants_survive_lowering_and_reduction(
            seed in 0u64..500, n in 2usize..6,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let qc = generators::random_clifford_t(n, 20, 0.3, &mut rng);
            let mut d = qdt::zx::Diagram::from_circuit(&qc).expect("lowers");
            prop_assert_eq!(d.audit(), Ok(()));
            qdt::zx::simplify::full_reduce(&mut d);
            prop_assert_eq!(d.audit(), Ok(()));
        }

        #[test]
        fn mps_invariants_survive_random_simulation(
            seed in 0u64..500, n in 2usize..7,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let qc = generators::random_clifford_t(n, 20, 0.3, &mut rng);
            let mps = qdt::tensor::mps::Mps::from_circuit(&qc, 16).expect("simulates");
            prop_assert_eq!(mps.audit(), Ok(()));
        }
    }
}
