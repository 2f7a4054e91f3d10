//! Property tests for the analysis crate: every circuit the generator
//! library produces must lint **clean** (no error-severity diagnostics)
//! — the linter must not cry wolf on known-good circuits.

use proptest::prelude::*;
use qdt_analysis::Analyzer;
use qdt_circuit::{generators, Circuit};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn assert_lints_clean(qc: &Circuit, label: &str) {
    let report = Analyzer::new().analyze(qc);
    assert!(
        report.is_clean(),
        "{label} should lint clean, got {:?}",
        report.diagnostics
    );
}

proptest! {
    #[test]
    fn generator_circuits_lint_clean(n in 2usize..7) {
        assert_lints_clean(&generators::bell(), "bell");
        assert_lints_clean(&generators::ghz(n), "ghz");
        assert_lints_clean(&generators::w_state(n), "w_state");
        assert_lints_clean(&generators::qft(n, true), "qft");
        assert_lints_clean(&generators::grover(n, 1, 1), "grover");
        assert_lints_clean(
            &generators::bernstein_vazirani(n, 0b101 % (1 << n)),
            "bernstein_vazirani",
        );
        assert_lints_clean(&generators::deutsch_jozsa(n, true), "deutsch_jozsa");
        assert_lints_clean(&generators::ripple_carry_adder(n), "adder");
    }

    #[test]
    fn random_clifford_t_circuits_lint_clean(seed in 0u64..1000, n in 2usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let qc = generators::random_clifford_t(n, 20, 0.25, &mut rng);
        assert_lints_clean(&qc, "random_clifford_t");
    }

    #[test]
    fn resource_report_counts_are_consistent(seed in 0u64..1000, n in 2usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let qc = generators::random_clifford_t(n, 15, 0.25, &mut rng);
        let r = Analyzer::new().analyze(&qc).resources;
        let total: usize = r.gate_counts.values().sum();
        // Every instruction random_clifford_t emits is a unitary gate.
        prop_assert_eq!(total, qc.len());
        prop_assert!(r.two_qubit_depth <= r.depth);
        prop_assert!(r.two_qubit_gate_count <= qc.len());
        prop_assert_eq!(r.clifford_only, r.t_count == 0);
    }
}
