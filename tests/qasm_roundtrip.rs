//! Integration: OpenQASM round trips preserve semantics, not just
//! structure.

use qdt::circuit::{generators, qasm, Circuit};
use qdt::verify::{check, Method};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn assert_roundtrip_semantics(qc: &Circuit, label: &str) {
    let text = qasm::write(qc).unwrap_or_else(|e| panic!("{label}: export failed: {e}"));
    let back = qasm::parse(&text).unwrap_or_else(|e| panic!("{label}: parse failed: {e}"));
    let r = check(
        &qc.unitary_part(),
        &back.unitary_part(),
        Method::DecisionDiagram,
    )
    .unwrap();
    assert!(r.is_equivalent(), "{label}: round trip changed semantics");
}

#[test]
fn generators_round_trip() {
    assert_roundtrip_semantics(&generators::bell(), "bell");
    assert_roundtrip_semantics(&generators::ghz(5), "ghz");
    assert_roundtrip_semantics(&generators::qft(4, true), "qft");
    assert_roundtrip_semantics(&generators::w_state(4), "w");
    assert_roundtrip_semantics(&generators::phase_estimation(3, 0.375), "qpe");
}

#[test]
fn random_circuits_round_trip() {
    let mut rng = StdRng::seed_from_u64(41);
    for i in 0..4 {
        let qc = generators::random_clifford_t(4, 5, 0.3, &mut rng);
        assert_roundtrip_semantics(&qc, &format!("clifford_t#{i}"));
    }
    for i in 0..4 {
        let qc = generators::random_circuit(4, 4, &mut rng);
        assert_roundtrip_semantics(&qc, &format!("random#{i}"));
    }
}

#[test]
fn external_program_parses_and_runs() {
    // A hand-written program in the style of public benchmark suites.
    let src = r#"
        OPENQASM 2.0;
        include "qelib1.inc";
        qreg q[3];
        creg c[3];
        u2(0, pi) q[0];      // = H
        cx q[0], q[1];
        rz(pi/8) q[1];
        ccx q[0], q[1], q[2];
        u3(pi/2, 0, pi) q[2];
        barrier q;
        measure q -> c;
    "#;
    let qc = qasm::parse(src).unwrap();
    assert_eq!(qc.num_qubits(), 3);
    assert_eq!(qc.count_by_name()["measure"], 3);
    // Execute it: no panic, normalised output.
    let amps = qdt::amplitudes(&qc.unitary_part(), "array").unwrap();
    let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
    assert!((norm - 1.0).abs() < 1e-9);
}

#[test]
fn compiled_output_exports_cleanly() {
    use qdt::compile::coupling::CouplingMap;
    use qdt::compile::target::GateSet;
    let qc = generators::qft(4, true);
    let routed =
        qdt::compile::compile(&qc, &GateSet::ibm_basis(), &CouplingMap::linear(4)).unwrap();
    let text = qasm::write(&routed.circuit).unwrap();
    assert!(text.contains("OPENQASM 2.0"));
    let back = qasm::parse(&text).unwrap();
    assert_eq!(back.len(), routed.circuit.len());
}

#[test]
fn dynamic_generators_round_trip_exactly() {
    // Reset, mid-circuit measurement and single-bit conditions all have
    // QASM spellings, so dynamic circuits must survive a round trip
    // instruction-for-instruction (`unitary_part` would erase exactly
    // the structure under test).
    for (qc, label) in [
        (generators::teleportation(1.1, 0.4), "teleportation"),
        (generators::iterative_phase_estimation(3, 5), "ipe"),
        (generators::adaptive_ghz(4), "adaptive-ghz"),
        (generators::reset_reuse_ladder(3), "reset-reuse"),
    ] {
        let text = qasm::write(&qc).unwrap_or_else(|e| panic!("{label}: export failed: {e}"));
        let back = qasm::parse(&text).unwrap_or_else(|e| panic!("{label}: parse failed: {e}"));
        assert_eq!(
            qc.instructions(),
            back.instructions(),
            "{label}: round trip changed the instruction stream"
        );
        assert_eq!(back.num_clbits(), qc.num_clbits(), "{label}");
        // Same circuit + same seed ⇒ the executor must reproduce the
        // histogram bit for bit on the reparsed program.
        let original = qdt::sample_dynamic(&qc, 96, "dd", 23, 1).unwrap();
        let reparsed = qdt::sample_dynamic(&back, 96, "dd", 23, 1).unwrap();
        assert_eq!(original.counts, reparsed.counts, "{label}");
    }
}

#[test]
fn external_dynamic_program_parses_and_runs() {
    // Reset + mid-circuit measurement + feed-forward, as a hand-written
    // program: a one-bit teleportation-style correction chain.
    let src = r#"
        OPENQASM 2.0;
        include "qelib1.inc";
        qreg q[2];
        creg c[2];
        h q[0];
        measure q[0] -> c[0];
        if (c[0] == 1) x q[1];
        reset q[0];
        measure q[0] -> c[1];
    "#;
    let qc = qasm::parse(src).unwrap();
    assert!(qc.is_dynamic());
    assert_eq!(qc.static_prefix_len(), 1);
    let result = qdt::sample_dynamic(&qc, 200, "array", 3, 2).unwrap();
    // c1 reads a freshly reset qubit: always 0, so keys are 0b00/0b01.
    assert!(result.counts.keys().all(|&k| k == 0b00 || k == 0b01));
    assert_eq!(result.stats.resets, 200);
}

#[test]
fn non_finite_angles_are_rejected_with_their_line() {
    let program = |angle: &str| {
        format!("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\nrz({angle}) q[0];\n")
    };
    for angle in ["1/0", "-1/0", "0/0", "1e308*10"] {
        let e = qasm::parse(&program(angle)).expect_err(angle);
        assert_eq!(e.line, 4, "{angle}: {e}");
        assert!(e.message.contains("finite"), "{angle}: {e}");
    }
    let qc = qasm::parse(&program("pi/2")).unwrap();
    assert_eq!(qc.len(), 1);
}

#[test]
fn bundled_examples_parse_to_their_reference_circuits() {
    // The circuits the previous (statement-splitting) parser produced.
    let mut clean = Circuit::with_clbits(2, 2);
    clean.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
    let parsed = qasm::parse(include_str!("../examples/lint_clean.qasm")).unwrap();
    assert_eq!(parsed, clean);
    let mut flawed = Circuit::with_clbits(3, 2);
    flawed.h(0).h(0).cx(0, 1).z(0).c_if(1, true);
    flawed.measure(1, 0).x(1).measure(0, 0);
    let parsed = qasm::parse(include_str!("../examples/lint_flawed.qasm")).unwrap();
    assert_eq!(parsed, flawed);
}
