//! Integration: the full compilation pipeline against every device
//! preset, verified end to end (experiment C7 of DESIGN.md).

use qdt::circuit::{generators, Circuit, OpKind};
use qdt::compile::coupling::CouplingMap;
use qdt::compile::target::GateSet;
use qdt::compile::{compile, routing::route};
use qdt::telemetry::MetricValue;
use qdt::verify::{verify_compilation, verify_compilation_traced, Equivalence, Method};
use qdt::TelemetrySink;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn assert_respects_map(qc: &Circuit, map: &CouplingMap) {
    for inst in qc {
        if inst.is_unitary() && inst.qubits().len() == 2 {
            let qs = inst.qubits();
            assert!(
                map.connected(qs[0], qs[1]),
                "{} on {:?} violates the coupling map",
                inst.name(),
                qs
            );
        }
        assert!(
            !inst.is_unitary() || inst.qubits().len() <= 2,
            "wide gate survived compilation"
        );
    }
}

fn assert_in_basis(qc: &Circuit, gs: &GateSet) {
    for inst in qc {
        if let OpKind::Unitary { gate, controls, .. } = &inst.kind {
            match controls.len() {
                0 => assert!(gs.contains_1q(gate), "{gate} not in basis"),
                1 => assert!(gs.contains_controlled(gate), "c{gate} not in basis"),
                n => panic!("{n}-controlled gate in compiled output"),
            }
        }
        assert!(
            !matches!(inst.kind, OpKind::Swap { .. }),
            "SWAP survived basis lowering"
        );
    }
}

#[test]
fn qft_to_every_device() {
    let qc = generators::qft(5, true);
    for map in [
        CouplingMap::linear(5),
        CouplingMap::ring(5),
        CouplingMap::grid(1, 5),
        CouplingMap::full(5),
    ] {
        let routed = compile(&qc, &GateSet::ibm_basis(), &map).unwrap();
        assert_respects_map(&routed.circuit, &map);
        assert_in_basis(&routed.circuit, &GateSet::ibm_basis());
        let verdict = verify_compilation(&qc, &routed, &map, Method::DecisionDiagram).unwrap();
        assert!(verdict.is_equivalent(), "map {map:?}: {verdict:?}");
    }
}

#[test]
fn grover_compiles_to_clifford_t() {
    let qc = generators::grover(3, 0b011, 1);
    let map = CouplingMap::linear(3);
    let routed = compile(&qc, &GateSet::clifford_t(), &map).unwrap();
    assert_respects_map(&routed.circuit, &map);
    assert_in_basis(&routed.circuit, &GateSet::clifford_t());
    let verdict = verify_compilation(&qc, &routed, &map, Method::DecisionDiagram).unwrap();
    assert!(verdict.is_equivalent(), "{verdict:?}");
}

#[test]
fn random_circuits_to_heavy_hex() {
    let mut rng = StdRng::seed_from_u64(31);
    let map = CouplingMap::heavy_hex(2, 4);
    for i in 0..3 {
        let qc = generators::random_circuit(6, 3, &mut rng);
        let routed = compile(&qc, &GateSet::ibm_basis(), &map).unwrap();
        assert_respects_map(&routed.circuit, &map);
        let verdict =
            verify_compilation(&qc, &routed, &map, Method::RandomStimuli { samples: 5 }).unwrap();
        assert!(verdict.is_equivalent(), "#{i}: {verdict:?}");
    }
}

#[test]
fn ion_trap_basis_pipeline() {
    let qc = generators::ghz(4);
    let map = CouplingMap::linear(4);
    let routed = compile(&qc, &GateSet::RzRxCz, &map).unwrap();
    assert_in_basis(&routed.circuit, &GateSet::RzRxCz);
    let verdict = verify_compilation(&qc, &routed, &map, Method::DecisionDiagram).unwrap();
    assert!(verdict.is_equivalent(), "{verdict:?}");
}

#[test]
fn swap_overhead_ordering() {
    // Denser connectivity must never need more SWAPs than the line.
    let qc = generators::qft(6, false);
    let line = route(&qc, &CouplingMap::linear(6)).unwrap().swap_count;
    let ring = route(&qc, &CouplingMap::ring(6)).unwrap().swap_count;
    let full = route(&qc, &CouplingMap::full(6)).unwrap().swap_count;
    assert_eq!(full, 0);
    assert!(ring <= line, "ring {ring} vs line {line}");
}

#[test]
fn measurements_survive_compilation() {
    let mut qc = Circuit::with_clbits(3, 3);
    qc.h(0).cx(0, 1).cx(1, 2);
    for q in 0..3 {
        qc.measure(q, q);
    }
    let map = CouplingMap::linear(3);
    let routed = compile(&qc, &GateSet::ibm_basis(), &map).unwrap();
    assert_eq!(routed.circuit.count_by_name()["measure"], 3);
}

#[test]
fn bernstein_vazirani_still_works_after_compilation() {
    let secret = 0b1011u64;
    let qc = generators::bernstein_vazirani(4, secret);
    let map = CouplingMap::linear(5);
    let routed = compile(&qc, &GateSet::ibm_basis(), &map).unwrap();
    // The routed circuit measures *physical* qubits; the classical bits
    // still carry the answer.
    let result = qdt::sample_dynamic(&routed.circuit, 1, "array", 32, 1).unwrap();
    assert_eq!(
        result.counts.keys().copied().collect::<Vec<_>>(),
        [u128::from(secret)]
    );
}

#[test]
fn qft16_miter_stays_small_under_gate_cost_alternation() {
    // Pairing the source's gates with their compiled forms keeps the
    // miter near the identity; pairing by gate index (2114 compiled
    // gates against 144) let it grow to 60k nodes and create 445k.
    let qc = generators::qft(16, true);
    let map = CouplingMap::full(16);
    let routed = compile(&qc, &GateSet::ibm_basis(), &map).unwrap();
    let sink = TelemetrySink::new();
    let verdict =
        verify_compilation_traced(&qc, &routed, &map, Method::DecisionDiagram, &sink).unwrap();
    assert!(verdict.is_equivalent(), "{verdict:?}");
    let Some(MetricValue::Gauge(nodes)) = sink.metrics().get("verify.dd.nodes") else {
        panic!("the DD check records the matrix nodes it created");
    };
    assert!(
        nodes < 50_000.0,
        "the QFT-16 miter created {nodes} matrix nodes"
    );
}

/// `circuit` with an `X` on `qubit` inserted before instruction `at`.
fn with_x_inserted(circuit: &Circuit, at: usize, qubit: usize) -> Circuit {
    let mut out = Circuit::with_clbits(circuit.num_qubits(), circuit.num_clbits());
    for (i, inst) in circuit.iter().enumerate() {
        if i == at {
            out.x(qubit);
        }
        out.push(inst.clone()).unwrap();
    }
    out
}

/// Whether two verdicts agree, global phases within round-off.
fn same_verdict(a: Equivalence, b: Equivalence) -> bool {
    match (a, b) {
        (Equivalence::EquivalentUpToGlobalPhase(x), Equivalence::EquivalentUpToGlobalPhase(y)) => {
            x.approx_eq(y, 1e-6)
        }
        _ => a == b,
    }
}

#[test]
fn dd_verdicts_match_array_on_compiled_circuits() {
    // The DD miter's alternation order decides its cost, never its
    // verdict: on every source × device, unchanged and with one stray X,
    // it must say what the dense unitaries say.
    let n = 6;
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let sources = [
        ("qft", generators::qft(n, true)),
        ("ghz", generators::ghz(n)),
        (
            "clifford+t",
            generators::random_clifford_t(n, 8, 0.2, &mut rng),
        ),
    ];
    let maps = [
        CouplingMap::linear(n),
        CouplingMap::ring(n),
        CouplingMap::grid(2, n / 2),
        CouplingMap::heavy_hex(2, n / 2),
    ];
    for (name, qc) in &sources {
        for (m, map) in maps.iter().enumerate() {
            let mut routed = compile(qc, &GateSet::ibm_basis(), map).unwrap();
            for mutant in [false, true] {
                if mutant {
                    let at = routed.circuit.len() / 2;
                    routed.circuit = with_x_inserted(&routed.circuit, at, m % n);
                }
                let by_dd = verify_compilation(qc, &routed, map, Method::DecisionDiagram).unwrap();
                let by_array = verify_compilation(qc, &routed, map, Method::Array).unwrap();
                let label = format!("{name} on map {m}, mutant {mutant}");
                assert_eq!(by_array.is_equivalent(), !mutant, "{label}: {by_array:?}");
                assert!(
                    same_verdict(by_dd, by_array),
                    "{label}: DD {by_dd:?} vs array {by_array:?}"
                );
            }
        }
    }
}
