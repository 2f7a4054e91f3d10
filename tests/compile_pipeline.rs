//! Integration: the full compilation pipeline against every device
//! preset, verified end to end (experiment C7 of DESIGN.md).

use qdt::circuit::{generators, Circuit, OpKind};
use qdt::compile::coupling::CouplingMap;
use qdt::compile::target::GateSet;
use qdt::compile::{compile, routing::route};
use qdt::telemetry::MetricValue;
use qdt::verify::{check, verify_compilation, verify_compilation_traced, Equivalence, Method};
use qdt::TelemetrySink;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn assert_respects_map(qc: &Circuit, map: &CouplingMap) {
    for inst in qc {
        if inst.is_unitary() && inst.qubits().len() == 2 {
            let qs: Vec<usize> = inst.qubits().collect();
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

/// Matrix nodes the DD miter of `verify_compilation` created.
fn miter_nodes(qc: &Circuit, map: &CouplingMap) -> f64 {
    let routed = compile(qc, &GateSet::ibm_basis(), map).unwrap();
    let sink = TelemetrySink::new();
    let verdict =
        verify_compilation_traced(qc, &routed, map, Method::DecisionDiagram, &sink).unwrap();
    assert!(verdict.is_equivalent(), "{verdict:?}");
    let Some(MetricValue::Gauge(nodes)) = sink.metrics().get("verify.dd.nodes") else {
        panic!("the DD check records the matrix nodes it created");
    };
    nodes
}

#[test]
fn routed_qft_miters_stay_small_when_swaps_are_relabelled() {
    // Multiplying the router's SWAPs into the miter created 15,569 to
    // 29,704 nodes for QFT-8 and 137,841 for QFT-10 on a line.
    let cases = [
        (8, CouplingMap::linear(8), 5_000.0),
        (8, CouplingMap::ring(8), 5_000.0),
        (8, CouplingMap::grid(2, 4), 5_000.0),
        (8, CouplingMap::heavy_hex(2, 4), 5_000.0),
        (10, CouplingMap::linear(10), 10_000.0),
    ];
    for (n, map, bound) in cases {
        let nodes = miter_nodes(&generators::qft(n, true), &map);
        assert!(nodes < bound, "QFT-{n} on {map:?}: {nodes} nodes");
    }
}

/// The verdict of the construction without SWAP elision: the compiled
/// circuit with the un-routing SWAPs appended, against the remapped
/// source, on dense unitaries.
fn unelided_array_verdict(qc: &Circuit, routed: &qdt::compile::routing::RoutedCircuit) -> bool {
    let undone = routed.with_unrouting_swaps().unitary_part();
    let reference = qc.unitary_part().remap(
        &routed.initial_layout[..qc.num_qubits()],
        routed.circuit.num_qubits(),
    );
    check(&undone, &reference, Method::Array)
        .unwrap()
        .is_equivalent()
}

/// `map` cut down to its first `n` qubits (which must stay connected),
/// so the dense oracle works on `2^n`-dimensional unitaries.
fn first_qubits(map: &CouplingMap, n: usize) -> CouplingMap {
    let edges: Vec<(usize, usize)> = (0..n)
        .flat_map(|a| map.neighbors(a).into_iter().map(move |b| (a, b)))
        .filter(|&(a, b)| a < b && b < n)
        .collect();
    let cut = CouplingMap::from_edges(n, &edges);
    assert!(cut.is_connected());
    cut
}

#[test]
fn relabelled_miter_agrees_with_the_unelided_array_check() {
    // QFT, Clifford+T and random sources on lines, rings, grids and
    // heavy-hex patches; every second case carries a stray X.
    let mut rng = StdRng::seed_from_u64(0x5A4B);
    let mut cases = 0;
    for (n, trials) in [(5, 24), (6, 10), (7, 4)] {
        let maps = [
            CouplingMap::linear(n),
            CouplingMap::ring(n),
            first_qubits(&CouplingMap::grid(2, n.div_ceil(2)), n),
            first_qubits(&CouplingMap::heavy_hex(2, n.div_ceil(2)), n),
        ];
        for map in &maps {
            for trial in 0..trials {
                let qc = match cases / 2 % 3 {
                    0 => generators::qft(n, cases % 4 < 2),
                    1 => generators::random_clifford_t(n, 6, 0.2, &mut rng),
                    _ => generators::random_circuit(n, 3, &mut rng),
                };
                let mut routed = compile(&qc, &GateSet::ibm_basis(), map).unwrap();
                let mutant = trial % 2 == 1;
                if mutant {
                    let at = rng.gen_range(0..=routed.circuit.len());
                    let qubit = rng.gen_range(0..n);
                    routed.circuit = with_x_inserted(&routed.circuit, at, qubit);
                }
                let oracle = unelided_array_verdict(&qc, &routed);
                assert_eq!(oracle, !mutant, "width {n}, trial {trial}");
                let by_dd = verify_compilation(&qc, &routed, map, Method::DecisionDiagram).unwrap();
                assert_eq!(
                    by_dd.is_equivalent(),
                    oracle,
                    "width {n} on {map:?}, trial {trial}: {by_dd:?}"
                );
                cases += 1;
            }
        }
    }
    assert!(cases >= 150, "{cases} cases");

    // A residual 3-cycle: the compiled circuit moves its qubits round
    // with SWAPs the elision does not recognise (the middle CX written as
    // H·CZ·H), so the whole permutation is appended. Emitted in the wrong
    // orientation it would realise the inverse cycle.
    let mut qc = Circuit::new(3);
    qc.h(0).t(1).cx(1, 2);
    let mut compiled = qc.clone();
    for (a, b) in [(0, 1), (1, 2)] {
        compiled.cx(a, b).h(a).cz(b, a).h(a).cx(a, b);
    }
    let mut routed = qdt::compile::routing::RoutedCircuit {
        circuit: compiled,
        initial_layout: vec![0, 1, 2],
        final_layout: vec![2, 0, 1],
        swap_count: 2,
    };
    let map = CouplingMap::linear(3);
    let sink = TelemetrySink::new();
    let verdict =
        verify_compilation_traced(&qc, &routed, &map, Method::DecisionDiagram, &sink).unwrap();
    assert!(verdict.is_equivalent(), "{verdict:?}");
    assert!(unelided_array_verdict(&qc, &routed));
    assert_eq!(
        sink.metrics().get("verify.swaps.residual"),
        Some(MetricValue::Gauge(2.0))
    );
    // The inverse cycle is the wrong final layout.
    routed.final_layout = vec![1, 2, 0];
    for method in [Method::DecisionDiagram, Method::Array] {
        let verdict = verify_compilation(&qc, &routed, &map, method).unwrap();
        assert_eq!(verdict, Equivalence::NotEquivalent, "{method}");
    }
    assert!(!unelided_array_verdict(&qc, &routed));
}
