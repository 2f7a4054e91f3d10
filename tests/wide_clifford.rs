//! Wide Clifford differential harness: the stabilizer tableau against
//! the decision diagram (and the MPS where its bond dimension is exact)
//! at 40–128 qubits, widths no dense engine can check.
//!
//! * **Static:** Pauli expectations on the final state of permuted GHZ
//!   and shallow `random_clifford_seeded` circuits, over seeded random
//!   Pauli strings plus each circuit's own stabilizers (the Heisenberg
//!   images of `Z_q`, whose expectation must be ±1 on every engine).
//! * **Dynamic:** `sample_dynamic` histograms under shared seeds on the
//!   repetition code and on measured wide circuits: every collapse draws
//!   one RNG sample, so the histograms are equal bit for bit.
//! * **Thread invariance:** `stabilizer(threads=1)` against
//!   `stabilizer(threads=4,threshold=1)`, which forces the chunked row
//!   kernels on every call.
//!
//! Random Clifford depths are kept shallow so the DD stays below
//! [`DD_NODE_BOUND`] nodes; the bound is asserted, so a circuit that
//! outgrows it fails loudly rather than slowing the suite.

use qdt::circuit::{generators, Circuit, Gate, OpKind, Pauli, PauliString};
use qdt::create_engine;
use qdt::engine::run;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Largest DD (in vector nodes) any static circuit here may build.
const DD_NODE_BOUND: usize = 20_000;

/// A GHZ state whose CX chain follows a seeded random qubit order.
fn permuted_ghz(n: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let mut qc = Circuit::new(n);
    qc.h(order[0]);
    for w in order.windows(2) {
        qc.cx(w[0], w[1]);
    }
    qc
}

/// The static circuits: `(label, circuit)`.
fn static_circuits() -> Vec<(String, Circuit)> {
    let mut out = Vec::new();
    for (n, seed) in [(40usize, 1u64), (64, 2), (65, 3), (128, 4)] {
        out.push((format!("permuted-ghz-{n}"), permuted_ghz(n, seed)));
    }
    for (n, depth, seed) in [(40usize, 2usize, 5u64), (48, 1, 6), (40, 1, 8), (64, 1, 7)] {
        out.push((
            format!("random-clifford-{n}x{depth}"),
            generators::random_clifford_seeded(n, depth, seed),
        ));
    }
    out
}

/// The Pauli `C Z_q C†` as bits, sign dropped: a stabilizer of
/// `C|0…0⟩` for a circuit over `{H, S, CX}`, so `⟨P⟩ = ±1`.
fn propagated_z(qc: &Circuit, q: usize) -> PauliString {
    let n = qc.num_qubits();
    let (mut x, mut z) = (vec![false; n], vec![false; n]);
    z[q] = true;
    for inst in qc.instructions() {
        let OpKind::Unitary {
            gate,
            target,
            controls,
        } = &inst.kind
        else {
            panic!("propagation covers unitary gates only");
        };
        let t = *target;
        match (gate, controls.as_slice()) {
            (Gate::H, []) => std::mem::swap(&mut x[t], &mut z[t]),
            (Gate::S, []) => z[t] ^= x[t],
            (Gate::X, [c]) => {
                x[t] ^= x[*c];
                z[*c] ^= z[t];
            }
            other => panic!("no propagation rule for {other:?}"),
        }
    }
    let ops = x
        .iter()
        .zip(&z)
        .map(|(&xb, &zb)| match (xb, zb) {
            (false, false) => Pauli::I,
            (true, false) => Pauli::X,
            (false, true) => Pauli::Z,
            (true, true) => Pauli::Y,
        })
        .collect();
    PauliString::new(ops)
}

/// A seeded random Pauli string on `weight` distinct qubits.
fn random_pauli(n: usize, weight: usize, rng: &mut StdRng) -> PauliString {
    let mut ops = vec![Pauli::I; n];
    let mut placed = 0;
    while placed < weight {
        let q = rng.gen_range(0..n);
        if ops[q] == Pauli::I {
            ops[q] = [Pauli::X, Pauli::Y, Pauli::Z][rng.gen_range(0..3usize)];
            placed += 1;
        }
    }
    PauliString::new(ops)
}

/// The Pauli strings checked on `qc`, with whether each is a stabilizer
/// (its expectation must be ±1).
fn paulis_for(qc: &Circuit, seed: u64) -> Vec<(PauliString, bool)> {
    let n = qc.num_qubits();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for _ in 0..6 {
        let q = rng.gen_range(0..n);
        out.push((propagated_z(qc, q), true));
    }
    for weight in [1usize, 2, 2, 3, 4, n] {
        out.push((random_pauli(n, weight, &mut rng), false));
    }
    out
}

fn expectations(spec: &str, qc: &Circuit, paulis: &[(PauliString, bool)]) -> Vec<f64> {
    let mut e = create_engine(spec).unwrap();
    run(e.as_mut(), qc).unwrap();
    if e.name() == "decision-diagram" {
        let nodes = e.cost_metric().value;
        assert!(
            nodes <= DD_NODE_BOUND,
            "{spec}: {nodes} DD nodes exceed the harness bound {DD_NODE_BOUND}"
        );
    }
    paulis
        .iter()
        .map(|(p, _)| e.expectation(p).unwrap())
        .collect()
}

#[test]
fn wide_expectations_agree_with_the_decision_diagram() {
    for (k, (label, qc)) in static_circuits().into_iter().enumerate() {
        let paulis = paulis_for(&qc, 0xA11CE + k as u64);
        let tableau = expectations("stabilizer", &qc, &paulis);
        let dd = expectations("dd", &qc, &paulis);
        for (((p, stabilizer), s), d) in paulis.iter().zip(&tableau).zip(&dd) {
            assert!(
                (s - d).abs() < 1e-9,
                "{label}: <{p}> is {s} on the tableau, {d} on the DD"
            );
            if *stabilizer {
                assert!(
                    (s.abs() - 1.0).abs() < 1e-12,
                    "{label}: stabilizer {p} reads {s}"
                );
            }
        }
    }
}

#[test]
fn wide_ghz_expectations_agree_with_the_mps() {
    // A GHZ state has Schmidt rank 2 across every cut, so χ = 16 is exact.
    for (n, seed) in [(40usize, 11u64), (96, 12)] {
        let qc = permuted_ghz(n, seed);
        let mut paulis = paulis_for(&qc, seed);
        paulis.push((PauliString::new(vec![Pauli::X; n]), true));
        let tableau = expectations("stabilizer", &qc, &paulis);
        let mps = expectations("mps:16", &qc, &paulis);
        for (((p, _), s), m) in paulis.iter().zip(&tableau).zip(&mps) {
            assert!(
                (s - m).abs() < 1e-9,
                "ghz-{n}: <{p}> is {s} on the tableau, {m} on the MPS"
            );
        }
    }
}

/// A measured wide circuit: permuted GHZ, a random-outcome X-basis
/// readout of a few qubits, resets, a second entangling layer and a
/// final Z readout, all on at most 128 classical bits.
fn measured_wide(n: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let clbits = 12;
    let mut qc = Circuit::with_clbits(n, clbits);
    qc.append(&permuted_ghz(n, seed));
    let mut k = 0;
    for _ in 0..3 {
        let q = rng.gen_range(0..n);
        qc.h(q).measure(q, k);
        k += 1;
    }
    for _ in 0..3 {
        let q = rng.gen_range(0..n);
        qc.reset(q);
    }
    for _ in 0..n / 2 {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a != b {
            qc.cx(a, b);
        }
        if rng.gen_bool(0.3) {
            qc.s(a);
        }
    }
    while k < clbits {
        let q = rng.gen_range(0..n);
        qc.measure(q, k);
        k += 1;
    }
    qc
}

#[test]
fn wide_dynamic_histograms_agree_under_shared_seeds() {
    let mut cases = vec![
        ("repetition-21x3", generators::repetition_code(21, 3)),
        ("repetition-41x3", generators::repetition_code(41, 3)),
    ];
    for (n, seed) in [(40usize, 21u64), (64, 22), (100, 23)] {
        cases.push(("measured-wide", measured_wide(n, seed)));
    }
    for (label, qc) in &cases {
        let n = qc.num_qubits();
        let reference = qdt::sample_dynamic(qc, 64, "stabilizer", 5, 1).unwrap();
        if label.starts_with("measured") {
            assert!(
                reference.counts.len() > 1,
                "{label}: the X-basis readout must draw random outcomes"
            );
        }
        for spec in ["dd", "mps:16"] {
            if spec.starts_with("mps") && label.starts_with("measured") {
                // The second entangling layer outgrows an exact χ.
                continue;
            }
            let other = qdt::sample_dynamic(qc, 64, spec, 5, 1).unwrap();
            assert_eq!(
                other.counts, reference.counts,
                "{label} ({n} qubits): {spec} histogram differs from the tableau"
            );
        }
    }
}

#[test]
fn wide_stabilizer_is_thread_invariant() {
    let sequential = "stabilizer(threads=1)";
    let striped = "stabilizer(threads=4,threshold=1)";
    let mut circuits = static_circuits();
    circuits.push((
        "random-clifford-128x6".into(),
        generators::random_clifford_seeded(128, 6, 9),
    ));
    for (label, qc) in circuits {
        let paulis = paulis_for(&qc, 0xBEE);
        assert_eq!(
            expectations(sequential, &qc, &paulis),
            expectations(striped, &qc, &paulis),
            "{label}: expectations diverged across thread counts"
        );
        let sample = |spec: &str| {
            let mut e = create_engine(spec).unwrap();
            run(e.as_mut(), &qc).unwrap();
            e.sample(256, &mut StdRng::seed_from_u64(31)).unwrap()
        };
        assert_eq!(
            sample(sequential),
            sample(striped),
            "{label}: samples diverged"
        );
    }
    for (n, seed) in [(64usize, 41u64), (128, 42)] {
        let qc = measured_wide(n, seed);
        let a = qdt::sample_dynamic(&qc, 96, sequential, 9, 2).unwrap();
        let b = qdt::sample_dynamic(&qc, 96, striped, 9, 2).unwrap();
        assert_eq!(a.counts, b.counts, "measured-wide-{n}: histograms diverged");
        assert_eq!(a.stats, b.stats, "measured-wide-{n}: stats diverged");
    }
}
