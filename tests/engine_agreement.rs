//! Cross-engine agreement: every engine built from a spec must
//! tell the same story about the same random Clifford+T circuit.
//!
//! Three properties over strategy-generated circuits (≤ 6 qubits, so
//! every engine can be checked densely):
//!
//! * amplitude vectors agree entry-for-entry;
//! * sampled measurement distributions agree with the reference
//!   distribution under a chi-squared goodness-of-fit bound — this
//!   covers the native samplers (array, DD) *and* the shared
//!   amplitude-based sampler the TN/MPS engines inherit;
//! * Pauli-string expectation values agree.

use std::collections::BTreeMap;

use proptest::prelude::*;
use qdt::circuit::{generators, Circuit, Gate, PauliString};
use qdt::create_engine;
use qdt::engine::run;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Engine specs under test: all four registered defaults (MPS with a
/// bond cap generous enough to stay exact at these widths), plus the
/// array engine on the 4-thread parallel kernels (`threshold=1` forces
/// the chunked path even on these small registers).
const SPECS: [&str; 5] = [
    "array",
    "array(threads=4,threshold=1)",
    "decision-diagram",
    "tensor-network",
    "mps:64",
];

fn clifford_t_gate() -> impl Strategy<Value = Gate> {
    prop_oneof![
        Just(Gate::X),
        Just(Gate::Y),
        Just(Gate::Z),
        Just(Gate::H),
        Just(Gate::S),
        Just(Gate::Sdg),
        Just(Gate::T),
        Just(Gate::Tdg),
    ]
}

#[derive(Debug, Clone)]
enum Op {
    G(Gate, usize),
    Cx(usize, usize),
    Cz(usize, usize),
    Swap(usize, usize),
}

fn op_strategy(n: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (clifford_t_gate(), 0..n).prop_map(|(g, q)| Op::G(g, q)),
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

/// A random Clifford+T circuit of 2–6 qubits.
fn any_circuit() -> impl Strategy<Value = Circuit> {
    (2usize..=6).prop_flat_map(|n| circuit_strategy(n, 14))
}

/// A circuit together with a random Pauli string of matching width.
fn circuit_with_pauli() -> impl Strategy<Value = (Circuit, String)> {
    (2usize..=6).prop_flat_map(|n| {
        let pauli =
            prop::collection::vec(prop_oneof![Just('I'), Just('X'), Just('Y'), Just('Z')], n)
                .prop_map(|cs| cs.into_iter().collect::<String>());
        (circuit_strategy(n, 14), pauli)
    })
}

/// Pearson's chi-squared statistic of `counts` against the exact
/// distribution `probs`, pooling low-expectation bins.
fn chi_squared(probs: &[f64], counts: &BTreeMap<u128, usize>, shots: usize) -> (f64, usize) {
    let mut stat = 0.0;
    let mut bins = 0usize;
    let mut rest_exp = 0.0;
    let mut rest_obs = 0.0;
    for (i, &p) in probs.iter().enumerate() {
        let exp = p * shots as f64;
        let obs = counts.get(&(i as u128)).copied().unwrap_or(0) as f64;
        if exp < 5.0 {
            rest_exp += exp;
            rest_obs += obs;
        } else {
            stat += (obs - exp) * (obs - exp) / exp;
            bins += 1;
        }
    }
    if rest_exp > 0.5 {
        stat += (rest_obs - rest_exp) * (rest_obs - rest_exp) / rest_exp;
        bins += 1;
    } else if rest_obs > 10.0 {
        // Shots landed where the exact distribution has ~no mass.
        stat += f64::INFINITY;
    }
    (stat, bins.max(2) - 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every registered engine produces the same amplitude vector and
    /// applies the same number of gates.
    #[test]
    fn amplitudes_agree_across_registered_engines(qc in any_circuit()) {
        let mut reference = create_engine("array").unwrap();
        let ref_stats = run(reference.as_mut(), &qc).unwrap();
        let ref_amps = reference.amplitudes().unwrap();
        for spec in SPECS {
            let mut e = create_engine(spec).unwrap();
            let stats = run(e.as_mut(), &qc).unwrap();
            prop_assert!(
                stats.gates_applied == ref_stats.gates_applied,
                "{}: gate count drifted", spec
            );
            let amps = e.amplitudes().unwrap();
            prop_assert!(amps.len() == ref_amps.len(), "{}", spec);
            for (i, (x, y)) in amps.iter().zip(&ref_amps).enumerate() {
                prop_assert!(
                    x.approx_eq(*y, 1e-7),
                    "{}: amplitude {} is {} vs {}", spec, i, x, y
                );
            }
        }
    }

    /// Pauli expectations agree on every registered engine.
    #[test]
    fn expectations_agree_across_registered_engines(
        (qc, pauli) in circuit_with_pauli()
    ) {
        let p: PauliString = pauli.parse().unwrap();
        let mut reference = create_engine("array").unwrap();
        run(reference.as_mut(), &qc).unwrap();
        let expected = reference.expectation(&p).unwrap();
        prop_assert!(expected.abs() <= 1.0 + 1e-9, "non-physical expectation");
        for spec in SPECS {
            let mut e = create_engine(spec).unwrap();
            run(e.as_mut(), &qc).unwrap();
            let got = e.expectation(&p).unwrap();
            prop_assert!(
                (got - expected).abs() < 1e-7,
                "{}: {} vs {}", spec, got, expected
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Sampling on every engine matches the exact output distribution
    /// under a (generous) chi-squared bound.
    #[test]
    fn sample_distributions_agree_across_registered_engines(qc in any_circuit()) {
        const SHOTS: usize = 4000;
        let mut reference = create_engine("array").unwrap();
        run(reference.as_mut(), &qc).unwrap();
        let probs: Vec<f64> = reference
            .amplitudes()
            .unwrap()
            .iter()
            .map(|a| a.norm_sqr())
            .collect();
        for (k, spec) in SPECS.iter().enumerate() {
            let mut e = create_engine(spec).unwrap();
            run(e.as_mut(), &qc).unwrap();
            let mut rng = StdRng::seed_from_u64(0xA11CE + k as u64);
            let counts = e.sample(SHOTS, &mut rng).unwrap();
            prop_assert!(counts.values().sum::<usize>() == SHOTS, "{}", spec);
            let (stat, dof) = chi_squared(&probs, &counts, SHOTS);
            // ~5σ above the chi-squared mean: essentially never fires on
            // a correct sampler, always fires on a broken distribution.
            let bound = dof as f64 + 5.0 * (2.0 * dof as f64).sqrt() + 20.0;
            prop_assert!(
                stat <= bound,
                "{}: chi2 {} over bound {} (dof {})", spec, stat, bound, dof
            );
        }
    }
}

// ---------------------------------------------------------------------
// Clifford-only agreement: the stabilizer tableau joins the dense
// engines on the Clifford fragment, sequentially and on the 4-thread
// parallel kernels (`threshold=1` forces the chunked path even on these
// small registers).
// ---------------------------------------------------------------------

/// Specs checked against the dense array on H/S/CX-only circuits.
const CLIFFORD_SPECS: [&str; 3] = [
    "stabilizer",
    "stabilizer(threads=4,threshold=1)",
    "decision-diagram",
];

#[test]
fn clifford_amplitudes_agree_with_the_array() {
    // A stabilizer group pins the state only up to a global phase, so
    // the comparison aligns the first nonzero amplitude before asking
    // for entrywise equality (relative phases ARE physical and must
    // match exactly).
    for seed in 0..12u64 {
        let qc = generators::random_clifford_seeded(6, 16, seed);
        let mut reference = create_engine("array").unwrap();
        run(reference.as_mut(), &qc).unwrap();
        let ref_amps = reference.amplitudes().unwrap();
        for spec in CLIFFORD_SPECS {
            let mut e = create_engine(spec).unwrap();
            run(e.as_mut(), &qc).unwrap();
            let amps = e.amplitudes().unwrap();
            assert_eq!(amps.len(), ref_amps.len(), "{spec} seed {seed}");
            let anchor = ref_amps
                .iter()
                .position(|a| a.abs() > 1e-9)
                .expect("normalised state has a nonzero amplitude");
            let phase = ref_amps[anchor] / amps[anchor];
            assert!(
                (phase.abs() - 1.0).abs() < 1e-9,
                "{spec} seed {seed}: magnitudes differ at anchor {anchor}: {phase}"
            );
            for (i, (x, y)) in amps.iter().zip(&ref_amps).enumerate() {
                assert!(
                    (*x * phase).approx_eq(*y, 1e-9),
                    "{spec} seed {seed}: amplitude {i} is {x} vs {y} (phase {phase})"
                );
            }
        }
    }
}

#[test]
fn clifford_expectations_agree_with_the_array() {
    for (seed, pauli) in [
        (1u64, "ZZIIII"),
        (2, "XXXXXX"),
        (3, "IYZIXI"),
        (4, "ZIZIZI"),
    ] {
        let qc = generators::random_clifford_seeded(6, 16, seed);
        let p: PauliString = pauli.parse().unwrap();
        let mut reference = create_engine("array").unwrap();
        run(reference.as_mut(), &qc).unwrap();
        let expected = reference.expectation(&p).unwrap();
        for spec in CLIFFORD_SPECS {
            let mut e = create_engine(spec).unwrap();
            run(e.as_mut(), &qc).unwrap();
            let got = e.expectation(&p).unwrap();
            assert!(
                (got - expected).abs() < 1e-9,
                "{spec} seed {seed} {pauli}: {got} vs {expected}"
            );
        }
    }
}

#[test]
fn clifford_sample_distributions_agree_with_the_array() {
    const SHOTS: usize = 4000;
    for seed in 0..6u64 {
        let qc = generators::random_clifford_seeded(5, 12, seed);
        let mut reference = create_engine("array").unwrap();
        run(reference.as_mut(), &qc).unwrap();
        let probs: Vec<f64> = reference
            .amplitudes()
            .unwrap()
            .iter()
            .map(|a| a.norm_sqr())
            .collect();
        for (k, spec) in CLIFFORD_SPECS.iter().enumerate() {
            let mut e = create_engine(spec).unwrap();
            run(e.as_mut(), &qc).unwrap();
            let mut rng = StdRng::seed_from_u64(0xC11F + seed * 31 + k as u64);
            let counts = e.sample(SHOTS, &mut rng).unwrap();
            assert_eq!(counts.values().sum::<usize>(), SHOTS, "{spec} seed {seed}");
            let (stat, dof) = chi_squared(&probs, &counts, SHOTS);
            let bound = dof as f64 + 5.0 * (2.0 * dof as f64).sqrt() + 20.0;
            assert!(
                stat <= bound,
                "{spec} seed {seed}: chi2 {stat} over bound {bound} (dof {dof})"
            );
        }
    }
}

#[test]
fn stabilizer_sampling_is_bit_identical_across_thread_counts() {
    // The PR 5 determinism contract extends to the tableau: identical
    // seeds must give identical histograms at any worker count, even on
    // a register wide enough that the row kernels actually chunk.
    let qc = generators::random_clifford_seeded(40, 8, 9);
    let sample_with = |spec: &str| {
        let mut e = create_engine(spec).unwrap();
        run(e.as_mut(), &qc).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        e.sample(512, &mut rng).unwrap()
    };
    let sequential = sample_with("stabilizer(threads=1)");
    for spec in [
        "stabilizer(threads=2,threshold=1)",
        "stabilizer(threads=4,threshold=1)",
    ] {
        assert_eq!(sample_with(spec), sequential, "{spec} diverged");
    }
}
