//! Fused-vs-unfused differential harness: gate fusion is an execution
//! strategy, not an approximation, so a fused run must reproduce the
//! unfused amplitudes — bit for bit when the scalar kernels are forced
//! (`QDT_SIMD=scalar`), and within 1e-12 per amplitude component
//! otherwise (see DESIGN.md §16 for why the implemented kernels are in
//! fact bit-identical on both paths, and why the contract is stated
//! with the looser tolerance anyway).
//!
//! The harness drives strategy-generated circuits through every
//! `fuse=0/2/5` × `threads=1/2/4` spec combination:
//!
//! * random Clifford+T circuits (sparse gate matrices — zeros exercise
//!   the kernels' handling of structured entries);
//! * dense random-unitary circuits (`Rx/Ry/Rz/Phase/U` at arbitrary
//!   angles plus CX/CZ/SWAP — every matrix entry nonzero);
//! * dynamic circuits with mid-circuit measurement, reset, and
//!   classically conditioned gates, replayed shot by shot through the
//!   `ShotExecutor`: fusion must stop at every collapse boundary, so
//!   the histograms and shot statistics must match *exactly*;
//! * fixed thread count, varying fuse width: amplitudes stay
//!   bit-identical, because chunking and fusion both preserve the
//!   per-pair arithmetic.

use proptest::prelude::*;
use qdt::circuit::{generators, Circuit, Gate, OpKind};
use qdt::complex::Complex;
use qdt::create_engine;
use qdt::engine::run;

/// Per-component tolerance when the SIMD path may be active. The
/// shipped kernels keep the same floating-point operation order per
/// amplitude lane on both paths, so in practice the agreement is exact;
/// the contract is stated at 1e-12 so a future kernel with a different
/// (but still correct) reduction order does not break the suite.
const SIMD_TOL: f64 = 1e-12;

/// Fused specs checked against the unfused `array` reference.
const FUSED_SPECS: [&str; 6] = [
    "array(fuse=2)",
    "array(fuse=5)",
    "array(fuse=2,threads=2,threshold=1)",
    "array(fuse=5,threads=2,threshold=1)",
    "array(fuse=2,threads=4,threshold=1)",
    "array(fuse=5,threads=4,threshold=1)",
];

/// True when the environment forces the scalar kernels — under
/// `QDT_SIMD=scalar` the fused/unfused agreement must be bit-exact.
fn scalar_forced() -> bool {
    matches!(
        std::env::var("QDT_SIMD").as_deref(),
        Ok("scalar") | Ok("off") | Ok("0")
    )
}

/// Asserts fused amplitudes against the unfused reference at the
/// tolerance the active kernel path contracts for.
fn assert_amplitudes_agree(
    spec: &str,
    got: &[Complex],
    want: &[Complex],
) -> Result<(), TestCaseError> {
    prop_assert!(got.len() == want.len(), "{}: dimension", spec);
    if scalar_forced() {
        // Forced scalar path: bit-identity, not numerical closeness.
        prop_assert!(got == want, "{} drifted bit-wise from unfused", spec);
    } else {
        for (k, (g, w)) in got.iter().zip(want).enumerate() {
            prop_assert!(
                (g.re - w.re).abs() <= SIMD_TOL && (g.im - w.im).abs() <= SIMD_TOL,
                "{}: amplitude {} is {}, want {}",
                spec,
                k,
                g,
                w
            );
        }
    }
    Ok(())
}

fn amplitudes_on(spec: &str, qc: &Circuit) -> Vec<Complex> {
    let mut e = create_engine(spec).expect("spec builds");
    run(e.as_mut(), qc).expect("unitary run");
    e.amplitudes().expect("dense amplitudes")
}

// ---------------------------------------------------------------------
// Circuit strategies
// ---------------------------------------------------------------------

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

/// A single-qubit gate with every matrix entry generically nonzero.
fn dense_gate() -> impl Strategy<Value = Gate> {
    let angle = 0.1f64..6.2;
    prop_oneof![
        angle.clone().prop_map(Gate::Rx),
        angle.clone().prop_map(Gate::Ry),
        angle.clone().prop_map(Gate::Rz),
        angle.clone().prop_map(Gate::Phase),
        (angle.clone(), angle.clone(), angle).prop_map(|(t, p, l)| Gate::U(t, p, l)),
    ]
}

#[derive(Debug, Clone)]
enum Op {
    G(Gate, usize),
    Cx(usize, usize),
    Cz(usize, usize),
    Swap(usize, usize),
}

fn op_strategy(gate: impl Strategy<Value = Gate> + 'static, n: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (gate, 0..n).prop_map(|(g, q)| Op::G(g, q)),
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

fn build(n: usize, ops: Vec<Op>) -> Circuit {
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
}

/// A random Clifford+T circuit of 2–6 qubits.
fn clifford_t_circuit() -> impl Strategy<Value = Circuit> {
    (2usize..=6).prop_flat_map(|n| {
        prop::collection::vec(op_strategy(clifford_t_gate(), n), 0..18)
            .prop_map(move |ops| build(n, ops))
    })
}

/// A dense random-unitary circuit of 2–5 qubits: arbitrary-angle
/// rotations so every fused group is a fully dense matrix product.
fn dense_random_circuit() -> impl Strategy<Value = Circuit> {
    (2usize..=5).prop_flat_map(|n| {
        prop::collection::vec(op_strategy(dense_gate(), n), 0..18)
            .prop_map(move |ops| build(n, ops))
    })
}

// ---------------------------------------------------------------------
// Static-circuit agreement
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline property on Clifford+T circuits: every fused spec
    /// reproduces the unfused amplitudes.
    #[test]
    fn fused_clifford_t_amplitudes_agree_with_unfused(qc in clifford_t_circuit()) {
        let want = amplitudes_on("array", &qc);
        for spec in FUSED_SPECS {
            let got = amplitudes_on(spec, &qc);
            assert_amplitudes_agree(spec, &got, &want)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The same property on dense random unitaries — no structured
    /// zeros for a wrong kernel to hide behind.
    #[test]
    fn fused_dense_random_amplitudes_agree_with_unfused(qc in dense_random_circuit()) {
        let want = amplitudes_on("array", &qc);
        for spec in FUSED_SPECS {
            let got = amplitudes_on(spec, &qc);
            assert_amplitudes_agree(spec, &got, &want)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Spec invariance: at any fixed fuse width, the amplitudes are
    /// *bit-identical* across thread counts (fusion must not disturb
    /// the chunked kernels' exact-partitioning claim), and every
    /// fuse width agrees with `fuse=0` at the contracted tolerance.
    #[test]
    fn fuse_width_and_thread_count_commute(qc in clifford_t_circuit()) {
        let unfused = amplitudes_on("array(fuse=0)", &qc);
        for fuse in [0usize, 2, 5] {
            let sequential = amplitudes_on(&format!("array(fuse={fuse},threads=1)"), &qc);
            for threads in [2usize, 4] {
                let spec = format!("array(fuse={fuse},threads={threads},threshold=1)");
                let got = amplitudes_on(&spec, &qc);
                // Exact ==: thread count must never change the bits.
                prop_assert!(got == sequential, "{} drifted from threads=1", spec);
            }
            assert_amplitudes_agree(&format!("array(fuse={fuse})"), &sequential, &unfused)?;
        }
    }
}

// ---------------------------------------------------------------------
// Dynamic circuits through the ShotExecutor
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum DynOp {
    G(Gate, usize),
    Cx(usize, usize),
    Measure(usize, usize),
    Reset(usize),
    CondX(usize, usize, bool),
}

fn dynamic_circuit(n: usize, c: usize, max_len: usize) -> impl Strategy<Value = Circuit> {
    let gate = prop_oneof![
        Just(Gate::X),
        Just(Gate::H),
        Just(Gate::S),
        Just(Gate::T),
        Just(Gate::Z),
    ];
    let op = prop_oneof![
        (gate, 0..n).prop_map(|(g, q)| DynOp::G(g, q)),
        (0..n, 0..n)
            .prop_filter("distinct", |(a, b)| a != b)
            .prop_map(|(a, b)| DynOp::Cx(a, b)),
        (0..n, 0..c).prop_map(|(q, k)| DynOp::Measure(q, k)),
        (0..n).prop_map(DynOp::Reset),
        (0..n, 0..c, 0..2usize).prop_map(|(q, k, v)| DynOp::CondX(q, k, v == 1)),
    ];
    prop::collection::vec(op, 1..max_len).prop_map(move |ops| {
        let mut qc = Circuit::with_clbits(n, c);
        for op in ops {
            match op {
                DynOp::G(g, q) => {
                    qc.gate(g, q, &[]);
                }
                DynOp::Cx(a, b) => {
                    qc.cx(a, b);
                }
                DynOp::Measure(q, k) => {
                    qc.measure(q, k);
                }
                DynOp::Reset(q) => {
                    qc.reset(q);
                }
                DynOp::CondX(q, k, v) => {
                    qc.x(q).c_if(k, v);
                }
            }
        }
        qc
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fusion must not leak across collapse boundaries: a fused engine
    /// replayed shot by shot through the `ShotExecutor` produces the
    /// *exact* histogram and shot statistics of the unfused one, for
    /// any worker count. (Collapse draws compare a probability against
    /// a uniform variate; a fused prefix with different bits could flip
    /// an outcome, so exact histogram identity is the sharpest possible
    /// end-to-end check of the boundary rules.)
    #[test]
    fn fused_dynamic_histograms_are_identical(
        qc in dynamic_circuit(3, 3, 16),
        seed in 0u64..1000,
    ) {
        let reference = qdt::sample_dynamic(&qc, 65, "array", seed, 1).unwrap();
        for spec in ["array(fuse=2)", "array(fuse=5)"] {
            for workers in [1usize, 2, 4] {
                let fused = qdt::sample_dynamic(&qc, 65, spec, seed, workers).unwrap();
                prop_assert!(
                    fused.counts == reference.counts,
                    "{} diverged at workers={}: {:?} vs {:?}",
                    spec, workers, fused.counts, reference.counts
                );
                prop_assert!(fused.stats == reference.stats, "{} stats diverged", spec);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Pinned fixtures and the forced-scalar bit-identity contract
// ---------------------------------------------------------------------

/// Protocol generators through fused specs: the teleportation and
/// adaptive-GHZ oracles hold exactly on the fused engine.
#[test]
fn fused_engine_runs_the_dynamic_protocol_generators() {
    let ghz = generators::adaptive_ghz(5);
    let result = qdt::sample_dynamic(&ghz, 256, "array(fuse=5)", 7, 2).unwrap();
    assert_eq!(result.counts.len(), 1);
    assert_eq!(result.counts.get(&0), Some(&256));

    let qc = generators::teleportation(std::f64::consts::FRAC_PI_3, std::f64::consts::PI / 5.0);
    let reference = qdt::sample_dynamic(&qc, 1024, "array", 42, 1).unwrap();
    for spec in ["array(fuse=5)", "array(fuse=5,threads=2)"] {
        let fused = qdt::sample_dynamic(&qc, 1024, spec, 42, 1).unwrap();
        assert_eq!(fused.counts, reference.counts, "{spec}");
    }
}

/// The scalar-path half of the contract, self-contained: with
/// `QDT_SIMD=scalar` set for the duration, fused and unfused runs are
/// bit-identical. (The env override and the SIMD path compute the same
/// bits by design — see DESIGN.md §16 — so toggling the variable while
/// sibling tests run concurrently cannot make either side drift.)
#[test]
fn forced_scalar_fusion_is_bit_identical() {
    let had = std::env::var("QDT_SIMD").ok();
    std::env::set_var("QDT_SIMD", "scalar");
    let mut failures = Vec::new();
    for (name, qc) in [
        ("qft-6", generators::qft(6, true)),
        ("ghz-10", generators::ghz(10)),
        ("clifford-t-8", generators::random_clifford_seeded(8, 12, 3)),
    ] {
        let want = amplitudes_on("array", &qc);
        for spec in ["array(fuse=5)", "array(fuse=5,threads=4,threshold=1)"] {
            if amplitudes_on(spec, &qc) != want {
                failures.push(format!("{name} on {spec}"));
            }
        }
    }
    match had {
        Some(v) => std::env::set_var("QDT_SIMD", v),
        None => std::env::remove_var("QDT_SIMD"),
    }
    assert!(
        failures.is_empty(),
        "scalar bit-identity broke: {failures:?}"
    );
}

// ---------------------------------------------------------------------
// Phase-heavy circuits: guards on the hot path
// ---------------------------------------------------------------------

/// Every fuse width × thread count, for the exact-equality checks below.
fn all_fused_specs() -> Vec<String> {
    let mut specs = Vec::new();
    for fuse in 1..=5 {
        specs.push(format!("array(fuse={fuse})"));
        for threads in [2, 4] {
            specs.push(format!("array(fuse={fuse},threads={threads},threshold=1)"));
        }
    }
    specs
}

/// Asserts every fused spec reproduces the unfused amplitudes with
/// exact `==`: the fused kernels run each amplitude through the same
/// arithmetic as the unfused ones, on the SIMD and the scalar path alike.
fn assert_fused_exact(qc: &Circuit) -> Result<(), TestCaseError> {
    let want = amplitudes_on("array", qc);
    for spec in all_fused_specs() {
        let got = amplitudes_on(&spec, qc);
        prop_assert!(got == want, "{} drifted from unfused", spec);
    }
    Ok(())
}

/// A random circuit of controlled phases, controlled Rz, CCZ and T gates
/// with sparse H and X on 2–14 qubits: most gates mix nothing, so a
/// fused group spans many qubits through controls and diagonal targets
/// — the guards — while only the few H/X widen it.
fn phase_heavy_circuit() -> impl Strategy<Value = Circuit> {
    (2usize..=14).prop_flat_map(|n| {
        let op = ((0usize..12, 0..n), (0..n, 0..n, 0.1f64..6.2));
        prop::collection::vec(op, 0..40).prop_map(move |ops| {
            let mut qc = Circuit::new(n);
            for ((kind, a), (b, c, angle)) in ops {
                let distinct2 = a != b;
                let distinct3 = distinct2 && c != a && c != b;
                match kind {
                    0 => {
                        qc.h(a);
                    }
                    1 => {
                        qc.x(a);
                    }
                    2 | 3 => {
                        qc.t(a);
                    }
                    4..=6 if distinct2 => {
                        qc.cp(angle, a, b);
                    }
                    7 | 8 if distinct2 => {
                        qc.crz(angle, a, b);
                    }
                    9 | 10 if distinct3 => {
                        qc.ccz(a, b, c);
                    }
                    _ => {
                        qc.gate(Gate::Phase(angle), a, &[]);
                    }
                }
            }
            qc
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Phase-heavy circuits fuse across controls and diagonal targets
    /// outside each group's mixed qubits; the results stay exactly equal
    /// to the unfused engine at every fuse width and thread count.
    #[test]
    fn phase_heavy_circuits_fuse_exactly(qc in phase_heavy_circuit()) {
        assert_fused_exact(&qc)?;
    }

    /// The textbook QFT on a random basis state: five Hadamards per group
    /// with every controlled phase in between.
    #[test]
    fn qft_on_random_basis_states_fuses_exactly(n in 2usize..=14, x in 0u64..1 << 14) {
        let mut qc = Circuit::new(n);
        for q in 0..n {
            if x >> q & 1 == 1 {
                qc.x(q);
            }
        }
        qc.append(&generators::qft(n, true));
        assert_fused_exact(&qc)?;
    }
}

// ---------------------------------------------------------------------
// One definition of fusion support
// ---------------------------------------------------------------------

/// The passes `plan_groups` executes: fused spans, plus unfused spans
/// that still run a gate (a conditioned gate, or one too wide to fuse).
fn executed_passes(qc: &Circuit, width: usize) -> usize {
    qdt::array::plan_groups(qc.instructions(), width)
        .iter()
        .filter(|s| {
            s.fused
                || matches!(
                    qc.instructions()[s.start].kind,
                    OpKind::Unitary { .. } | OpKind::Swap { .. }
                )
        })
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The cost model's pass count is the fuser's, at every width.
    #[test]
    fn fused_group_count_matches_plan_groups(
        ct in clifford_t_circuit(),
        dense in dense_random_circuit(),
        seed in 0u64..1000,
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let generated = [
            generators::random_clifford_t(9, 8, 0.3, &mut rng),
            generators::random_circuit(7, 6, &mut rng),
        ];
        for qc in [&ct, &dense].into_iter().chain(&generated) {
            for width in 0..=5 {
                prop_assert_eq!(
                    qdt::analysis::cost::fused_group_count(qc, width),
                    executed_passes(qc, width)
                );
            }
        }
    }
}
