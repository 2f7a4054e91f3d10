//! Cross-thread-count differential harness: the parallel kernels must
//! be *bit-identical* to the sequential ones, not merely close.
//!
//! The chunked kernels partition the amplitude index space so that each
//! worker owns disjoint amplitude pairs and performs exactly the same
//! per-pair arithmetic as the sequential loop — so every float, down to
//! the last ulp, must agree for any thread count. These tests hold the
//! kernels to that claim with exact `==` comparisons (never `approx_eq`)
//! over strategy-generated Clifford+T circuits:
//!
//! * state-vector amplitudes agree exactly between `threads=1` and
//!   `threads=N` (`threshold=1` forces the chunked path even on small
//!   registers);
//! * density-matrix entries agree exactly, including through Kraus
//!   channel application;
//! * the deterministic gate metric stream is invariant across thread
//!   counts (only wall-clock `_ns`/`_us` metrics may differ).

use proptest::prelude::*;
use qdt::circuit::{generators, Circuit, Gate};
use qdt::engine::run;
use qdt::noise::{DensityMatrixEngine, KrausChannel, NoiseModel};
use qdt::parallel::KernelContext;
use qdt::telemetry::deterministic_stream;
use qdt::{create_engine, run_traced, TelemetrySink};

/// Parallel specs checked against the `threads=1` reference.
const PARALLEL_SPECS: [&str; 3] = [
    "array(threads=2,threshold=1)",
    "array(threads=3,threshold=1)",
    "array(threads=4,threshold=1)",
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

/// A random Clifford+T circuit of 2–4 qubits (density matrices square
/// the register, so stay narrow).
fn narrow_circuit() -> impl Strategy<Value = Circuit> {
    (2usize..=4).prop_flat_map(|n| circuit_strategy(n, 10))
}

/// The density matrix after `qc` under uniform depolarizing noise,
/// evolved with the given kernel context, as a flat entry vector.
fn density_entries(qc: &Circuit, ctx: KernelContext) -> Vec<qdt::complex::Complex> {
    let model = NoiseModel::uniform(KrausChannel::Depolarizing { p: 0.05 });
    let mut e = DensityMatrixEngine::with_noise_and_context(&model, ctx).expect("valid model");
    run(&mut e, qc).expect("density run");
    e.density().as_matrix().as_slice().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline property: threads=1 and threads=N produce the same
    /// amplitude bits on random circuits.
    #[test]
    fn amplitudes_are_bit_identical_across_thread_counts(qc in any_circuit()) {
        let mut reference = create_engine("array(threads=1)").unwrap();
        run(reference.as_mut(), &qc).unwrap();
        let want = reference.amplitudes().unwrap();
        for spec in PARALLEL_SPECS {
            let mut e = create_engine(spec).unwrap();
            run(e.as_mut(), &qc).unwrap();
            let got = e.amplitudes().unwrap();
            // Exact ==: bit-identity, not numerical closeness.
            prop_assert!(got == want, "{} drifted from threads=1", spec);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Density-matrix evolution (superoperator passes *and* Kraus
    /// channel sums) is bit-identical across thread counts.
    #[test]
    fn density_entries_are_bit_identical_across_thread_counts(qc in narrow_circuit()) {
        let want = density_entries(&qc, KernelContext::with_threads(1));
        for threads in [2usize, 4] {
            let ctx = KernelContext::with_threads(threads).with_threshold(1);
            let got = density_entries(&qc, ctx);
            prop_assert!(got == want, "threads={} drifted", threads);
        }
    }
}

use qdt::telemetry::DeterministicRecord;

fn traced_stream(spec: &str, qc: &Circuit) -> Vec<DeterministicRecord> {
    let sink = TelemetrySink::new();
    let mut engine = qdt::create_engine(spec).expect("spec builds");
    let (_stats, log) = run_traced(engine.as_mut(), qc, &sink).expect("traced run");
    deterministic_stream(&log)
}

#[test]
fn gate_metric_stream_is_invariant_across_thread_counts() {
    let qc = generators::qft(6, true);
    for (seq_spec, par_spec) in [
        ("array(threads=1)", "array(threads=4,threshold=1)"),
        (
            "density(threads=1,depol=0.01)",
            "density(threads=4,threshold=1,depol=0.01)",
        ),
    ] {
        let seq = traced_stream(seq_spec, &qc);
        let par = traced_stream(par_spec, &qc);
        assert!(!seq.is_empty(), "{seq_spec}: empty gate log");
        assert_eq!(
            seq, par,
            "thread count leaked into the gate metric stream ({seq_spec} vs {par_spec})"
        );
    }
}

#[test]
fn sampling_is_bit_identical_across_thread_counts() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let qc = generators::qft(5, true);
    let sample_with = |spec: &str| {
        let mut e = create_engine(spec).unwrap();
        run(e.as_mut(), &qc).unwrap();
        let mut rng = StdRng::seed_from_u64(0xD1FF);
        e.sample(2000, &mut rng).unwrap()
    };
    // Identical amplitudes + identical RNG stream ⇒ identical counts.
    assert_eq!(
        sample_with("array(threads=1)"),
        sample_with("array(threads=4,threshold=1)"),
        "sampling drifted across thread counts"
    );
}
