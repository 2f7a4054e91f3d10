//! `qdt` — **q**uantum **d**esign **t**ools.
//!
//! A from-scratch Rust reproduction of *"The Basis of Design Tools for
//! Quantum Computing: Arrays, Decision Diagrams, Tensor Networks, and
//! ZX-Calculus"* (Wille, Burgholzer, Hillmich, Grurl, Ploier, Peham —
//! DAC 2022). The paper surveys the four complementary data structures
//! underlying quantum design automation; this crate ties the four
//! implementations together under one API:
//!
//! * [`circuit`] — the circuit IR, OpenQASM 2.0, and benchmark
//!   generators;
//! * [`array`](mod@array) — dense state vectors and density matrices (Sec. II);
//! * [`dd`] — QMDD-style decision diagrams (Sec. III);
//! * [`stabilizer`](mod@stabilizer) — bit-packed Clifford tableaux
//!   (Aaronson–Gottesman), polynomial on the Clifford fragment;
//! * [`tensor`] — tensor networks, contraction planning and MPS
//!   (Sec. IV);
//! * [`zx`] — the ZX-calculus with graph-like simplification (Sec. V);
//! * [`compile`] — gate-set rebasing, optimisation, routing (design
//!   task 2);
//! * [`verify`] — cross-method equivalence checking (design task 3);
//! * [`analysis`] — circuit lints, resource reports and the cost model
//!   behind the `auto` engine spec. With feature `audit`, the DD, ZX and
//!   MPS structures each gain an `audit()` invariant check.
//!
//! Classical simulation (design task 1) is exposed uniformly over the
//! four data structures through the [`engine`] module: each backend
//! implements the [`SimulationEngine`] trait in its own crate,
//! [`create_engine`] constructs engines from textual specs
//! (`"array"`, `"dd"`, `"mps:16"`…), and [`engine::run`] drives any of
//! them over a circuit while tracking the backend's own cost metric.
//! The [`amplitudes`]/[`amplitude`]/[`sample`]/[`expectation`] entry
//! points take the same spec strings, so the trade-offs — the central
//! theme of the paper — can be compared on identical inputs with one
//! line per backend.
//!
//! # Example
//!
//! ```
//! use qdt::amplitudes;
//! use qdt::circuit::generators;
//!
//! let bell = generators::bell();
//! for spec in ["array", "dd", "tn", "mps:2"] {
//!     let amps = amplitudes(&bell, spec)?;
//!     assert!((amps[0].abs() - 1.0 / 2f64.sqrt()).abs() < 1e-9);
//!     assert!((amps[3].abs() - 1.0 / 2f64.sqrt()).abs() < 1e-9);
//! }
//! # Ok::<(), qdt::QdtError>(())
//! ```
//!
//! The same simulation through the engine layer, with instrumentation:
//!
//! ```
//! use qdt::engine::run;
//! use qdt::circuit::generators;
//!
//! let mut engine = qdt::create_engine("decision-diagram")?;
//! let stats = run(engine.as_mut(), &generators::ghz(48))?;
//! assert_eq!(stats.gates_applied, 48);
//! assert_eq!(stats.metric_name, "dd-nodes");
//! assert!(stats.peak_metric <= 100); // linear in width, not 2^48
//! # Ok::<(), qdt::QdtError>(())
//! ```

pub use qdt_analysis as analysis;
pub use qdt_array as array;
pub use qdt_circuit as circuit;
pub use qdt_compile as compile;
pub use qdt_complex as complex;
pub use qdt_dd as dd;
pub use qdt_noise as noise;
pub use qdt_parallel as parallel;
pub use qdt_stabilizer as stabilizer;
pub use qdt_telemetry as telemetry;
pub use qdt_tensor as tensor;
pub use qdt_verify as verify;
pub use qdt_zx as zx;

pub mod auto;
pub mod engine;

pub use auto::AutoEngine;
pub use engine::{
    create_engine, create_from_spec, parse_spec, shot_factory, EngineSpec, SpecArg,
    DEFAULT_MPS_BOND,
};
pub use qdt_engine::{run_traced, EngineError, RunStats, SimulationEngine, TelemetrySink};

use std::collections::BTreeMap;
use std::fmt;

use qdt_circuit::Circuit;
use qdt_complex::Complex;

/// The README's code blocks, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
struct ReadmeDoctests;

/// Unified error type of the façade.
#[derive(Debug, Clone, PartialEq)]
pub struct QdtError {
    message: String,
}

impl QdtError {
    pub(crate) fn new(msg: impl fmt::Display) -> Self {
        QdtError {
            message: msg.to_string(),
        }
    }
}

impl fmt::Display for QdtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for QdtError {}

impl From<EngineError> for QdtError {
    fn from(e: EngineError) -> Self {
        QdtError::new(e)
    }
}

/// Simulates a unitary circuit from `|0…0⟩` on the engine named by
/// `spec` (any spec [`create_engine`] accepts) and returns the full
/// `2^n` amplitude vector.
///
/// All backends agree on the result; they differ (exponentially) in how
/// they get there — see the benchmark suite.
///
/// # Errors
///
/// Fails on malformed specs, for non-unitary circuits, or when the
/// width exceeds the backend's dense-output limit.
pub fn amplitudes(circuit: &Circuit, spec: &str) -> Result<Vec<Complex>, QdtError> {
    let mut engine = create_engine(spec)?;
    qdt_engine::run(engine.as_mut(), circuit)?;
    Ok(engine.amplitudes()?)
}

/// Computes the single amplitude `⟨basis|C|0…0⟩`.
///
/// Unlike [`amplitudes`], this scales to widths where the dense output
/// could never be produced (DD, TN, and MPS backends).
///
/// # Errors
///
/// Fails on malformed specs, for non-unitary circuits or unsupported
/// gate shapes (MPS needs ≤2-qubit gates).
pub fn amplitude(circuit: &Circuit, basis: u128, spec: &str) -> Result<Complex, QdtError> {
    let mut engine = create_engine(spec)?;
    qdt_engine::run(engine.as_mut(), circuit)?;
    Ok(engine.amplitude(basis)?)
}

/// Samples `shots` measurement outcomes of a circuit, keyed by basis
/// index (static circuits) or by the final classical register (dynamic
/// circuits), through the single-worker
/// [`ShotExecutor`](qdt_engine::ShotExecutor).
///
/// Static circuits run once and sample the final state without
/// collapse, on all four backends: array and decision-diagram natively
/// (the DD backend scales to wide, structured states), tensor network
/// and MPS through the shared amplitude-based sampler of the engine
/// layer (dense widths only). Their classical register is never read,
/// so it may be of any width.
///
/// Circuits with mid-circuit measurement, reset, or classical control
/// ([`Circuit::is_dynamic`]) run shot by shot on backends advertising
/// [`EngineCaps::dynamic`](qdt_engine::EngineCaps) — array,
/// decision-diagram, MPS, and the Clifford-only stabilizer tableau.
/// See [`sample_dynamic`] for worker-striped
/// shots and execution counters.
///
/// # Errors
///
/// Fails on malformed specs, when a dense-sampling backend exceeds its
/// width limit, for dynamic circuits on a backend without collapse
/// support (tensor network), or for dynamic circuits with more than
/// 128 classical bits (the histogram key).
pub fn sample(
    circuit: &Circuit,
    shots: usize,
    spec: &str,
    seed: u64,
) -> Result<BTreeMap<u128, usize>, QdtError> {
    let mut engine = create_engine(spec)?;
    let result = qdt_engine::ShotExecutor::new(qdt_engine::ShotConfig::new(shots, seed))
        .run_on(engine.as_mut(), circuit)?;
    Ok(result.counts)
}

/// Runs a dynamic circuit through the per-shot executor on `workers`
/// threads and returns the full
/// [`ShotResult`](qdt_engine::ShotResult) — the histogram plus
/// collapse/feed-forward counters.
///
/// `spec` is any engine spec whose engine advertises
/// [`EngineCaps::dynamic`](qdt_engine::EngineCaps) (`"array"`, `"dd"`,
/// `"mps:16"`…). Histograms are bit-identical for every worker count;
/// static circuits are accepted and keyed by one final-state sample per
/// shot.
///
/// # Errors
///
/// Fails on malformed specs, on engines without collapse support, and on
/// more than [`MAX_THREADS`](qdt_parallel::MAX_THREADS) workers.
///
/// # Example
///
/// ```
/// use qdt::circuit::generators;
///
/// let qc = generators::teleportation(1.0, 0.5);
/// let result = qdt::sample_dynamic(&qc, 128, "dd", 7, 4)?;
/// assert_eq!(result.stats.shots, 128);
/// assert!(result.stats.collapses >= 2 * 128);
/// # Ok::<(), qdt::QdtError>(())
/// ```
pub fn sample_dynamic(
    circuit: &Circuit,
    shots: usize,
    spec: &str,
    seed: u64,
    workers: usize,
) -> Result<qdt_engine::ShotResult, QdtError> {
    if workers > qdt_parallel::MAX_THREADS {
        return Err(QdtError::new(format!(
            "sample_dynamic: workers must be at most {}, got {workers}",
            qdt_parallel::MAX_THREADS
        )));
    }
    let factory = shot_factory(spec)?;
    let config = qdt_engine::ShotConfig::new(shots, seed).with_workers(workers);
    Ok(qdt_engine::ShotExecutor::new(config).sample(&factory, circuit)?)
}

/// The expectation value `⟨ψ|P|ψ⟩` of a Pauli string on the final state
/// of a unitary circuit.
///
/// Supported on all four backends; the DD, TN, and MPS paths scale far
/// past dense widths for structured states.
///
/// # Errors
///
/// Fails on malformed specs, for non-unitary circuits or width
/// mismatches.
pub fn expectation(
    circuit: &Circuit,
    pauli: &qdt_circuit::PauliString,
    spec: &str,
) -> Result<f64, QdtError> {
    let mut engine = create_engine(spec)?;
    qdt_engine::run(engine.as_mut(), circuit)?;
    Ok(engine.expectation(pauli)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdt_circuit::generators;

    const DENSE_BACKENDS: [&str; 4] = ["array", "decision-diagram", "tensor-network", "mps:64"];

    #[test]
    fn backends_agree_on_w_state() {
        let qc = generators::w_state(4);
        let reference = amplitudes(&qc, "array").unwrap();
        for b in DENSE_BACKENDS {
            let got = amplitudes(&qc, b).unwrap();
            for (i, (x, y)) in got.iter().zip(&reference).enumerate() {
                assert!(x.approx_eq(*y, 1e-8), "{b}: amplitude {i} differs");
            }
        }
    }

    #[test]
    fn single_amplitude_agrees_across_backends() {
        let qc = generators::qft(4, true);
        let reference = amplitude(&qc, 0b1010, "array").unwrap();
        for b in DENSE_BACKENDS {
            let got = amplitude(&qc, 0b1010, b).unwrap();
            assert!(got.approx_eq(reference, 1e-8), "{b}");
        }
    }

    #[test]
    fn wide_ghz_amplitude_without_arrays() {
        // 60 qubits: impossible densely, trivial on DD / TN / MPS.
        let qc = generators::ghz(60);
        let all_ones = (1u128 << 60) - 1;
        for b in ["decision-diagram", "tensor-network", "mps:2"] {
            let amp = amplitude(&qc, all_ones, b).unwrap();
            assert!((amp.abs() - 1.0 / 2f64.sqrt()).abs() < 1e-8, "{b}: {amp}");
        }
        assert!(amplitude(&qc, all_ones, "array").is_err());
    }

    #[test]
    fn sampling_respects_ghz_structure() {
        let qc = generators::ghz(10);
        let counts = sample(&qc, 400, "decision-diagram", 7).unwrap();
        let all_ones = (1u128 << 10) - 1;
        assert!(counts.keys().all(|&k| k == 0 || k == all_ones));
        let total: usize = counts.values().sum();
        assert_eq!(total, 400);
    }

    #[test]
    fn sampling_works_on_all_backends() {
        // TN and MPS sample through the engine layer's shared
        // amplitude-based sampler; all four backends now support it.
        let qc = generators::ghz(6);
        let all_ones = (1u128 << 6) - 1;
        for b in DENSE_BACKENDS {
            let counts = sample(&qc, 100, b, 11).unwrap();
            assert!(
                counts.keys().all(|&k| k == 0 || k == all_ones),
                "{b}: spurious outcome"
            );
            assert_eq!(counts.values().sum::<usize>(), 100, "{b}");
        }
    }

    #[test]
    fn backend_display() {
        // Canonical spec text displays unchanged and drives the facades.
        let qc = generators::bell();
        let reference = amplitudes(&qc, "array").unwrap();
        for text in ["mps(χ=8)", "array"] {
            assert_eq!(parse_spec(text).unwrap().to_string(), text);
            let got = amplitudes(&qc, text).unwrap();
            for (x, y) in got.iter().zip(&reference) {
                assert!(x.approx_eq(*y, 1e-12), "{text}");
            }
        }
    }

    #[test]
    fn measurement_rejected_by_amplitude_entry_points_only() {
        // Amplitude queries still demand a unitary circuit; sampling
        // now routes dynamic circuits through the shot executor.
        let mut qc = qdt_circuit::Circuit::with_clbits(2, 2);
        qc.h(0);
        qc.measure(0, 0);
        assert!(amplitudes(&qc, "array").is_err());
        let counts = sample(&qc, 10, "decision-diagram", 0).unwrap();
        assert_eq!(counts.values().sum::<usize>(), 10);
        assert!(counts.keys().all(|&k| k <= 1));
    }

    #[test]
    fn static_circuit_with_a_wide_register_samples_its_state() {
        // The classical register of a static circuit is never read, so
        // it may exceed the 128-bit histogram key; a dynamic circuit
        // that writes such a register is still rejected.
        let mut qc = qdt_circuit::Circuit::with_clbits(3, 130);
        qc.h(0).cx(0, 1).cx(1, 2);
        let counts = sample(&qc, 200, "array", 5).unwrap();
        assert!(counts.keys().all(|&k| k == 0 || k == 0b111), "{counts:?}");
        let ghz = sample(&generators::ghz(3), 200, "array", 5).unwrap();
        assert_eq!(counts, ghz);
        qc.measure(0, 129);
        let err = sample(&qc, 10, "array", 5).unwrap_err();
        assert!(err.to_string().contains("128-bit histogram key"), "{err}");
    }

    #[test]
    fn dynamic_sampling_rejected_without_collapse_support() {
        let mut qc = qdt_circuit::Circuit::with_clbits(1, 1);
        qc.h(0);
        qc.measure(0, 0);
        let err = sample(&qc, 10, "tensor-network", 0).unwrap_err();
        assert!(err.to_string().contains("EngineCaps::dynamic"), "{err}");
    }

    #[test]
    fn dynamic_backends_agree_on_teleportation() {
        // Feed-forward teleportation reproduces |ψ⟩ on qubit 2, so the
        // message bits are uniform and qubit 2's marginal matches the
        // prepared state on every dynamic-capable backend.
        let qc = generators::teleportation(std::f64::consts::FRAC_PI_2, 0.0);
        for spec in ["array", "dd", "mps:4"] {
            let result = sample_dynamic(&qc, 400, spec, 13, 2).unwrap();
            assert_eq!(result.stats.shots, 400, "{spec}");
            assert_eq!(result.counts.values().sum::<usize>(), 400, "{spec}");
            // 2 measured clbits: all four patterns occur for a generic ψ.
            assert_eq!(result.counts.len(), 4, "{spec}");
        }
    }
}

#[cfg(test)]
mod expectation_tests {
    use super::*;
    use qdt_circuit::{generators, PauliString};

    #[test]
    fn expectations_agree_across_backends() {
        let qc = generators::w_state(4);
        let p: PauliString = "ZZII".parse().unwrap();
        let reference = expectation(&qc, &p, "array").unwrap();
        for b in ["decision-diagram", "tensor-network", "mps:16"] {
            let got = expectation(&qc, &p, b).unwrap();
            assert!((got - reference).abs() < 1e-8, "{b}");
        }
    }

    #[test]
    fn wide_structured_expectation() {
        let qc = generators::ghz(40);
        let p: PauliString = "X".repeat(40).parse().unwrap();
        for b in ["decision-diagram", "mps:2"] {
            let got = expectation(&qc, &p, b).unwrap();
            assert!((got - 1.0).abs() < 1e-8, "{b}");
        }
    }

    #[test]
    fn width_mismatch_rejected() {
        let qc = generators::bell();
        let p: PauliString = "ZZZ".parse().unwrap();
        assert!(expectation(&qc, &p, "array").is_err());
    }
}

/// Textbook readouts through the per-shot executor on the array engine.
#[cfg(test)]
mod simulator {
    use qdt_circuit::Circuit;

    type Counts = std::collections::BTreeMap<u128, usize>;

    /// The histogram of `shots` single-worker runs of `qc` on `spec`.
    pub(crate) fn readout(qc: &Circuit, shots: usize, spec: &str, seed: u64) -> Counts {
        crate::sample_dynamic(qc, shots, spec, seed, 1)
            .unwrap()
            .counts
    }

    /// `qc` widened to `num_clbits` classical bits with qubit `q`
    /// measured into bit `q` for every `q < num_clbits`.
    fn measured(qc: &Circuit, num_clbits: usize) -> Circuit {
        let mut out = Circuit::with_clbits(qc.num_qubits(), num_clbits);
        out.append(qc);
        for q in 0..num_clbits {
            out.measure(q, q);
        }
        out
    }

    mod tests {
        use super::*;
        use qdt_circuit::generators;

        #[test]
        fn bernstein_vazirani_recovers_secret() {
            for secret in [0b0u64, 0b1, 0b1010, 0b1111] {
                let qc = generators::bernstein_vazirani(4, secret);
                let counts = readout(&qc, 20, "array", 11);
                assert_eq!(counts.get(&secret.into()), Some(&20), "secret {secret:b}");
            }
        }

        #[test]
        fn deutsch_jozsa_distinguishes() {
            let constant = readout(&generators::deutsch_jozsa(3, false), 20, "array", 12);
            assert_eq!(constant.get(&0), Some(&20), "constant oracle: 0…0");
            let balanced = readout(&generators::deutsch_jozsa(3, true), 20, "array", 12);
            assert!(!balanced.contains_key(&0), "balanced oracle: never 0…0");
        }

        #[test]
        fn bell_measurements_are_correlated() {
            let mut qc = Circuit::with_clbits(2, 2);
            qc.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
            let counts = readout(&qc, 500, "array", 13);
            assert!(counts.keys().all(|&k| k == 0b00 || k == 0b11));
            let zeros = counts.get(&0).copied().unwrap_or(0);
            assert!(zeros > 150 && zeros < 350, "00 count {zeros} out of range");
        }

        #[test]
        fn grover_finds_marked_item() {
            let n = 4;
            let marked = 0b1011u64;
            let qc = generators::grover(n, marked, generators::grover_optimal_iterations(n));
            let counts = readout(&measured(&qc, n), 200, "array", 14);
            let hits = counts.get(&marked.into()).copied().unwrap_or(0);
            assert!(
                hits > 150,
                "Grover success rate too low: {hits}/200 for marked {marked:b}"
            );
        }

        #[test]
        fn qpe_estimates_phase() {
            // θ = 5/8 is exactly representable with 3 counting bits.
            let qc = measured(&generators::phase_estimation(3, 5.0 / 8.0), 3);
            let counts = readout(&qc, 100, "array", 15);
            let (&best, _) = counts.iter().max_by_key(|(_, &c)| c).unwrap();
            assert_eq!(best, 5, "QPE should read out 5/8 exactly");
        }

        #[test]
        fn reset_mid_circuit() {
            let mut qc = Circuit::with_clbits(1, 1);
            qc.h(0).reset(0).measure(0, 0);
            assert_eq!(readout(&qc, 100, "array", 16).get(&0), Some(&100));
        }

        #[test]
        fn empty_circuit_runs() {
            let counts = readout(&Circuit::new(0), 1, "array", 17);
            assert_eq!(counts.get(&0), Some(&1));
        }
    }
}

/// Readouts through the per-shot executor on the decision-diagram
/// engine.
#[cfg(test)]
mod simulate {
    mod tests {
        use crate::simulator::readout;
        use qdt_circuit::{generators, Circuit};

        #[test]
        fn bell_measurements_correlated() {
            let mut qc = Circuit::with_clbits(2, 2);
            qc.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
            let counts = readout(&qc, 100, "dd", 31);
            assert!(counts.keys().all(|&k| k == 0b00 || k == 0b11));
            let zeros = counts.get(&0).copied().unwrap_or(0);
            assert!(zeros > 20 && zeros < 80, "zeros={zeros}");
        }

        #[test]
        fn bv_on_dd_recovers_secret() {
            let qc = generators::bernstein_vazirani(5, 0b10110);
            assert_eq!(readout(&qc, 20, "dd", 32).get(&0b10110), Some(&20));
        }

        #[test]
        fn sampling_ghz_yields_only_extremes() {
            let counts = crate::sample(&generators::ghz(30), 1000, "dd", 33).unwrap();
            let all_ones = (1u128 << 30) - 1;
            for &k in counts.keys() {
                assert!(k == 0 || k == all_ones, "impossible GHZ outcome {k}");
            }
            let zeros = counts.get(&0).copied().unwrap_or(0) as f64;
            assert!((zeros / 1000.0 - 0.5).abs() < 0.08);
        }

        #[test]
        fn reset_in_dd_simulator() {
            let mut qc = Circuit::with_clbits(1, 1);
            qc.h(0).reset(0).measure(0, 0);
            assert_eq!(readout(&qc, 20, "dd", 34).get(&0), Some(&20));
        }
    }
}
