//! Verification (equivalence checking) of quantum circuits — the third
//! design task of the reproduced paper's introduction.
//!
//! Compilation changes circuit structure drastically, so the compiled
//! circuit must be *proven* to still implement the intended function.
//! This crate provides one façade over the complementary methods the
//! paper surveys, each with a different trade-off:
//!
//! | Method | Data structure | Scale | Verdict |
//! |---|---|---|---|
//! | [`Method::Array`] | Choi state of `G₂⁻¹·G₁` on the array engine (Sec. II) | ≤ [`MITER_MAX_QUBITS`] (10) | exact |
//! | [`Method::DecisionDiagram`] | QMDD miter `G₂†·G₁` (Sec. III) | structured circuits, large | exact |
//! | [`Method::Zx`] | graph-like rewriting (Sec. V) | Clifford-dominated, large | exact or inconclusive |
//! | [`Method::RandomStimuli`] | engine simulation of both circuits | any | probabilistic |
//!
//! Random stimuli are driven through the [`SimulationEngine`] trait
//! (decision diagrams by default); [`random_stimuli_with_engine`]
//! accepts any engine factory, so the same probabilistic check runs on
//! every registered backend.
//!
//! [`verify_compilation`] checks a routed circuit against its source. It
//! treats SWAPs the way QCEC does: both sides drop every plain `swap`
//! and every `cx(a,b) cx(b,a) cx(a,b)` triple consecutive on its wires,
//! and relabel the later gates. Only the residual output permutation is
//! appended, as at most `n − 1` SWAPs, so a routed circuit costs the
//! miter about what the unrouted one does.
//!
//! # Example
//!
//! ```
//! use qdt_circuit::generators;
//! use qdt_verify::{check, Method};
//!
//! let a = generators::qft(4, true);
//! let b = a.clone();
//! let verdict = check(&a, &b, Method::DecisionDiagram)?;
//! assert!(verdict.is_equivalent());
//! # Ok::<(), qdt_verify::VerifyError>(())
//! ```

pub mod dynamic;
pub mod noise;
mod swaps;

use std::fmt;

use qdt_array::{miter_phase, ArrayError, MiterPhase, MITER_MAX_QUBITS};
use qdt_circuit::{Circuit, Instruction};
use qdt_compile::coupling::CouplingMap;
use qdt_compile::decompose::lowered_len;
use qdt_compile::routing::{push_permutation, RoutedCircuit};
use qdt_compile::target::GateSet;
use qdt_complex::{Complex, Matrix};
use qdt_dd::{DdEngine, DdPackage, EquivalenceResult};
use qdt_engine::{EngineError, SimulationEngine, TelemetrySink};
use qdt_zx::ZxEquivalence;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The equivalence-checking backend to use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Method {
    /// Run the miter `G₂⁻¹·G₁` on its 2n-qubit Choi state and compare
    /// every entry with `λ·I` ([`qdt_array::miter_phase`]; at most
    /// [`MITER_MAX_QUBITS`] qubits).
    Array,
    /// Decision-diagram miter with gate-cost alternation: each gate is
    /// weighed by the number of instructions it lowers to on the IBM
    /// basis, so a source gate meets the compiled gates it became.
    DecisionDiagram,
    /// ZX-calculus rewriting of `G₁ ; G₂†`.
    Zx,
    /// Compare amplitudes of both circuits on random product-state
    /// inputs; sound for rejection, probabilistic for acceptance.
    RandomStimuli {
        /// Number of random input states.
        samples: usize,
    },
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Method::Array => write!(f, "array"),
            Method::DecisionDiagram => write!(f, "decision-diagram"),
            Method::Zx => write!(f, "zx-calculus"),
            Method::RandomStimuli { samples } => write!(f, "random-stimuli({samples})"),
        }
    }
}

/// The verdict of an equivalence check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Equivalence {
    /// Proven equal.
    Equivalent,
    /// Proven equal up to the given global phase.
    EquivalentUpToGlobalPhase(Complex),
    /// All random stimuli agreed (not a proof).
    ProbablyEquivalent,
    /// Proven different.
    NotEquivalent,
    /// The method could not decide.
    Inconclusive,
}

impl Equivalence {
    /// `true` for every verdict that asserts equality (including the
    /// probabilistic one).
    pub fn is_equivalent(&self) -> bool {
        matches!(
            self,
            Equivalence::Equivalent
                | Equivalence::EquivalentUpToGlobalPhase(_)
                | Equivalence::ProbablyEquivalent
        )
    }
}

/// Error type for verification.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// The circuits have different widths.
    WidthMismatch {
        /// Width of the left circuit.
        left: usize,
        /// Width of the right circuit.
        right: usize,
    },
    /// A circuit contains measurement/reset (strip with
    /// [`Circuit::unitary_part`] first).
    NonUnitary,
    /// The array method was asked for too many qubits.
    TooLargeForMethod {
        /// The verification method that hit the limit.
        method: String,
        /// The requested qubit count.
        num_qubits: usize,
    },
    /// The simulation engine driving a stimuli check failed.
    Simulation {
        /// The engine's error message.
        message: String,
    },
    /// A routing result cannot be interpreted: its layouts are not
    /// permutations of the device's qubits, its initial layout is shorter
    /// than the source, or its circuit is not as wide as the device.
    BadLayout {
        /// What is wrong with the routing result.
        reason: String,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::WidthMismatch { left, right } => {
                write!(f, "circuit widths differ: {left} vs {right}")
            }
            VerifyError::NonUnitary => {
                write!(f, "circuits must be unitary for equivalence checking")
            }
            VerifyError::TooLargeForMethod { method, num_qubits } => {
                write!(f, "{num_qubits} qubits exceed the {method} method's limit")
            }
            VerifyError::Simulation { message } => {
                write!(f, "stimuli simulation failed: {message}")
            }
            VerifyError::BadLayout { reason } => write!(f, "malformed routing result: {reason}"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Checks two circuits for equivalence with the chosen method.
///
/// # Errors
///
/// See [`VerifyError`].
pub fn check(g1: &Circuit, g2: &Circuit, method: Method) -> Result<Equivalence, VerifyError> {
    check_traced(g1, g2, method, &TelemetrySink::disabled())
}

/// [`check`] with telemetry: the whole check runs inside a
/// `verify`-category span named after the method, and each method's
/// distinct phases (building unitaries, folding the miter, rewriting,
/// per-stimulus simulation) get nested sub-spans — so an exported trace
/// shows where verification time goes. The DD method also sets the
/// `verify.dd.nodes` gauge to the matrix nodes its miter created.
///
/// # Errors
///
/// See [`VerifyError`].
pub fn check_traced(
    g1: &Circuit,
    g2: &Circuit,
    method: Method,
    sink: &TelemetrySink,
) -> Result<Equivalence, VerifyError> {
    let tracer = sink.tracer();
    let _check_span = tracer.span_in("verify", &method.to_string());
    comparable(g1, g2)?;
    match method {
        Method::Array => {
            let _compare = tracer.span_in("verify", "compare-unitaries");
            match miter_phase(g1, g2) {
                Ok(MiterPhase::Identity) => Ok(Equivalence::Equivalent),
                Ok(MiterPhase::Global(l)) => Ok(Equivalence::EquivalentUpToGlobalPhase(l)),
                Ok(MiterPhase::NotIdentity) => Ok(Equivalence::NotEquivalent),
                Err(ArrayError::TooManyQubits { num_qubits }) => {
                    Err(VerifyError::TooLargeForMethod {
                        method: "array".into(),
                        num_qubits,
                    })
                }
                Err(_) => Err(VerifyError::NonUnitary),
            }
        }
        Method::DecisionDiagram => {
            let _miter = tracer.span_in("verify", "fold-miter");
            let mut dd = DdPackage::new();
            let r = qdt_dd::check_equivalence_by_cost(&mut dd, g1, g2, compiled_cost)
                .map_err(|_| VerifyError::NonUnitary)?;
            #[allow(clippy::cast_precision_loss)]
            sink.metrics()
                .gauge_set("verify.dd.nodes", dd.matrix_arena_size() as f64);
            Ok(match r {
                EquivalenceResult::Equivalent => Equivalence::Equivalent,
                EquivalenceResult::EquivalentUpToGlobalPhase(l) => {
                    Equivalence::EquivalentUpToGlobalPhase(l)
                }
                EquivalenceResult::NotEquivalent => Equivalence::NotEquivalent,
            })
        }
        Method::Zx => {
            let _rewrite = tracer.span_in("verify", "zx-rewrite");
            let r = qdt_zx::check_equivalence(g1, g2).map_err(|_| VerifyError::NonUnitary)?;
            Ok(match r {
                ZxEquivalence::Equivalent => Equivalence::Equivalent,
                ZxEquivalence::EquivalentUpToGlobalPhase(l) => {
                    Equivalence::EquivalentUpToGlobalPhase(l)
                }
                ZxEquivalence::NotEquivalent => Equivalence::NotEquivalent,
                ZxEquivalence::Inconclusive => Equivalence::Inconclusive,
            })
        }
        Method::RandomStimuli { samples } => {
            let _stimuli = tracer.span_in("verify", "random-stimuli");
            random_stimuli(g1, g2, samples)
        }
    }
}

/// Both circuits must be equally wide and unitary.
fn comparable(g1: &Circuit, g2: &Circuit) -> Result<(), VerifyError> {
    if g1.num_qubits() != g2.num_qubits() {
        return Err(VerifyError::WidthMismatch {
            left: g1.num_qubits(),
            right: g2.num_qubits(),
        });
    }
    if !g1.is_unitary() || !g2.is_unitary() {
        return Err(VerifyError::NonUnitary);
    }
    Ok(())
}

/// A gate's weight in the DD miter's alternation: the number of
/// instructions the compiler lowers it to on the IBM basis (1 for a gate
/// already in the basis, and for one the compiler cannot lower, such as
/// a gate with more than 15 controls). Costing
/// both circuits this way multiplies each source gate in next to the
/// compiled gates that implement it.
fn compiled_cost(inst: &Instruction) -> usize {
    lowered_len(inst, &GateSet::ibm_basis()).unwrap_or(1)
}

/// Random-stimuli comparison on the default engine (decision diagrams,
/// which scale to wide structured circuits).
fn random_stimuli(g1: &Circuit, g2: &Circuit, samples: usize) -> Result<Equivalence, VerifyError> {
    random_stimuli_with_engine(g1, g2, samples, || Box::new(DdEngine::new()))
}

fn engine_failure(e: EngineError) -> VerifyError {
    match e {
        EngineError::NonUnitary { .. } => VerifyError::NonUnitary,
        other => VerifyError::Simulation {
            message: other.to_string(),
        },
    }
}

/// Shots drawn per circuit and stimulus to locate the output support.
const STIMULI_SHOTS: usize = 32;

/// Random-stimuli comparison through an arbitrary [`SimulationEngine`]:
/// prepend the same random product-state preparation to both circuits,
/// run both on engines built by `make_engine`, and compare the outputs
/// on their sampled support, insensitive to global phase.
///
/// Rather than expanding either state densely, the check samples
/// `STIMULI_SHOTS` outcomes from each output (native on array/DD,
/// amplitude-based otherwise), estimates the phase ratio λ at `G₂`'s
/// strongest sampled amplitude, and requires `⟨x|G₁ψ⟩ ≈ λ·⟨x|G₂ψ⟩` at
/// every sampled basis state `x` — sound for rejection, probabilistic
/// for acceptance, and as wide as the engine's `amplitude`/`sample`
/// scale.
///
/// # Errors
///
/// See [`VerifyError`]; engine failures surface as
/// [`VerifyError::Simulation`].
pub fn random_stimuli_with_engine<F>(
    g1: &Circuit,
    g2: &Circuit,
    samples: usize,
    make_engine: F,
) -> Result<Equivalence, VerifyError>
where
    F: Fn() -> Box<dyn SimulationEngine>,
{
    comparable(g1, g2)?;
    let n = g1.num_qubits();
    let mut rng = StdRng::seed_from_u64(0x5717AB1E);
    for _ in 0..samples.max(1) {
        let mut prep = Circuit::new(n.max(1));
        for q in 0..n {
            prep.u(
                rng.gen_range(0.0..std::f64::consts::PI),
                rng.gen_range(0.0..2.0 * std::f64::consts::PI),
                rng.gen_range(0.0..2.0 * std::f64::consts::PI),
                q,
            );
        }
        let mut a = prep.clone();
        a.append(g1);
        let mut b = prep;
        b.append(g2);

        let mut ea = make_engine();
        qdt_engine::run(ea.as_mut(), &a).map_err(engine_failure)?;
        let mut eb = make_engine();
        qdt_engine::run(eb.as_mut(), &b).map_err(engine_failure)?;

        // The union of both sampled supports: indices where at least one
        // output has noticeable weight, so one-sided support vanishing is
        // caught too.
        let mut support: Vec<u128> = ea
            .sample(STIMULI_SHOTS, &mut rng)
            .map_err(engine_failure)?
            .into_keys()
            .collect();
        support.extend(
            eb.sample(STIMULI_SHOTS, &mut rng)
                .map_err(engine_failure)?
                .into_keys(),
        );
        support.sort_unstable();
        support.dedup();

        let mut amps = [Vec::new(), Vec::new()];
        for &x in &support {
            amps[0].push(ea.amplitude(x).map_err(engine_failure)?);
            amps[1].push(eb.amplitude(x).map_err(engine_failure)?);
        }
        // Equivalent up to global phase iff aa = λ·bb at every sample.
        let [aa, bb] = amps.map(|a| Matrix::column(&a));
        if !aa.approx_eq_up_to_global_phase(&bb, 1e-6) {
            return Ok(Equivalence::NotEquivalent);
        }
    }
    Ok(Equivalence::ProbablyEquivalent)
}

/// Verifies a routed/compiled circuit against its source, remapped
/// through the initial layout, with the chosen method. Both sides' SWAPs
/// become relabellings (see the crate docs); the compiled side's, the
/// routing permutation and the inverse of the source side's compose to
/// one residual permutation, the only SWAPs the method sees. The
/// relabelling is exact. `map` only fixes the device width.
///
/// # Errors
///
/// [`VerifyError::BadLayout`] for a routing result that does not fit
/// `map` and `original`; otherwise as [`check`].
pub fn verify_compilation(
    original: &Circuit,
    routed: &RoutedCircuit,
    map: &CouplingMap,
    method: Method,
) -> Result<Equivalence, VerifyError> {
    verify_compilation_traced(original, routed, map, method, &TelemetrySink::disabled())
}

/// [`verify_compilation`] with telemetry, as [`check_traced`]. It also
/// sets the `verify.swaps.elided` gauge (SWAPs dropped from both sides)
/// and the `verify.swaps.residual` gauge (SWAPs appended for the residual
/// permutation).
///
/// # Errors
///
/// As [`verify_compilation`].
pub fn verify_compilation_traced(
    original: &Circuit,
    routed: &RoutedCircuit,
    map: &CouplingMap,
    method: Method,
    sink: &TelemetrySink,
) -> Result<Equivalence, VerifyError> {
    check_routing(original, routed, map.num_qubits())?;
    let compiled = swaps::elide_swaps(&routed.circuit.unitary_part());
    let reference = swaps::elide_swaps(&original.unitary_part().remap(
        &routed.initial_layout[..original.num_qubits()],
        map.num_qubits(),
    ));
    // Logical qubit l ends on compiled.loc[final_layout[l]] in the
    // compiled circuit and on reference.loc[initial_layout[l]] in the source.
    let mut residual = vec![0; compiled.loc.len()];
    for (&end, &start) in routed.final_layout.iter().zip(&routed.initial_layout) {
        residual[compiled.loc[end]] = reference.loc[start];
    }
    let mut undone = compiled.circuit;
    let appended = push_permutation(&mut undone, &residual);
    let elided = compiled.swaps + reference.swaps;
    let metrics = sink.metrics();
    metrics.gauge_set("verify.swaps.elided", elided as f64);
    metrics.gauge_set("verify.swaps.residual", appended as f64);
    check_traced(&undone, &reference.circuit, method, sink)
}

/// Rejects a routing result that [`verify_compilation`] cannot interpret
/// on `n` device qubits.
fn check_routing(original: &Circuit, routed: &RoutedCircuit, n: usize) -> Result<(), VerifyError> {
    let is_permutation = |layout: &[usize]| {
        let mut sorted = layout.to_vec();
        sorted.sort_unstable();
        sorted.into_iter().eq(0..n)
    };
    let (width, source) = (routed.circuit.num_qubits(), original.num_qubits());
    let reason = if width != n {
        format!("the routed circuit has {width} qubits, the device {n}")
    } else if routed.initial_layout.len() < source {
        let placed = routed.initial_layout.len();
        format!("the initial layout places {placed} of the source's {source} qubits")
    } else if !is_permutation(&routed.initial_layout) || !is_permutation(&routed.final_layout) {
        let (from, to) = (&routed.initial_layout, &routed.final_layout);
        format!("the layouts {from:?} -> {to:?} are not permutations of 0..{n}")
    } else {
        return Ok(());
    };
    Err(VerifyError::BadLayout { reason })
}

/// Runs every exact method that applies and reports the verdicts
/// (used by the cross-method agreement experiment C6): the array method
/// up to [`MITER_MAX_QUBITS`] qubits, the others at any width.
pub fn check_all(g1: &Circuit, g2: &Circuit) -> Vec<(Method, Result<Equivalence, VerifyError>)> {
    let mut methods = vec![
        Method::DecisionDiagram,
        Method::Zx,
        Method::RandomStimuli { samples: 8 },
    ];
    if g1.num_qubits() <= MITER_MAX_QUBITS {
        methods.insert(0, Method::Array);
    }
    methods.into_iter().map(|m| (m, check(g1, g2, m))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdt_circuit::generators;
    use qdt_compile::routing::route;

    const METHODS: [Method; 4] = [
        Method::Array,
        Method::DecisionDiagram,
        Method::Zx,
        Method::RandomStimuli { samples: 6 },
    ];

    #[test]
    fn all_methods_accept_identical_circuits() {
        let qc = generators::qft(3, true);
        for m in METHODS {
            let r = check(&qc, &qc, m).unwrap();
            assert!(r.is_equivalent(), "{m}: {r:?}");
        }
    }

    #[test]
    fn all_methods_reject_mutants() {
        let a = generators::ghz(4);
        let mut b = generators::ghz(4);
        b.z(1);
        for m in METHODS {
            let r = check(&a, &b, m).unwrap();
            assert_eq!(r, Equivalence::NotEquivalent, "{m}");
        }
    }

    #[test]
    fn global_phase_detected_consistently() {
        let mut a = Circuit::new(1);
        a.rz(1.1, 0);
        let mut b = Circuit::new(1);
        b.p(1.1, 0);
        for m in [Method::Array, Method::DecisionDiagram, Method::Zx] {
            match check(&a, &b, m).unwrap() {
                Equivalence::EquivalentUpToGlobalPhase(l) => {
                    assert!(l.approx_eq(Complex::cis(-0.55), 1e-7), "{m}: {l}");
                }
                other => panic!("{m}: expected phase verdict, got {other:?}"),
            }
        }
    }

    #[test]
    fn random_stimuli_on_every_engine_kind() {
        // The stimuli check is engine-generic: the same mutation is
        // caught whichever registered backend drives the simulation.
        let a = generators::qft(3, true);
        let mut b = a.clone();
        b.z(0);
        type Factory = fn() -> Box<dyn SimulationEngine>;
        let factories: [(&str, Factory); 3] = [
            ("array", || Box::new(qdt_array::ArrayEngine::new())),
            ("dd", || Box::new(DdEngine::new())),
            ("mps", || Box::new(qdt_tensor::MpsEngine::new(16))),
        ];
        for (name, factory) in factories {
            let r = random_stimuli_with_engine(&a, &b, 4, factory).unwrap();
            assert_eq!(r, Equivalence::NotEquivalent, "{name}: mutant accepted");
            let r = random_stimuli_with_engine(&a, &a, 4, factory).unwrap();
            assert_eq!(r, Equivalence::ProbablyEquivalent, "{name}");
        }
    }

    #[test]
    fn random_stimuli_scales_past_dense_widths() {
        // 48 qubits: no dense expansion anywhere — the DD engine's
        // native sampling and single-amplitude queries carry the check.
        let a = generators::ghz(48);
        let mut b = generators::ghz(48);
        b.z(10);
        let m = Method::RandomStimuli { samples: 2 };
        assert_eq!(check(&a, &b, m).unwrap(), Equivalence::NotEquivalent);
        assert_eq!(check(&a, &a, m).unwrap(), Equivalence::ProbablyEquivalent);
    }

    #[test]
    fn random_stimuli_accepts_global_phase_difference() {
        let mut a = Circuit::new(2);
        a.rz(0.7, 0);
        a.h(1);
        let mut b = Circuit::new(2);
        b.p(0.7, 0);
        b.h(1);
        let r = check(&a, &b, Method::RandomStimuli { samples: 6 }).unwrap();
        assert_eq!(r, Equivalence::ProbablyEquivalent);
    }

    #[test]
    fn random_stimuli_catches_subtle_mutation() {
        let mut rng = StdRng::seed_from_u64(101);
        let a = generators::random_circuit(4, 4, &mut rng);
        let mut b = a.clone();
        b.p(1e-3, 2); // a tiny phase error on one qubit
        let r = check(&a, &b, Method::RandomStimuli { samples: 10 }).unwrap();
        assert_eq!(r, Equivalence::NotEquivalent);
    }

    #[test]
    fn width_mismatch_rejected() {
        let a = Circuit::new(2);
        let b = Circuit::new(3);
        assert!(matches!(
            check(&a, &b, Method::Array),
            Err(VerifyError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn measurement_rejected() {
        let mut a = Circuit::with_clbits(1, 1);
        a.measure(0, 0);
        let b = Circuit::new(1);
        assert!(matches!(
            check(&a, &b, Method::DecisionDiagram),
            Err(VerifyError::NonUnitary)
        ));
    }

    #[test]
    fn array_method_size_guard() {
        let a = Circuit::new(16);
        let b = Circuit::new(16);
        assert!(matches!(
            check(&a, &b, Method::Array),
            Err(VerifyError::TooLargeForMethod { .. })
        ));
    }

    #[test]
    fn array_method_decides_a_seeded_pair_near_the_width_cap() {
        // 9 qubits, not 10: a debug build runs the 18-qubit Choi state
        // in about a quarter of the time.
        let g = generators::random_circuit(9, 10, &mut StdRng::seed_from_u64(1));
        let mut mutant = Circuit::new(9);
        for (i, inst) in g.iter().enumerate() {
            if i == 75 {
                mutant.x(1);
            }
            mutant.push(inst.clone()).unwrap();
        }
        assert_eq!(
            check(&g, &g, Method::Array).unwrap(),
            Equivalence::Equivalent
        );
        assert_eq!(
            check(&g, &mutant, Method::Array).unwrap(),
            Equivalence::NotEquivalent
        );
    }

    #[test]
    fn unused_classical_bits_do_not_block_a_verdict() {
        // A QASM `creg` without a measurement, and a measured circuit
        // after `unitary_part`, keep their classical bits. Seed 3 leaves
        // the ZX miter a residual, so both methods reach the dense miter.
        let mut a = Circuit::with_clbits(6, 6);
        a.append(&generators::random_circuit(
            6,
            6,
            &mut StdRng::seed_from_u64(3),
        ));
        let mut b = a.clone();
        b.t(1).measure(0, 0);
        let b = b.unitary_part();
        for m in [Method::Array, Method::Zx] {
            assert!(check(&a, &a, m).unwrap().is_equivalent(), "{m}");
            assert_eq!(check(&a, &b, m).unwrap(), Equivalence::NotEquivalent, "{m}");
        }
    }

    #[test]
    fn compiled_qft_verifies() {
        let qc = generators::qft(4, true);
        let map = CouplingMap::linear(4);
        let rebased = qdt_compile::decompose::rebase(&qc, &GateSet::ibm_basis()).unwrap();
        let routed = route(&rebased, &map).unwrap();
        assert!(routed.swap_count > 0, "linear QFT must need swaps");
        let r = verify_compilation(&qc, &routed, &map, Method::DecisionDiagram).unwrap();
        assert!(r.is_equivalent(), "{r:?}");
    }

    #[test]
    fn compiled_circuit_mutation_detected() {
        let qc = generators::ghz(5);
        let map = CouplingMap::ring(5);
        let mut routed = route(&qc, &map).unwrap();
        // Sabotage the routed circuit.
        routed.circuit.x(2);
        let r = verify_compilation(&qc, &routed, &map, Method::DecisionDiagram).unwrap();
        assert_eq!(r, Equivalence::NotEquivalent);
    }

    /// A routing result with identity layouts on `n` qubits.
    fn unrouted(circuit: Circuit) -> RoutedCircuit {
        let n = circuit.num_qubits();
        RoutedCircuit {
            circuit,
            initial_layout: (0..n).collect(),
            final_layout: (0..n).collect(),
            swap_count: 0,
        }
    }

    fn bad_layout(original: &Circuit, routed: &RoutedCircuit, map: &CouplingMap) -> String {
        match verify_compilation(original, routed, map, Method::DecisionDiagram) {
            Err(VerifyError::BadLayout { reason }) => reason,
            other => panic!("expected a BadLayout error, got {other:?}"),
        }
    }

    #[test]
    fn layouts_that_are_not_permutations_are_bad_layouts() {
        let qc = generators::ghz(3);
        let map = CouplingMap::linear(3);
        let mut routed = route(&qc, &map).unwrap();
        for (initial, last) in [
            (vec![0, 1, 2], vec![0, 0, 2]),
            (vec![0, 1, 2], vec![0, 1, 3]),
            (vec![0, 1, 2], vec![0, 1]),
            (vec![1, 1, 0], vec![2, 1, 0]),
            (vec![0, 1, 2, 3], vec![2, 1, 0]),
        ] {
            routed.initial_layout = initial;
            routed.final_layout = last;
            assert!(bad_layout(&qc, &routed, &map).contains("not permutations of 0..3"));
        }
    }

    #[test]
    fn an_initial_layout_shorter_than_the_source_is_a_bad_layout() {
        let qc = generators::ghz(4);
        let map = CouplingMap::linear(3);
        let routed = unrouted(generators::ghz(3));
        assert!(bad_layout(&qc, &routed, &map).contains("source's 4 qubits"));
    }

    #[test]
    fn a_routed_circuit_narrower_than_the_map_is_a_bad_layout() {
        let qc = generators::ghz(3);
        let routed = unrouted(qc.clone());
        let reason = bad_layout(&qc, &routed, &CouplingMap::linear(4));
        assert!(reason.contains("3 qubits, the device 4"), "{reason}");
    }

    /// `verify.swaps.elided` and `verify.swaps.residual` of one check.
    fn swap_gauges(original: &Circuit, routed: &RoutedCircuit) -> (Equivalence, f64, f64) {
        use qdt_engine::telemetry::MetricValue;
        let sink = TelemetrySink::new();
        let map = CouplingMap::full(routed.circuit.num_qubits());
        let verdict =
            verify_compilation_traced(original, routed, &map, Method::DecisionDiagram, &sink)
                .unwrap();
        let gauge = |name| match sink.metrics().get(name) {
            Some(MetricValue::Gauge(v)) => v,
            other => panic!("missing {name} gauge: {other:?}"),
        };
        (
            verdict,
            gauge("verify.swaps.elided"),
            gauge("verify.swaps.residual"),
        )
    }

    #[test]
    fn disjoint_swaps_on_both_sides_cancel_to_an_empty_residual() {
        let mut qc = Circuit::new(4);
        qc.h(0).swap(0, 1).swap(2, 3).cx(1, 2);
        let mut compiled = Circuit::new(4);
        compiled.h(0).swap(2, 3);
        compiled.cx(0, 1).cx(1, 0).cx(0, 1).cx(1, 2);
        let (verdict, elided, residual) = swap_gauges(&qc, &unrouted(compiled));
        assert_eq!(verdict, Equivalence::Equivalent);
        assert_eq!((elided, residual), (4.0, 0.0));
    }

    #[test]
    fn routing_swaps_leave_a_residual_of_transpositions() {
        // Routing a CX between the ends of a line moves qubit 0 along it;
        // the compiled side's elided SWAPs and the unrouting cancel.
        let mut qc = Circuit::new(4);
        qc.h(0).cx(0, 3).t(0);
        let map = CouplingMap::linear(4);
        let routed = route(&qc, &map).unwrap();
        assert_eq!(routed.swap_count, 2);
        let (verdict, elided, residual) = swap_gauges(&qc, &routed);
        assert_eq!(verdict, Equivalence::Equivalent);
        assert_eq!((elided, residual), (2.0, 0.0));
        // Without the unrouting the residual is the 3-cycle the SWAPs
        // made, two transpositions.
        let mut unrouted_result = routed.clone();
        unrouted_result.final_layout = unrouted_result.initial_layout.clone();
        let (verdict, _, residual) = swap_gauges(&qc, &unrouted_result);
        assert_eq!(verdict, Equivalence::NotEquivalent);
        assert_eq!(residual, 2.0);
    }

    #[test]
    fn traced_check_tags_method_phases_as_spans() {
        use qdt_engine::telemetry::{MetricValue, TraceEventKind};

        let qc = generators::qft(3, true);
        let sink = TelemetrySink::new();
        for m in METHODS {
            assert!(check_traced(&qc, &qc, m, &sink).unwrap().is_equivalent());
        }
        let events = sink.tracer().events();
        let begins = events
            .iter()
            .filter(|e| e.kind == TraceEventKind::Begin && e.category == "verify")
            .count();
        let ends = events
            .iter()
            .filter(|e| e.kind == TraceEventKind::End && e.category == "verify")
            .count();
        assert_eq!(begins, ends, "all verify spans close");
        // Each method span plus at least one phase sub-span each.
        assert!(begins >= 2 * METHODS.len(), "got {begins} begin events");
        for phase in [
            "fold-miter",
            "zx-rewrite",
            "random-stimuli",
            "compare-unitaries",
        ] {
            assert!(
                events.iter().any(|e| e.name == phase),
                "missing phase span {phase}"
            );
        }
        // The DD check also reports the matrix nodes its miter created.
        match sink.metrics().get("verify.dd.nodes") {
            Some(MetricValue::Gauge(nodes)) => assert!(nodes > 0.0, "{nodes} nodes"),
            other => panic!("missing verify.dd.nodes gauge: {other:?}"),
        }
    }

    #[test]
    fn dd_weighs_wide_multi_controlled_gates_without_lowering_them() {
        // A 16-control MCZ is wider than the compiler lowers: weight 1.
        let qc = generators::grover(17, 0b1_0110_1001_0110_1001, 1);
        assert_eq!(
            check(&qc, &qc, Method::DecisionDiagram).unwrap(),
            Equivalence::Equivalent
        );
        // A 12-control MCX lowers to ~10^5 gates: counted, not built.
        let mut qc = Circuit::new(13);
        qc.h(0).mcx(&(0..12).collect::<Vec<_>>(), 12);
        let mut flipped = qc.clone();
        flipped.x(12);
        assert_eq!(
            check(&qc, &qc, Method::DecisionDiagram).unwrap(),
            Equivalence::Equivalent
        );
        assert_eq!(
            check(&qc, &flipped, Method::DecisionDiagram).unwrap(),
            Equivalence::NotEquivalent
        );
    }

    #[test]
    fn check_all_agreement() {
        for qc in [generators::ghz(4), generators::qft(9, true)] {
            let results = check_all(&qc, &qc);
            assert!(results.len() >= 3);
            for (m, r) in results {
                let verdict = r.unwrap();
                assert!(
                    verdict.is_equivalent() || verdict == Equivalence::Inconclusive,
                    "{m}: {verdict:?}"
                );
            }
        }
        // Every width the dense miter admits includes the array method.
        let wide = generators::ghz(MITER_MAX_QUBITS);
        let results = check_all(&wide, &wide);
        assert_eq!(results[0].0, Method::Array);
        assert_eq!(results[0].1, Ok(Equivalence::Equivalent));
    }
}
