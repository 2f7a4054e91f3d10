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
//! | [`Method::Array`] | dense unitaries (Sec. II) | ≤ ~10 qubits | exact |
//! | [`Method::DecisionDiagram`] | QMDD miter `G₂†·G₁` (Sec. III) | structured circuits, large | exact |
//! | [`Method::Zx`] | graph-like rewriting (Sec. V) | Clifford-dominated, large | exact or inconclusive |
//! | [`Method::RandomStimuli`] | engine simulation of both circuits | any | probabilistic |
//!
//! Random stimuli are driven through the [`SimulationEngine`] trait
//! (decision diagrams by default); [`random_stimuli_with_engine`]
//! accepts any engine factory, so the same probabilistic check runs on
//! every registered backend.
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

use std::fmt;

use qdt_array::circuit_unitary;
use qdt_circuit::{Circuit, Instruction};
use qdt_compile::coupling::CouplingMap;
use qdt_compile::decompose::lowered_len;
use qdt_compile::routing::RoutedCircuit;
use qdt_compile::target::GateSet;
use qdt_complex::Complex;
use qdt_dd::{DdEngine, DdPackage, EquivalenceResult};
use qdt_engine::{EngineError, SimulationEngine, TelemetrySink};
use qdt_zx::ZxEquivalence;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The equivalence-checking backend to use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Method {
    /// Build both full unitaries and compare (exponential; ≤ 10 qubits).
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
    if g1.num_qubits() != g2.num_qubits() {
        return Err(VerifyError::WidthMismatch {
            left: g1.num_qubits(),
            right: g2.num_qubits(),
        });
    }
    if !g1.is_unitary() || !g2.is_unitary() {
        return Err(VerifyError::NonUnitary);
    }
    match method {
        Method::Array => {
            if g1.num_qubits() > 10 {
                return Err(VerifyError::TooLargeForMethod {
                    method: "array".into(),
                    num_qubits: g1.num_qubits(),
                });
            }
            let build = tracer.span_in("verify", "build-unitaries");
            let u1 = circuit_unitary(g1).map_err(|_| VerifyError::NonUnitary)?;
            let u2 = circuit_unitary(g2).map_err(|_| VerifyError::NonUnitary)?;
            drop(build);
            let _compare = tracer.span_in("verify", "compare-unitaries");
            if u1.approx_eq(&u2, 1e-9) {
                Ok(Equivalence::Equivalent)
            } else if u1.approx_eq_up_to_global_phase(&u2, 1e-9) {
                // λ with U1 = λ·U2, read off the largest entry.
                let mut best = (0, 0);
                let mut mag = 0.0;
                for r in 0..u2.rows() {
                    for c in 0..u2.cols() {
                        if u2.get(r, c).norm_sqr() > mag {
                            mag = u2.get(r, c).norm_sqr();
                            best = (r, c);
                        }
                    }
                }
                let lambda = u1.get(best.0, best.1) / u2.get(best.0, best.1);
                Ok(Equivalence::EquivalentUpToGlobalPhase(lambda))
            } else {
                Ok(Equivalence::NotEquivalent)
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
/// amplitude-based otherwise), estimates the phase ratio λ at the
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
    if g1.num_qubits() != g2.num_qubits() {
        return Err(VerifyError::WidthMismatch {
            left: g1.num_qubits(),
            right: g2.num_qubits(),
        });
    }
    if !g1.is_unitary() || !g2.is_unitary() {
        return Err(VerifyError::NonUnitary);
    }
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

        let pairs: Vec<(Complex, Complex)> = support
            .iter()
            .map(|&x| {
                Ok((
                    ea.amplitude(x).map_err(engine_failure)?,
                    eb.amplitude(x).map_err(engine_failure)?,
                ))
            })
            .collect::<Result<_, VerifyError>>()?;

        // λ from the strongest amplitude pair; the states are equivalent
        // up to global phase iff every pair satisfies aa = λ·bb.
        let Some(&(la, lb)) = pairs.iter().max_by(|p, q| {
            let wp = p.0.norm_sqr().max(p.1.norm_sqr());
            let wq = q.0.norm_sqr().max(q.1.norm_sqr());
            wp.partial_cmp(&wq).expect("amplitude weights are finite")
        }) else {
            continue; // no shots requested
        };
        if la.norm_sqr() < 1e-18 || lb.norm_sqr() < 1e-18 {
            // One state has weight where the other is (numerically) zero.
            return Ok(Equivalence::NotEquivalent);
        }
        let lambda = la / lb;
        if (lambda.abs() - 1.0).abs() > 1e-6 {
            return Ok(Equivalence::NotEquivalent);
        }
        for (aa, bb) in pairs {
            if !aa.approx_eq(lambda * bb, 1e-6) {
                return Ok(Equivalence::NotEquivalent);
            }
        }
    }
    Ok(Equivalence::ProbablyEquivalent)
}

/// Verifies a routed/compiled circuit against its source: appends the
/// un-routing SWAPs, remaps the original through the initial layout, and
/// checks equivalence with the chosen method.
///
/// # Errors
///
/// Propagates [`check`] errors.
pub fn verify_compilation(
    original: &Circuit,
    routed: &RoutedCircuit,
    map: &CouplingMap,
    method: Method,
) -> Result<Equivalence, VerifyError> {
    verify_compilation_traced(original, routed, map, method, &TelemetrySink::disabled())
}

/// [`verify_compilation`] with telemetry, as [`check_traced`].
///
/// # Errors
///
/// Propagates [`check`] errors.
pub fn verify_compilation_traced(
    original: &Circuit,
    routed: &RoutedCircuit,
    map: &CouplingMap,
    method: Method,
    sink: &TelemetrySink,
) -> Result<Equivalence, VerifyError> {
    let undone = routed.with_unrouting_swaps(map);
    let reference = original.unitary_part().remap(
        &routed.initial_layout[..original.num_qubits()],
        map.num_qubits(),
    );
    check_traced(&undone.unitary_part(), &reference, method, sink)
}

/// Runs every exact method that applies and reports the verdicts
/// (used by the cross-method agreement experiment C6).
pub fn check_all(g1: &Circuit, g2: &Circuit) -> Vec<(Method, Result<Equivalence, VerifyError>)> {
    let mut methods = vec![
        Method::DecisionDiagram,
        Method::Zx,
        Method::RandomStimuli { samples: 8 },
    ];
    if g1.num_qubits() <= 8 {
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
        let qc = generators::ghz(4);
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
}
