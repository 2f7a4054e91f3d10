//! The three workloads: seeded job generation, the timed execution of
//! one job through public `qdt` calls, and the untimed answer check.
//!
//! Every job is one design-tool request: OpenQASM 2 text goes in and a
//! checked answer (amplitudes, a histogram or a verdict) comes out.
//! Static jobs take the explicit form of the `auto` path —
//! `qasm::parse` → `analysis::dispatch_circuit` → `create_engine` →
//! `engine::run` → query — so each layer is timed from outside the
//! program, with one span per call.

use std::collections::BTreeMap;
use std::f64::consts::PI;

use qdt::analysis::cost::fused_group_count;
use qdt::analysis::dispatch_circuit;
use qdt::circuit::{generators, qasm, Circuit, Pauli, PauliString};
use qdt::compile::{compile, coupling::CouplingMap, target::GateSet};
use qdt::complex::Complex;
use qdt::telemetry::Tracer;
use qdt::verify::{check, verify_compilation, Equivalence, Method};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::host::SHOT_WORKERS;
use crate::oracle;

/// The benchmark's workloads; each stresses a different layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Narrow-to-mid dense circuits that `auto` sends to the array.
    DenseAmps,
    /// Wide structured and dynamic jobs: parse, dispatch, engine
    /// construction, collapse and sampling dominate.
    WideShots,
    /// Compilation to a device, then equivalence checking.
    CompileVerify,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::DenseAmps,
        Workload::WideShots,
        Workload::CompileVerify,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DenseAmps => "dense-amps",
            Workload::WideShots => "wide-shots",
            Workload::CompileVerify => "compile-verify",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How a job reaches its engine.
#[derive(Debug, Clone)]
pub enum Route {
    /// The explicit `auto` path: `dispatch_circuit`, then
    /// `create_engine` of the chosen spec.
    Auto,
    /// A registry spec named by the request.
    Spec(String),
    /// The stabilizer tableau by type: its `sample_bits` returns outcomes
    /// wider than the trait's 128-bit sample keys.
    StabilizerBits,
    /// The per-shot executor (`sample_dynamic`) on a named spec.
    Shots(String),
    /// `compile` to the IBM basis on a device, then `verify_compilation`.
    Compile(CompileRequest),
}

/// A compile-and-verify request.
#[derive(Debug, Clone)]
pub struct CompileRequest {
    /// The device.
    pub map: CouplingMap,
    /// A single-gate mutant: an `X` on `qubit` inserted before compiled
    /// instruction `at`, which verification must reject.
    pub mutant: Option<(usize, usize)>,
    /// Clifford sources also go through `zx::optimize_circuit`, a DD
    /// check and a ZX check of the optimised circuit.
    pub clifford: bool,
}

/// What a static job asks of its engine after the run.
#[derive(Debug, Clone)]
pub enum Query {
    /// The full amplitude vector.
    AllAmps,
    /// Amplitudes at the listed basis states.
    Amps(Vec<u128>),
    /// One amplitude and one Pauli expectation.
    AmpAndExpect(u128, PauliString),
    /// One Pauli expectation.
    Expect(PauliString),
    /// A histogram of this many shots.
    Sample(usize),
    /// Per-shot execution of a dynamic circuit, this many shots.
    Dynamic(usize),
    /// No query: the request is a compile-and-verify verdict.
    Verdict,
}

/// The answer a job must return, known before it runs.
#[derive(Debug, Clone)]
pub enum Expected {
    /// Amplitudes, compared per component.
    Amps(Vec<Complex>),
    /// Amplitude magnitudes, for states whose global phase is arbitrary.
    Magnitudes(Vec<f64>),
    /// One amplitude and one expectation value.
    AmpAndExpect(Complex, f64),
    /// An expectation value within a tolerance.
    Expect(f64, f64),
    /// A GHZ histogram on `n` qubits: only all-0 and all-1, both present.
    Ghz(usize),
    /// An exact histogram.
    Hist(BTreeMap<u128, usize>),
    /// Compile-verify verdicts: equivalent, or `NotEquivalent` for a
    /// mutant.
    Equivalent(bool),
}

/// One request of a workload's job list.
#[derive(Debug, Clone)]
pub struct Job {
    /// The job class, for reporting.
    pub class: &'static str,
    /// The OpenQASM 2 text handed to the program.
    pub qasm: String,
    /// How the job reaches its engine.
    pub route: Route,
    /// What it asks.
    pub query: Query,
    /// Seed of the job's sampling randomness.
    pub seed: u64,
    /// The answer it must return.
    pub expected: Expected,
    /// For `Route::Auto`: what `dispatch_circuit` chose at generation.
    pub dispatch: Option<Dispatch>,
}

/// A static job's dispatch decision and the array work it implies.
#[derive(Debug, Clone)]
pub struct Dispatch {
    /// The chosen spec.
    pub spec: String,
    /// Full passes over the state the array engine makes: the fused
    /// group count at the spec's fuse width (0 off the array).
    pub sweeps: u64,
    /// Bytes those sweeps move, computed as sweeps × 2 × 16 B × 2ⁿ
    /// (read and write of every complex amplitude).
    pub sweep_bytes: f64,
}

/// What one job returned, plus counts taken at the layer boundaries.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// The answer.
    pub answer: Answer,
    /// The spec the job ran on (dispatched or named).
    pub spec: Option<String>,
    /// Gates the engine applied in `engine::run`.
    pub gates: u64,
    /// Engine memory after the query (`memory_bytes()`).
    pub mem_bytes: usize,
    /// Shots taken.
    pub shots: u64,
    /// Projective collapses in the shot loop.
    pub collapses: u64,
    /// SWAPs routing inserted.
    pub swaps: u64,
    /// Gates after compilation.
    pub compiled_gates: u64,
    /// Gates after `zx::optimize_circuit`.
    pub zx_gates: u64,
    /// Gates of the parsed source.
    pub source_gates: u64,
    /// The engine's `describe()` after the query (static routes).
    pub described: Option<String>,
}

/// A job's answer.
#[derive(Debug, Clone, Default)]
pub enum Answer {
    /// No answer (the job failed before producing one).
    #[default]
    None,
    /// Amplitudes.
    Amps(Vec<Complex>),
    /// One amplitude and one expectation value.
    AmpAndExpect(Complex, f64),
    /// An expectation value.
    Expect(f64),
    /// A histogram keyed by basis index or classical register.
    Hist(BTreeMap<u128, usize>),
    /// A histogram keyed by bit-packed words.
    Bits(BTreeMap<Vec<u64>, usize>),
    /// The compile-verify verdicts: the compiled circuit, then (Clifford
    /// sources) the ZX-optimised circuit by DD and by ZX.
    Verdicts(Equivalence, Option<(Equivalence, Equivalence)>),
}

/// The engine family a spec belongs to, as used in span and metric
/// names.
pub fn engine_kind(spec: &str) -> &'static str {
    let head = spec.split(['(', ':']).next().unwrap_or(spec);
    match head {
        "array" => "array",
        "stabilizer" => "stabilizer",
        "decision-diagram" | "dd" => "decision-diagram",
        "mps" => "mps",
        "traj" => "traj",
        "density" => "density",
        "tensor-network" | "tn" => "tensor-network",
        _ => "other",
    }
}

/// Span name of `engine::run` on an engine family.
fn run_span(kind: &str) -> &'static str {
    match kind {
        "array" => "engine.run.array",
        "stabilizer" => "engine.run.stabilizer",
        "decision-diagram" => "engine.run.decision-diagram",
        "mps" => "engine.run.mps",
        "traj" => "engine.run.traj",
        "density" => "engine.run.density",
        "tensor-network" => "engine.run.tensor-network",
        _ => "engine.run.other",
    }
}

/// The fuse width of an array spec (`array(fuse=5)` → 5; plain → 0).
pub fn fuse_width(spec: &str) -> usize {
    spec.split_once("fuse=")
        .and_then(|(_, rest)| {
            rest.split(|c: char| !c.is_ascii_digit())
                .next()?
                .parse()
                .ok()
        })
        .unwrap_or(0)
}

/// Executes one job: everything between the QASM text handed in and the
/// answer returned. `tracer` records one span per layer call (a disabled
/// tracer records nothing).
///
/// # Errors
///
/// Returns the first error any layer reports.
pub fn execute(job: &Job, tracer: &Tracer) -> Result<Outcome, String> {
    let _job = tracer.span_in("job", "job");
    let circuit = {
        let _s = tracer.span_in("layer", "circuit.parse");
        qasm::parse(&job.qasm).map_err(|e| format!("parse: {e}"))?
    };
    let mut out = Outcome {
        source_gates: circuit.len() as u64,
        ..Outcome::default()
    };
    match &job.route {
        Route::Auto | Route::Spec(_) => {
            let spec = match &job.route {
                Route::Spec(spec) => spec.clone(),
                _ => {
                    let _s = tracer.span_in("layer", "analysis.dispatch");
                    dispatch_circuit(&circuit).chosen
                }
            };
            let mut engine = {
                let _s = tracer.span_in("layer", "core.create");
                qdt::create_engine(&spec).map_err(|e| format!("create `{spec}`: {e}"))?
            };
            let stats = {
                let _s = tracer.span_in("layer", run_span(engine_kind(&spec)));
                qdt::engine::run(engine.as_mut(), &circuit).map_err(|e| format!("run: {e}"))?
            };
            out.gates = stats.gates_applied as u64;
            let err = |e: qdt::EngineError| format!("query: {e}");
            out.answer = match &job.query {
                Query::Sample(shots) => {
                    let _s = tracer.span_in("layer", "engine.shots");
                    let mut rng = StdRng::seed_from_u64(job.seed);
                    out.shots = *shots as u64;
                    Answer::Hist(engine.sample(*shots, &mut rng).map_err(err)?)
                }
                query => {
                    let _s = tracer.span_in("layer", "engine.readout");
                    match query {
                        Query::AllAmps => Answer::Amps(engine.amplitudes().map_err(err)?),
                        Query::Amps(basis) => Answer::Amps(
                            basis
                                .iter()
                                .map(|&b| engine.amplitude(b))
                                .collect::<Result<_, _>>()
                                .map_err(err)?,
                        ),
                        Query::AmpAndExpect(basis, pauli) => Answer::AmpAndExpect(
                            engine.amplitude(*basis).map_err(err)?,
                            engine.expectation(pauli).map_err(err)?,
                        ),
                        Query::Expect(pauli) => {
                            Answer::Expect(engine.expectation(pauli).map_err(err)?)
                        }
                        other => return Err(format!("query {other:?} on a static engine")),
                    }
                }
            };
            out.mem_bytes = engine.memory_bytes();
            out.described = Some(engine.describe());
            out.spec = Some(spec);
        }
        Route::StabilizerBits => {
            let Query::Sample(shots) = job.query else {
                return Err("the tableau route only samples".into());
            };
            let mut engine = {
                let _s = tracer.span_in("layer", "core.create");
                qdt::stabilizer::StabilizerEngine::new()
            };
            let stats = {
                let _s = tracer.span_in("layer", run_span("stabilizer"));
                qdt::engine::run(&mut engine, &circuit).map_err(|e| format!("run: {e}"))?
            };
            out.gates = stats.gates_applied as u64;
            let bits = {
                let _s = tracer.span_in("layer", "engine.shots");
                let mut rng = StdRng::seed_from_u64(job.seed);
                engine.sample_bits(shots, &mut rng)
            };
            out.shots = shots as u64;
            out.mem_bytes = qdt::SimulationEngine::memory_bytes(&engine);
            out.answer = Answer::Bits(bits);
            out.spec = Some("stabilizer".into());
        }
        Route::Shots(spec) => {
            let Query::Dynamic(shots) = job.query else {
                return Err("the shot route runs dynamic circuits".into());
            };
            let result = {
                let _s = tracer.span_in("layer", "engine.shots");
                qdt::sample_dynamic(&circuit, shots, spec, job.seed, SHOT_WORKERS)
                    .map_err(|e| format!("shots on `{spec}`: {e}"))?
            };
            out.shots = shots as u64;
            out.collapses = result.stats.collapses;
            out.answer = Answer::Hist(result.counts);
            out.spec = Some(spec.clone());
        }
        Route::Compile(request) => {
            let mut routed = {
                let _s = tracer.span_in("layer", "compile");
                compile(&circuit, &GateSet::ibm_basis(), &request.map)
                    .map_err(|e| format!("compile: {e}"))?
            };
            out.swaps = routed.swap_count as u64;
            out.compiled_gates = routed.circuit.len() as u64;
            if let Some((at, qubit)) = request.mutant {
                routed.circuit = with_x_inserted(&routed.circuit, at, qubit);
            }
            let compiled = {
                let _s = tracer.span_in("layer", "verify.dd");
                verify_compilation(&circuit, &routed, &request.map, Method::DecisionDiagram)
                    .map_err(|e| format!("verify: {e}"))?
            };
            let zx = if request.clifford {
                let optimized = {
                    let _s = tracer.span_in("layer", "zx.optimize");
                    qdt::zx::optimize_circuit(&circuit).map_err(|e| format!("zx: {e}"))?
                };
                out.zx_gates = optimized.len() as u64;
                let by_dd = {
                    let _s = tracer.span_in("layer", "verify.dd");
                    check(&circuit, &optimized, Method::DecisionDiagram)
                        .map_err(|e| format!("dd check: {e}"))?
                };
                let by_zx = {
                    let _s = tracer.span_in("layer", "verify.zx");
                    check(&circuit, &optimized, Method::Zx).map_err(|e| format!("zx check: {e}"))?
                };
                Some((by_dd, by_zx))
            } else {
                None
            };
            out.answer = Answer::Verdicts(compiled, zx);
        }
    }
    Ok(out)
}

/// `circuit` with an `X` on `qubit` inserted before instruction `at`.
fn with_x_inserted(circuit: &Circuit, at: usize, qubit: usize) -> Circuit {
    let mut out = Circuit::with_clbits(circuit.num_qubits(), circuit.num_clbits());
    for (i, inst) in circuit.iter().enumerate() {
        if i == at {
            out.x(qubit);
        }
        out.push_unchecked(inst.clone());
    }
    if at >= circuit.len() {
        out.x(qubit);
    }
    out
}

/// Amplitude tolerance for answers checked against an analytical or
/// cross-backend reference.
const AMP_TOL: f64 = 1e-8;

/// Whether `outcome` answers `job` correctly. Runs outside the clock.
pub fn check_answer(job: &Job, outcome: &Outcome) -> Result<(), String> {
    let close = |a: Complex, b: Complex| (a - b).abs() <= AMP_TOL;
    match (&job.expected, &outcome.answer) {
        (Expected::Amps(want), Answer::Amps(got)) => {
            if want.len() != got.len() {
                return Err(format!("{} amplitudes, expected {}", got.len(), want.len()));
            }
            match want.iter().zip(got).position(|(w, g)| !close(*w, *g)) {
                Some(i) => Err(format!("amplitude {i}: {} vs {}", got[i], want[i])),
                None => Ok(()),
            }
        }
        (Expected::Magnitudes(want), Answer::Amps(got)) => {
            let bad = want.len() != got.len()
                || want
                    .iter()
                    .zip(got)
                    .any(|(w, g)| (g.abs() - w).abs() > AMP_TOL);
            if bad {
                Err(format!("magnitudes {got:?}, expected {want:?}"))
            } else {
                Ok(())
            }
        }
        (Expected::AmpAndExpect(amp, exp), Answer::AmpAndExpect(got_amp, got_exp)) => {
            if close(*amp, *got_amp) && (exp - got_exp).abs() <= AMP_TOL {
                Ok(())
            } else {
                Err(format!("({got_amp}, {got_exp}) vs ({amp}, {exp})"))
            }
        }
        (Expected::Expect(want, tol), Answer::Expect(got)) => {
            if (want - got).abs() <= *tol {
                Ok(())
            } else {
                Err(format!("expectation {got} vs {want} ± {tol}"))
            }
        }
        (Expected::Ghz(n), answer) => {
            let shots = match job.query {
                Query::Sample(s) => s,
                _ => return Err("GHZ check needs a sampling query".into()),
            };
            let (zeros, ones, other, total) = match answer {
                Answer::Hist(h) => {
                    let ones = (1u128 << n) - 1;
                    let get = |k| h.get(&k).copied().unwrap_or(0);
                    let other = h.keys().filter(|&&k| k != 0 && k != ones).count();
                    (get(0), get(ones), other, h.values().sum::<usize>())
                }
                Answer::Bits(h) => {
                    let zero: Vec<u64> = vec![0; n.div_ceil(64)];
                    let one: Vec<u64> = (0..n.div_ceil(64))
                        .map(|w| {
                            let bits = (n - 64 * w).min(64);
                            if bits == 64 {
                                u64::MAX
                            } else {
                                (1u64 << bits) - 1
                            }
                        })
                        .collect();
                    let get = |k: &Vec<u64>| h.get(k).copied().unwrap_or(0);
                    let other = h.keys().filter(|&k| *k != zero && *k != one).count();
                    (get(&zero), get(&one), other, h.values().sum())
                }
                other => return Err(format!("GHZ check got {other:?}")),
            };
            if zeros > 0 && ones > 0 && zeros + ones == shots && total == shots && other == 0 {
                Ok(())
            } else {
                Err(format!(
                    "GHZ-{n} histogram: {zeros} zeros, {ones} ones of {total}"
                ))
            }
        }
        (Expected::Hist(want), Answer::Hist(got)) => {
            if want == got {
                Ok(())
            } else {
                Err(format!("histogram {got:?}, expected {want:?}"))
            }
        }
        (Expected::Equivalent(equivalent), Answer::Verdicts(compiled, zx)) => {
            let compiled_ok = if *equivalent {
                compiled.is_equivalent()
            } else {
                *compiled == Equivalence::NotEquivalent
            };
            let zx_ok = zx.is_none_or(|(dd, zx)| dd.is_equivalent() && zx.is_equivalent());
            if compiled_ok && zx_ok {
                Ok(())
            } else {
                Err(format!(
                    "verdicts {compiled:?} / {zx:?}, equivalent = {equivalent}"
                ))
            }
        }
        (want, got) => Err(format!("answer {got:?} does not match expected {want:?}")),
    }
}

// --- generation ------------------------------------------------------------

/// A workload's job list, generated from `seed`. The same seed gives
/// byte-identical QASM texts and identical expected answers.
///
/// # Panics
///
/// Panics when a generator or a reference computation fails; the
/// benchmark cannot run without its inputs.
pub fn generate(workload: Workload, seed: u64) -> Vec<Job> {
    let mut g = Gen {
        rng: StdRng::seed_from_u64(seed ^ workload_salt(workload)),
        jobs: Vec::new(),
    };
    match workload {
        Workload::DenseAmps => g.dense_amps(),
        Workload::WideShots => g.wide_shots(),
        Workload::CompileVerify => g.compile_verify(),
    }
    for job in &mut g.jobs {
        if matches!(job.route, Route::Auto) {
            let circuit = qasm::parse(&job.qasm).expect("generated QASM parses");
            let spec = dispatch_circuit(&circuit).chosen;
            let sweeps = if engine_kind(&spec) == "array" {
                fused_group_count(&circuit, fuse_width(&spec)) as u64
            } else {
                0
            };
            #[allow(clippy::cast_precision_loss)]
            let sweep_bytes = sweeps as f64 * 32.0 * (circuit.num_qubits() as f64).exp2();
            job.dispatch = Some(Dispatch {
                spec,
                sweeps,
                sweep_bytes,
            });
        }
    }
    g.jobs
}

fn workload_salt(workload: Workload) -> u64 {
    match workload {
        Workload::DenseAmps => 0xD3A5_E000_0000_0001,
        Workload::WideShots => 0x51DE_5407_0000_0002,
        Workload::CompileVerify => 0xC0F1_7E00_0000_0003,
    }
}

struct Gen {
    rng: StdRng,
    jobs: Vec<Job>,
}

fn text(circuit: &Circuit) -> String {
    qasm::write(circuit).expect("generated circuits are expressible in OpenQASM 2")
}

/// Reference amplitudes from tensor-network contraction, a different
/// data structure than the array the job runs on.
fn tn_amplitudes(circuit: &Circuit) -> Vec<Complex> {
    let mut e = qdt::create_engine("tensor-network").expect("tensor-network spec");
    qdt::engine::run(e.as_mut(), circuit).expect("tensor-network reference runs");
    e.amplitudes().expect("tensor-network reference amplitudes")
}

/// `|x⟩` prepared with X gates, followed by the textbook QFT.
fn qft_on_basis_state(n: usize, x: u64) -> Circuit {
    let mut qc = Circuit::new(n);
    for q in 0..n {
        if x >> q & 1 == 1 {
            qc.x(q);
        }
    }
    qc.append(&generators::qft(n, true));
    qc
}

/// A GHZ state whose CNOT chain follows a random qubit order.
fn permuted_ghz(n: usize, rng: &mut StdRng) -> Circuit {
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

/// `Z_a Z_b` on `n` qubits.
fn zz(n: usize, a: usize, b: usize) -> PauliString {
    let mut ops = vec![Pauli::I; n];
    ops[a] = Pauli::Z;
    ops[b] = Pauli::Z;
    PauliString::new(ops)
}

/// Job counts per pass of `dense-amps`, chosen so the median falls in the
/// middle of the `qft-12` class and the p90 in the middle of
/// `dense-random-12`, away from every class boundary.
const DENSE_MIX: [(&str, usize); 6] = [
    ("ansatz-6", 9),
    ("qft-12", 42),
    ("dense-random-12", 6),
    ("clifford-t-18", 1),
    ("qft-20", 1),
    ("qft-22", 1),
];

/// Job counts per pass of `wide-shots`, chosen so the median falls in the
/// middle of the `w-state-64` class and the p90 in the middle of
/// `teleport-dd`. The sub-millisecond classes below the median make up
/// 72 of the 100 jobs, so the median stays inside `w-state-64` even when
/// a burst of host noise lifts a quarter of them above it.
const WIDE_MIX: [(&str, usize); 9] = [
    ("ghz-22", 24),
    ("w-state-64", 48),
    ("teleport-array", 6),
    ("teleport-dd", 12),
    ("random-clifford-200", 6),
    ("ghz-1000", 1),
    ("traj-ghz-8", 1),
    ("repetition-41x3", 1),
    ("density-ghz-8", 1),
];

/// Job counts per pass of `compile-verify`, chosen so the median falls
/// inside the `qft-6` class and the p90 inside `qft-8`.
const COMPILE_MIX: [(&str, usize); 5] = [
    ("clifford-t-6", 4),
    ("clifford-zx-6", 4),
    ("qft-6", 29),
    ("qft-8", 7),
    ("qft-16-miter", 1),
];

/// Every how-manyth compile-verify job is a single-gate mutant.
const MUTANT_EVERY: usize = 5;

/// The `i`-th of the four device shapes on `n` qubits: line, ring, grid
/// and heavy-hex.
fn device(n: usize, i: usize) -> CouplingMap {
    match i % 4 {
        0 => CouplingMap::linear(n),
        1 => CouplingMap::ring(n),
        2 => CouplingMap::grid(2, n / 2),
        _ => CouplingMap::heavy_hex(2, n / 2),
    }
}

impl Gen {
    fn push(
        &mut self,
        class: &'static str,
        circuit: &Circuit,
        route: Route,
        query: Query,
        expected: Expected,
    ) {
        let seed = self.rng.gen();
        self.jobs.push(Job {
            class,
            qasm: text(circuit),
            route,
            query,
            seed,
            expected,
            dispatch: None,
        });
    }

    fn count(mix: &[(&str, usize)], class: &str) -> usize {
        mix.iter().find(|(c, _)| *c == class).map_or(0, |(_, k)| *k)
    }

    fn dense_amps(&mut self) {
        for _ in 0..Self::count(&DENSE_MIX, "ansatz-6") {
            let params: Vec<f64> = (0..2 * 6 * 4)
                .map(|_| self.rng.gen_range(0.0..2.0 * PI))
                .collect();
            let qc = generators::hardware_efficient_ansatz(6, 4, &params);
            let want = tn_amplitudes(&qc);
            self.push(
                "ansatz-6",
                &qc,
                Route::Auto,
                Query::AllAmps,
                Expected::Amps(want),
            );
        }
        for _ in 0..Self::count(&DENSE_MIX, "qft-12") {
            let x = self.rng.gen_range(0..1u64 << 12);
            let qc = qft_on_basis_state(12, x);
            let want = (0..1u64 << 12)
                .map(|k| oracle::qft_amplitude(12, x, k))
                .collect();
            self.push(
                "qft-12",
                &qc,
                Route::Auto,
                Query::AllAmps,
                Expected::Amps(want),
            );
        }
        for _ in 0..Self::count(&DENSE_MIX, "dense-random-12") {
            let qc = generators::random_circuit(12, 12, &mut self.rng);
            let want = tn_amplitudes(&qc);
            self.push(
                "dense-random-12",
                &qc,
                Route::Auto,
                Query::AllAmps,
                Expected::Amps(want),
            );
        }
        for _ in 0..Self::count(&DENSE_MIX, "clifford-t-18") {
            // A mirror circuit V·V† followed by X on a random mask s: the
            // array does the full random Clifford+T work, and the answer
            // is the basis state |s⟩ exactly.
            let v = generators::random_clifford_t(18, 6, 0.25, &mut self.rng);
            let mut qc = v.clone();
            qc.append(&v.inverse().expect("Clifford+T circuits are unitary"));
            let s: u64 = self.rng.gen_range(1..1u64 << 18);
            for q in 0..18 {
                if s >> q & 1 == 1 {
                    qc.x(q);
                }
            }
            let (a, b) = (
                self.rng.gen_range(0..9usize),
                self.rng.gen_range(9..18usize),
            );
            let parity = (s >> a ^ s >> b) & 1;
            let zz_sign = if parity == 1 { -1.0 } else { 1.0 };
            self.push(
                "clifford-t-18",
                &qc,
                Route::Auto,
                Query::AmpAndExpect(u128::from(s), zz(18, a, b)),
                Expected::AmpAndExpect(Complex::new(1.0, 0.0), zz_sign),
            );
        }
        for (class, n) in [("qft-20", 20), ("qft-22", 22)] {
            for _ in 0..Self::count(&DENSE_MIX, class) {
                let x = self.rng.gen_range(0..1u64 << n);
                let q = self.rng.gen_range(0..n);
                let qc = qft_on_basis_state(n, x);
                let expected = Expected::AmpAndExpect(
                    oracle::qft_amplitude(n, x, 0),
                    oracle::qft_x_expectation(n, x, q),
                );
                let query = Query::AmpAndExpect(0, oracle::single_pauli(n, q, Pauli::X));
                self.push(class, &qc, Route::Auto, query, expected);
            }
        }
    }

    fn wide_shots(&mut self) {
        for _ in 0..Self::count(&WIDE_MIX, "ghz-22") {
            let qc = permuted_ghz(22, &mut self.rng);
            self.push(
                "ghz-22",
                &qc,
                Route::Auto,
                Query::Sample(1024),
                Expected::Ghz(22),
            );
        }
        let w = generators::w_state(64);
        for _ in 0..Self::count(&WIDE_MIX, "w-state-64") {
            let mut basis = vec![0u128];
            basis.extend((0..3).map(|_| 1u128 << self.rng.gen_range(0..64)));
            let want = std::iter::once(0.0).chain([0.125; 3]).collect();
            self.push(
                "w-state-64",
                &w,
                Route::Auto,
                Query::Amps(basis),
                Expected::Magnitudes(want),
            );
        }
        for (class, spec, other) in [
            ("teleport-array", "array", "dd"),
            ("teleport-dd", "dd", "array"),
        ] {
            for _ in 0..Self::count(&WIDE_MIX, class) {
                let qc = generators::teleportation(
                    self.rng.gen_range(0.0..PI),
                    self.rng.gen_range(0.0..2.0 * PI),
                );
                let shots = 4096;
                self.push(
                    class,
                    &qc,
                    Route::Shots(spec.into()),
                    Query::Dynamic(shots),
                    Expected::Hist(BTreeMap::new()),
                );
                // Histograms are bit-identical across backends for one
                // seed: the reference runs on the other backend.
                let job = self.jobs.last_mut().expect("just pushed");
                let reference = qdt::sample_dynamic(&qc, shots, other, job.seed, SHOT_WORKERS)
                    .expect("teleportation reference runs");
                job.expected = Expected::Hist(reference.counts);
            }
        }
        for _ in 0..Self::count(&WIDE_MIX, "random-clifford-200") {
            let qc = generators::random_clifford_seeded(200, 6, self.rng.gen());
            let (pauli, sign) = oracle::propagate_z(&qc, self.rng.gen_range(0..200usize));
            self.push(
                "random-clifford-200",
                &qc,
                Route::Auto,
                Query::Expect(pauli),
                Expected::Expect(sign, AMP_TOL),
            );
        }
        for _ in 0..Self::count(&WIDE_MIX, "ghz-1000") {
            let qc = permuted_ghz(1000, &mut self.rng);
            self.push(
                "ghz-1000",
                &qc,
                Route::StabilizerBits,
                Query::Sample(4096),
                Expected::Ghz(1000),
            );
        }
        let rep = generators::repetition_code(41, 3);
        for _ in 0..Self::count(&WIDE_MIX, "repetition-41x3") {
            let shots = 128;
            let zero_syndromes = BTreeMap::from([(0u128, shots)]);
            self.push(
                "repetition-41x3",
                &rep,
                Route::Shots("stabilizer".into()),
                Query::Dynamic(shots),
                Expected::Hist(zero_syndromes),
            );
        }
        for _ in 0..Self::count(&WIDE_MIX, "traj-ghz-8") {
            let qc = permuted_ghz(8, &mut self.rng);
            let pauli = zz(8, 0, self.rng.gen_range(1..8usize));
            let spec = format!(
                "traj(256,seed={},depol=0.01,workers=1):dd",
                self.rng.gen::<u32>()
            );
            let exact = noisy_reference(&qc, &pauli, "density(depol=0.01)");
            // 256 trajectories: standard error ≤ 1/16 · √(1 − ⟨P⟩²).
            self.push(
                "traj-ghz-8",
                &qc,
                Route::Spec(spec),
                Query::Expect(pauli),
                Expected::Expect(exact, 0.08),
            );
        }
        for _ in 0..Self::count(&WIDE_MIX, "density-ghz-8") {
            let qc = permuted_ghz(8, &mut self.rng);
            let pauli = zz(8, 0, self.rng.gen_range(1..8usize));
            let spec = format!(
                "traj(2048,seed={},depol=0.01,workers=1):dd",
                self.rng.gen::<u32>()
            );
            let estimate = noisy_reference(&qc, &pauli, &spec);
            self.push(
                "density-ghz-8",
                &qc,
                Route::Spec("density(depol=0.01)".into()),
                Query::Expect(pauli),
                Expected::Expect(estimate, 0.03),
            );
        }
    }

    fn compile_verify(&mut self) {
        let mut k = 0usize;
        for (class, count) in COMPILE_MIX {
            let n = match class {
                "qft-8" => 8,
                "qft-16-miter" => 16,
                _ => 6,
            };
            for i in 0..count {
                let x = self.rng.gen_range(0..1u64 << n);
                // The QFT-16 miter compiles the plain QFT to the IBM basis on
                // a fully connected device, so the DD checks a 16-qubit matrix
                // miter. It takes most of a pass, and its cost moved by a
                // quarter with the basis state prepared in front of it, so
                // it is the same job for every seed.
                let (map, x) = if n == 16 {
                    (CouplingMap::full(16), 0)
                } else {
                    (device(n, i), x)
                };
                match class {
                    "clifford-t-6" => {
                        let qc = generators::random_clifford_t(n, 6, 0.2, &mut self.rng);
                        self.compile_job(class, &qc, map, false, &mut k);
                    }
                    "clifford-zx-6" => {
                        let qc = self.zx_decidable_clifford(n);
                        self.compile_job(class, &qc, map, true, &mut k);
                    }
                    _ => self.compile_job(class, &qft_on_basis_state(n, x), map, false, &mut k),
                }
            }
        }
    }

    /// Appends one compile-verify job; every `MUTANT_EVERY`-th is a mutant.
    fn compile_job(
        &mut self,
        class: &'static str,
        source: &Circuit,
        map: CouplingMap,
        clifford: bool,
        k: &mut usize,
    ) {
        *k += 1;
        let mutant = (k.is_multiple_of(MUTANT_EVERY) && class != "qft-16-miter").then(|| {
            let routed =
                compile(source, &GateSet::ibm_basis(), &map).expect("generated sources compile");
            (
                self.rng.gen_range(0..=routed.circuit.len()),
                self.rng.gen_range(0..map.num_qubits()),
            )
        });
        let request = CompileRequest {
            map,
            mutant,
            clifford,
        };
        let class = if mutant.is_some() {
            mutant_class(class)
        } else {
            class
        };
        self.push(
            class,
            source,
            Route::Compile(request),
            Query::Verdict,
            Expected::Equivalent(mutant.is_none()),
        );
    }

    /// A random `{H, S, CX}` circuit whose ZX miter against its own
    /// `zx::optimize_circuit` output reduces to bare wires, so the ZX
    /// check decides by structure rather than by brute-force evaluation.
    fn zx_decidable_clifford(&mut self, n: usize) -> Circuit {
        for _ in 0..64 {
            let qc = generators::random_clifford_seeded(n, 4, self.rng.gen());
            let optimized = qdt::zx::optimize_circuit(&qc).expect("Clifford circuits optimise");
            let mut miter = qdt::zx::Diagram::from_circuit(&qc).expect("ZX diagram");
            let other = qdt::zx::Diagram::from_circuit(&optimized).expect("ZX diagram");
            miter.compose(&other.adjoint()).expect("same width");
            qdt::zx::simplify::full_reduce(&mut miter);
            if miter.num_spiders() == 0 {
                return qc;
            }
        }
        panic!("no ZX-decidable Clifford circuit on {n} qubits in 64 draws");
    }
}

fn mutant_class(class: &str) -> &'static str {
    match class {
        "clifford-t-6" => "clifford-t-6-mutant",
        "clifford-zx-6" => "clifford-zx-6-mutant",
        "qft-6" => "qft-6-mutant",
        _ => "qft-8-mutant",
    }
}

/// A noisy expectation value from a reference engine.
fn noisy_reference(circuit: &Circuit, pauli: &PauliString, spec: &str) -> f64 {
    let mut e = qdt::create_engine(spec).expect("reference spec");
    qdt::engine::run(e.as_mut(), circuit).expect("reference runs");
    e.expectation(pauli).expect("reference expectation")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_texts() {
        for w in [Workload::WideShots, Workload::CompileVerify] {
            let a = generate(w, 7);
            let b = generate(w, 7);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.qasm, y.qasm, "{}", w.name());
                assert_eq!(x.seed, y.seed);
            }
            let c = generate(w, 8);
            assert!(
                a.iter().zip(&c).any(|(x, y)| x.qasm != y.qasm),
                "seed must matter"
            );
        }
    }

    #[test]
    fn fuse_width_reads_the_spec() {
        assert_eq!(fuse_width("array(fuse=5)"), 5);
        assert_eq!(fuse_width("array(threads=2,fuse=3)"), 3);
        assert_eq!(fuse_width("array"), 0);
        assert_eq!(engine_kind("array(fuse=5)"), "array");
        assert_eq!(engine_kind("mps:2"), "mps");
        assert_eq!(engine_kind("traj(256,seed=1):dd"), "traj");
    }

    #[test]
    fn mutants_are_rejected_and_originals_accepted() {
        let jobs = generate(Workload::CompileVerify, 3);
        assert!(jobs
            .iter()
            .any(|j| matches!(j.expected, Expected::Equivalent(false))));
        for job in jobs.iter().filter(|j| j.class != "qft-16-miter").step_by(3) {
            let outcome = execute(job, &Tracer::disabled()).expect("job runs");
            check_answer(job, &outcome).unwrap_or_else(|e| panic!("{}: {e}", job.class));
        }
    }

    #[test]
    fn wide_jobs_answer_correctly() {
        for job in generate(Workload::WideShots, 5) {
            let outcome = execute(&job, &Tracer::disabled()).expect("job runs");
            check_answer(&job, &outcome).unwrap_or_else(|e| panic!("{}: {e}", job.class));
        }
    }
}
