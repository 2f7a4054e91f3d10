//! The [`SimulationEngine`] trait — the pluggable backend abstraction of
//! the qdt suite.
//!
//! The reproduced paper's central theme is that arrays, decision
//! diagrams, tensor networks, and the ZX-calculus are *interchangeable*
//! substrates for the same design tasks. This crate turns that theme
//! into one interface: every simulation backend implements one trait,
//! and every caller drives backends through one shared run-loop, so
//! callers never name a backend's concrete type.
//!
//! The pieces:
//!
//! * [`SimulationEngine`] — capabilities plus
//!   `prepare`/`apply_instruction`/`amplitudes`/`amplitude`/`sample`/
//!   `expectation`, with default implementations where one primitive
//!   derives from another (a single amplitude from the dense vector,
//!   sampling from the amplitude distribution, expectations from dense
//!   amplitudes);
//! * [`run`] — the shared run-loop that walks the gate stream once,
//!   handles barriers and measurement uniformly, and reports
//!   [`RunStats`] (gate counter plus the engine's cost-metric
//!   high-water mark);
//! * [`run_traced`] — the same loop with telemetry: attaches a
//!   [`TelemetrySink`] to the engine, wraps the run and every gate in
//!   spans, and captures a per-gate [`GateLog`] of all registered
//!   metrics;
//! * [`ShotExecutor`] — the per-shot loop of dynamic circuits, fed by
//!   an [`EngineFactory`] when shots stripe across workers;
//! * [`sample_from_amplitudes`] — the shared amplitude-based sampler
//!   used by engines without a native sampling path.
//!
//! Engine *implementations* live with their data structures
//! (`qdt-array`, `qdt-dd`, `qdt-tensor`, …); the umbrella crate `qdt`
//! builds them from spec strings.

use std::collections::BTreeMap;
use std::fmt;

use qdt_circuit::{Channel, Circuit, CircuitError, Gate, Instruction, OpKind, Pauli, PauliString};
use qdt_complex::{Complex, Matrix};
use rand::{Rng, RngCore};

pub use qdt_telemetry as telemetry;
pub use qdt_telemetry::{GateLog, GateRecord, TelemetrySink};

pub mod shot;
pub use shot::{EngineFactory, ShotConfig, ShotExecutor, ShotResult, ShotStats};

/// Errors produced by simulation engines and the shared run-loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The instruction is not unitary (measurement, reset, or a
    /// classically conditioned gate) and the engine simulates pure
    /// unitary evolution.
    NonUnitary {
        /// Human-readable name of the offending operation.
        op: String,
    },
    /// The request exceeds the engine's width limit for this primitive
    /// (e.g. a dense `2^n` output past the dense-expansion cap).
    TooWide {
        /// The requested qubit count.
        num_qubits: usize,
        /// The engine's limit for this primitive.
        limit: usize,
        /// Which primitive hit the limit.
        what: &'static str,
    },
    /// The engine does not support this primitive at all.
    Unsupported {
        /// The engine's name.
        engine: &'static str,
        /// Which primitive is unsupported.
        what: String,
    },
    /// An operand width does not match the engine's register width.
    WidthMismatch {
        /// The engine's register width.
        engine_qubits: usize,
        /// The operand's width.
        operand_qubits: usize,
    },
    /// An instruction names a qubit outside the engine's register, or
    /// the same qubit twice.
    InvalidQubits(CircuitError),
    /// A backend-specific failure, wrapped with the engine's name.
    Backend {
        /// The engine's name.
        engine: &'static str,
        /// The underlying error message.
        message: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NonUnitary { op } => {
                write!(f, "non-unitary instruction `{op}` in a unitary run")
            }
            EngineError::TooWide {
                num_qubits,
                limit,
                what,
            } => write!(
                f,
                "{num_qubits} qubits exceed the {limit}-qubit {what} limit"
            ),
            EngineError::Unsupported { engine, what } => {
                write!(f, "the {engine} engine does not support {what}")
            }
            EngineError::WidthMismatch {
                engine_qubits,
                operand_qubits,
            } => write!(
                f,
                "operand width {operand_qubits} does not match engine width {engine_qubits}"
            ),
            EngineError::InvalidQubits(e) => write!(f, "invalid instruction: {e}"),
            EngineError::Backend { engine, message } => write!(f, "{engine} engine: {message}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// One engine-reported size figure — the quantity whose growth the
/// paper's trade-off discussion revolves around (amplitude count for
/// arrays, node count for decision diagrams, tensor count for networks,
/// bond dimension for MPS).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostMetric {
    /// What the value measures (e.g. `"dd-nodes"`, `"bond"`).
    pub name: &'static str,
    /// The current value.
    pub value: usize,
}

/// Statistics gathered by the shared run-loop: the gate counter and the
/// cost-metric high-water mark that observability and scheduling layers
/// key off.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Gates, swaps and noise channels applied.
    pub gates_applied: usize,
    /// Barriers skipped (they have no semantic effect on any engine).
    pub barriers_skipped: usize,
    /// Name of the engine's cost metric (see [`CostMetric::name`]).
    pub metric_name: &'static str,
    /// Largest cost-metric value observed after any gate.
    pub peak_metric: usize,
    /// Stream index of the gate after which [`peak_metric`] was first
    /// observed (0 for an empty circuit).
    ///
    /// [`peak_metric`]: RunStats::peak_metric
    pub peak_gate_index: usize,
    /// Cost-metric value after the final gate.
    pub final_metric: usize,
    /// Largest [`SimulationEngine::memory_bytes`] observed after any
    /// gate (0 for engines that don't report memory).
    pub peak_memory_bytes: usize,
}

/// Static capability flags of an engine, so callers can pick a backend
/// (or a fallback) without trying and failing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineCaps {
    /// Widest register `prepare` accepts.
    pub max_qubits: usize,
    /// `true` if the engine implements
    /// [`apply_kraus`](SimulationEngine::apply_kraus), i.e. it can serve
    /// as the substrate of stochastic noise trajectories.
    pub stochastic_kraus: bool,
    /// `true` if the engine supports *dynamic circuits*: per-shot
    /// projective collapse via
    /// [`project`](SimulationEngine::project) /
    /// [`probability_of_one`](SimulationEngine::probability_of_one),
    /// which the [`shot::ShotExecutor`] composes into mid-circuit
    /// measurement, reset, and classically conditioned execution.
    pub dynamic: bool,
}

/// A pluggable simulation backend over the circuit IR.
///
/// One engine instance holds one evolving state. The lifecycle is:
/// [`prepare`](SimulationEngine::prepare) to `|0…0⟩`, then a stream of
/// [`apply_instruction`](SimulationEngine::apply_instruction) calls
/// (normally driven by the shared [`run`] loop), then any number of
/// queries (`amplitudes`, `amplitude`, `sample`, `expectation`).
///
/// Query methods take `&mut self` because several backing data
/// structures memoise internally (the DD package's compute tables, for
/// instance).
///
/// # Example
///
/// ```
/// use qdt_engine::{run, SimulationEngine};
/// # use qdt_engine::test_engine::ReferenceEngine;
/// let mut qc = qdt_circuit::Circuit::new(2);
/// qc.h(0).cx(0, 1);
/// let mut engine = ReferenceEngine::default();
/// let stats = run(&mut engine, &qc)?;
/// assert_eq!(stats.gates_applied, 2);
/// let amps = engine.amplitudes()?;
/// assert!((amps[0].abs() - 1.0 / 2f64.sqrt()).abs() < 1e-9);
/// # Ok::<(), qdt_engine::EngineError>(())
/// ```
pub trait SimulationEngine {
    /// Short stable name of the engine (e.g. `"array"`).
    fn name(&self) -> &'static str;

    /// A human-readable description for reports and benchmark tables.
    /// The default is just [`name`](SimulationEngine::name); wrapper
    /// engines (the umbrella crate's `auto` dispatcher, for instance)
    /// override it to expose the backend they resolved to.
    fn describe(&self) -> String {
        self.name().to_string()
    }

    /// The engine's static capability flags.
    fn caps(&self) -> EngineCaps;

    /// The current register width.
    fn num_qubits(&self) -> usize;

    /// Resets the engine to `|0…0⟩` on `num_qubits` qubits, discarding
    /// any previous state.
    ///
    /// # Errors
    ///
    /// [`EngineError::TooWide`] past the engine's width limit.
    fn prepare(&mut self, num_qubits: usize) -> Result<(), EngineError>;

    /// Prepares `|0…0⟩` for a run of `circuit`, which the engine may
    /// inspect first: the run-loop calls this, not
    /// [`prepare`](SimulationEngine::prepare). The default prepares
    /// `circuit.num_qubits().max(1)` qubits; the umbrella crate's `auto`
    /// dispatcher overrides it to pick its backend from the whole
    /// circuit. An engine that delegates to an inner engine must
    /// forward this as well as `prepare`: the default calls `prepare`,
    /// so the inner engine's own `prepare_for` would be skipped.
    ///
    /// # Errors
    ///
    /// Same as [`prepare`](SimulationEngine::prepare).
    fn prepare_for(&mut self, circuit: &Circuit) -> Result<(), EngineError> {
        self.prepare(circuit.num_qubits().max(1))
    }

    /// Completes any gate work the engine deferred (the array engine's
    /// pending fused group): the run-loop calls this before it returns,
    /// so a run's work is charged to the run and not to the first query
    /// after it. The default does nothing. An engine that delegates to
    /// an inner engine must forward it.
    ///
    /// # Errors
    ///
    /// Whatever applying the deferred gates can raise.
    fn flush(&mut self) -> Result<(), EngineError> {
        Ok(())
    }

    /// Applies one IR instruction: a gate or swap, or a noise channel
    /// on the engines that hold a mixed state (barriers are filtered out
    /// by the run-loop and need not be handled).
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidQubits`] for a qubit outside the register or
    /// named twice (see [`check_instruction_width`]),
    /// [`EngineError::NonUnitary`] for non-unitary instructions,
    /// [`refuse_channel`]'s error for a channel on a pure-state engine,
    /// and engine-specific errors for unsupported gate shapes.
    fn apply_instruction(&mut self, inst: &Instruction) -> Result<(), EngineError>;

    /// The engine's current size figure (see [`CostMetric`]). Called by
    /// the run-loop after every gate to track the high-water mark, so it
    /// must be cheap.
    fn cost_metric(&self) -> CostMetric;

    /// Resident bytes of the engine's core state representation —
    /// amplitude chunks, DD arenas plus tables, bond tensors, tableau
    /// words. Like [`cost_metric`](SimulationEngine::cost_metric) it is
    /// polled by the run-loop after every gate and must be cheap
    /// (arithmetic on already-tracked sizes, no traversal). The default
    /// reports 0 for engines without memory accounting.
    fn memory_bytes(&self) -> usize {
        0
    }

    /// Probability weight the engine has discarded from the state so
    /// far: the bounded-bond MPS's truncated singular values. The
    /// default, 0, is for engines that never truncate.
    fn discarded_weight(&self) -> f64 {
        0.0
    }

    /// The dense `2^n` amplitude vector of the current state.
    ///
    /// # Errors
    ///
    /// [`EngineError::TooWide`] past the engine's dense-expansion limit.
    fn amplitudes(&mut self) -> Result<Vec<Complex>, EngineError>;

    /// The single amplitude `⟨basis|ψ⟩`.
    ///
    /// The default derives it from the dense vector; engines whose data
    /// structure reaches single amplitudes past the dense limit (DD,
    /// TN, MPS) override it.
    ///
    /// # Errors
    ///
    /// [`EngineError::TooWide`] if the default dense path is too wide,
    /// or [`EngineError::Backend`] for an out-of-range basis index.
    fn amplitude(&mut self, basis: u128) -> Result<Complex, EngineError> {
        check_basis(self.name(), self.num_qubits(), basis)?;
        Ok(self.amplitudes()?[basis as usize])
    }

    /// Samples `shots` full-register measurements of the current state
    /// (without collapse between shots), keyed by basis index.
    ///
    /// The default routes through the shared amplitude-based sampler
    /// ([`sample_from_amplitudes`]), so every engine supports sampling
    /// up to its dense limit; engines with a native sampler (array, DD)
    /// override it to scale further.
    ///
    /// # Errors
    ///
    /// [`EngineError::TooWide`] when the default dense path is too wide.
    fn sample(
        &mut self,
        shots: usize,
        rng: &mut dyn RngCore,
    ) -> Result<BTreeMap<u128, usize>, EngineError> {
        Ok(sample_from_amplitudes(&self.amplitudes()?, shots, rng))
    }

    /// The expectation value `⟨ψ|P|ψ⟩` of a Pauli string on the current
    /// state.
    ///
    /// The default computes it densely; every bundled engine overrides
    /// it with a native path.
    ///
    /// # Errors
    ///
    /// [`EngineError::WidthMismatch`] if the string's width differs from
    /// the register's, [`EngineError::TooWide`] when the default dense
    /// path is too wide.
    fn expectation(&mut self, pauli: &PauliString) -> Result<f64, EngineError> {
        check_pauli_width(self.num_qubits(), pauli)?;
        let amps = self.amplitudes()?;
        Ok(dense_expectation(&amps, pauli))
    }

    /// Stochastically applies one operator of a single-qubit Kraus
    /// channel to `qubit`: operator `K_i` is chosen with the Born
    /// probability `‖K_i|ψ⟩‖²`, applied, and the state renormalised —
    /// the per-gate step of Monte-Carlo noise-trajectory simulation
    /// (the paper's ref \[13\], Grurl/Fuß/Wille). Returns the index of
    /// the chosen operator.
    ///
    /// Engines that keep a pure state (array, DD, MPS) implement this
    /// natively and advertise it via
    /// [`EngineCaps::stochastic_kraus`]; the default rejects with
    /// [`EngineError::Unsupported`].
    ///
    /// # Errors
    ///
    /// [`EngineError::Unsupported`] when the engine has no stochastic
    /// noise path, [`EngineError::Backend`] for an out-of-range qubit
    /// or an empty operator list.
    fn apply_kraus(
        &mut self,
        kraus: &[Matrix],
        qubit: usize,
        rng: &mut dyn RngCore,
    ) -> Result<usize, EngineError> {
        let _ = (kraus, qubit, rng);
        Err(EngineError::Unsupported {
            engine: self.name(),
            what: "stochastic Kraus application".into(),
        })
    }

    /// The probability of measuring `qubit` as `|1⟩` in the current
    /// state — the marginal the dynamic shot loop draws measurement
    /// outcomes from.
    ///
    /// The default derives it from the `Z` expectation on `qubit`
    /// (`P(1) = (1 − ⟨Z⟩)/2`), so every engine with an `expectation`
    /// path gets it for free; engines with a cheaper native marginal
    /// (array, DD) override it.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidQubits`] for an out-of-range qubit;
    /// expectation errors otherwise.
    fn probability_of_one(&mut self, qubit: usize) -> Result<f64, EngineError> {
        let n = self.num_qubits();
        check_qubit(n, qubit)?;
        let mut ops = vec![qdt_circuit::Pauli::I; n];
        ops[qubit] = qdt_circuit::Pauli::Z;
        let z = self.expectation(&PauliString::new(ops))?;
        Ok(((1.0 - z) / 2.0).clamp(0.0, 1.0))
    }

    /// Projects `qubit` onto `outcome` and renormalises — the collapse
    /// primitive of the dynamic execution model. Callers draw the
    /// outcome from [`probability_of_one`] first (see [`collapse_qubit`]),
    /// so a correctly used `project` never targets a zero-probability
    /// branch.
    ///
    /// Engines advertising [`EngineCaps::dynamic`] implement this; the
    /// default rejects with a message naming the dynamic path.
    ///
    /// # Errors
    ///
    /// [`EngineError::Unsupported`] when the engine has no collapse
    /// path, [`EngineError::InvalidQubits`] for an out-of-range qubit,
    /// [`EngineError::Backend`] for a (numerically) zero-probability
    /// outcome.
    ///
    /// [`probability_of_one`]: SimulationEngine::probability_of_one
    fn project(&mut self, qubit: usize, outcome: bool) -> Result<(), EngineError> {
        let _ = (qubit, outcome);
        Err(EngineError::Unsupported {
            engine: self.name(),
            what: "projective collapse — dynamic circuits need an engine with \
                   `EngineCaps::dynamic` (array, decision-diagram, mps, or stabilizer)"
                .into(),
        })
    }

    /// A boxed copy of the engine in its current state, if cloning is
    /// cheap enough to anchor per-shot execution.
    ///
    /// The [`shot::ShotExecutor`] snapshots the engine after the static
    /// unitary prefix and restores from the snapshot for each suffix
    /// replay; engines returning `None` fall back to replaying the
    /// prefix.
    fn snapshot(&self) -> Option<Box<dyn SimulationEngine>> {
        None
    }

    /// Saves an in-place checkpoint of the current state and returns
    /// `true`, or returns `false` when the engine does not support
    /// in-place restore.
    ///
    /// This is the cheapest per-shot anchor: the [`shot::ShotExecutor`]
    /// checkpoints the post-prefix state once per suffix replay, runs
    /// the dynamic suffix *on the engine itself*, and calls
    /// [`rollback`](SimulationEngine::rollback) afterwards. Unlike
    /// [`snapshot`](SimulationEngine::snapshot), backend-internal
    /// structures (arenas, unique tables, compute caches) survive
    /// across replays, so repeated suffix work hits warm caches instead
    /// of being recomputed against a fresh copy every time.
    fn checkpoint(&mut self) -> bool {
        false
    }

    /// Restores the state saved by the most recent
    /// [`checkpoint`](SimulationEngine::checkpoint).
    ///
    /// # Errors
    ///
    /// [`EngineError::Unsupported`] when the engine does not support
    /// checkpoints (the default), or when no checkpoint is pending.
    fn rollback(&mut self) -> Result<(), EngineError> {
        Err(EngineError::Unsupported {
            engine: self.name(),
            what: "in-place checkpoint/rollback (see `SimulationEngine::checkpoint`)".into(),
        })
    }

    /// Attaches a telemetry sink to the engine.
    ///
    /// Instrumented engines keep an enabled clone of the sink
    /// ([`TelemetrySink::enabled_clone`]) and push backend-internal
    /// metrics — table hit rates, bond spectra, flop counts — under the
    /// `backend.subsystem.name` convention while applying gates. The
    /// default does nothing, so backends without internal telemetry
    /// cost nothing and need no changes. Attaching a *disabled* sink is
    /// equivalent to never calling this.
    fn telemetry(&mut self, sink: &TelemetrySink) {
        let _ = sink;
    }
}

/// Projective measurement of one qubit: draws the outcome from the
/// engine's marginal ([`SimulationEngine::probability_of_one`]),
/// collapses via [`SimulationEngine::project`], and returns the
/// measured bit — the shared step behind mid-circuit `measure` on every
/// dynamic-capable substrate.
///
/// # Errors
///
/// Propagates the engine's marginal/projection errors.
pub fn collapse_qubit(
    engine: &mut dyn SimulationEngine,
    qubit: usize,
    rng: &mut dyn RngCore,
) -> Result<bool, EngineError> {
    let p1 = engine.probability_of_one(qubit)?;
    let outcome = rng.gen_bool(p1.clamp(0.0, 1.0));
    engine.project(qubit, outcome)?;
    Ok(outcome)
}

/// Resets one qubit to `|0⟩` by measuring it and flipping on a `1`
/// outcome (the measure-and-correct reset of real hardware). Returns
/// the pre-reset measurement outcome.
///
/// # Errors
///
/// Propagates the engine's collapse and gate-application errors.
pub fn reset_to_zero(
    engine: &mut dyn SimulationEngine,
    qubit: usize,
    rng: &mut dyn RngCore,
) -> Result<bool, EngineError> {
    let outcome = collapse_qubit(engine, qubit, rng)?;
    if outcome {
        let flip = Instruction::new(OpKind::Unitary {
            gate: qdt_circuit::Gate::X,
            target: qubit,
            controls: vec![],
        });
        engine.apply_instruction(&flip)?;
    }
    Ok(outcome)
}

/// Draws one branch of a noise channel on `qubit` of a pure-state
/// engine from `rng`: a noise trajectory's step, and how the shot loop
/// runs an [`OpKind::Channel`]. A channel of scaled Paulis
/// ([`Channel::pauli_mix`]) has state-independent Born weights, so the
/// branch is drawn with [`choose_weighted`] first and only the drawn
/// Pauli is applied, as a gate (nothing for `I`); any other channel goes
/// through [`SimulationEngine::apply_kraus`]. Either way one channel
/// consumes one draw.
///
/// # Errors
///
/// The engine's error from applying the Pauli gate or the Kraus channel.
pub fn apply_channel(
    engine: &mut dyn SimulationEngine,
    channel: &Channel,
    qubit: usize,
    rng: &mut dyn RngCore,
) -> Result<(), EngineError> {
    let Some((paulis, weights)) = channel.pauli_mix() else {
        return engine.apply_kraus(channel.kraus(), qubit, rng).map(drop);
    };
    let gate = match paulis[choose_weighted(weights, rng)] {
        Pauli::I => return Ok(()),
        Pauli::X => Gate::X,
        Pauli::Y => Gate::Y,
        Pauli::Z => Gate::Z,
    };
    engine.apply_instruction(&Instruction::new(OpKind::Unitary {
        gate,
        target: qubit,
        controls: Vec::new(),
    }))
}

/// A pure-state engine's guard in `apply_instruction`: a noise channel
/// is refused, naming the two places that draw it.
///
/// # Errors
///
/// [`EngineError::Unsupported`] for an [`OpKind::Channel`].
pub fn refuse_channel(engine: &'static str, inst: &Instruction) -> Result<(), EngineError> {
    let OpKind::Channel { .. } = inst.kind else {
        return Ok(());
    };
    Err(EngineError::Unsupported {
        engine,
        what: "noise channels on a pure state; sample the circuit with the shot loop \
               (`ShotExecutor`) or run it on `traj(...)`"
            .into(),
    })
}

/// Inverse-transform choice among non-negative weights: draws an index
/// with probability `weights[i] / Σ weights` — the shared Kraus-operator
/// selection step of every [`SimulationEngine::apply_kraus`]
/// implementation.
///
/// # Panics
///
/// Panics on an empty weight list.
pub fn choose_weighted(weights: &[f64], rng: &mut dyn RngCore) -> usize {
    assert!(!weights.is_empty(), "choose_weighted: no weights");
    let total: f64 = weights.iter().sum();
    let mut r: f64 = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
    let mut chosen = weights.len() - 1;
    for (i, w) in weights.iter().enumerate() {
        if r < *w {
            chosen = i;
            break;
        }
        r -= w;
    }
    chosen
}

/// Validates a Pauli string's width against an engine register width.
///
/// # Errors
///
/// [`EngineError::WidthMismatch`] on disagreement.
pub fn check_pauli_width(engine_qubits: usize, pauli: &PauliString) -> Result<(), EngineError> {
    if pauli.num_qubits() != engine_qubits {
        return Err(EngineError::WidthMismatch {
            engine_qubits,
            operand_qubits: pauli.num_qubits(),
        });
    }
    Ok(())
}

/// Validates an instruction's qubits against a register of
/// `num_qubits` qubits, with the rule [`Circuit::push`] applies: every
/// qubit in range, none repeated. Every engine's `apply_instruction`
/// calls it before applying or buffering; for a gate it costs a few
/// comparisons.
///
/// # Errors
///
/// [`EngineError::InvalidQubits`] naming the first offending qubit.
pub fn check_instruction_width(num_qubits: usize, inst: &Instruction) -> Result<(), EngineError> {
    inst.check_qubits(num_qubits)
        .map_err(EngineError::InvalidQubits)
}

/// Validates a basis index against a register of `num_qubits` qubits
/// (the guard of single-amplitude queries).
///
/// # Errors
///
/// [`EngineError::Backend`] naming `engine` when `basis ≥ 2^num_qubits`.
pub fn check_basis(
    engine: &'static str,
    num_qubits: usize,
    basis: u128,
) -> Result<(), EngineError> {
    if num_qubits >= 128 || basis >> num_qubits == 0 {
        return Ok(());
    }
    Err(EngineError::Backend {
        engine,
        message: format!("basis index {basis} out of range for {num_qubits} qubits"),
    })
}

/// Validates one qubit index against a register of `engine_qubits`
/// qubits (the guard of `probability_of_one` and `project`).
///
/// # Errors
///
/// [`EngineError::InvalidQubits`] when `qubit ≥ engine_qubits`.
pub fn check_qubit(engine_qubits: usize, qubit: usize) -> Result<(), EngineError> {
    if qubit < engine_qubits {
        return Ok(());
    }
    Err(EngineError::InvalidQubits(CircuitError::QubitOutOfRange {
        qubit,
        num_qubits: engine_qubits,
    }))
}

/// Validates a Kraus application (the guard of every `apply_kraus`): at
/// least one operator, on a qubit of a register of `engine_qubits`.
///
/// # Errors
///
/// [`EngineError::Backend`] naming `engine` otherwise.
pub fn check_kraus(
    engine: &'static str,
    engine_qubits: usize,
    kraus: &[Matrix],
    qubit: usize,
) -> Result<(), EngineError> {
    if !kraus.is_empty() && qubit < engine_qubits {
        return Ok(());
    }
    Err(EngineError::Backend {
        engine,
        message: format!(
            "invalid Kraus application: {} operators on qubit {qubit} of {engine_qubits}",
            kraus.len()
        ),
    })
}

/// `⟨ψ|P|ψ⟩` evaluated on a dense amplitude vector (the derivation the
/// trait's default `expectation` uses).
pub fn dense_expectation(amps: &[Complex], pauli: &PauliString) -> f64 {
    let mut transformed = amps.to_vec();
    for (q, p) in pauli.support() {
        let m = p.matrix();
        let (m00, m01) = (m.get(0, 0), m.get(0, 1));
        let (m10, m11) = (m.get(1, 0), m.get(1, 1));
        let bit = 1usize << q;
        for i0 in 0..transformed.len() {
            if i0 & bit == 0 {
                let i1 = i0 | bit;
                let (a0, a1) = (transformed[i0], transformed[i1]);
                transformed[i0] = m00 * a0 + m01 * a1;
                transformed[i1] = m10 * a0 + m11 * a1;
            }
        }
    }
    amps.iter()
        .zip(&transformed)
        .map(|(a, t)| (a.conj() * *t).re)
        .sum()
}

/// The shared amplitude-based sampler: draws `shots` basis states from
/// the `|α_i|²` distribution by inverse transform sampling.
pub fn sample_from_amplitudes(
    amps: &[Complex],
    shots: usize,
    rng: &mut dyn RngCore,
) -> BTreeMap<u128, usize> {
    let mut counts = BTreeMap::new();
    for _ in 0..shots {
        let mut r: f64 = rng.gen();
        let mut chosen = amps.len().saturating_sub(1);
        for (i, a) in amps.iter().enumerate() {
            let p = a.norm_sqr();
            if r < p {
                chosen = i;
                break;
            }
            r -= p;
        }
        *counts.entry(chosen as u128).or_insert(0) += 1;
    }
    counts
}

/// Runs a circuit through an engine with the shared run-loop: prepares
/// `|0…0⟩`, walks the instruction stream once, skips barriers, rejects
/// measurements, resets and conditions uniformly, applies gates and
/// noise channels through the engine, and tracks the cost-metric
/// high-water mark.
///
/// All engine-dispatching entry points (the `qdt` façade, the verifier's
/// stimuli runs, the benchmark harness) funnel through here or through
/// [`run_traced`], which shares the loop, so measurement/barrier
/// semantics are defined in exactly one place.
///
/// # Errors
///
/// [`EngineError::NonUnitary`] for measurement, reset, or conditioned
/// instructions; engine errors from `prepare_for`/`apply_instruction`.
pub fn run(engine: &mut dyn SimulationEngine, circuit: &Circuit) -> Result<RunStats, EngineError> {
    run_loop(engine, circuit, None)
}

/// The loop behind [`run`] and [`run_traced`]; `trace` spans and logs
/// every applied gate when present.
fn run_loop(
    engine: &mut dyn SimulationEngine,
    circuit: &Circuit,
    mut trace: Option<&mut GateTrace<'_>>,
) -> Result<RunStats, EngineError> {
    engine.prepare_for(circuit)?;
    let mut stats = RunStats {
        metric_name: engine.cost_metric().name,
        ..RunStats::default()
    };
    for (i, inst) in circuit.iter().enumerate() {
        if inst.cond.is_some() {
            return Err(EngineError::NonUnitary {
                op: format!("conditioned {}", inst.name()),
            });
        }
        match &inst.kind {
            OpKind::Barrier(_) => {
                stats.barriers_skipped += 1;
                continue;
            }
            OpKind::Measure { .. } | OpKind::Reset { .. } => {
                return Err(EngineError::NonUnitary { op: inst.name() });
            }
            OpKind::Unitary { .. } | OpKind::Swap { .. } | OpKind::Channel { .. } => {}
        }
        let span = trace.as_deref().map(|trace| trace.gate_start(inst));
        engine.apply_instruction(inst)?;
        let metric = engine.cost_metric();
        stats.gates_applied += 1;
        if stats.gates_applied == 1 || metric.value > stats.peak_metric {
            stats.peak_metric = metric.value;
            stats.peak_gate_index = i;
        }
        stats.final_metric = metric.value;
        stats.peak_memory_bytes = stats.peak_memory_bytes.max(engine.memory_bytes());
        if let (Some(trace), Some(span)) = (trace.as_deref_mut(), span) {
            trace.gate_end(span, i, inst, metric, &stats);
        }
    }
    engine.flush()?;
    if stats.gates_applied == 0 {
        let metric = engine.cost_metric();
        stats.peak_metric = metric.value;
        stats.final_metric = metric.value;
        stats.peak_memory_bytes = engine.memory_bytes();
    }
    Ok(stats)
}

/// The per-gate state of [`run_traced`]: spans every gate on the sink's
/// tracer and snapshots every registered metric after each gate into a
/// [`GateLog`].
struct GateTrace<'a> {
    sink: &'a TelemetrySink,
    log: GateLog,
    /// Interned id of the `engine.cost.<metric>` gauge, resolved on the
    /// first gate (the metric name isn't known earlier).
    cost_id: Option<qdt_telemetry::MetricId>,
    /// Interned id of the `engine.mem.peak_bytes` max-gauge.
    mem_id: qdt_telemetry::MetricId,
}

impl GateTrace<'_> {
    /// Opens the gate's span, immediately before it is applied.
    fn gate_start(&self, inst: &Instruction) -> (qdt_telemetry::SpanGuard, std::time::Instant) {
        let guard = self.sink.tracer().span_in("gate", &inst.name());
        (guard, std::time::Instant::now())
    }

    /// Closes the gate's span and records its [`GateRecord`], given the
    /// engine's cost metric and the running totals including this gate.
    fn gate_end(
        &mut self,
        (guard, t0): (qdt_telemetry::SpanGuard, std::time::Instant),
        gate_index: usize,
        inst: &Instruction,
        metric: CostMetric,
        stats: &RunStats,
    ) {
        let dt_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // Dropping the guard records the span-end event.
        drop(guard);
        #[allow(clippy::cast_precision_loss)]
        let cost = metric.value as f64;
        let cost_id = *self.cost_id.get_or_insert_with(|| {
            self.sink
                .metrics()
                .register(&format!("engine.cost.{}", metric.name))
        });
        self.sink.metrics().gauge_set_id(cost_id, cost);
        #[allow(clippy::cast_precision_loss)]
        self.sink
            .metrics()
            .gauge_max_id(self.mem_id, stats.peak_memory_bytes as f64);
        self.log.push(GateRecord {
            index: gate_index,
            gate: inst.name(),
            dt_ns,
            metrics: self.sink.metrics().flattened(),
        });
    }
}

/// The telemetry-aware run-loop.
///
/// Attaches `sink` to the engine (see
/// [`SimulationEngine::telemetry`]), wraps the whole run in a span named
/// after the engine, spans every gate, and records one [`GateRecord`]
/// per applied gate: stream index, gate name, wall-clock Δt, and a
/// flattened snapshot of *every* registered metric after that gate
/// (backend internals plus the run-loop's own `engine.cost.<metric>`
/// gauge and the `engine.mem.peak_bytes` memory high-water mark).
///
/// With a [disabled](TelemetrySink::disabled) sink this degrades to
/// [`run`] semantics: the result is identical, nothing is recorded, and
/// the returned log still carries the (metric-free) per-gate skeleton.
///
/// # Errors
///
/// Same as [`run`].
pub fn run_traced(
    engine: &mut dyn SimulationEngine,
    circuit: &Circuit,
    sink: &TelemetrySink,
) -> Result<(RunStats, GateLog), EngineError> {
    engine.telemetry(sink);
    let run_span = sink.tracer().span_in("run", engine.name());
    let mut trace = GateTrace {
        sink,
        log: GateLog::new(),
        cost_id: None,
        mem_id: sink.metrics().register("engine.mem.peak_bytes"),
    };
    let stats = run_loop(engine, circuit, Some(&mut trace))?;
    drop(run_span);
    Ok((stats, trace.log))
}

/// A minimal dense reference engine, used by this crate's tests and doc
/// examples. Real engines live with their data structures.
pub mod test_engine {
    use super::{
        check_instruction_width, check_kraus, check_pauli_width, check_qubit, choose_weighted,
        CostMetric, EngineCaps, EngineError, SimulationEngine,
    };
    use qdt_circuit::{Instruction, OpKind, PauliString};
    use qdt_complex::{Complex, Matrix};
    use rand::RngCore;

    /// A naive dense engine over a plain `Vec<Complex>`: the simplest
    /// possible [`SimulationEngine`], relying on every trait default.
    #[derive(Debug, Clone, Default)]
    pub struct ReferenceEngine {
        num_qubits: usize,
        amps: Vec<Complex>,
    }

    /// Dense width cap of the reference engine.
    const LIMIT: usize = 16;

    impl SimulationEngine for ReferenceEngine {
        fn name(&self) -> &'static str {
            "reference"
        }

        fn caps(&self) -> EngineCaps {
            EngineCaps {
                max_qubits: LIMIT,
                stochastic_kraus: true,
                dynamic: true,
            }
        }

        fn num_qubits(&self) -> usize {
            self.num_qubits
        }

        fn prepare(&mut self, num_qubits: usize) -> Result<(), EngineError> {
            if num_qubits > LIMIT {
                return Err(EngineError::TooWide {
                    num_qubits,
                    limit: LIMIT,
                    what: "reference-engine register",
                });
            }
            self.num_qubits = num_qubits;
            self.amps = vec![Complex::ZERO; 1 << num_qubits];
            self.amps[0] = Complex::ONE;
            Ok(())
        }

        fn apply_instruction(&mut self, inst: &Instruction) -> Result<(), EngineError> {
            check_instruction_width(self.num_qubits, inst)?;
            match &inst.kind {
                OpKind::Unitary {
                    gate,
                    target,
                    controls,
                } => {
                    let m = gate.matrix();
                    let tbit = 1usize << *target;
                    let cmask: usize = controls.iter().map(|c| 1usize << c).sum();
                    for i0 in 0..self.amps.len() {
                        if i0 & tbit == 0 && i0 & cmask == cmask {
                            let i1 = i0 | tbit;
                            let (a0, a1) = (self.amps[i0], self.amps[i1]);
                            self.amps[i0] = m.get(0, 0) * a0 + m.get(0, 1) * a1;
                            self.amps[i1] = m.get(1, 0) * a0 + m.get(1, 1) * a1;
                        }
                    }
                    Ok(())
                }
                OpKind::Swap { a, b, controls } => {
                    let (abit, bbit) = (1usize << *a, 1usize << *b);
                    let cmask: usize = controls.iter().map(|c| 1usize << c).sum();
                    for i in 0..self.amps.len() {
                        if i & abit != 0 && i & bbit == 0 && i & cmask == cmask {
                            let j = (i & !abit) | bbit;
                            self.amps.swap(i, j);
                        }
                    }
                    Ok(())
                }
                other => Err(EngineError::NonUnitary {
                    op: format!("{other:?}"),
                }),
            }
        }

        fn cost_metric(&self) -> CostMetric {
            CostMetric {
                name: "amplitudes",
                value: self.amps.len(),
            }
        }

        fn amplitudes(&mut self) -> Result<Vec<Complex>, EngineError> {
            Ok(self.amps.clone())
        }

        fn expectation(&mut self, pauli: &PauliString) -> Result<f64, EngineError> {
            check_pauli_width(self.num_qubits, pauli)?;
            Ok(super::dense_expectation(&self.amps, pauli))
        }

        fn probability_of_one(&mut self, qubit: usize) -> Result<f64, EngineError> {
            check_qubit(self.num_qubits, qubit)?;
            let bit = 1usize << qubit;
            let p1: f64 = self
                .amps
                .iter()
                .enumerate()
                .filter(|(i, _)| i & bit != 0)
                .map(|(_, a)| a.norm_sqr())
                .sum();
            Ok(p1.clamp(0.0, 1.0))
        }

        fn project(&mut self, qubit: usize, outcome: bool) -> Result<(), EngineError> {
            let p1 = self.probability_of_one(qubit)?;
            let p = if outcome { p1 } else { 1.0 - p1 };
            if p <= 1e-12 {
                return Err(EngineError::Backend {
                    engine: "reference",
                    message: format!("projection of qubit {qubit} onto a zero-probability branch"),
                });
            }
            let bit = 1usize << qubit;
            let keep = if outcome { bit } else { 0 };
            let scale = 1.0 / p.sqrt();
            for (i, a) in self.amps.iter_mut().enumerate() {
                *a = if i & bit == keep {
                    a.scale(scale)
                } else {
                    Complex::ZERO
                };
            }
            Ok(())
        }

        fn snapshot(&self) -> Option<Box<dyn SimulationEngine>> {
            Some(Box::new(self.clone()))
        }

        fn apply_kraus(
            &mut self,
            kraus: &[Matrix],
            qubit: usize,
            rng: &mut dyn RngCore,
        ) -> Result<usize, EngineError> {
            check_kraus("reference", self.num_qubits, kraus, qubit)?;
            // Candidate states and their Born weights, the naive way.
            let bit = 1usize << qubit;
            let candidates: Vec<Vec<Complex>> = kraus
                .iter()
                .map(|k| {
                    let mut amps = self.amps.clone();
                    for i0 in 0..amps.len() {
                        if i0 & bit == 0 {
                            let i1 = i0 | bit;
                            let (a0, a1) = (amps[i0], amps[i1]);
                            amps[i0] = k.get(0, 0) * a0 + k.get(0, 1) * a1;
                            amps[i1] = k.get(1, 0) * a0 + k.get(1, 1) * a1;
                        }
                    }
                    amps
                })
                .collect();
            let weights: Vec<f64> = candidates
                .iter()
                .map(|amps| amps.iter().map(|a| a.norm_sqr()).sum())
                .collect();
            let chosen = choose_weighted(&weights, rng);
            let norm = weights[chosen].sqrt().max(f64::MIN_POSITIVE);
            self.amps = candidates[chosen]
                .iter()
                .map(|a| a.scale(1.0 / norm))
                .collect();
            Ok(chosen)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_engine::ReferenceEngine;
    use super::*;
    use qdt_circuit::Circuit;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bell() -> Circuit {
        let mut qc = Circuit::new(2);
        qc.h(0).cx(0, 1);
        qc
    }

    #[test]
    fn run_loop_counts_gates_and_skips_barriers() {
        let mut qc = bell();
        qc.barrier();
        qc.z(1);
        let mut e = ReferenceEngine::default();
        let stats = run(&mut e, &qc).unwrap();
        assert_eq!(stats.gates_applied, 3);
        assert_eq!(stats.barriers_skipped, 1);
        assert_eq!(stats.metric_name, "amplitudes");
        assert_eq!(stats.peak_metric, 4);
        assert_eq!(stats.final_metric, 4);
    }

    #[test]
    fn describe_defaults_to_the_engine_name() {
        let e = ReferenceEngine::default();
        assert_eq!(e.describe(), e.name());
    }

    #[test]
    fn run_loop_rejects_measurement_uniformly() {
        let mut qc = Circuit::with_clbits(1, 1);
        qc.h(0);
        qc.measure(0, 0);
        let mut e = ReferenceEngine::default();
        assert!(matches!(
            run(&mut e, &qc),
            Err(EngineError::NonUnitary { .. })
        ));
    }

    #[test]
    fn peak_gate_index_records_first_peak_occurrence() {
        let qc = bell();
        let mut e = ReferenceEngine::default();
        let stats = run(&mut e, &qc).unwrap();
        // The reference engine's metric (amplitude count) is constant,
        // so the peak is first reached at gate 0.
        assert_eq!(stats.peak_metric, 4);
        assert_eq!(stats.peak_gate_index, 0);
    }

    #[test]
    fn run_traced_produces_gate_log_and_balanced_spans() {
        let qc = bell();
        let sink = TelemetrySink::new();
        let mut e = ReferenceEngine::default();
        let (stats, log) = run_traced(&mut e, &qc, &sink).unwrap();
        assert_eq!(stats.gates_applied, 2);
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].gate, "h");
        assert_eq!(log[1].index, 1);
        // Every record carries the run-loop's cost gauge.
        for record in &log {
            assert!(record
                .metrics
                .iter()
                .any(|(name, v)| name == "engine.cost.amplitudes" && (*v - 4.0).abs() < 1e-12));
        }
        // One run span + one span per gate, all balanced.
        let events = sink.tracer().events();
        let begins = events
            .iter()
            .filter(|e| e.kind == telemetry::TraceEventKind::Begin)
            .count();
        let ends = events
            .iter()
            .filter(|e| e.kind == telemetry::TraceEventKind::End)
            .count();
        assert_eq!(begins, 3);
        assert_eq!(ends, 3);
    }

    #[test]
    fn run_traced_with_disabled_sink_matches_plain_run() {
        let qc = bell();
        let sink = TelemetrySink::disabled();
        let mut traced = ReferenceEngine::default();
        let (stats, _log) = run_traced(&mut traced, &qc, &sink).unwrap();
        let mut plain = ReferenceEngine::default();
        let plain_stats = run(&mut plain, &qc).unwrap();
        assert_eq!(stats, plain_stats);
        assert_eq!(traced.amplitudes().unwrap(), plain.amplitudes().unwrap());
        assert!(sink.metrics().is_empty());
        assert!(sink.tracer().events().is_empty());
    }

    #[test]
    fn default_amplitude_derives_from_dense_vector() {
        let mut e = ReferenceEngine::default();
        run(&mut e, &bell()).unwrap();
        let a = e.amplitude(0b11).unwrap();
        assert!((a.abs() - 1.0 / 2f64.sqrt()).abs() < 1e-12);
        assert!(e.amplitude(1 << 30).is_err());
    }

    #[test]
    fn default_sampler_matches_distribution() {
        let mut e = ReferenceEngine::default();
        run(&mut e, &bell()).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let counts = e.sample(4000, &mut rng).unwrap();
        assert!(counts.keys().all(|&k| k == 0 || k == 3));
        let total: usize = counts.values().sum();
        assert_eq!(total, 4000);
        let c0 = *counts.get(&0).unwrap_or(&0) as f64;
        assert!((c0 / 4000.0 - 0.5).abs() < 0.05);
    }

    #[test]
    fn default_expectation_matches_known_stabilizer() {
        let mut e = ReferenceEngine::default();
        run(&mut e, &bell()).unwrap();
        let p: PauliString = "XX".parse().unwrap();
        assert!((e.expectation(&p).unwrap() - 1.0).abs() < 1e-12);
        let bad: PauliString = "XXX".parse().unwrap();
        assert!(matches!(
            e.expectation(&bad),
            Err(EngineError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn empty_circuit_still_reports_metric() {
        let qc = Circuit::new(3);
        let mut e = ReferenceEngine::default();
        let stats = run(&mut e, &qc).unwrap();
        assert_eq!(stats.gates_applied, 0);
        assert_eq!(stats.final_metric, 8);
    }

    #[test]
    fn prepare_width_guard() {
        let mut e = ReferenceEngine::default();
        assert!(matches!(
            e.prepare(40),
            Err(EngineError::TooWide { limit: 16, .. })
        ));
    }

    #[test]
    fn choose_weighted_is_deterministic_and_in_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let weights = [0.1, 0.0, 0.7, 0.2];
        let mut histogram = [0usize; 4];
        for _ in 0..4000 {
            histogram[choose_weighted(&weights, &mut rng)] += 1;
        }
        assert_eq!(histogram[1], 0, "zero-weight option must never win");
        assert!(histogram[2] > histogram[0] && histogram[2] > histogram[3]);
    }

    #[test]
    fn kraus_application_preserves_norm_and_flips() {
        // A full bit flip as a 1-operator "channel": |0⟩ → |1⟩.
        let mut e = ReferenceEngine::default();
        e.prepare(1).unwrap();
        let x = Matrix::from_rows(
            2,
            2,
            &[Complex::ZERO, Complex::ONE, Complex::ONE, Complex::ZERO],
        );
        let mut rng = StdRng::seed_from_u64(1);
        let chosen = e
            .apply_kraus(std::slice::from_ref(&x), 0, &mut rng)
            .unwrap();
        assert_eq!(chosen, 0);
        let amps = e.amplitudes().unwrap();
        assert!((amps[1].abs() - 1.0).abs() < 1e-12);
        assert!(amps[0].abs() < 1e-12);
    }

    #[test]
    fn kraus_application_guards_bad_inputs() {
        let mut e = ReferenceEngine::default();
        e.prepare(1).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(e.apply_kraus(&[], 0, &mut rng).is_err());
        assert!(e.apply_kraus(&[Matrix::identity(2)], 5, &mut rng).is_err());
    }
}
