//! Per-shot execution of dynamic circuits — the second phase of the
//! two-phase execution model.
//!
//! A *dynamic* circuit contains mid-circuit measurement, reset, or
//! classically conditioned gates, so "evolve once, sample at the end"
//! no longer applies: each shot takes its own path through the
//! classical control flow. The [`ShotExecutor`] splits a circuit at
//! [`Circuit::static_prefix_len`]:
//!
//! 1. **Static prefix** — the leading unconditioned unitaries run once
//!    through the ordinary [`run`] loop, exactly as before;
//! 2. **Dynamic suffix** — everything from the first measurement,
//!    reset, or condition onward is re-executed per shot, threading a
//!    [`ClassicalState`] through the shot: measurements collapse the
//!    state ([`collapse_qubit`]) and write clbits, resets
//!    measure-and-correct ([`reset_to_zero`]), and conditions gate
//!    execution on the clbits written so far.
//!
//! The engine state after the prefix is restored per shot by the
//! cheapest anchor the substrate offers: an in-place checkpoint
//! ([`SimulationEngine::checkpoint`], which keeps backend caches warm
//! across shots — the DD collapse fast path), a boxed clone
//! ([`SimulationEngine::snapshot`]), or replaying the prefix when
//! neither is supported.
//!
//! **Determinism.** Shot `s` draws all randomness from a
//! [`StdRng`] seeded by [`shot_seed`]`(seed, s)` — a function of the
//! master seed and the global shot index alone. Shots striped across
//! the shared `qdt-parallel` worker pool therefore produce
//! bit-identical histograms for any worker count, the same contract as
//! the noise-trajectory engine.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use qdt_circuit::{Circuit, ClassicalState, Instruction, OpKind};
use qdt_parallel::WorkerPool;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{collapse_qubit, reset_to_zero, run, EngineError, SimulationEngine, TelemetrySink};

/// Constructor of fresh engines, one per worker thread — the same shape
/// the noise layer's trajectory factory uses. The umbrella crate wraps
/// registry specs (`array`, `dd`, `mps:16`…) into this.
pub type ShotFactory =
    Arc<dyn Fn() -> Result<Box<dyn SimulationEngine>, EngineError> + Send + Sync>;

/// Per-gate decoration of the shot loop, called after every applied
/// unitary with the working engine and the shot's RNG — the seam where
/// stochastic noise composes with dynamic execution (`qdt-noise`'s
/// `NoiseModel::shot_hook` applies its Kraus channels here, making each
/// shot one noise trajectory).
pub type ShotGateHook = Arc<
    dyn Fn(
            &mut dyn SimulationEngine,
            &Instruction,
            &mut dyn rand::RngCore,
        ) -> Result<(), EngineError>
        + Send
        + Sync,
>;

/// Borrowed form of [`ShotGateHook`] threaded through the per-shot loop.
type GateHookRef<'h> = &'h (dyn Fn(
    &mut dyn SimulationEngine,
    &Instruction,
    &mut dyn rand::RngCore,
) -> Result<(), EngineError>
         + Send
         + Sync);

/// How many shots to run, from which seed, on how many workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShotConfig {
    /// Number of shots.
    pub shots: usize,
    /// Master seed; per-shot RNGs derive from it and the shot index
    /// only, so the worker count never affects results.
    pub seed: u64,
    /// Worker threads shots are striped across (min 1; only the
    /// factory-based [`ShotExecutor::sample`] parallelises).
    pub workers: usize,
}

impl ShotConfig {
    /// A single-worker configuration.
    pub fn new(shots: usize, seed: u64) -> ShotConfig {
        ShotConfig {
            shots,
            seed,
            workers: 1,
        }
    }

    /// Stripes the shots across `workers` threads.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> ShotConfig {
        self.workers = workers.max(1);
        self
    }
}

/// Counters accumulated over all shots of one execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShotStats {
    /// Shots executed.
    pub shots: usize,
    /// Projective collapses performed (measurements plus resets).
    pub collapses: u64,
    /// Resets among those collapses.
    pub resets: u64,
    /// Conditioned instructions skipped because their condition read
    /// false.
    pub cond_skipped: u64,
    /// Conditioned instructions that fired.
    pub cond_applied: u64,
}

impl ShotStats {
    fn absorb(&mut self, other: &ShotStats) {
        self.shots += other.shots;
        self.collapses += other.collapses;
        self.resets += other.resets;
        self.cond_skipped += other.cond_skipped;
        self.cond_applied += other.cond_applied;
    }
}

/// The outcome histogram plus execution counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShotResult {
    /// Outcome counts. For circuits with measurements the key is the
    /// final classical register ([`ClassicalState::as_u128`]); for
    /// dynamic circuits without any measurement (reset-only), each shot
    /// contributes one full-register sample of its final state.
    pub counts: BTreeMap<u128, usize>,
    /// Execution counters.
    pub stats: ShotStats,
}

/// The per-shot RNG seed: a SplitMix64-style mix of the master seed and
/// the global shot index, deliberately independent of worker
/// assignment (the analogue of the trajectory engine's seeding).
pub fn shot_seed(seed: u64, shot: u64) -> u64 {
    seed ^ (shot.wrapping_add(1)).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// The dynamic-circuit shot loop over any [`EngineCaps::dynamic`]
/// substrate.
///
/// # Example
///
/// ```
/// use qdt_engine::shot::{ShotConfig, ShotExecutor};
/// use qdt_engine::test_engine::ReferenceEngine;
///
/// // One fair coin: H then measure.
/// let mut qc = qdt_circuit::Circuit::with_clbits(1, 1);
/// qc.h(0);
/// qc.measure(0, 0);
/// let executor = ShotExecutor::new(ShotConfig::new(100, 7));
/// let mut engine = ReferenceEngine::default();
/// let result = executor.run_on(&mut engine, &qc)?;
/// assert_eq!(result.counts.values().sum::<usize>(), 100);
/// assert!(result.counts.keys().all(|&k| k <= 1));
/// # Ok::<(), qdt_engine::EngineError>(())
/// ```
///
/// [`EngineCaps::dynamic`]: crate::EngineCaps::dynamic
#[derive(Clone)]
pub struct ShotExecutor {
    config: ShotConfig,
    sink: Option<TelemetrySink>,
    hook: Option<ShotGateHook>,
}

impl std::fmt::Debug for ShotExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShotExecutor")
            .field("config", &self.config)
            .field("hook", &self.hook.is_some())
            .finish_non_exhaustive()
    }
}

impl ShotExecutor {
    /// An executor with the given configuration.
    pub fn new(config: ShotConfig) -> ShotExecutor {
        ShotExecutor {
            config,
            sink: None,
            hook: None,
        }
    }

    /// Attaches a per-gate hook (see [`ShotGateHook`]). With a hook the
    /// static-prefix optimisation is disabled: every shot replays the
    /// *whole* circuit so the hook sees an independent realisation per
    /// shot — exactly the noise-trajectory semantics of `traj(...)`,
    /// now composed with mid-circuit measurement and feedback.
    #[must_use]
    pub fn with_gate_hook(mut self, hook: ShotGateHook) -> ShotExecutor {
        self.hook = Some(hook);
        self
    }

    /// Attaches telemetry: the executor reports `shots.dynamic` and
    /// `collapse.count` counters (plus `shots.workers` when striping).
    #[must_use]
    pub fn with_telemetry(mut self, sink: &TelemetrySink) -> ShotExecutor {
        self.sink = sink.enabled_clone();
        self
    }

    /// The configuration.
    pub fn config(&self) -> &ShotConfig {
        &self.config
    }

    /// Runs all shots sequentially on one caller-provided engine.
    ///
    /// For a circuit with no dynamic suffix this degrades to the
    /// classic path: one evolution, then `shots` collapse-free samples
    /// from the final state (seeded from the config seed).
    ///
    /// # Errors
    ///
    /// [`EngineError::Unsupported`] when the circuit is dynamic but the
    /// engine does not advertise [`EngineCaps::dynamic`]; otherwise any
    /// engine error from the prefix run or the per-shot suffix.
    ///
    /// [`EngineCaps::dynamic`]: crate::EngineCaps::dynamic
    pub fn run_on(
        &self,
        engine: &mut dyn SimulationEngine,
        circuit: &Circuit,
    ) -> Result<ShotResult, EngineError> {
        self.run_on_inspected(engine, circuit, &mut |_, _, _| {})
    }

    /// [`run_on`](ShotExecutor::run_on) with a per-shot inspection
    /// hook: after each dynamic shot, `inspect` receives the shot
    /// index, the engine holding that shot's final collapsed state, and
    /// the final classical register — the hook the verification
    /// oracles use to check per-shot state fidelity.
    ///
    /// The hook is not called on the static (non-dynamic) fast path,
    /// where no per-shot state exists.
    ///
    /// # Errors
    ///
    /// As for [`run_on`](ShotExecutor::run_on).
    pub fn run_on_inspected(
        &self,
        engine: &mut dyn SimulationEngine,
        circuit: &Circuit,
        inspect: &mut dyn FnMut(u64, &mut dyn SimulationEngine, &ClassicalState),
    ) -> Result<ShotResult, EngineError> {
        let plan = ShotPlan::new(circuit, engine, self.hook.is_some())?;
        let shots = self.config.shots;
        if !plan.dynamic {
            // Classic two-step: evolve once, sample the final state.
            run(engine, circuit)?;
            let mut rng = StdRng::seed_from_u64(self.config.seed);
            let counts = engine.sample(shots, &mut rng)?;
            let result = ShotResult {
                counts,
                stats: ShotStats {
                    shots,
                    ..ShotStats::default()
                },
            };
            self.report(&result);
            return Ok(result);
        }
        let mut result = ShotResult::default();
        {
            let _frame = qdt_telemetry::profile_frame("shot:prefix");
            run(engine, &plan.prefix)?;
        }
        let _frame = qdt_telemetry::profile_frame("shot:suffix-loop");
        for s in 0..shots as u64 {
            let key = plan.run_shot(
                engine,
                self.config.seed,
                s,
                self.hook.as_deref(),
                &mut result.stats,
                inspect,
            )?;
            *result.counts.entry(key).or_insert(0) += 1;
        }
        result.stats.shots = shots;
        self.report(&result);
        Ok(result)
    }

    /// Runs the shots striped across the shared worker pool, one fresh
    /// engine per worker from `factory` (worker `w` owns shots
    /// `w, w + workers, …`). Results are bit-identical to
    /// [`run_on`](ShotExecutor::run_on) for any worker count, because
    /// every shot's RNG depends only on the config seed and the global
    /// shot index.
    ///
    /// # Errors
    ///
    /// As for [`run_on`](ShotExecutor::run_on), plus factory errors.
    pub fn sample(
        &self,
        factory: &ShotFactory,
        circuit: &Circuit,
    ) -> Result<ShotResult, EngineError> {
        let shots = self.config.shots;
        let workers = self.config.workers.max(1).min(shots.max(1));
        if workers == 1 || (!circuit.is_dynamic() && self.hook.is_none()) {
            let mut engine = factory()?;
            return self.run_on(engine.as_mut(), circuit);
        }
        if let Some(sink) = &self.sink {
            #[allow(clippy::cast_precision_loss)]
            sink.metrics().gauge_set("shots.workers", workers as f64);
        }
        // One result slot per worker, folded in worker order (the same
        // deterministic striping the trajectory engine uses).
        type Slot = Mutex<Option<Result<ShotResult, EngineError>>>;
        let slots: Vec<Slot> = (0..workers).map(|_| Mutex::new(None)).collect();
        let seed = self.config.seed;
        WorkerPool::shared(workers).run_per_worker(workers, &|w| {
            let _frame = qdt_telemetry::profile_frame("shot:worker");
            let out = (|| {
                let mut engine = factory()?;
                let plan = ShotPlan::new(circuit, engine.as_mut(), self.hook.is_some())?;
                let mut partial = ShotResult::default();
                run(engine.as_mut(), &plan.prefix)?;
                for s in (w..shots).step_by(workers) {
                    let key = plan.run_shot(
                        engine.as_mut(),
                        seed,
                        s as u64,
                        self.hook.as_deref(),
                        &mut partial.stats,
                        &mut |_, _, _| {},
                    )?;
                    *partial.counts.entry(key).or_insert(0) += 1;
                    partial.stats.shots += 1;
                }
                Ok(partial)
            })();
            *slots[w].lock().expect("shot slot poisoned") = Some(out);
        });
        let mut result = ShotResult::default();
        for slot in slots {
            let partial = slot
                .into_inner()
                .expect("shot slot poisoned")
                .expect("shot worker slot unfilled")?;
            for (key, count) in partial.counts {
                *result.counts.entry(key).or_insert(0) += count;
            }
            result.stats.absorb(&partial.stats);
        }
        self.report(&result);
        Ok(result)
    }

    fn report(&self, result: &ShotResult) {
        if let Some(sink) = &self.sink {
            let m = sink.metrics();
            m.counter_add("shots.dynamic", result.stats.shots as u64);
            m.counter_add("collapse.count", result.stats.collapses);
        }
    }
}

/// The split circuit: static unitary prefix plus dynamic suffix.
struct ShotPlan<'c> {
    prefix: Circuit,
    suffix: &'c [Instruction],
    num_clbits: usize,
    dynamic: bool,
    /// Whether any suffix instruction is a measurement — if so, the
    /// classical register is the histogram key; otherwise each shot is
    /// keyed by one sample of its final state.
    has_measure: bool,
}

impl<'c> ShotPlan<'c> {
    fn new(
        circuit: &'c Circuit,
        engine: &mut dyn SimulationEngine,
        full_replay: bool,
    ) -> Result<Self, EngineError> {
        let dynamic = circuit.is_dynamic();
        if dynamic && !engine.caps().dynamic {
            return Err(EngineError::Unsupported {
                engine: engine.name(),
                what: "dynamic circuits (mid-circuit measurement, reset, classical \
                       control); use an engine with `EngineCaps::dynamic` (array, \
                       decision-diagram, mps, or stabilizer)"
                    .into(),
            });
        }
        if circuit.num_clbits() > ClassicalState::MAX_BITS {
            return Err(EngineError::Backend {
                engine: engine.name(),
                message: format!(
                    "{} classical bits exceed the {}-bit histogram key",
                    circuit.num_clbits(),
                    ClassicalState::MAX_BITS
                ),
            });
        }
        // With a gate hook every shot is its own stochastic
        // realisation, so the whole circuit becomes the per-shot
        // suffix; without one, the static prefix runs once and is
        // snapshotted.
        let (prefix, suffix) = if full_replay {
            // The empty prefix still carries the register widths, so
            // `run` (and the per-shot snapshot) prepares `|0…0⟩` at the
            // right size before the whole circuit replays as suffix.
            let empty = Circuit::with_clbits(circuit.num_qubits(), circuit.num_clbits());
            (empty, circuit.instructions())
        } else {
            circuit.split_dynamic()
        };
        let has_measure = suffix
            .iter()
            .any(|i| matches!(i.kind, OpKind::Measure { .. }));
        Ok(ShotPlan {
            prefix,
            suffix,
            num_clbits: circuit.num_clbits(),
            dynamic: dynamic || full_replay,
            has_measure,
        })
    }

    /// Executes one shot's dynamic suffix and returns its histogram
    /// key. `engine` must hold the post-prefix state; it is restored to
    /// it when the engine supports checkpoints or snapshots, and left
    /// holding the shot's final state otherwise (the caller re-runs the
    /// prefix next shot implicitly via [`ShotPlan::run_shot`]'s replay
    /// branch).
    #[allow(clippy::too_many_lines)]
    fn run_shot(
        &self,
        engine: &mut dyn SimulationEngine,
        seed: u64,
        shot: u64,
        hook: Option<GateHookRef<'_>>,
        stats: &mut ShotStats,
        inspect: &mut dyn FnMut(u64, &mut dyn SimulationEngine, &ClassicalState),
    ) -> Result<u128, EngineError> {
        let mut rng = StdRng::seed_from_u64(shot_seed(seed, shot));
        let mut snapshot;
        // Cheapest first: an in-place checkpoint keeps the backend's
        // internal tables warm across shots (the DD collapse fast
        // path); next a boxed clone; last, full prefix replay.
        let checkpointed = engine.checkpoint();
        let work: &mut dyn SimulationEngine = if checkpointed {
            engine
        } else {
            match engine.snapshot() {
                Some(boxed) => {
                    snapshot = boxed;
                    snapshot.as_mut()
                }
                None => {
                    // No cheap clone: replay the prefix on the engine
                    // itself (prepare resets it to |0…0⟩ first).
                    run(engine, &self.prefix)?;
                    engine
                }
            }
        };
        let mut classical = ClassicalState::new(self.num_clbits);
        for inst in self.suffix {
            if let Some(cond) = inst.cond {
                if !cond.is_satisfied(&classical) {
                    stats.cond_skipped += 1;
                    continue;
                }
                stats.cond_applied += 1;
            }
            match &inst.kind {
                OpKind::Barrier(_) => {}
                OpKind::Measure { qubit, clbit } => {
                    let bit = collapse_qubit(work, *qubit, &mut rng)?;
                    classical.set(*clbit, bit);
                    stats.collapses += 1;
                }
                OpKind::Reset { qubit } => {
                    reset_to_zero(work, *qubit, &mut rng)?;
                    stats.collapses += 1;
                    stats.resets += 1;
                }
                OpKind::Unitary { .. } | OpKind::Swap { .. } => {
                    // The condition is resolved here, in the shot loop;
                    // backends only ever see bare unitaries (they
                    // reject conditioned instructions by design).
                    if inst.cond.is_some() {
                        let mut bare = inst.clone();
                        bare.cond = None;
                        work.apply_instruction(&bare)?;
                        if let Some(hook) = hook {
                            hook(work, &bare, &mut rng)?;
                        }
                    } else {
                        work.apply_instruction(inst)?;
                        if let Some(hook) = hook {
                            hook(work, inst, &mut rng)?;
                        }
                    }
                }
            }
        }
        let key = if self.has_measure {
            classical.as_u128()
        } else {
            // Reset-only dynamic circuit: key by one full-register
            // sample, realised as a projective measurement of every
            // qubit in wire order. Backend-native samplers consume the
            // RNG in representation-specific ways; one `gen_bool` per
            // qubit keeps the draw sequence — and thus the histogram —
            // identical on every substrate.
            let mut key = 0u128;
            for q in 0..work.num_qubits() {
                if collapse_qubit(work, q, &mut rng)? {
                    key |= 1u128 << q;
                }
            }
            key
        };
        inspect(shot, work, &classical);
        if checkpointed {
            work.rollback()?;
        }
        Ok(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_engine::ReferenceEngine;
    use crate::EngineCaps;

    fn flip(q: usize) -> Instruction {
        Instruction::new(OpKind::Unitary {
            gate: qdt_circuit::Gate::X,
            target: q,
            controls: vec![],
        })
    }

    fn coin() -> Circuit {
        let mut qc = Circuit::with_clbits(1, 1);
        qc.h(0);
        qc.measure(0, 0);
        qc
    }

    #[test]
    fn static_circuits_take_the_classic_path() {
        let mut qc = Circuit::new(2);
        qc.h(0).cx(0, 1);
        let executor = ShotExecutor::new(ShotConfig::new(200, 3));
        let mut e = ReferenceEngine::default();
        let result = executor.run_on(&mut e, &qc).unwrap();
        assert_eq!(result.stats.shots, 200);
        assert_eq!(result.stats.collapses, 0);
        assert!(result.counts.keys().all(|&k| k == 0 || k == 3));
    }

    #[test]
    fn coin_flip_histogram_is_roughly_fair_and_seeded() {
        let executor = ShotExecutor::new(ShotConfig::new(4000, 11));
        let mut e = ReferenceEngine::default();
        let a = executor.run_on(&mut e, &coin()).unwrap();
        let ones = *a.counts.get(&1).unwrap_or(&0) as f64;
        assert!((ones / 4000.0 - 0.5).abs() < 0.05);
        assert_eq!(a.stats.collapses, 4000);
        // Same seed → identical histogram; different seed → different.
        let b = executor.run_on(&mut ReferenceEngine::default(), &coin());
        assert_eq!(a.counts, b.unwrap().counts);
        let c = ShotExecutor::new(ShotConfig::new(4000, 12))
            .run_on(&mut ReferenceEngine::default(), &coin())
            .unwrap();
        assert_ne!(a.counts, c.counts);
    }

    #[test]
    fn conditioned_gates_follow_the_classical_register() {
        // Measure a deterministic |1⟩, then flip qubit 1 iff c0 == 1:
        // the register always ends 0b11.
        let mut qc = Circuit::with_clbits(2, 2);
        qc.x(0);
        qc.measure(0, 0);
        qc.x(1).c_if(0, true);
        qc.measure(1, 1);
        let executor = ShotExecutor::new(ShotConfig::new(64, 0));
        let result = executor
            .run_on(&mut ReferenceEngine::default(), &qc)
            .unwrap();
        assert_eq!(result.counts, BTreeMap::from([(0b11, 64)]));
        assert_eq!(result.stats.cond_applied, 64);
        assert_eq!(result.stats.cond_skipped, 0);
    }

    #[test]
    fn reset_only_circuit_keys_by_final_state_sample() {
        // |1⟩, reset, |1⟩ again: final state is deterministic |1⟩.
        let mut qc = Circuit::new(1);
        qc.x(0);
        qc.reset(0);
        qc.x(0);
        let executor = ShotExecutor::new(ShotConfig::new(32, 5));
        let result = executor
            .run_on(&mut ReferenceEngine::default(), &qc)
            .unwrap();
        assert_eq!(result.counts, BTreeMap::from([(1, 32)]));
        assert_eq!(result.stats.resets, 32);
    }

    #[test]
    fn non_dynamic_engine_is_rejected_with_capability_hint() {
        struct Static(ReferenceEngine);
        impl SimulationEngine for Static {
            fn name(&self) -> &'static str {
                "static-only"
            }
            fn caps(&self) -> EngineCaps {
                EngineCaps {
                    dynamic: false,
                    ..self.0.caps()
                }
            }
            fn num_qubits(&self) -> usize {
                self.0.num_qubits()
            }
            fn prepare(&mut self, n: usize) -> Result<(), EngineError> {
                self.0.prepare(n)
            }
            fn apply_instruction(&mut self, inst: &Instruction) -> Result<(), EngineError> {
                self.0.apply_instruction(inst)
            }
            fn cost_metric(&self) -> crate::CostMetric {
                self.0.cost_metric()
            }
            fn amplitudes(&mut self) -> Result<Vec<qdt_complex::Complex>, EngineError> {
                self.0.amplitudes()
            }
        }
        let executor = ShotExecutor::new(ShotConfig::new(8, 0));
        let err = executor
            .run_on(&mut Static(ReferenceEngine::default()), &coin())
            .unwrap_err();
        match err {
            EngineError::Unsupported { what, .. } => {
                assert!(what.contains("EngineCaps::dynamic"), "{what}");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn parallel_striping_is_bit_identical_to_sequential() {
        let factory: ShotFactory =
            Arc::new(|| Ok(Box::new(ReferenceEngine::default()) as Box<dyn SimulationEngine>));
        let mut qc = Circuit::with_clbits(3, 3);
        qc.h(0).cx(0, 1);
        qc.measure(0, 0).measure(1, 1);
        qc.h(2);
        qc.x(2).c_if(0, true);
        qc.measure(2, 2);
        let sequential = ShotExecutor::new(ShotConfig::new(257, 9))
            .sample(&factory, &qc)
            .unwrap();
        for workers in [2, 4] {
            let striped = ShotExecutor::new(ShotConfig::new(257, 9).with_workers(workers))
                .sample(&factory, &qc)
                .unwrap();
            assert_eq!(striped.counts, sequential.counts, "workers={workers}");
            assert_eq!(striped.stats, sequential.stats, "workers={workers}");
        }
    }

    #[test]
    fn telemetry_reports_shot_and_collapse_counters() {
        let sink = TelemetrySink::new();
        let executor = ShotExecutor::new(ShotConfig::new(16, 1)).with_telemetry(&sink);
        executor
            .run_on(&mut ReferenceEngine::default(), &coin())
            .unwrap();
        let metrics = sink.metrics().flattened();
        let get = |name: &str| {
            metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0.0)
        };
        assert!((get("shots.dynamic") - 16.0).abs() < 1e-9);
        assert!((get("collapse.count") - 16.0).abs() < 1e-9);
    }

    #[test]
    fn gate_hook_fires_per_gate_and_forces_full_replay() {
        use std::sync::atomic::{AtomicU64, Ordering};

        // A hook that deterministically applies X after each gate turns
        // H·H = I into X·H·X·H = X (X fixes |+⟩, the trailing X flips
        // |0⟩), so every shot reads 1 — only possible if the hook
        // decorated both H gates. The counter proves it ran once per
        // unitary per shot, including the gate that would otherwise sit
        // in the static prefix.
        let calls = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&calls);
        let hook: ShotGateHook = Arc::new(move |work, _inst, _rng| {
            seen.fetch_add(1, Ordering::SeqCst);
            work.apply_instruction(&flip(0))
        });
        let mut qc = Circuit::with_clbits(1, 1);
        qc.h(0).h(0);
        qc.measure(0, 0);
        let result = ShotExecutor::new(ShotConfig::new(8, 3))
            .with_gate_hook(hook)
            .run_on(&mut ReferenceEngine::default(), &qc)
            .unwrap();
        assert_eq!(result.counts, BTreeMap::from([(1u128, 8)]));
        // 2 unitaries × 8 shots: full replay means the leading H (the
        // would-be static prefix) is decorated in every shot too.
        assert_eq!(calls.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn gate_hook_sampling_is_deterministic_across_workers() {
        let hook: ShotGateHook = Arc::new(|work, inst, rng| {
            // A 20% stochastic bit-flip channel on each gate's first
            // target — classic trajectory noise, driven by the shot RNG.
            if rand::Rng::gen_bool(rng, 0.2) {
                if let Some(q) = inst.qubits().next() {
                    work.apply_instruction(&flip(q))?;
                }
            }
            Ok(())
        });
        let factory: ShotFactory =
            Arc::new(|| Ok(Box::new(ReferenceEngine::default()) as Box<dyn SimulationEngine>));
        let mut qc = Circuit::with_clbits(2, 2);
        qc.h(0).cx(0, 1);
        qc.measure(0, 0).measure(1, 1);
        let sequential = ShotExecutor::new(ShotConfig::new(129, 5))
            .with_gate_hook(Arc::clone(&hook))
            .sample(&factory, &qc)
            .unwrap();
        // Noise must actually change the Bell statistics: without it
        // only 00/11 appear.
        assert!(sequential.counts.keys().any(|&k| k == 0b01 || k == 0b10));
        for workers in [2, 4] {
            let striped = ShotExecutor::new(ShotConfig::new(129, 5).with_workers(workers))
                .with_gate_hook(Arc::clone(&hook))
                .sample(&factory, &qc)
                .unwrap();
            assert_eq!(striped.counts, sequential.counts, "workers={workers}");
        }
    }
}
