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
//!    reset, or condition onward runs per outcome path, threading a
//!    [`ClassicalState`] through the shot: measurements collapse the
//!    state (the draw of [`collapse_qubit`](crate::collapse_qubit)) and
//!    write clbits, resets measure-and-correct
//!    ([`reset_to_zero`](crate::reset_to_zero)), and conditions gate
//!    execution on the clbits written so far.
//!
//! **Outcome tree.** A shot's state after the prefix depends only on
//! the outcomes it has drawn so far, so shots are walks down a binary
//! tree of *draw points*: measurements, the collapses of resets, and
//! the final per-qubit sample of a reset-only circuit. Each worker
//! grows its own tree lazily. A node stores the `P(1)` the engine
//! reported at that draw point, a leaf the path's histogram key and
//! [`ShotStats`]. A shot walks the tree calling `gen_bool(p1)` at each
//! node — the same call `collapse_qubit` makes, so the RNG stream is
//! the one a per-shot replay would consume. Only when the walk leaves
//! the tree does the shot *materialise*: restore the post-prefix
//! anchor, replay the suffix projecting onto the outcomes already drawn
//! ([`SimulationEngine::project`]), and continue live from there,
//! recording the new nodes. Teleportation thus runs its four branches
//! once each, not once per shot. The tree holds no engine handles and
//! stops growing at 2^16 draw nodes; past the cap, new paths run live
//! without being recorded.
//!
//! Two cases materialise every shot. With a gate hook (noise
//! trajectories) the hook's own draws interleave with the collapses,
//! so no tree is kept. With an inspector
//! ([`ShotExecutor::run_on_inspected`]) each shot replays its walked
//! path, so the inspector sees that shot's collapsed state.
//!
//! A materialisation restores the post-prefix state by the cheapest
//! anchor the substrate offers: an in-place checkpoint
//! ([`SimulationEngine::checkpoint`], which keeps backend caches warm
//! across replays — the DD collapse fast path), a boxed clone
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
use rand::{Rng, SeedableRng};

use crate::{run, EngineError, SimulationEngine, TelemetrySink};

/// Constructor of fresh engines, one per worker thread of the shot loop
/// or of the noise layer's trajectories. The umbrella crate wraps engine
/// specs (`array`, `dd`, `mps:16`…) into this.
pub type EngineFactory =
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

/// Borrowed form of [`ShotGateHook`] threaded through the shot loop.
type GateHookRef<'h> = &'h (dyn Fn(
    &mut dyn SimulationEngine,
    &Instruction,
    &mut dyn rand::RngCore,
) -> Result<(), EngineError>
         + Send
         + Sync);

/// Per-shot inspection callback of [`ShotExecutor::run_on_inspected`].
type Inspect<'i> = dyn FnMut(u64, &mut dyn SimulationEngine, &ClassicalState) + 'i;

/// Draw nodes one worker's outcome tree may hold (2^16, 1.5 MiB of
/// nodes). Paths that would grow the tree past the cap run live without
/// being recorded.
const MAX_TREE_NODES: usize = 1 << 16;

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

impl ShotResult {
    fn add(&mut self, key: u128, stats: &ShotStats) {
        *self.counts.entry(key).or_insert(0) += 1;
        self.stats.absorb(stats);
    }
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
    /// static-prefix optimisation is disabled and no outcome tree is
    /// kept: every shot replays the *whole* circuit live, because the
    /// hook's own draws interleave with the collapses, so two shots
    /// that measure alike need not share a state. Each shot is an
    /// independent realisation — exactly the noise-trajectory semantics
    /// of `traj(...)`, composed with mid-circuit measurement and
    /// feedback.
    #[must_use]
    pub fn with_gate_hook(mut self, hook: ShotGateHook) -> ShotExecutor {
        self.hook = Some(hook);
        self
    }

    /// Attaches telemetry: the executor reports the `shots.dynamic`,
    /// `shots.replayed` (suffix materialisations) and `collapse.count`
    /// counters, plus the `shots.workers` gauge when striping.
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
    /// engine error from the prefix run or the suffix replays.
    ///
    /// [`EngineCaps::dynamic`]: crate::EngineCaps::dynamic
    pub fn run_on(
        &self,
        engine: &mut dyn SimulationEngine,
        circuit: &Circuit,
    ) -> Result<ShotResult, EngineError> {
        self.run_sequential(engine, circuit, None)
    }

    /// [`run_on`](ShotExecutor::run_on) with a per-shot inspection
    /// hook: after each dynamic shot, `inspect` receives the shot
    /// index, the engine holding that shot's final collapsed state, and
    /// the final classical register — the hook the verification
    /// oracles use to check per-shot state fidelity. Every shot
    /// therefore materialises its path on the engine; outcomes are
    /// still drawn from the shared outcome tree, so the histogram is
    /// the one [`run_on`](ShotExecutor::run_on) returns.
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
        self.run_sequential(engine, circuit, Some(inspect))
    }

    fn run_sequential(
        &self,
        engine: &mut dyn SimulationEngine,
        circuit: &Circuit,
        inspect: Option<&mut Inspect<'_>>,
    ) -> Result<ShotResult, EngineError> {
        let shots = self.config.shots;
        if !circuit.is_dynamic() && self.hook.is_none() {
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
            self.report(&result, 0);
            return Ok(result);
        }
        let plan = ShotPlan::new(circuit, engine, self.hook.as_deref())?;
        {
            let _frame = qdt_telemetry::profile_frame("shot:prefix");
            run(engine, &plan.prefix)?;
        }
        let _frame = qdt_telemetry::profile_frame("shot:suffix-loop");
        let mut result = ShotResult::default();
        let mut worker = ShotWorker::default();
        worker.run_shots(
            &plan,
            engine,
            0..shots as u64,
            self.config.seed,
            inspect,
            &mut result,
        )?;
        self.report(&result, worker.replayed);
        Ok(result)
    }

    /// Runs the shots striped across the shared worker pool, one fresh
    /// engine and outcome tree per worker from `factory` (worker `w`
    /// owns shots `w, w + workers, …`). Results are bit-identical to
    /// [`run_on`](ShotExecutor::run_on) for any worker count, because
    /// every shot's RNG depends only on the config seed and the global
    /// shot index.
    ///
    /// # Errors
    ///
    /// As for [`run_on`](ShotExecutor::run_on), plus factory errors.
    pub fn sample(
        &self,
        factory: &EngineFactory,
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
        type Slot = Mutex<Option<Result<(ShotResult, u64), EngineError>>>;
        let slots: Vec<Slot> = (0..workers).map(|_| Mutex::new(None)).collect();
        let seed = self.config.seed;
        WorkerPool::shared(workers).run_per_worker(workers, &|w| {
            let _frame = qdt_telemetry::profile_frame("shot:worker");
            let out = (|| {
                let mut engine = factory()?;
                let plan = ShotPlan::new(circuit, engine.as_mut(), self.hook.as_deref())?;
                run(engine.as_mut(), &plan.prefix)?;
                let mut partial = ShotResult::default();
                let mut worker = ShotWorker::default();
                worker.run_shots(
                    &plan,
                    engine.as_mut(),
                    (w as u64..shots as u64).step_by(workers),
                    seed,
                    None,
                    &mut partial,
                )?;
                Ok((partial, worker.replayed))
            })();
            *slots[w].lock().expect("shot slot poisoned") = Some(out);
        });
        let mut result = ShotResult::default();
        let mut replayed = 0;
        for slot in slots {
            let (partial, partial_replayed) = slot
                .into_inner()
                .expect("shot slot poisoned")
                .expect("shot worker slot unfilled")?;
            for (key, count) in partial.counts {
                *result.counts.entry(key).or_insert(0) += count;
            }
            result.stats.absorb(&partial.stats);
            replayed += partial_replayed;
        }
        self.report(&result, replayed);
        Ok(result)
    }

    fn report(&self, result: &ShotResult, replayed: u64) {
        if let Some(sink) = &self.sink {
            let m = sink.metrics();
            m.counter_add("shots.dynamic", result.stats.shots as u64);
            m.counter_add("shots.replayed", replayed);
            m.counter_add("collapse.count", result.stats.collapses);
        }
    }
}

/// The per-shot split of a dynamic or hooked circuit: static unitary
/// prefix plus dynamic suffix, and the gate hook decorating the suffix.
struct ShotPlan<'c> {
    prefix: Circuit,
    suffix: &'c [Instruction],
    hook: Option<GateHookRef<'c>>,
    num_clbits: usize,
    /// Whether any suffix instruction is a measurement — if so, the
    /// classical register is the histogram key; otherwise each shot is
    /// keyed by one sample of its final state.
    has_measure: bool,
}

impl<'c> ShotPlan<'c> {
    fn new(
        circuit: &'c Circuit,
        engine: &mut dyn SimulationEngine,
        hook: Option<GateHookRef<'c>>,
    ) -> Result<Self, EngineError> {
        if circuit.is_dynamic() && !engine.caps().dynamic {
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
        // anchored.
        let (prefix, suffix) = if hook.is_some() {
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
            hook,
            num_clbits: circuit.num_clbits(),
            has_measure,
        })
    }

    /// Materialises one shot on `engine`, which holds the post-prefix
    /// state: restores that state by the cheapest anchor, plays the
    /// suffix with `draws`, hands the final state to `inspect`, and
    /// rolls a checkpoint back. Returns the shot's key and counters.
    ///
    /// Without a checkpoint or snapshot the engine is left holding the
    /// shot's final state; the next materialisation replays the prefix
    /// first.
    fn materialise(
        &self,
        engine: &mut dyn SimulationEngine,
        draws: &mut Draws<'_>,
        shot: u64,
        inspect: Option<&mut Inspect<'_>>,
    ) -> Result<(u128, ShotStats), EngineError> {
        let mut snapshot;
        // Cheapest first: an in-place checkpoint keeps the backend's
        // internal tables warm across replays (the DD collapse fast
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
        let (key, stats, classical) = self.play(work, draws)?;
        if let Some(inspect) = inspect {
            inspect(shot, work, &classical);
        }
        if checkpointed {
            work.rollback()?;
        }
        Ok((key, stats))
    }

    /// Executes the suffix on `work` as one shot, taking every outcome
    /// from `draws`, and returns the histogram key, the shot's counters
    /// and its final classical register.
    fn play(
        &self,
        work: &mut dyn SimulationEngine,
        draws: &mut Draws<'_>,
    ) -> Result<(u128, ShotStats, ClassicalState), EngineError> {
        let mut stats = ShotStats {
            shots: 1,
            ..ShotStats::default()
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
                    let bit = draws.collapse(work, *qubit)?;
                    classical.set(*clbit, bit);
                    stats.collapses += 1;
                }
                OpKind::Reset { qubit } => {
                    // Measure-and-correct, as `reset_to_zero` does.
                    if draws.collapse(work, *qubit)? {
                        work.apply_instruction(&Instruction::new(OpKind::Unitary {
                            gate: qdt_circuit::Gate::X,
                            target: *qubit,
                            controls: vec![],
                        }))?;
                    }
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
                        if let Some(hook) = self.hook {
                            hook(work, &bare, draws.rng)?;
                        }
                    } else {
                        work.apply_instruction(inst)?;
                        if let Some(hook) = self.hook {
                            hook(work, inst, draws.rng)?;
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
                if draws.collapse(work, q)? {
                    key |= 1u128 << q;
                }
            }
            key
        };
        Ok((key, stats, classical))
    }
}

/// The outcome source of one materialisation. The first
/// `forced.len()` draws project onto outcomes the shot already drew
/// walking the tree. Later draws are live, made exactly as
/// [`collapse_qubit`](crate::collapse_qubit) makes them, and are
/// appended to `live` as `(p1, outcome)` for the tree to record.
struct Draws<'a> {
    rng: &'a mut StdRng,
    forced: &'a [bool],
    drawn: usize,
    live: &'a mut Vec<(f64, bool)>,
}

impl Draws<'_> {
    /// Collapses `qubit` onto the next outcome and returns it.
    fn collapse(
        &mut self,
        work: &mut dyn SimulationEngine,
        qubit: usize,
    ) -> Result<bool, EngineError> {
        let outcome = if let Some(&forced) = self.forced.get(self.drawn) {
            forced
        } else {
            let p1 = work.probability_of_one(qubit)?.clamp(0.0, 1.0);
            let outcome = self.rng.gen_bool(p1);
            self.live.push((p1, outcome));
            outcome
        };
        self.drawn += 1;
        work.project(qubit, outcome)?;
        Ok(outcome)
    }
}

/// What follows one outcome of a draw node (or the tree's root).
#[derive(Debug, Clone, Copy, Default)]
enum Link {
    /// No shot has taken this branch yet.
    #[default]
    Missing,
    /// The next draw point: an index into [`OutcomeTree::nodes`].
    Node(u32),
    /// The end of a path: an index into [`OutcomeTree::leaves`].
    Leaf(u32),
}

/// One random draw point of a path, as the first shot to reach it saw it.
#[derive(Debug)]
struct DrawNode {
    /// `P(1)` the engine reported here, clamped to `[0, 1]`.
    p1: f64,
    /// The continuation after outcome 0 and after outcome 1.
    next: [Link; 2],
}

/// A completed path: its histogram key and one shot's counters.
#[derive(Debug)]
struct Leaf {
    key: u128,
    stats: ShotStats,
}

/// A position in the tree where a link lives.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Root,
    /// The branch of node `.0` taken on outcome `.1`.
    Branch(u32, bool),
}

/// The lazily grown tree of outcome paths one worker has executed.
#[derive(Debug, Default)]
struct OutcomeTree {
    root: Link,
    nodes: Vec<DrawNode>,
    leaves: Vec<Leaf>,
}

impl OutcomeTree {
    fn link(&self, slot: Slot) -> Link {
        match slot {
            Slot::Root => self.root,
            Slot::Branch(node, bit) => self.nodes[node as usize].next[usize::from(bit)],
        }
    }

    fn set(&mut self, slot: Slot, link: Link) {
        match slot {
            Slot::Root => self.root = link,
            Slot::Branch(node, bit) => self.nodes[node as usize].next[usize::from(bit)] = link,
        }
    }

    /// Draws a shot's outcomes down the recorded tree, appending them
    /// to `path`. Returns the leaf reached, or the slot where the shot
    /// leaves the tree.
    fn walk(&self, rng: &mut StdRng, path: &mut Vec<bool>) -> Result<&Leaf, Slot> {
        let mut slot = Slot::Root;
        loop {
            match self.link(slot) {
                Link::Missing => return Err(slot),
                Link::Leaf(leaf) => return Ok(&self.leaves[leaf as usize]),
                Link::Node(node) => {
                    let outcome = rng.gen_bool(self.nodes[node as usize].p1);
                    path.push(outcome);
                    slot = Slot::Branch(node, outcome);
                }
            }
        }
    }

    /// Records a materialised path below `slot`: the live draws, then
    /// the leaf. A path that would take the tree past
    /// [`MAX_TREE_NODES`] is dropped.
    fn record(&mut self, mut slot: Slot, live: &[(f64, bool)], leaf: Leaf) {
        if self.nodes.len() + live.len() > MAX_TREE_NODES {
            return;
        }
        for &(p1, outcome) in live {
            let node = self.nodes.len() as u32;
            self.nodes.push(DrawNode {
                p1,
                next: [Link::Missing; 2],
            });
            self.set(slot, Link::Node(node));
            slot = Slot::Branch(node, outcome);
        }
        self.set(slot, Link::Leaf(self.leaves.len() as u32));
        self.leaves.push(leaf);
    }
}

/// One worker's shot state: its outcome tree, scratch buffers, and how
/// many shots it had to materialise.
#[derive(Debug, Default)]
struct ShotWorker {
    tree: OutcomeTree,
    path: Vec<bool>,
    live: Vec<(f64, bool)>,
    replayed: u64,
}

impl ShotWorker {
    /// The shot routine: runs the given shots (global indices) on
    /// `engine`, which holds the post-prefix state, and adds their
    /// outcomes to `result`. Each shot walks the tree and materialises
    /// only when it leaves it — or always, under a hook or inspector.
    fn run_shots(
        &mut self,
        plan: &ShotPlan<'_>,
        engine: &mut dyn SimulationEngine,
        shots: impl Iterator<Item = u64>,
        seed: u64,
        mut inspect: Option<&mut Inspect<'_>>,
        result: &mut ShotResult,
    ) -> Result<(), EngineError> {
        for shot in shots {
            let mut rng = StdRng::seed_from_u64(shot_seed(seed, shot));
            self.path.clear();
            self.live.clear();
            // A hook draws from the shot RNG between collapses, so its
            // shots share no tree; they run live from the anchor.
            let grow_at = if plan.hook.is_some() {
                None
            } else {
                match self.tree.walk(&mut rng, &mut self.path) {
                    Ok(leaf) if inspect.is_none() => {
                        result.add(leaf.key, &leaf.stats);
                        continue;
                    }
                    // The inspector must see this shot's state: replay
                    // the whole recorded path.
                    Ok(_) => None,
                    Err(slot) => Some(slot),
                }
            };
            let mut draws = Draws {
                rng: &mut rng,
                forced: &self.path,
                drawn: 0,
                live: &mut self.live,
            };
            let (key, stats) =
                plan.materialise(engine, &mut draws, shot, inspect.as_deref_mut())?;
            self.replayed += 1;
            if let Some(slot) = grow_at {
                self.tree.record(slot, &self.live, Leaf { key, stats });
            }
            result.add(key, &stats);
        }
        Ok(())
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
        let factory: EngineFactory =
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
        let factory: EngineFactory =
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

    /// `count` fair coins on one qubit, each measured into its own clbit.
    fn coins(count: usize) -> Circuit {
        let mut qc = Circuit::with_clbits(1, count);
        for k in 0..count {
            qc.h(0);
            qc.measure(0, k);
        }
        qc
    }

    /// Runs `qc` through one [`ShotWorker`] and returns it with the
    /// result, so tests can look at the tree.
    fn run_worker(qc: &Circuit, shots: usize, seed: u64) -> (ShotWorker, ShotResult) {
        let mut engine = ReferenceEngine::default();
        let plan = ShotPlan::new(qc, &mut engine, None).unwrap();
        run(&mut engine, &plan.prefix).unwrap();
        let mut worker = ShotWorker::default();
        let mut result = ShotResult::default();
        worker
            .run_shots(&plan, &mut engine, 0..shots as u64, seed, None, &mut result)
            .unwrap();
        (worker, result)
    }

    #[test]
    fn each_outcome_path_is_materialised_once() {
        let (worker, result) = run_worker(&coin(), 4000, 11);
        assert_eq!(worker.replayed, 2);
        assert_eq!(worker.tree.nodes.len(), 1);
        assert_eq!(worker.tree.leaves.len(), 2);
        // The tree answers the same histogram the executor reports.
        let direct = ShotExecutor::new(ShotConfig::new(4000, 11))
            .run_on(&mut ReferenceEngine::default(), &coin())
            .unwrap();
        assert_eq!(result, direct);
    }

    #[test]
    fn outcome_tree_stays_under_the_node_cap() {
        // 20 coins over 4096 shots fit under the cap.
        let (worker, result) = run_worker(&coins(20), 4096, 3);
        assert!(worker.tree.nodes.len() <= MAX_TREE_NODES);
        assert_eq!(result.stats.shots, 4096);
        assert_eq!(result.stats.collapses, 20 * 4096);
        // 64 coins over 2048 shots ask for about 110k nodes: the tree
        // fills to the cap and later paths run unrecorded.
        let (worker, result) = run_worker(&coins(64), 2048, 3);
        let nodes = worker.tree.nodes.len();
        assert!(nodes <= MAX_TREE_NODES, "{nodes} nodes");
        assert!(
            nodes > MAX_TREE_NODES - 64,
            "{nodes} nodes: cap never reached"
        );
        assert_eq!(worker.replayed, 2048, "every 64-coin path is new");
        assert!(worker.tree.leaves.len() < 2048);
        assert_eq!(result.counts.values().sum::<usize>(), 2048);
    }

    #[test]
    fn inspected_shots_replay_their_walked_path() {
        // Teleportation-shaped: two fair measurements, then corrections
        // conditioned on them.
        let mut qc = Circuit::with_clbits(3, 3);
        qc.h(0).h(1).cx(1, 2);
        qc.measure(0, 0).measure(1, 1);
        qc.x(2).c_if(1, true);
        qc.z(2).c_if(0, true);
        qc.measure(2, 2);
        let executor = ShotExecutor::new(ShotConfig::new(300, 21));
        let plain = executor
            .run_on(&mut ReferenceEngine::default(), &qc)
            .unwrap();
        let mut seen = Vec::new();
        let inspected = executor
            .run_on_inspected(&mut ReferenceEngine::default(), &qc, &mut |s, work, c| {
                // The engine holds this shot's collapsed state: its
                // measured qubits agree with the register.
                for q in 0..2 {
                    let p1 = work.probability_of_one(q).unwrap();
                    assert!((p1 - f64::from(u8::from(c.get(q)))).abs() < 1e-12);
                }
                seen.push(s);
            })
            .unwrap();
        assert_eq!(inspected, plain);
        assert_eq!(seen, (0..300).collect::<Vec<u64>>());
    }

    #[test]
    fn telemetry_reports_replays_beside_shots() {
        let sink = TelemetrySink::new();
        let factory: EngineFactory =
            Arc::new(|| Ok(Box::new(ReferenceEngine::default()) as Box<dyn SimulationEngine>));
        for workers in [1, 2] {
            ShotExecutor::new(ShotConfig::new(64, 1).with_workers(workers))
                .with_telemetry(&sink)
                .sample(&factory, &coin())
                .unwrap();
        }
        let metrics = sink.metrics().flattened();
        let get = |name: &str| metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        // One worker replays each branch once; two workers once each.
        assert_eq!(get("shots.replayed"), Some(2.0 + 4.0));
        assert_eq!(get("shots.dynamic"), Some(128.0));
    }
}
