//! Monte-Carlo noise simulation via parallel stochastic trajectories.
//!
//! Instead of evolving the full density matrix, each *trajectory*
//! evolves one pure state on an ordinary pure-state engine: after every
//! gate, each channel a [`NoiseModel`](crate::NoiseModel) rule places
//! there picks **one** Kraus operator with its Born probability, applies
//! it, and renormalises (the method of the paper's reference \[13\],
//! Grurl/Fuß/Wille; [`apply_channel`] is the step). For a mixture of
//! scaled Paulis `cᵢ·Pᵢ` the Born probability is `|cᵢ|²` on every
//! state, so the branch is drawn first and only the drawn Pauli is
//! applied, as a gate. Averaging many trajectories converges to the
//! density-matrix result — at pure-state memory cost, on any substrate
//! engine that advertises
//! [`EngineCaps::stochastic_kraus`](qdt_engine::EngineCaps).
//!
//! Trajectories are embarrassingly parallel: they are striped across
//! the shared `qdt-parallel` worker pool (the same threads the array and
//! density gate kernels use), each trajectory seeding its own RNG from
//! the config seed and its trajectory index alone — so results are
//! bit-identical for any worker count.

use std::collections::BTreeMap;

use qdt_circuit::{Instruction, OpKind, PauliString};
use qdt_complex::Complex;
use qdt_engine::{
    apply_channel, check_instruction_width, check_pauli_width, CostMetric, EngineCaps, EngineError,
    EngineFactory, SimulationEngine, TelemetrySink,
};
use qdt_parallel::{host_threads, WorkerPool};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::{CompiledNoise, NoiseError, NoiseModel};

/// How many trajectories to run, on how many threads, from which seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrajectoryConfig {
    /// Number of independent noise trajectories averaged per query.
    pub trajectories: usize,
    /// Master seed; per-trajectory RNGs derive from it and the
    /// trajectory index only (worker count never affects results).
    pub seed: u64,
    /// Worker threads trajectories are striped across (min 1).
    pub workers: usize,
}

impl Default for TrajectoryConfig {
    /// 500 trajectories from seed `0x5EED` on `min(4, cores)` workers.
    fn default() -> Self {
        TrajectoryConfig {
            trajectories: 500,
            seed: 0x5EED,
            workers: host_threads().min(4),
        }
    }
}

/// The per-trajectory RNG seed: a SplitMix64-style mix of the master
/// seed and the trajectory index, deliberately independent of worker
/// assignment.
fn trajectory_seed(seed: u64, t: u64) -> u64 {
    seed ^ (t.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Monte-Carlo noisy simulation wrapping any stochastic-Kraus-capable
/// substrate engine, as a pluggable [`SimulationEngine`].
///
/// The engine records the gate stream during the run-loop pass, each
/// gate followed by the channels the model places after it
/// ([`CompiledNoise::channels_after`]), and replays it once per
/// trajectory at query time (`sample`, `expectation`), so one
/// `TrajectoryEngine` supports any number of queries. Dense
/// `amplitudes` are rejected — the averaged state is mixed and has no
/// amplitude vector.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use qdt_engine::{run, SimulationEngine};
/// use qdt_noise::{KrausChannel, NoiseModel, TrajectoryConfig, TrajectoryEngine};
///
/// let mut qc = qdt_circuit::Circuit::new(2);
/// qc.h(0).cx(0, 1);
/// let noise = NoiseModel::uniform(KrausChannel::BitFlip { p: 0.05 });
/// let config = TrajectoryConfig { trajectories: 200, seed: 7, workers: 2 };
/// let factory: qdt_engine::EngineFactory = Arc::new(|| {
///     Ok(Box::new(qdt_engine::test_engine::ReferenceEngine::default())
///         as Box<dyn SimulationEngine>)
/// });
/// let mut engine = TrajectoryEngine::new(factory, config, &noise)?;
/// run(&mut engine, &qc)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// # use rand::SeedableRng;
/// let counts = engine.sample(200, &mut rng)?;
/// assert_eq!(counts.values().sum::<usize>(), 200);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct TrajectoryEngine {
    factory: EngineFactory,
    config: TrajectoryConfig,
    noise: CompiledNoise,
    num_qubits: usize,
    /// The recorded gates, each followed by its channels.
    program: Vec<Instruction>,
    /// Gates in `program` (channels not counted).
    gates: usize,
    inner_name: &'static str,
    inner_caps: EngineCaps,
    /// Attached telemetry, if any (see [`SimulationEngine::telemetry`]).
    sink: Option<TelemetrySink>,
}

impl TrajectoryEngine {
    /// Builds a trajectory engine over fresh substrates from `factory`.
    ///
    /// One probe substrate is constructed immediately to verify that it
    /// advertises [`EngineCaps::stochastic_kraus`].
    ///
    /// # Errors
    ///
    /// [`NoiseError::Engine`] if the factory fails or the substrate
    /// cannot apply Kraus operators; model validation errors as for
    /// [`NoiseModel::compile`](crate::NoiseModel::compile).
    pub fn new(
        factory: EngineFactory,
        config: TrajectoryConfig,
        model: &NoiseModel,
    ) -> Result<Self, NoiseError> {
        let probe = factory().map_err(NoiseError::Engine)?;
        if !probe.caps().stochastic_kraus {
            return Err(NoiseError::Engine(EngineError::Unsupported {
                engine: probe.name(),
                what: "hosting stochastic noise trajectories (no Kraus support)".into(),
            }));
        }
        Ok(TrajectoryEngine {
            factory,
            config,
            noise: model.compile()?,
            num_qubits: 0,
            program: Vec::new(),
            gates: 0,
            inner_name: probe.name(),
            inner_caps: probe.caps(),
            sink: None,
        })
    }

    /// The trajectory configuration.
    pub fn config(&self) -> &TrajectoryConfig {
        &self.config
    }

    /// Replays the recorded program as trajectory `t`: fresh substrate,
    /// per-trajectory RNG, one drawn branch per channel
    /// ([`apply_channel`]).
    fn evolve(&self, t: u64) -> Result<(Box<dyn SimulationEngine>, StdRng), EngineError> {
        let mut rng = StdRng::seed_from_u64(trajectory_seed(self.config.seed, t));
        let mut engine = (self.factory)()?;
        engine.prepare(self.num_qubits.max(1))?;
        for inst in &self.program {
            match &inst.kind {
                OpKind::Channel { qubit, channel } => {
                    apply_channel(engine.as_mut(), channel, *qubit, &mut rng)?;
                }
                _ => engine.apply_instruction(inst)?,
            }
        }
        Ok((engine, rng))
    }

    /// Runs `job` for every trajectory index, striped across the shared
    /// worker pool (worker `w` owns trajectories `w, w + workers, …`),
    /// and returns the outputs in trajectory-index order, so any fold
    /// over them (a float sum included) is the same for every worker
    /// count.
    ///
    /// With telemetry attached, each worker opens a `worker` span (the
    /// tracer tags it with the worker thread's own id) and reports its
    /// completed-trajectory count and busy time. The busy-time metric is
    /// wall-clock (`_us` suffix), so determinism comparisons skip it;
    /// everything else is independent of the worker count.
    fn parallel_trajectories<T, F>(&self, job: F) -> Result<Vec<T>, EngineError>
    where
        T: Send,
        F: Fn(u64) -> Result<Option<T>, EngineError> + Sync,
    {
        let total = self.config.trajectories.max(1);
        let workers = self.config.workers.max(1).min(total);
        if let Some(sink) = &self.sink {
            #[allow(clippy::cast_precision_loss)]
            sink.metrics().gauge_set("traj.workers", workers as f64);
        }
        let sink = &self.sink;
        let stripes = WorkerPool::shared(workers).run_per_worker(workers, &|w| {
            let _frame = qdt_engine::telemetry::profile_frame("traj:worker");
            let _span = sink
                .as_ref()
                .map(|s| s.tracer().span_in("trajectories", "worker"));
            let started = std::time::Instant::now();
            let mut completed = 0u64;
            let mut out = Vec::new();
            let mut failure = None;
            for t in (w..total).step_by(workers) {
                match job(t as u64) {
                    Ok(Some(v)) => out.push((t, v)),
                    Ok(None) => {}
                    Err(e) => {
                        failure = Some(e);
                        break;
                    }
                }
                completed += 1;
            }
            if let Some(s) = sink {
                let m = s.metrics();
                m.counter_add("traj.trajectories.completed", completed);
                #[allow(clippy::cast_precision_loss)]
                m.histogram_record("traj.worker.busy_us", started.elapsed().as_micros() as f64);
            }
            match failure {
                Some(e) => Err(e),
                None => Ok(out),
            }
        });
        let mut results: Vec<(usize, T)> = Vec::with_capacity(total);
        for stripe in stripes {
            results.extend(stripe?);
        }
        results.sort_unstable_by_key(|&(t, _)| t);
        Ok(results.into_iter().map(|(_, v)| v).collect())
    }
}

impl SimulationEngine for TrajectoryEngine {
    fn name(&self) -> &'static str {
        "trajectories"
    }

    fn caps(&self) -> EngineCaps {
        EngineCaps {
            max_qubits: self.inner_caps.max_qubits,
            stochastic_kraus: false,
            // The averaged state is mixed, so no projective collapse;
            // dynamic circuits compose with noise in the shot loop
            // instead, on `NoiseModel::apply`'s circuit.
            dynamic: false,
        }
    }

    fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    fn prepare(&mut self, num_qubits: usize) -> Result<(), EngineError> {
        if num_qubits > self.inner_caps.max_qubits {
            return Err(EngineError::TooWide {
                num_qubits,
                limit: self.inner_caps.max_qubits,
                what: "trajectory substrate register",
            });
        }
        self.num_qubits = num_qubits;
        self.program.clear();
        self.gates = 0;
        Ok(())
    }

    fn apply_instruction(&mut self, inst: &Instruction) -> Result<(), EngineError> {
        check_instruction_width(self.num_qubits(), inst)?;
        // Gates are recorded, not executed: each trajectory replays the
        // program with its own noise realisation at query time. The
        // model's rules are matched here, once per run.
        self.program.push(inst.clone());
        self.program.extend(self.noise.channels_after(inst));
        self.gates += usize::from(!matches!(inst.kind, OpKind::Channel { .. }));
        if let Some(sink) = &self.sink {
            #[allow(clippy::cast_precision_loss)]
            sink.metrics()
                .gauge_set("traj.program.gates", self.gates as f64);
        }
        Ok(())
    }

    fn cost_metric(&self) -> CostMetric {
        CostMetric {
            name: "trajectory-gates",
            value: self.gates,
        }
    }

    fn amplitudes(&mut self) -> Result<Vec<Complex>, EngineError> {
        Err(EngineError::Unsupported {
            engine: "trajectories",
            what: "dense amplitudes (the trajectory-averaged state is mixed)".into(),
        })
    }

    fn amplitude(&mut self, _basis: u128) -> Result<Complex, EngineError> {
        Err(EngineError::Unsupported {
            engine: "trajectories",
            what: "single amplitudes (the trajectory-averaged state is mixed)".into(),
        })
    }

    /// Merged measurement histogram over all trajectories.
    ///
    /// `shots` are distributed as evenly as possible across the
    /// configured trajectories (each trajectory is one noise
    /// realisation; its shots sample its final pure state). The
    /// caller-provided RNG is **unused**: determinism comes from the
    /// config seed alone, so fixed-seed runs reproduce bit-identically
    /// for any worker count.
    fn sample(
        &mut self,
        shots: usize,
        _rng: &mut dyn RngCore,
    ) -> Result<BTreeMap<u128, usize>, EngineError> {
        let total = self.config.trajectories.max(1);
        let (base, extra) = (shots / total, shots % total);
        let n = self.num_qubits;
        let histograms = self.parallel_trajectories(|t| {
            let shots_t = base + usize::from((t as usize) < extra);
            if shots_t == 0 {
                return Ok(None);
            }
            let (mut engine, mut rng) = self.evolve(t)?;
            // Classical readout error, per shot.
            let mut flipped = BTreeMap::new();
            for (outcome, count) in engine.sample(shots_t, &mut rng)? {
                for _ in 0..count {
                    let noisy = self.noise.flip_readout(outcome, n, &mut rng);
                    *flipped.entry(noisy).or_insert(0) += 1;
                }
            }
            Ok(Some(flipped))
        })?;
        let mut merged = BTreeMap::new();
        for histogram in histograms {
            for (outcome, count) in histogram {
                *merged.entry(outcome).or_insert(0) += count;
            }
        }
        Ok(merged)
    }

    /// The trajectory average of `⟨ψₜ|P|ψₜ⟩` — the Monte-Carlo
    /// estimator of `Tr(ρP)`.
    fn expectation(&mut self, pauli: &PauliString) -> Result<f64, EngineError> {
        check_pauli_width(self.num_qubits, pauli)?;
        let values = self.parallel_trajectories(|t| {
            let (mut engine, _rng) = self.evolve(t)?;
            engine.expectation(pauli).map(Some)
        })?;
        let total = values.len().max(1) as f64;
        Ok(values.iter().sum::<f64>() / total)
    }

    fn telemetry(&mut self, sink: &TelemetrySink) {
        self.sink = sink.enabled_clone();
    }
}

impl std::fmt::Debug for TrajectoryEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrajectoryEngine")
            .field("config", &self.config)
            .field("inner", &self.inner_name)
            .field("num_qubits", &self.num_qubits)
            .field("gates", &self.gates)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use super::*;
    use qdt_circuit::Circuit;
    use qdt_engine::run;
    use qdt_engine::test_engine::ReferenceEngine;

    use crate::{KrausChannel, NoiseModel};

    fn reference_factory() -> EngineFactory {
        Arc::new(|| Ok(Box::new(ReferenceEngine::default()) as Box<dyn SimulationEngine>))
    }

    fn bell() -> Circuit {
        let mut qc = Circuit::new(2);
        qc.h(0).cx(0, 1);
        qc
    }

    fn engine_with(
        trajectories: usize,
        seed: u64,
        workers: usize,
        model: &NoiseModel,
    ) -> TrajectoryEngine {
        TrajectoryEngine::new(
            reference_factory(),
            TrajectoryConfig {
                trajectories,
                seed,
                workers,
            },
            model,
        )
        .unwrap()
    }

    #[test]
    fn noiseless_trajectories_reproduce_bell_statistics() {
        let mut e = engine_with(50, 3, 2, &NoiseModel::new());
        run(&mut e, &bell()).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let counts = e.sample(2000, &mut rng).unwrap();
        assert!(counts.keys().all(|&k| k == 0 || k == 3));
        let zz: PauliString = "ZZ".parse().unwrap();
        assert!((e.expectation(&zz).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fixed_seed_is_reproducible_across_worker_counts() {
        let noise = NoiseModel::uniform(KrausChannel::Depolarizing { p: 0.1 });
        let mut rng = StdRng::seed_from_u64(0);
        let mut histograms = Vec::new();
        for workers in [1, 2, 4, 8] {
            let mut e = engine_with(64, 42, workers, &noise);
            run(&mut e, &bell()).unwrap();
            histograms.push(e.sample(64, &mut rng).unwrap());
        }
        for h in &histograms[1..] {
            assert_eq!(h, &histograms[0], "worker count must not change results");
        }
    }

    #[test]
    fn different_seeds_give_different_noise_realisations() {
        let noise = NoiseModel::uniform(KrausChannel::BitFlip { p: 0.25 });
        let mut rng = StdRng::seed_from_u64(0);
        let mut a = engine_with(128, 1, 2, &noise);
        run(&mut a, &bell()).unwrap();
        let mut b = engine_with(128, 2, 2, &noise);
        run(&mut b, &bell()).unwrap();
        assert_ne!(
            a.sample(128, &mut rng).unwrap(),
            b.sample(128, &mut rng).unwrap()
        );
    }

    #[test]
    fn amplitudes_are_rejected_as_mixed() {
        let mut e = engine_with(10, 0, 1, &NoiseModel::new());
        run(&mut e, &bell()).unwrap();
        assert!(matches!(
            e.amplitudes(),
            Err(EngineError::Unsupported { .. })
        ));
        assert!(matches!(
            e.amplitude(0),
            Err(EngineError::Unsupported { .. })
        ));
    }

    #[test]
    fn substrate_without_kraus_support_is_rejected_up_front() {
        let factory: EngineFactory = Arc::new(|| {
            Ok(Box::new(CountingKraus(
                ReferenceEngine::default(),
                Arc::default(),
                false,
            )) as _)
        });
        let err = TrajectoryEngine::new(factory, TrajectoryConfig::default(), &NoiseModel::new());
        assert!(matches!(
            err,
            Err(NoiseError::Engine(EngineError::Unsupported { .. }))
        ));
    }

    /// Forwards to [`ReferenceEngine`], counting `apply_kraus` calls;
    /// the flag is what it advertises as `stochastic_kraus`.
    struct CountingKraus(ReferenceEngine, Arc<AtomicUsize>, bool);
    impl SimulationEngine for CountingKraus {
        fn name(&self) -> &'static str {
            "counting-kraus"
        }
        fn caps(&self) -> EngineCaps {
            EngineCaps {
                stochastic_kraus: self.2,
                ..self.0.caps()
            }
        }
        fn num_qubits(&self) -> usize {
            self.0.num_qubits()
        }
        fn prepare(&mut self, n: usize) -> Result<(), EngineError> {
            self.0.prepare(n)
        }
        fn prepare_for(&mut self, circuit: &Circuit) -> Result<(), EngineError> {
            self.0.prepare_for(circuit)
        }
        fn flush(&mut self) -> Result<(), EngineError> {
            self.0.flush()
        }
        fn apply_instruction(&mut self, inst: &Instruction) -> Result<(), EngineError> {
            self.0.apply_instruction(inst)
        }
        fn cost_metric(&self) -> CostMetric {
            self.0.cost_metric()
        }
        fn amplitudes(&mut self) -> Result<Vec<Complex>, EngineError> {
            self.0.amplitudes()
        }
        fn apply_kraus(
            &mut self,
            kraus: &[qdt_complex::Matrix],
            qubit: usize,
            rng: &mut dyn RngCore,
        ) -> Result<usize, EngineError> {
            self.1.fetch_add(1, Ordering::Relaxed);
            self.0.apply_kraus(kraus, qubit, rng)
        }
    }

    /// A factory of [`CountingKraus`] engines sharing one call counter.
    fn counting_factory() -> (EngineFactory, Arc<AtomicUsize>) {
        let calls = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&calls);
        let factory: EngineFactory = Arc::new(move || {
            Ok(Box::new(CountingKraus(
                ReferenceEngine::default(),
                Arc::clone(&counted),
                true,
            )) as _)
        });
        (factory, calls)
    }

    #[test]
    fn pauli_channels_draw_like_the_born_rule() {
        let qc = qdt_circuit::generators::ghz(4);
        let (trajectories, seed) = (64usize, 29u64);
        // Z errors leave Z₀Z₃ alone but flip X^⊗4, so together the two
        // observables see every branch of the three channels.
        let paulis: [PauliString; 2] = ["ZIIZ".parse().unwrap(), "XXXX".parse().unwrap()];
        for ch in [
            KrausChannel::Depolarizing { p: 0.3 },
            KrausChannel::BitFlip { p: 0.3 },
            KrausChannel::PhaseFlip { p: 0.3 },
        ] {
            let model = NoiseModel::uniform(ch);
            // The Born-weight path, written out: every channel through
            // `ReferenceEngine::apply_kraus`, seeded per trajectory.
            let compiled = model.compile().unwrap();
            let mut born = [0.0; 2];
            for t in 0..trajectories {
                let mut rng = StdRng::seed_from_u64(trajectory_seed(seed, t as u64));
                let mut e = ReferenceEngine::default();
                e.prepare(4).unwrap();
                for inst in qc.instructions() {
                    e.apply_instruction(inst).unwrap();
                    for ch in compiled.channels_after(inst) {
                        let OpKind::Channel { qubit, channel } = ch.kind else {
                            unreachable!("channels_after yields channels");
                        };
                        e.apply_kraus(channel.kraus(), qubit, &mut rng).unwrap();
                    }
                }
                for (sum, p) in born.iter_mut().zip(&paulis) {
                    *sum += e.expectation(p).unwrap() / trajectories as f64;
                }
            }
            let (factory, calls) = counting_factory();
            let config = TrajectoryConfig {
                trajectories,
                seed,
                workers: 2,
            };
            let mut drawn = TrajectoryEngine::new(factory, config, &model).unwrap();
            run(&mut drawn, &qc).unwrap();
            for (expect, p) in born.iter().zip(&paulis) {
                let got = drawn.expectation(p).unwrap();
                assert!((got - expect).abs() < 1e-12, "{ch} {p}: {got} vs {expect}");
            }
            assert_eq!(
                calls.load(Ordering::Relaxed),
                0,
                "{ch} is drawn, not Born-weighted"
            );
        }

        // The damping channels still take the Born-weight path: 7
        // channel firings (1 on H, 2 per CX) per trajectory.
        for ch in [
            KrausChannel::AmplitudeDamping { gamma: 0.3 },
            KrausChannel::PhaseDamping { lambda: 0.3 },
        ] {
            let (factory, calls) = counting_factory();
            let config = TrajectoryConfig {
                trajectories: 8,
                seed,
                workers: 2,
            };
            let mut e = TrajectoryEngine::new(factory, config, &NoiseModel::uniform(ch)).unwrap();
            run(&mut e, &qc).unwrap();
            e.expectation(&paulis[0]).unwrap();
            assert_eq!(calls.load(Ordering::Relaxed), 8 * 7, "{ch}");
        }
    }

    #[test]
    fn telemetry_spans_workers_and_counts_trajectories() {
        use qdt_engine::run_traced;
        use qdt_engine::telemetry::{MetricValue, TraceEventKind};

        let noise = NoiseModel::uniform(KrausChannel::BitFlip { p: 0.1 });
        let sink = TelemetrySink::new();
        let mut e = engine_with(32, 7, 4, &noise);
        let (_stats, log) = run_traced(&mut e, &bell(), &sink).unwrap();
        assert_eq!(log.len(), 2);
        let zz: PauliString = "ZZ".parse().unwrap();
        e.expectation(&zz).unwrap();

        // All 32 trajectories completed, reported across 4 worker spans
        // tagged with distinct thread ids.
        assert_eq!(
            sink.metrics().get("traj.trajectories.completed"),
            Some(MetricValue::Counter(32))
        );
        let workers: Vec<_> = sink
            .tracer()
            .events()
            .into_iter()
            .filter(|ev| ev.name == "worker" && ev.kind == TraceEventKind::Begin)
            .collect();
        assert_eq!(workers.len(), 4);
        let mut threads: Vec<_> = workers.iter().map(|ev| ev.thread).collect();
        threads.sort_unstable();
        threads.dedup();
        assert_eq!(threads.len(), 4, "each worker span has its own thread id");
    }

    #[test]
    fn readout_flip_applies_per_shot() {
        let noise = NoiseModel::new().with_readout_flip(1.0);
        let mut e = engine_with(8, 5, 2, &noise);
        let qc = Circuit::new(1); // |0⟩; certain flip reads |1⟩
        run(&mut e, &qc).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let counts = e.sample(80, &mut rng).unwrap();
        assert_eq!(*counts.get(&1).unwrap_or(&0), 80);
    }
}
