//! The dense density-matrix engine: exact noise-aware simulation.
//!
//! Where the pure-state engines track `2^n` amplitudes, this engine
//! tracks the full `2^n × 2^n` density matrix ρ, so a [`NoiseModel`]'s
//! channels apply *exactly* (as superoperators `ρ → Σ Kᵢ ρ Kᵢ†`)
//! instead of stochastically. That squares the memory cost — the
//! engine is capped at [`MAX_DENSITY_QUBITS`] qubits — but it yields
//! the ground truth that trajectory sampling
//! ([`TrajectoryEngine`](crate::TrajectoryEngine)) converges to.

use std::collections::BTreeMap;

use qdt_array::{DensityMatrix, MAX_DENSITY_QUBITS};
use qdt_circuit::{Instruction, OpKind, PauliString};
use qdt_complex::Complex;
use qdt_engine::telemetry::{MemoryGauge, MetricId};
use qdt_engine::{
    check_instruction_width, check_pauli_width, CostMetric, EngineCaps, EngineError,
    SimulationEngine, TelemetrySink,
};
use qdt_parallel::KernelContext;
use rand::{Rng, RngCore};

use crate::{CompiledNoise, NoiseError, NoiseModel};

/// Entries of ρ with squared magnitude below this count as zero in the
/// cost metric.
const NONZERO_EPS: f64 = 1e-24;

/// Exact noise-aware simulation over a dense density matrix, as a
/// pluggable [`SimulationEngine`].
///
/// The attached [`NoiseModel`]'s channels fire inside
/// [`apply_instruction`](SimulationEngine::apply_instruction), after
/// the instruction's unitary — so the shared run-loop drives noisy and
/// noiseless engines identically. A channel written into the circuit
/// ([`OpKind::Channel`], see [`NoiseModel::apply`]) applies through the
/// same arm, so the two spellings give the same ρ. The cost metric is
/// the number of nonzero entries of ρ (`"rho-nonzeros"`): pure
/// structured states stay sparse, decoherence fills the matrix.
///
/// # Example
///
/// ```
/// use qdt_engine::{run, SimulationEngine};
/// use qdt_noise::{DensityMatrixEngine, KrausChannel, NoiseModel};
///
/// let mut qc = qdt_circuit::Circuit::new(2);
/// qc.h(0).cx(0, 1);
/// let noise = NoiseModel::uniform(KrausChannel::Depolarizing { p: 0.05 });
/// let mut engine = DensityMatrixEngine::with_noise(&noise)?;
/// run(&mut engine, &qc)?;
/// assert!(engine.density().purity() < 1.0);
/// assert!((engine.density().trace() - 1.0).abs() < 1e-9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct DensityMatrixEngine {
    rho: DensityMatrix,
    noise: CompiledNoise,
    /// Kernel scheduling: thread count, fallback threshold, pool sink.
    ctx: KernelContext,
    /// Interned telemetry handles, if a live sink is attached.
    metrics: Option<DensityMetrics>,
}

/// Interned metric handles for [`DensityMatrixEngine`], built once when
/// a live sink is attached so the per-gate path records by [`MetricId`].
#[derive(Debug, Clone)]
struct DensityMetrics {
    sink: TelemetrySink,
    flops: MetricId,
    bytes: MetricId,
    kraus: MetricId,
    nonzeros: MetricId,
    trace: MetricId,
    mem: MemoryGauge,
}

impl DensityMetrics {
    fn new(sink: TelemetrySink) -> Self {
        let m = sink.metrics();
        let flops = m.register("density.gate.flops");
        let bytes = m.register("density.bytes.touched");
        let kraus = m.register("density.noise.kraus_applications");
        let nonzeros = m.register("density.rho.nonzeros");
        let trace = m.register("density.rho.trace");
        let mem = MemoryGauge::new(m, "density.rho");
        DensityMetrics {
            sink,
            flops,
            bytes,
            kraus,
            nonzeros,
            trace,
            mem,
        }
    }
}

impl DensityMatrixEngine {
    /// A noiseless density-matrix engine whose superoperator kernels run
    /// on [`qdt_parallel::default_threads`] threads: `QDT_THREADS` when
    /// set, else the host's cores. Passes below the default threshold
    /// (every ρ of at most 9 qubits) stay inline. Results are
    /// bit-identical for every thread count.
    pub fn new() -> Self {
        DensityMatrixEngine {
            rho: DensityMatrix::zero_state(1),
            noise: CompiledNoise::default(),
            ctx: KernelContext::from_env(),
            metrics: None,
        }
    }

    /// An engine applying `model`'s channels after every matching
    /// instruction.
    ///
    /// # Errors
    ///
    /// [`NoiseError`] if the model fails validation (parameter range or
    /// CPTP completeness).
    pub fn with_noise(model: &NoiseModel) -> Result<Self, NoiseError> {
        Self::with_noise_and_context(model, KernelContext::from_env())
    }

    /// An engine with both a noise model and an explicit
    /// [`KernelContext`] (thread count, sequential-fallback threshold).
    ///
    /// # Errors
    ///
    /// As [`DensityMatrixEngine::with_noise`].
    pub fn with_noise_and_context(
        model: &NoiseModel,
        ctx: KernelContext,
    ) -> Result<Self, NoiseError> {
        Ok(DensityMatrixEngine {
            rho: DensityMatrix::zero_state(1),
            noise: model.compile()?,
            ctx,
            metrics: None,
        })
    }

    /// The current density matrix.
    pub fn density(&self) -> &DensityMatrix {
        &self.rho
    }

    fn nonzero_entries(&self) -> usize {
        self.rho
            .entries()
            .iter()
            .filter(|c| c.norm_sqr() > NONZERO_EPS)
            .count()
    }

    /// Pushes ρ health gauges and flop/byte estimates for one applied
    /// instruction into the attached sink (no-op without one).
    ///
    /// The cost model is the array engine's count on ρ's `2n`-qubit
    /// vector: a gate is two controlled 1-qubit passes (`U` on the row
    /// qubit, `Ū` on the column qubit), each over `2^(2n-1-#controls)`
    /// pairs of 28 flops / 64 bytes, and a swap is two swap passes, each
    /// moving `2^(2n-2-#controls)` pairs with no arithmetic. Kraus
    /// channel applications are counted separately
    /// (`density.noise.kraus_applications`), not flop-modeled.
    fn push_metrics(&self, inst: &Instruction, kraus_applications: u64) {
        let Some(metrics) = &self.metrics else { return };
        let n = self.rho.num_qubits();
        let dim = 1u64 << n as u32;
        let (flops, bytes) = match &inst.kind {
            OpKind::Unitary { controls, .. } => {
                let pairs = (1u64 << (n - 1 - controls.len().min(n - 1)) as u32) * 2 * dim;
                (28 * pairs, 64 * pairs)
            }
            OpKind::Swap { controls, .. } if n >= 2 => {
                let pairs = (1u64 << (n - 2 - controls.len().min(n - 2)) as u32) * 2 * dim;
                (0, 64 * pairs)
            }
            _ => (0, 0),
        };
        let m = metrics.sink.metrics();
        m.counter_add_id(metrics.flops, flops);
        m.counter_add_id(metrics.bytes, bytes);
        m.counter_add_id(metrics.kraus, kraus_applications);
        #[allow(clippy::cast_precision_loss)]
        m.gauge_set_id(metrics.nonzeros, self.nonzero_entries() as f64);
        m.gauge_set_id(metrics.trace, self.rho.trace());
        metrics.mem.record(self.memory_bytes());
    }
}

impl Default for DensityMatrixEngine {
    fn default() -> Self {
        DensityMatrixEngine::new()
    }
}

impl SimulationEngine for DensityMatrixEngine {
    fn name(&self) -> &'static str {
        "density"
    }

    fn caps(&self) -> EngineCaps {
        EngineCaps {
            max_qubits: MAX_DENSITY_QUBITS,
            stochastic_kraus: false,
            dynamic: false,
        }
    }

    fn num_qubits(&self) -> usize {
        self.rho.num_qubits()
    }

    fn prepare(&mut self, num_qubits: usize) -> Result<(), EngineError> {
        if num_qubits > MAX_DENSITY_QUBITS {
            return Err(EngineError::TooWide {
                num_qubits,
                limit: MAX_DENSITY_QUBITS,
                what: "dense density matrix",
            });
        }
        // Drop the old ρ before building the new one, so the two never
        // coexist; at the same width the new one reuses its buffer.
        self.rho = DensityMatrix::zero_state(1);
        self.rho = DensityMatrix::zero_state(num_qubits.max(1));
        Ok(())
    }

    fn apply_instruction(&mut self, inst: &Instruction) -> Result<(), EngineError> {
        check_instruction_width(self.num_qubits(), inst)?;
        match &inst.kind {
            OpKind::Unitary {
                gate,
                target,
                controls,
            } => {
                self.rho
                    .apply_controlled_gate_with(&gate.matrix(), *target, controls, &self.ctx);
            }
            OpKind::Swap { a, b, controls } => {
                self.rho.apply_swap_with(*a, *b, controls, &self.ctx);
            }
            OpKind::Channel { qubit, channel } => {
                self.rho
                    .apply_kraus_with(channel.kraus(), *qubit, &self.ctx);
                self.push_metrics(inst, 1);
                return Ok(());
            }
            other => {
                return Err(EngineError::NonUnitary {
                    op: format!("{other:?}"),
                });
            }
        }
        self.push_metrics(inst, 0);
        let channels: Vec<Instruction> = self.noise.channels_after(inst).collect();
        channels
            .iter()
            .try_for_each(|ch| self.apply_instruction(ch))
    }

    fn cost_metric(&self) -> CostMetric {
        CostMetric {
            name: "rho-nonzeros",
            value: self.nonzero_entries(),
        }
    }

    fn amplitudes(&mut self) -> Result<Vec<Complex>, EngineError> {
        // Only a (numerically) pure ρ = |ψ⟩⟨ψ| has an amplitude vector.
        let purity = self.rho.purity();
        if (purity - 1.0).abs() > 1e-6 {
            return Err(EngineError::Unsupported {
                engine: "density",
                what: format!("dense amplitudes of a mixed state (purity {purity:.6})"),
            });
        }
        // Column j of |ψ⟩⟨ψ| is ψ·ψⱼ*; pick the heaviest j and fix the
        // global phase so that ψⱼ is real positive.
        let probs = self.rho.probabilities();
        let (j, pj) = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("density matrix has at least one diagonal entry");
        let scale = 1.0 / pj.sqrt().max(f64::MIN_POSITIVE);
        Ok((0..probs.len())
            .map(|i| self.rho.entry(i, j).scale(scale))
            .collect())
    }

    fn sample(
        &mut self,
        shots: usize,
        rng: &mut dyn RngCore,
    ) -> Result<BTreeMap<u128, usize>, EngineError> {
        let probs = self.rho.probabilities();
        let n = self.rho.num_qubits();
        let mut counts = BTreeMap::new();
        for _ in 0..shots {
            let mut r: f64 = rng.gen();
            let mut chosen = probs.len() - 1;
            for (i, p) in probs.iter().enumerate() {
                if r < *p {
                    chosen = i;
                    break;
                }
                r -= p;
            }
            let outcome = self.noise.flip_readout(chosen as u128, n, rng);
            *counts.entry(outcome).or_insert(0) += 1;
        }
        Ok(counts)
    }

    fn expectation(&mut self, pauli: &PauliString) -> Result<f64, EngineError> {
        check_pauli_width(self.rho.num_qubits(), pauli)?;
        Ok(self.rho.expectation_pauli(pauli))
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(self.rho.entries())
    }

    fn telemetry(&mut self, sink: &TelemetrySink) {
        self.metrics = sink.enabled_clone().map(DensityMetrics::new);
        // The pool records only spans and a `_us` histogram — both off
        // the deterministic gate metric stream.
        self.ctx.set_telemetry(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdt_array::StateVector;
    use qdt_circuit::{generators, Circuit, Gate};
    use qdt_engine::run;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::KrausChannel;

    fn bell() -> Circuit {
        let mut qc = Circuit::new(2);
        qc.h(0).cx(0, 1);
        qc
    }

    #[test]
    fn noiseless_run_matches_pure_bell_state() {
        let mut e = DensityMatrixEngine::new();
        run(&mut e, &bell()).unwrap();
        let amps = e.amplitudes().unwrap();
        let r = 1.0 / 2f64.sqrt();
        assert!((amps[0].abs() - r).abs() < 1e-9);
        assert!((amps[3].abs() - r).abs() < 1e-9);
        assert!(amps[1].abs() < 1e-9 && amps[2].abs() < 1e-9);
        let xx: PauliString = "XX".parse().unwrap();
        assert!((e.expectation(&xx).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn depolarizing_noise_mixes_the_state_and_blocks_amplitudes() {
        let noise = NoiseModel::uniform(KrausChannel::Depolarizing { p: 0.2 });
        let mut e = DensityMatrixEngine::with_noise(&noise).unwrap();
        run(&mut e, &bell()).unwrap();
        assert!(e.density().purity() < 0.95);
        assert!((e.density().trace() - 1.0).abs() < 1e-9);
        assert!(matches!(
            e.amplitudes(),
            Err(EngineError::Unsupported { .. })
        ));
        let zz: PauliString = "ZZ".parse().unwrap();
        let noisy = e.expectation(&zz).unwrap();
        assert!(noisy < 1.0 && noisy > 0.0, "⟨ZZ⟩ shrinks toward 0: {noisy}");
    }

    #[test]
    fn swap_decomposition_matches_statevector_semantics() {
        let mut qc = Circuit::new(2);
        qc.x(0);
        qc.swap(0, 1);
        let mut e = DensityMatrixEngine::new();
        run(&mut e, &qc).unwrap();
        let amps = e.amplitudes().unwrap();
        assert!((amps[2].abs() - 1.0).abs() < 1e-9, "|01⟩ → |10⟩");
    }

    #[test]
    fn readout_flip_perturbs_samples() {
        let noise = NoiseModel::new().with_readout_flip(0.5);
        let mut e = DensityMatrixEngine::with_noise(&noise).unwrap();
        let mut qc = Circuit::new(1);
        qc.x(0); // deterministic |1⟩ before readout noise
        run(&mut e, &qc).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let counts = e.sample(2000, &mut rng).unwrap();
        let ones = *counts.get(&1).unwrap_or(&0) as f64;
        assert!((ones / 2000.0 - 0.5).abs() < 0.05, "50% flip rate");
    }

    #[test]
    fn telemetry_tracks_rho_health_and_flops() {
        use qdt_engine::run_traced;

        let noise = NoiseModel::uniform(KrausChannel::Depolarizing { p: 0.1 });
        let sink = TelemetrySink::new();
        let mut e = DensityMatrixEngine::with_noise(&noise).unwrap();
        let (_stats, log) = run_traced(&mut e, &bell(), &sink).unwrap();
        assert_eq!(log.len(), 2);
        let get = |name: &str| {
            log[1]
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing {name}"))
        };
        // Per gate on 2 qubits: 2 (sides) · 4 (dim) · 2^(n-1-c) pairs;
        // H has 2 pairs/column (16 total), CX 1 (8 total): 24 · 28 flops.
        assert!((get("density.gate.flops") - 672.0).abs() < 1e-9);
        // Uniform noise fires once per touched qubit: 1 (H) + 2 (CX).
        assert!((get("density.noise.kraus_applications") - 3.0).abs() < 1e-9);
        assert!((get("density.rho.trace") - 1.0).abs() < 1e-9);
        assert!(get("density.rho.nonzeros") > 4.0, "noise fills in entries");
    }

    #[test]
    fn width_guard_respects_density_limit() {
        let mut e = DensityMatrixEngine::new();
        assert!(matches!(
            e.prepare(MAX_DENSITY_QUBITS + 1),
            Err(EngineError::TooWide { .. })
        ));
    }

    /// Runs `qc` on a density-matrix engine with `model` attached.
    fn density_after(qc: &Circuit, model: &NoiseModel) -> DensityMatrix {
        let mut e = DensityMatrixEngine::with_noise(model).unwrap();
        run(&mut e, qc).unwrap();
        e.density().clone()
    }

    #[test]
    fn written_in_channels_equal_the_model_weave() {
        let mut rng = StdRng::seed_from_u64(5);
        let circuits = [
            generators::ghz(8),
            generators::random_circuit(4, 4, &mut rng),
            generators::random_circuit(5, 3, &mut rng),
        ];
        for qc in &circuits {
            for ch in KrausChannel::all_kinds(0.07) {
                let model = NoiseModel::uniform(ch);
                let woven = density_after(qc, &model);
                let written = density_after(&model.apply(qc).unwrap(), &NoiseModel::new());
                assert_eq!(woven.entries(), written.entries(), "{ch}");
            }
        }
    }

    #[test]
    fn kraus_operators_are_trace_preserving() {
        let mut prep = Circuit::new(1);
        prep.h(0).t(0);
        for ch in [
            KrausChannel::Depolarizing { p: 0.3 },
            KrausChannel::AmplitudeDamping { gamma: 0.4 },
            KrausChannel::PhaseDamping { lambda: 0.2 },
            KrausChannel::BitFlip { p: 0.1 },
            KrausChannel::PhaseFlip { p: 0.25 },
        ] {
            let dm = density_after(&prep, &NoiseModel::uniform(ch));
            assert!((dm.trace() - 1.0).abs() < 1e-12, "{ch} violates Tr ρ = 1");
        }
    }

    #[test]
    fn noiseless_matches_state_vector() {
        for qc in [
            generators::bell(),
            generators::ghz(3),
            generators::qft(3, true),
        ] {
            let dm = density_after(&qc, &NoiseModel::new());
            let psi = StateVector::from_circuit(&qc).unwrap();
            assert!((dm.purity() - 1.0).abs() < 1e-10, "pure run lost purity");
            assert!((dm.fidelity_with_pure(&psi) - 1.0).abs() < 1e-10);
            for (i, p) in psi.probabilities().iter().enumerate() {
                assert!((dm.probability(i) - p).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn depolarizing_reduces_purity_and_preserves_trace() {
        let noise = NoiseModel::uniform(KrausChannel::Depolarizing { p: 0.1 });
        let dm = density_after(&generators::ghz(3), &noise);
        assert!((dm.trace() - 1.0).abs() < 1e-10);
        assert!(dm.purity() < 0.95, "purity {} should drop", dm.purity());
    }

    #[test]
    fn stronger_noise_means_lower_fidelity() {
        let qc = generators::ghz(4);
        let psi = StateVector::from_circuit(&qc).unwrap();
        let mut last = 1.0;
        for p in [0.01, 0.05, 0.1, 0.2] {
            let noise = NoiseModel::uniform(KrausChannel::Depolarizing { p });
            let f = density_after(&qc, &noise).fidelity_with_pure(&psi);
            assert!(f < last, "fidelity must fall monotonically with noise");
            last = f;
        }
    }

    #[test]
    fn amplitude_damping_fixes_ground_state() {
        // Full damping sends everything to |0⟩⟨0|.
        let mut qc = Circuit::new(1);
        qc.x(0);
        let noise = NoiseModel::uniform(KrausChannel::AmplitudeDamping { gamma: 1.0 });
        let dm = density_after(&qc, &noise);
        assert!((dm.probability(0) - 1.0).abs() < 1e-12);
        assert!(dm.probability(1) < 1e-12);
    }

    #[test]
    fn phase_damping_kills_coherences_not_populations() {
        let mut qc = Circuit::new(1);
        qc.h(0);
        let noise = NoiseModel::uniform(KrausChannel::PhaseDamping { lambda: 1.0 });
        let dm = density_after(&qc, &noise);
        assert!((dm.probability(0) - 0.5).abs() < 1e-12);
        assert!(dm.entry(0, 1).abs() < 1e-12, "coherence must vanish");
    }

    #[test]
    fn bit_flip_half_probability_maximally_mixes() {
        // Z leaves |0⟩ unchanged; the channel after it does the mixing.
        let mut qc = Circuit::new(1);
        qc.z(0);
        let noise = NoiseModel::uniform(KrausChannel::BitFlip { p: 0.5 });
        let dm = density_after(&qc, &noise);
        assert!((dm.probability(0) - 0.5).abs() < 1e-12);
        assert!((dm.purity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn swap_decomposition_correct() {
        let mut qc = Circuit::new(2);
        qc.x(0).swap(0, 1);
        let dm = density_after(&qc, &NoiseModel::new());
        assert!((dm.probability(0b10) - 1.0).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn invalid_channel_parameter_panics() {
        KrausChannel::Depolarizing { p: 1.5 }.kraus_operators();
    }

    /// A random mixed 4-qubit ρ: random `U` gates and CX ladders, with
    /// depolarizing and amplitude damping mixed in between.
    fn random_mixed_state(seed: u64) -> DensityMatrix {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rho = DensityMatrix::zero_state(4);
        for layer in 0..3 {
            for q in 0..4 {
                let u = Gate::U(rng.gen(), rng.gen(), rng.gen()).matrix();
                rho.apply_controlled_gate(&u, q, &[]);
            }
            for q in 0..3 {
                rho.apply_controlled_gate(&Gate::X.matrix(), q + 1, &[q]);
            }
            let depol = KrausChannel::Depolarizing {
                p: rng.gen_range(0.0..0.3),
            };
            let damp = KrausChannel::AmplitudeDamping {
                gamma: rng.gen_range(0.0..0.5),
            };
            rho.apply_kraus(&depol.kraus_operators(), layer);
            rho.apply_kraus(&damp.kraus_operators(), 3 - layer);
        }
        rho
    }

    #[test]
    fn channel_sweep_matches_kraus_sum() {
        use qdt_complex::Matrix;

        let n = 4;
        let parallel = KernelContext::with_threads(4).with_threshold(1);
        for seed in [1, 2, 3] {
            let rho = random_mixed_state(seed);
            assert!(rho.purity() < 0.99, "the input must be mixed");
            for ch in KrausChannel::all_kinds(0.3) {
                let kraus = ch.kraus_operators();
                for q in 0..n {
                    // Reference: Σ_i K_i ρ K_i† with K_i lifted to the
                    // full register as I ⊗ … ⊗ K_i ⊗ … ⊗ I (qubit q is
                    // bit q of the basis index).
                    let mut expect = Matrix::zeros(16, 16);
                    for k in &kraus {
                        let full = Matrix::identity(1 << (n - 1 - q))
                            .kron(k)
                            .kron(&Matrix::identity(1 << q));
                        let term = full.mul(&rho.to_matrix()).mul(&full.dagger());
                        expect = expect.add(&term);
                    }
                    let mut swept = rho.clone();
                    swept.apply_kraus(&kraus, q);
                    assert!(
                        swept.to_matrix().approx_eq(&expect, 1e-12),
                        "{ch} on qubit {q} (seed {seed}) differs from Σ KρK†"
                    );
                    let mut threaded = rho.clone();
                    threaded.apply_kraus_with(&kraus, q, &parallel);
                    assert_eq!(
                        threaded.entries(),
                        swept.entries(),
                        "{ch} on qubit {q}: 4 threads must be bit-identical"
                    );
                }
            }
        }
    }

    /// Every gate kind under zero to three controls, plus swaps under
    /// zero to two, on 4 qubits. The gates that are not their own conjugate (`Y`, `Sx`,
    /// `Rx`, `Rz`, `U`, …) catch a missing conjugation on the column
    /// side.
    fn every_gate_kind() -> Circuit {
        let gates = [
            Gate::I,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::H,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Tdg,
            Gate::Sx,
            Gate::Sxdg,
            Gate::Rx(0.7),
            Gate::Ry(-1.1),
            Gate::Rz(0.4),
            Gate::Phase(2.3),
            Gate::U(0.3, -0.9, 1.7),
        ];
        let mut qc = Circuit::new(4);
        for (i, gate) in gates.into_iter().enumerate() {
            let t = i % 4;
            let others: Vec<usize> = (1..4).map(|k| (t + k) % 4).collect();
            qc.gate(gate, t, &[]);
            qc.gate(gate, t, &others[..1]);
            qc.gate(gate, t, &others[..2]);
            qc.gate(gate, t, &others);
        }
        qc.swap(0, 3).swap(2, 1).cswap(1, 0, 2).cswap(3, 2, 0);
        qc.push(Instruction::new(OpKind::Swap {
            a: 1,
            b: 3,
            controls: vec![0, 2],
        }))
        .unwrap();
        qc
    }

    #[test]
    fn gates_on_mixed_states_match_the_full_matrix_oracle() {
        let qc = every_gate_kind();
        let parallel = KernelContext::with_threads(4).with_threshold(1);
        for seed in [7, 8] {
            let rho = random_mixed_state(seed);
            assert!(rho.purity() < 0.99, "the input must be mixed");
            for inst in &qc {
                let u = qdt_array::instruction_unitary(inst, 4).unwrap();
                let expect = u.mul(&rho.to_matrix()).mul(&u.dagger());
                let apply = |ctx: &KernelContext| {
                    let mut e = DensityMatrixEngine::with_noise_and_context(
                        &NoiseModel::new(),
                        ctx.clone(),
                    )
                    .unwrap();
                    e.rho = rho.clone();
                    e.apply_instruction(inst).unwrap();
                    e.rho
                };
                let one = apply(&KernelContext::with_threads(1));
                assert!(
                    one.to_matrix().approx_eq(&expect, 1e-12),
                    "{inst:?} (seed {seed}) differs from UρU†"
                );
                let four = apply(&parallel);
                assert_eq!(
                    four.entries(),
                    one.entries(),
                    "{inst:?} (seed {seed}): 4 threads must be bit-identical"
                );
            }
        }
    }

    #[test]
    fn purity_is_the_squared_frobenius_norm() {
        for seed in [4, 5, 6] {
            let rho = random_mixed_state(seed);
            let m = rho.to_matrix();
            let tr_rho_squared = m.mul(&m).trace().re;
            assert!(
                (rho.purity() - tr_rho_squared).abs() < 1e-12,
                "seed {seed}: {} vs Tr(ρ²) = {tr_rho_squared}",
                rho.purity()
            );
        }
    }

    #[test]
    fn cost_metric_counts_decoherence_fill_in() {
        let mut e = DensityMatrixEngine::new();
        run(&mut e, &bell()).unwrap();
        // Pure Bell ρ has 4 nonzero entries (corners of the 4×4 matrix).
        assert_eq!(e.cost_metric().name, "rho-nonzeros");
        assert_eq!(e.cost_metric().value, 4);
        let noise = NoiseModel::uniform(KrausChannel::Depolarizing { p: 0.1 });
        let mut noisy = DensityMatrixEngine::with_noise(&noise).unwrap();
        run(&mut noisy, &bell()).unwrap();
        assert!(
            noisy.cost_metric().value > 4,
            "noise fills in density-matrix entries"
        );
    }

    #[test]
    fn run_stats_report_density_engine_nonzeros() {
        let mut ideal = DensityMatrixEngine::new();
        let stats = run(&mut ideal, &bell()).unwrap();
        assert_eq!(stats.metric_name, "rho-nonzeros");
        // A pure Bell state has exactly four nonzero density entries.
        assert_eq!(stats.final_metric, 4);
        // ρ is the dense 4×4 complex matrix: 16 entries of 16 bytes.
        assert_eq!(stats.peak_memory_bytes, 16 * 16);

        let model = NoiseModel::uniform(KrausChannel::Depolarizing { p: 0.05 });
        let mut noisy = DensityMatrixEngine::with_noise(&model).unwrap();
        let stats = run(&mut noisy, &bell()).unwrap();
        assert!(
            stats.final_metric > 4,
            "depolarizing noise spreads ρ beyond the pure-state support"
        );
    }
}
