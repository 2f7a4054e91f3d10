//! The noise-model layer: which channels fire after which
//! instructions.
//!
//! A [`NoiseModel`] is a list of rules — a [`GateSelector`] paired with
//! a [`KrausChannel`] — plus an optional classical readout-flip
//! probability. Both noise engines ([`DensityMatrixEngine`] and
//! [`TrajectoryEngine`]) consume the same [`CompiledNoise`], in which
//! the per-rule Kraus matrices are materialised once instead of per
//! gate.
//!
//! [`DensityMatrixEngine`]: crate::DensityMatrixEngine
//! [`TrajectoryEngine`]: crate::TrajectoryEngine

use qdt_circuit::{Gate, Instruction, OpKind, Pauli};
use qdt_complex::Matrix;
use qdt_engine::{choose_weighted, EngineError, SimulationEngine};
use rand::RngCore;

use crate::{KrausChannel, NoiseError};

/// Which instructions a noise rule fires after.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GateSelector {
    /// Every gate and swap.
    All,
    /// Instructions touching exactly one qubit.
    OneQubit,
    /// Instructions touching two or more qubits (controls included).
    TwoQubit,
    /// Instructions whose IR name matches (case-insensitive, e.g.
    /// `"cx"`, `"h"`, `"swap"`).
    Named(String),
}

impl GateSelector {
    /// Whether the selector matches an instruction.
    pub fn matches(&self, inst: &Instruction) -> bool {
        match self {
            GateSelector::All => true,
            GateSelector::OneQubit => inst.qubits().len() == 1,
            GateSelector::TwoQubit => inst.qubits().len() >= 2,
            GateSelector::Named(name) => inst.name().eq_ignore_ascii_case(name),
        }
    }
}

/// One noise rule: after every instruction the selector matches, the
/// channel is applied to each qubit the instruction touches.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseRule {
    /// Which instructions the rule fires after.
    pub selector: GateSelector,
    /// The channel applied per touched qubit.
    pub channel: KrausChannel,
}

/// A gate-level noise model: rules plus a classical readout error.
///
/// # Example
///
/// ```
/// use qdt_noise::{GateSelector, KrausChannel, NoiseModel};
///
/// let model = NoiseModel::new()
///     .with_rule(GateSelector::TwoQubit, KrausChannel::Depolarizing { p: 0.02 })
///     .with_rule(GateSelector::OneQubit, KrausChannel::Depolarizing { p: 0.002 })
///     .with_readout_flip(0.01);
/// let compiled = model.compile()?;
/// assert!(!compiled.is_empty());
/// # Ok::<(), qdt_noise::NoiseError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NoiseModel {
    rules: Vec<NoiseRule>,
    readout_flip: f64,
}

impl NoiseModel {
    /// The empty (noiseless) model.
    pub fn new() -> Self {
        NoiseModel::default()
    }

    /// A model applying one channel after every instruction — the
    /// common benchmark shape.
    pub fn uniform(channel: KrausChannel) -> Self {
        NoiseModel::new().with_rule(GateSelector::All, channel)
    }

    /// Adds a rule (builder style). Rules fire in insertion order.
    #[must_use]
    pub fn with_rule(mut self, selector: GateSelector, channel: KrausChannel) -> Self {
        self.rules.push(NoiseRule { selector, channel });
        self
    }

    /// Sets the classical measurement error: each measured bit flips
    /// independently with probability `p` at sampling time. This is
    /// readout noise, not a Kraus channel on the state.
    #[must_use]
    pub fn with_readout_flip(mut self, p: f64) -> Self {
        self.readout_flip = p;
        self
    }

    /// The model's rules, in firing order.
    pub fn rules(&self) -> &[NoiseRule] {
        &self.rules
    }

    /// The per-bit readout flip probability.
    pub fn readout_flip(&self) -> f64 {
        self.readout_flip
    }

    /// `true` if the model contains no rules and no readout error.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty() && self.readout_flip == 0.0
    }

    /// Validates every channel (range + CPTP) and the readout
    /// probability.
    ///
    /// # Errors
    ///
    /// The first [`NoiseError`] any channel or the readout probability
    /// produces.
    pub fn validate(&self) -> Result<(), NoiseError> {
        for rule in &self.rules {
            rule.channel.validate()?;
        }
        if !(0.0..=1.0).contains(&self.readout_flip) || self.readout_flip.is_nan() {
            return Err(NoiseError::InvalidParameter {
                channel: "readout-flip",
                value: self.readout_flip,
            });
        }
        Ok(())
    }

    /// Validates the model and materialises each rule's Kraus
    /// operators once, for per-gate reuse by the engines.
    ///
    /// # Errors
    ///
    /// See [`validate`](NoiseModel::validate).
    pub fn compile(&self) -> Result<CompiledNoise, NoiseError> {
        self.validate()?;
        Ok(CompiledNoise {
            rules: self
                .rules
                .iter()
                .map(|r| CompiledRule::new(r.selector.clone(), r.channel.kraus_operators()))
                .collect(),
            readout_flip: self.readout_flip,
        })
    }

    /// Wraps the compiled model into a [`ShotGateHook`] for
    /// [`ShotExecutor::with_gate_hook`]: after every unitary the shot
    /// loop applies, the hook fires the matching rules' channels with
    /// the shot's RNG through [`CompiledNoise::apply_stochastic`] — so
    /// each shot of a dynamic circuit is one
    /// noise trajectory, composed with mid-circuit measurement, reset,
    /// and feedback. The classical [`readout_flip`] probability is
    /// *not* applied by the hook (the shot loop owns the measurement
    /// outcomes); it remains a property of the noise engines' samplers.
    ///
    /// # Errors
    ///
    /// See [`validate`](NoiseModel::validate).
    ///
    /// [`ShotGateHook`]: qdt_engine::ShotGateHook
    /// [`ShotExecutor::with_gate_hook`]: qdt_engine::ShotExecutor::with_gate_hook
    /// [`readout_flip`]: CompiledNoise::readout_flip
    pub fn shot_hook(&self) -> Result<qdt_engine::ShotGateHook, NoiseError> {
        let compiled = self.compile()?;
        Ok(std::sync::Arc::new(move |engine, inst, rng| {
            compiled.apply_stochastic(engine, inst, rng)
        }))
    }
}

/// One compiled rule: the selector plus its materialised operators.
#[derive(Debug, Clone)]
struct CompiledRule {
    selector: GateSelector,
    kraus: Vec<Matrix>,
    /// `Some` when every operator is a scaled Pauli `cᵢ·Pᵢ`: the Paulis
    /// and their Born weights `|cᵢ|²`.
    pauli_mix: Option<(Vec<Pauli>, Vec<f64>)>,
}

impl CompiledRule {
    fn new(selector: GateSelector, kraus: Vec<Matrix>) -> Self {
        let pauli_mix = kraus
            .iter()
            .map(|k| Pauli::from_scaled_matrix(k).map(|(p, c)| (p, c.norm_sqr())))
            .collect::<Option<Vec<_>>>()
            .map(|mix| mix.into_iter().unzip());
        CompiledRule {
            selector,
            kraus,
            pauli_mix,
        }
    }
}

/// A validated noise model with materialised Kraus matrices — what the
/// engines consume per instruction.
#[derive(Debug, Clone, Default)]
pub struct CompiledNoise {
    rules: Vec<CompiledRule>,
    readout_flip: f64,
}

impl CompiledNoise {
    /// The channel applications an instruction triggers, as
    /// `(qubit, operators)` pairs in rule order.
    pub fn channels_for<'a>(
        &'a self,
        inst: &'a Instruction,
    ) -> impl Iterator<Item = (usize, &'a [Matrix])> + 'a {
        self.rules
            .iter()
            .filter(|r| r.selector.matches(inst))
            .flat_map(|r| inst.qubits().map(move |q| (q, r.kraus.as_slice())))
    }

    /// Fires the channels `inst` triggers on a pure-state engine, drawing
    /// one branch per channel application from `rng` (a noise
    /// trajectory's step; same order as [`channels_for`]).
    ///
    /// A channel whose operators are all scaled Paulis `cᵢ·Pᵢ`
    /// (depolarizing, bit flip, phase flip) has the Born weight `|cᵢ|²`
    /// on every state, so the branch is drawn with [`choose_weighted`]
    /// before touching the state, and only the drawn Pauli is applied,
    /// as a gate (nothing for `I`). Other channels go through
    /// [`SimulationEngine::apply_kraus`]. Either way one channel
    /// consumes one draw.
    ///
    /// # Errors
    ///
    /// The engine's error from applying a Pauli gate or a Kraus channel.
    ///
    /// [`channels_for`]: CompiledNoise::channels_for
    pub fn apply_stochastic(
        &self,
        engine: &mut dyn SimulationEngine,
        inst: &Instruction,
        rng: &mut dyn RngCore,
    ) -> Result<(), EngineError> {
        for rule in self.rules.iter().filter(|r| r.selector.matches(inst)) {
            for qubit in inst.qubits() {
                let Some((paulis, weights)) = &rule.pauli_mix else {
                    engine.apply_kraus(&rule.kraus, qubit, rng)?;
                    continue;
                };
                let gate = match paulis[choose_weighted(weights, rng)] {
                    Pauli::I => continue,
                    Pauli::X => Gate::X,
                    Pauli::Y => Gate::Y,
                    Pauli::Z => Gate::Z,
                };
                engine.apply_instruction(&Instruction::new(OpKind::Unitary {
                    gate,
                    target: qubit,
                    controls: Vec::new(),
                }))?;
            }
        }
        Ok(())
    }

    /// The per-bit readout flip probability.
    pub fn readout_flip(&self) -> f64 {
        self.readout_flip
    }

    /// `true` if no rule and no readout error is present.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty() && self.readout_flip == 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdt_circuit::Circuit;

    fn bell() -> Circuit {
        let mut qc = Circuit::new(2);
        qc.h(0).cx(0, 1);
        qc
    }

    #[test]
    fn selectors_match_by_arity_and_name() {
        let qc = bell();
        let h = &qc.instructions()[0];
        let cx = &qc.instructions()[1];
        assert!(GateSelector::All.matches(h) && GateSelector::All.matches(cx));
        assert!(GateSelector::OneQubit.matches(h) && !GateSelector::OneQubit.matches(cx));
        assert!(!GateSelector::TwoQubit.matches(h) && GateSelector::TwoQubit.matches(cx));
        assert!(GateSelector::Named("CX".into()).matches(cx));
        assert!(!GateSelector::Named("cz".into()).matches(cx));
    }

    #[test]
    fn compiled_model_yields_channels_per_touched_qubit() {
        let model = NoiseModel::uniform(KrausChannel::BitFlip { p: 0.1 });
        let compiled = model.compile().unwrap();
        let qc = bell();
        let on_h: Vec<_> = compiled.channels_for(&qc.instructions()[0]).collect();
        let on_cx: Vec<_> = compiled.channels_for(&qc.instructions()[1]).collect();
        assert_eq!(on_h.len(), 1);
        assert_eq!(on_cx.len(), 2, "both CX qubits get the channel");
        assert_eq!(on_h[0].1.len(), 2, "bit flip has two Kraus operators");
    }

    #[test]
    fn validation_rejects_bad_rules_and_readout() {
        let bad = NoiseModel::uniform(KrausChannel::Depolarizing { p: 2.0 });
        assert!(bad.validate().is_err());
        let bad_readout = NoiseModel::new().with_readout_flip(-0.5);
        assert!(bad_readout.validate().is_err());
        assert!(NoiseModel::new().compile().unwrap().is_empty());
    }

    #[test]
    fn shot_hook_composes_noise_with_dynamic_circuits() {
        use std::sync::Arc;

        use qdt_array::ArrayEngine;
        use qdt_engine::{EngineFactory, ShotConfig, ShotExecutor, SimulationEngine};

        // Bell + feed-forward: measure q0, flip q1 if it read 1. The
        // noiseless histogram is exactly {00, 01}; heavy bit-flip noise
        // must leak probability into the other keys, and the striped
        // run must stay bit-identical to the sequential one (per-shot
        // seeding is worker-independent).
        let mut qc = Circuit::with_clbits(2, 2);
        qc.h(0).cx(0, 1);
        qc.measure(0, 0);
        qc.x(1).c_if(0, true);
        qc.measure(1, 1);
        let factory: EngineFactory =
            Arc::new(|| Ok(Box::new(ArrayEngine::new()) as Box<dyn SimulationEngine>));

        let clean = ShotExecutor::new(ShotConfig::new(200, 11))
            .sample(&factory, &qc)
            .unwrap();
        assert!(clean.counts.keys().all(|&k| k == 0b00 || k == 0b01));

        let hook = NoiseModel::uniform(KrausChannel::BitFlip { p: 0.25 })
            .shot_hook()
            .unwrap();
        let noisy = ShotExecutor::new(ShotConfig::new(200, 11))
            .with_gate_hook(Arc::clone(&hook))
            .sample(&factory, &qc)
            .unwrap();
        assert!(noisy.counts.keys().any(|&k| k == 0b10 || k == 0b11));

        let striped = ShotExecutor::new(ShotConfig::new(200, 11).with_workers(4))
            .with_gate_hook(hook)
            .sample(&factory, &qc)
            .unwrap();
        assert_eq!(striped.counts, noisy.counts);
    }

    #[test]
    fn shot_hook_validates_the_model() {
        let bad = NoiseModel::uniform(KrausChannel::Depolarizing { p: 2.0 });
        assert!(bad.shot_hook().is_err());
    }
}
