//! The noise-model layer: which channels fire after which
//! instructions.
//!
//! A [`NoiseModel`] is a list of rules — a [`GateSelector`] paired with
//! a [`KrausChannel`] — plus an optional classical readout-flip
//! probability. [`CompiledNoise::channels_after`] places the rules'
//! channels after a gate as [`OpKind::Channel`] instructions, each rule's
//! operators materialised once; [`NoiseModel::apply`] writes them into
//! a circuit, and both noise engines ([`DensityMatrixEngine`] and
//! [`TrajectoryEngine`]) weave them in as the gates arrive.
//!
//! [`DensityMatrixEngine`]: crate::DensityMatrixEngine
//! [`TrajectoryEngine`]: crate::TrajectoryEngine

use std::sync::Arc;

use qdt_circuit::{Channel, Circuit, Instruction, OpKind};
use rand::{Rng, RngCore};

use crate::{KrausChannel, NoiseError};

/// Which gates a noise rule fires after.
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
    /// operators once, as the [`Channel`] its instructions share.
    ///
    /// # Errors
    ///
    /// See [`validate`](NoiseModel::validate).
    pub fn compile(&self) -> Result<CompiledNoise, NoiseError> {
        self.validate()?;
        let rules = self.rules.iter().map(|r| {
            let channel = Channel::new(r.channel.kraus_operators())
                .expect("a built-in channel has 2×2 operators");
            (r.selector.clone(), Arc::new(channel))
        });
        Ok(CompiledNoise {
            rules: rules.collect(),
            readout_flip: self.readout_flip,
        })
    }

    /// `circuit` with the model's channels written in: after every gate,
    /// the [`OpKind::Channel`] instructions of
    /// [`CompiledNoise::channels_after`]. Sampled with the shot loop,
    /// each shot is one noise trajectory, composed with mid-circuit
    /// measurement, reset and feedback; on `density(...)` the result
    /// equals this model's engine on `circuit`. The classical
    /// [`readout_flip`](NoiseModel::readout_flip) is not a channel and
    /// is not written in.
    ///
    /// # Errors
    ///
    /// See [`validate`](NoiseModel::validate).
    pub fn apply(&self, circuit: &Circuit) -> Result<Circuit, NoiseError> {
        let noise = self.compile()?;
        let mut noisy = Circuit::with_clbits(circuit.num_qubits(), circuit.num_clbits());
        for inst in circuit {
            noisy.push_unchecked(inst.clone());
            noise
                .channels_after(inst)
                .for_each(|ch| noisy.push_unchecked(ch));
        }
        Ok(noisy)
    }
}

/// A validated noise model with materialised Kraus channels — what the
/// engines consume per gate.
#[derive(Debug, Clone, Default)]
pub struct CompiledNoise {
    rules: Vec<(GateSelector, Arc<Channel>)>,
    readout_flip: f64,
}

impl CompiledNoise {
    /// The channel instructions that follow `inst`: for a gate or swap,
    /// one per matching rule and touched qubit, in rule order and then
    /// qubit order, each under the gate's condition; nothing for any
    /// other instruction. This is where the model places its channels.
    pub fn channels_after<'a>(
        &'a self,
        inst: &'a Instruction,
    ) -> impl Iterator<Item = Instruction> + 'a {
        let gate = matches!(inst.kind, OpKind::Unitary { .. } | OpKind::Swap { .. });
        self.rules
            .iter()
            .filter(move |(selector, _)| gate && selector.matches(inst))
            .flat_map(move |(_, channel)| {
                inst.qubits().map(move |qubit| Instruction {
                    kind: OpKind::Channel {
                        qubit,
                        channel: Arc::clone(channel),
                    },
                    cond: inst.cond,
                })
            })
    }

    /// `outcome` (a register of `num_qubits` bits) after classical
    /// readout error: each bit flips independently with the readout
    /// probability, one `gen_bool` per bit, none when it is zero.
    pub fn flip_readout(
        &self,
        mut outcome: u128,
        num_qubits: usize,
        rng: &mut dyn RngCore,
    ) -> u128 {
        if self.readout_flip > 0.0 {
            for q in 0..num_qubits {
                if rng.gen_bool(self.readout_flip) {
                    outcome ^= 1 << q;
                }
            }
        }
        outcome
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
        let on_h: Vec<_> = compiled.channels_after(&qc.instructions()[0]).collect();
        let on_cx: Vec<_> = compiled.channels_after(&qc.instructions()[1]).collect();
        assert_eq!(on_h.len(), 1);
        assert_eq!(on_cx.len(), 2, "both CX qubits get the channel");
        let OpKind::Channel { qubit, channel } = &on_h[0].kind else {
            panic!("{:?}", on_h[0]);
        };
        assert_eq!(*qubit, 0);
        assert_eq!(channel.kraus().len(), 2, "bit flip has two Kraus operators");
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
    fn channels_compose_with_dynamic_circuits() {
        use std::collections::BTreeMap;
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

        let noisy_qc = NoiseModel::uniform(KrausChannel::BitFlip { p: 0.25 })
            .apply(&qc)
            .unwrap();
        let noisy = ShotExecutor::new(ShotConfig::new(200, 11))
            .sample(&factory, &noisy_qc)
            .unwrap();
        assert!(noisy.counts.keys().any(|&k| k == 0b10 || k == 0b11));
        assert_eq!(
            noisy.counts,
            BTreeMap::from([(0b00, 82), (0b01, 46), (0b10, 36), (0b11, 36)])
        );

        let striped = ShotExecutor::new(ShotConfig::new(200, 11).with_workers(4))
            .sample(&factory, &noisy_qc)
            .unwrap();
        assert_eq!(striped.counts, noisy.counts);
    }

    #[test]
    fn apply_validates_the_model() {
        let bad = NoiseModel::uniform(KrausChannel::Depolarizing { p: 2.0 });
        assert!(bad.apply(&bell()).is_err());
    }

    #[test]
    fn apply_writes_channels_after_gates_only_under_their_conditions() {
        let model = NoiseModel::new()
            .with_rule(GateSelector::TwoQubit, KrausChannel::BitFlip { p: 0.1 })
            .with_rule(GateSelector::All, KrausChannel::PhaseFlip { p: 0.2 });
        let mut qc = Circuit::with_clbits(2, 1);
        qc.h(0).cx(0, 1).barrier();
        qc.measure(0, 0).reset(1);
        qc.x(1).c_if(0, true);
        let noisy = model.apply(&qc).unwrap();
        let steps: Vec<String> = noisy
            .iter()
            .map(|i| format!("{}{}", i.name(), i.qubits().next().unwrap()))
            .collect();
        // After `cx` (qubits 1, 0): rule order first, then qubit order.
        let placed = "h0 channel0 cx1 channel1 channel0 channel1 channel0 barrier0";
        assert_eq!(
            steps.join(" "),
            format!("{placed} measure0 reset1 x1 channel1")
        );
        assert_eq!(noisy.instructions()[11].cond, qc.instructions()[5].cond);
        let kraus = |i: usize| match &noisy.instructions()[i].kind {
            OpKind::Channel { channel, .. } => channel.kraus().to_vec(),
            other => panic!("{other:?}"),
        };
        assert_eq!(kraus(3), KrausChannel::BitFlip { p: 0.1 }.kraus_operators());
        assert_eq!(
            kraus(5),
            KrausChannel::PhaseFlip { p: 0.2 }.kraus_operators()
        );
    }
}
