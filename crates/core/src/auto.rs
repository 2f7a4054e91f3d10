//! The `auto` engine: cost-model-driven static backend dispatch.
//!
//! The paper's central observation is that no single data structure
//! wins on every circuit shape — arrays are unbeatable on narrow dense
//! circuits, decision diagrams and MPS on structured or
//! low-entanglement ones. [`AutoEngine`] turns that observation into a
//! spec: `"auto"` buffers the incoming gate stream, and at the first
//! query prices every backend with the dataflow cost model of
//! `qdt-analysis` ([`qdt_analysis::plan_dispatch`]) and materialises
//! the predicted-cheapest one from the registry, replaying the buffer
//! into it.
//!
//! Dispatch is *static*: it happens once per prepared circuit, before
//! any simulation work, from the interaction cut-width, Clifford-region
//! and gate-count facts alone. The decision is observable two ways:
//!
//! * [`SimulationEngine::describe`] returns `auto->{backend}` after
//!   dispatch, and
//! * an attached [`TelemetrySink`] receives one `auto.cost.{spec}`
//!   gauge per candidate backend, an `auto.dispatches` counter, and an
//!   `auto.dispatch:{spec}` instant event.

use qdt_circuit::{Circuit, Instruction, OpKind, PauliString};
use qdt_complex::Complex;
use rand::RngCore;
use std::collections::BTreeMap;

use qdt_analysis::cost::{STABILIZER_MAX_QUBITS, WIDE_ENGINE_MAX_QUBITS};
use qdt_analysis::{dispatch_circuit, feasible_at_width};
use qdt_engine::{
    check_instruction_width, CostMetric, EngineCaps, EngineError, SimulationEngine, TelemetrySink,
};

use crate::engine::EngineRegistry;

/// A wrapper engine that statically dispatches each circuit to the
/// predicted-cheapest registered backend (see the module docs).
pub struct AutoEngine {
    registry: EngineRegistry,
    buffer: Circuit,
    chosen: Option<String>,
    inner: Option<Box<dyn SimulationEngine>>,
    sink: Option<TelemetrySink>,
}

impl AutoEngine {
    /// An undispatched engine resolving specs against `registry`.
    #[must_use]
    pub fn new(registry: EngineRegistry) -> Self {
        AutoEngine {
            registry,
            buffer: Circuit::new(0),
            chosen: None,
            inner: None,
            sink: None,
        }
    }

    /// The spec the cost model chose, or `None` before the first query.
    #[must_use]
    pub fn chosen_spec(&self) -> Option<&str> {
        self.chosen.as_deref()
    }

    /// Prices the buffered circuit, constructs the winning backend and
    /// replays the buffer into it. Idempotent after the first call.
    fn dispatch(&mut self) -> Result<&mut (dyn SimulationEngine + 'static), EngineError> {
        if self.inner.is_none() {
            let _frame = qdt_engine::telemetry::profile_frame("auto:dispatch");
            let decision = dispatch_circuit(&self.buffer);
            let mut engine =
                self.registry
                    .create(&decision.chosen)
                    .map_err(|e| EngineError::Backend {
                        engine: "auto",
                        message: format!("dispatch to `{}` failed: {e}", decision.chosen),
                    })?;
            if let Some(sink) = &self.sink {
                engine.telemetry(sink);
                for estimate in &decision.estimates {
                    sink.metrics()
                        .gauge_set(&format!("auto.cost.{}", estimate.spec), estimate.cost);
                }
                sink.metrics().counter_add("auto.dispatches", 1);
                sink.tracer()
                    .instant(&format!("auto.dispatch:{}", decision.chosen));
            }
            engine.prepare(self.buffer.num_qubits())?;
            for inst in self.buffer.iter() {
                engine.apply_instruction(inst)?;
            }
            self.chosen = Some(decision.chosen);
            self.inner = Some(engine);
        }
        Ok(self.inner.as_deref_mut().expect("dispatched above"))
    }
}

impl SimulationEngine for AutoEngine {
    fn name(&self) -> &'static str {
        "auto"
    }

    fn describe(&self) -> String {
        match &self.chosen {
            Some(spec) => format!("auto->{spec}"),
            None => "auto".to_string(),
        }
    }

    fn caps(&self) -> EngineCaps {
        match &self.inner {
            Some(inner) => inner.caps(),
            // Pre-dispatch the backend is unknown: advertise the union
            // of what the candidates can do, conservatively marked
            // approximate (the dispatched spec may be a bounded-bond
            // MPS).
            None => EngineCaps {
                max_qubits: STABILIZER_MAX_QUBITS,
                dense_limit: 28,
                wide_amplitudes: true,
                native_sampling: true,
                approximate: true,
                stochastic_kraus: false,
                // Dispatch happens at the first measurement boundary,
                // too late for the shot loop's up-front capability
                // check; run dynamic circuits on a concrete spec.
                dynamic: false,
            },
        }
    }

    fn num_qubits(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.num_qubits(),
            None => self.buffer.num_qubits(),
        }
    }

    fn prepare(&mut self, num_qubits: usize) -> Result<(), EngineError> {
        // No candidate takes a register wider than the tableau's.
        if num_qubits > STABILIZER_MAX_QUBITS {
            return Err(EngineError::TooWide {
                num_qubits,
                limit: STABILIZER_MAX_QUBITS,
                what: "auto-dispatched register",
            });
        }
        self.buffer = Circuit::new(num_qubits);
        self.chosen = None;
        self.inner = None;
        Ok(())
    }

    fn apply_instruction(&mut self, inst: &Instruction) -> Result<(), EngineError> {
        check_instruction_width(self.num_qubits(), inst)?;
        if let Some(inner) = &mut self.inner {
            // Gates arriving after the first query evolve the inner
            // state directly; the decision is not revisited.
            return inner.apply_instruction(inst);
        }
        match inst.kind {
            OpKind::Barrier(_) => Ok(()),
            // Past the general engines' width only the tableau is left:
            // a gate it cannot take fails now, not at the first query.
            OpKind::Unitary { .. } | OpKind::Swap { .. }
                if !feasible_at_width(inst, self.buffer.num_qubits()) =>
            {
                Err(EngineError::TooWide {
                    num_qubits: self.buffer.num_qubits(),
                    limit: WIDE_ENGINE_MAX_QUBITS,
                    what: "non-Clifford register",
                })
            }
            OpKind::Unitary { .. } | OpKind::Swap { .. } => {
                self.buffer.push_unchecked(inst.clone());
                Ok(())
            }
            _ => Err(EngineError::NonUnitary { op: inst.name() }),
        }
    }

    fn cost_metric(&self) -> CostMetric {
        match &self.inner {
            Some(inner) => inner.cost_metric(),
            None => CostMetric {
                name: "buffered-gates",
                value: self.buffer.len(),
            },
        }
    }

    fn amplitudes(&mut self) -> Result<Vec<Complex>, EngineError> {
        self.dispatch()?.amplitudes()
    }

    fn amplitude(&mut self, basis: u128) -> Result<Complex, EngineError> {
        self.dispatch()?.amplitude(basis)
    }

    fn sample(
        &mut self,
        shots: usize,
        rng: &mut dyn RngCore,
    ) -> Result<BTreeMap<u128, usize>, EngineError> {
        self.dispatch()?.sample(shots, rng)
    }

    fn expectation(&mut self, pauli: &PauliString) -> Result<f64, EngineError> {
        self.dispatch()?.expectation(pauli)
    }

    fn memory_bytes(&self) -> usize {
        self.inner.as_ref().map_or(0, |inner| inner.memory_bytes())
    }

    fn telemetry(&mut self, sink: &TelemetrySink) {
        self.sink = sink.enabled_clone();
        if let Some(inner) = &mut self.inner {
            inner.telemetry(sink);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run;
    use qdt_circuit::generators;

    fn auto_engine() -> Box<dyn SimulationEngine> {
        EngineRegistry::with_defaults()
            .create("auto")
            .expect("auto spec resolves")
    }

    #[test]
    fn auto_agrees_with_the_array_backend_on_bell() {
        let qc = generators::bell();
        let mut auto = auto_engine();
        let mut array = EngineRegistry::with_defaults().create("array").unwrap();
        run(auto.as_mut(), &qc).unwrap();
        run(array.as_mut(), &qc).unwrap();
        let (a, b) = (auto.amplitudes().unwrap(), array.amplitudes().unwrap());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert!((*x - *y).abs() < 1e-12);
        }
    }

    #[test]
    fn auto_picks_a_structured_backend_for_a_wide_ghz() {
        let mut engine = auto_engine();
        run(engine.as_mut(), &generators::ghz(24)).unwrap();
        engine.amplitude(0).unwrap();
        let described = engine.describe();
        // A wide Clifford-only circuit dispatches to the tableau.
        assert_eq!(described, "auto->stabilizer");
    }

    #[test]
    fn auto_rejects_what_no_engine_can_take_before_any_query() {
        let mut engine = auto_engine();
        // A 200-qubit Clifford circuit is the tableau's.
        run(engine.as_mut(), &generators::ghz(200)).unwrap();
        engine.amplitude(0).unwrap();
        assert_eq!(engine.describe(), "auto->stabilizer");
        // Its non-Clifford variant fits no engine: `run` fails at the T
        // gate, before anything is dispatched.
        let mut wide_t = generators::ghz(200);
        wide_t.t(5);
        let mut engine = auto_engine();
        let err = run(engine.as_mut(), &wide_t).unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::TooWide {
                    num_qubits: 200,
                    limit: 128,
                    ..
                }
            ),
            "{err:?}"
        );
        assert_eq!(engine.describe(), "auto");
        // A register wider than every engine fails in `prepare`.
        let err = engine.prepare(STABILIZER_MAX_QUBITS + 1).unwrap_err();
        assert!(matches!(err, EngineError::TooWide { .. }), "{err:?}");
    }

    #[test]
    fn auto_picks_the_stabilizer_for_wide_random_clifford() {
        let mut engine = auto_engine();
        let qc = generators::random_clifford_seeded(32, 6, 11);
        run(engine.as_mut(), &qc).unwrap();
        let amp = engine.amplitude(0).unwrap();
        assert_eq!(engine.describe(), "auto->stabilizer");
        assert!(amp.abs() <= 1.0 + 1e-12);
    }

    #[test]
    fn auto_picks_the_fused_array_for_a_narrow_qft() {
        let mut engine = auto_engine();
        run(engine.as_mut(), &generators::qft(12, true)).unwrap();
        engine.amplitude(0).unwrap();
        // The QFT's dense adjacent-gate runs make the fused array the
        // cheapest feasible estimate.
        assert_eq!(engine.describe(), "auto->array(fuse=5)");
    }

    #[test]
    fn describe_is_plain_auto_before_dispatch() {
        let mut engine = auto_engine();
        run(engine.as_mut(), &generators::bell()).unwrap();
        assert_eq!(engine.describe(), "auto");
        assert_eq!(engine.name(), "auto");
    }

    #[test]
    fn dispatch_decision_is_exported_through_telemetry() {
        let sink = TelemetrySink::new();
        let mut engine = auto_engine();
        engine.telemetry(&sink);
        run(engine.as_mut(), &generators::ghz(6)).unwrap();
        engine.amplitude(0).unwrap();
        let metrics = sink.metrics().flattened();
        assert!(
            metrics.iter().any(|(k, _)| k == "auto.cost.array"),
            "{metrics:?}"
        );
        assert!(
            metrics
                .iter()
                .any(|(k, v)| k == "auto.dispatches" && *v == 1.0),
            "{metrics:?}"
        );
        assert!(sink
            .tracer()
            .events()
            .iter()
            .any(|e| e.name.starts_with("auto.dispatch:")));
    }

    #[test]
    fn non_unitary_instructions_are_rejected_while_buffering() {
        let mut engine = auto_engine();
        engine.prepare(1).unwrap();
        let measure = Instruction::new(OpKind::Measure { qubit: 0, clbit: 0 });
        let err = engine.apply_instruction(&measure).unwrap_err();
        assert!(matches!(err, EngineError::NonUnitary { .. }), "{err:?}");
    }

    #[test]
    fn auto_spec_rejects_arguments_and_inner_specs() {
        let registry = EngineRegistry::with_defaults();
        for spec in ["auto(8)", "auto(threads=2)", "auto:dd"] {
            assert!(registry.create(spec).is_err(), "`{spec}` must be rejected");
        }
    }
}
