//! The `auto` engine: cost-model-driven static backend dispatch.
//!
//! The paper's central observation is that no single data structure
//! wins on every circuit shape — arrays are unbeatable on narrow dense
//! circuits, decision diagrams and MPS on structured or
//! low-entanglement ones. [`AutoEngine`] turns that observation into a
//! spec: when [`run`](qdt_engine::run) hands `"auto"` its circuit
//! ([`SimulationEngine::prepare_for`]), it prices every backend on the
//! whole circuit with the dataflow cost model of `qdt-analysis`
//! ([`qdt_analysis::plan_dispatch`]), builds the predicted-cheapest one
//! from its spec ([`create_engine`]) and runs the circuit on it, so the
//! run's [`RunStats`](qdt_engine::RunStats) are the backend's own.
//!
//! Dispatch is *static*: it happens once per run, before any
//! simulation work, from the interaction cut-width, Clifford-region
//! and gate-count facts alone. Before `run` there is no backend: queries
//! and a bare [`prepare`](SimulationEngine::prepare) are
//! [`EngineError::Unsupported`], and the empty register takes no gate.
//! After `run`, a gate beyond the dispatched circuit's own is
//! `Unsupported` too: the backend was priced on that circuit alone.
//! `auto` answers exactly or not at all: a run whose backend discarded
//! weight ([`SimulationEngine::discarded_weight`]) fails with
//! [`EngineError::Backend`] instead of returning the truncated state.
//! The decision is observable two ways:
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
use qdt_analysis::dispatch_circuit;
use qdt_engine::{
    check_instruction_width, CostMetric, EngineCaps, EngineError, SimulationEngine, TelemetrySink,
};

use crate::engine::create_engine;

/// A wrapper engine that statically dispatches each circuit to the
/// predicted-cheapest backend (see the module docs).
#[derive(Default)]
pub struct AutoEngine {
    chosen: Option<String>,
    inner: Option<Box<dyn SimulationEngine>>,
    /// Instructions of the dispatched circuit not yet applied (barriers
    /// never reach the engine): the stream the backend was priced on.
    pending: usize,
    sink: Option<TelemetrySink>,
}

impl AutoEngine {
    /// The backend `run` dispatched to.
    fn inner(&mut self) -> Result<&mut (dyn SimulationEngine + 'static), EngineError> {
        self.inner
            .as_deref_mut()
            .ok_or_else(|| EngineError::Unsupported {
                engine: "auto",
                what: "queries before `run` has dispatched a circuit".into(),
            })
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
            // Before `run` the backend is unknown: advertise the widest
            // register any candidate takes.
            None => EngineCaps {
                max_qubits: STABILIZER_MAX_QUBITS,
                stochastic_kraus: false,
                // The shot loop checks capabilities before `run`
                // dispatches; run dynamic circuits on a concrete spec.
                dynamic: false,
            },
        }
    }

    fn num_qubits(&self) -> usize {
        self.inner.as_ref().map_or(0, |inner| inner.num_qubits())
    }

    fn prepare(&mut self, _num_qubits: usize) -> Result<(), EngineError> {
        Err(EngineError::Unsupported {
            engine: "auto",
            what: "a register without its circuit; dispatch through `run`".into(),
        })
    }

    fn prepare_for(&mut self, circuit: &Circuit) -> Result<(), EngineError> {
        let _frame = qdt_engine::telemetry::profile_frame("auto:dispatch");
        self.chosen = None;
        self.inner = None;
        self.pending = 0;
        let decision = dispatch_circuit(circuit);
        if !decision.chosen_estimate().feasible {
            // Past the general engines' width only the tableau is left,
            // and past the tableau's width nothing is.
            let num_qubits = circuit.num_qubits();
            let (limit, what) = if num_qubits > STABILIZER_MAX_QUBITS {
                (STABILIZER_MAX_QUBITS, "auto-dispatched register")
            } else {
                (WIDE_ENGINE_MAX_QUBITS, "non-Clifford register")
            };
            return Err(EngineError::TooWide {
                num_qubits,
                limit,
                what,
            });
        }
        let mut engine = create_engine(&decision.chosen).map_err(|e| EngineError::Backend {
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
        engine.prepare_for(circuit)?;
        self.chosen = Some(decision.chosen);
        self.inner = Some(engine);
        // `run` hands over everything but barriers, or fails first.
        self.pending = circuit
            .iter()
            .filter(|i| !matches!(i.kind, OpKind::Barrier(_)))
            .count();
        Ok(())
    }

    fn apply_instruction(&mut self, inst: &Instruction) -> Result<(), EngineError> {
        match &mut self.inner {
            Some(_) if self.pending == 0 => Err(EngineError::Unsupported {
                engine: "auto",
                what: "gates beyond the circuit `run` dispatched on; the backend was \
                       priced on that circuit alone"
                    .into(),
            }),
            Some(inner) => {
                self.pending -= 1;
                inner.apply_instruction(inst)
            }
            // Before `run` the register is empty.
            None => check_instruction_width(0, inst),
        }
    }

    /// The run loop's last call: a backend that had to discard weight
    /// (a bounded-bond MPS whose cut-width estimate was low) fails the
    /// run instead of returning a truncated state.
    fn flush(&mut self) -> Result<(), EngineError> {
        let Some(inner) = &mut self.inner else {
            return Ok(());
        };
        inner.flush()?;
        let weight = inner.discarded_weight();
        if weight > 0.0 {
            return Err(EngineError::Backend {
                engine: "auto",
                message: format!(
                    "`{}` discarded weight {weight:.3e} of the state; run the circuit \
                     on an exact spec (`array`, `decision-diagram`) instead",
                    self.chosen.as_deref().unwrap_or_default()
                ),
            });
        }
        Ok(())
    }

    fn cost_metric(&self) -> CostMetric {
        match &self.inner {
            Some(inner) => inner.cost_metric(),
            None => CostMetric {
                name: "none",
                value: 0,
            },
        }
    }

    fn amplitudes(&mut self) -> Result<Vec<Complex>, EngineError> {
        self.inner()?.amplitudes()
    }

    fn amplitude(&mut self, basis: u128) -> Result<Complex, EngineError> {
        self.inner()?.amplitude(basis)
    }

    fn sample(
        &mut self,
        shots: usize,
        rng: &mut dyn RngCore,
    ) -> Result<BTreeMap<u128, usize>, EngineError> {
        self.inner()?.sample(shots, rng)
    }

    fn expectation(&mut self, pauli: &PauliString) -> Result<f64, EngineError> {
        self.inner()?.expectation(pauli)
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
    use crate::engine::{run, run_traced};
    use qdt_circuit::generators;

    fn auto_engine() -> Box<dyn SimulationEngine> {
        create_engine("auto").expect("auto spec resolves")
    }

    #[test]
    fn auto_agrees_with_the_array_backend_on_bell() {
        let qc = generators::bell();
        let mut auto = auto_engine();
        let mut array = create_engine("array").unwrap();
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
        // Its non-Clifford variant fits no engine: `run` fails in
        // dispatch, before any backend is built.
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
        // A register wider than every engine fails too.
        let err = run(engine.as_mut(), &Circuit::new(STABILIZER_MAX_QUBITS + 1)).unwrap_err();
        assert!(
            matches!(err, EngineError::TooWide { limit, .. } if limit == STABILIZER_MAX_QUBITS),
            "{err:?}"
        );
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
    fn run_dispatches_and_reports_the_dispatched_engine() {
        let qc = generators::ghz(12);
        let mut engine = auto_engine();
        let (stats, _log) = run_traced(engine.as_mut(), &qc, &TelemetrySink::disabled()).unwrap();
        // No query yet: `run` alone dispatched and simulated.
        let chosen = dispatch_circuit(&qc).chosen;
        assert_eq!(engine.describe(), format!("auto->{chosen}"));
        let mut fixed = create_engine(&chosen).unwrap();
        let fixed_stats = run(fixed.as_mut(), &qc).unwrap();
        assert_eq!(stats, fixed_stats);
        assert!(stats.peak_memory_bytes > 0, "{stats:?}");
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
    fn before_run_there_is_no_backend_to_query_or_feed() {
        let mut engine = auto_engine();
        assert_eq!(engine.describe(), "auto");
        assert_eq!(engine.name(), "auto");
        let unsupported = |res: Result<(), EngineError>| match res {
            Err(EngineError::Unsupported {
                engine: "auto",
                what,
            }) => {
                assert!(what.contains("`run`"), "{what}");
            }
            other => panic!("{other:?}"),
        };
        unsupported(engine.prepare(2));
        unsupported(engine.amplitude(0).map(drop));
        unsupported(engine.amplitudes().map(drop));
        // The register is empty until `run`: no instruction fits it.
        for kind in [
            OpKind::Unitary {
                gate: qdt_circuit::Gate::H,
                target: 0,
                controls: vec![],
            },
            OpKind::Measure { qubit: 0, clbit: 0 },
        ] {
            let err = engine
                .apply_instruction(&Instruction::new(kind))
                .unwrap_err();
            assert!(matches!(err, EngineError::InvalidQubits(_)), "{err:?}");
        }
    }

    #[test]
    fn a_gate_stream_longer_than_the_dispatched_circuit_is_refused() {
        use qdt_noise::{KrausChannel, NoiseModel};
        // On an `auto` that already ran, the shot loop `run`s a
        // channelled QFT-5's prefix (its first gate), then plays the
        // rest gate by gate: `auto` priced that one gate alone.
        let qft = generators::qft(5, true);
        let noisy = NoiseModel::uniform(KrausChannel::Depolarizing { p: 0.02 })
            .apply(&qft)
            .unwrap();
        let mut engine = auto_engine();
        run(engine.as_mut(), &qft).unwrap();
        let executor = qdt_engine::ShotExecutor::new(qdt_engine::ShotConfig::new(64, 7));
        let err = executor.run_on(engine.as_mut(), &noisy).unwrap_err();
        let refused = |e: &EngineError| matches!(e, EngineError::Unsupported { what, .. } if what.contains("`run`"));
        assert!(refused(&err), "{err:?}");
        // `run`'s own gates are taken; one more is not.
        let bell = generators::bell();
        let mut engine = auto_engine();
        run(engine.as_mut(), &bell).unwrap();
        assert!(refused(
            &engine
                .apply_instruction(&bell.instructions()[0])
                .unwrap_err()
        ));
    }

    #[test]
    fn a_truncated_run_is_an_error_not_a_state() {
        // Two 8-qubit halves that meet only through `cx(7, 8)`, once per
        // round: one distinct edge prices the middle cut at χ̂ = 2, but
        // eight CX gates across it need more than the dispatched bond.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut qc = Circuit::new(16);
        for _ in 0..8 {
            for q in 0..16 {
                let mut angle = || rng.gen_range(0.0..std::f64::consts::TAU);
                qc.u(angle(), angle(), angle(), q);
            }
            for q in (0..7).chain(8..15) {
                qc.cx(q, q + 1);
            }
            qc.cx(7, 8);
        }
        assert!(dispatch_circuit(&qc).chosen.starts_with("mps:"));
        let mut engine = auto_engine();
        let err = run(engine.as_mut(), &qc).unwrap_err();
        assert!(
            matches!(&err, EngineError::Backend { engine: "auto", message }
                if message.contains("discarded weight")),
            "{err:?}"
        );
    }

    #[test]
    fn auto_spec_rejects_arguments_and_inner_specs() {
        for spec in ["auto(8)", "auto(threads=2)", "auto:dd"] {
            assert!(create_engine(spec).is_err(), "`{spec}` must be rejected");
        }
    }
}
