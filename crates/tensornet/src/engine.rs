//! [`TensorNetEngine`] and [`MpsEngine`]: the tensor-network backends
//! behind the [`SimulationEngine`] trait.

use qdt_circuit::{Circuit, Instruction, OpKind, PauliString};
use qdt_complex::{Complex, Matrix};
use qdt_engine::telemetry::{MemoryGauge, MetricId};
use qdt_engine::{
    check_basis, check_instruction_width, check_pauli_width, check_qubit, CostMetric, EngineCaps,
    EngineError, SimulationEngine, TelemetrySink,
};
use rand::RngCore;

use crate::mps::Mps;
use crate::{PlanKind, TensorError, TensorNetwork};

/// Dense-output cap of [`TensorNetwork::state_vector`].
const TN_DENSE_LIMIT: usize = 24;

/// Dense-output cap of [`Mps::to_statevector`].
const MPS_DENSE_LIMIT: usize = 20;

/// Widest register the `u128` basis indexing supports.
const MAX_QUBITS: usize = 128;

/// Interned metric handles for [`TensorNetEngine`], built once when a
/// live sink is attached so the per-gate path records by [`MetricId`].
#[derive(Debug, Clone)]
struct TnMetrics {
    sink: TelemetrySink,
    tensors: MetricId,
    mem: MemoryGauge,
}

impl TnMetrics {
    fn new(sink: TelemetrySink) -> Self {
        let tensors = sink.metrics().register("tn.tensors");
        let mem = MemoryGauge::new(sink.metrics(), "tn.tensors");
        TnMetrics { sink, tensors, mem }
    }
}

/// Interned metric handles for [`MpsEngine`].
#[derive(Debug, Clone)]
struct MpsMetrics {
    sink: TelemetrySink,
    bond_max: MetricId,
    bond_dimension: MetricId,
    discarded_weight: MetricId,
    mem: MemoryGauge,
}

impl MpsMetrics {
    fn new(sink: TelemetrySink) -> Self {
        let m = sink.metrics();
        let bond_max = m.register("mps.bond.max");
        let bond_dimension = m.register("mps.bond.dimension");
        let discarded_weight = m.register("mps.truncation.discarded_weight");
        let mem = MemoryGauge::new(m, "mps.bond_tensors");
        MpsMetrics {
            sink,
            bond_max,
            bond_dimension,
            discarded_weight,
            mem,
        }
    }
}

fn map_err(engine: &'static str, e: TensorError) -> EngineError {
    match e {
        TensorError::NonUnitary { op } => EngineError::NonUnitary { op },
        other => EngineError::Backend {
            engine,
            message: other.to_string(),
        },
    }
}

/// The tensor-network backend (paper Section IV) as a pluggable
/// [`SimulationEngine`].
///
/// The network representation is *lazy*: gates accumulate in a gate
/// stream, and each query builds and contracts the network with the
/// configured [`PlanKind`]. Single amplitudes fix the output indices
/// ("bubbles at the end") and contract to a scalar, which scales far
/// past dense widths for shallow circuits.
///
/// # Example
///
/// ```
/// use qdt_circuit::generators;
/// use qdt_engine::{run, SimulationEngine};
/// use qdt_tensor::TensorNetEngine;
///
/// let mut engine = TensorNetEngine::new();
/// run(&mut engine, &generators::ghz(40))?;
/// let amp = engine.amplitude((1u128 << 40) - 1)?;
/// assert!((amp.abs() - 1.0 / 2f64.sqrt()).abs() < 1e-9);
/// # Ok::<(), qdt_engine::EngineError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TensorNetEngine {
    circuit: Circuit,
    plan: PlanKind,
    tensors: usize,
    /// Running byte footprint of the network [`network`](Self::network)
    /// would build (input tensors plus one tensor per accumulated gate),
    /// maintained incrementally so polling it per gate is O(1).
    tensor_bytes: usize,
    /// Interned telemetry handles, if a live sink is attached.
    metrics: Option<TnMetrics>,
}

impl TensorNetEngine {
    /// A fresh engine contracting with the greedy plan.
    pub fn new() -> Self {
        TensorNetEngine::with_plan(PlanKind::Greedy)
    }

    /// A fresh engine contracting with the given plan kind.
    pub fn with_plan(plan: PlanKind) -> Self {
        TensorNetEngine {
            circuit: Circuit::new(1),
            plan,
            tensors: 1,
            tensor_bytes: 2 * std::mem::size_of::<Complex>(),
            metrics: None,
        }
    }

    /// Builds the current network (one input tensor per qubit plus one
    /// tensor per accumulated gate).
    pub fn network(&self) -> TensorNetwork {
        TensorNetwork::from_circuit(&self.circuit)
    }
}

impl Default for TensorNetEngine {
    fn default() -> Self {
        TensorNetEngine::new()
    }
}

impl SimulationEngine for TensorNetEngine {
    fn name(&self) -> &'static str {
        "tensor-network"
    }

    fn caps(&self) -> EngineCaps {
        EngineCaps {
            max_qubits: MAX_QUBITS,
            dense_limit: TN_DENSE_LIMIT,
            wide_amplitudes: true,
            native_sampling: false,
            approximate: false,
            stochastic_kraus: false,
            dynamic: false,
        }
    }

    fn num_qubits(&self) -> usize {
        self.circuit.num_qubits()
    }

    fn prepare(&mut self, num_qubits: usize) -> Result<(), EngineError> {
        if num_qubits > MAX_QUBITS {
            return Err(EngineError::TooWide {
                num_qubits,
                limit: MAX_QUBITS,
                what: "tensor-network register",
            });
        }
        self.circuit = Circuit::new(num_qubits.max(1));
        self.tensors = num_qubits.max(1);
        // One rank-1 input tensor (2 complex entries) per qubit, matching
        // `TensorNetwork::from_circuit`.
        self.tensor_bytes = self.tensors * 2 * std::mem::size_of::<Complex>();
        Ok(())
    }

    fn apply_instruction(&mut self, inst: &Instruction) -> Result<(), EngineError> {
        check_instruction_width(self.num_qubits(), inst)?;
        if !inst.is_unitary() {
            return Err(EngineError::Unsupported {
                engine: "tensor-network",
                what: format!(
                    "the dynamic instruction `{}` — the lazily contracted network \
                     has no collapse primitive; use an engine with \
                     `Capabilities::dynamic` (array, decision-diagram, mps, or \
                     stabilizer)",
                    inst.name()
                ),
            });
        }
        self.circuit.push_unchecked(inst.clone());
        self.tensors += 1;
        // The gate becomes one rank-2k tensor of 4^k complex entries in
        // the built network, where k counts the qubits the local unitary
        // spans (target + controls; both swapped qubits + controls).
        let k = match &inst.kind {
            OpKind::Unitary { controls, .. } => 1 + controls.len(),
            OpKind::Swap { controls, .. } => 2 + controls.len(),
            _ => 0,
        };
        self.tensor_bytes += (1usize << (2 * k)) * std::mem::size_of::<Complex>();
        if let Some(metrics) = &self.metrics {
            #[allow(clippy::cast_precision_loss)]
            metrics
                .sink
                .metrics()
                .gauge_set_id(metrics.tensors, self.tensors as f64);
            metrics.mem.record(self.tensor_bytes);
        }
        Ok(())
    }

    fn cost_metric(&self) -> CostMetric {
        CostMetric {
            name: "tensors",
            value: self.tensors,
        }
    }

    fn amplitudes(&mut self) -> Result<Vec<Complex>, EngineError> {
        let n = self.circuit.num_qubits();
        if n > TN_DENSE_LIMIT {
            return Err(EngineError::TooWide {
                num_qubits: n,
                limit: TN_DENSE_LIMIT,
                what: "dense tensor-network contraction",
            });
        }
        self.network()
            .state_vector(self.plan)
            .map_err(|e| map_err("tensor-network", e))
    }

    fn amplitude(&mut self, basis: u128) -> Result<Complex, EngineError> {
        check_basis("tensor-network", self.circuit.num_qubits(), basis)?;
        self.network()
            .amplitude(basis, self.plan)
            .map_err(|e| map_err("tensor-network", e))
    }

    fn expectation(&mut self, pauli: &PauliString) -> Result<f64, EngineError> {
        check_pauli_width(self.circuit.num_qubits(), pauli)?;
        crate::expectation_pauli(&self.circuit, pauli, self.plan)
            .map_err(|e| map_err("tensor-network", e))
    }

    fn memory_bytes(&self) -> usize {
        self.tensor_bytes
    }

    fn telemetry(&mut self, sink: &TelemetrySink) {
        self.metrics = sink.enabled_clone().map(TnMetrics::new);
    }
}

/// The matrix-product-state backend (paper Section IV, refs \[31\]/\[35\])
/// as a pluggable [`SimulationEngine`]: approximate once the bond cap χ
/// truncates, with memory `O(n·χ²)` instead of `2^n`.
///
/// # Example
///
/// ```
/// use qdt_circuit::generators;
/// use qdt_engine::{run, SimulationEngine};
/// use qdt_tensor::MpsEngine;
///
/// let mut engine = MpsEngine::new(2); // GHZ carries 1 ebit: χ = 2 is exact
/// let stats = run(&mut engine, &generators::ghz(64))?;
/// assert_eq!(stats.peak_metric, 2); // bond high-water mark
/// # Ok::<(), qdt_engine::EngineError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MpsEngine {
    mps: Mps,
    max_bond: usize,
    /// Interned telemetry handles, if a live sink is attached.
    metrics: Option<MpsMetrics>,
}

impl MpsEngine {
    /// A fresh engine with bond-dimension cap `max_bond` (clamped to at
    /// least 1).
    pub fn new(max_bond: usize) -> Self {
        let max_bond = max_bond.max(1);
        MpsEngine {
            mps: Mps::zero_state(1, max_bond),
            max_bond,
            metrics: None,
        }
    }

    /// The bond-dimension cap χ.
    pub fn max_bond(&self) -> usize {
        self.max_bond
    }

    /// Probability weight discarded by truncation so far (0 while the
    /// simulation is exact).
    pub fn truncation_error(&self) -> f64 {
        self.mps.truncation_error()
    }

    /// Pushes the chain's bond spectrum and truncation weight into the
    /// attached sink (no-op without one). The per-gate histogram samples
    /// every interior bond, so its max tracks χ saturation and its mean
    /// tracks how much of the chain is entangled.
    fn push_metrics(&self) {
        let Some(metrics) = &self.metrics else { return };
        let m = metrics.sink.metrics();
        #[allow(clippy::cast_precision_loss)]
        {
            m.gauge_set_id(metrics.bond_max, self.mps.max_observed_bond() as f64);
            for bond in self.mps.bond_dims() {
                m.histogram_record_id(metrics.bond_dimension, bond as f64);
            }
        }
        m.gauge_set_id(metrics.discarded_weight, self.truncation_error());
        metrics.mem.record(self.memory_bytes());
    }
}

impl SimulationEngine for MpsEngine {
    fn name(&self) -> &'static str {
        "mps"
    }

    fn caps(&self) -> EngineCaps {
        EngineCaps {
            max_qubits: MAX_QUBITS,
            dense_limit: MPS_DENSE_LIMIT,
            wide_amplitudes: true,
            native_sampling: false,
            approximate: true,
            stochastic_kraus: true,
            dynamic: true,
        }
    }

    fn num_qubits(&self) -> usize {
        self.mps.num_qubits()
    }

    fn prepare(&mut self, num_qubits: usize) -> Result<(), EngineError> {
        if num_qubits > MAX_QUBITS {
            return Err(EngineError::TooWide {
                num_qubits,
                limit: MAX_QUBITS,
                what: "MPS register",
            });
        }
        self.mps = Mps::zero_state(num_qubits.max(1), self.max_bond);
        Ok(())
    }

    fn apply_instruction(&mut self, inst: &Instruction) -> Result<(), EngineError> {
        check_instruction_width(self.num_qubits(), inst)?;
        self.mps
            .apply_instruction(inst)
            .map_err(|e| map_err("mps", e))?;
        // Debug builds with the `audit` feature verify the chain's bond
        // and normalisation invariants as the state evolves (the same
        // check `Mps::from_circuit` runs once per circuit).
        #[cfg(all(debug_assertions, feature = "audit"))]
        if let Err(violations) = self.mps.audit() {
            panic!("MPS audit failed after engine gate application: {violations:?}");
        }
        self.push_metrics();
        Ok(())
    }

    fn cost_metric(&self) -> CostMetric {
        CostMetric {
            name: "bond",
            value: self.mps.max_observed_bond(),
        }
    }

    fn amplitudes(&mut self) -> Result<Vec<Complex>, EngineError> {
        let n = self.mps.num_qubits();
        if n > MPS_DENSE_LIMIT {
            return Err(EngineError::TooWide {
                num_qubits: n,
                limit: MPS_DENSE_LIMIT,
                what: "dense MPS expansion",
            });
        }
        Ok(self.mps.to_statevector())
    }

    fn amplitude(&mut self, basis: u128) -> Result<Complex, EngineError> {
        check_basis("mps", self.mps.num_qubits(), basis)?;
        Ok(self.mps.amplitude(basis))
    }

    fn expectation(&mut self, pauli: &PauliString) -> Result<f64, EngineError> {
        check_pauli_width(self.mps.num_qubits(), pauli)?;
        Ok(self.mps.expectation_pauli(pauli))
    }

    fn apply_kraus(
        &mut self,
        kraus: &[Matrix],
        qubit: usize,
        rng: &mut dyn RngCore,
    ) -> Result<usize, EngineError> {
        if kraus.is_empty() || qubit >= self.mps.num_qubits() {
            return Err(EngineError::Backend {
                engine: "mps",
                message: format!(
                    "invalid Kraus application: {} operators on qubit {qubit} of {}",
                    kraus.len(),
                    self.mps.num_qubits()
                ),
            });
        }
        Ok(self.mps.apply_kraus(kraus, qubit, rng))
    }

    fn probability_of_one(&mut self, qubit: usize) -> Result<f64, EngineError> {
        check_qubit(self.mps.num_qubits(), qubit)?;
        Ok(self.mps.probability_of_one(qubit))
    }

    fn project(&mut self, qubit: usize, outcome: bool) -> Result<(), EngineError> {
        check_qubit(self.mps.num_qubits(), qubit)?;
        let p1 = self.mps.probability_of_one(qubit);
        let p = if outcome { p1 } else { 1.0 - p1 };
        if p <= 1e-12 {
            return Err(EngineError::Backend {
                engine: "mps",
                message: format!("projection of qubit {qubit} onto a zero-probability branch"),
            });
        }
        self.mps.project_qubit(qubit, outcome);
        self.push_metrics();
        Ok(())
    }

    fn snapshot(&self) -> Option<Box<dyn SimulationEngine>> {
        Some(Box::new(self.clone()))
    }

    fn memory_bytes(&self) -> usize {
        self.mps.memory_entries() * std::mem::size_of::<Complex>()
    }

    fn telemetry(&mut self, sink: &TelemetrySink) {
        self.metrics = sink.enabled_clone().map(MpsMetrics::new);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdt_circuit::generators;
    use qdt_engine::run;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn tn_single_amplitude_scales_wide() {
        let mut e = TensorNetEngine::new();
        run(&mut e, &generators::ghz(40)).unwrap();
        let ones = (1u128 << 40) - 1;
        let amp = e.amplitude(ones).unwrap();
        assert!((amp.abs() - 1.0 / 2f64.sqrt()).abs() < 1e-9);
        assert!(matches!(
            e.amplitudes(),
            Err(EngineError::TooWide { limit: 24, .. })
        ));
    }

    #[test]
    fn tn_default_sampler_works_at_dense_widths() {
        let mut e = TensorNetEngine::new();
        run(&mut e, &generators::ghz(8)).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let counts = e.sample(200, &mut rng).unwrap();
        assert!(counts.keys().all(|&k| k == 0 || k == 0xFF));
        assert_eq!(counts.values().sum::<usize>(), 200);
    }

    #[test]
    fn tn_rejects_measurement_naming_the_dynamic_path() {
        let mut e = TensorNetEngine::new();
        assert!(!e.caps().dynamic);
        e.prepare(1).unwrap();
        let mut qc = qdt_circuit::Circuit::with_clbits(1, 1);
        qc.measure(0, 0);
        let inst = qc.iter().next().unwrap().clone();
        match e.apply_instruction(&inst).unwrap_err() {
            EngineError::Unsupported { engine, what } => {
                assert_eq!(engine, "tensor-network");
                assert!(what.contains("`measure`"), "{what}");
                assert!(what.contains("Capabilities::dynamic"), "{what}");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn mps_collapse_primitives_measure_and_project() {
        use qdt_engine::collapse_qubit;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        // Bell state: measuring qubit 0 collapses qubit 1 to match.
        let mut e = MpsEngine::new(8);
        assert!(e.caps().dynamic);
        e.prepare(2).unwrap();
        let mut qc = qdt_circuit::Circuit::new(2);
        qc.h(0).cx(0, 1);
        for inst in qc.iter() {
            e.apply_instruction(inst).unwrap();
        }
        let p1 = e.probability_of_one(0).unwrap();
        assert!((p1 - 0.5).abs() < 1e-9);
        let mut rng = StdRng::seed_from_u64(3);
        let outcome = collapse_qubit(&mut e, 0, &mut rng).unwrap();
        // Both qubits now agree deterministically.
        let p_partner = e.probability_of_one(1).unwrap();
        let expected = if outcome { 1.0 } else { 0.0 };
        assert!((p_partner - expected).abs() < 1e-9);
        // Projecting onto the impossible branch is rejected.
        assert!(e.project(1, !outcome).is_err());
    }

    #[test]
    fn mps_bond_high_water_tracks_entanglement() {
        let mut e = MpsEngine::new(16);
        let stats = run(&mut e, &generators::ghz(24)).unwrap();
        assert_eq!(stats.metric_name, "bond");
        assert_eq!(stats.peak_metric, 2);
        assert!(e.truncation_error() < 1e-12);
    }

    #[test]
    fn mps_telemetry_streams_bond_spectrum() {
        use qdt_engine::run_traced;

        let sink = TelemetrySink::new();
        let mut e = MpsEngine::new(16);
        let (_stats, log) = run_traced(&mut e, &generators::ghz(8), &sink).unwrap();
        assert_eq!(log.len(), 8);
        let last = log.last().unwrap();
        let get = |name: &str| {
            last.metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing {name}"))
        };
        assert!((get("mps.bond.max") - 2.0).abs() < 1e-12);
        assert!(get("mps.truncation.discarded_weight") < 1e-12);
        // 7 interior bonds sampled per gate over 8 gates.
        assert!((get("mps.bond.dimension.count") - 56.0).abs() < 1e-12);
        assert!((get("mps.bond.dimension.max") - 2.0).abs() < 1e-12);
    }

    #[test]
    fn tn_telemetry_tracks_tensor_count() {
        use qdt_engine::run_traced;

        let sink = TelemetrySink::new();
        let mut e = TensorNetEngine::new();
        let (_stats, log) = run_traced(&mut e, &generators::ghz(8), &sink).unwrap();
        // 8 input tensors + one per applied gate.
        let (_, tensors) = log
            .last()
            .unwrap()
            .metrics
            .iter()
            .find(|(n, _)| n == "tn.tensors")
            .unwrap();
        assert!((tensors - 16.0).abs() < 1e-12);
    }

    #[test]
    fn mps_amplitude_and_expectation_through_trait() {
        let mut e = MpsEngine::new(2);
        run(&mut e, &generators::ghz(40)).unwrap();
        let amp = e.amplitude(0).unwrap();
        assert!((amp.abs() - 1.0 / 2f64.sqrt()).abs() < 1e-9);
        let p: PauliString = "X".repeat(40).parse().unwrap();
        assert!((e.expectation(&p).unwrap() - 1.0).abs() < 1e-8);
    }
}
