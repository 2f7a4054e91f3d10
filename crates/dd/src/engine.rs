//! [`DdEngine`]: the decision-diagram backend behind the
//! [`SimulationEngine`] trait.

use std::collections::BTreeMap;

use qdt_circuit::{Instruction, PauliString};
use qdt_complex::{Complex, Matrix};
use qdt_engine::{
    check_basis, check_instruction_width, check_kraus, check_pauli_width, check_qubit,
    choose_weighted, refuse_channel, CostMetric, EngineCaps, EngineError, SimulationEngine,
    TelemetrySink,
};
use rand::RngCore;

use crate::{DdError, DdPackage, DdStats, VectorDd};

/// Dense-expansion cap of [`DdPackage::to_amplitudes`].
const DENSE_LIMIT: usize = 24;

/// Widest register the package's `u128` basis indexing supports.
const MAX_QUBITS: usize = 128;

/// The decision-diagram backend (paper Section III) as a pluggable
/// [`SimulationEngine`]: exact, with node sharing that keeps structured
/// states polynomially small far past dense widths.
///
/// # Example
///
/// ```
/// use qdt_circuit::generators;
/// use qdt_dd::DdEngine;
/// use qdt_engine::{run, SimulationEngine};
///
/// let mut engine = DdEngine::new();
/// let stats = run(&mut engine, &generators::ghz(60))?;
/// assert_eq!(stats.metric_name, "dd-nodes");
/// let amp = engine.amplitude((1u128 << 60) - 1)?;
/// assert!((amp.abs() - 1.0 / 2f64.sqrt()).abs() < 1e-9);
/// # Ok::<(), qdt_engine::EngineError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DdEngine {
    tolerance: Option<f64>,
    dd: DdPackage,
    v: VectorDd,
    /// Root edge saved by [`SimulationEngine::checkpoint`]. The edge
    /// stays valid across suffix execution because the arena never
    /// frees nodes between `prepare` calls, so rollback is a copy of
    /// two words — the whole package (unique tables, compute caches)
    /// survives and stays warm across shots.
    saved: Option<VectorDd>,
    /// Attached telemetry with pre-interned metric ids, if any (see
    /// [`SimulationEngine::telemetry`]).
    metrics: Option<DdMetrics>,
    /// Package-stats snapshot at the last metric push, for deltas.
    last: DdStats,
}

/// Pre-registered metric handles, resolved once at sink attach so the
/// per-gate push records by [`qdt_engine::telemetry::MetricId`] — no
/// name hashing or allocation on the hot path.
#[derive(Debug, Clone)]
struct DdMetrics {
    sink: TelemetrySink,
    unique_lookups: qdt_engine::telemetry::MetricId,
    unique_hits: qdt_engine::telemetry::MetricId,
    compute_lookups: qdt_engine::telemetry::MetricId,
    compute_hits: qdt_engine::telemetry::MetricId,
    ctable_lookups: qdt_engine::telemetry::MetricId,
    ctable_hits: qdt_engine::telemetry::MetricId,
    ctable_entries: qdt_engine::telemetry::MetricId,
    nodes_live: qdt_engine::telemetry::MetricId,
    arena_nodes: qdt_engine::telemetry::MetricId,
    mem_arena: qdt_engine::telemetry::MemoryGauge,
    mem_unique: qdt_engine::telemetry::MemoryGauge,
    mem_ctable: qdt_engine::telemetry::MemoryGauge,
    mem_compute: qdt_engine::telemetry::MemoryGauge,
}

impl DdMetrics {
    fn new(sink: TelemetrySink) -> Self {
        use qdt_engine::telemetry::MemoryGauge;
        let m = sink.metrics();
        DdMetrics {
            unique_lookups: m.register("dd.unique_table.lookups"),
            unique_hits: m.register("dd.unique_table.hits"),
            compute_lookups: m.register("dd.compute_table.lookups"),
            compute_hits: m.register("dd.compute_table.hits"),
            ctable_lookups: m.register("dd.complex_table.lookups"),
            ctable_hits: m.register("dd.complex_table.hits"),
            ctable_entries: m.register("dd.complex_table.entries"),
            nodes_live: m.register("dd.nodes.live"),
            arena_nodes: m.register("dd.arena.nodes"),
            mem_arena: MemoryGauge::new(m, "dd.arena"),
            mem_unique: MemoryGauge::new(m, "dd.unique_table"),
            mem_ctable: MemoryGauge::new(m, "dd.complex_table"),
            mem_compute: MemoryGauge::new(m, "dd.compute_table"),
            sink,
        }
    }
}

impl DdEngine {
    /// A fresh engine with the package's default complex-table tolerance.
    pub fn new() -> Self {
        let mut dd = DdPackage::new();
        let v = dd.zero_state(1);
        DdEngine {
            tolerance: None,
            dd,
            v,
            saved: None,
            metrics: None,
            last: DdStats::default(),
        }
    }

    /// A fresh engine whose complex table merges weights within `tol`
    /// (the ablation knob of DESIGN.md §6).
    pub fn with_tolerance(tol: f64) -> Self {
        let mut dd = DdPackage::with_tolerance(tol);
        let v = dd.zero_state(1);
        DdEngine {
            tolerance: Some(tol),
            dd,
            v,
            saved: None,
            metrics: None,
            last: DdStats::default(),
        }
    }

    /// The number of distinct nodes in the current state's diagram.
    pub fn node_count(&self) -> usize {
        self.dd.vector_node_count(&self.v)
    }

    /// Pushes package-internal counters and gauges into the attached
    /// sink (no-op without one). Counters accumulate deltas since the
    /// previous push, so registry totals equal the package's cumulative
    /// stats since `prepare`.
    fn push_metrics(&mut self) {
        let Some(metrics) = &self.metrics else { return };
        let stats = self.dd.stats();
        let m = metrics.sink.metrics();
        m.counter_add_id(
            metrics.unique_lookups,
            stats.unique_lookups - self.last.unique_lookups,
        );
        m.counter_add_id(
            metrics.unique_hits,
            stats.unique_hits - self.last.unique_hits,
        );
        m.counter_add_id(
            metrics.compute_lookups,
            stats.compute_lookups - self.last.compute_lookups,
        );
        m.counter_add_id(
            metrics.compute_hits,
            stats.compute_hits - self.last.compute_hits,
        );
        m.counter_add_id(
            metrics.ctable_lookups,
            stats.ctable_lookups - self.last.ctable_lookups,
        );
        m.counter_add_id(
            metrics.ctable_hits,
            stats.ctable_hits - self.last.ctable_hits,
        );
        #[allow(clippy::cast_precision_loss)]
        {
            m.gauge_set_id(metrics.ctable_entries, stats.ctable_entries as f64);
            m.gauge_set_id(
                metrics.nodes_live,
                self.dd.vector_node_count(&self.v) as f64,
            );
            m.gauge_set_id(
                metrics.arena_nodes,
                (self.dd.vector_arena_size() + self.dd.matrix_arena_size()) as f64,
            );
        }
        let mem = self.dd.memory_breakdown();
        metrics.mem_arena.record(mem.arena);
        metrics.mem_unique.record(mem.unique_tables);
        metrics.mem_ctable.record(mem.complex_table);
        metrics.mem_compute.record(mem.compute_tables);
        self.last = stats;
    }

    /// Debug builds with the `audit` feature verify the package's
    /// unique-table and normalisation invariants before every state
    /// query, so each run is audited before its answer leaves the
    /// engine. Release builds compile this to nothing.
    fn audit(&self) {
        #[cfg(all(debug_assertions, feature = "audit"))]
        if let Err(violations) = self.dd.audit() {
            panic!("DD package audit failed before a state query: {violations:?}");
        }
    }
}

impl Default for DdEngine {
    fn default() -> Self {
        DdEngine::new()
    }
}

fn map_err(e: DdError) -> EngineError {
    match e {
        DdError::NonUnitary { op } => EngineError::NonUnitary { op },
        other => EngineError::Backend {
            engine: "decision-diagram",
            message: other.to_string(),
        },
    }
}

impl SimulationEngine for DdEngine {
    fn name(&self) -> &'static str {
        "decision-diagram"
    }

    fn caps(&self) -> EngineCaps {
        EngineCaps {
            max_qubits: MAX_QUBITS,
            stochastic_kraus: true,
            dynamic: true,
        }
    }

    fn num_qubits(&self) -> usize {
        self.v.num_qubits()
    }

    fn prepare(&mut self, num_qubits: usize) -> Result<(), EngineError> {
        if num_qubits > MAX_QUBITS {
            return Err(EngineError::TooWide {
                num_qubits,
                limit: MAX_QUBITS,
                what: "decision-diagram register",
            });
        }
        // A fresh package drops the previous run's unique/compute tables
        // so successive prepares do not leak arena memory.
        self.dd = match self.tolerance {
            Some(tol) => DdPackage::with_tolerance(tol),
            None => DdPackage::new(),
        };
        self.v = self.dd.zero_state(num_qubits.max(1));
        // The saved root (if any) points into the dropped package.
        self.saved = None;
        // Counters restart with the fresh package; registry totals are
        // cumulative since this prepare.
        self.last = DdStats::default();
        if self.metrics.is_some() {
            // Sharing self-check: rebuilding the canonical zero chain
            // must be answered entirely from the unique table, so the
            // hit counter is live (and verified) before the first gate.
            // O(num_qubits), and only runs with telemetry attached.
            let probe = self.dd.zero_state(num_qubits.max(1));
            debug_assert_eq!(probe, self.v, "zero-state chain must be shared");
        }
        Ok(())
    }

    fn apply_instruction(&mut self, inst: &Instruction) -> Result<(), EngineError> {
        check_instruction_width(self.num_qubits(), inst)?;
        refuse_channel(self.name(), inst)?;
        self.v = self.dd.apply_instruction(&self.v, inst).map_err(map_err)?;
        self.push_metrics();
        Ok(())
    }

    fn cost_metric(&self) -> CostMetric {
        CostMetric {
            name: "dd-nodes",
            value: self.dd.vector_node_count(&self.v),
        }
    }

    fn amplitudes(&mut self) -> Result<Vec<Complex>, EngineError> {
        self.audit();
        let n = self.v.num_qubits();
        if n > DENSE_LIMIT {
            return Err(EngineError::TooWide {
                num_qubits: n,
                limit: DENSE_LIMIT,
                what: "dense DD expansion",
            });
        }
        Ok(self.dd.to_amplitudes(&self.v))
    }

    fn amplitude(&mut self, basis: u128) -> Result<Complex, EngineError> {
        self.audit();
        check_basis("decision-diagram", self.v.num_qubits(), basis)?;
        Ok(self.dd.amplitude(&self.v, basis))
    }

    fn sample(
        &mut self,
        shots: usize,
        rng: &mut dyn RngCore,
    ) -> Result<BTreeMap<u128, usize>, EngineError> {
        self.audit();
        let mut counts = BTreeMap::new();
        for _ in 0..shots {
            *counts.entry(self.dd.sample_once(&self.v, rng)).or_insert(0) += 1;
        }
        Ok(counts)
    }

    fn expectation(&mut self, pauli: &PauliString) -> Result<f64, EngineError> {
        self.audit();
        check_pauli_width(self.v.num_qubits(), pauli)?;
        Ok(self.dd.expectation_pauli(&self.v, pauli))
    }

    fn apply_kraus(
        &mut self,
        kraus: &[Matrix],
        qubit: usize,
        rng: &mut dyn RngCore,
    ) -> Result<usize, EngineError> {
        check_kraus("decision-diagram", self.v.num_qubits(), kraus, qubit)?;
        // Born probabilities per operator: p_i = ‖K_i ψ‖².
        let mut candidates = Vec::with_capacity(kraus.len());
        let mut weights = Vec::with_capacity(kraus.len());
        for k in kraus {
            let applied = self.dd.apply_gate(&self.v, k, qubit, &[]);
            weights.push(self.dd.norm_sqr(&applied));
            candidates.push(applied);
        }
        debug_assert!(
            (weights.iter().sum::<f64>() - self.dd.norm_sqr(&self.v)).abs() < 1e-9,
            "channel not trace preserving"
        );
        let chosen = choose_weighted(&weights, rng);
        self.v = candidates.swap_remove(chosen);
        self.dd.normalize(&mut self.v);
        // Long trajectory batches reuse one engine arena; keep it bounded.
        if self.dd.vector_arena_size() > 1 << 20 {
            self.dd.clear_caches();
        }
        Ok(chosen)
    }

    fn probability_of_one(&mut self, qubit: usize) -> Result<f64, EngineError> {
        self.audit();
        check_qubit(self.v.num_qubits(), qubit)?;
        Ok(self.dd.probability_of_one(&self.v, qubit))
    }

    fn project(&mut self, qubit: usize, outcome: bool) -> Result<(), EngineError> {
        check_qubit(self.v.num_qubits(), qubit)?;
        let p1 = self.dd.probability_of_one(&self.v, qubit);
        let p = if outcome { p1 } else { 1.0 - p1 };
        if p <= 1e-12 {
            return Err(EngineError::Backend {
                engine: "decision-diagram",
                message: format!("projection of qubit {qubit} onto a zero-probability branch"),
            });
        }
        self.dd.project_qubit(&mut self.v, qubit, outcome);
        // Per-shot projections churn the arena; keep it bounded like
        // the Kraus path does.
        if self.dd.vector_arena_size() > 1 << 20 {
            self.dd.clear_caches();
        }
        Ok(())
    }

    fn snapshot(&self) -> Option<Box<dyn SimulationEngine>> {
        // Cloning the package (arena + unique tables) lets callers
        // anchor per-shot execution on a copy; the shot executor
        // prefers the cheaper in-place checkpoint below.
        Some(Box::new(self.clone()))
    }

    fn checkpoint(&mut self) -> bool {
        // The collapse fast path (DESIGN.md §13): save the root edge
        // in place. Suffix replay then runs against the live package,
        // so unique-table and compute-cache entries built by one shot
        // are hits for every later shot instead of being rebuilt
        // against a fresh clone.
        self.saved = Some(self.v);
        true
    }

    fn rollback(&mut self) -> Result<(), EngineError> {
        match self.saved.take() {
            Some(v) => {
                self.v = v;
                Ok(())
            }
            None => Err(EngineError::Backend {
                engine: "decision-diagram",
                message: "rollback without a pending checkpoint".into(),
            }),
        }
    }

    fn memory_bytes(&self) -> usize {
        self.dd.memory_bytes()
    }

    fn telemetry(&mut self, sink: &TelemetrySink) {
        self.metrics = sink.enabled_clone().map(DdMetrics::new);
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
    fn ghz_node_high_water_stays_linear() {
        let mut e = DdEngine::new();
        let stats = run(&mut e, &generators::ghz(32)).unwrap();
        assert_eq!(stats.metric_name, "dd-nodes");
        assert!(
            stats.peak_metric <= 2 * 32,
            "GHZ DD blew up: {} nodes",
            stats.peak_metric
        );
    }

    #[test]
    fn dense_expansion_guard() {
        let mut e = DdEngine::new();
        run(&mut e, &generators::ghz(30)).unwrap();
        assert!(matches!(
            e.amplitudes(),
            Err(EngineError::TooWide { limit: 24, .. })
        ));
        // ... while single amplitudes still work at that width.
        assert!(e.amplitude(0).is_ok());
    }

    #[test]
    fn native_sampling_scales_wide() {
        let mut e = DdEngine::new();
        run(&mut e, &generators::ghz(48)).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let counts = e.sample(200, &mut rng).unwrap();
        let ones = (1u128 << 48) - 1;
        assert!(counts.keys().all(|&k| k == 0 || k == ones));
    }

    #[test]
    fn telemetry_streams_nonzero_table_hits_per_gate() {
        use qdt_engine::run_traced;

        let sink = TelemetrySink::new();
        let mut e = DdEngine::new();
        let (stats, log) = run_traced(&mut e, &generators::ghz(10), &sink).unwrap();
        assert_eq!(stats.gates_applied, 10);
        assert_eq!(log.len(), 10);
        for record in &log {
            let get = |name: &str| {
                record
                    .metrics
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| *v)
                    .unwrap_or_else(|| panic!("missing {name} in gate {}", record.index))
            };
            assert!(get("dd.unique_table.hits") > 0.0, "gate {}", record.index);
            assert!(get("dd.nodes.live") > 0.0, "gate {}", record.index);
            assert!(get("dd.unique_table.lookups") >= get("dd.unique_table.hits"));
            assert!(get("dd.complex_table.hits") > 0.0);
        }
    }

    #[test]
    fn untraced_run_is_bitwise_identical_to_traced() {
        let sink = TelemetrySink::new();
        let mut traced = DdEngine::new();
        qdt_engine::run_traced(&mut traced, &generators::ghz(10), &sink).unwrap();
        let mut plain = DdEngine::new();
        run(&mut plain, &generators::ghz(10)).unwrap();
        for basis in [0u128, (1 << 10) - 1, 5] {
            assert_eq!(
                traced.amplitude(basis).unwrap(),
                plain.amplitude(basis).unwrap()
            );
        }
        assert_eq!(traced.node_count(), plain.node_count());
    }

    #[test]
    fn prepare_resets_state_and_tables() {
        let mut e = DdEngine::new();
        run(&mut e, &generators::qft(4, true)).unwrap();
        e.prepare(2).unwrap();
        assert_eq!(e.num_qubits(), 2);
        assert!((e.amplitude(0).unwrap().abs() - 1.0).abs() < 1e-12);
    }
}
