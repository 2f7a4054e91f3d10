//! [`ArrayEngine`]: the dense state-vector backend behind the
//! [`SimulationEngine`] trait.

use std::collections::BTreeMap;

use qdt_circuit::{Instruction, OpKind, PauliString};
use qdt_complex::{Complex, Matrix};
use qdt_engine::{
    check_basis, check_instruction_width, check_pauli_width, check_qubit, CostMetric, EngineCaps,
    EngineError, SimulationEngine, TelemetrySink,
};
use qdt_parallel::KernelContext;
use rand::RngCore;

use crate::frame::Frame;
use crate::fusion::{Fuser, MAX_FUSE_WIDTH};
use crate::{ArrayError, StateVector};

/// Dense-representation width limit (mirrors [`StateVector`]'s 30-qubit
/// / 16 GiB cap).
const MAX_QUBITS: usize = 30;

/// The array backend (paper Section II) as a pluggable
/// [`SimulationEngine`]: exact, ground truth for every other engine,
/// exponential in width.
///
/// # Example
///
/// ```
/// use qdt_array::ArrayEngine;
/// use qdt_circuit::generators;
/// use qdt_engine::{run, SimulationEngine};
///
/// let mut engine = ArrayEngine::new();
/// run(&mut engine, &generators::bell())?;
/// assert!((engine.amplitude(0b11)?.abs() - 1.0 / 2f64.sqrt()).abs() < 1e-9);
/// # Ok::<(), qdt_engine::EngineError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ArrayEngine {
    /// The stored amplitudes: logical basis state `l` lives at
    /// `frame.index(l)`.
    psi: StateVector,
    /// Uncontrolled `x` and `swap` gates, tracked instead of executed
    /// (see [`crate::frame`]).
    frame: Frame,
    /// Kernel scheduling: thread count, fallback threshold, pool sink.
    ctx: KernelContext,
    /// Streaming gate fuser (width 0 = fusion disabled, the default).
    /// Unitary instructions accumulate here and are applied as fused
    /// kernels when a boundary or a query flushes the pending group.
    fuser: Fuser,
    /// Attached telemetry with pre-interned metric ids, if any (see
    /// [`SimulationEngine::telemetry`]).
    metrics: Option<ArrayMetrics>,
}

/// The engine's registered metric handles, resolved once when a sink is
/// attached so the per-gate path records by id (no name hashing, no
/// allocation).
#[derive(Debug, Clone)]
struct ArrayMetrics {
    sink: TelemetrySink,
    flops: qdt_engine::telemetry::MetricId,
    bytes: qdt_engine::telemetry::MetricId,
    amplitudes: qdt_engine::telemetry::MetricId,
    fuse_groups: qdt_engine::telemetry::MetricId,
    fuse_width: qdt_engine::telemetry::MetricId,
    relabelled: qdt_engine::telemetry::MetricId,
    simd: qdt_engine::telemetry::MetricId,
    mem: qdt_engine::telemetry::MemoryGauge,
}

impl ArrayMetrics {
    fn new(sink: TelemetrySink) -> Self {
        let m = sink.metrics();
        ArrayMetrics {
            flops: m.register("array.gate.flops"),
            bytes: m.register("array.bytes.touched"),
            amplitudes: m.register("array.amplitudes"),
            fuse_groups: m.register("array.fuse.groups"),
            fuse_width: m.register("array.fuse.width"),
            relabelled: m.register("array.frame.relabelled"),
            simd: m.register("array.simd.dispatched"),
            mem: qdt_engine::telemetry::MemoryGauge::new(m, "array.state_vector"),
            sink,
        }
    }
}

impl ArrayEngine {
    /// A fresh engine (one qubit in `|0⟩` until
    /// [`prepare`](SimulationEngine::prepare) is called), honouring the
    /// `QDT_THREADS` environment variable for its kernel thread count
    /// (sequential when unset). Results are bit-identical for every
    /// thread count.
    pub fn new() -> Self {
        ArrayEngine::with_context(KernelContext::from_env())
    }

    /// An engine whose gate kernels run on the shared pool of `threads`
    /// threads (`threads = 1` is plain sequential execution).
    pub fn with_threads(threads: usize) -> Self {
        ArrayEngine::with_context(KernelContext::with_threads(threads))
    }

    /// An engine with an explicit [`KernelContext`] (thread count and
    /// sequential-fallback threshold).
    pub fn with_context(ctx: KernelContext) -> Self {
        ArrayEngine {
            psi: StateVector::zero_state(1),
            frame: Frame::default(),
            ctx,
            fuser: Fuser::new(0),
            metrics: None,
        }
    }

    /// Enables gate fusion with groups mixing up to `width` qubits
    /// (`width = 0` disables fusion; this is the `fuse=` knob of the
    /// `array(fuse=5)` engine spec). Fusion never changes results — the
    /// fused kernels are bit-identical to unfused execution — only the
    /// number of passes over the amplitude array.
    ///
    /// # Panics
    ///
    /// Panics if `width` exceeds [`MAX_FUSE_WIDTH`]; `qdt::create_engine`
    /// reports this as a spec error before construction.
    #[must_use]
    pub fn with_fusion(mut self, width: usize) -> Self {
        assert!(
            width <= MAX_FUSE_WIDTH,
            "fusion width {width} exceeds the limit of {MAX_FUSE_WIDTH}"
        );
        self.fuser = Fuser::new(width);
        self
    }

    /// The configured fusion width (0 = disabled).
    #[must_use]
    pub fn fuse_width(&self) -> usize {
        self.fuser.width()
    }

    /// The kernel scheduling context in use.
    pub fn kernel_context(&self) -> &KernelContext {
        &self.ctx
    }

    /// Read access to the underlying state vector, after flushing any
    /// pending fused gates and moving the amplitudes into logical order
    /// (one swap pass per displaced qubit, one `X` pass per flipped bit:
    /// at most the passes the frame saved).
    pub fn state(&mut self) -> &StateVector {
        self.flush_fusion();
        self.materialise_frame();
        &self.psi
    }

    /// Applies the frame to the amplitudes and resets it to the identity.
    fn materialise_frame(&mut self) {
        let mut flips = self.frame.flips();
        while flips != 0 {
            let q = flips.trailing_zeros() as usize;
            self.psi
                .apply_controlled_gate_with(&qdt_circuit::Gate::X.matrix(), q, &[], &self.ctx);
            flips &= flips - 1;
        }
        let n = self.psi.num_qubits();
        // Logical → stored, with the inverse kept alongside.
        let mut stored: Vec<usize> = (0..n).map(|q| self.frame.qubit(q)).collect();
        let mut logical = vec![0; n];
        for (q, &p) in stored.iter().enumerate() {
            logical[p] = q;
        }
        for q in 0..n {
            let p = stored[q];
            if p != q {
                // Stored qubit q holds logical r: exchange it with p.
                let r = logical[q];
                self.psi.apply_swap_with(p, q, &[], &self.ctx);
                stored.swap(q, r);
                logical.swap(p, q);
            }
        }
        self.frame = Frame::default();
    }

    /// Probability that logical `qubit` reads 1: its stored bit reads 1,
    /// or 0 when flipped.
    fn logical_probability_of_one(&self, qubit: usize) -> f64 {
        self.psi
            .probability_of_value(self.frame.qubit(qubit), !self.frame.is_flipped(qubit))
    }

    /// Applies and drains the pending fused group, recording fusion
    /// telemetry. Called by every boundary and every state query, so an
    /// observer can never see a state with gates still buffered.
    fn flush_fusion(&mut self) {
        let Some(group) = self.fuser.take() else {
            return;
        };
        if group.len() == 1 {
            // A lone gate gains nothing from gather/scatter: run the
            // plain kernel (bit-identical either way).
            self.psi
                .apply_framed_with(&group.ops()[0], group.flips()[0], &self.ctx)
                .expect("fused groups contain only unitaries");
        } else {
            self.psi.apply_fused_with(&group, &self.ctx);
        }
        for inst in group.ops() {
            self.push_metrics(inst);
        }
        if let Some(metrics) = &self.metrics {
            let m = metrics.sink.metrics();
            m.counter_add_id(metrics.fuse_groups, 1);
            #[allow(clippy::cast_precision_loss)]
            m.histogram_record_id(metrics.fuse_width, group.qubits().len() as f64);
        }
    }

    /// Pushes flop/byte estimates for one applied instruction into the
    /// attached sink (no-op without one).
    ///
    /// The model matches the dense kernel's structure: a 1-qubit gate
    /// touches `2^(n-1-#controls)` amplitude pairs, each pair costing a
    /// 2×2 complex mat-vec (4 complex multiplies + 2 complex adds = 28
    /// real flops) and 64 bytes of amplitude traffic (2 amplitudes × 16
    /// bytes, read + write). A swap moves `2^(n-2-#controls)` pairs with
    /// no arithmetic.
    fn push_metrics(&self, inst: &Instruction) {
        let Some(metrics) = &self.metrics else { return };
        let n = self.psi.num_qubits();
        let (flops, bytes) = match &inst.kind {
            OpKind::Unitary { controls, .. } => {
                let pairs = 1u64 << (n - 1 - controls.len().min(n - 1)) as u32;
                (28 * pairs, 64 * pairs)
            }
            OpKind::Swap { controls, .. } => {
                let pairs = if n >= 2 {
                    1u64 << (n - 2 - controls.len().min(n - 2)) as u32
                } else {
                    0
                };
                (0, 64 * pairs)
            }
            _ => (0, 0),
        };
        let m = metrics.sink.metrics();
        m.counter_add_id(metrics.flops, flops);
        m.counter_add_id(metrics.bytes, bytes);
        #[allow(clippy::cast_precision_loss)]
        m.gauge_set_id(metrics.amplitudes, self.psi.amplitudes().len() as f64);
        metrics.mem.record(self.psi.memory_bytes());
    }
}

impl Default for ArrayEngine {
    fn default() -> Self {
        ArrayEngine::new()
    }
}

fn map_err(e: ArrayError) -> EngineError {
    match e {
        ArrayError::NonUnitary { op } => EngineError::NonUnitary { op },
        ArrayError::TooManyQubits { num_qubits } => EngineError::TooWide {
            num_qubits,
            limit: MAX_QUBITS,
            what: "dense state vector",
        },
        other => EngineError::Backend {
            engine: "array",
            message: other.to_string(),
        },
    }
}

impl SimulationEngine for ArrayEngine {
    fn name(&self) -> &'static str {
        "array"
    }

    fn caps(&self) -> EngineCaps {
        EngineCaps {
            max_qubits: MAX_QUBITS,
            dense_limit: MAX_QUBITS,
            wide_amplitudes: false,
            native_sampling: true,
            approximate: false,
            stochastic_kraus: true,
            dynamic: true,
        }
    }

    fn num_qubits(&self) -> usize {
        self.psi.num_qubits()
    }

    fn prepare(&mut self, num_qubits: usize) -> Result<(), EngineError> {
        if num_qubits > MAX_QUBITS {
            return Err(EngineError::TooWide {
                num_qubits,
                limit: MAX_QUBITS,
                what: "dense state vector",
            });
        }
        // Discard any gates still buffered for the old register.
        self.fuser = Fuser::new(self.fuser.width());
        self.frame = Frame::default();
        self.psi = StateVector::zero_state(num_qubits.max(1));
        Ok(())
    }

    fn apply_instruction(&mut self, inst: &Instruction) -> Result<(), EngineError> {
        check_instruction_width(self.num_qubits(), inst)?;
        // Uncontrolled `x` and `swap` only change the frame: no pass, no
        // flush (buffered gates are already in stored qubits).
        if self.frame.relabel(inst) {
            if let Some(metrics) = &self.metrics {
                metrics.sink.metrics().counter_add_id(metrics.relabelled, 1);
            }
            return Ok(());
        }
        let op = self.frame.map(inst);
        let flips = self.frame.flips();
        // With fusion enabled, unitaries accumulate until a boundary
        // (non-unitary instruction, barrier, width overflow) or a state
        // query flushes them as one pass.
        if self.fuser.width() > 0 {
            if self.fuser.try_push_framed(&op, flips) {
                return Ok(());
            }
            self.flush_fusion();
            if self.fuser.try_push_framed(&op, flips) {
                return Ok(());
            }
        }
        self.psi
            .apply_framed_with(&op, flips, &self.ctx)
            .map_err(map_err)?;
        self.push_metrics(&op);
        Ok(())
    }

    fn cost_metric(&self) -> CostMetric {
        CostMetric {
            name: "amplitudes",
            value: self.psi.amplitudes().len(),
        }
    }

    fn amplitudes(&mut self) -> Result<Vec<Complex>, EngineError> {
        self.flush_fusion();
        let stored = self.psi.amplitudes();
        if self.frame.is_identity() {
            return Ok(stored.to_vec());
        }
        // One gathering copy in logical order; the frame stays.
        let mut out = Vec::with_capacity(stored.len());
        self.frame
            .for_each_logical(self.psi.num_qubits(), |i| out.push(stored[i]));
        Ok(out)
    }

    fn amplitude(&mut self, basis: u128) -> Result<Complex, EngineError> {
        self.flush_fusion();
        check_basis("array", self.psi.num_qubits(), basis)?;
        Ok(self.psi.amplitude(self.frame.index(basis as usize)))
    }

    fn sample(
        &mut self,
        shots: usize,
        rng: &mut dyn RngCore,
    ) -> Result<BTreeMap<u128, usize>, EngineError> {
        self.flush_fusion();
        // The running sums in logical order, so the draws map to the same
        // basis states as on a frame-less state.
        let stored = self.psi.amplitudes();
        let mut total = 0.0;
        let mut cumulative = Vec::with_capacity(stored.len());
        self.frame.for_each_logical(self.psi.num_qubits(), |i| {
            total += stored[i].norm_sqr();
            cumulative.push(total);
        });
        Ok(crate::state::sample_cumulative(&cumulative, shots, rng)
            .into_iter()
            .map(|(k, v)| (k as u128, v))
            .collect())
    }

    fn expectation(&mut self, pauli: &PauliString) -> Result<f64, EngineError> {
        self.flush_fusion();
        check_pauli_width(self.psi.num_qubits(), pauli)?;
        let (masks, negated) = self.frame.pauli_masks(pauli);
        let value = self.psi.expectation_masks(&masks);
        Ok(if negated { -value } else { value })
    }

    fn apply_kraus(
        &mut self,
        kraus: &[Matrix],
        qubit: usize,
        rng: &mut dyn RngCore,
    ) -> Result<usize, EngineError> {
        self.flush_fusion();
        if kraus.is_empty() || qubit >= self.psi.num_qubits() {
            return Err(EngineError::Backend {
                engine: "array",
                message: format!(
                    "invalid Kraus application: {} operators on qubit {qubit} of {}",
                    kraus.len(),
                    self.psi.num_qubits()
                ),
            });
        }
        Ok(self.psi.apply_kraus_framed(
            kraus,
            self.frame.qubit(qubit),
            self.frame.is_flipped(qubit),
            rng,
        ))
    }

    fn probability_of_one(&mut self, qubit: usize) -> Result<f64, EngineError> {
        self.flush_fusion();
        check_qubit(self.psi.num_qubits(), qubit)?;
        Ok(self.logical_probability_of_one(qubit))
    }

    fn project(&mut self, qubit: usize, outcome: bool) -> Result<(), EngineError> {
        self.flush_fusion();
        check_qubit(self.psi.num_qubits(), qubit)?;
        let p1 = self.logical_probability_of_one(qubit);
        let p = if outcome { p1 } else { 1.0 - p1 };
        if p <= 1e-12 {
            return Err(EngineError::Backend {
                engine: "array",
                message: format!("projection of qubit {qubit} onto a zero-probability branch"),
            });
        }
        self.psi.project_qubit(
            self.frame.qubit(qubit),
            outcome != self.frame.is_flipped(qubit),
        );
        Ok(())
    }

    fn snapshot(&self) -> Option<Box<dyn SimulationEngine>> {
        Some(Box::new(self.clone()))
    }

    fn memory_bytes(&self) -> usize {
        self.psi.memory_bytes()
    }

    fn telemetry(&mut self, sink: &TelemetrySink) {
        self.metrics = sink.enabled_clone().map(ArrayMetrics::new);
        if let Some(metrics) = &self.metrics {
            // 1 when the AVX2/FMA kernels are live, 0 on the scalar
            // fallback (feature missing or QDT_SIMD override).
            metrics.sink.metrics().gauge_set_id(
                metrics.simd,
                if crate::simd::simd_active() { 1.0 } else { 0.0 },
            );
        }
        // The pool records only spans and a `_us` histogram — both off
        // the deterministic gate metric stream.
        self.ctx.set_telemetry(sink);
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
    fn runs_bell_through_the_trait() {
        let mut e = ArrayEngine::new();
        let stats = run(&mut e, &generators::bell()).unwrap();
        assert_eq!(stats.gates_applied, 2);
        assert_eq!(stats.metric_name, "amplitudes");
        assert_eq!(stats.peak_metric, 4);
        let amps = e.amplitudes().unwrap();
        assert!((amps[0].abs() - 1.0 / 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn native_sampler_respects_structure() {
        let mut e = ArrayEngine::new();
        run(&mut e, &generators::ghz(5)).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let counts = e.sample(300, &mut rng).unwrap();
        assert!(counts.keys().all(|&k| k == 0 || k == 0b11111));
    }

    #[test]
    fn telemetry_counts_flops_and_bytes() {
        use qdt_engine::run_traced;

        let sink = TelemetrySink::new();
        let mut e = ArrayEngine::new();
        let (_stats, log) = run_traced(&mut e, &generators::bell(), &sink).unwrap();
        assert_eq!(log.len(), 2);
        // Bell on 2 qubits: H touches 2 pairs (56 flops), CX 1 pair (28).
        let flops = log[1]
            .metrics
            .iter()
            .find(|(n, _)| n == "array.gate.flops")
            .map(|(_, v)| *v)
            .unwrap();
        assert!((flops - 84.0).abs() < 1e-9);
        let bytes = log[1]
            .metrics
            .iter()
            .find(|(n, _)| n == "array.bytes.touched")
            .map(|(_, v)| *v)
            .unwrap();
        assert!((bytes - 192.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_kernels_are_bit_identical_to_sequential() {
        // Exact `==`, not approx: chunking must never change arithmetic.
        let qc = generators::qft(6, true);
        let mut seq = ArrayEngine::with_threads(1);
        run(&mut seq, &qc).unwrap();
        let mut par = ArrayEngine::with_context(KernelContext::with_threads(4).with_threshold(1));
        run(&mut par, &qc).unwrap();
        assert_eq!(seq.amplitudes().unwrap(), par.amplitudes().unwrap());
    }

    #[test]
    fn fused_engine_matches_unfused_bit_for_bit() {
        // The engine-level variant of tests/fusion_agreement.rs: same
        // circuit, fuse=0 vs fuse=5, exact `==` on amplitudes.
        for qc in [
            generators::bell(),
            generators::ghz(8),
            generators::qft(6, true),
        ] {
            let mut plain = ArrayEngine::with_threads(1);
            run(&mut plain, &qc).unwrap();
            let mut fused = ArrayEngine::with_threads(1).with_fusion(5);
            run(&mut fused, &qc).unwrap();
            assert_eq!(
                plain.amplitudes().unwrap(),
                fused.amplitudes().unwrap(),
                "fusion drifted on a {}-qubit circuit",
                qc.num_qubits()
            );
        }
    }

    #[test]
    fn barrier_flushes_without_merging_across() {
        use qdt_circuit::{Circuit, Instruction as Inst, OpKind as K};

        // `run` skips barriers before they reach the engine, so drive
        // apply_instruction directly: h(0); barrier; cx(0,1).
        let mut qc = Circuit::new(2);
        qc.h(0);
        let h = qc.instructions()[0].clone();
        let barrier = Inst::new(K::Barrier(vec![0, 1]));
        let mut qc2 = Circuit::new(2);
        qc2.cx(0, 1);
        let cx = qc2.instructions()[0].clone();

        let mut e = ArrayEngine::with_threads(1).with_fusion(5);
        e.prepare(2).unwrap();
        e.apply_instruction(&h).unwrap();
        assert_eq!(e.fuse_width(), 5);
        e.apply_instruction(&barrier).unwrap();
        // The barrier flushed the pending group: the state already
        // reflects H even before any query-triggered flush.
        assert!((e.psi.probability(0) - 0.5).abs() < 1e-12);
        e.apply_instruction(&cx).unwrap();
        let amps = e.amplitudes().unwrap();
        assert!((amps[0b00].abs() - 1.0 / 2f64.sqrt()).abs() < 1e-12);
        assert!((amps[0b11].abs() - 1.0 / 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn non_unitary_boundaries_flush_then_error() {
        use qdt_circuit::{Instruction as Inst, OpKind as K};

        let mut e = ArrayEngine::with_threads(1).with_fusion(5);
        e.prepare(1).unwrap();
        let mut qc = qdt_circuit::Circuit::new(1);
        qc.x(0);
        e.apply_instruction(&qc.instructions()[0]).unwrap();
        let err = e
            .apply_instruction(&Inst::new(K::Measure { qubit: 0, clbit: 0 }))
            .unwrap_err();
        assert!(matches!(err, EngineError::NonUnitary { .. }));
        // The buffered X was applied before the error surfaced.
        assert!((e.amplitude(1).unwrap().abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fusion_telemetry_counts_groups_and_widths() {
        use qdt_engine::run_traced;
        use qdt_engine::telemetry::MetricValue;

        let sink = TelemetrySink::new();
        let mut e = ArrayEngine::with_threads(1).with_fusion(2);
        // Bell fuses into one 2-qubit group; flushed by amplitudes().
        let (_stats, _log) = run_traced(&mut e, &generators::bell(), &sink).unwrap();
        let _ = e.amplitudes().unwrap();
        match sink.metrics().get("array.fuse.groups") {
            Some(MetricValue::Counter(n)) => assert_eq!(n, 1, "expected one fused group"),
            other => panic!("missing fuse.groups counter: {other:?}"),
        }
        match sink.metrics().get("array.fuse.width") {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!(h.count, 1);
                assert!((h.max - 2.0).abs() < 1e-12, "bell group spans 2 qubits");
            }
            other => panic!("missing fuse.width histogram: {other:?}"),
        }
        assert!(
            sink.metrics().get("array.simd.dispatched").is_some(),
            "simd gauge not registered"
        );
        // Gate flop totals are identical to the unfused model.
        match sink.metrics().get("array.gate.flops") {
            Some(MetricValue::Counter(n)) => assert_eq!(n, 84),
            other => panic!("missing flops counter: {other:?}"),
        }
    }

    #[test]
    fn snapshot_carries_pending_fused_gates() {
        use qdt_circuit::Circuit;

        let mut qc = Circuit::new(2);
        qc.h(0).cx(0, 1);
        let mut e = ArrayEngine::with_threads(1).with_fusion(5);
        e.prepare(2).unwrap();
        for inst in qc.instructions() {
            e.apply_instruction(inst).unwrap();
        }
        // Snapshot while the whole Bell circuit is still buffered.
        let mut snap = e.snapshot().expect("array supports snapshots");
        let from_snap = snap.amplitudes().unwrap();
        let direct = e.amplitudes().unwrap();
        assert_eq!(from_snap, direct, "snapshot lost buffered gates");
    }

    #[test]
    fn width_guard_rejects_wide_registers() {
        let mut e = ArrayEngine::new();
        assert!(matches!(
            e.prepare(40),
            Err(EngineError::TooWide { limit: 30, .. })
        ));
    }

    #[test]
    fn expectation_through_trait() {
        let mut e = ArrayEngine::new();
        run(&mut e, &generators::ghz(3)).unwrap();
        let p: PauliString = "XXX".parse().unwrap();
        assert!((e.expectation(&p).unwrap() - 1.0).abs() < 1e-10);
    }
}
