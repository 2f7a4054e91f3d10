//! [`StabilizerEngine`] — the tableau behind [`SimulationEngine`].
//!
//! The engine is *exact* and *polynomial*: a gate is a sweep over the
//! `⌈2n/64⌉` words of one or two qubits' bit columns (`O(n/64)` in
//! all), measurement is the Aaronson–Gottesman deterministic-vs-random
//! split in `O(n²/64)` on rows, and global sampling plus
//! single-amplitude queries go through the canonical reduced echelon
//! form in `O(k·n/64)` per shot. The tableau switches between columns
//! and rows only when the next operation needs the other layout, at
//! `O(n²/64)` a switch, so a circuit's gate run pays one switch at its
//! first query. The price is expressiveness: any gate outside the
//! Clifford group is rejected with [`EngineError::Unsupported`] naming
//! the supported set.
//!
//! Clifford recognition is *numeric*, not name-based: a gate's 2×2
//! matrix conjugates X, Z, and Y, and each image must land on a signed
//! Pauli. This makes `Rz(π/2)`, `U(π/2, 0, π)`, and friends work
//! without a gate-by-gate table, while `T` fails the match and gets the
//! descriptive rejection. A singly controlled gate is Clifford exactly
//! when its base matrix is a fourth-root-of-unity multiple of a Pauli
//! (`CU = (controlled-P) · diag(1, i^t)_ctrl`); two or more controls
//! (Toffoli-shaped gates) are never Clifford. The engine classifies
//! each distinct gate once and reuses the rule for every later
//! application.

use std::collections::BTreeMap;

use qdt_circuit::{Gate, Instruction, OpKind, Pauli, PauliString};
use qdt_complex::{Complex, Matrix};
use qdt_engine::telemetry::{MemoryGauge, MetricId};
use qdt_engine::{
    check_basis, check_instruction_width, check_kraus, check_pauli_width, check_qubit,
    choose_weighted, refuse_channel, CostMetric, EngineCaps, EngineError, SimulationEngine,
    TelemetrySink,
};
use qdt_parallel::KernelContext;
use rand::RngCore;

use crate::tableau::{Canonical, MeasureKind, PauliImage, SingleLut, Tableau};

/// Widest register [`StabilizerEngine::prepare`] accepts. The tableau
/// is quadratic in width: at this cap the generator bits occupy
/// ~64 MiB, far past any workload in the repro suite but still bounded.
pub const MAX_QUBITS: usize = 16_384;

/// Width cap of the dense [`SimulationEngine::amplitudes`] output.
pub const DENSE_LIMIT: usize = 20;

/// Numerical tolerance for recognising signed-Pauli matrices.
const TOL: f64 = 1e-9;

/// The bit-packed Aaronson–Gottesman stabilizer tableau engine.
///
/// # Example
///
/// ```
/// use qdt_engine::{run, SimulationEngine};
/// use qdt_stabilizer::StabilizerEngine;
///
/// let mut qc = qdt_circuit::Circuit::new(500);
/// qc.h(0);
/// for q in 0..499 {
///     qc.cx(q, q + 1);
/// }
/// let mut engine = StabilizerEngine::new();
/// run(&mut engine, &qc)?;
/// // The 500-qubit GHZ amplitude is reachable despite the width.
/// let a = engine.amplitude(0)?;
/// assert!((a.abs() - 1.0 / 2f64.sqrt()).abs() < 1e-12);
/// # Ok::<(), qdt_engine::EngineError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StabilizerEngine {
    t: Tableau,
    ctx: KernelContext,
    metrics: Option<StabilizerMetrics>,
    /// Memoised canonical form; any mutation clears it.
    canon: Option<Canonical>,
    rules: GateRules,
}

/// Most distinct gates [`GateRules`] remembers; past it, further gates
/// are classified afresh on every application.
const RULES_CAP: usize = 32;

/// The update rule of each distinct gate seen so far, classified once:
/// the single-qubit LUT and the controlled-Pauli decomposition, `None`
/// when the gate is not Clifford. `Gate` is `Copy + PartialEq`, and a
/// circuit uses a handful of distinct gates, so a scanned `Vec` is the
/// whole cache.
#[derive(Debug, Clone, Default)]
struct GateRules {
    single: Vec<(Gate, Option<SingleLut>)>,
    controlled: Vec<(Gate, Option<(Pauli, u8)>)>,
}

impl GateRules {
    fn single(&mut self, gate: &Gate) -> Option<SingleLut> {
        memo(&mut self.single, gate, single_lut)
    }

    fn controlled(&mut self, gate: &Gate) -> Option<(Pauli, u8)> {
        memo(&mut self.controlled, gate, controlled_rule)
    }
}

/// Looks `gate` up in `rules`, classifying and remembering it on a miss.
fn memo<R: Copy>(
    rules: &mut Vec<(Gate, Option<R>)>,
    gate: &Gate,
    classify: fn(&Gate) -> Option<R>,
) -> Option<R> {
    if let Some((_, rule)) = rules.iter().find(|(g, _)| g == gate) {
        return *rule;
    }
    let rule = classify(gate);
    if rules.len() < RULES_CAP {
        rules.push((*gate, rule));
    }
    rule
}

/// Interned metric handles for [`StabilizerEngine`], built once when a
/// live sink is attached so the hot path records by [`MetricId`].
#[derive(Debug, Clone)]
struct StabilizerMetrics {
    sink: TelemetrySink,
    row_ops: MetricId,
    rowsums: MetricId,
    measure_random: MetricId,
    measure_deterministic: MetricId,
    words: MetricId,
    mem: MemoryGauge,
}

impl StabilizerMetrics {
    fn new(sink: TelemetrySink) -> Self {
        let m = sink.metrics();
        let row_ops = m.register("stabilizer.row_ops");
        let rowsums = m.register("stabilizer.rowsums");
        let measure_random = m.register("stabilizer.measure.random");
        let measure_deterministic = m.register("stabilizer.measure.deterministic");
        let words = m.register("stabilizer.tableau.words");
        let mem = MemoryGauge::new(m, "stabilizer.tableau");
        StabilizerMetrics {
            sink,
            row_ops,
            rowsums,
            measure_random,
            measure_deterministic,
            words,
            mem,
        }
    }
}

impl StabilizerEngine {
    /// An engine whose row-block kernels (layout transposes, collapse
    /// row sums) run on [`qdt_parallel::default_threads`] threads:
    /// `QDT_THREADS` when set, else the host's cores. On a tableau under
    /// 4096 qubits they fall below the default threshold and stay inline.
    #[must_use]
    pub fn new() -> Self {
        Self::with_context(KernelContext::from_env())
    }

    /// An engine with an explicit worker count (1 = sequential).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self::with_context(KernelContext::with_threads(threads))
    }

    /// An engine over a caller-supplied kernel context.
    #[must_use]
    pub fn with_context(ctx: KernelContext) -> Self {
        StabilizerEngine {
            t: Tableau::new(1),
            ctx,
            metrics: None,
            canon: None,
            rules: GateRules::default(),
        }
    }

    /// Samples `shots` full-register measurements keyed by bit-packed
    /// words (qubit `q` lives in word `q / 64`), without the 128-qubit
    /// key cap of the trait's [`sample`](SimulationEngine::sample).
    /// Bit-identical for a given RNG regardless of thread count.
    pub fn sample_bits(
        &mut self,
        shots: usize,
        rng: &mut dyn RngCore,
    ) -> BTreeMap<Vec<u64>, usize> {
        let canon = self.canonical();
        let mut buf = vec![0u64; canon.anchor().len()];
        let mut counts: BTreeMap<Vec<u64>, usize> = BTreeMap::new();
        for _ in 0..shots {
            canon.sample_into(&mut buf, rng);
            *counts.entry(buf.clone()).or_insert(0) += 1;
        }
        counts
    }

    /// Layout switches of the tableau since the last `prepare`: a run of
    /// gates followed by queries pays one.
    #[must_use]
    pub fn layout_switches(&self) -> u64 {
        self.t.layout_switches()
    }

    fn canonical(&mut self) -> &Canonical {
        if self.canon.is_none() {
            self.canon = Some(self.t.canonicalize(&self.ctx));
        }
        self.canon.as_ref().expect("just memoised")
    }

    fn push_rows(&self, rows: u64) {
        let Some(metrics) = &self.metrics else { return };
        metrics.sink.metrics().counter_add_id(metrics.row_ops, rows);
    }

    fn push_rowsums(&self, rowsums: u64) {
        if rowsums == 0 {
            return;
        }
        let Some(metrics) = &self.metrics else { return };
        metrics
            .sink
            .metrics()
            .counter_add_id(metrics.rowsums, rowsums);
    }

    fn push_measure(&self, random: bool) {
        let Some(metrics) = &self.metrics else { return };
        let id = if random {
            metrics.measure_random
        } else {
            metrics.measure_deterministic
        };
        metrics.sink.metrics().counter_add_id(id, 1);
    }

    /// Applies an uncontrolled single-qubit Clifford gate.
    fn apply_gate(&mut self, gate: &Gate, q: usize) -> Result<(), EngineError> {
        let Some(lut) = self.rules.single(gate) else {
            return Err(non_clifford(gate.name()));
        };
        let rows = self.t.apply_single(q, lut, &self.ctx);
        self.canon = None;
        self.push_rows(rows);
        Ok(())
    }

    /// Applies a singly controlled gate via the `c·Pauli` decomposition
    /// `CU = (controlled-P) · diag(1, i^t)` on the control.
    fn apply_controlled(
        &mut self,
        gate: &Gate,
        ctrl: usize,
        target: usize,
    ) -> Result<(), EngineError> {
        if ctrl == target {
            return Err(EngineError::Backend {
                engine: "stabilizer",
                message: format!("control qubit {ctrl} equals the target"),
            });
        }
        let Some((pauli, ipow)) = self.rules.controlled(gate) else {
            return Err(non_clifford(&format!("controlled-{}", gate.name())));
        };
        match pauli {
            Pauli::I => {}
            Pauli::X => {
                let rows = self.t.apply_cx(ctrl, target, &self.ctx);
                self.push_rows(rows);
            }
            Pauli::Z => {
                let rows = self.t.apply_cz(ctrl, target, &self.ctx);
                self.push_rows(rows);
            }
            Pauli::Y => {
                // C-Y = (S on target) · C-X · (S† on target).
                self.apply_gate(&Gate::Sdg, target)?;
                let rows = self.t.apply_cx(ctrl, target, &self.ctx);
                self.push_rows(rows);
                self.apply_gate(&Gate::S, target)?;
            }
        }
        match ipow {
            0 => {}
            1 => self.apply_gate(&Gate::S, ctrl)?,
            2 => self.apply_gate(&Gate::Z, ctrl)?,
            _ => self.apply_gate(&Gate::Sdg, ctrl)?,
        }
        self.canon = None;
        Ok(())
    }
}

impl Default for StabilizerEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl SimulationEngine for StabilizerEngine {
    fn name(&self) -> &'static str {
        "stabilizer"
    }

    fn caps(&self) -> EngineCaps {
        EngineCaps {
            max_qubits: MAX_QUBITS,
            stochastic_kraus: true,
            dynamic: true,
        }
    }

    fn num_qubits(&self) -> usize {
        self.t.num_qubits()
    }

    fn prepare(&mut self, num_qubits: usize) -> Result<(), EngineError> {
        if num_qubits > MAX_QUBITS {
            return Err(EngineError::TooWide {
                num_qubits,
                limit: MAX_QUBITS,
                what: "stabilizer-tableau register",
            });
        }
        self.t = Tableau::new(num_qubits.max(1));
        self.canon = None;
        if let Some(metrics) = &self.metrics {
            #[allow(clippy::cast_precision_loss)]
            metrics
                .sink
                .metrics()
                .gauge_set_id(metrics.words, self.t.total_words() as f64);
            metrics.mem.record(self.memory_bytes());
        }
        Ok(())
    }

    fn apply_instruction(&mut self, inst: &Instruction) -> Result<(), EngineError> {
        check_instruction_width(self.num_qubits(), inst)?;
        refuse_channel(self.name(), inst)?;
        if inst.cond.is_some() {
            return Err(EngineError::NonUnitary {
                op: format!("conditioned {}", inst.name()),
            });
        }
        match &inst.kind {
            OpKind::Unitary {
                gate,
                target,
                controls,
            } => match controls.as_slice() {
                [] => self.apply_gate(gate, *target),
                [ctrl] => self.apply_controlled(gate, *ctrl, *target),
                more => Err(non_clifford(&format!(
                    "{}-controlled {}",
                    more.len(),
                    gate.name()
                ))),
            },
            OpKind::Swap { a, b, controls } => {
                if !controls.is_empty() {
                    return Err(non_clifford("controlled swap (Fredkin)"));
                }
                let rows = self.t.apply_swap(*a, *b, &self.ctx);
                self.canon = None;
                self.push_rows(rows);
                Ok(())
            }
            OpKind::Barrier(_) => Ok(()),
            other => Err(EngineError::NonUnitary {
                op: format!("{other:?}"),
            }),
        }
    }

    fn cost_metric(&self) -> CostMetric {
        CostMetric {
            name: "tableau-words",
            value: self.t.total_words(),
        }
    }

    fn amplitudes(&mut self) -> Result<Vec<Complex>, EngineError> {
        let n = self.t.num_qubits();
        if n > DENSE_LIMIT {
            return Err(EngineError::TooWide {
                num_qubits: n,
                limit: DENSE_LIMIT,
                what: "stabilizer dense-expansion",
            });
        }
        let canon = self.canonical();
        let k = canon.rank();
        let mut amps = vec![Complex::ZERO; 1usize << n];
        let mut m = vec![0u64; canon.anchor().len()];
        for mask in 0..(1u64 << k) {
            canon.member(mask, &mut m);
            let (ipow, rank) = canon
                .amplitude(&m)
                .expect("support members have nonzero amplitude");
            #[allow(clippy::cast_possible_truncation)]
            let idx = m[0] as usize;
            amps[idx] = phase_amplitude(ipow, rank);
        }
        Ok(amps)
    }

    fn amplitude(&mut self, basis: u128) -> Result<Complex, EngineError> {
        check_basis("stabilizer", self.t.num_qubits(), basis)?;
        let canon = self.canonical();
        let mut m = vec![0u64; canon.anchor().len()];
        #[allow(clippy::cast_possible_truncation)]
        {
            m[0] = basis as u64;
            if m.len() > 1 {
                m[1] = (basis >> 64) as u64;
            }
        }
        Ok(canon
            .amplitude(&m)
            .map_or(Complex::ZERO, |(ipow, rank)| phase_amplitude(ipow, rank)))
    }

    fn sample(
        &mut self,
        shots: usize,
        rng: &mut dyn RngCore,
    ) -> Result<BTreeMap<u128, usize>, EngineError> {
        let n = self.t.num_qubits();
        if n > 128 {
            return Err(EngineError::TooWide {
                num_qubits: n,
                limit: 128,
                what: "basis-index sample keys (use `StabilizerEngine::sample_bits`)",
            });
        }
        let canon = self.canonical();
        let mut buf = vec![0u64; canon.anchor().len()];
        let mut counts = BTreeMap::new();
        for _ in 0..shots {
            canon.sample_into(&mut buf, rng);
            let mut key = u128::from(buf[0]);
            if let Some(&hi) = buf.get(1) {
                key |= u128::from(hi) << 64;
            }
            *counts.entry(key).or_insert(0) += 1;
        }
        Ok(counts)
    }

    fn expectation(&mut self, pauli: &PauliString) -> Result<f64, EngineError> {
        check_pauli_width(self.t.num_qubits(), pauli)?;
        let w = self.t.words_per_row();
        let mut px = vec![0u64; w];
        let mut pz = vec![0u64; w];
        for (q, p) in pauli.support() {
            let (wq, bq) = (q / 64, 1u64 << (q % 64));
            match p {
                Pauli::X => px[wq] |= bq,
                Pauli::Z => pz[wq] |= bq,
                Pauli::Y => {
                    px[wq] |= bq;
                    pz[wq] |= bq;
                }
                Pauli::I => {}
            }
        }
        let (value, rowsums) = self.t.expectation(&px, &pz, &self.ctx);
        self.push_rowsums(rowsums);
        Ok(f64::from(value))
    }

    fn apply_kraus(
        &mut self,
        kraus: &[Matrix],
        qubit: usize,
        rng: &mut dyn RngCore,
    ) -> Result<usize, EngineError> {
        check_kraus("stabilizer", self.t.num_qubits(), kraus, qubit)?;
        // Every operator must be a scaled Pauli for the tableau to
        // track the post-channel state exactly.
        let mut paulis = Vec::with_capacity(kraus.len());
        let mut weights = Vec::with_capacity(kraus.len());
        for k in kraus {
            let Some((pauli, coeff)) = Pauli::from_scaled_matrix(k) else {
                return Err(EngineError::Unsupported {
                    engine: "stabilizer",
                    what: "non-Pauli Kraus operators — the tableau tracks only Pauli \
                           channels (probabilistic mixtures of I/X/Y/Z such as bit-flip, \
                           phase-flip, and depolarizing noise)"
                        .into(),
                });
            };
            paulis.push(pauli);
            weights.push(coeff.norm_sqr());
        }
        // For K = c·P the Born weight ‖K|ψ⟩‖² is |c|² on any state, so
        // the channel draw mirrors the dense engines' selection exactly.
        let chosen = choose_weighted(&weights, rng);
        match paulis[chosen] {
            Pauli::I => {}
            Pauli::X => self.apply_gate(&Gate::X, qubit)?,
            Pauli::Y => self.apply_gate(&Gate::Y, qubit)?,
            Pauli::Z => self.apply_gate(&Gate::Z, qubit)?,
        }
        Ok(chosen)
    }

    fn probability_of_one(&mut self, qubit: usize) -> Result<f64, EngineError> {
        check_qubit(self.t.num_qubits(), qubit)?;
        let (kind, rowsums) = self.t.measure_kind(qubit, &self.ctx);
        self.push_rowsums(rowsums);
        Ok(match kind {
            MeasureKind::Random { .. } => 0.5,
            MeasureKind::Determined(bit) => {
                if bit {
                    1.0
                } else {
                    0.0
                }
            }
        })
    }

    fn project(&mut self, qubit: usize, outcome: bool) -> Result<(), EngineError> {
        check_qubit(self.t.num_qubits(), qubit)?;
        let (kind, rowsums) = self.t.measure_kind(qubit, &self.ctx);
        self.push_rowsums(rowsums);
        match kind {
            MeasureKind::Random { pivot } => {
                let rowsums = self.t.project_random(qubit, pivot, outcome, &self.ctx);
                self.canon = None;
                self.push_rowsums(rowsums);
                self.push_measure(true);
                Ok(())
            }
            MeasureKind::Determined(bit) => {
                if bit != outcome {
                    return Err(EngineError::Backend {
                        engine: "stabilizer",
                        message: format!(
                            "projection of qubit {qubit} onto a zero-probability branch"
                        ),
                    });
                }
                self.push_measure(false);
                Ok(())
            }
        }
    }

    fn snapshot(&self) -> Option<Box<dyn SimulationEngine>> {
        Some(Box::new(self.clone()))
    }

    fn memory_bytes(&self) -> usize {
        self.t.storage_words() * std::mem::size_of::<u64>()
    }

    fn telemetry(&mut self, sink: &TelemetrySink) {
        self.metrics = sink.enabled_clone().map(StabilizerMetrics::new);
        self.ctx.set_telemetry(sink);
    }
}

/// The rejection every non-Clifford operation funnels through, naming
/// the supported gate set.
fn non_clifford(name: &str) -> EngineError {
    EngineError::Unsupported {
        engine: "stabilizer",
        what: format!(
            "non-Clifford gate `{name}` — the stabilizer tableau tracks only the \
             Clifford gate set (h, s, sdg, x, y, z, sx, sxdg, cx, cy, cz, swap, \
             and rotations by multiples of \u{3c0}/2)"
        ),
    }
}

/// `i^t · 2^{−k/2}` as a complex number (exact: `2^{−k}` is a dyadic
/// float and its square root is exact for even powers, faithfully
/// rounded otherwise — identical on every backend run).
fn phase_amplitude(ipow: u8, k: usize) -> Complex {
    #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
    let mag = 2f64.powi(-(k as i32)).sqrt();
    match ipow % 4 {
        0 => Complex::new(mag, 0.0),
        1 => Complex::new(0.0, mag),
        2 => Complex::new(-mag, 0.0),
        _ => Complex::new(0.0, -mag),
    }
}

/// The conjugate transpose of a 2×2 matrix.
fn adjoint(m: &Matrix) -> Matrix {
    Matrix::from_rows(
        2,
        2,
        &[
            m.get(0, 0).conj(),
            m.get(1, 0).conj(),
            m.get(0, 1).conj(),
            m.get(1, 1).conj(),
        ],
    )
}

/// Matches a 2×2 matrix against the six signed Paulis `±X/±Y/±Z`.
fn match_signed_pauli(m: &Matrix) -> Option<PauliImage> {
    let images = [
        (Pauli::X, true, false),
        (Pauli::Y, true, true),
        (Pauli::Z, false, true),
    ];
    for (p, x, z) in images {
        let pm = p.matrix();
        for neg in [false, true] {
            let sign = if neg { -1.0 } else { 1.0 };
            let hit = (0..2)
                .all(|i| (0..2).all(|j| m.get(i, j).approx_eq(pm.get(i, j).scale(sign), TOL)));
            if hit {
                return Some(PauliImage { x, z, neg });
            }
        }
    }
    None
}

/// Derives the tableau update rule of a single-qubit gate by
/// numerically conjugating X, Z, and Y through its matrix. `None` when
/// any image is not a signed Pauli, i.e. the gate is not Clifford.
/// (Global phase drops out of conjugation, so `Rz(π/2)` and `S` yield
/// the same LUT.)
pub(crate) fn single_lut(gate: &Gate) -> Option<SingleLut> {
    let u = gate.matrix();
    let ud = adjoint(&u);
    let conj = |p: Pauli| match_signed_pauli(&u.mul(&p.matrix()).mul(&ud));
    Some(SingleLut {
        on_x: conj(Pauli::X)?,
        on_z: conj(Pauli::Z)?,
        on_y: conj(Pauli::Y)?,
    })
}

/// The `CU = (controlled-P) · diag(1, i^t)_ctrl` decomposition of a
/// singly controlled gate as `(P, t)`; `None` when the base matrix is
/// not a fourth-root-of-unity multiple of a Pauli.
fn controlled_rule(gate: &Gate) -> Option<(Pauli, u8)> {
    let (pauli, coeff) = Pauli::from_scaled_matrix(&gate.matrix())?;
    Some((pauli, unit_phase(coeff)?))
}

/// Matches a unit coefficient against the fourth roots of unity,
/// returning `t` such that `c = i^t`.
fn unit_phase(c: Complex) -> Option<u8> {
    let roots = [
        Complex::ONE,
        Complex::I,
        Complex::new(-1.0, 0.0),
        Complex::new(0.0, -1.0),
    ];
    roots
        .iter()
        .position(|r| c.approx_eq(*r, TOL))
        .map(|t| u8::try_from(t).expect("t < 4"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdt_array::ArrayEngine;
    use qdt_circuit::generators;
    use qdt_circuit::Circuit;
    use qdt_engine::run;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const INV_SQRT2: f64 = std::f64::consts::FRAC_1_SQRT_2;

    fn bell() -> Circuit {
        let mut qc = Circuit::new(2);
        qc.h(0).cx(0, 1);
        qc
    }

    /// `|⟨ψ_a|ψ_b⟩|` over the dense vectors (global-phase-insensitive).
    fn overlap(a: &mut dyn SimulationEngine, b: &mut dyn SimulationEngine) -> f64 {
        let va = a.amplitudes().unwrap();
        let vb = b.amplitudes().unwrap();
        va.iter()
            .zip(&vb)
            .fold(Complex::ZERO, |acc, (x, y)| acc + x.conj() * *y)
            .abs()
    }

    #[test]
    fn bell_amplitudes_match_the_dense_result() {
        let mut e = StabilizerEngine::with_threads(1);
        run(&mut e, &bell()).unwrap();
        let amps = e.amplitudes().unwrap();
        assert!((amps[0].re - INV_SQRT2).abs() < 1e-12);
        assert!((amps[3].re - INV_SQRT2).abs() < 1e-12);
        assert!(amps[1].abs() < 1e-12 && amps[2].abs() < 1e-12);
        assert!((e.amplitude(0b11).unwrap().re - INV_SQRT2).abs() < 1e-12);
    }

    #[test]
    fn s_on_plus_carries_the_i_phase() {
        // S|+⟩ = (|0⟩ + i|1⟩)/√2 — the canonical form must keep the
        // relative phase, not just the support.
        let mut qc = Circuit::new(1);
        qc.h(0).s(0);
        let mut e = StabilizerEngine::with_threads(1);
        run(&mut e, &qc).unwrap();
        let a1 = e.amplitude(1).unwrap();
        assert!((a1.im - INV_SQRT2).abs() < 1e-12 && a1.re.abs() < 1e-12);
    }

    #[test]
    fn wide_ghz_amplitudes_and_sampling() {
        let mut qc = Circuit::new(60);
        qc.h(0);
        for q in 0..59 {
            qc.cx(q, q + 1);
        }
        let mut e = StabilizerEngine::with_threads(1);
        run(&mut e, &qc).unwrap();
        let all_ones = (1u128 << 60) - 1;
        assert!((e.amplitude(0).unwrap().abs() - INV_SQRT2).abs() < 1e-12);
        assert!((e.amplitude(all_ones).unwrap().abs() - INV_SQRT2).abs() < 1e-12);
        assert!(e.amplitude(1).unwrap().abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(9);
        let counts = e.sample(512, &mut rng).unwrap();
        assert!(counts.keys().all(|&k| k == 0 || k == all_ones));
        assert_eq!(counts.values().sum::<usize>(), 512);
    }

    #[test]
    fn matches_the_array_engine_on_random_clifford_circuits() {
        for seed in 0..8u64 {
            let qc = generators::random_clifford_seeded(6, 40, seed);
            let mut s = StabilizerEngine::with_threads(1);
            let mut a = ArrayEngine::new();
            run(&mut s, &qc).unwrap();
            run(&mut a, &qc).unwrap();
            assert!(
                (overlap(&mut s, &mut a) - 1.0).abs() < 1e-9,
                "fidelity loss on seed {seed}"
            );
            for pauli in ["XXZZIY", "ZIZIZI", "YXYXYX"] {
                let p: PauliString = pauli.parse().unwrap();
                let es = s.expectation(&p).unwrap();
                let ea = a.expectation(&p).unwrap();
                assert!((es - ea).abs() < 1e-9, "⟨{pauli}⟩ differs on seed {seed}");
            }
        }
    }

    #[test]
    fn quarter_angle_rotations_are_accepted_and_t_is_rejected() {
        let mut qc = Circuit::new(1);
        qc.h(0).rz(std::f64::consts::FRAC_PI_2, 0);
        let mut e = StabilizerEngine::with_threads(1);
        run(&mut e, &qc).unwrap();
        // Rz(π/2) ≅ S up to global phase.
        let a1 = e.amplitude(1).unwrap();
        assert!((a1.im - INV_SQRT2).abs() < 1e-12);

        let mut qc = Circuit::new(1);
        qc.t(0);
        let mut e = StabilizerEngine::with_threads(1);
        let err = run(&mut e, &qc).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("non-Clifford gate `t`"), "got: {msg}");
        assert!(msg.contains("cx"), "the message must name the Clifford set");
    }

    #[test]
    fn controlled_phase_gates_decompose_to_clifford() {
        // cp(π) = CZ: |11⟩ picks up −1.
        let mut qc = Circuit::new(2);
        qc.h(0).h(1).cp(std::f64::consts::PI, 0, 1);
        let mut s = StabilizerEngine::with_threads(1);
        let mut a = ArrayEngine::new();
        run(&mut s, &qc).unwrap();
        run(&mut a, &qc).unwrap();
        assert!((overlap(&mut s, &mut a) - 1.0).abs() < 1e-9);
        // Toffoli is not Clifford.
        let mut qc = Circuit::new(3);
        qc.ccx(0, 1, 2);
        let mut e = StabilizerEngine::with_threads(1);
        let msg = run(&mut e, &qc).unwrap_err().to_string();
        assert!(msg.contains("2-controlled x"), "got: {msg}");
    }

    #[test]
    fn probabilities_are_exact_and_projection_collapses() {
        let mut e = StabilizerEngine::with_threads(1);
        run(&mut e, &bell()).unwrap();
        assert!((e.probability_of_one(0).unwrap() - 0.5).abs() < f64::EPSILON);
        e.project(0, true).unwrap();
        assert!((e.probability_of_one(0).unwrap() - 1.0).abs() < f64::EPSILON);
        assert!((e.probability_of_one(1).unwrap() - 1.0).abs() < f64::EPSILON);
        // The opposite branch is now zero-probability.
        let err = e.project(1, false).unwrap_err().to_string();
        assert!(err.contains("zero-probability"), "got: {err}");
    }

    #[test]
    fn snapshot_restores_the_pre_measurement_state() {
        let mut e = StabilizerEngine::with_threads(1);
        run(&mut e, &bell()).unwrap();
        let mut snap = e.snapshot().unwrap();
        e.project(0, true).unwrap();
        assert!((snap.probability_of_one(0).unwrap() - 0.5).abs() < f64::EPSILON);
        assert!((e.probability_of_one(0).unwrap() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn pauli_channels_are_native_and_dense_kraus_is_rejected() {
        let mut e = StabilizerEngine::with_threads(1);
        e.prepare(2).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        // A certain bit flip: X with weight 1.
        let flip = [Gate::X.matrix()];
        e.apply_kraus(&flip, 0, &mut rng).unwrap();
        assert!((e.probability_of_one(0).unwrap() - 1.0).abs() < f64::EPSILON);
        // Depolarizing is a Pauli channel and must be accepted.
        let p: f64 = 0.1;
        let scaled = |g: Gate, s: f64| {
            let m = g.matrix();
            let entries: Vec<Complex> = (0..2)
                .flat_map(|i| (0..2).map(move |j| (i, j)))
                .map(|(i, j)| m.get(i, j).scale(s))
                .collect();
            Matrix::from_rows(2, 2, &entries)
        };
        let depol = [
            scaled(Gate::I, (1.0 - p).sqrt()),
            scaled(Gate::X, (p / 3.0).sqrt()),
            scaled(Gate::Y, (p / 3.0).sqrt()),
            scaled(Gate::Z, (p / 3.0).sqrt()),
        ];
        e.apply_kraus(&depol, 1, &mut rng).unwrap();
        // Amplitude damping is not a Pauli channel.
        let gamma: f64 = 0.1;
        let z = Complex::ZERO;
        let damp = [
            Matrix::from_rows(
                2,
                2,
                &[Complex::ONE, z, z, Complex::new((1.0 - gamma).sqrt(), 0.0)],
            ),
            Matrix::from_rows(2, 2, &[z, Complex::new(gamma.sqrt(), 0.0), z, z]),
        ];
        let msg = e.apply_kraus(&damp, 0, &mut rng).unwrap_err().to_string();
        assert!(msg.contains("Pauli channels"), "got: {msg}");
    }

    #[test]
    fn sampling_is_bit_identical_across_thread_counts() {
        let qc = generators::random_clifford_seeded(40, 120, 17);
        // threshold=1: the 128-item row blocks reach the pool.
        let histogram = |threads: usize| {
            let ctx = KernelContext::with_threads(threads).with_threshold(1);
            let mut e = StabilizerEngine::with_context(ctx);
            run(&mut e, &qc).unwrap();
            let mut rng = StdRng::seed_from_u64(23);
            e.sample(256, &mut rng).unwrap()
        };
        let base = histogram(1);
        assert_eq!(base, histogram(2));
        assert_eq!(base, histogram(4));
    }

    #[test]
    fn width_guards_and_cost_metric() {
        let mut e = StabilizerEngine::with_threads(1);
        assert!(matches!(
            e.prepare(MAX_QUBITS + 1),
            Err(EngineError::TooWide { .. })
        ));
        e.prepare(130).unwrap();
        assert!(matches!(
            e.sample(1, &mut StdRng::seed_from_u64(0)),
            Err(EngineError::TooWide { .. })
        ));
        let mut rng = StdRng::seed_from_u64(0);
        let bits = e.sample_bits(4, &mut rng);
        assert_eq!(bits.values().sum::<usize>(), 4);
        assert_eq!(e.cost_metric().name, "tableau-words");
        assert!(e.cost_metric().value >= 2 * (2 * 130 + 1));
        assert!(e.amplitudes().is_err());
        assert!(e.amplitude(0).is_ok(), "wide single amplitudes must work");
    }

    #[test]
    fn telemetry_counts_row_ops_and_measurements() {
        let sink = TelemetrySink::new();
        let mut e = StabilizerEngine::with_threads(1);
        e.telemetry(&sink);
        run(&mut e, &bell()).unwrap();
        e.project(0, false).unwrap();
        let metrics = sink.metrics().flattened();
        let get = |name: &str| {
            metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0.0)
        };
        assert!(get("stabilizer.row_ops") >= 8.0);
        assert!(get("stabilizer.measure.random") >= 1.0);
        assert!(get("stabilizer.tableau.words") > 0.0);
    }
}
